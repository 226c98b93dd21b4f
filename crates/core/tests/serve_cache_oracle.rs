//! `ServeCache` against an uncached reference.
//!
//! The serve path stacks three accelerators on a `DnsCache` (the
//! `QueryMemo` byte match, the `HotWire` replay, the pre-encoded
//! `ResponseTemplate`). None of them may ever be observable: for any
//! interleaving of client queries, clock advances and cache writes, the
//! bytes a client gets must equal what a host that always decodes, calls
//! `DnsCache::get` and builds the response with `MessageBuilder` would
//! send. In particular a `HotWire` replay can never outlive an insert, an
//! eviction, a TTL-second boundary or a change of query casing — and an
//! answer cached still encoded (`ServeCache::insert_wire`, the relaying
//! forwarder's door) serves exactly like its decoded records would. On a
//! miss, the question `ServeCache::serve` hands back is the one
//! `Message::decode` reads off the same bytes, even when the memo supplied
//! it without reading them; and only a query `dnswire::view_query` reads
//! ever becomes the memo. A query that is not a plain `IN` query — class
//! `CH`, another opcode, no question or two — is refused by both hosts and
//! never looked up.

use dnswire::{
    Class, DnsName, Message, MessageBuilder, Opcode, QClass, Question, RData, Rcode, Record, RrType,
};
use netsim::{Payload, SimDuration, SimTime};
use odns::{CachedAnswer, DnsCache, Reading, ServeCache, Served};
use proptest::prelude::*;
use std::net::Ipv4Addr;

const CAPACITY: usize = 4;
const NAMES: [&str; 2] = ["odns-study.example.", "other.example."];

#[derive(Debug, Clone)]
enum Op {
    /// A client query for `NAMES[name]` with 0x20 casing drawn from
    /// `casing` (one bit per letter), in the given shape.
    Query {
        name: usize,
        txid: u16,
        rd: bool,
        casing: u32,
        shape: Shape,
    },
    /// Advance the clock (milliseconds, so TTL-second boundaries are
    /// crossed at arbitrary offsets).
    Advance(u64),
    /// Cache a positive or negative answer for `NAMES[name]`; a positive
    /// one goes into the `ServeCache` as the encoded upstream response when
    /// `wire` is set (the reference always gets the decoded records).
    Insert {
        name: usize,
        positive: bool,
        wire: bool,
        ttl: u32,
    },
    /// Insert `CAPACITY` other names, evicting everything older.
    Evict,
}

/// How a client query is put on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// Class `IN` and nothing but the question: what the view reads.
    Plain,
    /// Class `IN` with an EDNS OPT record: decoded, answered as plain.
    Edns,
    /// Class `CH`: refused.
    Chaos,
    /// Opcode STATUS: refused.
    Status,
    /// QDCOUNT 0: refused.
    NoQuestion,
    /// QDCOUNT 2: refused.
    TwoQuestions,
}

fn op() -> impl Strategy<Value = Op> {
    // Biased toward one query shape (name 0, RD set, canonical casing,
    // class `IN`, few txids) so the memo matches and the `HotWire` replays
    // often enough for the writes and clock steps to land between replays.
    let query = || {
        (0usize..4, 0u16..3, 0u8..4, 0u32..4, 0u8..16).prop_map(
            |(name, txid, rd, casing, shape)| Op::Query {
                name: name / 3,
                txid,
                rd: rd != 0,
                casing: if casing == 0 { 0x5A5A } else { 0 },
                shape: match shape {
                    0 => Shape::Chaos,
                    1 => Shape::Edns,
                    2 => Shape::Status,
                    3 => Shape::NoQuestion,
                    4 => Shape::TwoQuestions,
                    _ => Shape::Plain,
                },
            },
        )
    };
    prop_oneof![
        query(),
        query(),
        query(),
        query(),
        (0u64..=400_000).prop_map(Op::Advance),
        (0u64..=1_500).prop_map(Op::Advance),
        (0usize..2, any::<bool>(), any::<bool>(), 1u32..=600).prop_map(
            |(name, positive, wire, ttl)| Op::Insert {
                name,
                positive,
                wire,
                ttl
            }
        ),
        Just(Op::Evict),
    ]
}

fn cased(name: &str, casing: u32) -> DnsName {
    let s: String = name
        .chars()
        .enumerate()
        .map(|(i, c)| {
            if casing >> (i % 32) & 1 == 1 {
                c.to_ascii_uppercase()
            } else {
                c
            }
        })
        .collect();
    DnsName::parse(&s).unwrap()
}

/// The reference host: decode, refuse all but a plain `IN` query with no
/// lookup, else `DnsCache::get`, build.
fn reference(cache: &mut DnsCache, payload: &[u8], now: SimTime) -> Option<Vec<u8>> {
    let query = Message::decode(payload).unwrap();
    let plain = !query.header.flags.response
        && query.header.flags.opcode == Opcode::Query
        && query.questions.len() == 1
        && query.questions[0].qclass == QClass::In;
    if !plain {
        let refused = MessageBuilder::response_to(&query).rcode(Rcode::Refused);
        return Some(refused.build().encode());
    }
    let q = &query.questions[0];
    let builder = MessageBuilder::response_to(&query).recursion_available(true);
    let response = match cache.get(&q.qname, q.qtype, now)? {
        CachedAnswer::Positive(records) => {
            records.into_iter().fold(builder, MessageBuilder::answer)
        }
        CachedAnswer::Negative(rcode) => builder.rcode(rcode),
    };
    Some(response.build().encode())
}

/// A client query's bytes.
fn query_bytes(txid: u16, qname: DnsName, rd: bool, shape: Shape) -> Vec<u8> {
    let class = if shape == Shape::Chaos {
        QClass::Ch
    } else {
        QClass::In
    };
    let mut query =
        MessageBuilder::query_class(txid, qname, RrType::A, class).recursion_desired(rd);
    if shape == Shape::Edns {
        query = query.additional(Record {
            name: DnsName::root(),
            class: Class::Other(4096),
            ttl: 0,
            rdata: RData::Opt(Vec::new()),
        });
    }
    let mut query = query.build();
    match shape {
        Shape::Status => query.header.flags.opcode = Opcode::Status,
        Shape::NoQuestion => query.questions.clear(),
        Shape::TwoQuestions => {
            let first = &query.questions[0];
            let second = Question::new(first.qname.clone(), RrType::Txt);
            query.questions.push(second);
        }
        Shape::Plain | Shape::Edns | Shape::Chaos => {}
    }
    query.encode()
}

/// `payload` through the one door: the answer's bytes — a refusal exactly
/// when the query is not a plain `IN` one — or `None` on a miss after
/// checking the question handed back against the decoder's reading of the
/// same bytes, and how it was read against the memo rule: the first query
/// the view reads (whose bytes `memo` keeps) is the memo.
fn served(
    serve: &mut ServeCache,
    memo: &mut Option<Vec<u8>>,
    payload: &[u8],
    now: SimTime,
) -> Option<Vec<u8>> {
    let viewed = dnswire::view_query(payload).is_some();
    if viewed && memo.is_none() {
        *memo = Some(payload.to_vec());
    }
    let decoded = Message::decode(payload).unwrap();
    let plain = decoded.is_plain_in_query();
    let query = match serve.serve(&payload.into(), now).expect("a query") {
        Served::Answer(answer) if plain => return Some(answer.to_vec()),
        Served::Refused(refusal) if !plain => return Some(refusal.to_vec()),
        Served::Miss(query) if plain => query,
        other => panic!("plain {plain}, served {other:?}"),
    };
    let q = &decoded.questions[0];
    assert_eq!(query.id, decoded.header.id);
    assert_eq!(query.rd, decoded.header.flags.recursion_desired);
    assert_eq!(query.qname.as_wire(), q.qname.as_wire());
    assert_eq!(query.qtype, q.qtype);
    let expected = match memo {
        Some(memo) if memo[2..] == payload[2..] => Reading::Memo,
        _ if viewed => Reading::View,
        _ => Reading::Decoded,
    };
    assert_eq!(query.read, expected);
    None
}

/// The one step that builds the cache's heap table — a second name joining
/// the first — between replays: the `HotWire` and the memo must drop and
/// match exactly as they do on either side of it. Scripted, because the
/// proptest reaches this step only behind an `Evict`, spilled already.
#[test]
fn second_name_arrives_between_replays() {
    let mut serve = ServeCache::new(CAPACITY);
    let mut plain = DnsCache::new(CAPACITY);
    let mut memo = None;
    let mut now = SimTime::ZERO + SimDuration::from_millis(250);
    let insert = |serve: &mut ServeCache, plain: &mut DnsCache, name, octet, ttl, now| {
        let owner = DnsName::parse(NAMES[name]).unwrap();
        let records = vec![Record::a(
            owner.clone(),
            ttl,
            Ipv4Addr::new(198, 51, 100, octet),
        )];
        let asked = MessageBuilder::query(0xFEED, owner.clone(), RrType::A).build();
        let response: Payload = MessageBuilder::response_to(&asked)
            .answer(records[0].clone())
            .build()
            .encode()
            .into();
        serve.insert_wire(owner.clone(), RrType::A, response, ttl, now);
        plain.insert(owner, RrType::A, CachedAnswer::Positive(records), ttl, now);
    };
    let mut queries = 0;
    let mut ask = |serve: &mut ServeCache, plain: &mut DnsCache, name, txid, now| {
        let payload = query_bytes(txid, cased(NAMES[name], 0), true, Shape::Plain);
        queries += 1;
        let expected = reference(plain, &payload, now);
        let got = served(serve, &mut memo, &payload, now);
        assert_eq!(got, expected, "query {queries}");
        expected.is_some()
    };

    // One name, held inline: decode, template, then two replays.
    insert(&mut serve, &mut plain, 0, 1, 300, now);
    for txid in [1, 2, 2, 2] {
        assert!(ask(&mut serve, &mut plain, 0, txid, now));
    }
    // The second name builds the table under a live replay.
    insert(&mut serve, &mut plain, 1, 2, 300, now);
    assert_eq!(serve.cache().len(), 2);
    for (name, txid) in [(0, 2), (0, 2), (1, 2), (1, 3), (0, 2), (0, 2)] {
        assert!(ask(&mut serve, &mut plain, name, txid, now));
    }
    // Spilled: an overwrite of the memoized name must not be outlived by
    // the replay either, nor a TTL-second boundary, nor its expiry.
    insert(&mut serve, &mut plain, 0, 3, 2, now);
    for millis in [0, 0, 800, 0, 1_300] {
        now += SimDuration::from_millis(millis);
        let live = ask(&mut serve, &mut plain, 0, 2, now);
        assert_eq!(live, millis != 1_300, "expired 2.1 s after the overwrite");
    }
    assert_eq!(serve.cache().len(), 1, "the expired entry was forgotten");
    assert!(ask(&mut serve, &mut plain, 1, 2, now));
    assert_eq!(serve.cache().stats, plain.stats);
    assert_eq!(plain.stats.hits + plain.stats.misses, queries);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn serve_cache_is_indistinguishable_from_decode_get_build(
        ops in proptest::collection::vec(op(), 1..120),
    ) {
        let mut serve = ServeCache::new(CAPACITY);
        let mut plain = DnsCache::new(CAPACITY);
        let mut memo = None;
        let mut now = SimTime::ZERO;
        let mut queries = 0u64;
        let mut lookups = 0u64;
        let mut filler = 0u32;
        for op in ops {
            match op {
                Op::Query { name, txid, rd, casing, shape } => {
                    let payload = query_bytes(txid, cased(NAMES[name], casing), rd, shape);
                    queries += 1;
                    lookups += u64::from(matches!(shape, Shape::Plain | Shape::Edns));
                    let expected = reference(&mut plain, &payload, now);
                    prop_assert_eq!(
                        served(&mut serve, &mut memo, &payload, now),
                        expected,
                        "query {} at {:?}", queries, now
                    );
                }
                Op::Advance(ms) => now += SimDuration::from_millis(ms),
                Op::Insert { name, positive, wire, ttl } => {
                    let owner = DnsName::parse(NAMES[name]).unwrap();
                    let records = vec![
                        Record::a(owner.clone(), ttl, Ipv4Addr::new(198, 51, 100, (ttl % 251) as u8)),
                        Record::a(owner.clone(), ttl, Ipv4Addr::new(192, 0, 2, 200)),
                    ];
                    let answer = if positive {
                        CachedAnswer::Positive(records.clone())
                    } else {
                        CachedAnswer::Negative(Rcode::NxDomain)
                    };
                    if positive && wire {
                        // What upstream would have sent a forwarder that
                        // asked in some other client's casing.
                        let asked = MessageBuilder::query(0xFEED, cased(NAMES[name], 0xA5), RrType::A)
                            .build();
                        let response = records
                            .into_iter()
                            .fold(MessageBuilder::response_to(&asked), MessageBuilder::answer)
                            .build()
                            .encode();
                        serve.insert_wire(owner.clone(), RrType::A, response.into(), ttl, now);
                    } else {
                        serve.insert(owner.clone(), RrType::A, answer.clone(), ttl, now);
                    }
                    plain.insert(owner, RrType::A, answer, ttl, now);
                }
                Op::Evict => {
                    for _ in 0..CAPACITY {
                        filler += 1;
                        let owner = DnsName::parse(&format!("f{filler}.filler.example.")).unwrap();
                        let answer = CachedAnswer::Positive(vec![Record::a(
                            owner.clone(),
                            60,
                            Ipv4Addr::new(10, 0, 0, 1),
                        )]);
                        serve.insert(owner.clone(), RrType::A, answer.clone(), 60, now);
                        plain.insert(owner, RrType::A, answer, 60, now);
                    }
                }
            }
        }
        // One counted lookup per plain client query, on both sides.
        let stats = serve.cache().stats;
        prop_assert_eq!(stats.hits + stats.misses, lookups);
        prop_assert_eq!(stats, plain.stats);
    }
}
