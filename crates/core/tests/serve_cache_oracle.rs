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
//! forwarder's door) serves exactly like its decoded records would. A host
//! that admits plain queries from `dnswire::view_query` instead of
//! decoding them (`ServeCache::serve_plain`) is held to the same reference,
//! bytes and `CacheStats` alike.

use dnswire::{DnsName, Message, MessageBuilder, QClass, Rcode, Record, RrType};
use netsim::{Payload, SimDuration, SimTime};
use odns::{CachedAnswer, DnsCache, ServeCache};
use proptest::prelude::*;
use std::net::Ipv4Addr;

const CAPACITY: usize = 4;
const NAMES: [&str; 2] = ["odns-study.example.", "other.example."];

#[derive(Debug, Clone)]
enum Op {
    /// A client query for `NAMES[name]` with 0x20 casing drawn from
    /// `casing` (one bit per letter); `exotic` asks in class `CH`.
    Query {
        name: usize,
        txid: u16,
        rd: bool,
        casing: u32,
        exotic: bool,
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

fn op() -> impl Strategy<Value = Op> {
    // Biased toward one query shape (name 0, RD set, canonical casing,
    // class `IN`, few txids) so the memo matches and the `HotWire` replays
    // often enough for the writes and clock steps to land between replays.
    let query = || {
        (0usize..4, 0u16..3, 0u8..4, 0u32..4, 0u8..8).prop_map(
            |(name, txid, rd, casing, exotic)| Op::Query {
                name: name / 3,
                txid,
                rd: rd != 0,
                casing: if casing == 0 { 0x5A5A } else { 0 },
                exotic: exotic == 0,
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

/// The reference host: decode, `DnsCache::get`, build.
fn reference(cache: &mut DnsCache, payload: &[u8], now: SimTime) -> Option<Vec<u8>> {
    let query = Message::decode(payload).unwrap();
    let q = query.question()?;
    let builder = MessageBuilder::response_to(&query).recursion_available(true);
    let response = match cache.get(&q.qname, q.qtype, now)? {
        CachedAnswer::Positive(records) => {
            records.into_iter().fold(builder, MessageBuilder::answer)
        }
        CachedAnswer::Negative(rcode) => builder.rcode(rcode),
    };
    Some(response.build().encode())
}

/// The real host's order of calls: undecoded first, decode on decline.
fn served(serve: &mut ServeCache, payload: &[u8], now: SimTime) -> Option<Vec<u8>> {
    serve
        .serve_undecoded(payload, now)
        .or_else(|| {
            let query = Message::decode(payload).unwrap();
            serve.serve_decoded(payload, &query, now)
        })
        .map(|p| p.to_vec())
}

/// [`served`] by a host that decodes only what `dnswire::view_query`
/// declines: the forwarder's order of calls.
fn served_by_view(serve: &mut ServeCache, payload: &[u8], now: SimTime) -> Option<Vec<u8>> {
    let arrived: Payload = payload.into();
    serve
        .serve_undecoded(&arrived, now)
        .or_else(|| match dnswire::view_query(&arrived) {
            Some(v) => serve.serve_plain(&arrived, v.id, v.rd, &v.qname(), v.qtype, now),
            None => {
                let query = Message::decode(&arrived).unwrap();
                serve.serve_decoded(&arrived, &query, now)
            }
        })
        .map(|p| p.to_vec())
}

/// The one step that builds the cache's heap table — a second name joining
/// the first — between replays: the `HotWire` and the memo must drop and
/// match exactly as they do on either side of it. Scripted, because the
/// proptest reaches this step only behind an `Evict`, spilled already.
#[test]
fn second_name_arrives_between_replays() {
    let mut serve = ServeCache::new(CAPACITY);
    let mut viewing = ServeCache::new(CAPACITY);
    let mut plain = DnsCache::new(CAPACITY);
    let mut now = SimTime::ZERO + SimDuration::from_millis(250);
    let insert = |hosts: [&mut ServeCache; 2], plain: &mut DnsCache, name, octet, ttl, now| {
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
        for host in hosts {
            host.insert_wire(owner.clone(), RrType::A, response.clone(), ttl, now);
        }
        plain.insert(owner, RrType::A, CachedAnswer::Positive(records), ttl, now);
    };
    let mut queries = 0;
    let mut ask = |hosts: [&mut ServeCache; 2], plain: &mut DnsCache, name, txid, now| {
        let payload = MessageBuilder::query(txid, cased(NAMES[name], 0), RrType::A)
            .recursion_desired(true)
            .build()
            .encode();
        queries += 1;
        let expected = reference(plain, &payload, now);
        let [serve, viewing] = hosts;
        assert_eq!(served(serve, &payload, now), expected, "query {queries}");
        assert_eq!(served_by_view(viewing, &payload, now), expected);
        expected.is_some()
    };

    // One name, held inline: decode, template, then two replays.
    insert([&mut serve, &mut viewing], &mut plain, 0, 1, 300, now);
    for txid in [1, 2, 2, 2] {
        assert!(ask([&mut serve, &mut viewing], &mut plain, 0, txid, now));
    }
    // The second name builds the table under a live replay.
    insert([&mut serve, &mut viewing], &mut plain, 1, 2, 300, now);
    assert_eq!(serve.cache().len(), 2);
    for (name, txid) in [(0, 2), (0, 2), (1, 2), (1, 3), (0, 2), (0, 2)] {
        assert!(ask([&mut serve, &mut viewing], &mut plain, name, txid, now));
    }
    // Spilled: an overwrite of the memoized name must not be outlived by
    // the replay either, nor a TTL-second boundary, nor its expiry.
    insert([&mut serve, &mut viewing], &mut plain, 0, 3, 2, now);
    for millis in [0, 0, 800, 0, 1_300] {
        now += SimDuration::from_millis(millis);
        let live = ask([&mut serve, &mut viewing], &mut plain, 0, 2, now);
        assert_eq!(live, millis != 1_300, "expired 2.1 s after the overwrite");
    }
    assert_eq!(serve.cache().len(), 1, "the expired entry was forgotten");
    assert!(ask([&mut serve, &mut viewing], &mut plain, 1, 2, now));
    assert_eq!(serve.cache().stats, plain.stats);
    assert_eq!(viewing.cache().stats, plain.stats);
    assert_eq!(plain.stats.hits + plain.stats.misses, queries);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn serve_cache_is_indistinguishable_from_decode_get_build(
        ops in proptest::collection::vec(op(), 1..120),
    ) {
        let mut serve = ServeCache::new(CAPACITY);
        let mut viewing = ServeCache::new(CAPACITY);
        let mut plain = DnsCache::new(CAPACITY);
        let mut now = SimTime::ZERO;
        let mut queries = 0u64;
        let mut filler = 0u32;
        for op in ops {
            match op {
                Op::Query { name, txid, rd, casing, exotic } => {
                    let qname = cased(NAMES[name], casing);
                    let class = if exotic { QClass::Ch } else { QClass::In };
                    let payload = MessageBuilder::query_class(txid, qname, RrType::A, class)
                        .recursion_desired(rd)
                        .build()
                        .encode();
                    queries += 1;
                    let expected = reference(&mut plain, &payload, now);
                    prop_assert_eq!(
                        served(&mut serve, &payload, now),
                        expected.clone(),
                        "query {} at {:?}", queries, now
                    );
                    prop_assert_eq!(
                        served_by_view(&mut viewing, &payload, now),
                        expected,
                        "query {} at {:?}, through the view", queries, now
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
                        let response: Payload = response.into();
                        for host in [&mut serve, &mut viewing] {
                            host.insert_wire(owner.clone(), RrType::A, response.clone(), ttl, now);
                        }
                    } else {
                        for host in [&mut serve, &mut viewing] {
                            host.insert(owner.clone(), RrType::A, answer.clone(), ttl, now);
                        }
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
                        for host in [&mut serve, &mut viewing] {
                            host.insert(owner.clone(), RrType::A, answer.clone(), 60, now);
                        }
                        plain.insert(owner, RrType::A, answer, 60, now);
                    }
                }
            }
        }
        // One counted lookup per client query, on every side.
        let stats = serve.cache().stats;
        prop_assert_eq!(stats.hits + stats.misses, queries);
        prop_assert_eq!(stats, plain.stats);
        prop_assert_eq!(viewing.cache().stats, plain.stats);
    }
}
