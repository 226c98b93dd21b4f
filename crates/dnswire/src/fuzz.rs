//! Deterministic structured fuzz harness over [`Message::decode`] /
//! [`Message::decode_prefix`], [`walk_sections`](crate::walk_sections) and
//! the three views ([`view_query`](crate::view_query),
//! [`view_answer_a`](crate::view_answer_a),
//! [`view_referral`](crate::view_referral)).
//!
//! The *Injection Attacks Reloaded* threat model tunnels parser-confusion
//! payloads over DNS: truncated bodies, inflated section counts, skewed
//! RDLENGTH fields, and compression-pointer games. This module replays
//! exactly those mutation classes against the decoder and checks five
//! oracles on every input:
//!
//! 1. **no panic** — decoding hostile bytes must fail with a
//!    [`WireError`], never unwind;
//! 2. **no desync** — `decode_prefix` never claims to consume more bytes
//!    than it was given, and [`Message::decode`] agrees with it about
//!    trailing bytes;
//! 3. **reparse stability** — a successfully decoded message re-encodes
//!    and decodes back to a structurally identical message (the classic
//!    smuggling primitive is a payload two parsers read differently);
//! 4. **walk agreement** — the allocation-free section walk relays stand
//!    on never panics, accepts every input the decoder accepts, and reads
//!    the same id, QR bit, ANCOUNT and minimum answer TTL off it;
//! 5. **view agreement** — the relation runs the other way for the three
//!    views hosts and the classifier read instead of decoding: none
//!    panics, and whenever one returns `Some` the decoder accepts the same
//!    bytes and agrees on every field (a plain `IN` query with nothing but
//!    its question, same id, RD, QNAME bytes and QTYPE; same RCODE and A
//!    addresses; a response with no answer whose first NS record's glue is
//!    the same address, under the same id). [`FuzzReport`] counts how
//!    often each view accepted, so a run in which the oracle never fired
//!    is visible.
//!
//! Everything is seeded: the corpus is fixed, the mutator RNG is a
//! [SplitMix64] stream keyed by the caller's seed, and a given
//! `(seed, iterations)` pair replays the identical input sequence on every
//! run and machine — the harness is detlint-clean by construction (no
//! wall-clock, no entropy) and doubles as a regression corpus in CI.
//!
//! [SplitMix64]: https://prng.di.unimi.it/splitmix64.c

use crate::builder::MessageBuilder;
use crate::message::Message;
use crate::name::DnsName;
use crate::question::QClass;
use crate::rdata::{Class, RData, Record, RrType, SoaData};
use crate::WireError;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The seed every CI / test invocation uses, so failures reported by one
/// run reproduce everywhere.
pub const DEFAULT_SEED: u64 = 0x0d15_ea5e_0bad_c0de;

/// Quick-mode iteration count — the acceptance floor for a CI pass.
pub const QUICK_ITERATIONS: u64 = 10_000;

/// How many inputs of a quick run each view must at least have accepted
/// for the fifth oracle to mean anything (160, 163 and 113 when this was
/// written). A view whose shape drifted away from the corpus, or a corpus
/// that lost its accepted exemplars, fails `wirefuzz` here rather than
/// passing vacuously.
pub const QUICK_VIEW_FLOOR: u64 = 100;

/// SplitMix64: the minimal deterministic generator. Hand-rolled so the
/// wire crate stays dependency-free; statistical quality is irrelevant
/// here — only determinism and coverage spread matter.
#[derive(Debug, Clone)]
struct FuzzRng(u64);

impl FuzzRng {
    fn new(seed: u64) -> Self {
        FuzzRng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-ish index below `n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// What a failing input violated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// The decoder panicked instead of returning a [`WireError`].
    Panic,
    /// `decode_prefix` claimed to consume more bytes than it was given.
    ConsumedPastEnd {
        /// Bytes claimed.
        consumed: usize,
        /// Bytes available.
        len: usize,
    },
    /// [`Message::decode`] and [`Message::decode_prefix`] disagree about
    /// the same bytes.
    PrefixDisagreement,
    /// A decoded message failed to re-encode for a reason other than the
    /// size cap (decoding compressed RDATA can legitimately expand past
    /// [`crate::MAX_MESSAGE_LEN`] — anything else is a codec bug).
    ReencodeError(WireError),
    /// decode → encode → decode produced a structurally different message.
    ReparseMismatch,
    /// [`walk_sections`](crate::walk_sections) rejected a message the
    /// decoder accepts, or read a different id, QR bit, ANCOUNT or minimum
    /// answer TTL off it.
    WalkDisagreement,
    /// [`view_query`](crate::view_query),
    /// [`view_answer_a`](crate::view_answer_a) or
    /// [`view_referral`](crate::view_referral) accepted an input the
    /// decoder rejects, or read a field differently from it.
    ViewDisagreement,
}

/// One failing input, with everything needed to replay it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzFailure {
    /// Input index in the run's deterministic sequence.
    pub index: u64,
    /// Which oracle fired.
    pub kind: FailureKind,
    /// The offending bytes, hex-encoded for a bug report.
    pub input_hex: String,
}

/// Outcome counters of one harness run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FuzzReport {
    /// Inputs checked (corpus + mutated).
    pub inputs: u64,
    /// Inputs that decoded successfully.
    pub decode_ok: u64,
    /// Inputs rejected with a clean [`WireError`].
    pub decode_err: u64,
    /// Decoded messages whose re-encoding legitimately overflowed the
    /// message size cap (compressed input expanding on re-encode).
    pub reencode_overflow: u64,
    /// Inputs [`view_query`](crate::view_query) accepted.
    pub query_views: u64,
    /// Inputs [`view_answer_a`](crate::view_answer_a) accepted.
    pub answer_views: u64,
    /// Inputs [`view_referral`](crate::view_referral) accepted.
    pub referral_views: u64,
    /// Oracle violations. Empty on a healthy codec.
    pub failures: Vec<FuzzFailure>,
}

impl FuzzReport {
    /// True when every oracle held on every input.
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// One-line summary for logs.
    pub fn summary(&self) -> String {
        format!(
            "{} inputs: {} decoded, {} rejected, {} reencode-overflow, \
             {} query views, {} answer views, {} referral views, {} failures",
            self.inputs,
            self.decode_ok,
            self.decode_err,
            self.reencode_overflow,
            self.query_views,
            self.answer_views,
            self.referral_views,
            self.failures.len()
        )
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn study_name() -> DnsName {
    DnsName::parse("odns-study.example.").unwrap()
}

/// The fixed seed corpus: one well-formed exemplar per message shape the
/// study's components exchange, plus one hand-built reproducer per
/// historical parser bug (kept red-team-shaped so the mutators start from
/// inputs that already sit on the interesting boundaries).
// detlint::allow(needless-pub): crates/dnswire/tests/adversarial_corpus.rs counts the quick run's inputs with it
pub fn seed_corpus() -> Vec<Vec<u8>> {
    let name = study_name();
    let mut corpus = Vec::new();

    // -- Well-formed shapes --------------------------------------------
    // Plain A query, the census probe.
    corpus.push(
        MessageBuilder::query(0x2861, name.clone(), RrType::A)
            .recursion_desired(true)
            .build()
            .encode(),
    );
    // ANY query, the amplification vector.
    corpus.push(
        MessageBuilder::query(0xBAD, name.clone(), RrType::Any)
            .recursion_desired(true)
            .build()
            .encode(),
    );
    // CH TXT version.bind, the fingerprinting probe.
    corpus.push(
        MessageBuilder::query_class(
            7,
            DnsName::parse("version.bind.").unwrap(),
            RrType::Txt,
            QClass::Ch,
        )
        .build()
        .encode(),
    );
    // The measurement response: dynamic + control A records (compressed
    // owner names).
    let query = MessageBuilder::query(0x77, name.clone(), RrType::A)
        .recursion_desired(true)
        .build();
    corpus.push(
        MessageBuilder::response_to(&query)
            .recursion_available(true)
            .answer_a(name.clone(), 300, std::net::Ipv4Addr::new(203, 0, 113, 50))
            .answer_a(name.clone(), 300, std::net::Ipv4Addr::new(192, 0, 2, 200))
            .build()
            .encode(),
    );
    // A kitchen-sink response: every modelled RDATA type plus an unknown
    // one, authority and additional sections populated.
    let soa = Record {
        name: DnsName::parse("example.").unwrap(),
        class: Class::In,
        ttl: 3600,
        rdata: RData::Soa(SoaData {
            mname: DnsName::parse("ns1.example.").unwrap(),
            rname: DnsName::parse("hostmaster.example.").unwrap(),
            serial: 2021042001,
            refresh: 7200,
            retry: 3600,
            expire: 1209600,
            minimum: 300,
        }),
    };
    corpus.push(
        MessageBuilder::response_to(&query)
            .answer(Record {
                name: name.clone(),
                class: Class::In,
                ttl: 60,
                rdata: RData::Cname(DnsName::parse("alias.example.").unwrap()),
            })
            .answer(Record {
                name: name.clone(),
                class: Class::In,
                ttl: 60,
                rdata: RData::Mx {
                    preference: 10,
                    exchange: DnsName::parse("mx.example.").unwrap(),
                },
            })
            .answer(Record {
                name: name.clone(),
                class: Class::Ch,
                ttl: 0,
                rdata: RData::Txt(vec![b"MikroTik".to_vec(), Vec::new(), b"x".to_vec()]),
            })
            .authority(soa)
            .authority(Record {
                name: DnsName::parse("example.").unwrap(),
                class: Class::In,
                ttl: 3600,
                rdata: RData::Ns(DnsName::parse("ns1.example.").unwrap()),
            })
            .additional(Record {
                name: DnsName::root(),
                class: Class::Other(4096),
                ttl: 0,
                rdata: RData::Opt(vec![0, 10, 0, 2, 0xAB, 0xCD]),
            })
            .additional(Record {
                name: DnsName::parse("odd.example.").unwrap(),
                class: Class::In,
                ttl: 60,
                rdata: RData::Unknown {
                    rtype: 99,
                    data: vec![0xDE, 0xAD, 0xBE, 0xEF],
                },
            })
            .build()
            .encode(),
    );
    // NXDOMAIN with SOA in authority — the negative-caching shape of §6.
    corpus.push(
        MessageBuilder::response_to(&query)
            .rcode(crate::header::Rcode::NxDomain)
            .authority(Record {
                name: DnsName::parse("example.").unwrap(),
                class: Class::In,
                ttl: 300,
                rdata: RData::Ptr(DnsName::parse("ptr.example.").unwrap()),
            })
            .build()
            .encode(),
    );

    // -- The two views: more of what they accept, and near misses -------
    // The census probe and the measurement response above are the shapes
    // `view_query` and `view_answer_a` accept. So are a 0x20-cased stub
    // query with RD clear, its three-address answer, and a bare REFUSED.
    let cased = MessageBuilder::query(
        0xC0DE,
        DnsName::parse("oDnS-sTuDy.ExAmPlE.").unwrap(),
        RrType::A,
    )
    .build();
    corpus.push(cased.encode());
    corpus.push(
        (1..=3)
            .fold(MessageBuilder::response_to(&cased), |b, i| {
                let owner = cased.questions[0].qname.clone();
                b.answer_a(
                    owner,
                    30 * i,
                    std::net::Ipv4Addr::new(198, 51, 100, i as u8),
                )
            })
            .build()
            .encode(),
    );
    corpus.push(
        MessageBuilder::response_to(&query)
            .rcode(crate::header::Rcode::Refused)
            .build()
            .encode(),
    );
    // Each of these is one step outside, decodable (but for the padded
    // ones) and declined.
    let probe = corpus[0].clone();
    let answer = corpus[3].clone();
    let with_opt = |bytes: &[u8]| {
        let mut b = bytes.to_vec();
        b[11] = 1; // ARCOUNT 1: an empty EDNS0 OPT record
        b.extend_from_slice(&[0, 0, 41, 0x10, 0, 0, 0, 0, 0, 0, 0]);
        b
    };
    let padded = |bytes: &[u8]| [bytes, &[0]].concat();
    corpus.extend([
        with_opt(&probe),
        padded(&probe),
        with_opt(&answer),
        padded(&answer),
    ]);
    // The second answer owned by a pointer to `example.` inside the
    // question instead of to the question itself.
    let mut elsewhere = answer.clone();
    let owner = elsewhere.len() - 16;
    elsewhere[owner + 1] = crate::header::HEADER_LEN as u8 + 11;
    corpus.push(elsewhere);
    // A CNAME ahead of the address it leads to.
    let alias = DnsName::parse("alias.example.").unwrap();
    corpus.push(
        MessageBuilder::response_to(&query)
            .recursion_available(true)
            .answer(Record {
                name: name.clone(),
                class: Class::In,
                ttl: 60,
                rdata: RData::Cname(alias.clone()),
            })
            .answer_a(alias, 60, std::net::Ipv4Addr::new(192, 0, 2, 200))
            .build()
            .encode(),
    );
    // The walk down from the root: the root's referral to the TLD and the
    // TLD's to the study zone, the root's under a 0x20-cased question, and
    // glue sharing no suffix with the question, which `view_referral`
    // accepts; then glue for a name other than the NS record's and a
    // referral that also carries an answer, which it declines.
    let upstream = MessageBuilder::query(0x0102, name.clone(), RrType::A).build();
    let cased_upstream =
        MessageBuilder::query(0x0103, cased.questions[0].qname.clone(), RrType::A).build();
    let referral = |query: &Message, zone: &str, ns: &str, glue_owner: &str| {
        MessageBuilder::response_to(query)
            .authority(Record {
                name: DnsName::parse(zone).unwrap(),
                class: Class::In,
                ttl: 172_800,
                rdata: RData::Ns(DnsName::parse(ns).unwrap()),
            })
            .additional(Record::a(
                DnsName::parse(glue_owner).unwrap(),
                172_800,
                std::net::Ipv4Addr::new(198, 41, 1, 4),
            ))
    };
    let study_ns = "ns1.odns-study.example.";
    corpus.extend(
        [
            referral(&upstream, "example.", "a.nic.example.", "a.nic.example."),
            referral(&upstream, "odns-study.example.", study_ns, study_ns),
            referral(
                &cased_upstream,
                "example.",
                "a.nic.example.",
                "a.nic.example.",
            ),
            referral(&upstream, "example.", "ns.elsewhere.", "ns.elsewhere."),
            referral(&upstream, "example.", "a.nic.example.", "b.nic.example."),
            referral(&upstream, "example.", "a.nic.example.", "a.nic.example.").answer_a(
                name.clone(),
                60,
                std::net::Ipv4Addr::new(192, 0, 2, 200),
            ),
        ]
        .map(|b| b.build().encode()),
    );

    // -- Historical-bug reproducers ------------------------------------
    // (1) Skewed RDLENGTH: NS rdata declares 5 bytes, name spans 3 — the
    // Record::decode consumed-exactly check must reject this, or the two
    // surplus bytes smuggle themselves into the next record.
    let mut skew = Vec::new();
    skew.extend_from_slice(&[0x0B, 0xAD, 0x80, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00]);
    skew.extend_from_slice(&[0x00, 0x00]); // arcount
    skew.extend_from_slice(&[0x00]); // owner: root
    skew.extend_from_slice(&2u16.to_be_bytes()); // NS
    skew.extend_from_slice(&1u16.to_be_bytes()); // IN
    skew.extend_from_slice(&60u32.to_be_bytes()); // TTL
    skew.extend_from_slice(&5u16.to_be_bytes()); // RDLENGTH: 5 (lie)
    skew.extend_from_slice(&[1, b'a', 0, 0xC0, 0x00]); // 3-byte name + 2 smuggled
    corpus.push(skew);
    // (2) Count inflation: a bare header claiming 65 535 of everything —
    // the preallocation-cap reproducer.
    let mut runt = vec![0u8; crate::header::HEADER_LEN];
    for field in [4usize, 6, 8, 10] {
        runt[field] = 0xFF;
        runt[field + 1] = 0xFF;
    }
    corpus.push(runt);
    // (3) Compression-pointer games: self-pointing and forward pointers.
    let mut pointer = vec![0u8; crate::header::HEADER_LEN];
    pointer[5] = 1; // qdcount = 1
    pointer.extend_from_slice(&[0xC0, 0x0C]); // name: pointer to itself
    pointer.extend_from_slice(&1u16.to_be_bytes());
    pointer.extend_from_slice(&1u16.to_be_bytes());
    corpus.push(pointer);
    // (4) Truncation mid-record: a valid response cut inside its RDATA.
    let cut = MessageBuilder::response_to(&query)
        .answer_a(name, 300, std::net::Ipv4Addr::new(192, 0, 2, 200))
        .build()
        .encode();
    let keep = cut.len() - 2;
    corpus.push(cut[..keep].to_vec());

    corpus
}

/// Apply one seeded mutation in place. The classes mirror the attack
/// paper's catalogue: truncation, count inflation, RDLENGTH/length-field
/// skew (a raw 16-bit overwrite lands on one whenever the offset does),
/// pointer injection, bit flips, and growth via self-append.
fn mutate(bytes: &mut Vec<u8>, rng: &mut FuzzRng) {
    match rng.below(6) {
        // Truncate at a random point.
        0 => {
            if !bytes.is_empty() {
                bytes.truncate(rng.below(bytes.len()));
            }
        }
        // Inflate a header count field.
        1 => {
            if bytes.len() >= crate::header::HEADER_LEN {
                let field = 4 + 2 * rng.below(4);
                let value = (rng.next_u64() & 0xFFFF) as u16;
                bytes[field..field + 2].copy_from_slice(&value.to_be_bytes());
            }
        }
        // Overwrite a 16-bit field at an arbitrary offset — lands on
        // RDLENGTH, type, class, or a label length depending on the spot.
        2 => {
            if bytes.len() >= 2 {
                let at = rng.below(bytes.len() - 1);
                let value = (rng.next_u64() & 0xFFFF) as u16;
                bytes[at..at + 2].copy_from_slice(&value.to_be_bytes());
            }
        }
        // Inject a compression pointer to a seeded target.
        3 => {
            if bytes.len() >= 2 {
                let at = rng.below(bytes.len() - 1);
                let target = rng.below(bytes.len());
                bytes[at] = 0xC0 | ((target >> 8) as u8 & 0x3F);
                bytes[at + 1] = (target & 0xFF) as u8;
            }
        }
        // Flip a random bit.
        4 => {
            if !bytes.is_empty() {
                let at = rng.below(bytes.len());
                bytes[at] ^= 1 << rng.below(8);
            }
        }
        // Append a slice of the message to itself (trailing/duplicated
        // sections).
        _ => {
            if !bytes.is_empty() {
                let from = rng.below(bytes.len());
                let extra: Vec<u8> = bytes[from..].to_vec();
                bytes.extend_from_slice(&extra);
                bytes.truncate(crate::MAX_MESSAGE_LEN + 16);
            }
        }
    }
}

/// Which of the three views accepted an input.
#[derive(Clone, Copy)]
struct Accepted {
    query: bool,
    answer: bool,
    referral: bool,
}

/// The fifth oracle: a view that accepts `bytes` must find `whole`, the
/// decoder's reading of them, `Ok` and equal field for field.
fn check_views(bytes: &[u8], whole: &Result<Message, WireError>) -> Result<Accepted, FailureKind> {
    let query = catch_unwind(AssertUnwindSafe(|| crate::view_query(bytes)))
        .map_err(|_| FailureKind::Panic)?;
    let answer = catch_unwind(AssertUnwindSafe(|| crate::view_answer_a(bytes)))
        .map_err(|_| FailureKind::Panic)?;
    let referral = catch_unwind(AssertUnwindSafe(|| crate::view_referral(bytes)))
        .map_err(|_| FailureKind::Panic)?;
    let agreed = |holds: bool| holds.then_some(()).ok_or(FailureKind::ViewDisagreement);
    if let Some(view) = &query {
        let msg = whole.as_ref().map_err(|_| FailureKind::ViewDisagreement)?;
        let records = msg.answers.len() + msg.authorities.len() + msg.additionals.len();
        agreed(msg.is_plain_in_query() && records == 0)?;
        let q = &msg.questions[0];
        agreed(
            view.id == msg.header.id
                && view.rd == msg.header.flags.recursion_desired
                && view.qname_wire == q.qname.as_wire()
                && view.qname().as_wire() == q.qname.as_wire()
                && view.qtype == q.qtype,
        )?;
    }
    if let Some(view) = &answer {
        let msg = whole.as_ref().map_err(|_| FailureKind::ViewDisagreement)?;
        agreed(view.rcode == msg.header.flags.rcode && view.addrs().eq(msg.answer_a_addrs()))?;
    }
    if let Some(view) = &referral {
        let msg = whole.as_ref().map_err(|_| FailureKind::ViewDisagreement)?;
        // What a resolver that decodes follows: the first NS record in
        // authority and the first additional A record owned by its name.
        let ns = msg.authorities.iter().find_map(|r| match &r.rdata {
            RData::Ns(ns) => Some(ns),
            _ => None,
        });
        let glue = ns.and_then(|ns| {
            msg.additionals
                .iter()
                .find_map(|r| if r.name == *ns { r.a_addr() } else { None })
        });
        agreed(
            view.id == msg.header.id
                && msg.is_response()
                && msg.answers.is_empty()
                && glue == Some(view.ns_ip),
        )?;
    }
    Ok(Accepted {
        query: query.is_some(),
        answer: answer.is_some(),
        referral: referral.is_some(),
    })
}

/// Run every oracle against one input. `Ok` classifies healthy behaviour
/// and says which views accepted; `Err` carries the violated oracle.
fn check(bytes: &[u8]) -> Result<(Outcome, Accepted), FailureKind> {
    let decoded = catch_unwind(AssertUnwindSafe(|| Message::decode_prefix(bytes)))
        .map_err(|_| FailureKind::Panic)?;
    let whole = catch_unwind(AssertUnwindSafe(|| Message::decode(bytes)))
        .map_err(|_| FailureKind::Panic)?;
    let views = check_views(bytes, &whole)?;
    let walk = catch_unwind(AssertUnwindSafe(|| crate::walk_sections(bytes)))
        .map_err(|_| FailureKind::Panic)?;
    if let Ok(w) = &whole {
        let expected = crate::SectionWalk {
            id: w.header.id,
            response: w.is_response(),
            ancount: w.header.ancount,
            min_answer_ttl: w.answers.iter().map(|r| r.ttl).min(),
        };
        if walk != Some(expected) {
            return Err(FailureKind::WalkDisagreement);
        }
    }
    match decoded {
        Err(_) => {
            // decode must reject whatever decode_prefix rejects.
            if whole.is_ok() {
                return Err(FailureKind::PrefixDisagreement);
            }
            Ok((Outcome::Rejected, views))
        }
        Ok((msg, consumed)) => {
            if consumed > bytes.len() {
                return Err(FailureKind::ConsumedPastEnd {
                    consumed,
                    len: bytes.len(),
                });
            }
            // Agreement: decode succeeds iff the prefix is the whole
            // buffer, and rejects trailing bytes otherwise.
            match (&whole, consumed == bytes.len()) {
                (Ok(w), true) if *w == msg => {}
                (Err(WireError::TrailingBytes(n)), false) if *n == bytes.len() - consumed => {}
                _ => return Err(FailureKind::PrefixDisagreement),
            }
            // Reparse stability: encode the decoded message and decode it
            // back; the structures must match. (Re-encoding may overflow
            // the size cap when the input compressed what we re-emit
            // uncompressed — legitimate, counted, not a failure.)
            let reencoded = catch_unwind(AssertUnwindSafe(|| msg.try_encode()))
                .map_err(|_| FailureKind::Panic)?;
            let bytes2 = match reencoded {
                Ok(b) => b,
                Err(WireError::MessageTooLong(_)) => return Ok((Outcome::ReencodeOverflow, views)),
                Err(e) => return Err(FailureKind::ReencodeError(e)),
            };
            let again = catch_unwind(AssertUnwindSafe(|| Message::decode(&bytes2)))
                .map_err(|_| FailureKind::Panic)?;
            match again {
                Ok(m2) if m2 == msg => Ok((Outcome::Decoded, views)),
                _ => Err(FailureKind::ReparseMismatch),
            }
        }
    }
}

enum Outcome {
    Decoded,
    Rejected,
    ReencodeOverflow,
}

/// Run the harness: every corpus entry verbatim, then `iterations` seeded
/// mutants of corpus entries. Same `(seed, iterations)` → same inputs →
/// same report, on any machine.
pub fn run_fuzz(seed: u64, iterations: u64) -> FuzzReport {
    let corpus = seed_corpus();
    let mut rng = FuzzRng::new(seed);
    let mut report = FuzzReport::default();
    let mut index = 0u64;

    let one = |bytes: &[u8], index: u64, report: &mut FuzzReport| {
        report.inputs += 1;
        let outcome = match check(bytes) {
            Ok((outcome, accepted)) => {
                report.query_views += u64::from(accepted.query);
                report.answer_views += u64::from(accepted.answer);
                report.referral_views += u64::from(accepted.referral);
                outcome
            }
            Err(kind) => {
                report.failures.push(FuzzFailure {
                    index,
                    kind,
                    input_hex: hex(bytes),
                });
                return;
            }
        };
        match outcome {
            Outcome::Decoded => report.decode_ok += 1,
            Outcome::Rejected => report.decode_err += 1,
            Outcome::ReencodeOverflow => {
                report.decode_ok += 1;
                report.reencode_overflow += 1;
            }
        }
    };

    for entry in &corpus {
        one(entry, index, &mut report);
        index += 1;
    }
    for _ in 0..iterations {
        let mut bytes = corpus[rng.below(corpus.len())].clone();
        for _ in 0..1 + rng.below(3) {
            mutate(&mut bytes, &mut rng);
        }
        one(&bytes, index, &mut report);
        index += 1;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = FuzzRng::new(42);
        let mut b = FuzzRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_ne!(FuzzRng::new(1).next_u64(), FuzzRng::new(2).next_u64());
    }

    #[test]
    fn corpus_covers_valid_and_hostile_shapes() {
        let corpus = seed_corpus();
        assert!(corpus.len() >= 8);
        let outcomes: Vec<bool> = corpus.iter().map(|c| Message::decode(c).is_ok()).collect();
        assert!(outcomes.iter().any(|&ok| ok), "has well-formed entries");
        assert!(outcomes.iter().any(|&ok| !ok), "has hostile entries");
    }

    #[test]
    fn corpus_holds_every_view_shape_and_their_near_misses() {
        let corpus = seed_corpus();
        let accepted = |bytes: &Vec<u8>| {
            (
                crate::view_query(bytes).is_some(),
                crate::view_answer_a(bytes).is_some(),
                crate::view_referral(bytes).is_some(),
            )
        };
        let none = (false, false, false);
        assert_eq!(
            accepted(&corpus[0]),
            (true, false, false),
            "the census probe"
        );
        assert_eq!(accepted(&corpus[3]), (false, true, false), "its answer");
        assert_eq!(
            accepted(&corpus[6]),
            (true, false, false),
            "a 0x20-cased stub"
        );
        assert_eq!(
            accepted(&corpus[7]),
            (false, true, false),
            "three addresses"
        );
        assert_eq!(accepted(&corpus[8]), (false, true, false), "a bare REFUSED");
        // OPT, padding (×2 each), an owner elsewhere, a CNAME: declined by
        // every view, and all but the padded ones decodable.
        let near_misses = &corpus[9..15];
        for (i, bytes) in near_misses.iter().enumerate() {
            assert_eq!(accepted(bytes), none, "near miss {i}");
        }
        let decodable = near_misses.iter().filter(|b| Message::decode(b).is_ok());
        assert_eq!(decodable.count(), 4);
        for (i, bytes) in corpus[15..19].iter().enumerate() {
            assert_eq!(accepted(bytes), (false, false, true), "referral {i}");
        }
        for (what, bytes) in [("foreign glue", &corpus[19]), ("an answer", &corpus[20])] {
            assert!(Message::decode(bytes).is_ok(), "{what}");
            assert_eq!(accepted(bytes), none, "{what}");
        }
    }

    #[test]
    fn same_seed_same_report() {
        let a = run_fuzz(7, 500);
        let b = run_fuzz(7, 500);
        assert_eq!(a, b);
        assert_eq!(a.inputs, 500 + seed_corpus().len() as u64);
    }

    #[test]
    fn quick_run_is_clean() {
        let report = run_fuzz(DEFAULT_SEED, 2_000);
        assert!(report.clean(), "oracle violations: {:?}", report.failures);
        assert!(report.decode_ok > 0 && report.decode_err > 0);
        assert!(report.query_views > 0 && report.answer_views > 0 && report.referral_views > 0);
    }
}
