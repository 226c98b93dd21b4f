//! The adversarial regression corpus: one deterministic reproducer per
//! historical wire-parser bug, plus the seeded fuzz harness in quick mode
//! (≥10k mutated inputs) asserting zero panics and zero parser desyncs.
//!
//! Everything here is fixed-seed and wall-clock-free: a failure on any
//! machine replays bit-identically on every other.

use dnswire::fuzz::{run_fuzz, seed_corpus, DEFAULT_SEED, QUICK_ITERATIONS};
use dnswire::{DnsName, Message, MessageBuilder, RrType, WireError};
use std::net::Ipv4Addr;

/// Bug 1 reproducer — skewed RDLENGTH (parser-confusion class): an NS
/// record declaring 5 RDATA bytes over a 3-byte name, followed by a
/// well-formed A record. Before the consumed-exactly check the two
/// surplus bytes shifted the parse of everything after them.
#[test]
fn skewed_rdlength_cannot_desync_following_records() {
    let mut msg = Vec::new();
    // Header: id 0xBAD, response, ancount = 2.
    msg.extend_from_slice(&[0x0B, 0xAD, 0x80, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00]);
    msg.extend_from_slice(&[0x00, 0x00]);
    // Answer 1: root NS with RDLENGTH 5 over a 3-byte name.
    msg.extend_from_slice(&[0x00]); // owner: root
    msg.extend_from_slice(&2u16.to_be_bytes()); // NS
    msg.extend_from_slice(&1u16.to_be_bytes()); // IN
    msg.extend_from_slice(&60u32.to_be_bytes());
    msg.extend_from_slice(&5u16.to_be_bytes()); // RDLENGTH lie
    msg.extend_from_slice(&[1, b'a', 0]); // actual 3-byte name
    msg.extend_from_slice(&[0x00, 0x00]); // the 2 smuggled bytes
                                          // Answer 2: a well-formed root A record.
    msg.extend_from_slice(&[0x00]);
    msg.extend_from_slice(&1u16.to_be_bytes());
    msg.extend_from_slice(&1u16.to_be_bytes());
    msg.extend_from_slice(&60u32.to_be_bytes());
    msg.extend_from_slice(&4u16.to_be_bytes());
    msg.extend_from_slice(&[192, 0, 2, 200]);

    assert_eq!(
        Message::decode(&msg),
        Err(WireError::RdataLengthMismatch {
            declared: 5,
            consumed: 3,
        }),
        "skewed RDLENGTH must be rejected, not silently reparsed"
    );
}

/// Bug 2 reproducer — section-count truncation: 65 537 answers used to
/// encode as `ancount = 1` via `as u16`.
#[test]
fn section_count_overflow_rejected_on_encode() {
    let mut m = Message::default();
    let rec = dnswire::Record::a(DnsName::root(), 0, Ipv4Addr::new(192, 0, 2, 1));
    m.answers = vec![rec; u16::MAX as usize + 2];
    assert_eq!(
        m.try_encode(),
        Err(WireError::SectionCountOverflow {
            section: "answer",
            len: u16::MAX as usize + 2,
        })
    );
}

/// Bug 3 reproducer — attacker-controlled preallocation: a 12-byte runt
/// claiming 65 535 entries in every section must fail cleanly (and, per
/// the capped-capacity fix, without reserving megabytes first — the cap
/// itself is unit-tested next to the decoder).
#[test]
fn runt_with_inflated_counts_fails_cleanly() {
    let mut runt = vec![0u8; 12];
    for field in [4usize, 6, 8, 10] {
        runt[field] = 0xFF;
        runt[field + 1] = 0xFF;
    }
    assert!(matches!(
        Message::decode(&runt),
        Err(WireError::Truncated { .. })
    ));
}

/// Bug 4 reproducer — `wire_len` used to map encode failure to 0,
/// zeroing the §6 amplification factors computed from it.
#[test]
fn wire_len_reports_unencodable_messages() {
    let q = MessageBuilder::query(1, DnsName::root(), RrType::A).build();
    assert_eq!(q.wire_len().unwrap(), q.encode().len());

    let mut bad = Message::default();
    bad.answers.push(dnswire::Record {
        name: DnsName::root(),
        class: dnswire::Class::In,
        ttl: 0,
        rdata: dnswire::RData::Txt(vec![vec![0u8; 256]]),
    });
    assert_eq!(bad.wire_len(), Err(WireError::TxtSegmentTooLong(256)));
}

/// Compression-pointer games: self-pointing, forward-pointing, and
/// header-targeting pointers must all be rejected without panics.
#[test]
fn pointer_games_rejected() {
    // Self-pointing question name.
    let mut own = vec![0u8; 12];
    own[5] = 1; // qdcount
    own.extend_from_slice(&[0xC0, 0x0C, 0x00, 0x01, 0x00, 0x01]);
    assert!(Message::decode(&own).is_err());

    // Forward-pointing name.
    let mut fwd = vec![0u8; 12];
    fwd[5] = 1;
    fwd.extend_from_slice(&[0xC0, 0x20, 0x00, 0x01, 0x00, 0x01]);
    assert!(Message::decode(&fwd).is_err());
}

/// Bug 5 reproducer — compression-key collision: the encoder used to key
/// suffixes on their dotted lower-case rendering, so the single label
/// `a.b` followed by `c` and the labels `a`, `b`, `c` shared the key
/// `"a.b.c."`, and the second name was emitted as a pointer to the first.
/// The response then re-decoded with its owner turned into the question
/// name. Suffixes are now matched against the written bytes, label by
/// label.
#[test]
fn dotted_label_does_not_alias_a_label_sequence() {
    let dotted = DnsName::from_labels([&b"a.b"[..], b"c"]).unwrap();
    let plain = DnsName::parse("a.b.c.").unwrap();
    assert_eq!(dotted.to_string(), "a\\046b.c.");
    assert_ne!(dotted, plain);
    for (first, second) in [(&dotted, &plain), (&plain, &dotted)] {
        let query = MessageBuilder::query(1, first.clone(), RrType::A).build();
        let resp = MessageBuilder::response_to(&query)
            .answer_a(second.clone(), 60, Ipv4Addr::new(192, 0, 2, 1))
            .build();
        let back = Message::decode(&resp.encode()).unwrap();
        assert_eq!(&back.questions[0].qname, first);
        assert_eq!(&back.answers[0].name, second, "owner must not alias");
        assert_ne!(back.questions[0].qname, back.answers[0].name);
    }
}

/// Sibling of the above: labels holding the bytes the textual form
/// escapes (`\`, `.`), bytes ≥ 0x80 and NUL survive a compressed round
/// trip, sharing the suffix they really share and nothing else.
#[test]
fn escaped_and_high_bytes_roundtrip_through_compression() {
    let zone_labels = [&[0xC3u8, 0xA9, b'\\'][..], &[0xFF, 0x00, b'.']];
    let zone = DnsName::from_labels(zone_labels).unwrap();
    let www = DnsName::from_labels([&b"w\\w.w"[..], zone_labels[0], zone_labels[1]]).unwrap();
    let lookalike = DnsName::from_labels([&b"w"[..], b"w", b"w"]).unwrap();
    let query = MessageBuilder::query(2, www.clone(), RrType::A).build();
    let resp = MessageBuilder::response_to(&query)
        .answer_a(www.clone(), 60, Ipv4Addr::new(192, 0, 2, 1))
        .answer_a(zone.clone(), 60, Ipv4Addr::new(192, 0, 2, 2))
        .answer_a(lookalike.clone(), 60, Ipv4Addr::new(192, 0, 2, 3))
        .build();
    let bytes = resp.encode();
    let back = Message::decode(&bytes).unwrap();
    assert_eq!(back.questions[0].qname.as_wire(), www.as_wire());
    let owners: Vec<&[u8]> = back.answers.iter().map(|r| r.name.as_wire()).collect();
    assert_eq!(owners, [www.as_wire(), zone.as_wire(), lookalike.as_wire()]);
    // Header, question, then: a bare pointer, a pointer into the question
    // name, and the look-alike spelled out in full.
    let fixed = 10 + 4;
    assert_eq!(
        bytes.len(),
        12 + (www.wire_len() + 4) + (2 + fixed) + (2 + fixed) + (lookalike.wire_len() + fixed)
    );
}

/// The full quick-mode harness: the fixed corpus plus ≥10k seeded mutants
/// through the panic/desync/reparse oracle — the acceptance gate.
#[test]
fn quick_fuzz_finds_no_panics_or_desyncs() {
    let report = run_fuzz(DEFAULT_SEED, QUICK_ITERATIONS);
    assert!(report.clean(), "oracle violations:\n{:#?}", report.failures);
    assert_eq!(report.inputs, QUICK_ITERATIONS + seed_corpus().len() as u64);
    assert!(
        report.decode_ok > 0,
        "mutants must include decodable inputs"
    );
    assert!(report.decode_err > 0, "mutants must include hostile inputs");
}

/// Determinism of the harness itself: same seed, same report.
#[test]
fn fuzz_harness_is_deterministic() {
    assert_eq!(run_fuzz(0xFEED, 1_000), run_fuzz(0xFEED, 1_000));
}
