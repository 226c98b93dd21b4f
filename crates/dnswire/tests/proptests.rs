//! Property-based tests for the DNS wire codec.
//!
//! Invariants:
//! 1. encode ∘ decode = identity for arbitrary well-formed messages;
//! 2. compression never changes message semantics;
//! 3. the decoder never panics on arbitrary bytes (fuzz-shaped inputs);
//! 4. names compare case-insensitively in every context.

use dnswire::{
    Class, DnsName, Flags, Header, Message, NameOffsets, Opcode, QClass, Question, RData, Rcode,
    Record, RrType, SoaData,
};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn arb_label() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 1..=12)
}

fn arb_name() -> impl Strategy<Value = DnsName> {
    proptest::collection::vec(arb_label(), 0..=5)
        .prop_filter_map("name too long", |labels| DnsName::from_labels(labels).ok())
}

/// Names over a tiny alphabet — both cases of a letter, the two bytes the
/// textual form escapes (`.` and `\`), a high byte, NUL and two bytes that
/// read as length octets — so that generated names share suffixes, differ
/// only in case, or differ only in where a label boundary falls.
fn arb_confusable_name() -> impl Strategy<Value = DnsName> {
    let byte = prop_oneof![
        Just(b'a'),
        Just(b'A'),
        Just(b'b'),
        Just(b'.'),
        Just(b'\\'),
        Just(0xE9u8),
        Just(0u8),
        Just(1u8),
        Just(2u8),
    ];
    let label = proptest::collection::vec(byte, 1..=3);
    proptest::collection::vec(label, 0..=4).prop_map(|l| DnsName::from_labels(l).unwrap())
}

/// A lowercase ASCII word of 1 to `max` letters.
fn arb_lower_word(max: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(b'a'..=b'z', 1..=max)
        .prop_map(|letters| String::from_utf8(letters).expect("ASCII letters"))
}

fn hash_of(name: &DnsName) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    name.hash(&mut h);
    h.finish()
}

/// The label-vector ordering `DnsName::cmp` replaced: lower-cased labels,
/// rightmost first, then label count.
fn reference_cmp(a: &DnsName, b: &DnsName) -> std::cmp::Ordering {
    let key = |n: &DnsName| {
        let mut labels: Vec<Vec<u8>> = n.labels().map(|l| l.to_ascii_lowercase()).collect();
        labels.reverse();
        labels
    };
    key(a).cmp(&key(b))
}

fn arb_rrtype() -> impl Strategy<Value = RrType> {
    prop_oneof![
        Just(RrType::A),
        Just(RrType::Ns),
        Just(RrType::Cname),
        Just(RrType::Soa),
        Just(RrType::Ptr),
        Just(RrType::Mx),
        Just(RrType::Txt),
        Just(RrType::Any),
        (256u16..9999).prop_map(RrType::Other),
    ]
}

fn arb_rdata() -> impl Strategy<Value = RData> {
    prop_oneof![
        any::<[u8; 4]>().prop_map(|o| RData::A(Ipv4Addr::from(o))),
        arb_name().prop_map(RData::Ns),
        arb_name().prop_map(RData::Cname),
        arb_name().prop_map(RData::Ptr),
        (
            arb_name(),
            arb_name(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>()
        )
            .prop_map(|(mname, rname, serial, refresh, retry, expire, minimum)| {
                RData::Soa(SoaData {
                    mname,
                    rname,
                    serial,
                    refresh,
                    retry,
                    expire,
                    minimum,
                })
            }),
        (any::<u16>(), arb_name()).prop_map(|(preference, exchange)| RData::Mx {
            preference,
            exchange
        }),
        proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 1..4)
            .prop_map(RData::Txt),
        (256u16..9999, proptest::collection::vec(any::<u8>(), 0..32))
            .prop_map(|(rtype, data)| RData::Unknown { rtype, data }),
    ]
}

fn arb_record() -> impl Strategy<Value = RData> {
    arb_rdata()
}

fn arb_full_record() -> impl Strategy<Value = Record> {
    (arb_name(), any::<u32>(), arb_record()).prop_map(|(name, ttl, rdata)| Record {
        name,
        class: Class::In,
        ttl,
        rdata,
    })
}

fn arb_flags() -> impl Strategy<Value = Flags> {
    (
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        0u8..16,
    )
        .prop_map(|(response, aa, tc, rd, ra, rcode)| Flags {
            response,
            opcode: Opcode::Query,
            authoritative: aa,
            truncated: tc,
            recursion_desired: rd,
            recursion_available: ra,
            authentic_data: false,
            checking_disabled: false,
            rcode: Rcode::from_u8(rcode),
        })
}

fn arb_message() -> impl Strategy<Value = Message> {
    (
        any::<u16>(),
        arb_flags(),
        proptest::collection::vec((arb_name(), arb_rrtype()), 0..3),
        proptest::collection::vec(arb_full_record(), 0..4),
        proptest::collection::vec(arb_full_record(), 0..3),
        proptest::collection::vec(arb_full_record(), 0..3),
    )
        .prop_map(|(id, flags, qs, ans, auth, add)| Message {
            header: Header {
                id,
                flags,
                ..Header::default()
            },
            questions: qs
                .into_iter()
                .map(|(qname, qtype)| Question {
                    qname,
                    qtype,
                    qclass: QClass::In,
                })
                .collect(),
            answers: ans,
            authorities: auth,
            additionals: add,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn message_roundtrip(m in arb_message()) {
        let bytes = match m.try_encode() {
            Ok(b) => b,
            Err(_) => return Ok(()), // oversized combinations are allowed to refuse encoding
        };
        let back = Message::decode(&bytes).unwrap();
        prop_assert_eq!(back.questions, m.questions);
        prop_assert_eq!(back.answers, m.answers);
        prop_assert_eq!(back.authorities, m.authorities);
        prop_assert_eq!(back.additionals, m.additionals);
        prop_assert_eq!(back.header.id, m.header.id);
        prop_assert_eq!(back.header.flags.response, m.header.flags.response);
        prop_assert_eq!(back.header.flags.rcode, m.header.flags.rcode);
    }

    #[test]
    fn decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Message::decode(&bytes); // must not panic
    }

    #[test]
    fn name_roundtrip_uncompressed(name in arb_name()) {
        let mut buf = Vec::new();
        name.encode_uncompressed(&mut buf);
        let mut pos = 0;
        let back = DnsName::decode(&buf, &mut pos).unwrap();
        prop_assert_eq!(back, name);
        prop_assert_eq!(pos, buf.len());
    }

    #[test]
    fn name_case_insensitive(host in arb_lower_word(10), tld in arb_lower_word(6)) {
        let s = format!("{host}.{tld}");
        let lower = DnsName::parse(&s).unwrap();
        let upper = DnsName::parse(&s.to_ascii_uppercase()).unwrap();
        prop_assert_eq!(lower, upper);
    }

    #[test]
    fn compression_is_transparent(names in proptest::collection::vec(arb_name(), 1..6)) {
        // Encode all names into one buffer with shared compression state;
        // decoding each must give back the original regardless of sharing.
        let mut buf = Vec::new();
        let mut offsets = NameOffsets::default();
        let mut starts = Vec::new();
        for n in &names {
            starts.push(buf.len());
            n.encode_compressed(&mut buf, &mut offsets);
        }
        for (n, &start) in names.iter().zip(&starts) {
            let mut pos = start;
            let back = DnsName::decode(&buf, &mut pos).unwrap();
            prop_assert_eq!(&back, n);
        }
    }

    #[test]
    fn compression_roundtrips_confusable_names(
        names in proptest::collection::vec(arb_confusable_name(), 1..8),
    ) {
        // Labels holding `.`, `\`, NUL and high bytes, with suffixes shared
        // for real: each name must come back as itself (never as a
        // look-alike whose rendering collides), and compression must never
        // cost bytes.
        let mut buf = Vec::new();
        let mut offsets = NameOffsets::default();
        let mut starts = Vec::new();
        for n in &names {
            starts.push(buf.len());
            n.encode_compressed(&mut buf, &mut offsets);
        }
        let uncompressed: usize = names.iter().map(DnsName::wire_len).sum();
        prop_assert!(buf.len() <= uncompressed, "{} > {}", buf.len(), uncompressed);
        let mut seen = dnswire::DecodedNames::default();
        for (n, &start) in names.iter().zip(&starts) {
            let mut pos = start;
            let back = DnsName::decode_shared(&buf, &mut pos, &mut seen).unwrap();
            prop_assert_eq!(&back, n);
        }
    }

    #[test]
    fn eq_hash_and_cmp_agree(a in arb_confusable_name(), b in arb_confusable_name()) {
        let label_eq = a.label_count() == b.label_count()
            && a.labels().zip(b.labels()).all(|(x, y)| x.eq_ignore_ascii_case(y));
        prop_assert_eq!(a == b, label_eq);
        if a == b {
            prop_assert_eq!(hash_of(&a), hash_of(&b));
            prop_assert_eq!(a.cmp(&b), std::cmp::Ordering::Equal);
        }
        prop_assert_eq!(a.cmp(&b), reference_cmp(&a, &b));
        prop_assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
    }

    #[test]
    fn cmp_is_transitive(
        a in arb_confusable_name(),
        b in arb_confusable_name(),
        c in arb_confusable_name(),
    ) {
        if a <= b && b <= c {
            prop_assert!(a <= c);
        }
        if a >= b && b >= c {
            prop_assert!(a >= c);
        }
    }

    #[test]
    fn subdomain_matches_label_suffix(a in arb_confusable_name(), b in arb_confusable_name()) {
        // A `.`-or-length-valued byte inside a label must not pass for a
        // label boundary.
        let (la, lb): (Vec<_>, Vec<_>) = (a.labels().collect(), b.labels().collect());
        let expected = la.len() >= lb.len()
            && la[la.len() - lb.len()..].iter().zip(&lb).all(|(x, y)| x.eq_ignore_ascii_case(y));
        prop_assert_eq!(a.is_subdomain_of(&b), expected);
    }

    #[test]
    fn subdomain_reflexive_and_root(name in arb_name()) {
        prop_assert!(name.is_subdomain_of(&name));
        prop_assert!(name.is_subdomain_of(&DnsName::root()));
    }

    #[test]
    fn wire_len_matches_actual_encoding(name in arb_name()) {
        let mut buf = Vec::new();
        name.encode_uncompressed(&mut buf);
        prop_assert_eq!(buf.len(), name.wire_len());
    }
}
