//! Golden wire bytes: a fixed message set whose encoding was captured from
//! the string-keyed suffix-map encoder (commit e74ea17) before the
//! compression machinery was rebuilt. Any encoder must reproduce every entry of
//! `golden/wire.hex` byte-for-byte — which label becomes a pointer, and to
//! which (first-written) offset, is part of the contract.

use dnswire::{
    Class, DnsName, Message, MessageBuilder, QClass, RData, Rcode, Record, RrType, SoaData,
};
use std::net::Ipv4Addr;

const GOLDEN: &str = include_str!("golden/wire.hex");

fn name(s: &str) -> DnsName {
    DnsName::parse(s).unwrap()
}

fn ns(owner: &str, target: &str) -> Record {
    Record {
        name: name(owner),
        class: Class::In,
        ttl: 172_800,
        rdata: RData::Ns(name(target)),
    }
}

fn study_query() -> Message {
    MessageBuilder::query(0x2861, name("odns-study.example."), RrType::A)
        .recursion_desired(true)
        .build()
}

/// The fixed message set, in fixture order.
fn messages() -> Vec<(&'static str, Message)> {
    let study = name("odns-study.example.");
    let soa = Record {
        name: study.clone(),
        class: Class::In,
        ttl: 300,
        rdata: RData::Soa(SoaData {
            mname: name("ns1.odns-study.example."),
            rname: name("hostmaster.odns-study.example."),
            serial: 2021042001,
            refresh: 7200,
            retry: 3600,
            expire: 1_209_600,
            minimum: 300,
        }),
    };
    let version_query =
        MessageBuilder::query_class(7, name("version.bind."), RrType::Txt, QClass::Ch).build();
    let mixed_query = MessageBuilder::query(0x0020, name("oDnS-StUdY.ExAmPlE."), RrType::A)
        .recursion_desired(true)
        .build();
    let nested_query = MessageBuilder::query(9, name("www.a.example."), RrType::A).build();
    vec![
        ("study_query", study_query()),
        (
            "study_response_2a",
            MessageBuilder::response_to(&study_query())
                .recursion_available(true)
                .answer_a(study.clone(), 300, Ipv4Addr::new(203, 0, 113, 50))
                .answer_a(study.clone(), 300, Ipv4Addr::new(192, 0, 2, 200))
                .build(),
        ),
        (
            "root_referral",
            MessageBuilder::response_to(&study_query())
                .authority(ns("example.", "a.nic.example."))
                .additional(Record::a(
                    name("a.nic.example."),
                    172_800,
                    Ipv4Addr::new(198, 51, 100, 2),
                ))
                .build(),
        ),
        (
            "tld_referral",
            MessageBuilder::response_to(&study_query())
                .authority(ns("odns-study.example.", "ns1.odns-study.example."))
                .authority(ns("odns-study.example.", "ns2.odns-study.example."))
                .additional(Record::a(
                    name("ns1.odns-study.example."),
                    172_800,
                    Ipv4Addr::new(198, 51, 100, 3),
                ))
                .additional(Record::a(
                    name("ns2.odns-study.example."),
                    172_800,
                    Ipv4Addr::new(198, 51, 100, 4),
                ))
                .build(),
        ),
        (
            "nxdomain_soa",
            MessageBuilder::response_to(
                &MessageBuilder::query(
                    0x0BAD,
                    name("203-0-113-7.scan.odns-study.example."),
                    RrType::A,
                )
                .build(),
            )
            .authoritative(true)
            .rcode(Rcode::NxDomain)
            .authority(soa)
            .build(),
        ),
        ("version_bind_query", version_query.clone()),
        (
            "version_bind_response",
            MessageBuilder::response_to(&version_query)
                .answer(Record {
                    name: name("version.bind."),
                    class: Class::Ch,
                    ttl: 0,
                    rdata: RData::Txt(vec![b"MikroTik".to_vec(), b"RouterOS 6.45".to_vec()]),
                })
                .build(),
        ),
        (
            "any_opt_query",
            MessageBuilder::query(0xA11, study.clone(), RrType::Any)
                .recursion_desired(true)
                .additional(Record {
                    name: DnsName::root(),
                    class: Class::Other(4096),
                    ttl: 0,
                    rdata: RData::Opt(Vec::new()),
                })
                .build(),
        ),
        (
            // 0x20 casing: the owners differ from the question only in
            // case, so both compress to a pointer at the question name.
            "mixed_case_owners",
            MessageBuilder::response_to(&mixed_query)
                .recursion_available(true)
                .answer_a(study.clone(), 300, Ipv4Addr::new(203, 0, 113, 50))
                .answer_a(
                    name("ODNS-STUDY.example."),
                    300,
                    Ipv4Addr::new(192, 0, 2, 200),
                )
                .build(),
        ),
        (
            // `a.example.` and `example.` first appear *inside* the
            // question name; later owners point into its middle, and a
            // sibling reuses the inner suffix. RDATA names are written
            // uncompressed and are never pointer targets.
            "suffix_inside_other_name",
            MessageBuilder::response_to(&nested_query)
                .answer(Record {
                    name: name("www.a.example."),
                    class: Class::In,
                    ttl: 60,
                    rdata: RData::Cname(name("b.a.example.")),
                })
                .answer_a(name("b.a.example."), 60, Ipv4Addr::new(192, 0, 2, 1))
                .authority(ns("a.example.", "ns.other.test."))
                .authority(ns("example.", "ns.other.test."))
                .additional(Record::a(
                    name("ns.other.test."),
                    60,
                    Ipv4Addr::new(192, 0, 2, 53),
                ))
                .additional(Record::a(
                    name("other.test."),
                    60,
                    Ipv4Addr::new(192, 0, 2, 54),
                ))
                .build(),
        ),
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

#[test]
fn encoder_reproduces_every_golden_message() {
    let golden: Vec<(&str, &str)> = GOLDEN
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_once(' ').expect("`name hex` per line"))
        .collect();
    let actual: Vec<(&str, String)> = messages()
        .into_iter()
        .map(|(n, m)| (n, hex(&m.encode())))
        .collect();
    // On a mismatch the whole actual set is printed in fixture format.
    let rendered: String = actual.iter().map(|(n, h)| format!("{n} {h}\n")).collect();
    assert_eq!(
        golden.len(),
        actual.len(),
        "fixture count differs; actual set:\n{rendered}"
    );
    for ((gn, gh), (an, ah)) in golden.iter().zip(&actual) {
        assert_eq!(gn, an, "fixture order differs; actual set:\n{rendered}");
        assert_eq!(
            gh, ah,
            "`{gn}` encodes differently; actual set:\n{rendered}"
        );
    }
}

#[test]
fn golden_bytes_decode_to_the_messages_that_produced_them() {
    let by_name: std::collections::BTreeMap<&str, &str> = GOLDEN
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .collect();
    for (n, mut m) in messages() {
        let back = Message::decode(&unhex(by_name[n])).unwrap();
        // Section counts are recomputed on encode; align them for `==`.
        m.header.qdcount = m.questions.len() as u16;
        m.header.ancount = m.answers.len() as u16;
        m.header.nscount = m.authorities.len() as u16;
        m.header.arcount = m.additionals.len() as u16;
        assert_eq!(back, m, "`{n}` does not round-trip");
    }
}
