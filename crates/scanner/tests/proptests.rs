//! Property tests for the scanner's correlation and classification.
//!
//! Invariants:
//! * probe `(port, TXID)` tuples are unique over any index range;
//! * correlation is insensitive to response arrival order;
//! * each probe matches at most one response; extras count as unmatched;
//! * the classifier is total over answered transactions and never panics;
//! * the classifier, which reads study-shaped responses through
//!   `dnswire::view_answer_a`, is indistinguishable from one that decodes
//!   every response — verdict and discard reason, strict and relaxed.

use dnswire::{DnsName, MessageBuilder, Record, RrType};
use netsim::SimTime;
use proptest::prelude::*;
use scanner::records::{ProbeRecord, ResponseRecord};
use scanner::{
    classify, correlate_owned, ClassifierConfig, Discard, OdnsClass, ScanConfig, ScanOutcome,
    Transaction, Verdict,
};
use std::net::Ipv4Addr;

/// The §4.1 rules over a fully decoded response: the classifier as it was
/// before it learned to read the study's answer shape off the wire.
fn classify_by_decoding(t: &Transaction, config: &ClassifierConfig) -> Verdict {
    let Some(response) = &t.response else {
        return Verdict::Discarded(Discard::NoResponse);
    };
    let Ok(msg) = dnswire::Message::decode(&response.payload) else {
        return Verdict::Discarded(Discard::Malformed);
    };
    let addrs = msg.answer_a_addrs();
    if addrs.is_empty() || msg.header.flags.rcode != dnswire::Rcode::NoError {
        return Verdict::Discarded(Discard::NoAnswer);
    }
    let a_resolver = if config.strict {
        if addrs.len() != 2 {
            return Verdict::Discarded(Discard::WrongRecordCount);
        }
        let control = odns::study::CONTROL_A;
        match (addrs[0] == control, addrs[1] == control) {
            (false, true) => addrs[0],
            (true, false) => addrs[1],
            _ => return Verdict::Discarded(Discard::ControlRecordViolated),
        }
    } else {
        addrs[0]
    };
    let class = if t.probe.target != response.src {
        OdnsClass::TransparentForwarder
    } else if response.src != a_resolver {
        OdnsClass::RecursiveForwarder
    } else {
        OdnsClass::RecursiveResolver
    };
    Verdict::Classified {
        class,
        a_resolver,
        response_src: response.src,
    }
}

fn response_payload(txid: u16, addrs: &[Ipv4Addr]) -> Vec<u8> {
    let qname = DnsName::parse("odns-study.example.").unwrap();
    let q = MessageBuilder::query(txid, qname.clone(), RrType::A).build();
    let mut m = MessageBuilder::response_to(&q)
        .recursion_available(true)
        .build();
    for a in addrs {
        m.answers.push(Record::a(qname.clone(), 300, *a));
    }
    m.encode()
}

/// Record streams of `n` probes and responses for a subset, the responses
/// shuffled by the given permutation seed.
fn streams_with(
    n: usize,
    answered: &[usize],
    shuffle_seed: u64,
) -> (Vec<ProbeRecord>, Vec<ResponseRecord>) {
    let probes = (0..n)
        .map(|i| {
            let (port, txid) = ScanConfig::probe_tuple(i);
            ProbeRecord {
                index: i,
                target: Ipv4Addr::new(203, 0, (i >> 8) as u8, (i & 0xFF) as u8),
                sent_at: SimTime(i as u64),
                src_port: port,
                txid,
            }
        })
        .collect();
    let mut responses = Vec::new();
    for &i in answered {
        if i >= n {
            continue;
        }
        let (port, txid) = ScanConfig::probe_tuple(i);
        responses.push(ResponseRecord {
            received_at: SimTime(1000 + i as u64),
            src: Ipv4Addr::new(8, 8, 8, 8),
            dst_port: port,
            payload: response_payload(txid, &[Ipv4Addr::new(8, 8, 8, 8), odns::study::CONTROL_A])
                .into(),
        });
    }
    // Deterministic shuffle.
    let mut state = shuffle_seed | 1;
    for i in (1..responses.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        responses.swap(i, j);
    }
    (probes, responses)
}

fn correlate((probes, responses): (Vec<ProbeRecord>, Vec<ResponseRecord>)) -> ScanOutcome {
    correlate_owned(probes, responses, ScanConfig::DEFAULT_TIMEOUT)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn correlation_order_independent(
        n in 1usize..80,
        answered in proptest::collection::btree_set(0usize..80, 0..40),
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
    ) {
        let answered: Vec<usize> = answered.into_iter().filter(|i| *i < n).collect();
        let a = correlate(streams_with(n, &answered, seed_a));
        let b = correlate(streams_with(n, &answered, seed_b));
        prop_assert_eq!(a.answered_count(), answered.len());
        prop_assert_eq!(b.answered_count(), answered.len());
        for (ta, tb) in a.transactions.iter().zip(&b.transactions) {
            prop_assert_eq!(ta.response_src(), tb.response_src());
        }
    }

    #[test]
    fn duplicates_counted_never_double_matched(
        n in 1usize..40,
        dup_of in 0usize..40,
        copies in 2usize..5,
    ) {
        let idx = dup_of % n;
        let (probes, mut responses) = streams_with(n, &[idx], 1);
        // Add extra copies of the same response.
        let original = responses[0].clone();
        for _ in 1..copies {
            responses.push(original.clone());
        }
        let o = correlate((probes, responses));
        prop_assert_eq!(o.answered_count(), 1);
        prop_assert_eq!(o.unmatched_responses, 0);
        prop_assert_eq!(o.late_answers_discarded, copies - 1);
    }

    #[test]
    fn classifier_total_and_panic_free(
        target in any::<[u8; 4]>(),
        src in any::<[u8; 4]>(),
        addrs in proptest::collection::vec(any::<[u8; 4]>(), 0..4),
        strict in any::<bool>(),
    ) {
        let target = Ipv4Addr::from(target);
        let src = Ipv4Addr::from(src);
        let addr_list: Vec<Ipv4Addr> = addrs.into_iter().map(Ipv4Addr::from).collect();
        let (port, txid) = ScanConfig::probe_tuple(0);
        let t = scanner::Transaction {
            probe: ProbeRecord { index: 0, target, sent_at: SimTime(0), src_port: port, txid },
            response: Some(ResponseRecord {
                received_at: SimTime(1),
                src,
                dst_port: port,
                payload: response_payload(txid, &addr_list).into(),
            }),
        };
        let cfg = ClassifierConfig { strict };
        let v = classify(&t, &cfg); // must not panic
        if let Some(class) = v.class() {
            // Classified ⇒ the class is consistent with the rules.
            match class {
                scanner::OdnsClass::TransparentForwarder => prop_assert_ne!(target, src),
                _ => prop_assert_eq!(target, src),
            }
        }
    }

    #[test]
    fn probe_tuple_uniqueness_over_ranges(start in 0usize..500_000, len in 1usize..5_000) {
        let mut seen = std::collections::HashSet::with_capacity(len);
        for i in start..start + len {
            prop_assert!(seen.insert(ScanConfig::probe_tuple(i)), "collision at {i}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn classifier_equals_the_decode_only_reference(
        // 0 = the probed target, 1 = the control record, 2 = a third party.
        addrs in proptest::collection::vec(0u8..3, 0..4),
        from_target in any::<bool>(),
        rcode in 0u8..8,
        // (kind, where, value): overwrite a byte, flip a bit, cut, pad.
        mutations in proptest::collection::vec((0u8..6, any::<u16>(), any::<u8>()), 0..3),
    ) {
        let target = Ipv4Addr::new(203, 0, 113, 1);
        let other = Ipv4Addr::new(198, 51, 100, 50);
        let pick = |a: &u8| [target, odns::study::CONTROL_A, other][usize::from(*a)];
        let (port, txid) = ScanConfig::probe_tuple(0);
        let mut payload = response_payload(txid, &addrs.iter().map(pick).collect::<Vec<_>>());
        // Most cases keep NOERROR, so the address rules are reached.
        payload[3] = (payload[3] & 0xF0) | rcode.saturating_sub(4);
        for (kind, at, value) in mutations {
            let at = usize::from(at) % payload.len().max(1);
            match kind {
                0 | 1 if !payload.is_empty() => payload[at] = value,
                2 if !payload.is_empty() => payload[at] ^= 1 << (value % 8),
                3 => payload.truncate(at),
                4 => payload.push(value),
                _ => {}
            }
        }
        let t = Transaction {
            probe: ProbeRecord { index: 0, target, sent_at: SimTime(0), src_port: port, txid },
            response: Some(ResponseRecord {
                received_at: SimTime(1),
                src: if from_target { target } else { other },
                dst_port: port,
                payload: payload.into(),
            }),
        };
        for config in [ClassifierConfig::default(), ClassifierConfig::relaxed()] {
            prop_assert_eq!(classify(&t, &config), classify_by_decoding(&t, &config));
        }
    }
}
