//! Property tests for the capture-driven census merge.
//!
//! Invariant: merging shuffled per-shard captures never drops or
//! duplicates a row and never mixes shards up, although every shard
//! reuses the same `(port, txid)` tuples.

use dnswire::{MessageBuilder, RrType};
use netsim::pcap::PcapWriter;
use netsim::wire::encode_udp;
use netsim::{Datagram, SimTime};
use proptest::prelude::*;
use scanner::{ClassifierConfig, OdnsClass, ScanConfig};
use std::net::Ipv4Addr;

const SCANNER: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);

/// Deterministic Fisher–Yates driven by an LCG.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed | 1;
    for i in (1..items.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        items.swap(i, (state >> 33) as usize % (i + 1));
    }
}

fn target(shard: usize, i: usize) -> Ipv4Addr {
    Ipv4Addr::new(203, shard as u8, (i >> 8) as u8, (i & 0xFF) as u8)
}

/// One shard's scanner capture: `n` probes carrying shard 0's target-keyed
/// tuples — the same tuples in every shard — then the answers, each from
/// its own target, in shuffled order.
fn shard_capture(shard: usize, n: usize, answered: &[usize], shuffle_seed: u64) -> Vec<u8> {
    let query = |txid| MessageBuilder::query(txid, odns::study::study_qname(), RrType::A).build();
    let mut w = PcapWriter::new();
    for i in 0..n {
        let (src_port, txid) = ScanConfig::probe_tuple(target(0, i));
        let probe = Datagram {
            src: SCANNER,
            dst: target(shard, i),
            src_port,
            dst_port: dnswire::DNS_PORT,
            ttl: 64,
            payload: query(txid).encode().into(),
        };
        w.write(SimTime(i as u64), &encode_udp(&probe, i as u16));
    }
    let mut answered = answered.to_vec();
    shuffle(&mut answered, shuffle_seed);
    for i in answered {
        let (dst_port, txid) = ScanConfig::probe_tuple(target(0, i));
        let answer = MessageBuilder::response_to(&query(txid))
            .answer_a(odns::study::study_qname(), 300, Ipv4Addr::new(8, 8, 8, 8))
            .answer_a(odns::study::study_qname(), 300, odns::study::CONTROL_A)
            .build();
        let response = Datagram {
            src: target(shard, i),
            dst: SCANNER,
            src_port: dnswire::DNS_PORT,
            dst_port,
            ttl: 60,
            payload: answer.encode().into(),
        };
        w.write(SimTime(1_000 + i as u64), &encode_udp(&response, 0));
    }
    w.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn shard_merge_never_drops_or_duplicates(
        shard_sizes in proptest::collection::vec(1usize..40, 1..6),
        answered_bits in proptest::collection::vec(any::<u64>(), 1..6),
        shard_order_seed in any::<u64>(),
        response_seeds in proptest::collection::vec(any::<u64>(), 1..6),
    ) {
        let mut captures = Vec::new();
        // (target, answered) in ascending shard order, probe order within.
        let mut expected: Vec<(Ipv4Addr, bool)> = Vec::new();
        for (s, &n) in shard_sizes.iter().enumerate() {
            let bits = answered_bits[s % answered_bits.len()];
            let answered: Vec<usize> = (0..n).filter(|i| bits >> (i % 64) & 1 == 1).collect();
            let seed = response_seeds[s % response_seeds.len()];
            captures.push((s as u32, shard_capture(s, n, &answered, seed)));
            expected.extend((0..n).map(|i| (target(s, i), answered.contains(&i))));
        }
        shuffle(&mut captures, shard_order_seed);

        let census = analysis::census_from_captures(
            &captures,
            &inetgen::GeoDb::default(),
            &ClassifierConfig::default(),
        ).expect("captures parse");

        prop_assert_eq!(census.rows.len(), expected.len(), "one row per probe");
        prop_assert_eq!(census.unmatched_responses, 0);
        prop_assert_eq!(census.late_responses, 0);
        prop_assert_eq!(census.late_answers_discarded, 0);
        for (row, (target, was_answered)) in census.rows.iter().zip(&expected) {
            prop_assert_eq!(row.target, *target, "rows follow shard id, then probe order");
            // An answer matched to another shard's probe would come from
            // a foreign source and classify as a transparent forwarder.
            prop_assert_eq!(row.class(), was_answered.then_some(OdnsClass::RecursiveForwarder));
        }
    }
}
