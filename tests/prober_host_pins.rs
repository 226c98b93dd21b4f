//! The four index-paced probers (`TransactionalScanner`,
//! `CampaignScanner`, `FingerprintScanner`, `ReflectionAttacker`) share
//! one pacing/retry core, `scanner::pacer`. These pins hold the scanner,
//! the fingerprinter and the attacker (campaigns are single-shot and
//! unpinned) to the exact event stream each produced when it carried its
//! own copy: every `SimStats` field (sends, drops, timers fired/coalesced,
//! queue events) plus a digest of what the host reports, for one fixed
//! playground world per mode. The literals were captured on the commit
//! before the hosts moved onto the pacer; `route_cache_hits`/`_misses`
//! were re-captured when routes became one segment per AS pair (the
//! playground is one AS: one miss, the same `hits + misses`), and
//! `timers_fired`/`events_processed` when an answer began to cancel the
//! timeout or retry check it made pointless (each fell by exactly the
//! run's `timers_cancelled`: `before_cancellation` holds the sums to
//! the original literals).
//!
//! The last two pins hold the *bytes* clients get from the two caching
//! hosts — relayed and cache-served by a `RecursiveForwarder`, fanned out
//! to a leader and its coalesced waiters by a `RecursiveResolver`.

use netsim::testkit::playground;
use netsim::{FaultPlan, NodeId, SimConfig, SimDuration, SimStats, Simulator};
use odns::{
    DeviceProfile, RecursiveForwarder, RecursiveResolver, ResolverConfig, StudyNodes,
    TransparentForwarder, Vendor,
};
use scanner::{
    run_fingerprint_scan, run_reflections, run_scan, AttackVector, ReflectionPlan, ScanConfig,
    VictimMeter,
};
use std::net::Ipv4Addr;

const SCANNER: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);
const VICTIM: Ipv4Addr = Ipv4Addr::new(198, 51, 99, 1);
const ROOT: Ipv4Addr = Ipv4Addr::new(198, 41, 0, 4);
const TLD: Ipv4Addr = Ipv4Addr::new(198, 41, 1, 4);
const AUTH: Ipv4Addr = Ipv4Addr::new(198, 41, 2, 4);
const RESOLVER: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 1);

/// 37 targets — two full pacing bursts plus a remainder: every third a
/// transparent forwarder (MikroTik), every third a caching recursive
/// forwarder (Zyxel CPE), the rest silent.
fn targets() -> Vec<Ipv4Addr> {
    (1..=37).map(|i| Ipv4Addr::new(203, 0, 113, i)).collect()
}

struct World {
    sim: Simulator,
    scanner: NodeId,
    victim: NodeId,
}

fn world(seed: u64, faults: FaultPlan) -> World {
    let mut ips = vec![SCANNER, VICTIM, ROOT, TLD, AUTH, RESOLVER];
    ips.extend(targets());
    let (topo, nodes) = playground(&ips);
    let mut sim = Simulator::new(
        topo,
        SimConfig {
            faults: faults.salted(seed),
            ..SimConfig::default()
        },
    );
    odns::install_study_stack(
        &mut sim,
        StudyNodes {
            root: nodes[2],
            tld: nodes[3],
            tld_ip: TLD,
            auth: nodes[4],
            auth_ip: AUTH,
        },
        true,
    );
    sim.install(
        nodes[5],
        RecursiveResolver::new(ResolverConfig::open(vec![ROOT])),
    );
    for (i, node) in nodes[6..].iter().enumerate() {
        match i % 3 {
            0 => sim.install(
                *node,
                TransparentForwarder::new(RESOLVER).with_device(DeviceProfile::mikrotik()),
            ),
            1 => sim.install(
                *node,
                RecursiveForwarder::new(RESOLVER)
                    .with_device(DeviceProfile::with_mgmt(Vendor::Zyxel)),
            ),
            _ => {}
        }
    }
    sim.install(nodes[1], VictimMeter::new());
    World {
        sim,
        scanner: nodes[0],
        victim: nodes[1],
    }
}

/// FNV-1a over a value's `Debug` rendering: one comparable number for a
/// whole outcome/report/evidence map.
fn digest(value: &impl std::fmt::Debug) -> u64 {
    format!("{value:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

fn lossy() -> FaultPlan {
    FaultPlan::lossy(0.2)
}

/// `(timers_fired, events_processed)` as they were while a cancelled timer
/// still fired, to find its work already done.
fn before_cancellation(stats: &SimStats) -> (u64, u64) {
    (
        stats.timers_fired + stats.timers_cancelled,
        stats.events_processed + stats.timers_cancelled,
    )
}

#[test]
fn transactional_scan_clean() {
    let mut w = world(5, FaultPlan::none());
    let outcome = run_scan(&mut w.sim, w.scanner, ScanConfig::new(targets()));
    assert_eq!(outcome.answered_count(), 25);
    assert_eq!(digest(&outcome), 0xd7ad_4379_d460_6d21);
    assert_eq!(
        *w.sim.stats(),
        SimStats {
            udp_sent: 105,
            udp_delivered: 105,
            spoofed_sent: 13,
            udp_bytes_delivered: 5101,
            timers_fired: 37,
            timers_coalesced: 33,
            timers_cancelled: 15,
            events_wheel_scheduled: 124,
            events_processed: 109,
            route_cache_hits: 104,
            route_cache_misses: 1,
            ..SimStats::default()
        }
    );
    assert_eq!(before_cancellation(w.sim.stats()), (52, 124));
}

#[test]
fn transactional_scan_lossy_with_sweep_retry_policy() {
    let mut w = world(6, lossy());
    let cfg = ScanConfig::new(targets()).with_retry(analysis::sweep_retry_policy(2));
    let outcome = run_scan(&mut w.sim, w.scanner, cfg);
    assert_eq!(digest(&outcome), 0xdb98_a5a9_f243_e7c7);
    assert_eq!(
        *w.sim.stats(),
        SimStats {
            udp_sent: 194,
            udp_delivered: 153,
            spoofed_sent: 22,
            dropped_fault: 51,
            dropped_corrupt: 4,
            icmp_delivered: 3,
            duplicates_injected: 14,
            retransmits_sent: 60,
            udp_bytes_delivered: 6765,
            timers_fired: 113,
            timers_coalesced: 33,
            timers_cancelled: 26,
            events_wheel_scheduled: 262,
            events_processed: 236,
            route_cache_hits: 145,
            route_cache_misses: 1,
            ..SimStats::default()
        }
    );
    assert_eq!(before_cancellation(w.sim.stats()), (139, 262));
}

#[test]
fn transactional_scan_lossy_target_keyed_with_retry() {
    let mut w = world(7, lossy());
    let cfg = ScanConfig::new(targets())
        .with_target_keyed_tuples()
        .with_retry(analysis::sweep_retry_policy(2));
    let outcome = run_scan(&mut w.sim, w.scanner, cfg);
    assert_eq!(digest(&outcome), 0x5ad9_4c0a_8a4f_6991);
    assert_eq!(
        *w.sim.stats(),
        SimStats {
            udp_sent: 196,
            udp_delivered: 158,
            spoofed_sent: 24,
            dropped_fault: 42,
            dropped_corrupt: 1,
            icmp_delivered: 1,
            duplicates_injected: 5,
            retransmits_sent: 58,
            udp_bytes_delivered: 7154,
            timers_fired: 107,
            timers_coalesced: 33,
            timers_cancelled: 30,
            events_wheel_scheduled: 263,
            events_processed: 233,
            route_cache_hits: 154,
            route_cache_misses: 1,
            ..SimStats::default()
        }
    );
    assert_eq!(before_cancellation(w.sim.stats()), (137, 263));
}

#[test]
fn fingerprint_scan() {
    let mut w = world(9, FaultPlan::none());
    let evidence = run_fingerprint_scan(&mut w.sim, w.scanner, targets());
    assert_eq!(digest(&evidence), 0x4046_1561_e187_c16b);
    assert_eq!(
        *w.sim.stats(),
        SimStats {
            udp_sent: 149,
            udp_delivered: 149,
            icmp_delivered: 37,
            udp_bytes_delivered: 843,
            timers_fired: 111,
            timers_coalesced: 103,
            events_wheel_scheduled: 194,
            events_processed: 194,
            route_cache_hits: 185,
            route_cache_misses: 1,
            ..SimStats::default()
        }
    );
}

#[test]
fn reflection_plans() {
    let mut w = world(10, FaultPlan::none());
    let all = targets();
    let mut late = ReflectionPlan::new(AttackVector::Txt, all[..17].to_vec(), VICTIM, 40_002);
    late.start_after = SimDuration::from_millis(3);
    let plans = vec![
        ReflectionPlan::new(AttackVector::Any, all.clone(), VICTIM, 40_001),
        late,
        ReflectionPlan::flood(AttackVector::EdnsAny, &all[..11], 3, VICTIM, 40_003),
    ];
    let spends = run_reflections(&mut w.sim, w.scanner, plans);
    let meter: &VictimMeter = w.sim.host_as(w.victim).unwrap();
    let seen = (&spends, &meter.tallies);
    assert_eq!(digest(&seen), 0x3068_10a9_9381_cb15);
    assert_eq!(
        *w.sim.stats(),
        SimStats {
            udp_sent: 231,
            udp_delivered: 231,
            spoofed_sent: 118,
            udp_bytes_delivered: 17970,
            timers_fired: 87,
            timers_coalesced: 78,
            timers_cancelled: 26,
            events_wheel_scheduled: 266,
            events_processed: 240,
            route_cache_hits: 230,
            route_cache_misses: 1,
            ..SimStats::default()
        }
    );
    assert_eq!(before_cancellation(w.sim.stats()), (113, 266));
}

/// Scripted stub queries from the scanner node, and the answers that came
/// back as `(destination port, payload hex)` in arrival order.
fn stub_exchange(sends: Vec<(u64, Ipv4Addr, u16, Vec<u8>)>) -> Vec<(u16, String)> {
    let mut w = world(11, FaultPlan::none());
    let script = sends
        .into_iter()
        .map(|(at_us, dst, src_port, payload)| {
            (
                SimDuration::from_micros(at_us),
                netsim::UdpSend::new(src_port, dst, 53, payload),
            )
        })
        .collect();
    netsim::testkit::install_script(&mut w.sim, w.scanner, script);
    w.sim.run();
    let client: &netsim::testkit::ScriptedClient = w.sim.host_as(w.scanner).unwrap();
    let hex = |bytes: &[u8]| bytes.iter().map(|b| format!("{b:02x}")).collect();
    client
        .datagrams
        .iter()
        .map(|(_, d)| (d.dst_port, hex(&d.payload)))
        .collect()
}

fn stub_query(txid: u16, qname: &str) -> Vec<u8> {
    dnswire::MessageBuilder::query(
        txid,
        dnswire::DnsName::parse(qname).unwrap(),
        dnswire::RrType::A,
    )
    .recursion_desired(true)
    .build()
    .encode()
}

/// `\x0aodns-study\x07example\x00`, as the probes spell it and 0x20-mixed.
const QNAME_LOWER: &str = "0a6f646e732d7374756479076578616d706c6500";
const QNAME_MIXED: &str = "0a6f446e532d5374556459074578416d506c4500";

/// The study answer as hex: header (QR RD RA, one question, two answers),
/// the question as asked, then `A 198.51.100.1` (the resolver's egress as
/// the authoritative server saw it) and the control record `A 192.0.2.200`,
/// both owned by a pointer to the question name. Captured on the commit
/// before `RecursiveForwarder` relayed upstream datagrams unparsed and
/// `RecursiveResolver` patched one encoding per coalesced recipient: both
/// hosts decoded, rebuilt and re-encoded a message per client then, and
/// must send the same bytes now.
fn study_answer_hex(txid: &str, qname: &str, ttl: &str) -> String {
    format!(
        "{txid}81800001000200000000{qname}00010001\
         c00c00010001{ttl}0004c6336401c00c00010001{ttl}0004c00002c8"
    )
}

#[test]
fn caching_forwarder_relay_and_cache_bytes() {
    let forwarder = targets()[1];
    let answers = stub_exchange(vec![
        // A miss, relayed from the resolver's answer...
        (
            0,
            forwarder,
            40_001,
            stub_query(0x1111, "odns-study.example."),
        ),
        // ...and ten seconds on a hit, served from the entry that relay left.
        (
            10_000_000,
            forwarder,
            40_002,
            stub_query(0x2222, "odns-study.example."),
        ),
    ]);
    assert_eq!(
        answers,
        [
            (40_001, study_answer_hex("1111", QNAME_LOWER, "0000012c")),
            // Ten of the 300 seconds gone.
            (40_002, study_answer_hex("2222", QNAME_LOWER, "00000122")),
        ]
    );
}

#[test]
fn resolver_fan_out_bytes_for_leader_and_waiters() {
    let answers = stub_exchange(vec![
        (
            0,
            RESOLVER,
            40_001,
            stub_query(0xAAAA, "odns-study.example."),
        ),
        // Coalesced behind the leader: same casing, then 0x20-mixed casing.
        (
            50,
            RESOLVER,
            40_002,
            stub_query(0xBBBB, "odns-study.example."),
        ),
        (
            100,
            RESOLVER,
            40_003,
            stub_query(0xCCCC, "oDnS-StUdY.ExAmPlE."),
        ),
    ]);
    assert_eq!(
        answers,
        [
            (40_001, study_answer_hex("aaaa", QNAME_LOWER, "0000012c")),
            (40_002, study_answer_hex("bbbb", QNAME_LOWER, "0000012c")),
            (40_003, study_answer_hex("cccc", QNAME_MIXED, "0000012c")),
        ]
    );
}
