//! Per-layer kernels: the cost of one call into a layer's public function,
//! measured in isolation. They split `scanner.scan_s` — a composite of the
//! `netsim` loop, the `odns` hosts and the scanner host — by measurement
//! instead of by guessing, and they referee the ROADMAP's "earn or delete
//! each hot-path mechanism" item: a serve-path cache whose kernel moves
//! must show on `hotpath_repeat` and predict no change on `census_fresh`.

use crate::workloads::Workload;
use crate::{clock, stats};
use dnswire::{DnsName, Message, MessageBuilder, ResponseTemplate, RrType};
use netsim::wheel::TimerWheel;
use netsim::{FaultPlan, FlowKey, RouteResolver, SimTime};
use odns::memo::HotWire;
use odns::{CachedAnswer, DnsCache, QueryMemo};
use scanner::{ClassifierConfig, ProbeRecord, ResponseRecord, Transaction};
use std::hint::black_box;
use std::net::Ipv4Addr;

/// Batches per kernel; the reported figure is their median.
const BATCHES: usize = 9;

/// Median over `BATCHES` batches of the time one call of `op` takes, in
/// nanoseconds. `op` gets the iteration number so inputs can vary.
fn ns_per_op(iters: u64, mut op: impl FnMut(u64)) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = clock::now();
            for i in 0..iters {
                op(i);
            }
            clock::secs_since(start) * 1e9 / iters as f64
        })
        .collect();
    stats::median(&samples)
}

/// The study's two-A-record response and the query that elicits it.
fn study_exchange() -> (Message, Message) {
    let qname = odns::study::study_qname();
    let query = MessageBuilder::query(0x2861, qname.clone(), RrType::A)
        .recursion_desired(true)
        .build();
    let response = MessageBuilder::response_to(&query)
        .recursion_available(true)
        .answer_a(
            qname.clone(),
            odns::study::ANSWER_TTL,
            Ipv4Addr::new(203, 1, 113, 50),
        )
        .answer_a(qname, odns::study::ANSWER_TTL, odns::study::CONTROL_A)
        .build();
    (query, response)
}

/// Run every kernel; returns `(per-layer metric name, value)` pairs.
pub fn run(seed: u64, smoke: bool) -> Vec<(&'static str, f64)> {
    let iters: u64 = if smoke { 2_000 } else { 100_000 };
    let mut out = Vec::new();
    let (query, response) = study_exchange();
    let query_bytes = query.encode();
    let response_bytes = response.encode();
    let qname: DnsName = odns::study::study_qname();

    // dnswire: the codec and the pre-encoded template.
    out.push((
        "dnswire.encode_response_ns",
        ns_per_op(iters, |_| {
            black_box(black_box(&response).encode());
        }),
    ));
    out.push((
        "dnswire.decode_response_ns",
        ns_per_op(iters, |_| {
            black_box(Message::decode(black_box(&response_bytes)).expect("own encoding decodes"));
        }),
    ));
    let template = ResponseTemplate::from_message(&response).expect("study response templates");
    out.push((
        "dnswire.template_materialize_ns",
        ns_per_op(iters, |i| {
            black_box(template.materialize(i as u16, true, 300));
        }),
    ));
    out.push((
        "dnswire.peek_id_ns",
        ns_per_op(iters * 10, |_| {
            black_box(dnswire::peek_id(black_box(&response_bytes)));
        }),
    ));

    // odns: the three serve-path caches, each on its hit path.
    let mut cache = DnsCache::new(16);
    cache.insert(
        qname.clone(),
        RrType::A,
        CachedAnswer::Positive(response.answers.clone()),
        odns::study::ANSWER_TTL,
        SimTime::ZERO,
    );
    out.push((
        "odns.cache_get_wire_ns",
        ns_per_op(iters, |i| {
            black_box(cache.get_wire(&qname, RrType::A, SimTime(1_000), i as u16, true));
        }),
    ));
    let hot = HotWire::new(7, SimTime(1_000_000), response_bytes.clone().into());
    out.push((
        "odns.hotwire_serve_ns",
        ns_per_op(iters * 10, |i| {
            black_box(hot.serve(black_box(7), SimTime(i & 0xFFFF)));
        }),
    ));
    let memo = QueryMemo::remember(&query_bytes, &query).expect("plain IN query memoizes");
    out.push((
        "odns.querymemo_match_ns",
        ns_per_op(iters * 10, |_| {
            black_box(memo.txid_of_match(black_box(&query_bytes)));
        }),
    ));

    // scanner: classifying one answered transaction (decodes the answer).
    let target = Ipv4Addr::new(11, 0, 0, 1);
    let transaction = Transaction {
        probe: ProbeRecord {
            index: 0,
            target,
            sent_at: SimTime::ZERO,
            src_port: 33_000,
            txid: 0x2861,
        },
        response: Some(ResponseRecord {
            received_at: SimTime(40_000),
            src: Ipv4Addr::new(203, 1, 113, 50),
            dst_port: 33_000,
            payload: response_bytes.clone().into(),
        }),
    };
    let classifier = ClassifierConfig::default();
    out.push((
        "scanner.classify_ns",
        ns_per_op(iters, |_| {
            black_box(scanner::classify(black_box(&transaction), &classifier));
        }),
    ));

    // netsim: the fault plane's verdict for one packet under 5 % loss.
    let plan = FaultPlan::lossy(0.05).salted(seed);
    out.push((
        "netsim.fault_decide_ns",
        ns_per_op(iters * 10, |i| {
            let key = FlowKey {
                src: Ipv4Addr::new(192, 0, 2, 1),
                dst: Ipv4Addr::from(0x0B00_0000 + i as u32),
                src_port: 33_000,
                txid: i as u16,
                attempt: 0,
            };
            black_box(plan.decide(&key, None, None));
        }),
    ));

    out.push(("netsim.wheel_push_pop_ns", wheel_push_pop_ns(iters)));
    out.extend(route_resolve_ns(seed));
    out
}

/// The timer wheel under a census-shaped schedule: per burst of 16 probes
/// one pacing timer 800 µs ahead, one delivery some tens of milliseconds
/// ahead and one 20 s timeout, popping whatever has come due. Nanoseconds
/// per event pushed and popped.
fn wheel_push_pop_ns(iters: u64) -> f64 {
    let bursts = iters / 4;
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let mut wheel: TimerWheel<u64> = TimerWheel::new();
            let mut seq = 0u64;
            let mut popped = 0u64;
            let start = clock::now();
            for burst in 0..bursts {
                let now = burst * 800;
                for deadline in [
                    now + 800,
                    now + 30_000 + (burst % 97) * 100,
                    now + 20_000_000,
                ] {
                    wheel.push(SimTime(deadline), seq, seq);
                    seq += 1;
                }
                while let Some(event) = wheel.pop_at_or_before(SimTime(now)) {
                    black_box(event);
                    popped += 1;
                }
            }
            while let Some(event) = wheel.pop() {
                black_box(event);
                popped += 1;
            }
            assert_eq!(popped, seq, "the wheel lost or invented an event");
            clock::secs_since(start) * 1e9 / seq as f64
        })
        .collect();
    stats::median(&samples)
}

/// `RouteResolver::resolve` from the scanner to every target of the
/// `census_fresh` topology: first with an empty resolver (cold: each
/// route materialises a path), then again (warm: each is a cache hit).
fn route_resolve_ns(seed: u64) -> [(&'static str, f64); 2] {
    let world = inetgen::generate(&Workload::CensusFresh.gen_config(seed));
    let topo = world.sim.topology();
    let mut resolver = RouteResolver::new();
    let pass = |resolver: &mut RouteResolver| {
        let start = clock::now();
        let mut hops = 0usize;
        for target in &world.targets {
            if let Ok(path) = resolver.resolve(topo, world.fixtures.scanner, *target) {
                hops += path.router_hops();
            }
        }
        black_box(hops);
        clock::secs_since(start) * 1e9 / world.targets.len() as f64
    };
    let cold = pass(&mut resolver);
    let warm = stats::median(
        &(0..BATCHES)
            .map(|_| pass(&mut resolver))
            .collect::<Vec<_>>(),
    );
    [
        ("netsim.route_resolve_cold_ns", cold),
        ("netsim.route_resolve_warm_ns", warm),
    ]
}
