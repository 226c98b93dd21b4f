//! Micro-benchmarks of the simulator core: the route plane over a
//! census-shaped world and the steady-state scan hot path.
//!
//! The `hotpath` and `routing` groups emit machine-readable sections of
//! `BENCH_simcore.json` (probes/sec, events/sec, route-cache hit rate;
//! ns per resolve, routes held) so successive PRs have a perf trajectory
//! to compare against. Set `BENCH_QUICK=1` for a fast CI-friendly run.

use bench::tiny_world;
use inetgen::{GenConfig, Internet};
use scanner::ScanConfig;
use std::hint::black_box;
use std::time::Instant;

/// Route-plane cost of one census, written to the `routing` section of
/// `BENCH_simcore.json`. The world is census-shaped (full country table,
/// `scale` 1000) and the legs are the ones a census routes forward: the
/// scanner to every target, and every forwarder to its resolver. Each
/// host pair is new, but most legs share an `(src AS, dst AS)` pair.
///
/// * `first_census` — a new resolver per pass: every leg is a host pair
///   never seen before, and each AS pair's segment is built once;
/// * `later_census` — the same legs again: every segment is cached;
/// * `routes_held` — AS routes the simulator's resolver holds after one
///   real census of the world (one per miss), against the legs it routed.
// Wall-clock is the measured quantity here (clippy.toml bans it elsewhere).
#[allow(clippy::disallowed_methods)]
fn bench_routing() {
    let quick = bench::quick_mode();
    let passes: u32 = if quick { 20 } else { 200 };
    let mut internet = inetgen::generate(&GenConfig {
        scale: 1_000,
        ..GenConfig::default()
    });
    let scanner_node = internet.fixtures.scanner;
    let scanner_legs = internet.targets.iter().map(|t| (scanner_node, *t));
    let planted = internet.truth.hosts.iter();
    let forwarder_legs = planted.filter_map(|h| Some((h.node, h.resolver_target?)));
    let legs: Vec<_> = scanner_legs.chain(forwarder_legs).collect();
    let topo = internet.sim.topology();
    let pass = |resolver: &mut netsim::RouteResolver| {
        let mut hops = 0usize;
        for (from, to) in &legs {
            if let Ok(p) = resolver.resolve(topo, *from, *to) {
                hops += p.router_hops();
            }
        }
        black_box(hops)
    };
    let ns_per_resolve = |elapsed: std::time::Duration| {
        elapsed.as_nanos() as f64 / (f64::from(passes) * legs.len() as f64)
    };

    let t0 = Instant::now();
    for _ in 0..passes {
        pass(&mut netsim::RouteResolver::new());
    }
    let first_census_ns = ns_per_resolve(t0.elapsed());

    let mut resolver = netsim::RouteResolver::new();
    pass(&mut resolver);
    let t0 = Instant::now();
    for _ in 0..passes {
        pass(&mut resolver);
    }
    let later_census_ns = ns_per_resolve(t0.elapsed());
    let leg_count = legs.len();
    let as_pairs = resolver.cache_len();

    let targets = internet.targets.clone();
    let _ = scanner::run_scan(&mut internet.sim, scanner_node, ScanConfig::new(targets));
    let stats = internet.sim.stats();
    let routes_held = stats.route_cache_misses;
    let resolves_routed = stats.route_cache_hits + stats.route_cache_misses;

    println!(
        "routing/first_census                     ns/resolve: {first_census_ns:>8.1}  legs: {leg_count}  AS pairs: {as_pairs}"
    );
    println!("routing/later_census                     ns/resolve: {later_census_ns:>8.1}");
    println!(
        "routing/routes_held                      {routes_held} AS routes after one census ({resolves_routed} resolves routed)"
    );
    let section = format!(
        "{{\n    \"bench\": \"micro_simcore/routing\",\n    \"mode\": \"{}\",\n    \"world\": \"full country table, scale 1000\",\n    \"passes\": {},\n    \"legs\": {},\n    \"leg_as_pairs\": {},\n    \"first_census_ns_per_resolve\": {:.1},\n    \"later_census_ns_per_resolve\": {:.1},\n    \"census_resolves_routed\": {},\n    \"routes_held\": {}\n  }}",
        if quick { "quick" } else { "full" },
        passes,
        leg_count,
        as_pairs,
        first_census_ns,
        later_census_ns,
        resolves_routed,
        routes_held,
    );
    match bench::merge_bench_section("routing", &section) {
        Ok(path) => println!("routing: wrote section \"routing\" to {path}"),
        Err(e) => eprintln!("routing: could not write artifact: {e}"),
    }
}

/// Pre-PR reference figures, measured on the machine that landed the
/// reusable shard worlds (commit 2792ac0, same harness shapes) — before
/// the timer-wheel engine, batched pacing, and hot-answer replay. They
/// ride along in `BENCH_simcore.json` so any machine's run carries its own
/// "after" next to the recorded "before"; cross-machine comparisons should
/// use the ratio, not the absolute numbers.
const BASELINE_NOTE: &str = "pre-PR (commit 2792ac0), dev machine";
const BASELINE_STEADY_PROBES_PER_SEC: f64 = 1_029_803.0;
const BASELINE_COLD_WORLD_PROBES_PER_SEC: f64 = 90_812.0;
/// Queue events per answered probe at the baseline commit
/// (3,802,350 events/s over 1,029,803 probes/s): the figure batched
/// pacing drives down — every probe under the old engine cost its own
/// pacing timer event.
const BASELINE_EVENTS_PER_ANSWERED_PROBE: f64 = 3.69;

/// Steady-state hot-path measurement over a warm world, reported as
/// probes/sec and events/sec plus route-cache effectiveness, written to
/// `BENCH_simcore.json`.
// Wall-clock is the measured quantity here (clippy.toml bans it elsewhere).
#[allow(clippy::disallowed_methods)]
fn bench_hotpath() {
    let quick = bench::quick_mode();
    let scans: u32 = if quick { 200 } else { 2_000 };
    let mut internet: Internet = tiny_world();
    let probes_per_scan = internet.targets.len() as u64;

    // Warm-up: one scan populates route caches, resolver caches, and
    // response templates.
    let _ = scanner::run_scan(
        &mut internet.sim,
        internet.fixtures.scanner,
        ScanConfig::new(internet.targets.clone()),
    );
    let events_before = internet.sim.stats().events_processed;
    let coalesced_before = internet.sim.stats().timers_coalesced;
    let wheel_before = internet.sim.stats().events_wheel_scheduled;
    let heap_before = internet.sim.stats().events_heap_scheduled;

    let t0 = Instant::now();
    let mut answered = 0usize;
    for _ in 0..scans {
        let outcome = scanner::run_scan(
            &mut internet.sim,
            internet.fixtures.scanner,
            ScanConfig::new(internet.targets.clone()),
        );
        answered += black_box(outcome.answered_count());
    }
    let elapsed = t0.elapsed();

    let stats = internet.sim.stats();
    let events = stats.events_processed - events_before;
    let coalesced = stats.timers_coalesced - coalesced_before;
    let wheel_scheduled = stats.events_wheel_scheduled - wheel_before;
    let heap_scheduled = stats.events_heap_scheduled - heap_before;
    let total_probes = probes_per_scan * u64::from(scans);
    let probes_per_sec = total_probes as f64 / elapsed.as_secs_f64();
    let events_per_sec = events as f64 / elapsed.as_secs_f64();
    let events_per_answered = if answered > 0 {
        events as f64 / answered as f64
    } else {
        0.0
    };
    let hit_rate = if stats.route_cache_hits + stats.route_cache_misses > 0 {
        stats.route_cache_hits as f64 / (stats.route_cache_hits + stats.route_cache_misses) as f64
    } else {
        0.0
    };

    println!(
        "hotpath/steady_scan                      probes/s: {probes_per_sec:>12.0}  events/s: {events_per_sec:>12.0}  route-cache hit rate: {:.4}",
        hit_rate
    );
    println!(
        "hotpath/queue                            events/answered probe: {events_per_answered:.2}  timers coalesced: {coalesced}  wheel: {wheel_scheduled}  heap: {heap_scheduled}"
    );
    // The hot path runs with faults off and a single-attempt policy, so
    // every fault-plane and retry counter must read zero — the artifact
    // records them so a leak of either layer into the clean path is
    // visible in any run's JSON, not just in the dedicated tests.
    assert_eq!(
        (
            stats.dropped_fault,
            stats.dropped_corrupt,
            stats.duplicates_injected,
            stats.retransmits_sent
        ),
        (0, 0, 0, 0),
        "fault plane or retry layer touched the clean hot path"
    );

    let section = format!(
        "{{\n    \"bench\": \"micro_simcore/hotpath\",\n    \"mode\": \"{}\",\n    \"world\": \"tiny_world (MUS+FSM, scale 1000)\",\n    \"scans\": {},\n    \"probes_per_scan\": {},\n    \"answered_probes\": {},\n    \"steady\": {{\n      \"probes_per_second\": {:.0},\n      \"events_per_second\": {:.0},\n      \"events_per_answered_probe\": {:.3},\n      \"timers_coalesced\": {},\n      \"events_wheel_scheduled\": {},\n      \"events_heap_scheduled\": {},\n      \"elapsed_seconds\": {:.6},\n      \"route_cache_hits\": {},\n      \"route_cache_misses\": {},\n      \"route_cache_hit_rate\": {:.6}\n    }},\n    \"faults\": {{\n      \"dropped_fault\": {},\n      \"dropped_corrupt\": {},\n      \"duplicates_injected\": {},\n      \"retransmits_sent\": {}\n    }},\n    \"baseline\": {{\n      \"note\": \"{}\",\n      \"steady_probes_per_second\": {:.0},\n      \"cold_world_probes_per_second\": {:.0},\n      \"events_per_answered_probe\": {:.2}\n    }},\n    \"speedup_vs_baseline_steady\": {:.2}\n  }}",
        if quick { "quick" } else { "full" },
        scans,
        probes_per_scan,
        answered,
        probes_per_sec,
        events_per_sec,
        events_per_answered,
        coalesced,
        wheel_scheduled,
        heap_scheduled,
        elapsed.as_secs_f64(),
        stats.route_cache_hits,
        stats.route_cache_misses,
        hit_rate,
        stats.dropped_fault,
        stats.dropped_corrupt,
        stats.duplicates_injected,
        stats.retransmits_sent,
        BASELINE_NOTE,
        BASELINE_STEADY_PROBES_PER_SEC,
        BASELINE_COLD_WORLD_PROBES_PER_SEC,
        BASELINE_EVENTS_PER_ANSWERED_PROBE,
        probes_per_sec / BASELINE_STEADY_PROBES_PER_SEC,
    );
    match bench::merge_bench_section("hotpath", &section) {
        Ok(path) => println!("hotpath: wrote section \"hotpath\" to {path}"),
        Err(e) => eprintln!("hotpath: could not write artifact: {e}"),
    }
}

fn main() {
    println!("micro-benchmarks: routing, scan event throughput");
    bench_routing();
    bench_hotpath();
}
