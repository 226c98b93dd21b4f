//! Shard-count invariance of the DNSRoute++ sweep — the mirror of
//! `sharded_census_determinism.rs` for the trace pipeline.
//!
//! The sharded sweep's contract: partitioning the synthetic Internet into
//! K shard worlds changes wall-clock behavior only. Per-target traces,
//! the sanitization tally, the Figure 6 per-project path-length
//! distributions, and the AS-relationship inference are identical for
//! every K. That K = 1 reproduces the unsharded census → trace pipeline
//! bit for bit is held by `determinism_referee.rs`.

use dnsroute::TraceResult;
use inetgen::GenConfig;
use scanner::ClassifierConfig;
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

/// A trace's timing-free content. Simulated clocks differ across shard
/// compositions (stagger position, cache warm-up), so `DnsEndpoint.at`
/// is the one field a K-sweep may legitimately change; everything the
/// figures consume must not.
type TraceKey = (
    Ipv4Addr,
    Vec<Option<Ipv4Addr>>,
    Option<u8>,
    Option<(u8, Ipv4Addr)>,
);

fn trace_key(t: &TraceResult) -> TraceKey {
    (
        t.target,
        t.hops.clone(),
        t.target_seen_at,
        t.dns.as_ref().map(|d| (d.ttl, d.src)),
    )
}

fn sorted_keys(traces: &[TraceResult]) -> Vec<TraceKey> {
    let mut keys: Vec<TraceKey> = traces.iter().map(trace_key).collect();
    keys.sort();
    keys
}

#[test]
fn figure6_and_asrel_invariant_across_shard_counts() {
    let config = GenConfig::test_small();
    let baseline = analysis::run_dnsroute_sharded(&config, 1, &ClassifierConfig::default());
    let (base_paths, base_stats) = baseline.sanitized();
    assert!(base_stats.kept > 0, "sweep must keep sanitized paths");
    let (base_fig6, base_other) = analysis::figure6_by_project(&base_paths, &baseline.geo);
    assert!(!base_fig6.is_empty(), "projects must appear in Figure 6");
    let empty = BTreeSet::new();
    let (base_report, _, _) = analysis::as_relationship_report(&base_paths, &baseline.geo, &empty);

    for k in [2u32, 8] {
        let sweep = analysis::run_dnsroute_sharded(&config, k, &ClassifierConfig::default());
        let delta = analysis::diff(&baseline.census, &sweep.census);
        assert!(delta.is_empty(), "census diverged at K={k}: {delta}");
        assert_eq!(
            sorted_keys(&sweep.traces),
            sorted_keys(&baseline.traces),
            "per-target trace content diverged at K={k}"
        );
        let (paths, stats) = sweep.sanitized();
        assert_eq!(stats, base_stats, "sanitization tally diverged at K={k}");
        let (fig6, other) = analysis::figure6_by_project(&paths, &sweep.geo);
        // ProjectPaths holds *sorted* hop counts: bit-identical per
        // project means bit-identical Figure 6 distributions.
        assert_eq!(fig6, base_fig6, "Figure 6 distributions diverged at K={k}");
        assert_eq!(other.len(), base_other.len());

        let (report, _, _) = analysis::as_relationship_report(&paths, &sweep.geo, &empty);
        assert_eq!(report.usable_paths, base_report.usable_paths, "K={k}");
        assert_eq!(report.matching_paths, base_report.matching_paths, "K={k}");
        assert_eq!(report.inferred, base_report.inferred, "K={k}");
    }
}
