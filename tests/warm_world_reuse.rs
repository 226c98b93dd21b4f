//! Warm-world reuse correctness — the generate-once, scan-many contract.
//!
//! A [`inetgen::ShardWorldCache`] lets repeated sweeps reuse each shard's
//! generated `Internet`, resetting it to its post-generation state between
//! runs instead of rebuilding it. The contract this file pins down: a
//! cached-and-reset shard world produces **bit-identical** census, trace,
//! campaign, and sensor outputs to a freshly generated one — for
//! K ∈ {1, 2, 8}, across repeated reuses, and across shard-count changes
//! on the same cache. If a reset ever leaked state (resolver caches aside — routes
//! are pure functions of the immutable topology), these comparisons catch
//! it at full output granularity, timestamps and captures included.

use inetgen::{CountrySelection, GenConfig, ShardWorldCache};
use scanner::ClassifierConfig;

fn test_config() -> GenConfig {
    GenConfig {
        countries: CountrySelection::Codes(vec!["BRA", "TUR", "MUS", "FSM"]),
        scale: 2_500,
        dud_fraction: 0.05,
        ..GenConfig::default()
    }
}

#[test]
fn cached_census_is_bit_identical_to_fresh_for_every_k() {
    let config = test_config();
    let classifier = ClassifierConfig::default();
    // One cache across every K: changing the shard count rebuilds the
    // slots, so this also exercises the regenerate-on-repartition path.
    let mut cache = ShardWorldCache::new(config.clone());
    for k in [1u32, 2, 8] {
        let fresh = analysis::run_census_sharded(&config, k, &classifier);
        let cold = analysis::run_census_sharded(&mut cache, k, &classifier);
        assert_eq!(cold, fresh, "first cached run diverged at K={k}");
        assert!(fresh.odns_total() > 0, "world must classify components");
        // Second and third runs hit warm worlds (reset, not regenerated).
        for reuse in 1..3 {
            let warm = analysis::run_census_sharded(&mut cache, k, &classifier);
            assert_eq!(warm, fresh, "warm reuse {reuse} diverged at K={k}");
        }
        assert_eq!(cache.warm_shards(), k as usize, "all shards cached");
    }
}

#[test]
fn cached_dnsroute_sweep_is_bit_identical_to_fresh() {
    let config = test_config();
    let classifier = ClassifierConfig::default();
    for k in [1u32, 2, 8] {
        let fresh = analysis::run_dnsroute_sharded(&config, k, &classifier);
        assert!(!fresh.traces.is_empty(), "world must contain forwarders");
        let mut cache = ShardWorldCache::new(config.clone());
        analysis::run_dnsroute_sharded(&mut cache, k, &classifier); // generate
        let warm = analysis::run_dnsroute_sharded(&mut cache, k, &classifier);
        assert_eq!(warm.census, fresh.census, "census diverged at K={k}");
        // Full equality including per-hop timestamps: a warm world replays
        // the same event sequence, not merely the same distributions.
        assert_eq!(warm.traces, fresh.traces, "traces diverged at K={k}");
    }
}

#[test]
fn cached_campaign_sweep_is_bit_identical_to_fresh() {
    let config = test_config();
    let classifier = ClassifierConfig::default();
    for k in [1u32, 2, 8] {
        let fresh = analysis::run_campaign_sharded(&config, k, &classifier);
        let mut cache = ShardWorldCache::new(config.clone());
        analysis::run_campaign_sharded(&mut cache, k, &classifier); // generate
        let warm = analysis::run_campaign_sharded(&mut cache, k, &classifier);
        assert_eq!(warm.census, fresh.census, "census diverged at K={k}");
        assert_eq!(warm.reports, fresh.reports, "reports diverged at K={k}");
        assert_eq!(warm.matrix, fresh.matrix, "matrix diverged at K={k}");
        // The sensors' /24 limiters live in host state: a leaky reset
        // would leave last run's buckets warm and shed extra queries.
        assert_eq!(warm.sensors, fresh.sensors, "sensors diverged at K={k}");
        // Raw capture bytes, timestamps included.
        assert_eq!(warm.captures.len(), fresh.captures.len());
        for (w, f) in warm.captures.iter().zip(&fresh.captures) {
            assert_eq!(w.shard, f.shard);
            assert_eq!(w.scan, f.scan, "scan capture diverged at K={k}");
            assert_eq!(w.campaigns, f.campaigns, "campaign captures at K={k}");
        }
    }
}
