//! Shard-count invariance of the census.
//!
//! The sharded engine's contract: partitioning the synthetic Internet
//! into K shards changes wall-clock behavior only — the census coming out
//! of the merged offline correlation pass, dud rows included, is identical
//! by target for every K, and identical to the classic single-simulator
//! path. Row order is each shard's probe shuffle, so the suites compare
//! with `analysis::diff`.

use inetgen::{CountrySelection, GenConfig};
use scanner::{ClassifierConfig, OdnsClass};

#[test]
fn shard_counts_match_single_simulator_path() {
    let config = GenConfig::test_small();
    let mut internet = inetgen::generate(&config);
    let single = analysis::run_census(&mut internet, &ClassifierConfig::default());
    assert!(
        single.count(OdnsClass::TransparentForwarder) > 0,
        "world must contain transparent forwarders"
    );
    assert!(
        single.rows.len() > internet.truth.hosts.len(),
        "world must contain duds"
    );

    for k in [1u32, 2, 8] {
        let sharded = analysis::run_census_sharded(&config, k, &ClassifierConfig::default());
        let delta = analysis::diff(&single, &sharded);
        assert!(delta.is_empty(), "census diverged at K={k}: {delta}");
    }
}

#[test]
fn sharding_preserves_per_country_attribution() {
    // The merged geo database must attribute every row to the same
    // country and ASN the single path does.
    let config = GenConfig {
        countries: CountrySelection::Codes(vec!["BRA", "TUR", "MUS", "FSM", "AFG"]),
        scale: 2_500,
        dud_fraction: 0.05,
        ..GenConfig::default()
    };
    let mut internet = inetgen::generate(&config);
    let single = analysis::run_census(&mut internet, &ClassifierConfig::default());
    let sharded = analysis::run_census_sharded(&config, 3, &ClassifierConfig::default());
    let delta = analysis::diff(&single, &sharded);
    assert!(delta.is_empty(), "K=3: {delta}");
}
