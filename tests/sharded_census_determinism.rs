//! Shard-count invariance of the census.
//!
//! The sharded engine's contract: partitioning the synthetic Internet
//! into K shards changes wall-clock behavior only — the census coming out
//! of the merged offline correlation pass, dud rows included, is identical
//! for every K, and identical to the classic single-simulator path.

use inetgen::{CountrySelection, GenConfig, ShardSpec};
use scanner::{ClassifierConfig, OdnsClass};

/// The census with its rows in target order: per-shard probe order is
/// partition-specific, the rows themselves are not.
fn sorted(mut census: analysis::Census) -> analysis::Census {
    census.rows.sort_by_key(|r| r.target);
    census
}

#[test]
fn shard_counts_match_single_simulator_path() {
    let config = GenConfig::test_small();
    let mut internet = inetgen::generate(&config);
    let single = sorted(analysis::run_census(
        &mut internet,
        &ClassifierConfig::default(),
    ));
    assert!(
        single.count(OdnsClass::TransparentForwarder) > 0,
        "world must contain transparent forwarders"
    );
    assert!(
        single.rows.len() > internet.truth.hosts.len(),
        "world must contain duds"
    );

    for k in [1u32, 2, 8] {
        let sharded = sorted(analysis::run_census_sharded(
            &config,
            k,
            &ClassifierConfig::default(),
        ));
        assert!(
            sharded == single,
            "census diverged at K={k}: {} rows vs {} on the single path",
            sharded.rows.len(),
            single.rows.len()
        );
    }
}

#[test]
fn sharding_preserves_per_country_attribution() {
    // Beyond global counts: the merged geo database must attribute every
    // classified row to the same country the single path does.
    let config = GenConfig {
        countries: CountrySelection::Codes(vec!["BRA", "TUR", "MUS", "FSM", "AFG"]),
        scale: 2_500,
        dud_fraction: 0.05,
        ..GenConfig::default()
    };
    let mut internet = inetgen::generate(&config);
    let single = analysis::run_census(&mut internet, &ClassifierConfig::default());
    let sharded = analysis::run_census_sharded(&config, 3, &ClassifierConfig::default());

    let per_country = |census: &analysis::Census| -> std::collections::BTreeMap<&str, usize> {
        let mut m = std::collections::BTreeMap::new();
        for row in census.of_class(OdnsClass::TransparentForwarder) {
            *m.entry(row.country.unwrap_or("?")).or_insert(0) += 1;
        }
        m
    };
    assert_eq!(per_country(&single), per_country(&sharded));
}

#[test]
fn shard_worlds_probe_disjoint_population_targets() {
    // The partition really is disjoint: no planted address appears in two
    // shards, and the union covers the unsharded world exactly.
    let config = GenConfig::test_small();
    let mut seen = std::collections::HashSet::new();
    for i in 0..4 {
        for host in &inetgen::generate_shard(&config, ShardSpec::new(i, 4))
            .truth
            .hosts
        {
            assert!(
                seen.insert(host.ip),
                "address {} planted in two shards",
                host.ip
            );
        }
    }
    let solo = inetgen::generate(&config);
    let solo_ips: std::collections::HashSet<_> = solo.truth.hosts.iter().map(|h| h.ip).collect();
    assert_eq!(
        seen, solo_ips,
        "shard union must equal the unsharded population"
    );
    // Nor is any scan target, duds included, probed by two shards, and
    // the shards together probe exactly what the solo world probes — in
    // the test world and in a dud-heavy one shaped like the benchmark's.
    let dud_heavy = GenConfig {
        seed: 7,
        scale: 1_000,
        dud_fraction: 4.0,
        ..GenConfig::default()
    };
    for config in [config, dud_heavy] {
        let mut solo = inetgen::generate(&config).targets;
        solo.sort();
        for k in [2, 8] {
            let mut union = Vec::new();
            for i in 0..k {
                union.extend(inetgen::generate_shard(&config, ShardSpec::new(i, k)).targets);
            }
            union.sort();
            assert!(
                union.windows(2).all(|w| w[0] != w[1]),
                "K={k}: a target is probed by two shards"
            );
            assert!(
                union == solo,
                "K={k}: shard targets differ from the solo world's"
            );
        }
    }
}

#[test]
fn quick_census_sharded_matches_quick_census() {
    let base = transparent_forwarders::quick_census(2_000);
    for k in [1u32, 2, 8] {
        assert_eq!(
            transparent_forwarders::quick_census_sharded(2_000, k),
            base,
            "K={k}"
        );
    }
}
