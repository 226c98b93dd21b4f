//! Shard-count invariance of the census.
//!
//! The sharded engine's contract: partitioning the synthetic Internet
//! into K shards changes wall-clock behavior only — the census coming out
//! of the merged offline correlation pass, dud rows included, is identical
//! by target for every K, and identical to the classic single-simulator
//! path. Row order is each shard's probe shuffle, so the suites compare
//! with `analysis::diff`.

use inetgen::{CountrySelection, GenConfig, ShardSpec};
use scanner::{ClassifierConfig, OdnsClass, ScanConfig};
use std::collections::BTreeMap;

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
    // One shard is the single-world census.
    let base = transparent_forwarders::quick_census_sharded(2_000, 1);
    for k in [2u32, 8] {
        assert_eq!(
            transparent_forwarders::quick_census_sharded(2_000, k),
            base,
            "K={k}"
        );
    }
}

#[test]
fn clean_wire_identity_does_not_depend_on_k() {
    // A probe's `(src_port, txid)` is its target's, not its shard's or its
    // place in the shuffle: the clean world sends each target the same
    // tuple at K=1 and at K=8.
    let config = GenConfig::test_small();
    let tuples = |k| {
        let run = inetgen::run_sharded(&config, k, |_, world| {
            let scan = ScanConfig::new(world.targets.clone());
            let (probes, _, _) =
                scanner::run_scan_raw(&mut world.sim, world.fixtures.scanner, scan);
            probes
        });
        run.outputs
            .into_iter()
            .flatten()
            .map(|p| (p.target, (p.src_port, p.txid)))
            .collect::<BTreeMap<_, _>>()
    };
    let solo = tuples(1);
    assert_eq!(solo.len(), inetgen::generate(&config).targets.len());
    let sharded = tuples(8);
    let moved = solo
        .iter()
        .filter(|(target, tuple)| sharded.get(target) != Some(tuple))
        .count();
    assert_eq!(
        (sharded.len(), moved),
        (solo.len(), 0),
        "(targets, targets whose tuple moved) at K=8"
    );
}
