//! Shard-count invariance of the §6 attack experiment engine — the
//! mirror of `sharded_campaign_determinism.rs` for the adversarial suite.
//!
//! Contract: partitioning the synthetic Internet into K shard worlds
//! changes wall-clock behavior only. The merged [`AttackMatrix`] — every
//! per-(vector, component) amplification cell, byte for byte, source set
//! for source set, and the sensor-efficacy row including the 5-minute /24
//! limiter's shed totals — is identical for K ∈ {1, 2, 8}, and repeated
//! runs over a warm [`ShardWorldCache`] reproduce it bit-identically.

use analysis::run_attacks_sharded;
use inetgen::{CountrySelection, GenConfig, ShardWorldCache};
use scanner::AttackVector;
use scanner::OdnsClass;

fn test_config() -> GenConfig {
    GenConfig {
        countries: CountrySelection::Codes(vec!["BRA", "TUR", "MUS", "FSM"]),
        scale: 2_500,
        dud_fraction: 0.05,
        ..GenConfig::default()
    }
}

#[test]
fn attack_matrix_invariant_across_shard_counts() {
    let config = test_config();
    let baseline = run_attacks_sharded(&config, 1);

    // Semantic floor before comparing partitions: every reflection pass
    // fired, got answers, and amplified — the §6 claim itself.
    assert_eq!(baseline.cells.len(), 9, "3 vectors × 3 component classes");
    for ((vector, class), cell) in &baseline.cells {
        assert!(cell.queries > 0, "{vector}/{class:?}: no queries sent");
        assert!(
            cell.responses > 0,
            "{vector}/{class:?}: nothing reached the victim"
        );
        assert!(
            cell.amplification() > 1.0,
            "{vector}/{class:?}: factor {:.2} — responses must outweigh queries",
            cell.amplification()
        );
        assert!(!cell.sources.is_empty());
    }
    // The EDNS vector costs more per query and buys nothing from this zoo
    // (the simulated servers answer within 512 bytes regardless), so its
    // factor is strictly below plain ANY for the same component class.
    for class in OdnsClass::all() {
        let any = baseline.cell(AttackVector::Any, class).unwrap();
        let edns = baseline.cell(AttackVector::EdnsAny, class).unwrap();
        assert!(edns.bytes_sent > any.bytes_sent, "{class:?}: OPT overhead");
        assert!(edns.amplification() < any.amplification());
    }
    // The limiter-efficacy row: 25 flood cycles over the three sensor
    // addresses inside one 5-minute window — each sensor instance answers
    // exactly once for the victim /24 and sheds everything else.
    let s = &baseline.sensors;
    assert_eq!(s.attack_queries, 25 * 3);
    assert_eq!(s.queries, s.attack_queries, "every flood query arrived");
    assert_eq!(s.answered, 2, "one answer per sensor instance");
    assert_eq!(s.rate_limited, s.queries - 2);
    assert_eq!(s.victim.packets, 2, "the limiter caps the reflected volume");

    for k in [2u32, 8] {
        let sweep = run_attacks_sharded(&config, k);
        assert_eq!(sweep, baseline, "AttackMatrix diverged at K={k}");
    }
}

#[test]
fn warm_cache_reruns_are_bit_identical() {
    let config = test_config();
    let fresh = run_attacks_sharded(&config, 2);

    let mut cache = ShardWorldCache::new(config);
    let first = run_attacks_sharded(&mut cache, 2);
    let second = run_attacks_sharded(&mut cache, 2);
    assert_eq!(first, fresh, "cold cache run must match the fresh driver");
    assert_eq!(
        second, fresh,
        "warm reuse must reset attacker, meter, and limiter state exactly"
    );
}
