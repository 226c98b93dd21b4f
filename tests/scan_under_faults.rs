//! Failure injection: the measurement pipeline under packet loss,
//! duplication, and jitter. Loss costs coverage (probes or answers die)
//! but must never cause *misclassification* — the paper's correlation
//! design (unique port/TXID tuples, conservative timeout) guarantees it.

use inetgen::{generate, CountrySelection, GenConfig, PlantedClass, ShardWorldCache};
use netsim::{FaultConfig, FaultPlan, SimDuration};
use scanner::{ClassifierConfig, OdnsClass};
use std::collections::HashMap;

fn world(seed: u64) -> inetgen::Internet {
    let config = GenConfig {
        countries: CountrySelection::Codes(vec!["BRA", "TUR", "DEU"]),
        scale: 2_000,
        dud_fraction: 0.0,
        seed,
        ..GenConfig::default()
    };
    generate(&config)
}

#[test]
fn lossy_network_degrades_coverage_not_correctness() {
    let mut internet = world(11);
    // Degrade the generated world's clean network: 10 % loss, duplication,
    // jitter. `set_faults` installs the plan as given, under salt 0.
    let truth: HashMap<std::net::Ipv4Addr, PlantedClass> = internet
        .truth
        .hosts
        .iter()
        .map(|h| (h.ip, h.class))
        .collect();

    // Directly run the scan with fault injection enabled in the simulator.
    internet.sim.set_faults(FaultConfig {
        drop_probability: 0.10,
        duplicate_probability: 0.05,
        corrupt_probability: 0.02,
        max_jitter: SimDuration::from_millis(30),
    });
    let census = analysis::run_census(&mut internet, &ClassifierConfig::default());

    let planted = truth
        .values()
        .filter(|c| **c == PlantedClass::TransparentForwarder)
        .count();
    let found = census.count(OdnsClass::TransparentForwarder);
    assert!(found > 0, "some transparent forwarders survive the loss");
    assert!(found <= planted, "loss can only reduce the count");
    let coverage = found as f64 / planted as f64;
    // Per-flow fate compounds over the forwarder chain (probe, relay,
    // recursion, answer are separate flows), so 10 % per-hop loss costs
    // roughly 1 - 0.9^hops of the transparent forwarders — harsh, but it
    // must never obliterate coverage.
    assert!(
        coverage > 0.4,
        "10 % per-hop loss degraded coverage too far: {coverage:.2} ({found}/{planted})"
    );

    // Zero misclassifications among the classified.
    for row in &census.rows {
        let Some(class) = row.class() else { continue };
        let expected = match truth.get(&row.target) {
            Some(PlantedClass::TransparentForwarder) => OdnsClass::TransparentForwarder,
            Some(PlantedClass::RecursiveForwarder) => OdnsClass::RecursiveForwarder,
            Some(PlantedClass::RecursiveResolver) => OdnsClass::RecursiveResolver,
            Some(PlantedClass::ManipulatedForwarder) => {
                panic!("{}: manipulated host must never classify", row.target)
            }
            None => panic!("{}: classified but not planted", row.target),
        };
        assert_eq!(class, expected, "{} misclassified under faults", row.target);
    }

    // Duplicated responses are deduplicated, not double-counted.
    let class_total = census.odns_total();
    assert!(class_total <= truth.len());
}

#[test]
fn duplicates_never_inflate_counts() {
    let mut internet = world(13);
    internet.sim.set_faults(FaultConfig {
        drop_probability: 0.0,
        duplicate_probability: 0.5, // half of all packets duplicated
        corrupt_probability: 0.0,
        max_jitter: SimDuration::from_millis(5),
    });
    let planted_odns = internet
        .truth
        .hosts
        .iter()
        .filter(|h| h.class != PlantedClass::ManipulatedForwarder)
        .count();
    let census = analysis::run_census(&mut internet, &ClassifierConfig::default());
    assert_eq!(
        census.odns_total(),
        planted_odns,
        "duplication must not create phantom ODNS components"
    );
    assert!(
        census.late_answers_discarded > 0,
        "duplicates are deduplicated as late answers"
    );
    assert_eq!(
        census.unmatched_responses, 0,
        "every duplicate still matches a probe tuple"
    );
}

#[test]
fn corruption_discards_but_never_misleads() {
    // Single-bit corruption in transit is always caught by the Internet
    // checksum, so it manifests as loss — never as a forged transaction.
    // (A bit flip *delivered* into the DNS TXID would misattribute the
    // response to a different probe and fabricate a phantom transparent
    // forwarder; the checksum is what makes the correlation trustworthy.)
    let mut internet = world(17);
    internet.sim.set_faults(FaultConfig {
        drop_probability: 0.0,
        duplicate_probability: 0.0,
        corrupt_probability: 0.20, // every fifth packet flips a bit
        max_jitter: SimDuration::ZERO,
    });
    let truth: HashMap<std::net::Ipv4Addr, PlantedClass> = internet
        .truth
        .hosts
        .iter()
        .map(|h| (h.ip, h.class))
        .collect();
    let census = analysis::run_census(&mut internet, &ClassifierConfig::default());

    for row in &census.rows {
        let Some(class) = row.class() else { continue };
        match truth.get(&row.target) {
            Some(PlantedClass::TransparentForwarder) => {
                assert_eq!(class, OdnsClass::TransparentForwarder)
            }
            Some(PlantedClass::RecursiveForwarder) => {
                assert_eq!(class, OdnsClass::RecursiveForwarder)
            }
            Some(PlantedClass::RecursiveResolver) => {
                assert_eq!(class, OdnsClass::RecursiveResolver)
            }
            Some(PlantedClass::ManipulatedForwarder) => {
                panic!("{}: manipulated host classified as {class}", row.target)
            }
            None => panic!("{}: phantom classification", row.target),
        }
    }
    assert!(
        internet.sim.stats().dropped_corrupt > 0,
        "corruption must have been injected"
    );
    // Coverage degrades with loss, which is all corruption can do.
    let planted_odns = truth
        .values()
        .filter(|c| **c != PlantedClass::ManipulatedForwarder)
        .count();
    assert!(
        census.odns_total() < planted_odns,
        "20% corruption must cost coverage"
    );
}

/// The lossy-world determinism contract: a census over worlds generated
/// with a `FaultPlan` in their `GenConfig` is identical by target across
/// shard counts and bit-identical across warm-cache reruns. The plan is
/// salted from the generation seed and probe tuples switch to the
/// target-keyed scheme on faulty worlds, so every flow's fault verdict is
/// a pure function of the world — not of the partition or of event order.
#[test]
fn lossy_census_is_bit_identical_across_shard_counts_and_warm_reruns() {
    let config = GenConfig {
        countries: CountrySelection::Codes(vec!["BRA", "TUR", "MUS"]),
        scale: 2_500,
        dud_fraction: 0.05,
        seed: 23,
        faults: FaultPlan::lossy(0.10),
        ..GenConfig::default()
    };
    let classifier = ClassifierConfig::default();

    let mut solo = generate(&config);
    let baseline = analysis::run_census(&mut solo, &classifier);
    assert!(
        baseline.rows.iter().filter(|r| r.class().is_some()).count()
            < solo
                .truth
                .hosts
                .iter()
                .filter(|h| h.class != PlantedClass::ManipulatedForwarder)
                .count(),
        "10% loss must cost some coverage, or the plan never fired"
    );

    // Whole-census equality by target, duds included: per-shard probe
    // order is partition-specific. The DNSRoute++ and campaign sweeps
    // embed the same census: their in-worker scans take the same
    // fault-aware configuration.
    for k in [1u32, 2, 8] {
        let censuses = [
            analysis::run_census_sharded(&config, k, &classifier),
            analysis::run_dnsroute_sharded(&config, k, &classifier).census,
            analysis::run_campaign_sharded(&config, k, &classifier).census,
        ];
        let whats = ["census", "dnsroute census", "campaign census"];
        for (what, census) in whats.iter().zip(&censuses) {
            let delta = analysis::diff(&baseline, census);
            assert!(delta.is_empty(), "lossy {what} at K={k}: {delta}");
        }
    }

    // Warm-cache rerun: bit-identical to the cold pass.
    let mut cache = ShardWorldCache::new(config);
    let cold = analysis::run_census_sharded(&mut cache, 2, &classifier);
    let warm = analysis::run_census_sharded(&mut cache, 2, &classifier);
    let delta = analysis::diff(&cold, &warm);
    assert!(cold == warm, "warm lossy rerun: {delta}");
    let delta = analysis::diff(&baseline, &cold);
    assert!(delta.is_empty(), "warm-cache census: {delta}");
}
