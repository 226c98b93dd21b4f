//! Property tests over the whole pipeline: the recovery guarantee must
//! hold for *any* seed, not just the default — the measurement method is
//! what's validated, not one lucky world.

use inetgen::{generate, CountrySelection, GenConfig, PlantedClass};
use proptest::prelude::*;
use scanner::{ClassifierConfig, OdnsClass};

fn tiny_config(seed: u64) -> GenConfig {
    GenConfig {
        seed,
        countries: CountrySelection::Codes(vec!["BRA", "TUR", "MUS"]),
        scale: 2_500,
        dud_fraction: 0.05,
        ..GenConfig::default()
    }
}

proptest! {
    // End-to-end worlds are expensive; a handful of seeds is plenty to
    // catch seed-dependent logic errors.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn census_recovery_holds_for_any_seed(seed in any::<u64>()) {
        let config = tiny_config(seed);
        let mut internet = generate(&config);
        let planted_t = internet.truth.count(PlantedClass::TransparentForwarder);
        let planted_r = internet.truth.count(PlantedClass::RecursiveForwarder);
        let planted_v = internet.truth.count(PlantedClass::RecursiveResolver);

        let census = analysis::run_census(&mut internet, &ClassifierConfig::default());
        prop_assert_eq!(census.count(OdnsClass::TransparentForwarder), planted_t);
        prop_assert_eq!(census.count(OdnsClass::RecursiveForwarder), planted_r);
        prop_assert_eq!(census.count(OdnsClass::RecursiveResolver), planted_v);
    }

    #[test]
    fn dnsroute_locates_every_discovered_forwarder(seed in any::<u64>()) {
        let config = tiny_config(seed);
        let mut internet = generate(&config);
        let census = analysis::run_census(&mut internet, &ClassifierConfig::default());
        let targets = census.transparent_targets();
        if targets.is_empty() {
            return Ok(());
        }
        let traces = dnsroute::run_dnsroute(
            &mut internet.sim,
            internet.fixtures.scanner,
            dnsroute::DnsRouteConfig::new(targets.clone()),
        );
        let (paths, stats) = dnsroute::sanitize(&traces);
        prop_assert_eq!(stats.kept, targets.len(), "every forwarder must yield a clean path");
        for p in &paths {
            prop_assert!(p.hop_count >= 2, "{}: a relay implies at least 2 hops", p.forwarder);
            prop_assert!(p.hop_count <= 25);
        }
    }

    #[test]
    fn capture_reconstruction_is_lossless(seed in any::<u64>()) {
        // For any seed and shard count: each shard's pcap capture alone
        // reconstructs that shard's record streams, correlated outcome
        // and census part exactly, and the merged capture-derived census
        // equals the production sharded census row for row.
        let config = tiny_config(seed);
        let k = [1u32, 2, 4][(seed % 3) as usize];
        let run = inetgen::run_sharded(&config, k, |spec, world| {
            let node = world.fixtures.scanner;
            world.sim.tap(node);
            let (probes, responses, _retries) = scanner::run_scan_raw(
                &mut world.sim,
                node,
                scanner::ScanConfig::new(world.targets.clone()),
            );
            let capture = world.sim.take_capture(node).expect("tapped");
            (spec.index, probes, responses, capture)
        });

        let classifier = ClassifierConfig::default();
        let mut captures = Vec::new();
        for (shard, probes, responses, capture) in run.outputs {
            let (rebuilt_probes, rebuilt_responses) =
                analysis::streams_from_pcap(&capture).expect("capture parses");
            prop_assert_eq!(&rebuilt_probes, &probes, "shard {} probes", shard);
            prop_assert_eq!(&rebuilt_responses, &responses, "shard {} responses", shard);
            let live = scanner::correlate_owned(
                probes,
                responses,
                scanner::ScanConfig::DEFAULT_TIMEOUT,
            );
            let rebuilt = analysis::outcome_from_pcap(
                &capture,
                scanner::ScanConfig::DEFAULT_TIMEOUT,
            ).expect("capture parses");
            prop_assert_eq!(&rebuilt, &live, "shard {} correlation", shard);
            let live_part = analysis::Census::from_outcome(&live, &run.geo, &classifier);
            let capture_part =
                analysis::census_from_captures(&[(shard, &capture)], &run.geo, &classifier)
                    .expect("capture parses");
            prop_assert_eq!(&capture_part, &live_part, "shard {} census part", shard);
            captures.push((shard, capture));
        }

        let live_census = analysis::run_census_sharded(&config, k, &classifier);
        let capture_census = analysis::census_from_captures(&captures, &run.geo, &classifier)
            .expect("captures parse");
        prop_assert_eq!(&capture_census, &live_census, "K={} census", k);
        prop_assert!(capture_census.odns_total() > 0, "world must answer");
    }

    #[test]
    fn duplication_never_double_counts(seed in any::<u64>()) {
        // Wire duplication (no loss, no corruption) must be invisible in
        // every tally that counts *things*, not packets: census rows stay
        // exactly the planted set, every duplicate correlates to its probe
        // and is discarded as a late answer, and the attack matrix keeps
        // its spend and attribution — duplicates may only add wire bytes
        // on the victim side, which is faithful accounting, not a bug.
        let duplication = netsim::FaultConfig {
            drop_probability: 0.0,
            duplicate_probability: 0.5,
            corrupt_probability: 0.0,
            max_jitter: netsim::SimDuration::from_millis(5),
        };

        let mut config = tiny_config(seed);
        config.faults = netsim::FaultPlan::uniform(duplication);
        let mut internet = generate(&config);
        let planted_t = internet.truth.count(PlantedClass::TransparentForwarder);
        let planted_r = internet.truth.count(PlantedClass::RecursiveForwarder);
        let planted_v = internet.truth.count(PlantedClass::RecursiveResolver);
        let census = analysis::run_census(&mut internet, &ClassifierConfig::default());
        prop_assert_eq!(census.count(OdnsClass::TransparentForwarder), planted_t);
        prop_assert_eq!(census.count(OdnsClass::RecursiveForwarder), planted_r);
        prop_assert_eq!(census.count(OdnsClass::RecursiveResolver), planted_v);
        prop_assert_eq!(census.unmatched_responses, 0, "every copy still matches its probe");
        prop_assert!(census.late_answers_discarded > 0, "the copies were seen and discarded");

        // Attack matrix: same world with and without duplication.
        let attack_world = |faults: netsim::FaultPlan| GenConfig {
            seed,
            countries: CountrySelection::Codes(vec!["BRA", "MUS"]),
            scale: 1_000,
            dud_fraction: 0.0,
            faults,
            ..GenConfig::default()
        };
        let clean = analysis::attack_sweep::run_attacks_sharded(
            &attack_world(netsim::FaultPlan::none()), 2);
        let dup = analysis::attack_sweep::run_attacks_sharded(
            &attack_world(netsim::FaultPlan::uniform(duplication)), 2);
        prop_assert_eq!(
            clean.cells.keys().collect::<Vec<_>>(),
            dup.cells.keys().collect::<Vec<_>>()
        );
        for (key, clean_cell) in &clean.cells {
            let dup_cell = &dup.cells[key];
            prop_assert_eq!(
                dup_cell.queries, clean_cell.queries,
                "{:?}: attacker spend is counted at send time, never per copy", key
            );
            prop_assert_eq!(dup_cell.bytes_sent, clean_cell.bytes_sent, "{:?}", key);
            prop_assert_eq!(
                &dup_cell.sources, &clean_cell.sources,
                "{:?}: duplication must not invent reflector addresses", key
            );
            prop_assert!(
                dup_cell.responses >= clean_cell.responses,
                "{:?}: copies only ever add victim-side packets", key
            );
        }
        prop_assert_eq!(dup.sensors.attack_queries, clean.sensors.attack_queries);
    }

    #[test]
    fn geo_database_is_consistent_with_truth(seed in any::<u64>()) {
        let config = tiny_config(seed);
        let internet = generate(&config);
        for h in internet.truth.hosts.iter().take(500) {
            if let Some(asn) = internet.geo.asn_of(h.ip) {
                prop_assert_eq!(asn, h.asn);
                prop_assert_eq!(internet.geo.country_of_asn(asn), Some(h.country));
            }
        }
    }
}
