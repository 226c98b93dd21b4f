//! Shard-count invariance of the campaign & sensor experiment engine —
//! the mirror of `sharded_dnsroute_determinism.rs` for the §3 controlled
//! experiment and the campaign emulations.
//!
//! Contract: partitioning the synthetic Internet into K shard worlds
//! changes wall-clock behavior only. The Table 3 campaign × sensor
//! detection matrix, the Table 5 per-campaign ODNS component counts, the
//! merged census, and the merged sensor counters (including the 5-minute
//! /24 rate limiter's shed totals) are identical for every K — K = 1 is
//! bit-identical (timestamps and pcap captures included) to the unsharded
//! scan-then-campaigns composition — and everything is reproducible from
//! the per-shard captures alone.

use analysis::campaign_sweep::{
    collect_sensor_totals, install_sensors, sensor_targets, DetectionMatrix, CAMPAIGN_EPOCH,
};
use inetgen::{CountrySelection, GenConfig, ShardSpec};
use netsim::SimDuration;
use scanner::{
    run_campaign_delayed, Campaign, CampaignConfig, ClassifierConfig, OdnsClass, ScanConfig,
    SensorStats,
};

fn test_config() -> GenConfig {
    GenConfig {
        countries: CountrySelection::Codes(vec!["BRA", "TUR", "MUS", "FSM"]),
        scale: 2_500,
        dud_fraction: 0.05,
        ..GenConfig::default()
    }
}

fn census_counts(census: &analysis::Census) -> (usize, usize, usize, usize) {
    (
        census.odns_total(),
        census.count(OdnsClass::TransparentForwarder),
        census.count(OdnsClass::RecursiveForwarder),
        census.count(OdnsClass::RecursiveResolver),
    )
}

#[test]
fn k1_bit_identical_to_unsharded_campaign_sensor_path() {
    let config = test_config();
    let classifier = ClassifierConfig::default();

    // The unsharded composition, from primitives: generate → deploy
    // sensors → tapped transactional scan → three tapped, epoch-spaced
    // campaign passes over targets + sensor addresses.
    let mut internet = inetgen::generate(&config);
    install_sensors(&mut internet);
    let addrs = internet.fixtures.sensor_addrs;
    let scanner_node = internet.fixtures.scanner;
    internet.sim.tap(scanner_node);
    let (probes, responses, _retries) = scanner::run_scan_raw(
        &mut internet.sim,
        scanner_node,
        ScanConfig::new(internet.targets.clone()),
    );
    let scan_capture = internet.sim.take_capture(scanner_node).unwrap();
    let outcome = scanner::correlate_owned(probes, responses, ScanConfig::DEFAULT_TIMEOUT);
    let census = analysis::Census::from_outcome(&outcome, &internet.geo, &classifier);

    let mut targets = internet.targets.clone();
    targets.extend(sensor_targets(ShardSpec::solo(), addrs));
    let mut reports = Vec::new();
    let mut campaign_captures = Vec::new();
    for (i, campaign) in Campaign::all().into_iter().enumerate() {
        let node = internet.fixtures.campaign_scanners[i];
        internet.sim.tap(node);
        let delay = if i == 0 {
            SimDuration::ZERO
        } else {
            CAMPAIGN_EPOCH
        };
        let report = run_campaign_delayed(
            &mut internet.sim,
            node,
            CampaignConfig::new(campaign, targets.clone()),
            delay,
        );
        let capture = internet.sim.take_capture(node).unwrap();
        reports.push((campaign, report));
        campaign_captures.push((campaign, capture));
    }
    let sensors = collect_sensor_totals(&internet.sim, &internet.fixtures);

    // K = 1 must be the same event sequence, not merely the same
    // aggregates: census rows, reports, counters, and raw capture bytes
    // (timestamps included) all match.
    let sweep = analysis::run_campaign_sharded(&config, 1, &classifier);
    assert_eq!(sweep.census, census);
    assert_eq!(sweep.reports, reports);
    assert_eq!(sweep.sensors, sensors);
    assert_eq!(sweep.matrix, DetectionMatrix::from_reports(&reports, addrs));
    assert_eq!(sweep.captures.len(), 1);
    assert_eq!(sweep.captures[0].scan, scan_capture);
    assert_eq!(sweep.captures[0].campaigns, campaign_captures);
}

#[test]
fn table3_and_table5_invariant_across_shard_counts() {
    let config = test_config();
    let classifier = ClassifierConfig::default();
    let baseline = analysis::run_campaign_sharded(&config, 1, &classifier);

    assert_eq!(
        baseline.matrix,
        DetectionMatrix::paper_expected(),
        "Table 3 must come out of the merged reports:\n{}",
        baseline.matrix.render().render()
    );
    let base_counts = baseline.component_counts();
    assert!(
        base_counts.iter().all(|(_, n)| *n > 0),
        "every campaign reports components: {base_counts:?}"
    );
    // Shadowserver counts responders Censys/Shodan sanitize away, and the
    // strict census sees what no campaign does; the per-country join is
    // the Table 5 material.
    let shadow_by_country = baseline.country_counts(Campaign::Shadowserver);
    assert!(!shadow_by_country.is_empty());
    assert!(!baseline.table5(10).render().is_empty());

    for k in [2u32, 8] {
        let sweep = analysis::run_campaign_sharded(&config, k, &classifier);
        assert_eq!(
            census_counts(&sweep.census),
            census_counts(&baseline.census),
            "census counts diverged at K={k}"
        );
        assert_eq!(sweep.matrix, baseline.matrix, "Table 3 diverged at K={k}");
        assert_eq!(
            sweep.component_counts(),
            base_counts,
            "Table 5 component counts diverged at K={k}"
        );
        for campaign in Campaign::all() {
            assert_eq!(
                sweep.country_counts(campaign),
                baseline.country_counts(campaign),
                "{campaign}: per-country counts diverged at K={k}"
            );
        }
        assert_eq!(sweep.reports, baseline.reports, "reports diverged at K={k}");
        // The satellite regression: merged sensor counters — above all the
        // 5-minute /24 limiter's shed totals — must not depend on the
        // partition. One shed per campaign (sensor 2 receives the IP2 and
        // IP3 probes 50 µs apart from the same scanner /24), three
        // campaigns, whatever K.
        assert_eq!(sweep.sensors, baseline.sensors, "sensor stats at K={k}");
        assert_eq!(sweep.sensors.sensor2.rate_limited, 3);
        assert_eq!(sweep.sensors.rate_limited(), 3);
    }
}

#[test]
fn capture_driven_pipeline_reproduces_live_results() {
    let config = test_config();
    let classifier = ClassifierConfig::default();
    for k in [1u32, 2, 4] {
        let sweep = analysis::run_campaign_sharded(&config, k, &classifier);

        // The per-shard scan captures alone rebuild the census, row for
        // row — counters included.
        let census = sweep.capture_census(&classifier).expect("captures parse");
        assert_eq!(census, sweep.census, "K={k}");
        assert!(census.odns_total() > 0);

        // Replaying every campaign capture through the campaign's own
        // processing rules rebuilds the published reports.
        let reports = sweep.capture_reports().expect("captures parse");
        assert_eq!(reports, sweep.reports, "K={k}");

        // The joined capture is one valid, openable pcap stream.
        let merged = sweep.merged_capture().expect("captures merge");
        let records = netsim::pcap::read_pcap(&merged).unwrap();
        assert!(
            records.len() > sweep.census.rows.len(),
            "probes + responses"
        );
    }
}

#[test]
fn sensor_experiment_invariant_and_capture_driven() {
    let config = GenConfig {
        countries: CountrySelection::Codes(vec!["FSM"]),
        scale: 2_000,
        dud_fraction: 0.0,
        ..GenConfig::default()
    };
    let classifier = ClassifierConfig::default();
    let baseline = analysis::run_campaign_sharded(&config, 1, &classifier);
    assert_eq!(baseline.matrix, DetectionMatrix::paper_expected());
    let expected_sensors = analysis::SensorTotals {
        sensor1: SensorStats {
            queries: 3,
            rate_limited: 0,
            upstream: 3,
            answered: 3,
        },
        // Sensor 2 owns IP2 and IP3: the IP3 probe lands 50 µs after the
        // IP2 probe from the same /24 and is shed — once per campaign.
        sensor2: SensorStats {
            queries: 6,
            rate_limited: 3,
            upstream: 3,
            answered: 3,
        },
        sensor3: SensorStats {
            queries: 3,
            rate_limited: 0,
            upstream: 3,
            answered: 0,
        },
        relayed: 3,
    };
    assert_eq!(baseline.sensors, expected_sensors);

    for k in [1u32, 2, 8] {
        let sweep = analysis::run_campaign_sharded(&config, k, &classifier);
        assert_eq!(sweep.matrix, baseline.matrix, "Table 3 diverged at K={k}");
        assert_eq!(
            sweep.sensors, expected_sensors,
            "merged sensor counters diverged at K={k}"
        );
        assert_eq!(sweep.sensors.sensor2.rate_limited, 3);
        assert_eq!(sweep.reports, baseline.reports);
        // Capture-driven: the reports, and with them the matrix, are
        // reproducible from the campaign taps alone.
        assert_eq!(
            sweep.capture_reports().expect("captures parse"),
            sweep.reports
        );
    }
}
