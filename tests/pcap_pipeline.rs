//! The capture-driven pipeline: like the paper's zmap+dumpcap artifact,
//! the whole analysis must be computable from the scanner's pcap alone —
//! no in-memory scanner state.

use inetgen::{generate, CountrySelection, GenConfig, PlantedClass};
use netsim::SimDuration;
use scanner::{ClassifierConfig, ScanConfig};

#[test]
fn census_from_capture_matches_in_memory_census() {
    let config = GenConfig {
        countries: CountrySelection::Codes(vec!["BRA", "MUS"]),
        scale: 2_000,
        dud_fraction: 0.05,
        ..GenConfig::default()
    };
    let mut internet = generate(&config);
    let scanner_node = internet.fixtures.scanner;

    // Capture everything the scanner sends/receives, dumpcap-style.
    internet.sim.tap(scanner_node);
    let outcome = scanner::run_scan(
        &mut internet.sim,
        scanner_node,
        ScanConfig::new(internet.targets.clone()),
    );
    let pcap = internet
        .sim
        .take_capture(scanner_node)
        .expect("capture enabled");
    assert!(!pcap.is_empty());

    // Rebuild transactions from the capture only.
    let rebuilt = analysis::outcome_from_pcap(&pcap, SimDuration::from_secs(20)).unwrap();
    assert_eq!(rebuilt.transactions.len(), outcome.transactions.len());

    let classifier = ClassifierConfig::default();
    let census_mem =
        analysis::Census::from_transactions(&outcome.transactions, &internet.geo, &classifier);
    let census_pcap =
        analysis::Census::from_transactions(&rebuilt.transactions, &internet.geo, &classifier);

    let delta = analysis::diff(&census_mem, &census_pcap);
    assert!(census_pcap == census_mem, "pcap census != live: {delta}");

    // And both recover the planted truth.
    let planted_transparent = internet.truth.count(PlantedClass::TransparentForwarder);
    assert_eq!(
        census_pcap.count(scanner::OdnsClass::TransparentForwarder),
        planted_transparent
    );
}

#[test]
fn capture_contains_valid_wire_packets_with_checksums() {
    let config = GenConfig {
        countries: CountrySelection::Codes(vec!["FSM"]),
        scale: 2_000,
        dud_fraction: 0.0,
        ..GenConfig::default()
    };
    let mut internet = generate(&config);
    let scanner_node = internet.fixtures.scanner;
    internet.sim.tap(scanner_node);
    let _ = scanner::run_scan(
        &mut internet.sim,
        scanner_node,
        ScanConfig::new(internet.targets.clone()),
    );
    let pcap = internet.sim.take_capture(scanner_node).unwrap();
    let records = netsim::pcap::read_pcap(&pcap).unwrap();
    assert!(!records.is_empty());
    let mut timestamps_sorted = true;
    let mut last = netsim::SimTime::ZERO;
    for rec in &records {
        // Every frame decodes with valid IPv4 + UDP checksums.
        let decoded = netsim::wire::decode(&rec.data).expect("valid wire bytes");
        if let netsim::wire::DecodedPacket::Udp(d) = decoded {
            assert!(!d.payload.is_empty());
        }
        if rec.ts < last {
            timestamps_sorted = false;
        }
        last = rec.ts;
    }
    assert!(timestamps_sorted, "capture timestamps must be monotone");
}
