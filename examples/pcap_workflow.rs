//! The artifact-faithful workflow (§A.2): `dns-scan-server` captures the
//! complete scan traffic as a pcap; `dns-measurement-analysis` later
//! rebuilds transactions from the capture alone and classifies them. This
//! example runs both halves and shows they agree — then writes the pcap
//! and the census CSV next to the binary for inspection with real tools
//! (wireshark/tshark open the capture directly).
//!
//! ```sh
//! cargo run --release --example pcap_workflow
//! ```

use netsim::SimDuration;
use scanner::{ClassifierConfig, ScanConfig};

fn main() {
    println!("== pcap-driven measurement workflow ==\n");
    let config = inetgen::GenConfig {
        countries: inetgen::CountrySelection::Codes(vec!["BRA", "TUR", "MUS"]),
        scale: 1_000,
        ..inetgen::GenConfig::default()
    };
    let mut internet = inetgen::generate(&config);
    let scanner_node = internet.fixtures.scanner;

    println!("phase 1 — dns-scan-server: scan with dumpcap-style capture...");
    internet.sim.tap(scanner_node);
    let live_outcome = scanner::run_scan(
        &mut internet.sim,
        scanner_node,
        ScanConfig::new(internet.targets.clone()),
    );
    let pcap = internet
        .sim
        .take_capture(scanner_node)
        .expect("capture enabled");
    println!(
        "  captured {} bytes of raw IPv4 frames ({} probes sent)",
        pcap.len(),
        live_outcome.transactions.len()
    );

    println!("\nphase 2 — dns-measurement-analysis: offline, from the capture only...");
    let rebuilt =
        analysis::outcome_from_pcap(&pcap, SimDuration::from_secs(20)).expect("capture parses");
    let census = analysis::Census::from_transactions(
        &rebuilt.transactions,
        &internet.geo,
        &ClassifierConfig::default(),
    );
    println!("{}", analysis::report::table1(&census).render());

    // Cross-check: the offline pipeline agrees with the live scanner.
    let live_census = analysis::Census::from_transactions(
        &live_outcome.transactions,
        &internet.geo,
        &ClassifierConfig::default(),
    );
    let delta = analysis::diff(&live_census, &census);
    assert!(census == live_census, "offline != live: {delta}");
    println!("offline == live, row for row \u{2713}");

    // Persist the artifacts.
    let out_dir = std::env::temp_dir().join("transparent-forwarders");
    std::fs::create_dir_all(&out_dir).expect("temp dir");
    let pcap_path = out_dir.join("scan.pcap");
    let csv_path = out_dir.join("census.csv");
    std::fs::write(&pcap_path, &pcap).expect("write pcap");
    std::fs::write(&csv_path, census.to_csv()).expect("write csv");
    println!("\nartifacts written:");
    println!(
        "  {} (opens in wireshark/tshark: LINKTYPE_RAW IPv4)",
        pcap_path.display()
    );
    println!(
        "  {} ({} dataframe rows)",
        csv_path.display(),
        census.rows.len()
    );
}
