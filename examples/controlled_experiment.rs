//! The §3 controlled experiment: deploy the three honeypot sensors, let
//! the three scanning campaigns probe them, and print the Table 3
//! detection matrix.
//!
//! ```sh
//! cargo run --release --example controlled_experiment
//! ```

use analysis::DetectionMatrix;
use inetgen::{CountrySelection, GenConfig};
use scanner::{run_campaign, Campaign, CampaignConfig};

fn main() {
    println!("== Controlled experiment: do popular campaigns see our sensors? ==\n");

    let mut reports = Vec::new();
    let mut addrs = None;
    for campaign in Campaign::all() {
        // Fresh world per campaign so sensor rate limiting doesn't couple
        // the campaigns (the paper runs them over separate weeks).
        let config = GenConfig {
            countries: CountrySelection::Codes(vec!["FSM"]),
            scale: 2_000,
            dud_fraction: 0.0,
            ..GenConfig::default()
        };
        let mut internet = inetgen::generate(&config);
        let a = internet.fixtures.sensor_addrs;
        analysis::install_sensors(&mut internet);

        let report = run_campaign(
            &mut internet.sim,
            internet.fixtures.campaign_scanners[0],
            CampaignConfig::new(campaign, vec![a.ip1, a.ip2, a.ip3, a.ip4]),
        );
        println!(
            "{campaign}: probed 4 sensor addresses, reported {:?} (sanitized out: {})",
            report.odns, report.sanitized_out
        );
        reports.push((campaign, report));
        addrs = Some(a);
    }
    let matrix = DetectionMatrix::from_reports(&reports, addrs.expect("three campaigns ran"));

    println!("\nTable 3 — Detection of our DNS sensors by popular scans:");
    println!("  Sensor 1 = recursive resolver (IP1)");
    println!("  Sensor 2 = interior transparent forwarder (receives IP2, replies IP3)");
    println!("  Sensor 3 = exterior transparent forwarder (IP4, answers come from Google)\n");
    println!("{}", matrix.render().render());
    assert_eq!(
        matrix,
        DetectionMatrix::paper_expected(),
        "the paper's matrix must reproduce"
    );
    println!(
        "All three campaigns find the baseline resolver; none identifies a\n\
         forwarder's probed address. Shadowserver reports Sensor 2's *reply*\n\
         address (stateless, response-based processing); Censys and Shodan\n\
         sanitize the mismatched source away. Sensor 3 is invisible to all —\n\
         exactly the paper's Table 3."
    );
}
