//! Table 3: the §3 controlled experiment. Three honeypot sensors, three
//! campaign emulations — which campaign discovers which sensor address?
//!
//! Expected matrix (paper, Table 3):
//!
//! ```text
//!                 IP1   IP2   IP3   IP4
//! Shadowserver     ✓     ✗     ✓     ✗
//! Censys           ✓     ✗     ✗     ✗
//! Shodan           ✓     ✗     ✗     ✗
//! ```

use inetgen::{generate, CountrySelection, GenConfig};
use scanner::{run_campaign, Campaign, CampaignConfig};
use std::net::Ipv4Addr;

fn detection_row(campaign: Campaign) -> (bool, bool, bool, bool) {
    // Minimal world: fixtures only (one tiny country keeps generation fast).
    let config = GenConfig {
        countries: CountrySelection::Codes(vec!["FSM"]),
        scale: 2_000,
        dud_fraction: 0.0,
        ..GenConfig::default()
    };
    let mut internet = generate(&config);
    let a = internet.fixtures.sensor_addrs;
    analysis::install_sensors(&mut internet);

    // The campaign probes all four sensor addresses (among everything else
    // it would scan; the rest is irrelevant for the matrix).
    let targets: Vec<Ipv4Addr> = vec![a.ip1, a.ip2, a.ip3, a.ip4];
    let node = internet.fixtures.campaign_scanners[0];
    let report = run_campaign(
        &mut internet.sim,
        node,
        CampaignConfig::new(campaign, targets),
    );

    (
        report.odns.contains(&a.ip1),
        report.odns.contains(&a.ip2),
        report.odns.contains(&a.ip3),
        report.odns.contains(&a.ip4),
    )
}

#[test]
fn shadowserver_row() {
    let (ip1, ip2, ip3, ip4) = detection_row(Campaign::Shadowserver);
    assert!(ip1, "baseline recursive-resolver sensor must be found");
    assert!(
        !ip2,
        "the probed address of the interior forwarder is missed"
    );
    assert!(
        ip3,
        "the *replying* address is reported instead (stateless processing)"
    );
    assert!(
        !ip4,
        "the exterior forwarder is invisible: its answers come from Google"
    );
}

#[test]
fn censys_row() {
    let (ip1, ip2, ip3, ip4) = detection_row(Campaign::Censys);
    assert!(ip1);
    assert!(!ip2);
    assert!(!ip3, "source-mismatched answers are sanitized away");
    assert!(!ip4);
}

#[test]
fn shodan_row() {
    let (ip1, ip2, ip3, ip4) = detection_row(Campaign::Shodan);
    assert!(ip1);
    assert!(!ip2);
    assert!(!ip3);
    assert!(!ip4);
}

#[test]
fn transactional_scan_finds_all_sensors() {
    // The study's own scanner, by contrast, classifies every sensor.
    let config = GenConfig {
        countries: CountrySelection::Codes(vec!["FSM"]),
        scale: 2_000,
        dud_fraction: 0.0,
        ..GenConfig::default()
    };
    let mut internet = generate(&config);
    let a = internet.fixtures.sensor_addrs;
    analysis::install_sensors(&mut internet);

    let outcome = scanner::run_scan(
        &mut internet.sim,
        internet.fixtures.scanner,
        scanner::ScanConfig::new(vec![a.ip1, a.ip2, a.ip4]),
    );
    let verdicts: Vec<_> = outcome
        .transactions
        .iter()
        .map(|t| scanner::classify(t, &scanner::ClassifierConfig::default()).class())
        .collect();
    // Sensor 1 answers from the probed address but resolves via Google
    // (the paper's sensors all do, §3.1), so the transactional method
    // correctly sees a recursive *forwarder* at IP1.
    assert_eq!(
        verdicts[0],
        Some(scanner::OdnsClass::RecursiveForwarder),
        "sensor 1 at IP1"
    );
    assert_eq!(
        verdicts[1],
        Some(scanner::OdnsClass::TransparentForwarder),
        "sensor 2: reply from IP3 ≠ probed IP2"
    );
    assert_eq!(
        verdicts[2],
        Some(scanner::OdnsClass::TransparentForwarder),
        "sensor 3: reply from Google ≠ probed IP4"
    );
}
