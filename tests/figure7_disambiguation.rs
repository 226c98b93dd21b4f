//! Appendix D / Figure 7: two transparent forwarders relay to the *same*
//! recursive resolver; the scanner receives two responses from one source
//! address and must attribute each to the right probe via its unique
//! `(source port, transaction ID)` tuple. The second response is served
//! from the resolver's cache, visible as a decayed TTL (300 → lower).

use dnswire::Message;
use inetgen::{generate, CountrySelection, GenConfig};
use netsim::SimDuration;
use odns::TransparentForwarder;
use scanner::{run_scan, ScanConfig};
use std::net::Ipv4Addr;

#[test]
fn same_resolver_two_forwarders_disambiguated() {
    // A tiny world provides the resolver hierarchy; add two transparent
    // forwarders pointed at the same public resolver.
    let config = GenConfig {
        countries: CountrySelection::Codes(vec!["MUS"]),
        scale: 2_000,
        dud_fraction: 0.0,
        ..GenConfig::default()
    };
    let mut internet = generate(&config);
    let google = odns::ResolverProject::Google.service_ip();

    // Find two planted transparent forwarders relaying to Google; if the
    // mix gave fewer, retarget the first two.
    let targets: Vec<Ipv4Addr> = internet
        .truth
        .transparent_ips()
        .into_iter()
        .take(2)
        .collect();
    assert_eq!(targets.len(), 2, "need two transparent forwarders");
    for h in internet
        .truth
        .hosts
        .iter()
        .filter(|h| targets.contains(&h.ip))
    {
        internet
            .sim
            .install(h.node, TransparentForwarder::new(google));
    }

    // Probe both, 250 simulated seconds apart, so the second answer has a
    // visibly decayed cache TTL (Figure 7: 300 vs 50).
    let mut cfg = ScanConfig::new(targets.clone());
    cfg.inter_probe_gap = SimDuration::from_secs(250);
    let outcome = run_scan(&mut internet.sim, internet.fixtures.scanner, cfg);

    assert_eq!(outcome.transactions.len(), 2);
    let t1 = &outcome.transactions[0];
    let t2 = &outcome.transactions[1];

    // Both answered from the same resolver address...
    assert_eq!(t1.response_src(), Some(google));
    assert_eq!(t2.response_src(), Some(google));
    // ...yet unambiguously attributed: distinct (port, txid) tuples.
    assert_ne!(
        (t1.probe.src_port, t1.probe.txid),
        (t2.probe.src_port, t2.probe.txid)
    );
    assert_eq!(
        outcome.unmatched_responses, 0,
        "no ambiguity despite one source"
    );

    // Figure 7's TTL signal: first answer fresh (300), second from cache.
    let ttl_of = |t: &scanner::Transaction| -> u32 {
        let m = Message::decode(&t.response.as_ref().unwrap().payload).unwrap();
        m.answers[0].ttl
    };
    assert_eq!(ttl_of(t1), odns::study::ANSWER_TTL);
    assert_eq!(
        ttl_of(t2),
        odns::study::ANSWER_TTL - 250,
        "cache decayed by the probe gap"
    );
}
