//! Ablations of the transactional scanner's design choices (§4.1/§6):
//!
//! 1. **Unique (port, TXID) tuples.** Without them, responses relayed by
//!    different transparent forwarders through the *same* resolver are
//!    indistinguishable — the ambiguity Figure 7 illustrates.
//! 2. **Static query name.** Encoding targets into names (the query-based
//!    method) floods resolver caches with unique entries — the paper's
//!    cache-pollution argument against it ("resolvers serving >40k
//!    forwarders would take >40k cache entries").

use dnswire::{MessageBuilder, RrType};
use inetgen::{generate, CountrySelection, GenConfig};
use netsim::testkit::ScriptedClient;
use netsim::{SimDuration, UdpSend};
use odns::{RecursiveResolver, ResolverProject, TransparentForwarder};
use scanner::{ProbeNaming, ScanConfig};
use std::net::Ipv4Addr;

/// Two forwarders behind one resolver, probed with the *same* (port,
/// TXID): the scanner cannot attribute the two identical responses.
#[test]
fn identical_tuples_are_ambiguous_behind_one_resolver() {
    let config = GenConfig {
        countries: CountrySelection::Codes(vec!["MUS"]),
        scale: 2_000,
        dud_fraction: 0.0,
        ..GenConfig::default()
    };
    let mut internet = generate(&config);
    let google = ResolverProject::Google.service_ip();
    let fwds: Vec<Ipv4Addr> = internet
        .truth
        .transparent_ips()
        .into_iter()
        .take(2)
        .collect();
    assert_eq!(fwds.len(), 2);
    for h in internet.truth.hosts.iter().filter(|h| fwds.contains(&h.ip)) {
        internet
            .sim
            .install(h.node, TransparentForwarder::new(google));
    }

    // A naive scanner: same source port, same TXID for both probes.
    let query = MessageBuilder::query(0x1111, odns::study::study_qname(), RrType::A)
        .recursion_desired(true)
        .build()
        .encode();
    let scanner_node = internet.fixtures.scanner;
    let mut naive = ScriptedClient::new();
    let t0 = naive.push(UdpSend::new(34_000, fwds[0], 53, query.clone()));
    let t1 = naive.push(UdpSend::new(34_000, fwds[1], 53, query));
    internet.sim.install(scanner_node, naive);
    internet
        .sim
        .schedule_timer(scanner_node, SimDuration::ZERO, t0);
    internet
        .sim
        .schedule_timer(scanner_node, SimDuration::from_micros(100), t1);
    internet.sim.run();

    let sc: &ScriptedClient = internet.sim.host_as(scanner_node).unwrap();
    assert_eq!(sc.datagrams.len(), 2, "both answers arrive");
    for (_, d) in &sc.datagrams {
        assert_eq!(d.src, google, "identical source");
        assert_eq!(d.dst_port, 34_000, "identical port");
        let m = dnswire::Message::decode(&d.payload).unwrap();
        assert_eq!(m.header.id, 0x1111, "identical TXID");
        // Every attribute the wire offers is identical except timing and
        // cache-TTL decay: the two transactions cannot be told apart.
    }

    // The real scanner over the same pair: zero ambiguity (asserted in
    // tests/figure7_disambiguation.rs, cross-referenced here).
}

/// The query-encoding method pollutes resolver caches in proportion to
/// the number of forwarders served; the static-name method costs exactly
/// one entry.
#[test]
fn query_encoding_pollutes_resolver_caches() {
    fn pollution(naming: ProbeNaming) -> (u64, u64) {
        let config = GenConfig {
            countries: CountrySelection::Codes(vec!["TUR"]),
            scale: 1_000,
            dud_fraction: 0.0,
            ..GenConfig::default()
        };
        let mut internet = generate(&config);
        // Turkey's local resolver serves almost every forwarder: its cache
        // is where the pollution lands. Find it (the planted resolver with
        // the most forwarder clients).
        let local_resolver = internet
            .truth
            .hosts
            .iter()
            .filter(|h| h.class == inetgen::PlantedClass::RecursiveResolver)
            .map(|h| h.node)
            .next()
            .expect("a local resolver exists");

        let mut scan = ScanConfig::new(internet.targets.clone());
        scan.naming = naming;
        let _ = scanner::run_scan(&mut internet.sim, internet.fixtures.scanner, scan);
        let resolver: &RecursiveResolver = internet.sim.host_as(local_resolver).unwrap();
        (
            resolver.cache().stats.insertions,
            resolver.cache().stats.evictions,
        )
    }

    let (static_insertions, static_evictions) = pollution(ProbeNaming::Static);
    let (encoded_insertions, encoded_evictions) = pollution(ProbeNaming::EncodeTarget);

    assert!(
        static_insertions <= 2,
        "static name costs at most one entry (+1 for a pre-warm), got {static_insertions}"
    );
    assert!(
        encoded_insertions > 50,
        "query encoding must plant one entry per served forwarder, got {encoded_insertions}"
    );
    assert_eq!(static_evictions, 0);
    // The paper's >40k-entries-per-resolver point, scaled: pollution grows
    // linearly with served forwarders while the honest method stays O(1).
    assert!(encoded_insertions >= 25 * static_insertions.max(1));
    let _ = encoded_evictions; // eviction onset depends on cache size; insertions are the signal
}

/// A resolver with a small cache shows actual *evictions* under the
/// query-encoding flood — legitimate entries get displaced (the
/// random-subdomain/water-torture comparison of §6).
#[test]
fn query_encoding_evicts_legitimate_entries() {
    use netsim::testkit::{install_script, playground};
    use netsim::Simulator;
    use odns::{DelegatingServer, Delegation, StudyAuthServer};

    const RESOLVER: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 1);
    const ROOT: Ipv4Addr = Ipv4Addr::new(198, 41, 0, 4);
    const TLD: Ipv4Addr = Ipv4Addr::new(198, 41, 1, 4);
    const AUTH: Ipv4Addr = Ipv4Addr::new(198, 41, 2, 4);
    const CLIENT: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);

    let (topo, nodes) = playground(&[RESOLVER, ROOT, TLD, AUTH, CLIENT]);
    let mut sim = Simulator::new(topo);
    let mut root = DelegatingServer::root();
    root.delegate(Delegation {
        zone: dnswire::DnsName::parse("example.").unwrap(),
        ns_name: dnswire::DnsName::parse("a.nic.example.").unwrap(),
        ns_ip: TLD,
    });
    sim.install(nodes[1], root);
    let mut tld = DelegatingServer::new(dnswire::DnsName::parse("example.").unwrap());
    tld.delegate(Delegation {
        zone: odns::study::study_zone(),
        ns_name: dnswire::DnsName::parse("ns1.odns-study.example.").unwrap(),
        ns_ip: AUTH,
    });
    sim.install(nodes[2], tld);
    sim.install(nodes[3], StudyAuthServer::new());
    // A tiny cache: pollution bites fast.
    sim.install(nodes[0], RecursiveResolver::new(ROOT, 32));

    // A legitimate query first, then a flood of 64 unique encoded names.
    let mut sends = vec![(
        SimDuration::ZERO,
        UdpSend::new(
            40_000,
            RESOLVER,
            53,
            MessageBuilder::query(1, odns::study::study_qname(), RrType::A)
                .recursion_desired(true)
                .build()
                .encode(),
        ),
    )];
    for i in 0..64u16 {
        let name = odns::study::encode_target_name(Ipv4Addr::new(203, 0, (i >> 8) as u8, i as u8));
        sends.push((
            SimDuration::from_millis(200 + u64::from(i) * 50),
            UdpSend::new(
                41_000 + i,
                RESOLVER,
                53,
                MessageBuilder::query(100 + i, name, RrType::A)
                    .recursion_desired(true)
                    .build()
                    .encode(),
            ),
        ));
    }
    // Finally the legitimate name again — it should have been evicted.
    sends.push((
        SimDuration::from_secs(30),
        UdpSend::new(
            40_001,
            RESOLVER,
            53,
            MessageBuilder::query(2, odns::study::study_qname(), RrType::A)
                .recursion_desired(true)
                .build()
                .encode(),
        ),
    ));
    install_script(&mut sim, nodes[4], sends);
    sim.run();

    let resolver: &RecursiveResolver = sim.host_as(nodes[0]).unwrap();
    assert!(resolver.cache().stats.evictions > 0, "pollution must evict");
    // The final repeat of the legitimate name missed the cache (it was
    // evicted by the flood), so the resolver resolved it twice.
    assert!(
        resolver.stats.upstream_queries >= (1 + 64 + 1) * 3 - 2,
        "legitimate entry was re-resolved after eviction: {} upstream",
        resolver.stats.upstream_queries
    );
}
