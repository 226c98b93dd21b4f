//! End-to-end iterative resolution: stub → resolver → root → TLD → study
//! authoritative server, all through the simulated network.

use dnswire::{DnsName, Message, MessageBuilder, Rcode, RrType};
use netsim::testkit::{install_script, playground, ScriptedClient};
use netsim::{Ctx, Datagram, Host, SimConfig, SimDuration, Simulator, UdpSend};
use odns::study;
use odns::{
    AccessPolicy, DelegatingServer, Delegation, RecursiveResolver, ResolverConfig, StudyAuthServer,
};
use std::net::Ipv4Addr;

const CLIENT: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);
const RESOLVER: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 1);
const ROOT: Ipv4Addr = Ipv4Addr::new(198, 41, 0, 4);
const TLD: Ipv4Addr = Ipv4Addr::new(198, 41, 1, 4);
const AUTH: Ipv4Addr = Ipv4Addr::new(198, 41, 2, 4);

/// Builds the full hierarchy in a single-AS playground and returns the sim
/// plus node ids: [client, resolver, root, tld, auth].
fn hierarchy(resolver_config: ResolverConfig) -> (Simulator, Vec<netsim::NodeId>) {
    let (topo, nodes) = playground(&[CLIENT, RESOLVER, ROOT, TLD, AUTH]);
    let mut sim = Simulator::new(topo, SimConfig::default());

    let mut root = DelegatingServer::root();
    root.delegate(Delegation {
        zone: DnsName::parse("example.").unwrap(),
        ns_name: DnsName::parse("a.nic.example.").unwrap(),
        ns_ip: TLD,
    });
    sim.install(nodes[2], root);

    let mut tld = DelegatingServer::new(DnsName::parse("example.").unwrap());
    tld.delegate(Delegation {
        zone: study::study_zone(),
        ns_name: DnsName::parse("ns1.odns-study.example.").unwrap(),
        ns_ip: AUTH,
    });
    sim.install(nodes[3], tld);

    sim.install(nodes[4], StudyAuthServer::new(true));
    sim.install(nodes[1], RecursiveResolver::new(resolver_config));
    (sim, nodes)
}

fn study_query(txid: u16) -> Vec<u8> {
    MessageBuilder::query(txid, study::study_qname(), RrType::A)
        .recursion_desired(true)
        .build()
        .encode()
}

#[test]
fn full_chain_resolves_with_two_a_records() {
    let (mut sim, nodes) = hierarchy(ResolverConfig::open(vec![ROOT]));
    install_script(
        &mut sim,
        nodes[0],
        vec![(
            SimDuration::ZERO,
            UdpSend::new(34000, RESOLVER, 53, study_query(1000)),
        )],
    );
    assert!(sim.run());

    let client: &ScriptedClient = sim.host_as(nodes[0]).unwrap();
    assert_eq!(client.datagrams.len(), 1);
    let resp = Message::decode(&client.datagrams[0].1.payload).unwrap();
    assert_eq!(resp.header.id, 1000);
    assert!(resp.header.flags.recursion_available);
    // Dynamic record reflects the resolver's egress (the resolver node's
    // unicast address); control record is the study constant.
    assert_eq!(resp.answer_a_addrs(), vec![RESOLVER, study::CONTROL_A]);

    // The resolver walked root → TLD → auth: three upstream queries.
    let resolver: &RecursiveResolver = sim.host_as(nodes[1]).unwrap();
    assert_eq!(resolver.stats.upstream_queries, 3);
    assert_eq!(resolver.stats.client_queries, 1);

    let root: &DelegatingServer = sim.host_as(nodes[2]).unwrap();
    assert_eq!(root.queries_served, 1);
    let auth: &StudyAuthServer = sim.host_as(nodes[4]).unwrap();
    assert_eq!(auth.stats.queries_received, 1);
    assert_eq!(
        auth.log[0].client, RESOLVER,
        "auth sees the resolver, not the client"
    );
}

#[test]
fn second_query_served_from_cache_with_decayed_ttl() {
    let (mut sim, nodes) = hierarchy(ResolverConfig::open(vec![ROOT]));
    install_script(
        &mut sim,
        nodes[0],
        vec![
            (
                SimDuration::ZERO,
                UdpSend::new(34000, RESOLVER, 53, study_query(1)),
            ),
            (
                SimDuration::from_secs(250),
                UdpSend::new(34001, RESOLVER, 53, study_query(2)),
            ),
        ],
    );
    sim.run();

    let client: &ScriptedClient = sim.host_as(nodes[0]).unwrap();
    assert_eq!(client.datagrams.len(), 2);
    let first = Message::decode(&client.datagrams[0].1.payload).unwrap();
    let second = Message::decode(&client.datagrams[1].1.payload).unwrap();
    assert_eq!(first.answers[0].ttl, study::ANSWER_TTL);
    // Figure 7's cache signal: remaining TTL = 300 - 250 = 50.
    assert_eq!(second.answers[0].ttl, 50);

    let auth: &StudyAuthServer = sim.host_as(nodes[4]).unwrap();
    assert_eq!(auth.stats.queries_received, 1, "cache absorbed the repeat");
    let resolver: &RecursiveResolver = sim.host_as(nodes[1]).unwrap();
    assert_eq!(resolver.stats.cache_answers, 1);
}

#[test]
fn restricted_resolver_refuses_external_scanner() {
    // This is the reason transparent forwarders must relay to *open*
    // resolvers (§2): a restricted resolver rejects the spoofed scanner
    // address.
    let (mut sim, nodes) = hierarchy(ResolverConfig::restricted(
        vec![ROOT],
        vec![(Ipv4Addr::new(10, 0, 0, 0), 8)], // only RFC1918 space allowed
    ));
    install_script(
        &mut sim,
        nodes[0],
        vec![(
            SimDuration::ZERO,
            UdpSend::new(34000, RESOLVER, 53, study_query(9)),
        )],
    );
    sim.run();
    let client: &ScriptedClient = sim.host_as(nodes[0]).unwrap();
    let resp = Message::decode(&client.datagrams[0].1.payload).unwrap();
    assert_eq!(resp.header.flags.rcode, Rcode::Refused);
    assert!(resp.answers.is_empty());
    let resolver: &RecursiveResolver = sim.host_as(nodes[1]).unwrap();
    assert_eq!(resolver.stats.refused, 1);
    assert_eq!(
        resolver.stats.upstream_queries, 0,
        "no recursion for refused clients"
    );
}

#[test]
fn nxdomain_is_negatively_cached() {
    let (mut sim, nodes) = hierarchy(ResolverConfig::open(vec![ROOT]));
    let bad = MessageBuilder::query(
        5,
        DnsName::parse("missing.odns-study.example.").unwrap(),
        RrType::A,
    )
    .recursion_desired(true)
    .build()
    .encode();
    install_script(
        &mut sim,
        nodes[0],
        vec![
            (
                SimDuration::ZERO,
                UdpSend::new(34000, RESOLVER, 53, bad.clone()),
            ),
            (
                SimDuration::from_secs(10),
                UdpSend::new(34001, RESOLVER, 53, bad),
            ),
        ],
    );
    sim.run();
    let client: &ScriptedClient = sim.host_as(nodes[0]).unwrap();
    assert_eq!(client.datagrams.len(), 2);
    for (_, d) in &client.datagrams {
        let m = Message::decode(&d.payload).unwrap();
        assert_eq!(m.header.flags.rcode, Rcode::NxDomain);
    }
    let auth: &StudyAuthServer = sim.host_as(nodes[4]).unwrap();
    assert_eq!(
        auth.stats.queries_received, 1,
        "negative cache absorbed the repeat"
    );
}

#[test]
fn unresolvable_name_gets_servfail_eventually() {
    // A TLD that exists but delegates nowhere useful: the query for a name
    // in an unknown TLD produces NXDOMAIN at the root (not SERVFAIL), so
    // instead aim at a delegation pointing to a non-existent server to
    // exercise the timeout path.
    let (topo, nodes) = playground(&[CLIENT, RESOLVER, ROOT]);
    let mut sim = Simulator::new(topo, SimConfig::default());
    let mut root = DelegatingServer::root();
    root.delegate(Delegation {
        zone: DnsName::parse("example.").unwrap(),
        ns_name: DnsName::parse("a.nic.example.").unwrap(),
        ns_ip: Ipv4Addr::new(100, 64, 9, 9), // unassigned: queries vanish
    });
    sim.install(nodes[2], root);
    sim.install(
        nodes[1],
        RecursiveResolver::new(ResolverConfig::open(vec![ROOT])),
    );
    install_script(
        &mut sim,
        nodes[0],
        vec![(
            SimDuration::ZERO,
            UdpSend::new(34000, RESOLVER, 53, study_query(3)),
        )],
    );
    sim.run();
    let client: &ScriptedClient = sim.host_as(nodes[0]).unwrap();
    assert_eq!(client.datagrams.len(), 1);
    let resp = Message::decode(&client.datagrams[0].1.payload).unwrap();
    assert_eq!(resp.header.flags.rcode, Rcode::ServFail);
    let resolver: &RecursiveResolver = sim.host_as(nodes[1]).unwrap();
    assert!(resolver.stats.timeouts >= 1);
}

#[test]
fn open_resolver_answers_anyone_acl_check() {
    assert!(AccessPolicy::Open.allows(CLIENT));
    let acl = AccessPolicy::RestrictedTo(vec![(Ipv4Addr::new(192, 0, 2, 0), 24)]);
    assert!(acl.allows(CLIENT));
    assert!(!acl.allows(RESOLVER));
}

/// A host that ignores everything sent to it.
struct Silent;
impl Host for Silent {
    fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, _dgram: Datagram) {}
}

/// Every upstream query the resolver sends — root, TLD, auth and each
/// timeout retry — is the leader's question built afresh under that
/// query's txid, in the leader's own 0x20 casing.
#[test]
fn upstream_queries_equal_a_fresh_encode_of_the_leaders_question() {
    let leader = DnsName::parse("OdNs-StUdY.eXaMpLe.").unwrap();
    for auth_answers in [true, false] {
        let (mut sim, nodes) = hierarchy(ResolverConfig::open(vec![ROOT]));
        if !auth_answers {
            // Nobody home at the auth address: its query times out and is
            // retried until the budget runs out.
            sim.install(nodes[4], Silent);
        }
        sim.tap(nodes[1]);
        let query = MessageBuilder::query(77, leader.clone(), RrType::A)
            .recursion_desired(true)
            .build()
            .encode();
        install_script(
            &mut sim,
            nodes[0],
            vec![(SimDuration::ZERO, UdpSend::new(34000, RESOLVER, 53, query))],
        );
        assert!(sim.run());

        let pcap = sim.take_capture(nodes[1]).unwrap();
        let mut upstream = Vec::new();
        for record in netsim::pcap::read_pcap(&pcap).unwrap() {
            let netsim::wire::DecodedPacket::Udp(d) = netsim::wire::decode(&record.data).unwrap()
            else {
                continue;
            };
            if d.src != RESOLVER || d.dst == CLIENT {
                continue;
            }
            let txid = dnswire::peek_id(&d.payload).unwrap();
            let fresh = MessageBuilder::query(txid, leader.clone(), RrType::A)
                .build()
                .encode();
            assert_eq!(d.payload, fresh, "to {} txid {txid}", d.dst);
            upstream.push(d.dst);
        }
        let expected = if auth_answers {
            vec![ROOT, TLD, AUTH]
        } else {
            vec![ROOT, TLD, AUTH, AUTH, AUTH, AUTH, AUTH]
        };
        assert_eq!(upstream, expected);
    }
}
