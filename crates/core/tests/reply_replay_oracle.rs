//! The name servers' replayed replies against the decode path.
//!
//! `DelegatingServer` and `StudyAuthServer` answer a query equal past the
//! transaction ID to the last one they decoded by replaying that reply,
//! patched. These tests send one mixed sequence of queries — repeats from
//! other clients, and every near miss that must not replay (0x20 casing,
//! another RD bit, EDNS, `CH`, `ANY`, other names and types) — to one server
//! and, query by query, to a fresh server that has nothing to replay. The
//! replies must be byte-identical, and the one server's counters must be
//! the fresh servers' summed. Every query that is not a plain `IN`
//! one — `CH`, even for the study name inside the zone — is REFUSED, with
//! no record.
//!
//! A resolver reads those referrals with `dnswire::view_referral`; the last
//! test holds it to `odns::extract_referral` on every reply a delegating
//! server writes.

use dnswire::{Class, DnsName, Message, MessageBuilder, QClass, RData, Rcode, Record, RrType};
use netsim::testkit::{install_script, playground, ScriptedClient};
use netsim::{Host, Payload, SimDuration, Simulator, UdpSend};
use odns::study;
use odns::{extract_referral, DelegatingServer, Delegation, StudyAuthServer};
use std::net::Ipv4Addr;

const SERVER: Ipv4Addr = Ipv4Addr::new(198, 41, 0, 4);
const CLIENTS: [Ipv4Addr; 3] = [
    Ipv4Addr::new(198, 51, 100, 1),
    Ipv4Addr::new(198, 51, 100, 2),
    Ipv4Addr::new(203, 0, 113, 9),
];

/// One query: which of [`CLIENTS`] sends it, and its bytes.
type Query = (usize, Vec<u8>);

/// A query sent at a time from one of [`CLIENTS`].
type Timed = (SimDuration, usize, Vec<u8>);

/// The replies `server` sends to `queries`, in arrival order, and what
/// `read` reads off the server once the run has drained.
fn replies<H: Host, S>(server: H, queries: &[Timed], read: impl Fn(&H) -> S) -> (Vec<Payload>, S) {
    let (topo, nodes) = playground(&[&[SERVER][..], &CLIENTS[..]].concat());
    let mut sim = Simulator::new(topo);
    sim.install(nodes[0], server);
    for (c, node) in nodes[1..].iter().enumerate() {
        let sends = queries
            .iter()
            .filter(|q| q.1 == c)
            .map(|(at, _, bytes)| (*at, UdpSend::new(5300, SERVER, 53, bytes.clone())))
            .collect();
        install_script(&mut sim, *node, sends);
    }
    assert!(sim.run());
    let mut received: Vec<_> = nodes[1..]
        .iter()
        .flat_map(|&n| sim.host_as::<ScriptedClient>(n).unwrap().datagrams.clone())
        .collect();
    received.sort_by_key(|(at, _)| *at);
    let server = sim.host_as::<H>(nodes[0]).expect("installed");
    (
        received.into_iter().map(|(_, d)| d.payload).collect(),
        read(server),
    )
}

/// `queries`, one second apart.
fn timed(queries: &[Query]) -> Vec<Timed> {
    let at = |i| SimDuration::from_secs(i as u64);
    queries
        .iter()
        .enumerate()
        .map(|(i, (c, b))| (at(i), *c, b.clone()))
        .collect()
}

/// Send `queries` to one server from `make`, and each to a fresh one; the
/// replies must match byte for byte. Returns what `read` reads off the one
/// server and off each fresh one.
fn replay_against_fresh<H: Host, S>(
    make: impl Fn() -> H,
    queries: &[Query],
    read: impl Fn(&H) -> S,
) -> (S, Vec<S>) {
    let timed = timed(queries);
    let (warm, server) = replies(make(), &timed, &read);
    assert_eq!(warm.len(), queries.len(), "every query is answered");
    for (i, ((_, query), reply)) in queries.iter().zip(&warm).enumerate() {
        if !Message::decode(query).unwrap().is_plain_in_query() {
            let m = Message::decode(reply).unwrap();
            assert_eq!(m.header.flags.rcode, Rcode::Refused, "query {i}");
            let records = m.answers.len() + m.authorities.len() + m.additionals.len();
            assert_eq!(records, 0, "query {i}");
        }
    }
    let mut fresh = Vec::new();
    for (i, query) in timed.iter().enumerate() {
        let (cold, server) = replies(make(), std::slice::from_ref(query), &read);
        assert_eq!(cold.len(), 1);
        assert_eq!(warm[i], cold[0], "query {i} from {}", CLIENTS[query.1]);
        fresh.push(server);
    }
    (server, fresh)
}

fn query(txid: u16, name: &str, qtype: RrType, rd: bool) -> Vec<u8> {
    MessageBuilder::query(txid, DnsName::parse(name).unwrap(), qtype)
        .recursion_desired(rd)
        .build()
        .encode()
}

/// The queries both servers get: the study name asked again and again
/// from every client under new IDs, between near misses that must each be
/// decoded — some of them twice running, so they replay too.
fn mixed_queries() -> Vec<Query> {
    let study = &study::study_qname().to_string();
    let a = |txid, c| (c, query(txid, study, RrType::A, false));
    let edns = {
        let mut m = Message::decode(&query(20, study, RrType::A, true)).unwrap();
        m.additionals.push(Record {
            name: DnsName::root(),
            class: Class::Other(1232),
            ttl: 0,
            rdata: RData::Opt(Vec::new()),
        });
        m.encode()
    };
    let chaos = MessageBuilder::query_class(
        21,
        DnsName::parse("version.bind.").unwrap(),
        RrType::Txt,
        QClass::Ch,
    )
    .build()
    .encode();
    let chaos_a = MessageBuilder::query_class(25, study::study_qname(), RrType::A, QClass::Ch)
        .build()
        .encode();
    let encoded = |target: [u8; 4]| {
        let name = study::encode_target_name(Ipv4Addr::from(target));
        query(22, &name.to_string(), RrType::A, false)
    };
    vec![
        a(1, 0),
        a(2, 1),
        a(3, 2),
        a(3, 2),
        (0, query(4, "ODNS-study.EXAMPLE.", RrType::A, false)),
        a(5, 1),
        (2, query(6, study, RrType::A, true)),
        (0, query(7, study, RrType::A, true)),
        (1, query(8, study, RrType::Any, false)),
        (2, query(9, study, RrType::Any, false)),
        a(10, 0),
        (1, query(11, study, RrType::Txt, false)),
        (2, query(12, study, RrType::Soa, false)),
        (0, query(13, study, RrType::Mx, false)),
        (1, query(14, study, RrType::Mx, false)),
        (2, query(15, "nope.odns-study.example.", RrType::A, false)),
        (0, query(16, "nope.odns-study.example.", RrType::A, false)),
        (1, query(17, "google.com.", RrType::A, false)),
        (2, query(18, "odns-study.nowhere.", RrType::A, false)),
        (0, edns.clone()),
        (1, edns),
        (2, chaos.clone()),
        (0, chaos),
        (1, chaos_a.clone()),
        (2, chaos_a),
        (1, encoded([192, 0, 2, 7])),
        (2, encoded([192, 0, 2, 8])),
        a(23, 1),
        a(24, 0),
    ]
}

#[test]
fn the_study_server_replays_what_it_would_build() {
    let read = |s: &StudyAuthServer| s.stats;
    let (stats, fresh) = replay_against_fresh(StudyAuthServer::new, &mixed_queries(), read);
    let summed = fresh.iter().fold(odns::AuthStats::default(), |mut sum, s| {
        sum.queries_received += s.queries_received;
        sum.responses_sent += s.responses_sent;
        sum.out_of_zone += s.out_of_zone;
        sum.nxdomain += s.nxdomain;
        sum
    });
    assert_eq!(stats, summed);
    assert_eq!(stats.queries_received, mixed_queries().len() as u64);
}

#[test]
fn root_and_tld_replay_what_they_would_build() {
    let root = || {
        let mut s = DelegatingServer::root();
        s.delegate(Delegation {
            zone: DnsName::parse("example.").unwrap(),
            ns_name: DnsName::parse("a.nic.example.").unwrap(),
            ns_ip: Ipv4Addr::new(198, 41, 1, 4),
        });
        s
    };
    let tld = || {
        let mut s = DelegatingServer::new(DnsName::parse("example.").unwrap());
        s.delegate(Delegation {
            zone: study::study_zone(),
            ns_name: DnsName::parse("ns1.odns-study.example.").unwrap(),
            ns_ip: Ipv4Addr::new(198, 41, 2, 4),
        });
        s
    };
    for make in [&root as &dyn Fn() -> DelegatingServer, &tld] {
        let read = |s: &DelegatingServer| s.queries_served;
        let (served, fresh) = replay_against_fresh(make, &mixed_queries(), read);
        assert_eq!(served, fresh.iter().sum::<u64>());
    }
}

#[test]
fn a_new_delegation_is_not_answered_from_the_old_reply() {
    let (topo, nodes) = playground(&[SERVER, CLIENTS[0]]);
    let mut sim = Simulator::new(topo);
    sim.install(nodes[0], DelegatingServer::root());
    let ask = |secs| {
        let bytes = query(1, &study::study_qname().to_string(), RrType::A, false);
        (
            SimDuration::from_secs(secs),
            UdpSend::new(5300, SERVER, 53, bytes),
        )
    };
    install_script(&mut sim, nodes[1], vec![ask(0), ask(2)]);
    sim.run_until(netsim::SimTime::ZERO + SimDuration::from_secs(1));
    let root: &mut DelegatingServer = sim.host_as_mut(nodes[0]).unwrap();
    root.delegate(Delegation {
        zone: DnsName::parse("example.").unwrap(),
        ns_name: DnsName::parse("a.nic.example.").unwrap(),
        ns_ip: Ipv4Addr::new(198, 41, 1, 4),
    });
    assert!(sim.run());
    let client: &ScriptedClient = sim.host_as(nodes[1]).unwrap();
    let [(_, before), (_, after)] = &client.datagrams[..] else {
        panic!("two replies: {:?}", client.datagrams);
    };
    let rcode = Message::decode(&before.payload).unwrap().header.flags.rcode;
    assert_eq!(rcode, dnswire::Rcode::NxDomain);
    let referral = extract_referral(&Message::decode(&after.payload).unwrap());
    assert_eq!(
        referral.map(|r| r.ns_ip),
        Some(Ipv4Addr::new(198, 41, 1, 4))
    );
}

#[test]
fn the_referral_view_follows_what_extract_referral_follows() {
    let mut root = DelegatingServer::root();
    root.delegate(Delegation {
        zone: DnsName::parse("example.").unwrap(),
        ns_name: DnsName::parse("a.nic.example.").unwrap(),
        ns_ip: Ipv4Addr::new(198, 41, 1, 4),
    });
    root.delegate(Delegation {
        zone: DnsName::parse("test.").unwrap(),
        ns_name: DnsName::parse("ns.elsewhere.").unwrap(),
        ns_ip: Ipv4Addr::new(198, 41, 3, 4),
    });
    let queries: Vec<Query> = mixed_queries()
        .into_iter()
        .chain([
            (0, query(30, "a.b.test.", RrType::A, false)),
            (1, query(31, "OdNs-StUdY.eXaMpLe.", RrType::Any, true)),
        ])
        .collect();
    let (answers, _) = replies(root, &timed(&queries), |_| ());
    let mut viewed = 0;
    for (i, bytes) in answers.iter().enumerate() {
        let decoded = Message::decode(bytes).unwrap();
        let followed = extract_referral(&decoded).map(|r| (decoded.header.id, r.ns_ip));
        let view = dnswire::view_referral(bytes).map(|v| (v.id, v.ns_ip));
        // The view reads every referral this server writes for a plain
        // query, and nothing else.
        let plain = dnswire::view_query(&queries[i].1).is_some();
        match followed {
            Some(_) if plain => assert_eq!(view, followed, "reply {i}"),
            _ => assert!(view.is_none() || view == followed, "reply {i}"),
        }
        viewed += usize::from(view.is_some());
    }
    assert!(viewed >= 20, "{viewed} referrals viewed");
}
