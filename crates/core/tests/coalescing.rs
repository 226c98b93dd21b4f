//! Query coalescing in the recursive resolver: concurrent queries for the
//! same name must share one upstream resolution (real resolver behaviour;
//! without it, a fast scanner's identical queries stampede the
//! authoritative server — the Table 2 cache-utilization property would be
//! unmeasurable at scan rates).

use dnswire::{DnsName, Message, MessageBuilder, QClass, RrType};
use netsim::testkit::{install_script, playground, ScriptedClient};
use netsim::{SimConfig, SimDuration, Simulator, UdpSend};
use odns::study;
use odns::{
    CacheStats, DelegatingServer, Delegation, RecursiveResolver, ResolverConfig, ResolverStats,
    StudyAuthServer,
};
use std::net::Ipv4Addr;

const RESOLVER: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 1);
const ROOT: Ipv4Addr = Ipv4Addr::new(198, 41, 0, 4);
const TLD: Ipv4Addr = Ipv4Addr::new(198, 41, 1, 4);
const AUTH: Ipv4Addr = Ipv4Addr::new(198, 41, 2, 4);
/// Delegated the `dead.` zone but runs no server: queries to it time out.
const DEAD: Ipv4Addr = Ipv4Addr::new(198, 41, 3, 4);

fn world(
    clients: usize,
) -> (
    Simulator,
    Vec<netsim::NodeId>,
    netsim::NodeId,
    netsim::NodeId,
) {
    let mut ips = vec![RESOLVER, ROOT, TLD, AUTH, DEAD];
    for i in 0..clients {
        ips.push(Ipv4Addr::new(192, 0, 2, (i + 1) as u8));
    }
    let (topo, nodes) = playground(&ips);
    let mut sim = Simulator::new(topo, SimConfig::default());

    let mut root = DelegatingServer::root();
    root.delegate(Delegation {
        zone: DnsName::parse("example.").unwrap(),
        ns_name: DnsName::parse("a.nic.example.").unwrap(),
        ns_ip: TLD,
    });
    root.delegate(Delegation {
        zone: DnsName::parse("dead.").unwrap(),
        ns_name: DnsName::parse("ns.dead.").unwrap(),
        ns_ip: DEAD,
    });
    sim.install(nodes[1], root);
    let mut tld = DelegatingServer::new(DnsName::parse("example.").unwrap());
    tld.delegate(Delegation {
        zone: study::study_zone(),
        ns_name: DnsName::parse("ns1.odns-study.example.").unwrap(),
        ns_ip: AUTH,
    });
    sim.install(nodes[2], tld);
    sim.install(nodes[3], StudyAuthServer::new(true));
    sim.install(
        nodes[0],
        RecursiveResolver::new(ResolverConfig::open(vec![ROOT])),
    );
    let clients_nodes = nodes[5..].to_vec();
    (sim, clients_nodes, nodes[0], nodes[3])
}

fn query(txid: u16, qname: DnsName) -> Vec<u8> {
    MessageBuilder::query(txid, qname, RrType::A)
        .recursion_desired(true)
        .build()
        .encode()
}

fn study_query(txid: u16) -> Vec<u8> {
    query(txid, study::study_qname())
}

#[test]
fn concurrent_identical_queries_share_one_resolution() {
    let n = 20;
    let (mut sim, clients, resolver, auth) = world(n);
    for (i, &c) in clients.iter().enumerate() {
        install_script(
            &mut sim,
            c,
            vec![(
                // All queries within 1 ms — far below the resolution RTT.
                SimDuration::from_micros(i as u64 * 50),
                UdpSend::new(34000, RESOLVER, 53, study_query(i as u16)),
            )],
        );
    }
    sim.run();

    // Every client got its answer...
    for &c in &clients {
        let sc: &ScriptedClient = sim.host_as(c).unwrap();
        assert_eq!(sc.datagrams.len(), 1, "client must be answered");
        let m = Message::decode(&sc.datagrams[0].1.payload).unwrap();
        assert_eq!(m.answers.len(), 2, "both A records relayed");
    }
    // ...but the authority saw exactly one query.
    let auth_host: &StudyAuthServer = sim.host_as(auth).unwrap();
    assert_eq!(
        auth_host.stats.queries_received, 1,
        "one resolution for the herd"
    );
    let r: &RecursiveResolver = sim.host_as(resolver).unwrap();
    assert_eq!(r.stats.client_queries, n as u64);
    assert_eq!(r.stats.coalesced, n as u64 - 1);
    assert_eq!(r.stats.upstream_queries, 3, "root + TLD + auth, once");
}

#[test]
fn coalesced_clients_get_correct_transaction_ids() {
    let (mut sim, clients, _resolver, _auth) = world(5);
    for (i, &c) in clients.iter().enumerate() {
        install_script(
            &mut sim,
            c,
            vec![(
                SimDuration::from_micros(i as u64 * 10),
                UdpSend::new(
                    40_000 + i as u16,
                    RESOLVER,
                    53,
                    study_query(1000 + i as u16),
                ),
            )],
        );
    }
    sim.run();
    for (i, &c) in clients.iter().enumerate() {
        let sc: &ScriptedClient = sim.host_as(c).unwrap();
        let m = Message::decode(&sc.datagrams[0].1.payload).unwrap();
        assert_eq!(
            m.header.id,
            1000 + i as u16,
            "each client's own TXID echoed"
        );
        assert_eq!(sc.datagrams[0].1.dst_port, 40_000 + i as u16);
    }
}

#[test]
fn different_names_do_not_coalesce() {
    let (mut sim, clients, resolver, _auth) = world(2);
    let q1 = MessageBuilder::query(1, study::study_qname(), RrType::A)
        .recursion_desired(true)
        .build()
        .encode();
    let q2 = MessageBuilder::query(
        2,
        DnsName::parse("nope.odns-study.example.").unwrap(),
        RrType::A,
    )
    .recursion_desired(true)
    .build()
    .encode();
    install_script(
        &mut sim,
        clients[0],
        vec![(SimDuration::ZERO, UdpSend::new(34000, RESOLVER, 53, q1))],
    );
    install_script(
        &mut sim,
        clients[1],
        vec![(SimDuration::ZERO, UdpSend::new(34001, RESOLVER, 53, q2))],
    );
    sim.run();
    let r: &RecursiveResolver = sim.host_as(resolver).unwrap();
    assert_eq!(r.stats.coalesced, 0);
    assert!(r.stats.upstream_queries >= 4, "two independent resolutions");
}

#[test]
fn sequential_queries_hit_cache_not_coalescing() {
    let (mut sim, clients, resolver, auth) = world(2);
    install_script(
        &mut sim,
        clients[0],
        vec![(
            SimDuration::ZERO,
            UdpSend::new(34000, RESOLVER, 53, study_query(1)),
        )],
    );
    install_script(
        &mut sim,
        clients[1],
        vec![(
            SimDuration::from_secs(5),
            UdpSend::new(34001, RESOLVER, 53, study_query(2)),
        )],
    );
    sim.run();
    let r: &RecursiveResolver = sim.host_as(resolver).unwrap();
    assert_eq!(
        r.stats.coalesced, 0,
        "second query is late: cache, not coalescing"
    );
    assert_eq!(r.stats.cache_answers, 1);
    let auth_host: &StudyAuthServer = sim.host_as(auth).unwrap();
    assert_eq!(auth_host.stats.queries_received, 1);
}

/// Every cache-miss query opens a task; answered, SERVFAILed-on-timeout
/// and coalesced ones alike must leave the resolver's tables empty.
#[test]
fn task_table_drains_on_answer_timeout_and_coalescing() {
    let (mut sim, clients, resolver, _auth) = world(9);
    let name = |s: &str| DnsName::parse(s).unwrap();
    let script: [(u64, DnsName); 9] = [
        // One answered resolution with three clients coalesced behind it.
        (0, study::study_qname()),
        (50, study::study_qname()),
        (100, study::study_qname()),
        (150, study::study_qname()),
        // One answered with NXDOMAIN.
        (0, name("nope.odns-study.example.")),
        // One served from cache: never opens a task.
        (5_000_000, study::study_qname()),
        // Two resolutions that exhaust their retries against the dead
        // server, one of them with a coalesced waiter.
        (0, name("host.dead.")),
        (50, name("host.dead.")),
        (0, name("other.dead.")),
    ];
    for (i, (&c, (at, qname))) in clients.iter().zip(script).enumerate() {
        install_script(
            &mut sim,
            c,
            vec![(
                SimDuration::from_micros(at),
                UdpSend::new(34000, RESOLVER, 53, query(i as u16 + 1, qname)),
            )],
        );
    }
    sim.run();

    for (i, &c) in clients.iter().enumerate() {
        let sc: &ScriptedClient = sim.host_as(c).unwrap();
        assert_eq!(sc.datagrams.len(), 1, "client {i} answered exactly once");
    }
    let r: &RecursiveResolver = sim.host_as(resolver).unwrap();
    assert_eq!(r.open_entries(), [0; 4], "tasks/pending/waiters/inflight");
    assert_eq!(
        r.stats,
        ResolverStats {
            client_queries: 9,
            cache_answers: 1,
            coalesced: 4,
            refused: 0,
            upstream_queries: 18,
            servfail: 2,
            timeouts: 10,
        }
    );
}

/// The RD bit is the client's: a stub that clears it must see it cleared
/// in its answer whichever way the resolver comes by that answer — as the
/// leader of a resolution (a miss), coalesced behind another client's, or
/// from the cache. The miss and waiter paths used to hard-code RD=1.
#[test]
fn rd_bit_is_echoed_on_miss_as_waiter_and_on_hit() {
    let (mut sim, clients, resolver, _auth) = world(4);
    let rd0 = |txid| {
        MessageBuilder::query(txid, study::study_qname(), RrType::A)
            .recursion_desired(false)
            .build()
            .encode()
    };
    // (send time µs, payload, RD expected back): an RD=0 leader, an RD=1
    // and an RD=0 waiter behind it, and an RD=0 cache hit.
    let script = [
        (0, rd0(1), false),
        (50, study_query(2), true),
        (100, rd0(3), false),
        (5_000_000, rd0(4), false),
    ];
    for (&c, (at, payload, _)) in clients.iter().zip(script.clone()) {
        install_script(
            &mut sim,
            c,
            vec![(
                SimDuration::from_micros(at),
                UdpSend::new(34000, RESOLVER, 53, payload),
            )],
        );
    }
    sim.run();
    for (i, (&c, (_, _, rd))) in clients.iter().zip(script).enumerate() {
        let sc: &ScriptedClient = sim.host_as(c).unwrap();
        let m = Message::decode(&sc.datagrams[0].1.payload).unwrap();
        assert_eq!(m.header.flags.recursion_desired, rd, "client {i}");
        assert_eq!(m.header.id, i as u16 + 1);
        assert!(m.header.flags.recursion_available);
        assert_eq!(m.answers.len(), 2);
    }
    let r: &RecursiveResolver = sim.host_as(resolver).unwrap();
    assert_eq!((r.stats.coalesced, r.stats.cache_answers), (2, 1));
}

/// A burst behind one leader that mixes what the resolver admits without
/// decoding (the leader's bytes again, under another txid) with what it
/// must decode (another 0x20 casing, a cleared RD bit, class `CH`): every
/// client gets its own txid, casing and RD back, and the counters read
/// what they read when every waiter was decoded.
#[test]
fn mixed_burst_of_undecoded_and_decoded_waiters() {
    let cased = || DnsName::parse("ODNS-Study.Example.").unwrap();
    let with = |txid, qname: DnsName, rd, class| {
        MessageBuilder::query_class(txid, qname, RrType::A, class)
            .recursion_desired(rd)
            .build()
            .encode()
    };
    // (payload, casing and RD expected back); txid i + 1, sent 50 µs apart.
    let burst = [
        (study_query(1), study::study_qname(), true),
        (study_query(2), study::study_qname(), true),
        (with(3, cased(), true, QClass::In), cased(), true),
        (
            with(4, study::study_qname(), false, QClass::In),
            study::study_qname(),
            false,
        ),
        (
            with(5, study::study_qname(), true, QClass::Ch),
            study::study_qname(),
            true,
        ),
        (study_query(6), study::study_qname(), true),
        (with(7, cased(), true, QClass::In), cased(), true),
    ];
    let (mut sim, clients, resolver, auth) = world(burst.len());
    for (i, (&c, (payload, _, _))) in clients.iter().zip(&burst).enumerate() {
        install_script(
            &mut sim,
            c,
            vec![(
                SimDuration::from_micros(i as u64 * 50),
                UdpSend::new(34000 + i as u16, RESOLVER, 53, payload.clone()),
            )],
        );
    }
    sim.run();

    for (i, (&c, (_, qname, rd))) in clients.iter().zip(&burst).enumerate() {
        let sc: &ScriptedClient = sim.host_as(c).unwrap();
        assert_eq!(sc.datagrams.len(), 1, "client {i} answered exactly once");
        let m = Message::decode(&sc.datagrams[0].1.payload).unwrap();
        assert_eq!(m.header.id, i as u16 + 1, "client {i}");
        assert_eq!(m.header.flags.recursion_desired, *rd, "client {i}");
        assert_eq!(
            m.questions[0].qname.as_wire(),
            qname.as_wire(),
            "client {i}"
        );
        assert_eq!(m.answers.len(), 2, "client {i}");
    }
    let auth_host: &StudyAuthServer = sim.host_as(auth).unwrap();
    assert_eq!(auth_host.stats.queries_received, 1);
    let r: &RecursiveResolver = sim.host_as(resolver).unwrap();
    assert_eq!(r.open_entries(), [0; 4]);
    // Pinned from the commit before waiters were admitted undecoded.
    assert_eq!(
        r.stats,
        ResolverStats {
            client_queries: 7,
            coalesced: 6,
            upstream_queries: 3,
            ..ResolverStats::default()
        }
    );
    assert_eq!(
        r.cache().stats,
        CacheStats {
            misses: 7,
            insertions: 1,
            ..CacheStats::default()
        }
    );
}
