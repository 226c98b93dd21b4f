//! End-to-end DNSRoute++ sweeps through a multi-AS topology.
//!
//! Topology (AS-level):
//!
//! ```text
//! AS100 (scanner) — AS200 (transit) — AS300 (eyeball, no SAV: forwarder)
//!                          |
//!                       AS400 (resolver)
//! ```
//!
//! The forwarder in AS300 relays to the resolver in AS400; the probe path
//! beyond the forwarder re-crosses AS200 — giving `AS_in == AS_out` for
//! the relationship inference.

use dnsroute::{
    check_trace, infer_relationships, run_dnsroute, sanitize, DnsRouteConfig, DnsRoutePlusPlus,
    TraceReject,
};
use dnswire::{Message, MessageBuilder, RrType};
use netsim::{
    AsKind, AsSpec, CountryCode, Ctx, Datagram, Host, HostSpec, IpOwner, NodeId, Relationship,
    SimDuration, Simulator, TimerOutcome, TopologyBuilder, UdpSend,
};
use odns::TransparentForwarder;
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

const SCANNER: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);
const FORWARDER: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 7);
const RESOLVER: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 1);
const RECURSIVE_HOST: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 9);
const NOISE: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 99);

struct Canned;
impl Host for Canned {
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
        let Ok(q) = Message::decode(&dgram.payload) else {
            return;
        };
        let resp = MessageBuilder::response_to(&q)
            .recursion_available(true)
            .answer_a(q.questions[0].qname.clone(), 300, dgram.src)
            .answer_a(q.questions[0].qname.clone(), 300, odns::study::CONTROL_A)
            .build();
        ctx.send_udp(UdpSend {
            src: Some(dgram.dst),
            src_port: 53,
            dst: dgram.src,
            dst_port: dgram.src_port,
            ttl: None,
            payload: resp.encode().into(),
        });
    }
}

fn as_spec(asn: u32, sav: bool, routers: Vec<Ipv4Addr>) -> AsSpec {
    AsSpec {
        asn,
        country: CountryCode::new("ZZZ"),
        kind: AsKind::Transit,
        sav_outbound: sav,
        transit_routers: routers,
    }
}

/// The four-AS world plus a noise host in AS400. `scanner_access` routers
/// sit between the scanner and its AS — each adds one IP hop in front of
/// every probe, which is how the deep-topology test pushes the resolver
/// to the sweep's last TTL without touching the AS structure.
struct World {
    sim: Simulator,
    scanner: NodeId,
    noise: NodeId,
}

fn build_world_ext(scanner_access: &[Ipv4Addr]) -> World {
    let mut b = TopologyBuilder::new();
    let a100 = b.add_as(as_spec(100, true, vec![Ipv4Addr::new(10, 100, 0, 1)]));
    let a200 = b.add_as(as_spec(
        200,
        true,
        vec![Ipv4Addr::new(10, 200, 0, 1), Ipv4Addr::new(10, 200, 0, 2)],
    ));
    let a300 = b.add_as(as_spec(300, false, vec![Ipv4Addr::new(10, 30, 0, 1)]));
    let a400 = b.add_as(as_spec(400, true, vec![Ipv4Addr::new(10, 40, 0, 1)]));
    b.connect(a100, a200, Relationship::Peer);
    b.connect(a200, a300, Relationship::ProviderCustomer);
    b.connect(a200, a400, Relationship::ProviderCustomer);

    let scanner = b.add_host(
        a100,
        HostSpec {
            ip: SCANNER,
            extra_ips: vec![],
            access_routers: scanner_access.to_vec(),
            link_latency: SimDuration::from_millis(2),
        },
    );
    let forwarder = b.add_host(a300, HostSpec::simple(FORWARDER));
    let recursive = b.add_host(a300, HostSpec::simple(RECURSIVE_HOST));
    let resolver = b.add_host(a400, HostSpec::simple(RESOLVER));
    let noise = b.add_host(a400, HostSpec::simple(NOISE));

    let mut sim = Simulator::new(b.build().unwrap());
    sim.install(forwarder, TransparentForwarder::new(RESOLVER));
    sim.install(recursive, odns::RecursiveForwarder::new(RESOLVER));
    sim.install(resolver, Canned);
    World {
        sim,
        scanner,
        noise,
    }
}

/// Build the four-AS world; returns (sim, scanner node).
fn build_world() -> (Simulator, NodeId) {
    let w = build_world_ext(&[]);
    (w.sim, w.scanner)
}

#[test]
fn transparent_forwarder_trace_reveals_hops_beyond() {
    let (mut sim, scanner) = build_world();
    let traces = run_dnsroute(&mut sim, scanner, DnsRouteConfig::new(vec![FORWARDER]));
    assert_eq!(traces.len(), 1);
    let t = &traces[0];

    // Forwarder distance: AS100 router + 2×AS200 routers + AS300 router =
    // 4 router hops, so the forwarder's own Time Exceeded fires at TTL 5.
    assert_eq!(t.target_seen_at, Some(5), "hops: {:?}", t.hops);
    assert_eq!(t.hops[4], Some(FORWARDER));

    // DNS answer arrives from the resolver after the relay path:
    // forwarder → AS300 router → 2×AS200 → AS400 router → resolver.
    let dns = t.dns.expect("resolver answered");
    assert_eq!(dns.src, RESOLVER);
    assert!(dns.ttl > 5);

    // Hops beyond the forwarder are visible — the DNSRoute++ claim.
    let beyond: Vec<_> = t.hops_beyond_target().into_iter().flatten().collect();
    assert!(
        beyond.contains(&Ipv4Addr::new(10, 200, 0, 1)),
        "transit router behind the forwarder visible: {beyond:?}"
    );

    // Figure 6 metric: forwarder → resolver distance in IP hops.
    assert_eq!(check_trace(t).map(|p| p.hop_count), Ok(dns.ttl - 5));
}

#[test]
fn recursive_forwarder_trace_shows_nothing_beyond() {
    let (mut sim, scanner) = build_world();
    let traces = run_dnsroute(&mut sim, scanner, DnsRouteConfig::new(vec![RECURSIVE_HOST]));
    let t = &traces[0];
    // The recursive forwarder never sends Time Exceeded for the relay (it
    // re-originates the query with a fresh TTL), so there is no forwarder
    // signature; the DNS answer comes from the probed address itself.
    assert_eq!(t.target_seen_at, None);
    let dns = t.dns.expect("answered");
    assert_eq!(dns.src, RECURSIVE_HOST);
    assert!(t.hops_beyond_target().is_empty());

    // Sanitization classifies this trace as not-a-transparent-forwarder.
    let (paths, stats) = sanitize(&traces);
    assert!(paths.is_empty());
    assert_eq!(stats.rejected_no_signature, 1);
}

#[test]
fn sanitized_path_feeds_relationship_inference() {
    let (mut sim, scanner) = build_world();
    let traces = run_dnsroute(&mut sim, scanner, DnsRouteConfig::new(vec![FORWARDER]));
    let (paths, stats) = sanitize(&traces);
    assert_eq!(stats.kept, 1);
    let p = &paths[0];
    assert_eq!(p.forwarder, FORWARDER);
    assert_eq!(p.resolver, RESOLVER);

    // Map IPs to ASNs using the simulator's ground truth.
    let report = {
        let topo = sim.topology();
        infer_relationships(&paths, |ip| {
            let as_id = match topo.owner_of_ip(ip)? {
                IpOwner::Host(node) => topo.as_of_node(node),
                IpOwner::Router(as_id) => as_id,
                IpOwner::Anycast => return None,
            };
            Some(topo.as_spec(as_id).asn)
        })
    };
    assert_eq!(report.usable_paths, 1);
    assert_eq!(report.matching_paths, 1, "AS200 is both AS_in and AS_out");
    let inferred: Vec<_> = report.inferred.iter().copied().collect();
    assert_eq!(inferred[0].provider_asn, 200);
    assert_eq!(inferred[0].customer_asn, 300);

    // Against ground truth, the inferred pair is real.
    let known: BTreeSet<(u32, u32)> = sim
        .topology()
        .provider_customer_pairs()
        .iter()
        .copied()
        .collect();
    let (hits, new_pairs) = report.against_baseline(&known);
    assert_eq!(hits.len(), 1);
    assert!(new_pairs.is_empty());
    assert!((report.matching_share() - 1.0).abs() < 1e-9);
}

/// A silent target costs every TTL its full wait: the retry policy's
/// 2 s RTO, doubled per retransmission, is DNSRoute++'s per-hop clock.
#[test]
fn sweep_handles_unresponsive_target() {
    let sweep = |retry: netsim::RetryPolicy| {
        let (mut sim, scanner) = build_world();
        // 198.18.0.1 is not assigned: every TTL step times out.
        let cfg = DnsRouteConfig::new(vec![Ipv4Addr::new(198, 18, 0, 1)]).with_retry(retry);
        let traces = run_dnsroute(&mut sim, scanner, cfg);
        let t = &traces[0];
        assert_eq!(t.target_seen_at, None);
        assert!(t.dns.is_none());
        assert_eq!(t.hops.len(), 30, "every TTL up to 30 probed");
        assert!(
            t.hops.iter().all(|h| h.is_none()),
            "all hops anonymous: {:?}",
            t.hops
        );
        (sim.now(), sim.stats().retransmits_sent)
    };
    let secs = |s| netsim::SimTime::ZERO + SimDuration::from_secs(s);
    // Single-shot: one 2 s wait per TTL.
    assert_eq!(sweep(netsim::RetryPolicy::none()), (secs(30 * 2), 0));
    // One retry: 2 s after the probe, 4 s after its retransmission.
    assert_eq!(
        sweep(netsim::RetryPolicy::retries(1)),
        (secs(30 * (2 + 4)), 30)
    );
}

/// The sweep stops at TTL 30. Access routers in front of the scanner
/// push every probe's path deeper without touching the AS structure: each
/// adds one hop before the 4 backbone/AS hops of the shallow world, where
/// the forwarder's own Time Exceeded fires at TTL 5 and the DNS answer
/// lands at TTL 10.
#[test]
fn deep_topology_recovers_answer_at_max_ttl() {
    let trace = |depth: u8| {
        let access: Vec<Ipv4Addr> = (1..=depth).map(|i| Ipv4Addr::new(10, 99, 0, i)).collect();
        let mut w = build_world_ext(&access);
        run_dnsroute(&mut w.sim, w.scanner, DnsRouteConfig::new(vec![FORWARDER]))
    };

    // 20 access routers: the answer needs exactly the last TTL probed.
    let traces = trace(20);
    let t = &traces[0];
    assert_eq!(t.target_seen_at, Some(25), "hops: {:?}", t.hops);
    let dns = t.dns.expect("resolver answered");
    assert_eq!(dns.src, RESOLVER);
    assert_eq!(dns.ttl, 30);
    // The Figure 6 metric matches the shallow world: approach depth must
    // not leak into the forwarder → resolver distance.
    assert_eq!(check_trace(t).map(|p| p.hop_count), Ok(5));
    let (paths, stats) = sanitize(&traces);
    assert_eq!(stats.kept, 1);
    assert_eq!(paths[0].hop_count, 5);

    // One more: the forwarder is still seen, the resolver is out of reach.
    let t = &trace(21)[0];
    assert_eq!(t.target_seen_at, Some(26), "hops: {:?}", t.hops);
    assert!(t.dns.is_none());
    assert_eq!(t.hops.len(), 30);
    assert_eq!(check_trace(t), Err(TraceReject::NoResolverAnswer));
}

/// `n` distinct targets for the port-space tests.
fn many_targets(n: u32) -> Vec<Ipv4Addr> {
    (0..n).map(|i| Ipv4Addr::from(0xCB00_0000 + i)).collect()
}

/// A sweep whose target count would wrap the 16-bit source-port space
/// must be rejected loudly — a wrapped port aliases two targets and the
/// earlier one's trace silently disappears.
#[test]
#[should_panic(expected = "source-port space exhausted")]
fn colliding_base_port_rejected() {
    // Ports 40000..=65535 hold 25 536 targets; one more wraps.
    let _ = DnsRoutePlusPlus::new(DnsRouteConfig::new(many_targets(25_537)));
}

/// The boundary case fits exactly: ports 40000..=65535 for 25 536 targets.
#[test]
fn base_port_at_capacity_accepted() {
    let _ = DnsRoutePlusPlus::new(DnsRouteConfig::new(many_targets(25_536)));
}

/// Mid-sweep noise aimed at a probe port: a non-DNS datagram, a runt,
/// and a reflected *query* (QR=0) from port 53. None of them may
/// terminate the trace — only a DNS response from port 53 does.
struct NoiseBurst {
    dst: Ipv4Addr,
    dst_port: u16,
}

impl Host for NoiseBurst {
    fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, _dgram: Datagram) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) -> TimerOutcome {
        // Wrong source port, payload long enough to carry fake flags.
        ctx.send_udp(UdpSend {
            src: None,
            src_port: 9_999,
            dst: self.dst,
            dst_port: self.dst_port,
            ttl: None,
            payload: vec![0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x00].into(),
        });
        // Right port, but a query (QR=0), as a reflector would bounce.
        let query = MessageBuilder::query(0x0102, odns::study::study_qname(), RrType::A)
            .recursion_desired(true)
            .build();
        ctx.send_udp(UdpSend {
            src: None,
            src_port: 53,
            dst: self.dst,
            dst_port: self.dst_port,
            ttl: None,
            payload: query.encode().into(),
        });
        // Right port, runt too short for DNS flags.
        ctx.send_udp(UdpSend {
            src: None,
            src_port: 53,
            dst: self.dst,
            dst_port: self.dst_port,
            ttl: None,
            payload: vec![0x01, 0x02, 0x03].into(),
        });
        TimerOutcome::Acted
    }
}

#[test]
fn stray_datagrams_do_not_end_the_sweep() {
    let mut w = build_world_ext(&[]);
    // Target index 0 probes from port 40 000; fire the noise 1 ms in,
    // long before the probe TTL can reach the resolver (the answer needs
    // TTL 10).
    let cfg = DnsRouteConfig::new(vec![FORWARDER]);
    w.sim.install(
        w.noise,
        NoiseBurst {
            dst: SCANNER,
            dst_port: 40_000,
        },
    );
    w.sim
        .schedule_timer(w.noise, SimDuration::from_millis(1), 0);
    let traces = run_dnsroute(&mut w.sim, w.scanner, cfg);
    let t = &traces[0];

    // The trace survived the noise: the forwarder signature and the real
    // resolver answer are both intact (the old code recorded the first
    // stray datagram as the DNS endpoint and stopped probing).
    assert_eq!(t.target_seen_at, Some(5), "hops: {:?}", t.hops);
    let dns = t.dns.expect("the real resolver answer still terminates");
    assert_eq!(
        dns.src, RESOLVER,
        "endpoint must be the resolver, not {NOISE}"
    );
    assert!(dns.ttl > 5);
    assert_eq!(check_trace(t).map(|p| p.hop_count), Ok(dns.ttl - 5));
}

#[test]
fn multiple_targets_trace_concurrently() {
    let (mut sim, scanner) = build_world();
    let traces = run_dnsroute(
        &mut sim,
        scanner,
        DnsRouteConfig::new(vec![FORWARDER, RECURSIVE_HOST]),
    );
    assert_eq!(traces.len(), 2);
    assert_eq!(traces[0].target, FORWARDER);
    assert!(traces[0].target_seen_at.is_some());
    assert_eq!(traces[1].target, RECURSIVE_HOST);
    assert!(traces[1].target_seen_at.is_none());
    assert!(traces[1].dns.is_some());
}

#[test]
fn per_hop_retries_fill_hops_lost_to_faults() {
    let faulty = |retry: netsim::RetryPolicy| {
        let mut w = build_world_ext(&[]);
        w.sim.set_faults(
            netsim::FaultPlan {
                base: netsim::FaultConfig {
                    drop_probability: 0.35,
                    ..netsim::FaultConfig::none()
                },
                ..netsim::FaultPlan::none()
            }
            .salted(9),
        );
        let traces = run_dnsroute(
            &mut w.sim,
            w.scanner,
            DnsRouteConfig::new(vec![FORWARDER]).with_retry(retry),
        );
        (traces, w.sim.stats().retransmits_sent)
    };
    let (single, retx_single) = faulty(netsim::RetryPolicy::none());
    let (retried, retx) = faulty(netsim::RetryPolicy::retries(3));
    assert_eq!(retx_single, 0, "single-shot sweeps never retransmit");
    assert!(retx > 0, "silent hops must trigger retransmissions");
    let anon = |ts: &[dnsroute::TraceResult]| ts[0].hops.iter().filter(|h| h.is_none()).count();
    assert!(
        anon(&retried) < anon(&single),
        "retries fill anonymous hops: {} vs {}",
        anon(&retried),
        anon(&single)
    );
    assert!(
        retried[0].dns.is_some(),
        "with per-hop retries the resolver answer is recovered"
    );
    // Bit-identical replay: stateless fault draws + pure retry schedule.
    let (again, retx_again) = faulty(netsim::RetryPolicy::retries(3));
    assert_eq!(retried, again);
    assert_eq!(retx, retx_again);
}

/// A sweep under the resilience grid's 5 % point (loss with proportionate
/// duplication and corruption) and two per-hop retries. An answered hop
/// cancels its own timeout, so every timeout that fires finds a silent hop
/// to retransmit or record, and the simulator's books balance.
#[test]
fn lossy_sweep_fires_no_stale_hop_timeout() {
    let mut w = build_world_ext(&[]);
    w.sim.set_faults(analysis::sweep_fault_plan(50, 7));
    let targets = vec![FORWARDER, RECURSIVE_HOST, Ipv4Addr::new(198, 18, 0, 1)];
    let cfg = DnsRouteConfig::new(targets).with_retry(analysis::sweep_retry_policy(2));
    let traces = run_dnsroute(&mut w.sim, w.scanner, cfg);
    let stats = w.sim.stats();
    assert!(stats.conserved(), "{stats}");
    assert_eq!(stats.timers_stale, 0, "{stats}");
    assert!(
        stats.dropped_fault > 0 && stats.retransmits_sent > 0,
        "{stats}"
    );
    assert!(stats.timers_cancelled > 0, "answered hops cancel: {stats}");
    assert!(traces[0].dns.is_some() && traces[1].dns.is_some());
}

/// Every probe on the wire, retransmissions included, is the study query
/// built afresh under its `(idx, ttl)` txid, sent at that TTL.
#[test]
fn probes_on_the_wire_equal_a_fresh_encode_of_the_study_query() {
    let mut w = build_world_ext(&[]);
    w.sim.set_faults(
        netsim::FaultPlan {
            base: netsim::FaultConfig {
                drop_probability: 0.35,
                ..netsim::FaultConfig::none()
            },
            ..netsim::FaultPlan::none()
        }
        .salted(9),
    );
    w.sim.tap(w.scanner);
    let targets = vec![FORWARDER, RECURSIVE_HOST, Ipv4Addr::new(198, 18, 0, 1)];
    let cfg = DnsRouteConfig::new(targets.clone()).with_retry(netsim::RetryPolicy::retries(2));
    run_dnsroute(&mut w.sim, w.scanner, cfg);

    let pcap = w.sim.take_capture(w.scanner).unwrap();
    let mut sent = BTreeSet::new();
    let mut probes = 0;
    for record in netsim::pcap::read_pcap(&pcap).unwrap() {
        let netsim::wire::DecodedPacket::Udp(d) = netsim::wire::decode(&record.data).unwrap()
        else {
            continue;
        };
        if d.src != SCANNER {
            continue;
        }
        let txid = dnswire::peek_id(&d.payload).unwrap();
        let (idx, ttl) = (usize::from(txid >> 8), txid as u8);
        let fresh = MessageBuilder::query(txid, odns::study::study_qname(), RrType::A)
            .recursion_desired(true)
            .build()
            .encode();
        assert_eq!(d.payload, fresh, "probe idx {idx} ttl {ttl}");
        assert_eq!((d.dst, d.ttl), (targets[idx], ttl), "txid {txid:#06x}");
        assert!((1..=30).contains(&ttl));
        sent.insert((idx, ttl));
        probes += 1;
    }
    assert!(sent.len() > 20, "{sent:?}");
    assert!(
        probes > sent.len(),
        "some hops retried: {probes} probes over {} (idx, ttl) pairs",
        sent.len()
    );
}
