//! Property-based tests for the simulator substrate.
//!
//! Invariants:
//! * wire codecs round-trip arbitrary datagrams and never panic on junk;
//! * pcap round-trips arbitrary packet sequences;
//! * routing over random topologies: paths start in the source AS, end in
//!   the destination AS, never visit a non-transit AS in the middle
//!   (valley-free), and TTL expiry is consistent with hop counts;
//! * the composed [`netsim::Path`] view equals a materialised reference
//!   hop list, and routing state is bounded by touched AS pairs;
//! * packet conservation under random fault plans.

use netsim::wire::{decode, encode_udp, DecodedPacket};
use netsim::{
    AsId, AsKind, AsSpec, CountryCode, Ctx, Datagram, FaultConfig, FaultPlan, Hop, Host, HostSpec,
    NodeId, Relationship, RouteResolver, SimConfig, SimDuration, SimTime, Simulator, Topology,
    TopologyBuilder, UdpSend,
};
use proptest::prelude::*;
use std::collections::{HashSet, VecDeque};
use std::net::Ipv4Addr;

fn arb_datagram() -> impl Strategy<Value = Datagram> {
    (
        any::<[u8; 4]>(),
        any::<[u8; 4]>(),
        any::<u16>(),
        any::<u16>(),
        1u8..=255,
        proptest::collection::vec(any::<u8>(), 0..256),
    )
        .prop_map(|(src, dst, src_port, dst_port, ttl, payload)| Datagram {
            src: Ipv4Addr::from(src),
            dst: Ipv4Addr::from(dst),
            src_port,
            dst_port,
            ttl,
            payload: payload.into(),
        })
}

/// A random hierarchical topology: `t` transit ASes in a ring with
/// chords, `e` edge (eyeball) ASes each homed to 1-2 transits, one or two
/// hosts per edge AS behind 0-2 access routers.
#[derive(Debug, Clone)]
struct RandomWorld {
    transits: usize,
    edges: Vec<Edge>,
}

#[derive(Debug, Clone)]
struct Edge {
    primary: usize,
    /// Optional second home.
    second: Option<usize>,
    /// Access routers in front of the AS's first host.
    access: usize,
    /// A second host in the same AS behind one more access router, so
    /// distinct host pairs share an AS pair.
    twin: bool,
}

fn arb_world() -> impl Strategy<Value = RandomWorld> {
    (2usize..6).prop_flat_map(|transits| {
        let edge = (
            0..transits,
            proptest::option::of(0..transits),
            0usize..3,
            any::<bool>(),
        )
            .prop_map(move |(primary, second, access, twin)| Edge {
                primary,
                second: second.filter(|s| *s != primary),
                access,
                twin,
            });
        proptest::collection::vec(edge, 1..12)
            .prop_map(move |edges| RandomWorld { transits, edges })
    })
}

/// Build the world; returns every routable host, first hosts of each
/// edge AS before the twins. An extra host at [`ISLAND_IP`] sits in an AS
/// with no links (not in the returned list).
fn build(world: &RandomWorld) -> (Topology, Vec<NodeId>) {
    let mut b = TopologyBuilder::new();
    let mut router_block = 0u32;
    let mut routers = |n: usize| -> Vec<Ipv4Addr> {
        let block = router_block;
        router_block += 1;
        (0..n)
            .map(|i| Ipv4Addr::new(10, (block >> 8) as u8, block as u8, (i + 1) as u8))
            .collect()
    };
    let transits: Vec<AsId> = (0..world.transits)
        .map(|i| {
            b.add_as(AsSpec {
                asn: 100 + i as u32,
                country: CountryCode::new("ZZZ"),
                kind: AsKind::Transit,
                sav_outbound: true,
                transit_routers: routers(1 + i % 2),
            })
        })
        .collect();
    // Ring + chord to transit 0 keeps the transit core connected.
    for i in 0..transits.len() {
        let j = (i + 1) % transits.len();
        if i < j {
            b.connect(transits[i], transits[j], Relationship::Peer);
        }
    }
    if transits.len() > 2 {
        // close the ring
        b.connect(
            transits[0],
            transits[transits.len() - 1],
            Relationship::Peer,
        );
    }
    let mut nodes = Vec::new();
    let mut twins = Vec::new();
    for (i, edge) in world.edges.iter().enumerate() {
        let as_id = b.add_as(AsSpec {
            asn: 1000 + i as u32,
            country: CountryCode::new("EDG"),
            kind: AsKind::EyeballIsp,
            // Every third edge filters spoofed sends, so scripts meet SAV.
            sav_outbound: i % 3 == 2,
            transit_routers: routers(1),
        });
        b.connect(
            transits[edge.primary],
            as_id,
            Relationship::ProviderCustomer,
        );
        if let Some(s) = edge.second {
            b.connect(transits[s], as_id, Relationship::ProviderCustomer);
        }
        let mut host = |last_octet: u8, access: usize| HostSpec {
            access_routers: routers(access),
            link_latency: SimDuration::from_micros(500 * (1 + i as u64 + access as u64)),
            ..HostSpec::simple(Ipv4Addr::new(11, (i >> 8) as u8, i as u8, last_octet))
        };
        nodes.push(b.add_host(as_id, host(1, edge.access)));
        if edge.twin {
            twins.push(b.add_host(as_id, host(2, edge.access + 1)));
        }
    }
    // An anycast service with PoPs at the first and last edge host, so
    // route-cache properties cover PoP selection too.
    if nodes.len() >= 2 {
        b.add_anycast_instance(ANYCAST_IP, nodes[0]);
        b.add_anycast_instance(ANYCAST_IP, nodes[nodes.len() - 1]);
    }
    nodes.extend(twins);
    let island = b.add_as(AsSpec {
        asn: 9_999,
        country: CountryCode::new("ISL"),
        kind: AsKind::EyeballIsp,
        sav_outbound: false,
        transit_routers: routers(1),
    });
    b.add_host(island, HostSpec::simple(ISLAND_IP));
    (b.build().expect("random world is valid"), nodes)
}

/// Host in an AS without links: every send to it is a no-route drop.
const ISLAND_IP: Ipv4Addr = Ipv4Addr::new(11, 255, 0, 1);

/// The parent implementation's materialised path, kept as the oracle the
/// composed [`netsim::Path`] view must equal: an independent BFS for the
/// AS path, then one `Hop` pushed per router with a running latency.
struct ReferencePath {
    hops: Vec<Hop>,
    total_latency: SimDuration,
    as_path: Vec<AsId>,
}

impl ReferencePath {
    fn build(topo: &Topology, src_node: NodeId, dst_node: NodeId) -> Option<Self> {
        const HOP_LATENCY: SimDuration = SimDuration(1_000);
        const AS_CROSS_LATENCY: SimDuration = SimDuration(4_000);
        let (src_as, dst_as) = (topo.as_of_node(src_node), topo.as_of_node(dst_node));
        let as_path = reference_as_path(topo, src_as, dst_as)?;
        let src_spec = topo.host_spec(src_node);
        let dst_spec = topo.host_spec(dst_node);
        let mut hops = Vec::new();
        let mut latency = src_spec.link_latency;
        for r in src_spec.access_routers.iter().rev() {
            latency = latency + HOP_LATENCY;
            hops.push(Hop {
                ip: *r,
                as_id: src_as,
                latency,
            });
        }
        for (i, &as_id) in as_path.iter().enumerate() {
            if i > 0 {
                latency = latency + AS_CROSS_LATENCY;
            }
            for r in &topo.as_spec(as_id).transit_routers {
                latency = latency + HOP_LATENCY;
                hops.push(Hop {
                    ip: *r,
                    as_id,
                    latency,
                });
            }
        }
        for r in dst_spec.access_routers.iter() {
            latency = latency + HOP_LATENCY;
            hops.push(Hop {
                ip: *r,
                as_id: dst_as,
                latency,
            });
        }
        Some(ReferencePath {
            hops,
            total_latency: latency + dst_spec.link_latency,
            as_path,
        })
    }

    fn expiry_hop(&self, ttl: u8) -> Option<&Hop> {
        match ttl as usize {
            0 => self.hops.first(),
            t => self.hops.get(t - 1),
        }
    }
}

/// Shortest valley-free AS path: BFS in neighbor order where only the
/// source and transit ASes forward, first discovery wins.
fn reference_as_path(topo: &Topology, src: AsId, dst: AsId) -> Option<Vec<AsId>> {
    let mut prev: Vec<Option<AsId>> = vec![None; topo.as_count()];
    let mut seen = vec![false; topo.as_count()];
    seen[src.0 as usize] = true;
    let mut queue = VecDeque::from([src]);
    while let Some(cur) = queue.pop_front() {
        if cur != src && topo.as_spec(cur).kind != AsKind::Transit {
            continue;
        }
        for &(next, _) in topo.as_neighbors(cur) {
            if !std::mem::replace(&mut seen[next.0 as usize], true) {
                prev[next.0 as usize] = Some(cur);
                queue.push_back(next);
            }
        }
    }
    if !seen[dst.0 as usize] {
        return None;
    }
    let mut path = vec![dst];
    while let Some(p) = prev[path[path.len() - 1].0 as usize] {
        path.push(p);
    }
    path.reverse();
    Some(path)
}

/// Fires its script on timers, echoes port 7 once per datagram, refuses
/// port 9 with an ICMP error and ignores the rest, so a run mixes
/// originated sends, replies, and host-sourced ICMP.
struct EchoClient {
    script: Vec<UdpSend>,
}

impl Host for EchoClient {
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
        match dgram.dst_port {
            7 => ctx.send_udp(UdpSend::reply_to(&dgram, dgram.payload.clone())),
            9 => ctx.send_port_unreachable(&dgram),
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if let Some(send) = self.script.get(token as usize) {
            ctx.send_udp(send.clone());
        }
    }
}

fn arb_fault_config() -> impl Strategy<Value = FaultConfig> {
    (0u32..400, 0u32..400, 0u32..400, 0u64..20_000).prop_map(
        |(drop, duplicate, corrupt, jitter)| FaultConfig {
            drop_probability: f64::from(drop) / 1000.0,
            duplicate_probability: f64::from(duplicate) / 1000.0,
            corrupt_probability: f64::from(corrupt) / 1000.0,
            max_jitter: SimDuration::from_micros(jitter),
        },
    )
}

/// Quiet, uniform, or with a different profile toward eyeball ASes.
fn arb_fault_plan() -> impl Strategy<Value = FaultPlan> {
    (
        proptest::option::of(arb_fault_config()),
        proptest::option::of(arb_fault_config()),
    )
        .prop_map(|(base, eyeball)| {
            let plan = FaultPlan::uniform(base.unwrap_or_default());
            match eyeball {
                Some(cfg) => plan.with_kind(AsKind::EyeballIsp, cfg),
                None => plan,
            }
        })
}

/// Anycast service address registered by [`build`] when it has ≥2 hosts.
const ANYCAST_IP: Ipv4Addr = Ipv4Addr::new(8, 8, 8, 8);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn udp_wire_roundtrip(d in arb_datagram(), ident in any::<u16>()) {
        let bytes = encode_udp(&d, ident);
        match decode(&bytes) {
            Ok(DecodedPacket::Udp(back)) => prop_assert_eq!(back, d),
            other => prop_assert!(false, "decode failed: {other:?}"),
        }
    }

    #[test]
    fn wire_decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = decode(&bytes);
    }

    #[test]
    fn pcap_roundtrip(packets in proptest::collection::vec(
        (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..64)), 0..20)
    ) {
        let mut w = netsim::pcap::PcapWriter::new();
        // Timestamps must fit the pcap second/micro split.
        for (ts, data) in &packets {
            w.write(SimTime(*ts % 4_000_000_000_000), data);
        }
        let records = netsim::pcap::read_pcap(&w.finish()).unwrap();
        prop_assert_eq!(records.len(), packets.len());
        for (rec, (ts, data)) in records.iter().zip(&packets) {
            prop_assert_eq!(rec.ts, SimTime(*ts % 4_000_000_000_000));
            prop_assert_eq!(&rec.data, data);
        }
    }

    #[test]
    fn routing_paths_are_valley_free_and_consistent(world in arb_world()) {
        let (topo, nodes) = build(&world);
        let mut resolver = RouteResolver::new();
        for &src in &nodes {
            for &dst in &nodes {
                if src == dst {
                    continue;
                }
                let dst_ip = topo.host_spec(dst).ip;
                let path = resolver
                    .resolve(&topo, src, dst_ip)
                    .expect("connected world must route");
                // Endpoints.
                let as_path = path.as_path();
                prop_assert_eq!(*as_path.first().unwrap(), topo.as_of_node(src));
                prop_assert_eq!(*as_path.last().unwrap(), topo.as_of_node(dst));
                // Valley-free: interior ASes are transits.
                for interior in as_path.get(1..as_path.len() - 1).unwrap_or_default() {
                    prop_assert_eq!(topo.as_spec(*interior).kind, AsKind::Transit);
                }
                // Every hop belongs to an AS on the path.
                for hop in path.hops() {
                    prop_assert!(as_path.contains(&hop.as_id),
                        "hop {} in {} not on AS path", hop.ip, hop.as_id);
                }
                // TTL semantics: expiry for every ttl <= hops, delivery after.
                let hops = path.router_hops() as u8;
                for ttl in 1..=hops {
                    prop_assert!(path.expiry_hop(ttl).is_some());
                }
                prop_assert!(path.expiry_hop(hops + 1).is_none());
                // Latency is positive and monotone.
                let mut last = SimDuration::ZERO;
                for hop in path.hops() {
                    prop_assert!(hop.latency > last);
                    last = hop.latency;
                }
                prop_assert!(path.total_latency > last);
            }
        }
    }

    /// The composed view is the parent's materialised path: hop by hop,
    /// in total latency, in AS path, and in where every TTL expires —
    /// for unicast host pairs (incl. two hosts of one AS) and anycast.
    #[test]
    fn composed_path_equals_materialised_reference(world in arb_world()) {
        let (topo, nodes) = build(&world);
        let mut resolver = RouteResolver::new();
        for &src in &nodes {
            let unicast = nodes.iter().filter(|&&dst| dst != src).map(|&dst| topo.host_spec(dst).ip);
            for dst_ip in unicast.chain([ANYCAST_IP, ISLAND_IP]) {
                let Ok(path) = resolver.resolve(&topo, src, dst_ip) else {
                    // A one-edge world registers no anycast group.
                    let no_group = dst_ip == ANYCAST_IP && topo.anycast_group(dst_ip).is_none();
                    prop_assert!(dst_ip == ISLAND_IP || no_group, "{dst_ip} must route");
                    continue;
                };
                let reference = ReferencePath::build(&topo, src, path.dst_node)
                    .expect("reference must route what the resolver routes");
                prop_assert_eq!(path.hops().collect::<Vec<_>>(), reference.hops.clone());
                prop_assert_eq!(path.hops().len(), path.router_hops());
                prop_assert_eq!(path.total_latency, reference.total_latency);
                prop_assert_eq!(path.as_path(), &reference.as_path[..]);
                for ttl in 0..=(reference.hops.len() + 1).min(255) as u8 {
                    prop_assert_eq!(path.expiry_hop(ttl), reference.expiry_hop(ttl).copied());
                }
            }
        }
    }

    /// A warm route cache must be invisible: resolves through a warm
    /// resolver return hop lists, latencies, AS paths, and anycast
    /// selections identical to a cold resolver's, and the cache holds
    /// exactly one entry per touched `(src AS, dst AS)` pair — however
    /// many host pairs resolved through it.
    #[test]
    fn warm_route_cache_matches_cold_resolver(world in arb_world()) {
        let (topo, nodes) = build(&world);
        let mut warm = RouteResolver::new();
        let mut touched_as_pairs = HashSet::new();
        let mut routed = 0u64;
        // Warm pass over every host pair and every anycast view.
        for &src in &nodes {
            for &dst in &nodes {
                if src == dst {
                    continue;
                }
                let dst_ip = topo.host_spec(dst).ip;
                if let Ok(p) = warm.resolve(&topo, src, dst_ip) {
                    touched_as_pairs.insert((topo.as_of_node(src), topo.as_of_node(p.dst_node)));
                    routed += 1;
                }
            }
            if let Ok(p) = warm.resolve(&topo, src, ANYCAST_IP) {
                touched_as_pairs.insert((topo.as_of_node(src), topo.as_of_node(p.dst_node)));
                routed += 1;
            }
        }
        let len_after_warmup = warm.cache_len();
        prop_assert_eq!(len_after_warmup, touched_as_pairs.len());
        prop_assert_eq!(warm.cache_misses(), touched_as_pairs.len() as u64);
        prop_assert_eq!(warm.cache_hits() + warm.cache_misses(), routed);
        // Second pass: cache hits must be bit-identical to cold resolves.
        for &src in &nodes {
            for &dst in &nodes {
                if src == dst {
                    continue;
                }
                let dst_ip = topo.host_spec(dst).ip;
                let cached = warm.resolve(&topo, src, dst_ip).expect("routed in warm pass");
                let mut cold_resolver = RouteResolver::new();
                let cold = cold_resolver
                    .resolve(&topo, src, dst_ip)
                    .expect("cold resolver must route");
                prop_assert_eq!(cached.dst_node, cold.dst_node);
                prop_assert!(cached.hops().eq(cold.hops()));
                prop_assert_eq!(cached.total_latency, cold.total_latency);
                prop_assert_eq!(cached.as_path(), cold.as_path());
            }
            // Anycast: the warm cache must reproduce the cold PoP choice.
            let mut cold_resolver = RouteResolver::new();
            match (
                warm.resolve(&topo, src, ANYCAST_IP),
                cold_resolver.resolve(&topo, src, ANYCAST_IP),
            ) {
                (Ok(cached), Ok(cold)) => {
                    prop_assert_eq!(cached.dst_node, cold.dst_node);
                    prop_assert!(cached.hops().eq(cold.hops()));
                    prop_assert_eq!(cached.total_latency, cold.total_latency);
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (a, b) => prop_assert!(false, "warm/cold disagree: {a:?} vs {b:?}"),
            }
        }
        // Re-resolving everything must not grow the cache.
        prop_assert_eq!(warm.cache_len(), len_after_warmup);
        prop_assert_eq!(warm.cache_misses(), len_after_warmup as u64);
    }

    /// Packet conservation: whatever the topology, the fault plan, the
    /// TTLs and the destinations (hosts, anycast, routers, unassigned
    /// space, an unreachable AS), a drained run accounts for every
    /// datagram that passed SAV exactly once.
    #[test]
    fn sim_stats_conserve_packets_under_faults(
        world in arb_world(),
        faults in arb_fault_plan(),
        seed in any::<u64>(),
        sends in proptest::collection::vec(
            (any::<usize>(), any::<usize>(), proptest::option::of(0u8..12), any::<bool>(),
             7u16..10, any::<u16>()),
            1..60,
        ),
    ) {
        let (topo, nodes) = build(&world);
        let mut targets: Vec<Ipv4Addr> = nodes.iter().map(|&n| topo.host_spec(n).ip).collect();
        targets.extend([
            ANYCAST_IP,
            ISLAND_IP,
            Ipv4Addr::new(198, 18, 0, 1), // unassigned
            Ipv4Addr::new(10, 0, 0, 1),   // a transit router
        ]);
        let mut scripts: Vec<Vec<UdpSend>> = vec![Vec::new(); nodes.len()];
        for (from, to, ttl, spoof, dst_port, txid) in sends {
            scripts[from % nodes.len()].push(UdpSend {
                src: spoof.then_some(Ipv4Addr::new(192, 0, 2, 99)),
                ttl,
                ..UdpSend::new(4_000, targets[to % targets.len()], dst_port, txid.to_be_bytes().to_vec())
            });
        }
        let config = SimConfig { faults: faults.salted(seed), ..SimConfig::default() };
        let mut sim = Simulator::new(topo, config);
        for (&node, script) in nodes.iter().zip(scripts) {
            for token in 0..script.len() as u64 {
                sim.schedule_timer(node, SimDuration::from_micros(100 * token), token);
            }
            sim.install(node, EchoClient { script });
        }
        prop_assert!(sim.run(), "finite scripts must drain");
        let stats = sim.stats();
        prop_assert!(stats.udp_sent > 0 || stats.dropped_sav > 0);
        prop_assert!(stats.conserved(), "not conserved: {}", stats);
    }

    #[test]
    fn route_is_deterministic(world in arb_world()) {
        let (topo, nodes) = build(&world);
        if nodes.len() < 2 {
            return Ok(());
        }
        let dst_ip = topo.host_spec(nodes[1]).ip;
        let mut r1 = RouteResolver::new();
        let mut r2 = RouteResolver::new();
        let p1 = r1.resolve(&topo, nodes[0], dst_ip).unwrap();
        let p2 = r2.resolve(&topo, nodes[0], dst_ip).unwrap();
        prop_assert_eq!(p1.router_hops(), p2.router_hops());
        for (a, b) in p1.hops().zip(p2.hops()) {
            prop_assert_eq!(a.ip, b.ip);
        }
    }
}
