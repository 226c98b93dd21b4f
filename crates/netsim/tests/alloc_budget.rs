//! Allocation budgets of the per-packet path: what one routed packet, one
//! queued event and one id-keyed lookup may cost.
//!
//! *Routes.* A census probes every host once, so almost every resolve is a
//! never-seen *host* pair — but, forwarders being consolidated onto few
//! resolvers, an already-seen *AS* pair. The resolver caches one transit
//! segment per AS pair and composes the path view per packet; this file
//! pins that a resolve allocates only when it meets a new AS pair, so a
//! per-host-pair `Path` creeping back fails tier-1 rather than only
//! drifting a benchmark.
//!
//! *The event loop.* The wheel writes each event into a recycled arena
//! node, payload events carry their packet inline and a handler's sends
//! and timers go straight into the queue, so a warmed simulator delivers
//! datagrams — and sets and cancels timers — without allocating, and a
//! `reset` world replays its schedule inside the arena it already has.
//! This is the test README's "allocation-free in steady state" cites.
//!
//! The library forbids `unsafe`; this test crate carries the one
//! `unsafe impl` a counting allocator needs. The count is per thread, so
//! the harness's other threads cannot disturb it.

use netsim::wheel::TimerWheel;
use netsim::{
    AsKind, AsSpec, CountryCode, Ctx, Datagram, Host, HostSpec, IntMap, NodeId, Payload,
    Relationship, RouteResolver, SimConfig, SimDuration, SimTime, Simulator, TimerId, Topology,
    TopologyBuilder, UdpSend,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a thread-local
// counter bump, which neither allocates nor unwinds (`try_with` turns the
// thread-teardown case into a skipped count).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`, plus the caller's `new_size` guarantee.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) `f` performs on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

fn ip(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
    Ipv4Addr::new(a, b, c, d)
}

const SERVERS: [Ipv4Addr; 2] = [Ipv4Addr::new(203, 0, 113, 1), Ipv4Addr::new(203, 0, 113, 2)];
/// A host in AS2, for a second AS pair from the same clients.
const MIDWAY: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 3);

/// Chain AS0 — AS1 — AS2 — AS3 with two clients in AS0 and two servers
/// (one behind a CPE) in AS3: four host pairs, one AS pair per direction.
/// One more host sits in AS2.
fn chain() -> (Topology, [NodeId; 2]) {
    let mut b = TopologyBuilder::new();
    let ases: Vec<_> = (0..4u8)
        .map(|i| {
            b.add_as(AsSpec {
                asn: 100 + u32::from(i),
                country: CountryCode::new("ZZZ"),
                kind: AsKind::Transit,
                sav_outbound: false,
                transit_routers: vec![ip(10, i, 0, 1), ip(10, i, 0, 2)],
            })
        })
        .collect();
    for pair in ases.windows(2) {
        b.connect(pair[0], pair[1], Relationship::Peer);
    }
    let clients = [
        b.add_host(ases[0], HostSpec::simple(ip(192, 0, 2, 1))),
        b.add_host(
            ases[0],
            HostSpec {
                access_routers: vec![ip(10, 0, 9, 1)],
                ..HostSpec::simple(ip(192, 0, 2, 2))
            },
        ),
    ];
    b.add_host(ases[2], HostSpec::simple(MIDWAY));
    b.add_host(ases[3], HostSpec::simple(SERVERS[0]));
    b.add_host(
        ases[3],
        HostSpec {
            access_routers: vec![ip(10, 3, 9, 1)],
            ..HostSpec::simple(SERVERS[1])
        },
    );
    (b.build().unwrap(), clients)
}

/// Resolve and read everything the simulator reads of a path.
fn route(r: &mut RouteResolver, t: &Topology, from: NodeId, to: Ipv4Addr) -> (usize, u64) {
    let path = r.resolve(t, from, to).expect("chain routes");
    let expiring = (0..=u8::MAX)
        .filter(|ttl| path.expiry_hop(*ttl).is_some())
        .count();
    let latency = path.hops().map(|h| h.latency.0).sum::<u64>() + path.total_latency.0;
    (
        expiring + path.router_hops() + path.as_path().len(),
        latency,
    )
}

#[test]
fn warm_resolve_allocates_nothing() {
    let (t, clients) = chain();
    let mut r = RouteResolver::new();
    let cold = route(&mut r, &t, clients[0], SERVERS[0]);
    let (n, warm) = allocations(|| route(&mut r, &t, clients[0], SERVERS[0]));
    assert_eq!(n, 0, "warm resolve took {n} allocations");
    assert_eq!(warm, cold);
}

#[test]
fn new_host_pair_of_a_known_as_pair_allocates_nothing() {
    let (t, clients) = chain();
    let mut r = RouteResolver::new();
    route(&mut r, &t, clients[0], SERVERS[0]);
    let (n, _) = allocations(|| {
        route(&mut r, &t, clients[0], SERVERS[1]);
        route(&mut r, &t, clients[1], SERVERS[0]);
        route(&mut r, &t, clients[1], SERVERS[1]);
    });
    assert_eq!(n, 0, "three never-seen host pairs took {n} allocations");
    assert_eq!((r.cache_len(), r.cache_misses(), r.cache_hits()), (1, 1, 3));
}

#[test]
fn new_as_pair_allocates_a_bounded_constant() {
    let (t, clients) = chain();
    let mut r = RouteResolver::new();
    let (n, _) = allocations(|| route(&mut r, &t, clients[0], SERVERS[0]));
    // The resolver's BFS scratch (distances, predecessors, queue), the AS
    // path, the exactly-sized segment and the map's first table: 6 today.
    assert!((1..=8).contains(&n), "new AS pair took {n} allocations");
    assert_eq!((r.cache_len(), r.cache_misses()), (1, 1));
}

#[test]
fn second_new_as_pair_reuses_the_bfs_scratch() {
    let (t, clients) = chain();
    let mut r = RouteResolver::new();
    route(&mut r, &t, clients[0], SERVERS[0]);
    let (n, _) = allocations(|| route(&mut r, &t, clients[0], MIDWAY));
    // What the route keeps — its AS path and its segment — and nothing
    // for the search that found it: 2 today, plus room for the map to grow.
    assert!((1..=4).contains(&n), "second AS pair took {n} allocations");
    assert_eq!((r.cache_len(), r.cache_misses()), (2, 2));
}

/// Sends a datagram back where it came from while it has replies `left`;
/// a timer serves the first one.
struct Echo {
    peer: Ipv4Addr,
    left: u32,
}

impl Host for Echo {
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
        if self.left > 0 {
            self.left -= 1;
            ctx.send_udp(UdpSend::reply_to(&dgram, dgram.payload.clone()));
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        ctx.send_udp(UdpSend::new(4000, self.peer, 53, Payload::empty()));
    }
}

/// Install the pair, serve, and run until `bounces` replies have landed;
/// returns the allocations of scheduling and running (installing boxes two
/// hosts: the world's cost, not the event loop's).
fn rally(sim: &mut Simulator, clients: [NodeId; 2], bounces: u32) -> u64 {
    let peers = [ip(192, 0, 2, 2), ip(192, 0, 2, 1)];
    for (node, peer) in clients.into_iter().zip(peers) {
        let left = bounces / 2;
        sim.install(node, Echo { peer, left });
    }
    let (n, drained) = allocations(|| {
        sim.schedule_timer(clients[0], SimDuration::ZERO, 0);
        sim.run()
    });
    assert!(drained, "the rally ends when the replies run out");
    n
}

#[test]
fn warmed_simulator_bounces_datagrams_without_allocating() {
    let (t, clients) = chain();
    let config = SimConfig::default();
    let mut sim = Simulator::new(t, config.clone());
    // Warm-up: the route, the arena's one or two nodes and the shared
    // empty payload.
    rally(&mut sim, clients, 10);
    let before = sim.stats().udp_delivered;
    let n = rally(&mut sim, clients, 1_000);
    assert_eq!(n, 0, "1 000 bounces took {n} allocations");
    assert_eq!(sim.stats().udp_delivered - before, 1_001);

    // `reset` keeps the queue's arena (and the routes): the same run on
    // the reset world allocates nothing from its first event on.
    sim.reset(&config);
    let n = rally(&mut sim, clients, 1_000);
    assert_eq!(n, 0, "the replay after reset took {n} allocations");
    assert_eq!(sim.stats().udp_delivered, 1_001);
}

/// A query loop with nothing lost: every millisecond tick arms a 20 ms
/// timeout and cancels the one the tick before armed.
struct Rearm {
    left: u32,
    armed: Option<TimerId>,
}

impl Host for Rearm {
    fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, _dgram: Datagram) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        assert_eq!(token, 0, "a cancelled timeout fired");
        if let Some(timeout) = self.armed.take() {
            assert!(ctx.cancel_timer(timeout));
        }
        if self.left > 0 {
            self.left -= 1;
            self.armed = Some(ctx.set_timer(SimDuration::from_millis(20), 1));
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
    }
}

#[test]
fn warmed_simulator_sets_and_cancels_timers_without_allocating() {
    let (t, clients) = chain();
    let mut sim = Simulator::new(t, SimConfig::default());
    let mut cycles = |left: u32| {
        sim.install(clients[0], Rearm { left, armed: None });
        let (n, drained) = allocations(|| {
            sim.schedule_timer(clients[0], SimDuration::ZERO, 0);
            sim.run()
        });
        assert!(drained);
        n
    };
    // Warm-up: the arena's cells for one tick and the cancelled timeouts
    // that wait, emptied, for the wheel to walk their slot.
    cycles(100);
    let n = cycles(1_000);
    assert_eq!(n, 0, "1 000 set / cancel cycles took {n} allocations");
    let stats = sim.stats();
    assert_eq!((stats.timers_cancelled, stats.timers_fired), (1_100, 1_102));
    assert!(stats.conserved(), "{stats}");
}

#[test]
fn cleared_wheel_replays_its_schedule_without_allocating() {
    // The benchmark kernel's census-shaped schedule, plus one event per
    // burst beyond the horizon so the overflow heap is in play too.
    fn drive(wheel: &mut TimerWheel<u64>) -> u64 {
        let (mut seq, mut popped) = (0u64, 0u64);
        for burst in 0..5_000u64 {
            let now = burst * 800;
            for at in [
                now + 800,
                now + 30_000 + (burst % 97) * 100,
                now + 20_000_000,
                now + (1 << 37),
            ] {
                wheel.push(SimTime(at), seq, seq);
                seq += 1;
            }
            while wheel.pop_at_or_before(SimTime(now)).is_some() {
                popped += 1;
            }
        }
        popped
    }
    let mut wheel = TimerWheel::new();
    let (cold, popped) = allocations(|| drive(&mut wheel));
    assert!(cold > 0, "the first pass grows the arena");
    assert!(wheel.len() > 5_000, "timeouts and far events stay pending");
    wheel.clear();
    let (n, again) = allocations(|| drive(&mut wheel));
    assert_eq!(n, 0, "the replay took {n} allocations");
    assert_eq!(again, popped);
}

#[test]
fn id_keyed_lookups_allocate_nothing() {
    // Keys as the per-packet tables hold them: addresses (one `u32` to
    // the hasher), tuples of header fields, and octet arrays — the
    // `write(&[u8])` path behind a length prefix.
    let mut by_addr: IntMap<Ipv4Addr, u32> = IntMap::default();
    let mut by_tuple: IntMap<(u16, u16), u32> = IntMap::default();
    let mut by_octets: IntMap<[u8; 4], u32> = IntMap::default();
    for i in 0..1_000u32 {
        by_addr.insert(Ipv4Addr::from(0x0B00_0000 + i), i);
        by_tuple.insert((33_000 + i as u16, 0x2861), i);
        by_octets.insert((0x0B00_0000 + i).to_be_bytes(), i);
    }
    let (n, sum) = allocations(|| {
        (0..1_000u32)
            .map(|i| {
                by_addr[&Ipv4Addr::from(0x0B00_0000 + i)]
                    + by_tuple[&(33_000 + i as u16, 0x2861)]
                    + by_octets[&(0x0B00_0000 + i).to_be_bytes()]
            })
            .sum::<u32>()
    });
    assert_eq!(n, 0, "3 000 lookups took {n} allocations");
    assert_eq!(sum, 3 * (0..1_000).sum::<u32>());
}
