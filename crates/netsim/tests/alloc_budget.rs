//! Allocation budget of route resolution: what one routed packet may cost.
//!
//! A census probes every host once, so almost every resolve is a
//! never-seen *host* pair — but, forwarders being consolidated onto few
//! resolvers, an already-seen *AS* pair. The resolver caches one transit
//! segment per AS pair and composes the path view per packet; this file
//! pins that a resolve allocates only when it meets a new AS pair, so a
//! per-host-pair `Path` creeping back fails tier-1 rather than only
//! drifting a benchmark.
//!
//! The library forbids `unsafe`; this test crate carries the one
//! `unsafe impl` a counting allocator needs. The count is per thread, so
//! the harness's other threads cannot disturb it.

use netsim::{
    AsKind, AsSpec, CountryCode, HostSpec, NodeId, Relationship, RouteResolver, Topology,
    TopologyBuilder,
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
