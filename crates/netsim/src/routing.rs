//! Path computation: one shared transit segment per AS pair, composed
//! with the endpoints' access routers per packet.
//!
//! A route is resolved once per packet as:
//!
//! ```text
//! src host ── [src access routers] ── [transit routers of every AS on the
//! AS path, in traversal order] ── [dst access routers, reversed] ── dst host
//! ```
//!
//! Only the middle part depends on the AS pair alone, so only it is cached
//! ([`RouteResolver`]); a [`Path`] borrows it and the two hosts' specs.
//!
//! TTL expiry is then evaluated arithmetically against the hop count, so a
//! 30-probe DNSRoute++ TTL sweep costs no more events than 30 plain sends.
//! Anycast destinations resolve to the instance whose AS is closest (in AS
//! hops) to the source AS — the mechanism behind Figure 6's ranking of
//! Cloudflare < Google < OpenDNS path lengths: more PoPs means a closer
//! nearest PoP.

use crate::intmap::IntMap;
use crate::time::SimDuration;
use crate::topology::{AsId, IpOwner, NodeId, Topology};
use std::collections::VecDeque;
use std::net::Ipv4Addr;

/// Per-router forwarding latency (one way).
const HOP_LATENCY: SimDuration = SimDuration(1_000);
/// Extra latency for crossing an AS boundary (peering/transit link).
const AS_CROSS_LATENCY: SimDuration = SimDuration(4_000);

/// One router hop on a path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// Router address (sources ICMP Time Exceeded when TTL dies here).
    pub ip: Ipv4Addr,
    /// AS the router belongs to.
    pub as_id: AsId,
    /// Cumulative one-way latency from the source to this router.
    pub latency: SimDuration,
}

/// The part of a route every host pair of one `(src AS, dst AS)` shares:
/// the AS path and the transit routers crossed along it.
#[derive(Debug)]
struct AsRoute {
    /// AS-level path (src AS first, dst AS last).
    as_path: Vec<AsId>,
    /// Transit-router hops in traversal order; `latency` is cumulative
    /// from the segment's entry (the last source access router).
    hops: Vec<Hop>,
    /// One-way latency across the whole segment.
    latency: SimDuration,
}

impl AsRoute {
    /// `None` when the AS graph has no valley-free path `src → dst`.
    fn build(topo: &Topology, src: AsId, dst: AsId, bfs: &mut Bfs) -> Option<Self> {
        let as_path = bfs.as_path(topo, src, dst)?;
        let routers = |as_id: &AsId| topo.as_spec(*as_id).transit_routers.len();
        let mut hops = Vec::with_capacity(as_path.iter().map(routers).sum());
        let mut latency = SimDuration::ZERO;
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
        Some(AsRoute {
            as_path,
            hops,
            latency,
        })
    }
}

/// A fully resolved unidirectional path: a borrowed view over the source
/// host's access routers, the cached segment of its AS pair, and the
/// destination host's access routers. Nothing is allocated per resolve.
#[derive(Debug, Clone, Copy)]
pub struct Path<'a> {
    /// Destination node (for anycast: the selected instance).
    pub dst_node: NodeId,
    /// Total one-way latency source → destination host.
    pub total_latency: SimDuration,
    /// Source access routers, core-side first: traversed in reverse.
    src_access: &'a [Ipv4Addr],
    src_link: SimDuration,
    /// Destination access routers, traversed as stored.
    dst_access: &'a [Ipv4Addr],
    route: &'a AsRoute,
}

impl<'a> Path<'a> {
    /// Number of IP hops a probe must survive to be *delivered*: each
    /// router decrements once; the destination host does not decrement.
    /// A packet sent with TTL `t` is delivered iff `t > router_hops()`,
    /// and the remaining TTL on arrival is `t - router_hops()`.
    pub fn router_hops(&self) -> usize {
        self.src_access.len() + self.route.hops.len() + self.dst_access.len()
    }

    /// AS-level path (src AS first, dst AS last).
    pub fn as_path(&self) -> &'a [AsId] {
        &self.route.as_path
    }

    /// Router hops in order; does not include the destination host.
    pub fn hops(&self) -> impl ExactSizeIterator<Item = Hop> + 'a {
        let path = *self;
        (0..path.router_hops()).map(move |i| path.hop(i))
    }

    /// Where a packet with initial TTL `t` dies, if it does: the router
    /// that drops it and emits Time Exceeded.
    pub fn expiry_hop(&self, ttl: u8) -> Option<Hop> {
        // TTL 0 never leaves the first router either.
        let t = usize::from(ttl).max(1);
        (t <= self.router_hops()).then(|| self.hop(t - 1))
    }

    /// The `i`-th router hop, `i < router_hops()`.
    fn hop(&self, i: usize) -> Hop {
        let (src_n, seg_n) = (self.src_access.len(), self.route.hops.len());
        let as_path = &self.route.as_path;
        let routers = |n: usize| HOP_LATENCY.saturating_mul(n as u64);
        // Segment latencies are relative to leaving the source's access.
        let entry = self.src_link + routers(src_n);
        let (ip, as_id, latency) = if i < src_n {
            let ip = self.src_access[src_n - 1 - i];
            (ip, as_path[0], self.src_link + routers(i + 1))
        } else if let Some(hop) = self.route.hops.get(i - src_n) {
            (hop.ip, hop.as_id, entry + hop.latency)
        } else {
            let j = i - src_n - seg_n;
            let latency = entry + self.route.latency + routers(j + 1);
            (self.dst_access[j], as_path[as_path.len() - 1], latency)
        };
        Hop { ip, as_id, latency }
    }
}

/// Why a route could not be resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteError {
    /// Destination IP is not assigned to any host or anycast group.
    NoSuchHost,
    /// Destination is a router address (we only deliver to hosts).
    RouterAddress,
    /// The AS graph has no path between the endpoints.
    Unreachable,
}

/// Route resolver with three caches, none keyed by host:
///
/// * **AS routes** keyed `(src AS, dst AS)` — the AS path plus the
///   transit-router segment along it. A census probes every host once
///   but reuses the scanner-AS entry for every target in the same
///   destination AS, and forwarders consolidated onto few resolvers
///   share entries the same way;
/// * **BFS distances** keyed by source AS — one BFS serves every
///   PoP-proximity query from that AS;
/// * **anycast selection** keyed `(src AS, service IP)`.
///
/// Routing state is O(AS pairs touched), never O(host pairs). A *hit*
/// found its segment, a *miss* built it; `hits + misses` counts the
/// successfully routed resolves (failed ones are neither).
#[derive(Debug, Default)]
pub struct RouteResolver {
    route_cache: IntMap<(AsId, AsId), Option<AsRoute>>,
    distance_cache: IntMap<AsId, Vec<Option<u32>>>,
    anycast_cache: IntMap<(AsId, Ipv4Addr), Option<NodeId>>,
    /// Working memory of the search behind every route and distance miss.
    bfs: Bfs,
    routed: u64,
    misses: u64,
}

impl RouteResolver {
    /// Fresh resolver with an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached AS routes. Bounded by the number of distinct
    /// `(src AS, dst AS)` pairs ever resolved.
    pub fn cache_len(&self) -> usize {
        self.route_cache.len()
    }

    /// Cumulative resolves whose AS route was already cached.
    pub fn cache_hits(&self) -> u64 {
        self.routed - self.misses
    }

    /// Cumulative resolves that built their AS route.
    pub fn cache_misses(&self) -> u64 {
        self.misses
    }

    /// Zero the hit/miss counters while keeping every cached entry.
    /// Routes are a pure function of the immutable topology, so a
    /// simulator reset keeps the caches and restarts only the counters.
    pub fn reset_counters(&mut self) {
        self.routed = 0;
        self.misses = 0;
    }

    /// BFS distances from `src` to every AS, cached. One BFS serves every
    /// anycast PoP-selection query from the same source AS — the hot path
    /// of an Internet-wide census.
    pub fn distances_from(&mut self, topo: &Topology, src: AsId) -> &[Option<u32>] {
        self.distance_cache.entry(src).or_insert_with(|| {
            self.bfs.run(topo, src, None);
            self.bfs.dist.clone()
        })
    }

    /// Select the anycast instance nearest to `src_as` (min AS distance,
    /// then lowest node id for determinism), memoized per pair.
    pub fn select_anycast_instance(
        &mut self,
        topo: &Topology,
        src_as: AsId,
        service_ip: Ipv4Addr,
    ) -> Option<NodeId> {
        if let Some(&cached) = self.anycast_cache.get(&(src_as, service_ip)) {
            return cached;
        }
        let group = topo.anycast_group(service_ip)?;
        let distances = self.distances_from(topo, src_as);
        let reachable = |&inst: &NodeId| Some((distances[topo.as_of_node(inst).0 as usize]?, inst));
        let nearest = group.instances.iter().filter_map(reachable).min();
        let selected = nearest.map(|(_, node)| node);
        self.anycast_cache.insert((src_as, service_ip), selected);
        selected
    }

    /// Resolve the full router-level path from host `src_node` to IP `dst`.
    ///
    /// The first resolve for an AS pair builds its segment; every later
    /// resolve between any two hosts of those ASes borrows it, so a
    /// never-seen host pair costs one hash probe and no allocation.
    /// Anycast destinations are memoized per `(src AS, service IP)` before
    /// the route lookup, so a warm resolver answers anycast sends from two
    /// hash probes.
    pub fn resolve<'a>(
        &'a mut self,
        topo: &'a Topology,
        src_node: NodeId,
        dst: Ipv4Addr,
    ) -> Result<Path<'a>, RouteError> {
        let src_as = topo.as_of_node(src_node);
        let dst_node = match topo.owner_of_ip(dst) {
            None => return Err(RouteError::NoSuchHost),
            Some(IpOwner::Router(_)) => return Err(RouteError::RouterAddress),
            Some(IpOwner::Host(n)) => n,
            Some(IpOwner::Anycast) => self
                .select_anycast_instance(topo, src_as, dst)
                .ok_or(RouteError::Unreachable)?,
        };
        let dst_as = topo.as_of_node(dst_node);
        // One map probe per resolve, hit or miss.
        let mut built = false;
        let route = self
            .route_cache
            .entry((src_as, dst_as))
            .or_insert_with(|| {
                built = true;
                AsRoute::build(topo, src_as, dst_as, &mut self.bfs)
            })
            .as_ref()
            .ok_or(RouteError::Unreachable)?;
        self.routed += 1;
        self.misses += u64::from(built);
        let src_spec = topo.host_spec(src_node);
        let dst_spec = topo.host_spec(dst_node);
        let access_n = (src_spec.access_routers.len() + dst_spec.access_routers.len()) as u64;
        Ok(Path {
            dst_node,
            total_latency: src_spec.link_latency
                + HOP_LATENCY.saturating_mul(access_n)
                + route.latency
                + dst_spec.link_latency,
            src_access: &src_spec.access_routers,
            src_link: src_spec.link_latency,
            dst_access: &dst_spec.access_routers,
            route,
        })
    }
}

/// Whether an AS may carry traffic it neither sources nor sinks. Only
/// transit networks do — content networks (Cloudflare's omnipresent
/// peering!) and eyeball ISPs never provide transit, the "valley-free"
/// property of inter-domain routing. Without this rule a heavily-peered
/// content AS becomes a universal shortcut and every path collapses.
fn provides_transit(topo: &Topology, a: AsId) -> bool {
    matches!(topo.as_spec(a).kind, crate::topology::AsKind::Transit)
}

/// Valley-free BFS over the AS graph. The three buffers are the
/// resolver's, cleared and refilled per search: a census meets a new AS
/// pair every few targets, and three fresh ones each time were the largest
/// transient allocations of its scan.
#[derive(Debug, Default)]
struct Bfs {
    /// Hop distance of every AS the last search discovered.
    dist: Vec<Option<u32>>,
    /// BFS-tree predecessor of each.
    prev: Vec<Option<AsId>>,
    queue: VecDeque<AsId>,
}

impl Bfs {
    /// Search from `src` in adjacency order (sorted at topology build, so
    /// ties break deterministically), stopping early once `until` is
    /// discovered.
    fn run(&mut self, topo: &Topology, src: AsId, until: Option<AsId>) {
        let n = topo.as_count();
        let Bfs { dist, prev, queue } = self;
        dist.clear();
        dist.resize(n, None);
        prev.clear();
        prev.resize(n, None);
        queue.clear();
        if (src.0 as usize) >= n {
            return;
        }
        dist[src.0 as usize] = Some(0);
        queue.push_back(src);
        while let Some(cur) = queue.pop_front() {
            // The source always forwards its own traffic; everything else
            // on the path must be a transit network.
            if cur != src && !provides_transit(topo, cur) {
                continue;
            }
            let d = dist[cur.0 as usize].expect("visited");
            for &(next, _) in topo.as_neighbors(cur) {
                if dist[next.0 as usize].is_none() {
                    dist[next.0 as usize] = Some(d + 1);
                    prev[next.0 as usize] = Some(cur);
                    if Some(next) == until {
                        return;
                    }
                    queue.push_back(next);
                }
            }
        }
    }

    /// Shortest AS path, inclusive of endpoints.
    fn as_path(&mut self, topo: &Topology, src: AsId, dst: AsId) -> Option<Vec<AsId>> {
        if src == dst {
            return Some(vec![src]);
        }
        self.run(topo, src, Some(dst));
        // `None`: an AS outside the topology, or one the search never
        // reached.
        let hops = self.dist.get(dst.0 as usize).copied().flatten()?;
        let mut path = Vec::with_capacity(hops as usize + 1);
        path.push(dst);
        while let Some(p) = self.prev[path[path.len() - 1].0 as usize] {
            path.push(p);
        }
        path.reverse();
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use crate::topology::{AsKind, AsSpec, CountryCode, HostSpec, Relationship, TopologyBuilder};

    fn ip(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr::new(a, b, c, d)
    }

    fn as_spec(asn: u32, routers: Vec<Ipv4Addr>) -> AsSpec {
        AsSpec {
            asn,
            country: CountryCode::new("ZZZ"),
            kind: AsKind::Transit,
            sav_outbound: false,
            transit_routers: routers,
        }
    }

    /// Chain topology: AS0 — AS1 — AS2 — AS3, host in AS0 and AS3.
    fn chain() -> (Topology, NodeId, NodeId, Ipv4Addr) {
        let mut b = TopologyBuilder::new();
        let a0 = b.add_as(as_spec(100, vec![ip(10, 0, 0, 1)]));
        let a1 = b.add_as(as_spec(101, vec![ip(10, 1, 0, 1), ip(10, 1, 0, 2)]));
        let a2 = b.add_as(as_spec(102, vec![ip(10, 2, 0, 1)]));
        let a3 = b.add_as(as_spec(103, vec![ip(10, 3, 0, 1)]));
        b.connect(a0, a1, Relationship::ProviderCustomer);
        b.connect(a1, a2, Relationship::Peer);
        b.connect(a2, a3, Relationship::ProviderCustomer);
        let src = b.add_host(
            a0,
            HostSpec {
                ip: ip(192, 0, 2, 1),
                extra_ips: vec![],
                access_routers: vec![ip(10, 0, 9, 1)],
                link_latency: SimDuration::from_millis(2),
            },
        );
        let dst_ip = ip(203, 0, 113, 1);
        let dst = b.add_host(
            a3,
            HostSpec {
                ip: dst_ip,
                extra_ips: vec![],
                access_routers: vec![ip(10, 3, 9, 1)],
                link_latency: SimDuration::from_millis(2),
            },
        );
        (b.build().unwrap(), src, dst, dst_ip)
    }

    #[test]
    fn chain_path_hops_in_order() {
        let (t, src, dst, dst_ip) = chain();
        let mut r = RouteResolver::new();
        let p = r.resolve(&t, src, dst_ip).unwrap();
        assert_eq!(p.dst_node, dst);
        let hop_ips: Vec<_> = p.hops().map(|h| h.ip).collect();
        assert_eq!(
            hop_ips,
            vec![
                ip(10, 0, 9, 1), // src access
                ip(10, 0, 0, 1), // AS0 transit
                ip(10, 1, 0, 1), // AS1 transit
                ip(10, 1, 0, 2),
                ip(10, 2, 0, 1), // AS2 transit
                ip(10, 3, 0, 1), // AS3 transit
                ip(10, 3, 9, 1), // dst access
            ]
        );
        assert_eq!(p.as_path().len(), 4);
        assert_eq!(p.router_hops(), 7);
    }

    #[test]
    fn expiry_hop_semantics() {
        let (t, src, _dst, dst_ip) = chain();
        let mut r = RouteResolver::new();
        let p = r.resolve(&t, src, dst_ip).unwrap();
        // TTL 1 dies at the first router.
        assert_eq!(p.expiry_hop(1).unwrap().ip, ip(10, 0, 9, 1));
        // TTL equal to router count dies at the last router.
        assert_eq!(p.expiry_hop(7).unwrap().ip, ip(10, 3, 9, 1));
        // TTL beyond router count is delivered.
        assert!(p.expiry_hop(8).is_none());
    }

    #[test]
    fn latency_is_monotone_along_path() {
        let (t, src, _dst, dst_ip) = chain();
        let mut r = RouteResolver::new();
        let p = r.resolve(&t, src, dst_ip).unwrap();
        let hops: Vec<Hop> = p.hops().collect();
        for w in hops.windows(2) {
            assert!(w[0].latency < w[1].latency);
        }
        assert!(p.total_latency > hops.last().unwrap().latency);
    }

    #[test]
    fn cache_reuses_as_paths() {
        let (t, src, _dst, dst_ip) = chain();
        let mut r = RouteResolver::new();
        let _ = r.resolve(&t, src, dst_ip).unwrap();
        let before = r.cache_len();
        let _ = r.resolve(&t, src, dst_ip).unwrap();
        assert_eq!(r.cache_len(), before, "second resolve must hit the cache");
    }

    #[test]
    fn path_cache_bounded_by_distinct_pairs() {
        let (t, src, _dst, dst_ip) = chain();
        let mut r = RouteResolver::new();
        for _ in 0..100 {
            let _ = r.resolve(&t, src, dst_ip).unwrap();
        }
        assert_eq!(r.cache_len(), 1, "one (src AS, dst AS) pair, one entry");
        assert_eq!(r.cache_misses(), 1);
        assert_eq!(r.cache_hits(), 99);
        // The reverse direction is a second AS pair: exactly one more
        // entry, repeats add none.
        let back = r.resolve(&t, _dst, ip(192, 0, 2, 1)).unwrap();
        assert_eq!(back.dst_node, src);
        for _ in 0..10 {
            let _ = r.resolve(&t, _dst, ip(192, 0, 2, 1)).unwrap();
        }
        assert_eq!(r.cache_len(), 2);
    }

    /// Two host pairs of one AS pair share one segment: the second pair
    /// is a hit that borrows the first pair's allocation, and only the
    /// access part of the path differs.
    #[test]
    fn warm_resolve_returns_shared_path() {
        let mut b = TopologyBuilder::new();
        let a0 = b.add_as(as_spec(100, vec![ip(10, 0, 0, 1)]));
        let a1 = b.add_as(as_spec(101, vec![ip(10, 1, 0, 1)]));
        b.connect(a0, a1, Relationship::Peer);
        let src = b.add_host(a0, HostSpec::simple(ip(192, 0, 2, 1)));
        let _near = b.add_host(a1, HostSpec::simple(ip(203, 0, 113, 1)));
        let _behind_cpe = b.add_host(
            a1,
            HostSpec {
                access_routers: vec![ip(10, 1, 9, 1)],
                ..HostSpec::simple(ip(203, 0, 113, 2))
            },
        );
        let t = b.build().unwrap();
        let mut r = RouteResolver::new();
        let first = r.resolve(&t, src, ip(203, 0, 113, 1)).unwrap();
        let (first_segment, first_hops) = (first.as_path().as_ptr(), first.router_hops());
        let second = r.resolve(&t, src, ip(203, 0, 113, 2)).unwrap();
        assert!(
            std::ptr::eq(first_segment, second.as_path().as_ptr()),
            "a known AS pair must borrow the cached segment, not rebuild it"
        );
        assert_eq!(second.router_hops(), first_hops + 1);
        assert_eq!(second.hops().last().unwrap().ip, ip(10, 1, 9, 1));
        assert_eq!((r.cache_len(), r.cache_misses(), r.cache_hits()), (1, 1, 1));
    }

    #[test]
    fn unknown_destination_errors() {
        let (t, src, _dst, _dst_ip) = chain();
        let mut r = RouteResolver::new();
        assert!(matches!(
            r.resolve(&t, src, ip(198, 18, 0, 1)),
            Err(RouteError::NoSuchHost)
        ));
        assert!(matches!(
            r.resolve(&t, src, ip(10, 1, 0, 1)),
            Err(RouteError::RouterAddress)
        ));
    }

    #[test]
    fn disconnected_as_unreachable() {
        let mut b = TopologyBuilder::new();
        let a0 = b.add_as(as_spec(100, vec![]));
        let a1 = b.add_as(as_spec(101, vec![]));
        let src = b.add_host(a0, HostSpec::simple(ip(192, 0, 2, 1)));
        let _dst = b.add_host(a1, HostSpec::simple(ip(203, 0, 113, 1)));
        let t = b.build().unwrap();
        let mut r = RouteResolver::new();
        assert!(matches!(
            r.resolve(&t, src, ip(203, 0, 113, 1)),
            Err(RouteError::Unreachable)
        ));
    }

    #[test]
    fn intra_as_path_has_no_crossing() {
        let mut b = TopologyBuilder::new();
        let a0 = b.add_as(as_spec(100, vec![ip(10, 0, 0, 1)]));
        let src = b.add_host(a0, HostSpec::simple(ip(192, 0, 2, 1)));
        let _dst = b.add_host(a0, HostSpec::simple(ip(192, 0, 2, 2)));
        let t = b.build().unwrap();
        let mut r = RouteResolver::new();
        let p = r.resolve(&t, src, ip(192, 0, 2, 2)).unwrap();
        assert_eq!(p.as_path().len(), 1);
        assert_eq!(p.router_hops(), 1);
    }

    /// Anycast: with a near PoP (1 AS hop) and a far PoP (3 AS hops), the
    /// near one must be selected — the Figure 6 mechanism.
    #[test]
    fn anycast_selects_nearest_pop() {
        let mut b = TopologyBuilder::new();
        let a0 = b.add_as(as_spec(100, vec![ip(10, 0, 0, 1)]));
        let a1 = b.add_as(as_spec(101, vec![ip(10, 1, 0, 1)]));
        let a2 = b.add_as(as_spec(102, vec![ip(10, 2, 0, 1)]));
        let a3 = b.add_as(as_spec(103, vec![ip(10, 3, 0, 1)]));
        b.connect(a0, a1, Relationship::Peer);
        b.connect(a1, a2, Relationship::Peer);
        b.connect(a2, a3, Relationship::Peer);
        let src = b.add_host(a0, HostSpec::simple(ip(192, 0, 2, 1)));
        let near = b.add_host(a1, HostSpec::simple(ip(198, 51, 100, 1)));
        let far = b.add_host(a3, HostSpec::simple(ip(198, 51, 100, 2)));
        let svc = ip(8, 8, 8, 8);
        b.add_anycast_instance(svc, far);
        b.add_anycast_instance(svc, near);
        let t = b.build().unwrap();
        let mut r = RouteResolver::new();
        let p = r.resolve(&t, src, svc).unwrap();
        assert_eq!(p.dst_node, near);
        // From the far host's perspective the far PoP instance wins.
        let p2 = r.resolve(&t, far, svc).unwrap();
        assert_eq!(p2.dst_node, far);
    }

    #[test]
    fn as_distance_zero_for_same_as() {
        let (t, src, _, _) = chain();
        let mut r = RouteResolver::new();
        let a = t.as_of_node(src);
        assert_eq!(r.distances_from(&t, a)[a.0 as usize], Some(0));
    }
}
