//! Internet topology: autonomous systems, routers, hosts, anycast groups.
//!
//! The topology is built once through [`TopologyBuilder`], validated, and
//! then immutable for the lifetime of a simulation. Routing (path
//! computation over this graph) lives in [`crate::routing`].

use crate::intmap::IntMap;
use crate::time::SimDuration;
use std::collections::HashMap;
use std::fmt;
use std::net::Ipv4Addr;

/// Dense index of an autonomous system within a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AsId(pub u32);

/// Dense index of a host node within a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl fmt::Display for AsId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "as#{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node#{}", self.0)
    }
}

/// ISO-3166-alpha-3-style country code (e.g. `BRA`, `IND`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CountryCode(pub [u8; 3]);

impl CountryCode {
    /// Build from a 3-letter string. Panics on wrong length (codes are
    /// compile-time constants in `inetgen`).
    pub fn new(code: &str) -> Self {
        let b = code.as_bytes();
        assert_eq!(b.len(), 3, "country code must be 3 letters, got {code:?}");
        CountryCode([b[0], b[1], b[2]])
    }

    /// The code as a string slice.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.0).unwrap_or("???")
    }
}

impl fmt::Display for CountryCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// Network type of an AS, mirroring the paper's PeeringDB-based
/// classification (Appendix E: Cable/DSL/ISP, NSP, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AsKind {
    /// Transit / network service provider.
    Transit,
    /// Eyeball (Cable/DSL/ISP) network — where the paper finds 79 % of the
    /// top-100 transparent-forwarder ASes.
    EyeballIsp,
    /// Content / cloud network (public resolver PoPs live here).
    Content,
    /// Education / research.
    Education,
    /// Not classified in PeeringDB — the paper manually reclassifies these.
    Unclassified,
}

/// Business relationship between two connected ASes (ground truth used to
/// evaluate DNSRoute++'s inference, §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relationship {
    /// First AS is the provider, second the customer.
    ProviderCustomer,
    /// Settlement-free peering (e.g. at an IXP, like the sensor network
    /// peering directly with Google in §3.1).
    Peer,
}

/// Specification of an AS, supplied by the generator.
#[derive(Debug, Clone)]
pub struct AsSpec {
    /// Public AS number (may be 32-bit, as 65 of the paper's top-100 are).
    pub asn: u32,
    /// Hosting country.
    pub country: CountryCode,
    /// Network type.
    pub kind: AsKind,
    /// Whether this AS filters spoofed *outbound* packets (BCP 38 / SAV).
    /// Transparent forwarders can only operate where this is `false` (§2).
    pub sav_outbound: bool,
    /// Router IPs traversed when a path crosses this AS, in traversal
    /// order. One to three is typical.
    pub transit_routers: Vec<Ipv4Addr>,
}

/// Specification of a host, supplied by the generator.
#[derive(Debug, Clone)]
pub struct HostSpec {
    /// Primary address (the one the host answers from by default).
    pub ip: Ipv4Addr,
    /// Additional owned addresses (Sensor 2 in §3.1 uses two addresses in
    /// the same /24).
    pub extra_ips: Vec<Ipv4Addr>,
    /// Access routers between this host and its AS's transit routers
    /// (closest to the host last; usually one CPE-side gateway).
    pub access_routers: Vec<Ipv4Addr>,
    /// Last-mile link latency (one way).
    pub link_latency: SimDuration,
}

impl HostSpec {
    /// A minimal host with just a primary IP and a 2 ms access link.
    pub fn simple(ip: Ipv4Addr) -> Self {
        HostSpec {
            ip,
            extra_ips: Vec::new(),
            access_routers: Vec::new(),
            link_latency: SimDuration::from_millis(2),
        }
    }
}

/// What an IP address belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IpOwner {
    /// A host's (primary or extra) unicast address.
    Host(NodeId),
    /// A router inside an AS.
    Router(AsId),
    /// An anycast service address (deliverable to any instance).
    Anycast,
}

#[derive(Debug)]
pub(crate) struct HostData {
    pub as_id: AsId,
    pub spec: HostSpec,
}

/// An anycast service: one IP, many instances.
#[derive(Debug, Clone)]
pub struct AnycastGroup {
    /// The shared service address (e.g. 8.8.8.8).
    pub ip: Ipv4Addr,
    /// Instance nodes (PoPs), in registration order.
    pub instances: Vec<NodeId>,
}

/// Errors detected while building a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// The same IP was assigned twice.
    DuplicateIp(Ipv4Addr),
    /// An AS or node index was out of range.
    BadIndex(String),
    /// Two ASes were connected twice.
    DuplicateLink(u32, u32),
    /// An anycast group has no instances.
    EmptyAnycastGroup(Ipv4Addr),
    /// An AS was declared with the same ASN twice.
    DuplicateAsn(u32),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::DuplicateIp(ip) => write!(f, "IP {ip} assigned twice"),
            TopologyError::BadIndex(what) => write!(f, "bad index: {what}"),
            TopologyError::DuplicateLink(a, b) => write!(f, "ASes {a} and {b} linked twice"),
            TopologyError::EmptyAnycastGroup(ip) => write!(f, "anycast {ip} has no instances"),
            TopologyError::DuplicateAsn(asn) => write!(f, "ASN {asn} declared twice"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// Builder for [`Topology`]. All mutation happens here; the built topology
/// is immutable.
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    ases: Vec<AsSpec>,
    hosts: Vec<HostData>,
    anycast: IntMap<Ipv4Addr, Vec<NodeId>>,
    links: Vec<(AsId, AsId, Relationship)>,
}

impl TopologyBuilder {
    /// Fresh, empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an AS; returns its dense id.
    pub fn add_as(&mut self, spec: AsSpec) -> AsId {
        let id = AsId(self.ases.len() as u32);
        self.ases.push(spec);
        id
    }

    /// Connect two ASes. For [`Relationship::ProviderCustomer`], `a` is the
    /// provider and `b` the customer.
    pub fn connect(&mut self, a: AsId, b: AsId, rel: Relationship) {
        self.links.push((a, b, rel));
    }

    /// Register a host inside `as_id`; returns its node id.
    pub fn add_host(&mut self, as_id: AsId, spec: HostSpec) -> NodeId {
        let id = NodeId(self.hosts.len() as u32);
        self.hosts.push(HostData { as_id, spec });
        id
    }

    /// Register `node` as an instance (PoP) of the anycast service at `ip`.
    pub fn add_anycast_instance(&mut self, ip: Ipv4Addr, node: NodeId) {
        self.anycast.entry(ip).or_default().push(node);
    }

    /// Number of ASes added so far.
    pub fn as_count(&self) -> usize {
        self.ases.len()
    }

    /// Number of hosts added so far.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// Validate and freeze.
    pub fn build(self) -> Result<Topology, TopologyError> {
        // Validate indices and wire up adjacency. The original link list
        // carries provider→customer direction, which adjacency (symmetric)
        // cannot represent, so the directed pairs are captured here.
        let n_as = self.ases.len() as u32;
        let n_host = self.hosts.len() as u32;
        let mut seen_links: HashMap<(u32, u32), ()> = HashMap::new();
        let mut pc_pairs = Vec::new();
        // Every AS's neighbors in one arena, each AS's run in link order:
        // count, then place.
        let mut neighbor_starts = vec![0u32; n_as as usize + 1];
        for &(a, b, rel) in &self.links {
            if a.0 >= n_as || b.0 >= n_as {
                return Err(TopologyError::BadIndex(format!("link {a}-{b}")));
            }
            let key = (a.0.min(b.0), a.0.max(b.0));
            if seen_links.insert(key, ()).is_some() {
                return Err(TopologyError::DuplicateLink(a.0, b.0));
            }
            if rel == Relationship::ProviderCustomer {
                pc_pairs.push((self.ases[a.0 as usize].asn, self.ases[b.0 as usize].asn));
            }
            neighbor_starts[a.0 as usize + 1] += 1;
            neighbor_starts[b.0 as usize + 1] += 1;
        }
        for i in 1..neighbor_starts.len() {
            neighbor_starts[i] += neighbor_starts[i - 1];
        }
        let mut neighbors = vec![(AsId(0), Relationship::Peer); 2 * self.links.len()];
        let mut next: Vec<u32> = neighbor_starts[..n_as as usize].to_vec();
        for &(a, b, rel) in &self.links {
            for (from, to) in [(a, b), (b, a)] {
                neighbors[next[from.0 as usize] as usize] = (to, rel);
                next[from.0 as usize] += 1;
            }
        }
        pc_pairs.sort_unstable();
        pc_pairs.dedup();
        // Deterministic neighbor order for reproducible BFS tie-breaking.
        for run in neighbor_starts.windows(2) {
            neighbors[run[0] as usize..run[1] as usize].sort_by_key(|(id, _)| *id);
        }

        // ASN uniqueness.
        let mut asns = HashMap::new();
        for (i, a) in self.ases.iter().enumerate() {
            if asns.insert(a.asn, i).is_some() {
                return Err(TopologyError::DuplicateAsn(a.asn));
            }
        }

        let mut ip_index: IntMap<Ipv4Addr, IpOwner> = IntMap::default();
        for (i, a) in self.ases.iter().enumerate() {
            for r in &a.transit_routers {
                if ip_index
                    .insert(*r, IpOwner::Router(AsId(i as u32)))
                    .is_some()
                {
                    return Err(TopologyError::DuplicateIp(*r));
                }
            }
        }
        for (i, h) in self.hosts.iter().enumerate() {
            if h.as_id.0 >= n_as {
                return Err(TopologyError::BadIndex(format!("host {i} AS {}", h.as_id)));
            }
            let node = NodeId(i as u32);
            if ip_index.insert(h.spec.ip, IpOwner::Host(node)).is_some() {
                return Err(TopologyError::DuplicateIp(h.spec.ip));
            }
            for ip in &h.spec.extra_ips {
                if ip_index.insert(*ip, IpOwner::Host(node)).is_some() {
                    return Err(TopologyError::DuplicateIp(*ip));
                }
            }
            for r in &h.spec.access_routers {
                // Access routers may be shared between hosts in the same AS
                // (a neighborhood gateway); allow re-registration as long as
                // it stays a router in the same AS.
                match ip_index.get(r) {
                    None => {
                        ip_index.insert(*r, IpOwner::Router(h.as_id));
                    }
                    Some(IpOwner::Router(owner)) if *owner == h.as_id => {}
                    Some(_) => return Err(TopologyError::DuplicateIp(*r)),
                }
            }
        }

        let mut anycast = IntMap::default();
        for (ip, instances) in self.anycast {
            if instances.is_empty() {
                return Err(TopologyError::EmptyAnycastGroup(ip));
            }
            for n in &instances {
                if n.0 >= n_host {
                    return Err(TopologyError::BadIndex(format!("anycast instance {n}")));
                }
            }
            if ip_index.insert(ip, IpOwner::Anycast).is_some() {
                return Err(TopologyError::DuplicateIp(ip));
            }
            anycast.insert(ip, AnycastGroup { ip, instances });
        }

        Ok(Topology {
            ases: self.ases,
            neighbors,
            neighbor_starts,
            hosts: self.hosts,
            anycast,
            ip_index,
            pc_pairs,
        })
    }
}

/// A validated, immutable network topology.
#[derive(Debug)]
pub struct Topology {
    pub(crate) ases: Vec<AsSpec>,
    /// Every AS's neighbors, AS `i`'s at
    /// `neighbor_starts[i]..neighbor_starts[i + 1]`.
    neighbors: Vec<(AsId, Relationship)>,
    neighbor_starts: Vec<u32>,
    pub(crate) hosts: Vec<HostData>,
    anycast: IntMap<Ipv4Addr, AnycastGroup>,
    ip_index: IntMap<Ipv4Addr, IpOwner>,
    pc_pairs: Vec<(u32, u32)>,
}

impl Topology {
    /// Number of ASes.
    pub fn as_count(&self) -> usize {
        self.ases.len()
    }

    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// The AS a host belongs to.
    pub fn as_of_node(&self, node: NodeId) -> AsId {
        self.hosts[node.0 as usize].as_id
    }

    /// AS spec by id.
    pub fn as_spec(&self, id: AsId) -> &AsSpec {
        &self.ases[id.0 as usize]
    }

    /// Neighbors of an AS with relationships (sorted by AS id).
    pub fn as_neighbors(&self, id: AsId) -> &[(AsId, Relationship)] {
        let i = id.0 as usize;
        &self.neighbors[self.neighbor_starts[i] as usize..self.neighbor_starts[i + 1] as usize]
    }

    /// Host spec by node id.
    pub fn host_spec(&self, node: NodeId) -> &HostSpec {
        &self.hosts[node.0 as usize].spec
    }

    /// Who owns an IP, if anyone.
    pub fn owner_of_ip(&self, ip: Ipv4Addr) -> Option<IpOwner> {
        self.ip_index.get(&ip).copied()
    }

    /// Anycast group at `ip`, if any.
    pub fn anycast_group(&self, ip: Ipv4Addr) -> Option<&AnycastGroup> {
        self.anycast.get(&ip)
    }

    /// Every anycast group, in no particular order.
    pub(crate) fn anycast_groups(&self) -> impl Iterator<Item = &AnycastGroup> {
        self.anycast.values()
    }

    /// Whether `node` may legitimately source packets from `src` —
    /// its own unicast addresses or an anycast address it instantiates.
    /// Everything else is spoofing (and subject to the AS's SAV policy).
    pub fn node_owns_ip(&self, node: NodeId, src: Ipv4Addr) -> bool {
        let h = &self.hosts[node.0 as usize].spec;
        if h.ip == src || h.extra_ips.contains(&src) {
            return true;
        }
        if let Some(group) = self.anycast.get(&src) {
            return group.instances.contains(&node);
        }
        false
    }

    /// Iterate over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.hosts.len() as u32).map(NodeId)
    }

    /// All ground-truth provider→customer ASN pairs (for evaluating
    /// DNSRoute++'s relationship inference, §5). Each directed pair appears
    /// once, sorted.
    pub fn provider_customer_pairs(&self) -> &[(u32, u32)] {
        &self.pc_pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr::new(a, b, c, d)
    }

    fn tiny() -> TopologyBuilder {
        let mut b = TopologyBuilder::new();
        let a1 = b.add_as(AsSpec {
            asn: 65001,
            country: CountryCode::new("DEU"),
            kind: AsKind::Transit,
            sav_outbound: true,
            transit_routers: vec![ip(10, 0, 1, 1), ip(10, 0, 1, 2)],
        });
        let a2 = b.add_as(AsSpec {
            asn: 65002,
            country: CountryCode::new("BRA"),
            kind: AsKind::EyeballIsp,
            sav_outbound: false,
            transit_routers: vec![ip(10, 0, 2, 1)],
        });
        b.connect(a1, a2, Relationship::ProviderCustomer);
        b.add_host(a1, HostSpec::simple(ip(192, 0, 2, 1)));
        b.add_host(a2, HostSpec::simple(ip(203, 0, 113, 1)));
        b
    }

    #[test]
    fn build_and_query() {
        let t = tiny().build().unwrap();
        assert_eq!(t.as_count(), 2);
        assert_eq!(t.host_count(), 2);
        assert_eq!(t.as_of_node(NodeId(0)), AsId(0));
        assert_eq!(t.as_spec(AsId(1)).country.as_str(), "BRA");
        assert_eq!(
            t.owner_of_ip(ip(192, 0, 2, 1)),
            Some(IpOwner::Host(NodeId(0)))
        );
        assert_eq!(
            t.owner_of_ip(ip(10, 0, 2, 1)),
            Some(IpOwner::Router(AsId(1)))
        );
        assert_eq!(
            t.owner_of_ip(ip(10, 0, 1, 2)),
            Some(IpOwner::Router(AsId(0)))
        );
        assert_eq!(t.owner_of_ip(ip(8, 8, 8, 8)), None);
    }

    #[test]
    fn adjacency_is_symmetric_and_sorted() {
        let t = tiny().build().unwrap();
        assert_eq!(
            t.as_neighbors(AsId(0)),
            &[(AsId(1), Relationship::ProviderCustomer)]
        );
        assert_eq!(
            t.as_neighbors(AsId(1)),
            &[(AsId(0), Relationship::ProviderCustomer)]
        );
    }

    #[test]
    fn duplicate_ip_rejected() {
        let mut b = tiny();
        b.add_host(AsId(0), HostSpec::simple(ip(192, 0, 2, 1)));
        assert!(matches!(b.build(), Err(TopologyError::DuplicateIp(_))));
    }

    #[test]
    fn duplicate_asn_rejected() {
        let mut b = tiny();
        b.add_as(AsSpec {
            asn: 65001,
            country: CountryCode::new("USA"),
            kind: AsKind::Transit,
            sav_outbound: true,
            transit_routers: vec![],
        });
        assert!(matches!(b.build(), Err(TopologyError::DuplicateAsn(65001))));
    }

    #[test]
    fn duplicate_link_rejected() {
        let mut b = tiny();
        b.connect(AsId(0), AsId(1), Relationship::Peer);
        assert!(matches!(b.build(), Err(TopologyError::DuplicateLink(_, _))));
    }

    #[test]
    fn anycast_membership_and_spoof_check() {
        let mut b = tiny();
        let node = b.add_host(AsId(0), HostSpec::simple(ip(198, 51, 100, 1)));
        b.add_anycast_instance(ip(8, 8, 8, 8), node);
        let t = b.build().unwrap();
        assert_eq!(t.owner_of_ip(ip(8, 8, 8, 8)), Some(IpOwner::Anycast));
        assert!(t.node_owns_ip(node, ip(8, 8, 8, 8)));
        assert!(t.node_owns_ip(node, ip(198, 51, 100, 1)));
        assert!(!t.node_owns_ip(NodeId(0), ip(8, 8, 8, 8)));
        assert!(
            !t.node_owns_ip(node, ip(1, 2, 3, 4)),
            "arbitrary IP is spoofing"
        );
    }

    #[test]
    fn empty_anycast_rejected() {
        let mut b = TopologyBuilder::new();
        b.anycast.insert(ip(9, 9, 9, 9), vec![]);
        assert!(matches!(
            b.build(),
            Err(TopologyError::EmptyAnycastGroup(_))
        ));
    }

    #[test]
    fn extra_ips_owned_by_same_node() {
        let mut b = tiny();
        let node = b.add_host(
            AsId(1),
            HostSpec {
                ip: ip(203, 0, 113, 10),
                extra_ips: vec![ip(203, 0, 113, 11)],
                access_routers: vec![],
                link_latency: SimDuration::from_millis(1),
            },
        );
        let t = b.build().unwrap();
        assert_eq!(
            t.owner_of_ip(ip(203, 0, 113, 11)),
            Some(IpOwner::Host(node))
        );
        assert!(t.node_owns_ip(node, ip(203, 0, 113, 11)));
    }

    #[test]
    fn shared_access_router_allowed_within_as() {
        let mut b = tiny();
        let shared = ip(10, 9, 9, 9);
        b.add_host(
            AsId(1),
            HostSpec {
                ip: ip(203, 0, 113, 20),
                extra_ips: vec![],
                access_routers: vec![shared],
                link_latency: SimDuration::from_millis(1),
            },
        );
        b.add_host(
            AsId(1),
            HostSpec {
                ip: ip(203, 0, 113, 21),
                extra_ips: vec![],
                access_routers: vec![shared],
                link_latency: SimDuration::from_millis(1),
            },
        );
        let t = b.build().unwrap();
        assert_eq!(t.owner_of_ip(shared), Some(IpOwner::Router(AsId(1))));
    }

    #[test]
    fn provider_customer_ground_truth() {
        let t = tiny().build().unwrap();
        assert_eq!(t.provider_customer_pairs(), &[(65001, 65002)]);
    }

    #[test]
    fn country_code_display() {
        assert_eq!(CountryCode::new("IND").to_string(), "IND");
    }
}
