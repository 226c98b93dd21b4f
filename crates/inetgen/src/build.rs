//! The generator: turns the calibration table into a running simulated
//! Internet with the full ODNS population planted in it.
//!
//! Layout (AS level):
//!
//! ```text
//!   4 tier-1 transits (full mesh)
//!        │
//!   6 regional transits (one per region)
//!        │
//!   per-country eyeball ASes  ← transparent/recursive forwarders,
//!        │                       local resolvers, manipulated CPE
//!   project ASes (Google, Cloudflare, Quad9, OpenDNS) with
//!   peering density modeling their anycast footprint
//!   + fixture ASes: scanner, study infrastructure (root/TLD/auth),
//!     sensor network (no SAV, direct Google peering), victim
//! ```
//!
//! The generator plants ground truth; the measurement pipeline must
//! *re-discover* it through wire-level scanning only.

use crate::config::{CountrySelection, GenConfig};
use crate::countries::{CountryProfile, Region, COUNTRIES};
use crate::geodb::GeoDb;
use crate::shard::{shard_of_country, ShardSpec};
use netsim::shard::derive_seed;
use netsim::{
    AsId, AsKind, AsSpec, CountryCode, HostSpec, NodeId, Relationship, SimConfig, SimDuration,
    Simulator, TopologyBuilder,
};
use odns::{
    AuthConfig, DeviceProfile, Manipulation, RecursiveForwarder, RecursiveResolver, ResolverConfig,
    ResolverProject, StudyNodes, TransparentForwarder, Vendor,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// What kind of ODNS host was planted at an address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlantedClass {
    /// Spoofing relay.
    TransparentForwarder,
    /// Address-rewriting forwarder.
    RecursiveForwarder,
    /// Open recursive resolver.
    RecursiveResolver,
    /// Recursive forwarder whose responses are manipulated in-path —
    /// counted by Shadowserver, discarded by the strict method.
    ManipulatedForwarder,
}

/// Ground truth for one planted address. Middlebox /24s produce one entry
/// per address, all sharing a node.
#[derive(Debug, Clone)]
pub struct PlantedHost {
    /// The address the scanner can probe.
    pub ip: Ipv4Addr,
    /// The simulator node serving it.
    pub node: NodeId,
    /// Its true class.
    pub class: PlantedClass,
    /// Hosting country.
    pub country: &'static str,
    /// Hosting ASN.
    pub asn: u32,
    /// Device vendor, if a CPE profile was attached.
    pub vendor: Option<Vendor>,
    /// Where it forwards (None for resolvers).
    pub resolver_target: Option<Ipv4Addr>,
    /// True when the address belongs to a whole-/24 middlebox.
    pub middlebox: bool,
}

/// Everything the generator planted.
#[derive(Debug, Default)]
pub struct GroundTruth {
    /// All planted addresses.
    pub hosts: Vec<PlantedHost>,
    /// Instantiated country codes.
    pub countries: Vec<&'static str>,
}

impl GroundTruth {
    /// Count planted addresses of a class.
    pub fn count(&self, class: PlantedClass) -> usize {
        self.hosts.iter().filter(|h| h.class == class).count()
    }

    /// Planted transparent-forwarder addresses.
    pub fn transparent_ips(&self) -> Vec<Ipv4Addr> {
        self.hosts
            .iter()
            .filter(|h| h.class == PlantedClass::TransparentForwarder)
            .map(|h| h.ip)
            .collect()
    }

    /// Per-country count of a class.
    pub fn count_by_country(&self, class: PlantedClass) -> HashMap<&'static str, usize> {
        let mut m = HashMap::new();
        for h in self.hosts.iter().filter(|h| h.class == class) {
            *m.entry(h.country).or_insert(0) += 1;
        }
        m
    }
}

/// Pre-created nodes for the standard experiments. Hosts (scanner logic,
/// sensors, campaign emulators) are installed by the caller — the
/// generator only reserves addressed nodes in the right networks.
#[derive(Debug, Clone)]
pub struct Fixtures {
    /// The study's scanner (SAV-protected network).
    pub scanner: NodeId,
    /// Scanner address (192.0.2.1).
    pub scanner_ip: Ipv4Addr,
    /// Campaign emulator nodes (Shadowserver, Censys, Shodan).
    pub campaign_scanners: [NodeId; 3],
    /// Root name server address.
    pub root_ip: Ipv4Addr,
    /// TLD server address.
    pub tld_ip: Ipv4Addr,
    /// Study authoritative server address.
    pub auth_ip: Ipv4Addr,
    /// Authoritative server node (for log extraction).
    pub auth: NodeId,
    /// Sensor 1 node (`IP1`).
    pub sensor1: NodeId,
    /// Sensor 2 node (owns `IP2` and `IP3`).
    pub sensor2: NodeId,
    /// Sensor 3 node (`IP4`).
    pub sensor3: NodeId,
    /// Sensor addresses per Table 3.
    pub sensor_addrs: scanner_addrs::SensorAddrs,
    /// A victim host for the amplification study.
    pub victim: NodeId,
    /// Victim address.
    pub victim_ip: Ipv4Addr,
}

/// Local module to avoid a dependency on the `scanner` crate: the four
/// observable sensor addresses of Table 3.
pub mod scanner_addrs {
    use std::net::Ipv4Addr;

    /// `IP1..IP4` of the controlled experiment.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SensorAddrs {
        /// Sensor 1 (recursive-resolver sensor).
        pub ip1: Ipv4Addr,
        /// Sensor 2 receive address.
        pub ip2: Ipv4Addr,
        /// Sensor 2 reply address (same /24).
        pub ip3: Ipv4Addr,
        /// Sensor 3 (exterior transparent forwarder).
        pub ip4: Ipv4Addr,
    }
}

/// A generated Internet: simulator with population installed, ground
/// truth, measurement databases, and a scan target list.
pub struct Internet {
    /// The simulator, ready to run.
    pub sim: Simulator,
    /// Reinstall recipe for [`Internet::reset`].
    blueprint: WorldBlueprint,
    /// Standard experiment nodes.
    pub fixtures: Fixtures,
    /// What was planted where.
    pub truth: GroundTruth,
    /// Routeviews/MaxMind-style lookup data for the analysis stage.
    pub geo: GeoDb,
    /// Scan target list: every planted address plus unresponsive duds,
    /// deterministically shuffled.
    pub targets: Vec<Ipv4Addr>,
}

impl Internet {
    /// Restore a scanned world to its pre-scan state: the simulator
    /// rewinds (clock, queue, RNG, stats — see [`Simulator::reset`]) and
    /// every host reinstalls from the generation blueprint. The result
    /// runs any experiment bit-identically to a freshly generated world,
    /// while keeping the expensive topology, route caches, ground truth,
    /// geo database, and target list. This is the generate-once/scan-many
    /// hook [`crate::ShardWorldCache`] relies on.
    pub fn reset(&mut self) {
        self.sim.reset(&self.blueprint.config);
        install_hosts(&mut self.sim, &self.blueprint);
    }
}

const SCANNER_IP: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);
const ROOT_IP: Ipv4Addr = Ipv4Addr::new(198, 41, 0, 4);
const TLD_IP: Ipv4Addr = Ipv4Addr::new(198, 41, 1, 4);
const AUTH_IP: Ipv4Addr = Ipv4Addr::new(198, 41, 2, 4);
const VICTIM_IP: Ipv4Addr = Ipv4Addr::new(198, 51, 99, 1);

/// Population space starts at 11.0.0.0; fixture/special ranges live
/// elsewhere (1/8, 8/8, 9/8, 10/8, 192/8, 198/8, 203/8, 208/8), so no
/// collisions.
const POPULATION_BASE: u32 = 0x0B00_0000;

/// /24 blocks reserved per country. Every country owns a fixed region of
/// `COUNTRY_BLOCK_SPAN` consecutive /24s starting at
/// `POPULATION_BASE + index · COUNTRY_BLOCK_SPAN · 256`, where `index` is
/// its position in [`COUNTRIES`]. Fixed disjoint regions are what make a
/// country's addresses independent of which other countries share its
/// shard — the prefix partition a sharded census relies on. The span
/// covers the worst case (Brazil's sparse transparent prefixes at
/// `scale = 1` can burn one block per host: 0.26 · 250 000 ≈ 65 k
/// blocks).
const COUNTRY_BLOCK_SPAN: u32 = 0x1_8000;

// The 11/8..125/8 pool holds 0x73_0000 /24 blocks — room for 76 country
// regions. Grow the pool before growing the calibration table past that.
const _: () = assert!(
    COUNTRIES.len() <= 76,
    "country regions exceed the population pool"
);

/// Per-country /24 allocator over the country's fixed region.
struct Allocator {
    next_block: u32,
    limit: u32,
}

impl Allocator {
    fn for_country(global_index: usize) -> Self {
        let base = POPULATION_BASE + global_index as u32 * COUNTRY_BLOCK_SPAN * 0x100;
        let limit = base + COUNTRY_BLOCK_SPAN * 0x100;
        assert!(
            limit <= 0x7E00_0000,
            "country region exceeded the 11/8..125/8 pool"
        );
        Allocator {
            next_block: base,
            limit,
        }
    }

    fn next(&mut self) -> u32 {
        let b = self.next_block;
        self.next_block += 0x100;
        assert!(
            self.next_block <= self.limit,
            "population exceeded the country's /24 region"
        );
        b
    }
}

/// Router-space (10/8) allocator: one /24 block per `take` call, from a
/// fixed per-owner region so that a country's router addresses never
/// depend on which other ASes exist in the same topology.
struct RouterAlloc {
    next: u32,
    limit: u32,
}

/// Router blocks reserved for the backbone + fixtures (they use ~20).
const BACKBONE_ROUTER_BLOCKS: u32 = 64;

impl RouterAlloc {
    fn backbone() -> Self {
        RouterAlloc {
            next: 0,
            limit: BACKBONE_ROUTER_BLOCKS,
        }
    }

    fn for_country(global_index: usize) -> Self {
        // Regions sized by the country's full-scale AS count — the hard
        // ceiling on how many ASes `scaled_ases` can ever request.
        let base = BACKBONE_ROUTER_BLOCKS
            + COUNTRIES[..global_index]
                .iter()
                .map(|c| u32::from(c.as_count))
                .sum::<u32>();
        let limit = base + u32::from(COUNTRIES[global_index].as_count);
        assert!(limit <= 0x1_0000, "router space exhausted");
        RouterAlloc { next: base, limit }
    }

    fn take(&mut self, n: usize) -> Vec<Ipv4Addr> {
        let block = self.next;
        self.next += 1;
        assert!(self.next <= self.limit, "router region exhausted");
        (0..n)
            .map(|i| Ipv4Addr::new(10, (block >> 8) as u8, (block & 0xFF) as u8, (i + 1) as u8))
            .collect()
    }
}

/// First 16-bit ASN for a country's region (again sized by `as_count`).
fn country_asn16_base(global_index: usize) -> u32 {
    20_000
        + COUNTRIES[..global_index]
            .iter()
            .map(|c| u32::from(c.as_count))
            .sum::<u32>()
}

/// 32-bit ASN regions: 10 000 per country, far above any `as_count`.
const ASN32_BASE: u32 = 4_200_000_000;
const ASN32_SPAN: u32 = 10_000;

/// RNG stream tags for [`derive_seed`] — one namespace per purpose, so a
/// country stream can never collide with a shard's target stream.
const COUNTRY_STREAM: u64 = 0xC0_0000_0000;
const TARGET_STREAM: u64 = 0x7A_0000_0000;

#[derive(Debug, Clone)]
enum HostPlan {
    Transparent {
        resolver: Ipv4Addr,
        device: Option<Arc<DeviceProfile>>,
    },
    Recursive {
        resolver: Ipv4Addr,
        manipulation: Manipulation,
        device: Option<Arc<DeviceProfile>>,
    },
    Resolver,
}

/// Everything needed to reinstall a shard's hosts onto a reset simulator:
/// the sim config (for the RNG reseed), the study-stack nodes, the public
/// resolver nodes, and the full population plan. Kept by [`Internet`] so
/// [`Internet::reset`] can restore a scanned world to its pre-scan state
/// without regenerating the topology.
#[derive(Debug, Clone)]
struct WorldBlueprint {
    config: SimConfig,
    study: StudyNodes,
    project_resolvers: Vec<NodeId>,
    plans: Vec<(NodeId, HostPlan)>,
}

/// Install the study stack, public resolvers, and population onto a
/// simulator that has no hosts yet (fresh or just reset). Shared by first
/// generation and every [`Internet::reset`], so a reset world is rebuilt
/// by the exact code path that built it.
fn install_hosts(sim: &mut Simulator, bp: &WorldBlueprint) {
    odns::install_study_stack(
        sim,
        bp.study,
        AuthConfig {
            keep_log: false,
            rate_limit_pps: None,
            ..AuthConfig::default()
        },
    );
    for node in &bp.project_resolvers {
        sim.install(
            *node,
            RecursiveResolver::new(ResolverConfig {
                cache_capacity: 4096,
                ..ResolverConfig::open(vec![ROOT_IP])
            }),
        );
    }
    for (node, plan) in &bp.plans {
        match plan {
            HostPlan::Transparent { resolver, device } => {
                let mut fwd = TransparentForwarder::new(*resolver);
                if let Some(d) = device {
                    fwd = fwd.with_device(Arc::clone(d));
                }
                sim.install(*node, fwd);
            }
            HostPlan::Recursive {
                resolver,
                manipulation,
                device,
            } => {
                let mut fwd = RecursiveForwarder::new(*resolver).with_manipulation(*manipulation);
                if let Some(d) = device {
                    fwd = fwd.with_device(Arc::clone(d));
                }
                sim.install(*node, fwd);
            }
            HostPlan::Resolver => {
                sim.install(
                    *node,
                    RecursiveResolver::new(ResolverConfig {
                        cache_capacity: 256,
                        ..ResolverConfig::open(vec![ROOT_IP])
                    }),
                );
            }
        }
    }
}

/// Generate a simulated Internet per `config` — the single-simulator
/// world. Exactly shard 0 of a 1-way partition, so the sharded and
/// unsharded paths share every line of generation code.
pub fn generate(config: &GenConfig) -> Internet {
    generate_shard(config, ShardSpec::solo())
}

/// Generate one shard of a `spec.count`-way partition of the world.
///
/// The shard is a complete, self-contained Internet: the structural
/// backbone, public resolver projects, and fixture networks (scanner,
/// study servers, sensors, victim) are replicated in every shard, while
/// the per-country ODNS population is split by
/// [`shard_of_country`]. Per-country RNG streams derive only from
/// `(config.seed, country index)`, so the same country is planted
/// byte-identically no matter the partition — `spec.count = 1` *is* the
/// classic single-simulator world.
pub fn generate_shard(config: &GenConfig, spec: ShardSpec) -> Internet {
    let mut b = TopologyBuilder::new();
    let mut geo = GeoDb::new();
    let mut plans: Vec<(NodeId, HostPlan)> = Vec::new();
    let mut truth = GroundTruth::default();

    // ---- Structural backbone -------------------------------------------------
    // Every AS gets its own /24 of router space inside 10/8 so the geo
    // database can map any hop to exactly one ASN (DNSRoute++ depends on
    // this being unambiguous). The backbone draws no randomness: it is
    // byte-identical in every shard.
    let mut backbone_routers = RouterAlloc::backbone();
    let mut make_routers = |n: usize| -> Vec<Ipv4Addr> { backbone_routers.take(n) };

    let tier1: Vec<AsId> = (0..4)
        .map(|i| {
            b.add_as(AsSpec {
                asn: 64601 + i,
                country: CountryCode::new("USA"),
                kind: AsKind::Transit,
                sav_outbound: true,
                transit_routers: make_routers(2),
            })
        })
        .collect();
    for i in 0..tier1.len() {
        for j in (i + 1)..tier1.len() {
            b.connect(tier1[i], tier1[j], Relationship::Peer);
        }
    }

    let regional: Vec<AsId> = Region::all()
        .iter()
        .enumerate()
        .map(|(i, _)| {
            b.add_as(AsSpec {
                asn: 64611 + i as u32,
                country: CountryCode::new("USA"),
                kind: AsKind::Transit,
                sav_outbound: true,
                // Three routers per regional backbone: calibrated so the
                // Figure 6 means land near the paper's 6.3/7.9/9.3 hops.
                transit_routers: make_routers(3),
            })
        })
        .collect();
    for (i, &r) in regional.iter().enumerate() {
        b.connect(tier1[i % 4], r, Relationship::ProviderCustomer);
        b.connect(tier1[(i + 1) % 4], r, Relationship::ProviderCustomer);
    }

    // ---- Public resolver projects --------------------------------------------
    // PoP footprint is modeled as peering density: Cloudflare peers with
    // everything (plus a share of eyeball ASes below), Google with every
    // regional, Quad9 with a subset, OpenDNS barely — yielding the
    // Figure 6 path-length ordering Cloudflare < Google < OpenDNS.
    let google_as = b.add_as(AsSpec {
        asn: ResolverProject::Google.asn(),
        country: CountryCode::new("USA"),
        kind: AsKind::Content,
        sav_outbound: true,
        transit_routers: make_routers(2),
    });
    for &r in &regional {
        b.connect(google_as, r, Relationship::Peer);
    }
    b.connect(google_as, tier1[0], Relationship::Peer);
    b.connect(google_as, tier1[1], Relationship::Peer);

    let cloudflare_as = b.add_as(AsSpec {
        asn: ResolverProject::Cloudflare.asn(),
        country: CountryCode::new("USA"),
        kind: AsKind::Content,
        sav_outbound: true,
        transit_routers: make_routers(1),
    });
    for &r in regional.iter().chain(&tier1) {
        b.connect(cloudflare_as, r, Relationship::Peer);
    }

    let quad9_as = b.add_as(AsSpec {
        asn: ResolverProject::Quad9.asn(),
        country: CountryCode::new("USA"),
        kind: AsKind::Content,
        sav_outbound: true,
        transit_routers: make_routers(2),
    });
    b.connect(
        quad9_as,
        regional[Region::Europe.index()],
        Relationship::Peer,
    );
    b.connect(
        quad9_as,
        regional[Region::NorthAmerica.index()],
        Relationship::Peer,
    );
    b.connect(quad9_as, tier1[2], Relationship::Peer);

    let opendns_as = b.add_as(AsSpec {
        asn: ResolverProject::OpenDns.asn(),
        country: CountryCode::new("USA"),
        kind: AsKind::Content,
        sav_outbound: true,
        transit_routers: make_routers(3),
    });
    b.connect(tier1[3], opendns_as, Relationship::ProviderCustomer);
    b.connect(
        opendns_as,
        regional[Region::NorthAmerica.index()],
        Relationship::Peer,
    );

    let project_egress = [
        (
            ResolverProject::Google,
            google_as,
            Ipv4Addr::new(8, 8, 4, 1),
        ),
        (
            ResolverProject::Cloudflare,
            cloudflare_as,
            Ipv4Addr::new(1, 0, 0, 1),
        ),
        (ResolverProject::Quad9, quad9_as, Ipv4Addr::new(9, 9, 9, 10)),
        (
            ResolverProject::OpenDns,
            opendns_as,
            Ipv4Addr::new(208, 67, 220, 1),
        ),
    ];
    let mut project_nodes = Vec::new();
    for (project, as_id, egress) in project_egress {
        let node = b.add_host(
            as_id,
            HostSpec {
                ip: egress,
                extra_ips: vec![],
                access_routers: vec![],
                link_latency: SimDuration::from_micros(500),
            },
        );
        b.add_anycast_instance(project.service_ip(), node);
        project_nodes.push((project, node));
        geo.add_prefix24(egress, project.asn());
        geo.add_anycast(project.service_ip(), project.asn());
        geo.add_asn(project.asn(), "USA", AsKind::Content);
    }

    // ---- Fixture networks -----------------------------------------------------
    let scanner_as = b.add_as(AsSpec {
        asn: 64496,
        country: CountryCode::new("DEU"),
        kind: AsKind::Education,
        sav_outbound: true,
        transit_routers: make_routers(1),
    });
    b.connect(tier1[0], scanner_as, Relationship::ProviderCustomer);
    b.connect(
        scanner_as,
        regional[Region::Europe.index()],
        Relationship::Peer,
    );
    let scanner = b.add_host(scanner_as, HostSpec::simple(SCANNER_IP));
    let campaign_scanners = [
        b.add_host(scanner_as, HostSpec::simple(Ipv4Addr::new(192, 0, 2, 11))),
        b.add_host(scanner_as, HostSpec::simple(Ipv4Addr::new(192, 0, 2, 12))),
        b.add_host(scanner_as, HostSpec::simple(Ipv4Addr::new(192, 0, 2, 13))),
    ];
    geo.add_prefix24(SCANNER_IP, 64496);
    geo.add_asn(64496, "DEU", AsKind::Education);

    let infra_as = b.add_as(AsSpec {
        asn: 64500,
        country: CountryCode::new("DEU"),
        kind: AsKind::Content,
        sav_outbound: true,
        transit_routers: make_routers(1),
    });
    b.connect(tier1[0], infra_as, Relationship::ProviderCustomer);
    b.connect(tier1[1], infra_as, Relationship::ProviderCustomer);
    let root_node = b.add_host(infra_as, HostSpec::simple(ROOT_IP));
    let tld_node = b.add_host(infra_as, HostSpec::simple(TLD_IP));
    let auth_node = b.add_host(infra_as, HostSpec::simple(AUTH_IP));
    for ip in [ROOT_IP, TLD_IP, AUTH_IP] {
        geo.add_prefix24(ip, 64500);
    }
    geo.add_asn(64500, "DEU", AsKind::Content);

    // The sensor network of §3.1: no outbound SAV, and a direct IXP
    // peering with Google's AS ("our network peers directly with Google at
    // an IXP, so we are not exposed to filters from upstream providers").
    let sensor_as = b.add_as(AsSpec {
        asn: 64497,
        country: CountryCode::new("DEU"),
        kind: AsKind::Education,
        sav_outbound: false,
        transit_routers: make_routers(1),
    });
    b.connect(
        regional[Region::Europe.index()],
        sensor_as,
        Relationship::ProviderCustomer,
    );
    b.connect(sensor_as, google_as, Relationship::Peer);
    let sensor_addrs = scanner_addrs::SensorAddrs {
        ip1: Ipv4Addr::new(203, 0, 113, 11),
        ip2: Ipv4Addr::new(203, 0, 113, 22),
        ip3: Ipv4Addr::new(203, 0, 113, 23),
        ip4: Ipv4Addr::new(203, 0, 113, 44),
    };
    let sensor1 = b.add_host(sensor_as, HostSpec::simple(sensor_addrs.ip1));
    let sensor2 = b.add_host(
        sensor_as,
        HostSpec {
            ip: sensor_addrs.ip2,
            extra_ips: vec![sensor_addrs.ip3],
            access_routers: vec![],
            link_latency: SimDuration::from_millis(2),
        },
    );
    let sensor3 = b.add_host(sensor_as, HostSpec::simple(sensor_addrs.ip4));
    geo.add_prefix24(sensor_addrs.ip1, 64497);
    geo.add_asn(64497, "DEU", AsKind::Education);

    let victim_as = b.add_as(AsSpec {
        asn: 64498,
        country: CountryCode::new("DEU"),
        kind: AsKind::EyeballIsp,
        sav_outbound: true,
        transit_routers: make_routers(1),
    });
    b.connect(
        regional[Region::Europe.index()],
        victim_as,
        Relationship::ProviderCustomer,
    );
    let victim = b.add_host(victim_as, HostSpec::simple(VICTIM_IP));
    geo.add_prefix24(VICTIM_IP, 64498);
    geo.add_asn(64498, "DEU", AsKind::EyeballIsp);

    // ---- Per-country population ----------------------------------------------
    // Selection keeps each country's index in the full COUNTRIES table:
    // that index — not the position within the selection — keys its
    // address region, ASN region, router region, and RNG stream, so a
    // country is planted identically whatever subset or shard it is in.
    let selected: Vec<(usize, &CountryProfile)> = match &config.countries {
        CountrySelection::All => COUNTRIES.iter().enumerate().collect(),
        CountrySelection::TopByTransparent(n) => {
            let mut v: Vec<(usize, &CountryProfile)> = COUNTRIES.iter().enumerate().collect();
            v.sort_by_key(|(_, c)| std::cmp::Reverse(c.transparent));
            v.truncate(*n);
            v
        }
        CountrySelection::Codes(codes) => COUNTRIES
            .iter()
            .enumerate()
            .filter(|(_, c)| codes.contains(&c.code))
            .collect(),
    };
    let selected: Vec<(usize, &CountryProfile)> = selected
        .into_iter()
        .filter(|(i, _)| shard_of_country(*i, spec.count) == spec.index)
        .collect();

    // One profile per vendor, shared by every host that carries it and by
    // every reinstall of that host.
    let mikrotik = Arc::new(DeviceProfile::mikrotik());
    let generic = Arc::new(DeviceProfile::generic());
    let [zyxel, dlink, huawei] = [Vendor::Zyxel, Vendor::DLink, Vendor::Huawei]
        .map(|v| Arc::new(DeviceProfile::with_mgmt(v)));

    for &(global_index, profile) in &selected {
        truth.countries.push(profile.code);
        // Everything this country draws comes from its own stream and its
        // own fixed regions — the sharding determinism contract.
        let mut rng = SmallRng::seed_from_u64(derive_seed(
            config.seed,
            COUNTRY_STREAM | global_index as u64,
        ));
        let mut alloc = Allocator::for_country(global_index);
        let mut routers = RouterAlloc::for_country(global_index);
        let mut asn_counter_32bit = ASN32_BASE + global_index as u32 * ASN32_SPAN;
        let mut asn_counter_16bit = country_asn16_base(global_index);
        let n_ases = config.scaled_ases(profile.as_count) as usize;
        let mut country_ases = Vec::with_capacity(n_ases);
        for _ in 0..n_ases {
            let asn = if rng.gen_bool(0.6) {
                asn_counter_32bit += 1;
                asn_counter_32bit
            } else {
                asn_counter_16bit += 1;
                asn_counter_16bit
            };
            // Appendix E: of the top ASes by transparent forwarders, 79 %
            // are eyeball ISPs, 7 % other types, 14 % unclassified.
            let kind = match rng.gen_range(0..100) {
                0..=78 => AsKind::EyeballIsp,
                79..=85 => AsKind::Content,
                _ => AsKind::Unclassified,
            };
            let as_id = b.add_as(AsSpec {
                asn,
                country: CountryCode::new(profile.code),
                kind,
                // ASes hosting transparent forwarders cannot filter
                // spoofed egress; model the country's eyeball space as
                // mostly SAV-free when it hosts transparents.
                sav_outbound: if profile.transparent > 0 {
                    false
                } else {
                    rng.gen_bool(0.5)
                },
                transit_routers: routers.take(1),
            });
            b.connect(
                regional[profile.region.index()],
                as_id,
                Relationship::ProviderCustomer,
            );
            if rng.gen_bool(0.3) {
                let t = tier1[rng.gen_range(0..tier1.len())];
                b.connect(t, as_id, Relationship::ProviderCustomer);
            }
            // Cloudflare's IXP omnipresence: direct peering with a share
            // of eyeball networks (drives its short Figure 6 paths).
            if rng.gen_bool(0.35) {
                b.connect(as_id, cloudflare_as, Relationship::Peer);
            }
            // Google peers at far fewer IXPs than Cloudflare — the gap
            // behind Figure 6's Cloudflare < Google ordering.
            if rng.gen_bool(0.04) {
                b.connect(as_id, google_as, Relationship::Peer);
            }
            geo.add_asn(asn, profile.code, kind);
            country_ases.push((as_id, asn));
        }

        // Zipf-ish AS weights: the first AS dominates (Table 4's "Top ASN"
        // concentration).
        let weights: Vec<f64> = (0..country_ases.len())
            .map(|i| 1.0 / (i as f64 + 1.0).powf(1.1))
            .collect();
        let weight_sum: f64 = weights.iter().sum();
        let pick_as = |rng: &mut SmallRng| -> (AsId, u32) {
            let mut x = rng.gen_range(0.0..weight_sum);
            for (i, w) in weights.iter().enumerate() {
                if x < *w {
                    return country_ases[i];
                }
                x -= w;
            }
            country_ases[country_ases.len() - 1]
        };

        // --- Resolvers (incl. the local "other" pool) ---
        let n_resolvers = config
            .scaled(profile.resolvers, &mut rng)
            .max(u32::from(profile.other.local_resolvers.min(2)));
        let mut pool = Vec::new();
        let mut placed = 0u32;
        while placed < n_resolvers {
            let (as_id, asn) = pick_as(&mut rng);
            let block = alloc.next();
            geo.add_prefix24(Ipv4Addr::from(block), asn);
            let in_block = (n_resolvers - placed).min(254);
            for i in 0..in_block {
                let ip = Ipv4Addr::from(block + i + 1);
                let node = b.add_host(as_id, HostSpec::simple(ip));
                plans.push((node, HostPlan::Resolver));
                truth.hosts.push(PlantedHost {
                    ip,
                    node,
                    class: PlantedClass::RecursiveResolver,
                    country: profile.code,
                    asn,
                    vendor: None,
                    resolver_target: None,
                    middlebox: false,
                });
                if pool.len() < profile.other.local_resolvers as usize {
                    pool.push(ip);
                }
            }
            placed += in_block;
        }
        if pool.is_empty() {
            // Degenerate scale: fall back to Google so forwarders always
            // have a live upstream.
            pool.push(ResolverProject::Google.service_ip());
        }

        // --- Chain heads: country-local recursive forwarders that relay
        //     to Google — the "indirect consolidation" hop (Table 4) ---
        let n_transparent = config.scaled(profile.transparent, &mut rng);
        let other_share = f64::from(profile.mix.other()) / 100.0;
        let indirect = f64::from(profile.other.indirect_pct) / 100.0;
        let expected_chain_clients = (n_transparent as f64 * other_share * indirect).round() as u32;
        let n_chain_heads = if expected_chain_clients > 0 {
            (expected_chain_clients / 80).max(1)
        } else {
            0
        };
        let mut heads = Vec::new();
        for _ in 0..n_chain_heads {
            let (as_id, asn) = pick_as(&mut rng);
            let block = alloc.next();
            geo.add_prefix24(Ipv4Addr::from(block), asn);
            let ip = Ipv4Addr::from(block + 1);
            let node = b.add_host(as_id, HostSpec::simple(ip));
            plans.push((
                node,
                HostPlan::Recursive {
                    resolver: ResolverProject::Google.service_ip(),
                    manipulation: Manipulation::None,
                    device: None,
                },
            ));
            truth.hosts.push(PlantedHost {
                ip,
                node,
                class: PlantedClass::RecursiveForwarder,
                country: profile.code,
                asn,
                vendor: None,
                resolver_target: Some(ResolverProject::Google.service_ip()),
                middlebox: false,
            });
            heads.push(ip);
        }

        // --- Transparent forwarders with the Figure 8 density model ---
        let pick_resolver =
            |rng: &mut SmallRng, pool: &[Ipv4Addr], heads: &[Ipv4Addr]| -> Ipv4Addr {
                let x = rng.gen_range(0..100u32);
                let m = &profile.mix;
                let g = u32::from(m.google);
                let c = g + u32::from(m.cloudflare);
                let q = c + u32::from(m.quad9);
                let o = q + u32::from(m.opendns);
                if x < g {
                    ResolverProject::Google.service_ip()
                } else if x < c {
                    ResolverProject::Cloudflare.service_ip()
                } else if x < q {
                    ResolverProject::Quad9.service_ip()
                } else if x < o {
                    ResolverProject::OpenDns.service_ip()
                } else if !heads.is_empty()
                    && rng.gen_range(0..100u32) < u32::from(profile.other.indirect_pct)
                {
                    heads[rng.gen_range(0..heads.len())]
                } else {
                    pool[rng.gen_range(0..pool.len())]
                }
            };

        let pick_vendor = |rng: &mut SmallRng, middlebox: bool| -> Option<Arc<DeviceProfile>> {
            if !config.with_devices {
                return None;
            }
            // §6: ~23 % MikroTik overall, with half of the MikroTik
            // population in whole-/24 middlebox deployments: with 36 % of
            // addresses in middleboxes, 0.36·0.32 ≈ 0.64·0.18 ≈ 11.5 %
            // each side, totalling ≈23 %.
            let mikrotik_p = if middlebox { 0.32 } else { 0.18 };
            Some(Arc::clone(if rng.gen_bool(mikrotik_p) {
                &mikrotik
            } else if rng.gen_bool(0.12) {
                &zyxel
            } else if rng.gen_bool(0.1) {
                &dlink
            } else if rng.gen_bool(0.05) {
                &huawei
            } else {
                &generic
            }))
        };

        let heads_ref = heads;
        // Full /24 middleboxes: 36 % of transparent addresses at full
        // scale. Probabilistic rounding of the fractional part keeps the
        // *expected* share on target even when single countries are too
        // small for a whole middlebox; the hard cap keeps country totals
        // exact.
        let mb_expect = (n_transparent as f64 * 0.36) / 254.0;
        let mut n_middleboxes = mb_expect.floor() as u32;
        if rng.gen_bool(mb_expect.fract().clamp(0.0, 1.0)) {
            n_middleboxes += 1;
        }
        n_middleboxes = n_middleboxes.min(n_transparent / 254);
        let mut remaining = n_transparent.saturating_sub(n_middleboxes * 254);
        for _ in 0..n_middleboxes {
            let (as_id, asn) = pick_as(&mut rng);
            let block = alloc.next();
            geo.add_prefix24(Ipv4Addr::from(block), asn);
            let primary = Ipv4Addr::from(block + 1);
            let extras: Vec<Ipv4Addr> = (2..=254).map(|i| Ipv4Addr::from(block + i)).collect();
            let node = b.add_host(
                as_id,
                HostSpec {
                    ip: primary,
                    extra_ips: extras.clone(),
                    access_routers: vec![],
                    link_latency: SimDuration::from_millis(2),
                },
            );
            let resolver = pick_resolver(&mut rng, &pool, &heads_ref);
            let device = pick_vendor(&mut rng, true);
            let vendor = device.as_ref().map(|d| d.vendor);
            plans.push((node, HostPlan::Transparent { resolver, device }));
            for ip in std::iter::once(primary).chain(extras) {
                truth.hosts.push(PlantedHost {
                    ip,
                    node,
                    class: PlantedClass::TransparentForwarder,
                    country: profile.code,
                    asn,
                    vendor,
                    resolver_target: Some(resolver),
                    middlebox: true,
                });
            }
        }
        // Sparse (1..=25 per /24, 26 % of addresses) and medium prefixes.
        let sparse_budget = (n_transparent as f64 * 0.26).round() as u32;
        let mut sparse_left = sparse_budget.min(remaining);
        while sparse_left > 0 {
            let density = rng.gen_range(1..=25u32).min(sparse_left);
            let (as_id, asn) = pick_as(&mut rng);
            let block = alloc.next();
            geo.add_prefix24(Ipv4Addr::from(block), asn);
            for i in 0..density {
                let ip = Ipv4Addr::from(block + i + 1);
                let node = b.add_host(as_id, HostSpec::simple(ip));
                let resolver = pick_resolver(&mut rng, &pool, &heads_ref);
                let device = pick_vendor(&mut rng, false);
                let vendor = device.as_ref().map(|d| d.vendor);
                plans.push((node, HostPlan::Transparent { resolver, device }));
                truth.hosts.push(PlantedHost {
                    ip,
                    node,
                    class: PlantedClass::TransparentForwarder,
                    country: profile.code,
                    asn,
                    vendor,
                    resolver_target: Some(resolver),
                    middlebox: false,
                });
            }
            sparse_left -= density;
            remaining -= density;
        }
        while remaining > 0 {
            let density = rng.gen_range(26..=253u32).min(remaining);
            let (as_id, asn) = pick_as(&mut rng);
            let block = alloc.next();
            geo.add_prefix24(Ipv4Addr::from(block), asn);
            for i in 0..density {
                let ip = Ipv4Addr::from(block + i + 1);
                let node = b.add_host(as_id, HostSpec::simple(ip));
                let resolver = pick_resolver(&mut rng, &pool, &heads_ref);
                let device = pick_vendor(&mut rng, false);
                let vendor = device.as_ref().map(|d| d.vendor);
                plans.push((node, HostPlan::Transparent { resolver, device }));
                truth.hosts.push(PlantedHost {
                    ip,
                    node,
                    class: PlantedClass::TransparentForwarder,
                    country: profile.code,
                    asn,
                    vendor,
                    resolver_target: Some(resolver),
                    middlebox: false,
                });
            }
            remaining -= density;
        }

        // --- Recursive forwarders (the 72 % majority) ---
        let n_recursive = config
            .scaled(profile.recursive_forwarders(), &mut rng)
            .saturating_sub(n_chain_heads);
        let mut left = n_recursive;
        while left > 0 {
            let (as_id, asn) = pick_as(&mut rng);
            let block = alloc.next();
            geo.add_prefix24(Ipv4Addr::from(block), asn);
            let in_block = left.min(200);
            for i in 0..in_block {
                let ip = Ipv4Addr::from(block + i + 1);
                let node = b.add_host(as_id, HostSpec::simple(ip));
                let resolver = match rng.gen_range(0..100) {
                    0..=39 => ResolverProject::Google.service_ip(),
                    40..=54 => ResolverProject::Cloudflare.service_ip(),
                    _ => pool[rng.gen_range(0..pool.len())],
                };
                let device = if config.with_devices && rng.gen_bool(0.05) {
                    Some(Arc::clone(&mikrotik))
                } else {
                    None
                };
                let vendor = device.as_ref().map(|d| d.vendor);
                plans.push((
                    node,
                    HostPlan::Recursive {
                        resolver,
                        manipulation: Manipulation::None,
                        device,
                    },
                ));
                truth.hosts.push(PlantedHost {
                    ip,
                    node,
                    class: PlantedClass::RecursiveForwarder,
                    country: profile.code,
                    asn,
                    vendor,
                    resolver_target: Some(resolver),
                    middlebox: false,
                });
            }
            left -= in_block;
        }

        // --- Manipulated forwarders (Shadowserver-only hosts) ---
        let n_manipulated = config.scaled(profile.manipulated(), &mut rng);
        let mut left = n_manipulated;
        while left > 0 {
            let (as_id, asn) = pick_as(&mut rng);
            let block = alloc.next();
            geo.add_prefix24(Ipv4Addr::from(block), asn);
            let in_block = left.min(200);
            for i in 0..in_block {
                let ip = Ipv4Addr::from(block + i + 1);
                let node = b.add_host(as_id, HostSpec::simple(ip));
                let resolver = pool[rng.gen_range(0..pool.len())];
                plans.push((
                    node,
                    HostPlan::Recursive {
                        resolver,
                        manipulation: Manipulation::ReplaceARecords(Ipv4Addr::new(
                            100,
                            66,
                            rng.gen_range(0..255),
                            rng.gen_range(1..255),
                        )),
                        device: None,
                    },
                ));
                truth.hosts.push(PlantedHost {
                    ip,
                    node,
                    class: PlantedClass::ManipulatedForwarder,
                    country: profile.code,
                    asn,
                    vendor: None,
                    resolver_target: Some(resolver),
                    middlebox: false,
                });
            }
            left -= in_block;
        }
    }

    // Router space in 10/8 belongs to the backbone for geo purposes.
    geo.add_asn(64601, "USA", AsKind::Transit);
    geo.add_asn(64602, "USA", AsKind::Transit);
    geo.add_asn(64603, "USA", AsKind::Transit);
    geo.add_asn(64604, "USA", AsKind::Transit);
    for i in 0..6u32 {
        geo.add_asn(64611 + i, "USA", AsKind::Transit);
    }

    // ---- Build & install -------------------------------------------------------
    let topo = b.build().expect("generated topology is valid");
    // Register router prefixes now that the topology assigned them.
    for as_idx in 0..topo.as_count() {
        let spec = topo.as_spec(AsId(as_idx as u32));
        for r in &spec.transit_routers {
            geo.add_prefix24(*r, spec.asn);
        }
    }

    // The fault plan is salted from the *generation* seed, which is shared
    // by every shard — per-flow fault verdicts are therefore invariant
    // under the shard count even though per-shard sim seeds differ.
    let mut sim_config = SimConfig::for_shard(config.seed, spec.index);
    sim_config.faults = config.faults.clone().salted(config.seed);
    let mut sim = Simulator::new(topo, sim_config.clone());

    // Study infrastructure: every shard deploys its own full root → TLD →
    // authoritative stack, so recursive resolution never crosses shards.
    // Public resolvers and the population install through the blueprint,
    // which [`Internet::reset`] replays onto the reset simulator.
    let blueprint = WorldBlueprint {
        config: sim_config,
        study: StudyNodes {
            root: root_node,
            tld: tld_node,
            tld_ip: TLD_IP,
            auth: auth_node,
            auth_ip: AUTH_IP,
        },
        project_resolvers: project_nodes.iter().map(|(_, n)| *n).collect(),
        plans,
    };
    install_hosts(&mut sim, &blueprint);

    // ---- Scan target list -------------------------------------------------------
    // Duds and shuffle order draw from a per-shard stream: the shard's
    // probe order is deterministic, and reordering never changes *which*
    // hosts are probed — only the offline correlation sees the order.
    let mut trng = SmallRng::seed_from_u64(derive_seed(
        config.seed,
        TARGET_STREAM | u64::from(spec.index),
    ));
    let mut targets: Vec<Ipv4Addr> = truth.hosts.iter().map(|h| h.ip).collect();
    let dud_count = (targets.len() as f64 * config.dud_fraction) as usize;
    for _ in 0..dud_count {
        // 170/8 is never allocated by the generator: guaranteed silence.
        targets.push(Ipv4Addr::new(
            170,
            trng.gen_range(0..=255),
            trng.gen_range(0..=255),
            trng.gen_range(1..=254),
        ));
    }
    // Fisher-Yates with the shard's target RNG: deterministic shuffle.
    for i in (1..targets.len()).rev() {
        let j = trng.gen_range(0..=i);
        targets.swap(i, j);
    }

    Internet {
        sim,
        blueprint,
        fixtures: Fixtures {
            scanner,
            scanner_ip: SCANNER_IP,
            campaign_scanners,
            root_ip: ROOT_IP,
            tld_ip: TLD_IP,
            auth_ip: AUTH_IP,
            auth: auth_node,
            sensor1,
            sensor2,
            sensor3,
            sensor_addrs,
            victim,
            victim_ip: VICTIM_IP,
        },
        truth,
        geo,
        targets,
    }
}
