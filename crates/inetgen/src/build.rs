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
use crate::countries::{by_code, CountryProfile, Region, COUNTRIES};
use crate::geodb::GeoDb;
use crate::shard::{shard_of_country, ShardSpec};
use netsim::shard::derive_seed;
use netsim::{
    AsId, AsKind, AsSpec, CountryCode, HostSpec, NodeId, Relationship, SimConfig, SimDuration,
    Simulator, TopologyBuilder,
};
use odns::{
    DeviceProfile, Manipulation, RecursiveForwarder, RecursiveResolver, ResolverConfig,
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
    /// The address a manipulated forwarder writes into every A record it
    /// relays (None for every other class).
    pub injects: Option<Ipv4Addr>,
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
    /// Sensor 2 node: primary address `IP3`, which it answers from, and
    /// `IP2`, where it is probed.
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
        /// Sensor 2 receive address (an extra address of its node).
        pub ip2: Ipv4Addr,
        /// Sensor 2 reply address: its node's primary address, same /24.
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
    /// What [`Internet::reset`] needs besides `truth` to reinstall hosts.
    blueprint: WorldBlueprint,
    /// Standard experiment nodes.
    pub fixtures: Fixtures,
    /// What was planted where.
    pub truth: GroundTruth,
    /// Routeviews/MaxMind-style lookup data for the analysis stage.
    pub geo: GeoDb,
    /// Scan target list: every planted address plus its country's duds,
    /// shuffled. A world's set is its shards' union; only order is per shard.
    pub targets: Vec<Ipv4Addr>,
}

impl Internet {
    /// Restore a scanned world to its pre-scan state: the simulator
    /// rewinds (clock, queue, fault plan, stats — see
    /// [`Simulator::reset`]) and every host reinstalls from `truth.hosts`.
    /// The result runs any experiment bit-identically to a freshly
    /// generated world, while keeping the expensive topology, route caches,
    /// ground truth, geo database, and target list. This is the
    /// generate-once/scan-many hook [`crate::ShardWorldCache`] relies on.
    pub fn reset(&mut self) {
        self.sim.reset(&self.blueprint.config);
        install_hosts(&mut self.sim, &self.blueprint, &self.truth.hosts);
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
/// bounds planted blocks (from the bottom; Brazil at `scale = 1` can burn
/// one per sparse transparent host, ≈ 65 k) plus dud blocks (from the top).
const COUNTRY_BLOCK_SPAN: u32 = 0x1_8000;

// The 11/8..125/8 pool holds 0x73_0000 /24 blocks — room for 76 country
// regions. Grow the pool before growing the calibration table past that.
const _: () = assert!(
    COUNTRIES.len() <= 76,
    "country regions exceed the population pool"
);

/// A fixed run of consecutive /24 blocks, handed out one at a time. Each
/// owner — a country's population, a country's routers, the backbone's
/// routers — draws from its own run, so its addresses never depend on
/// which other countries or ASes share the topology.
struct Blocks {
    next: u32,
    limit: u32,
}

/// Router space is 10/8; its first blocks belong to the backbone and
/// fixtures (they use ~20).
const ROUTER_BASE: u32 = 0x0A00_0000;
const BACKBONE_ROUTER_BLOCKS: u32 = 64;

impl Blocks {
    fn population(global_index: usize) -> Self {
        let next = POPULATION_BASE + global_index as u32 * COUNTRY_BLOCK_SPAN * 0x100;
        let limit = next + COUNTRY_BLOCK_SPAN * 0x100;
        assert!(
            limit <= 0x7E00_0000,
            "country region exceeded the 11/8..125/8 pool"
        );
        Blocks { next, limit }
    }

    fn backbone_routers() -> Self {
        Blocks {
            next: ROUTER_BASE,
            limit: ROUTER_BASE + BACKBONE_ROUTER_BLOCKS * 0x100,
        }
    }

    fn country_routers(global_index: usize) -> Self {
        // Regions sized by the country's full-scale AS count — the hard
        // ceiling on how many ASes `scaled_ases` can ever request.
        let next = ROUTER_BASE + (BACKBONE_ROUTER_BLOCKS + ases_before(global_index)) * 0x100;
        let limit = next + u32::from(COUNTRIES[global_index].as_count) * 0x100;
        assert!(limit <= POPULATION_BASE, "router space exhausted");
        Blocks { next, limit }
    }

    /// Base address of the next free /24.
    fn next(&mut self) -> u32 {
        let block = self.next;
        self.next += 0x100;
        assert!(self.next <= self.limit, "/24 region exhausted");
        block
    }
}

/// The first `n` host addresses of a /24, `.1` upward.
fn hosts_of(block: u32, n: u32) -> impl Iterator<Item = Ipv4Addr> + Clone {
    (1..=n).map(move |i| Ipv4Addr::from(block + i))
}

/// Full-scale AS count of every country before `global_index`: the offset
/// of a country's router region and of its 16-bit ASN region.
fn ases_before(global_index: usize) -> u32 {
    COUNTRIES[..global_index]
        .iter()
        .map(|c| u32::from(c.as_count))
        .sum()
}

/// 16-bit ASN regions are sized by `as_count`; 32-bit regions hold 10 000
/// per country, far above any `as_count`.
const ASN16_BASE: u32 = 20_000;
const ASN32_BASE: u32 = 4_200_000_000;
const ASN32_SPAN: u32 = 10_000;

/// RNG stream tags for [`derive_seed`] — one namespace per purpose, so a
/// country stream can never collide with a shard's target stream.
const COUNTRY_STREAM: u64 = 0xC0_0000_0000;
const TARGET_STREAM: u64 = 0x7A_0000_0000;

/// What reinstalling a shard's hosts onto a reset simulator needs besides
/// the ground truth itself: the sim config (fault plan, event budget), the
/// study-stack nodes and the public resolver nodes. Kept by [`Internet`] so
/// [`Internet::reset`] can restore a scanned world to its pre-scan state
/// without regenerating the topology.
#[derive(Debug, Clone)]
struct WorldBlueprint {
    config: SimConfig,
    study: StudyNodes,
    project_resolvers: Vec<NodeId>,
}

/// Install the study stack, public resolvers, and the planted population
/// onto a simulator that has no hosts yet (fresh or just reset). Shared by
/// first generation and every [`Internet::reset`], so a reset world is
/// rebuilt by the exact code path that built it — from the same
/// [`PlantedHost`] records the analysis reads as ground truth.
fn install_hosts(sim: &mut Simulator, bp: &WorldBlueprint, planted: &[PlantedHost]) {
    odns::install_study_stack(sim, bp.study, false);
    let resolver = |cache_capacity| {
        RecursiveResolver::new(ResolverConfig {
            cache_capacity,
            ..ResolverConfig::open(vec![ROOT_IP])
        })
    };
    for node in &bp.project_resolvers {
        sim.install(*node, resolver(4096));
    }
    // One profile per vendor, shared by every host that carries it.
    let devices = Vendor::all().map(|vendor| {
        Arc::new(match vendor {
            Vendor::MikroTik => DeviceProfile::mikrotik(),
            Vendor::GenericCpe => DeviceProfile::generic(),
            Vendor::DLink | Vendor::Zyxel | Vendor::Huawei => DeviceProfile::with_mgmt(vendor),
        })
    });
    let mut installed = None;
    for p in planted {
        // A /24 middlebox is 254 consecutive entries sharing one node.
        if installed.replace(p.node) == Some(p.node) {
            continue;
        }
        let upstream = || p.resolver_target.expect("a forwarder has an upstream");
        let device = p.vendor.map(|v| {
            let shared = devices.iter().find(|d| d.vendor == v);
            Arc::clone(shared.expect("one profile per vendor"))
        });
        match p.class {
            PlantedClass::RecursiveResolver => sim.install(p.node, resolver(256)),
            PlantedClass::TransparentForwarder => {
                let mut fwd = TransparentForwarder::new(upstream());
                if let Some(d) = device {
                    fwd = fwd.with_device(d);
                }
                sim.install(p.node, fwd);
            }
            PlantedClass::RecursiveForwarder | PlantedClass::ManipulatedForwarder => {
                let manipulation = p
                    .injects
                    .map_or(Manipulation::None, Manipulation::ReplaceARecords);
                let mut fwd = RecursiveForwarder::new(upstream()).with_manipulation(manipulation);
                if let Some(d) = device {
                    fwd = fwd.with_device(d);
                }
                sim.install(p.node, fwd);
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
/// classic single-simulator world. Countries bring their own duds, so
/// only the target shuffle is per shard.
pub fn generate_shard(config: &GenConfig, spec: ShardSpec) -> Internet {
    let mut draft = Draft {
        b: TopologyBuilder::new(),
        geo: GeoDb::new(),
        truth: GroundTruth::default(),
        duds: Vec::new(),
    };

    // Backbone and fixtures draw no randomness: byte-identical in every
    // shard.
    let mut routers = Blocks::backbone_routers();
    let backbone = backbone(&mut draft, &mut routers);
    let (fixtures, study) = fixtures(&mut draft, &mut routers, &backbone);
    for (global_index, profile) in selected_countries(config, spec) {
        plant_country(&mut draft, config, &backbone, global_index, profile);
    }

    // The fault plan is salted from the *generation* seed, which is shared
    // by every shard — per-flow fault verdicts are therefore invariant
    // under the shard count.
    let sim_config = SimConfig {
        faults: config.faults.clone().salted(config.seed),
        ..SimConfig::default()
    };
    let topo = draft.b.build().expect("generated topology is valid");
    let mut sim = Simulator::new(topo, sim_config.clone());

    // Every shard deploys its own full root → TLD → authoritative stack,
    // so recursive resolution never crosses shards.
    let blueprint = WorldBlueprint {
        config: sim_config,
        study,
        project_resolvers: backbone.project_resolvers,
    };
    install_hosts(&mut sim, &blueprint, &draft.truth.hosts);

    let planted = draft.truth.hosts.iter().map(|h| h.ip);
    let targets = scan_targets(config, spec, planted.chain(draft.duds).collect());
    Internet {
        sim,
        blueprint,
        fixtures,
        truth: draft.truth,
        geo: draft.geo,
        targets,
    }
}

/// A shard under construction. Topology and lookup database grow
/// together: whatever adds a network to one registers it in the other.
struct Draft {
    b: TopologyBuilder,
    geo: GeoDb,
    truth: GroundTruth,
    /// Every planted country's dud targets, in planting order.
    duds: Vec<Ipv4Addr>,
}

impl Draft {
    /// Add an AS with `n_routers` transit routers and its registry entry.
    /// Every AS gets its own /24 of router space inside 10/8, so the geo
    /// database maps any hop to exactly one ASN (DNSRoute++ depends on
    /// this being unambiguous).
    fn add_as(
        &mut self,
        routers: &mut Blocks,
        asn: u32,
        country: &'static str,
        kind: AsKind,
        sav_outbound: bool,
        n_routers: u32,
    ) -> AsId {
        let transit_routers: Vec<Ipv4Addr> = hosts_of(routers.next(), n_routers).collect();
        for r in &transit_routers {
            self.geo.add_prefix24(*r, asn);
        }
        self.geo.add_asn(asn, country, kind);
        self.b.add_as(AsSpec {
            asn,
            country: CountryCode::new(country),
            kind,
            sav_outbound,
            transit_routers,
        })
    }

    /// Add a single-address host and announce its /24 from `asn`.
    fn add_host(&mut self, as_id: AsId, asn: u32, ip: Ipv4Addr) -> NodeId {
        self.geo.add_prefix24(ip, asn);
        self.b.add_host(as_id, HostSpec::simple(ip))
    }
}

/// The part of every shard that no country owns.
struct Backbone {
    /// Four tier-1 transits, full mesh.
    tier1: Vec<AsId>,
    /// One regional transit per [`Region`], indexed by [`Region::index`].
    regional: Vec<AsId>,
    google_as: AsId,
    cloudflare_as: AsId,
    /// The four public resolver projects' egress nodes.
    project_resolvers: Vec<NodeId>,
}

/// Transit mesh and public resolver projects.
fn backbone(d: &mut Draft, routers: &mut Blocks) -> Backbone {
    use Relationship::{Peer, ProviderCustomer};

    let tier1: Vec<AsId> = (0..4)
        .map(|i| d.add_as(routers, 64601 + i, "USA", AsKind::Transit, true, 2))
        .collect();
    for i in 0..tier1.len() {
        for j in (i + 1)..tier1.len() {
            d.b.connect(tier1[i], tier1[j], Peer);
        }
    }
    // Three routers per regional backbone: calibrated so the Figure 6
    // means land near the paper's 6.3/7.9/9.3 hops.
    let regional: Vec<AsId> = (0..Region::all().len() as u32)
        .map(|i| d.add_as(routers, 64611 + i, "USA", AsKind::Transit, true, 3))
        .collect();
    for (i, &r) in regional.iter().enumerate() {
        d.b.connect(tier1[i % 4], r, ProviderCustomer);
        d.b.connect(tier1[(i + 1) % 4], r, ProviderCustomer);
    }

    // PoP footprint is modeled as peering density: Cloudflare peers with
    // everything (plus a share of eyeball ASes, see `country_ases`),
    // Google with every regional, Quad9 with a subset, OpenDNS barely —
    // yielding the Figure 6 path-length ordering Cloudflare < Google <
    // OpenDNS. Each project is its AS plus one egress node that also
    // answers the project's anycast service address.
    let mut project_resolvers = Vec::new();
    let mut project = |d: &mut Draft, project: ResolverProject, n_routers, egress| {
        let asn = project.asn();
        let as_id = d.add_as(routers, asn, "USA", AsKind::Content, true, n_routers);
        d.geo.add_prefix24(egress, asn);
        d.geo.add_anycast(project.service_ip(), asn);
        let spec = HostSpec {
            link_latency: SimDuration::from_micros(500),
            ..HostSpec::simple(egress)
        };
        let node = d.b.add_host(as_id, spec);
        d.b.add_anycast_instance(project.service_ip(), node);
        project_resolvers.push(node);
        as_id
    };
    let google_as = project(d, ResolverProject::Google, 2, Ipv4Addr::new(8, 8, 4, 1));
    for &r in &regional {
        d.b.connect(google_as, r, Peer);
    }
    d.b.connect(google_as, tier1[0], Peer);
    d.b.connect(google_as, tier1[1], Peer);

    let cloudflare_as = project(d, ResolverProject::Cloudflare, 1, Ipv4Addr::new(1, 0, 0, 1));
    for &r in regional.iter().chain(&tier1) {
        d.b.connect(cloudflare_as, r, Peer);
    }

    let quad9_as = project(d, ResolverProject::Quad9, 2, Ipv4Addr::new(9, 9, 9, 10));
    d.b.connect(quad9_as, regional[Region::Europe.index()], Peer);
    d.b.connect(quad9_as, regional[Region::NorthAmerica.index()], Peer);
    d.b.connect(quad9_as, tier1[2], Peer);

    let opendns_as = project(
        d,
        ResolverProject::OpenDns,
        3,
        Ipv4Addr::new(208, 67, 220, 1),
    );
    d.b.connect(tier1[3], opendns_as, ProviderCustomer);
    d.b.connect(opendns_as, regional[Region::NorthAmerica.index()], Peer);

    Backbone {
        tier1,
        regional,
        google_as,
        cloudflare_as,
        project_resolvers,
    }
}

/// Fixture networks: the scanner, the study's name servers, the sensor
/// network and a victim — nodes only, their hosts are the caller's.
fn fixtures(d: &mut Draft, routers: &mut Blocks, bb: &Backbone) -> (Fixtures, StudyNodes) {
    use Relationship::{Peer, ProviderCustomer};
    let europe = bb.regional[Region::Europe.index()];

    let scanner_as = d.add_as(routers, 64496, "DEU", AsKind::Education, true, 1);
    d.b.connect(bb.tier1[0], scanner_as, ProviderCustomer);
    d.b.connect(scanner_as, europe, Peer);
    let scanner = d.add_host(scanner_as, 64496, SCANNER_IP);
    let campaign_scanners =
        [11, 12, 13].map(|i| d.add_host(scanner_as, 64496, Ipv4Addr::new(192, 0, 2, i)));

    let infra_as = d.add_as(routers, 64500, "DEU", AsKind::Content, true, 1);
    d.b.connect(bb.tier1[0], infra_as, ProviderCustomer);
    d.b.connect(bb.tier1[1], infra_as, ProviderCustomer);
    let [root, tld, auth] = [ROOT_IP, TLD_IP, AUTH_IP].map(|ip| d.add_host(infra_as, 64500, ip));

    // The sensor network of §3.1: no outbound SAV, and a direct IXP
    // peering with Google's AS ("our network peers directly with Google at
    // an IXP, so we are not exposed to filters from upstream providers").
    let sensor_as = d.add_as(routers, 64497, "DEU", AsKind::Education, false, 1);
    d.b.connect(europe, sensor_as, ProviderCustomer);
    d.b.connect(sensor_as, bb.google_as, Peer);
    let sensor_addrs = scanner_addrs::SensorAddrs {
        ip1: Ipv4Addr::new(203, 0, 113, 11),
        ip2: Ipv4Addr::new(203, 0, 113, 22),
        ip3: Ipv4Addr::new(203, 0, 113, 23),
        ip4: Ipv4Addr::new(203, 0, 113, 44),
    };
    let sensor1 = d.add_host(sensor_as, 64497, sensor_addrs.ip1);
    // Sensor 2 is probed at IP2 and answers, like any host, from its
    // primary address: IP3.
    let sensor2 = d.b.add_host(
        sensor_as,
        HostSpec {
            extra_ips: vec![sensor_addrs.ip2],
            ..HostSpec::simple(sensor_addrs.ip3)
        },
    );
    let sensor3 = d.add_host(sensor_as, 64497, sensor_addrs.ip4);

    let victim_as = d.add_as(routers, 64498, "DEU", AsKind::EyeballIsp, true, 1);
    d.b.connect(europe, victim_as, ProviderCustomer);
    let victim = d.add_host(victim_as, 64498, VICTIM_IP);

    let fixtures = Fixtures {
        scanner,
        scanner_ip: SCANNER_IP,
        campaign_scanners,
        root_ip: ROOT_IP,
        tld_ip: TLD_IP,
        auth_ip: AUTH_IP,
        auth,
        sensor1,
        sensor2,
        sensor3,
        sensor_addrs,
        victim,
        victim_ip: VICTIM_IP,
    };
    let study = StudyNodes {
        root,
        tld,
        tld_ip: TLD_IP,
        auth,
        auth_ip: AUTH_IP,
    };
    (fixtures, study)
}

/// The countries this shard plants, each with its index in the full
/// [`COUNTRIES`] table: that index — not the position within the
/// selection — keys its address region, ASN region, router region, and RNG
/// stream, so a country is planted identically whatever subset or shard it
/// is in. Panics on a code the table does not have: a misspelt selection
/// must not quietly plant a smaller world.
fn selected_countries(
    config: &GenConfig,
    spec: ShardSpec,
) -> impl Iterator<Item = (usize, &'static CountryProfile)> + '_ {
    if let CountrySelection::Codes(codes) = &config.countries {
        for code in codes {
            assert!(
                by_code(code).is_some(),
                "unknown country code {code:?} in CountrySelection::Codes"
            );
        }
    }
    COUNTRIES.iter().enumerate().filter(move |(i, c)| {
        let wanted = match &config.countries {
            CountrySelection::All => true,
            CountrySelection::Codes(codes) => codes.contains(&c.code),
        };
        wanted && shard_of_country(*i, spec.count) == spec.index
    })
}

/// What a planted host does with a query — the part of a [`PlantedHost`]
/// each population draws for itself.
#[derive(Clone, Copy, Default)]
struct Role {
    upstream: Option<Ipv4Addr>,
    vendor: Option<Vendor>,
    injects: Option<Ipv4Addr>,
}

/// One country mid-planting: its RNG stream, its fixed address region and
/// the ASes its hosts spread over. Everything a country draws comes from
/// here — the sharding determinism contract.
struct Planter<'a> {
    d: &'a mut Draft,
    rng: SmallRng,
    blocks: Blocks,
    country: &'static str,
    ases: Vec<(AsId, u32)>,
    /// Zipf-ish AS weights: the first AS dominates (Table 4's "Top ASN"
    /// concentration).
    weights: Vec<f64>,
    weight_sum: f64,
}

impl Planter<'_> {
    fn pick_as(&mut self) -> (AsId, u32) {
        let mut x = self.rng.gen_range(0.0..self.weight_sum);
        for (i, w) in self.weights.iter().enumerate() {
            if x < *w {
                return self.ases[i];
            }
            x -= w;
        }
        self.ases[self.ases.len() - 1]
    }

    /// Plant `n` addresses of `class` in the next free /24 of a weighted
    /// random AS, each host's [`Role`] drawn by `draw`. A `middlebox`
    /// block is one node owning all `n` addresses with one role; any other
    /// block is `n` nodes.
    fn plant_block(
        &mut self,
        n: u32,
        class: PlantedClass,
        middlebox: bool,
        draw: &mut impl FnMut(&mut SmallRng) -> Role,
    ) {
        let (as_id, asn) = self.pick_as();
        let block = self.blocks.next();
        self.d.geo.add_prefix24(Ipv4Addr::from(block), asn);
        let ips = hosts_of(block, n);
        let shared = middlebox.then(|| {
            let spec = HostSpec {
                extra_ips: ips.clone().skip(1).collect(),
                ..HostSpec::simple(Ipv4Addr::from(block + 1))
            };
            (self.d.b.add_host(as_id, spec), draw(&mut self.rng))
        });
        for ip in ips {
            let (node, role) = shared.unwrap_or_else(|| {
                let node = self.d.b.add_host(as_id, HostSpec::simple(ip));
                (node, draw(&mut self.rng))
            });
            self.d.truth.hosts.push(PlantedHost {
                ip,
                node,
                class,
                country: self.country,
                asn,
                vendor: role.vendor,
                resolver_target: role.upstream,
                middlebox,
                injects: role.injects,
            });
        }
    }

    /// Plant `total` addresses block by block, `block_size` deciding from
    /// what is left how many the next /24 holds. Returns what was planted.
    fn plant(
        &mut self,
        total: u32,
        class: PlantedClass,
        middlebox: bool,
        mut block_size: impl FnMut(&mut SmallRng, u32) -> u32,
        mut draw: impl FnMut(&mut SmallRng) -> Role,
    ) -> &[PlantedHost] {
        let start = self.d.truth.hosts.len();
        let mut left = total;
        while left > 0 {
            let n = block_size(&mut self.rng, left);
            self.plant_block(n, class, middlebox, &mut draw);
            left -= n;
        }
        &self.d.truth.hosts[start..]
    }

    /// Add `n` duds: `.1`–`.254` of /24s from the top of the region down.
    /// The limit drops below them, so no host or geo prefix ever lands
    /// there. Panics, before allocating, if they would meet planted blocks.
    fn plant_duds(&mut self, n: u64) {
        let blocks = n.div_ceil(254);
        let free = u64::from(self.blocks.limit - self.blocks.next) / 0x100;
        assert!(
            blocks <= free,
            "{}: {n} duds overflow its population region ({blocks} /24s wanted, {free} free)",
            self.country
        );
        let top = self.blocks.limit;
        self.blocks.limit -= blocks as u32 * 0x100;
        let ips = (1..=blocks as u32).flat_map(|i| hosts_of(top - i * 0x100, 254));
        self.d.duds.extend(ips.take(n as usize));
    }
}

/// Create a country's ASes under its regional transit, with the peering
/// that shapes Figure 6.
fn country_ases(
    d: &mut Draft,
    rng: &mut SmallRng,
    config: &GenConfig,
    bb: &Backbone,
    global_index: usize,
    profile: &CountryProfile,
) -> Vec<(AsId, u32)> {
    let mut routers = Blocks::country_routers(global_index);
    let mut asn_counter_32bit = ASN32_BASE + global_index as u32 * ASN32_SPAN;
    let mut asn_counter_16bit = ASN16_BASE + ases_before(global_index);
    (0..config.scaled_ases(profile.as_count))
        .map(|_| {
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
            // ASes hosting transparent forwarders cannot filter spoofed
            // egress; model the country's eyeball space as mostly SAV-free
            // when it hosts transparents.
            let sav_outbound = profile.transparent == 0 && rng.gen_bool(0.5);
            let as_id = d.add_as(&mut routers, asn, profile.code, kind, sav_outbound, 1);
            let regional = bb.regional[profile.region.index()];
            d.b.connect(regional, as_id, Relationship::ProviderCustomer);
            if rng.gen_bool(0.3) {
                let t = bb.tier1[rng.gen_range(0..bb.tier1.len())];
                d.b.connect(t, as_id, Relationship::ProviderCustomer);
            }
            // Cloudflare's IXP omnipresence: direct peering with a share
            // of eyeball networks (drives its short Figure 6 paths).
            if rng.gen_bool(0.35) {
                d.b.connect(as_id, bb.cloudflare_as, Relationship::Peer);
            }
            // Google peers at far fewer IXPs than Cloudflare — the gap
            // behind Figure 6's Cloudflare < Google ordering.
            if rng.gen_bool(0.04) {
                d.b.connect(as_id, bb.google_as, Relationship::Peer);
            }
            (as_id, asn)
        })
        .collect()
}

/// Where a transparent forwarder relays to: one of the four projects by
/// the country's Figure 5 mix, else ("other") a chain head or a local
/// resolver.
fn draw_upstream(
    rng: &mut SmallRng,
    profile: &CountryProfile,
    pool: &[Ipv4Addr],
    heads: &[Ipv4Addr],
) -> Ipv4Addr {
    let m = &profile.mix;
    let mut x = rng.gen_range(0..100u32);
    for (share, project) in [
        (m.google, ResolverProject::Google),
        (m.cloudflare, ResolverProject::Cloudflare),
        (m.quad9, ResolverProject::Quad9),
        (m.opendns, ResolverProject::OpenDns),
    ] {
        if x < u32::from(share) {
            return project.service_ip();
        }
        x -= u32::from(share);
    }
    if !heads.is_empty() && rng.gen_range(0..100u32) < u32::from(profile.other.indirect_pct) {
        heads[rng.gen_range(0..heads.len())]
    } else {
        pool[rng.gen_range(0..pool.len())]
    }
}

/// The CPE behind a transparent forwarder. §6: ~23 % MikroTik overall,
/// with half of the MikroTik population in whole-/24 middlebox
/// deployments: with 36 % of addresses in middleboxes, 0.36·0.32 ≈
/// 0.64·0.18 ≈ 11.5 % each side, totalling ≈23 %.
fn draw_cpe(rng: &mut SmallRng, middlebox: bool) -> Vendor {
    if rng.gen_bool(if middlebox { 0.32 } else { 0.18 }) {
        Vendor::MikroTik
    } else if rng.gen_bool(0.12) {
        Vendor::Zyxel
    } else if rng.gen_bool(0.1) {
        Vendor::DLink
    } else if rng.gen_bool(0.05) {
        Vendor::Huawei
    } else {
        Vendor::GenericCpe
    }
}

/// Plant one country: its ASes, then its resolvers, chain heads,
/// transparent forwarders (Figure 8's density mixture), recursive
/// forwarders and manipulated forwarders — in that order, which is the
/// draw order of the country's RNG stream — then `round(P · dud_fraction)`
/// duds for its `P` planted addresses, which draw nothing.
fn plant_country(
    d: &mut Draft,
    config: &GenConfig,
    bb: &Backbone,
    global_index: usize,
    profile: &'static CountryProfile,
) {
    d.truth.countries.push(profile.code);
    let first_host = d.truth.hosts.len();
    let mut rng = SmallRng::seed_from_u64(derive_seed(
        config.seed,
        COUNTRY_STREAM | global_index as u64,
    ));
    let ases = country_ases(d, &mut rng, config, bb, global_index, profile);
    let weights: Vec<f64> = (0..ases.len())
        .map(|i| 1.0 / (i as f64 + 1.0).powf(1.1))
        .collect();
    let mut p = Planter {
        d,
        rng,
        blocks: Blocks::population(global_index),
        country: profile.code,
        ases,
        weight_sum: weights.iter().sum(),
        weights,
    };
    let google = ResolverProject::Google.service_ip();

    // Resolvers; the first few are the local "other" pool.
    let n_resolvers = config
        .scaled(profile.resolvers, &mut p.rng)
        .max(u32::from(profile.other.local_resolvers.min(2)));
    let mut pool: Vec<Ipv4Addr> = p
        .plant(
            n_resolvers,
            PlantedClass::RecursiveResolver,
            false,
            |_, left| left.min(254),
            |_| Role::default(),
        )
        .iter()
        .map(|h| h.ip)
        .take(usize::from(profile.other.local_resolvers))
        .collect();
    if pool.is_empty() {
        // Degenerate scale: fall back to Google so forwarders always have
        // a live upstream.
        pool.push(google);
    }

    // Chain heads: country-local recursive forwarders that relay to
    // Google — the "indirect consolidation" hop (Table 4) — one per /24.
    let n_transparent = config.scaled(profile.transparent, &mut p.rng);
    let other_share = f64::from(profile.mix.other()) / 100.0;
    let indirect = f64::from(profile.other.indirect_pct) / 100.0;
    let expected_chain_clients = (n_transparent as f64 * other_share * indirect).round() as u32;
    let n_chain_heads = if expected_chain_clients > 0 {
        (expected_chain_clients / 80).max(1)
    } else {
        0
    };
    let relays_to_google = Role {
        upstream: Some(google),
        ..Role::default()
    };
    let heads: Vec<Ipv4Addr> = p
        .plant(
            n_chain_heads,
            PlantedClass::RecursiveForwarder,
            false,
            |_, _| 1,
            |_| relays_to_google,
        )
        .iter()
        .map(|h| h.ip)
        .collect();

    // Transparent forwarders. Full /24 middleboxes: 36 % of transparent
    // addresses at full scale. Probabilistic rounding of the fractional
    // part keeps the *expected* share on target even when single countries
    // are too small for a whole middlebox; the hard cap keeps country
    // totals exact.
    let mb_expect = (n_transparent as f64 * 0.36) / 254.0;
    let mut n_middleboxes = mb_expect.floor() as u32;
    if p.rng.gen_bool(mb_expect.fract().clamp(0.0, 1.0)) {
        n_middleboxes += 1;
    }
    let in_middleboxes = n_middleboxes.min(n_transparent / 254) * 254;
    // Sparse prefixes (1..=25 per /24) hold 26 % of addresses, medium ones
    // the rest.
    let sparse = ((n_transparent as f64 * 0.26).round() as u32).min(n_transparent - in_middleboxes);
    let medium = n_transparent - in_middleboxes - sparse;
    let (pool, heads) = (&pool[..], &heads[..]);
    let cpe = |middlebox| {
        move |rng: &mut SmallRng| Role {
            upstream: Some(draw_upstream(rng, profile, pool, heads)),
            vendor: Some(draw_cpe(rng, middlebox)),
            ..Role::default()
        }
    };
    let transparent = PlantedClass::TransparentForwarder;
    p.plant(in_middleboxes, transparent, true, |_, _| 254, cpe(true));
    let up_to_25 = |rng: &mut SmallRng, left: u32| rng.gen_range(1..=25u32).min(left);
    p.plant(sparse, transparent, false, up_to_25, cpe(false));
    let up_to_253 = |rng: &mut SmallRng, left: u32| rng.gen_range(26..=253u32).min(left);
    p.plant(medium, transparent, false, up_to_253, cpe(false));

    // Recursive forwarders (the 72 % majority), 200 to a /24.
    let n_recursive = config
        .scaled(profile.recursive_forwarders(), &mut p.rng)
        .saturating_sub(n_chain_heads);
    p.plant(
        n_recursive,
        PlantedClass::RecursiveForwarder,
        false,
        |_, left| left.min(200),
        |rng| Role {
            upstream: Some(match rng.gen_range(0..100) {
                0..=39 => google,
                40..=54 => ResolverProject::Cloudflare.service_ip(),
                _ => pool[rng.gen_range(0..pool.len())],
            }),
            vendor: rng.gen_bool(0.05).then_some(Vendor::MikroTik),
            ..Role::default()
        },
    );

    // Manipulated forwarders (Shadowserver-only hosts).
    let n_manipulated = config.scaled(profile.manipulated(), &mut p.rng);
    p.plant(
        n_manipulated,
        PlantedClass::ManipulatedForwarder,
        false,
        |_, left| left.min(200),
        |rng| Role {
            upstream: Some(pool[rng.gen_range(0..pool.len())]),
            injects: Some(Ipv4Addr::new(
                100,
                66,
                rng.gen_range(0..255),
                rng.gen_range(1..255),
            )),
            ..Role::default()
        },
    );

    let planted = (p.d.truth.hosts.len() - first_host) as f64;
    p.plant_duds((planted * config.dud_fraction).round() as u64);
}

/// The shard's scan target list — its planted addresses, then its
/// countries' duds — shuffled by a per-shard stream. The shard's probe
/// order is deterministic, and reordering never changes *which* addresses
/// are probed — only the offline correlation sees the order.
fn scan_targets(config: &GenConfig, spec: ShardSpec, mut targets: Vec<Ipv4Addr>) -> Vec<Ipv4Addr> {
    let mut rng = SmallRng::seed_from_u64(derive_seed(
        config.seed,
        TARGET_STREAM | u64::from(spec.index),
    ));
    // Fisher-Yates with the shard's target RNG: deterministic shuffle.
    for i in (1..targets.len()).rev() {
        let j = rng.gen_range(0..=i);
        targets.swap(i, j);
    }
    targets
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    #[should_panic(expected = "unknown country code \"BRX\"")]
    fn unknown_country_code_is_refused() {
        let config = GenConfig {
            countries: CountrySelection::Codes(vec!["MUS", "BRX"]),
            ..GenConfig::test_small()
        };
        let _ = generate(&config);
    }

    /// Duds are distinct from each other and from every planted address,
    /// and an integral `dud_fraction` adds exactly that many per host.
    #[test]
    fn scan_targets_are_unique() {
        let config = GenConfig {
            seed: 7,
            scale: 50,
            dud_fraction: 4.0,
            ..GenConfig::default()
        };
        let world = generate(&config);
        let planted = world.truth.hosts.len();
        assert_eq!(world.targets.len(), planted + planted * 4);
        let distinct: HashSet<_> = world.targets.iter().collect();
        assert_eq!(distinct.len(), world.targets.len());
    }

    /// A country whose duds need more /24s than its region has left fails
    /// loudly, before the dud list is allocated.
    #[test]
    #[should_panic(expected = "duds overflow its population region")]
    fn duds_that_overflow_a_region_are_refused() {
        let config = GenConfig {
            countries: CountrySelection::Codes(vec!["FSM"]),
            dud_fraction: 1e8,
            ..GenConfig::test_small()
        };
        let _ = generate(&config);
    }

    #[test]
    fn only_manipulated_forwarders_inject_and_only_resolvers_lack_an_upstream() {
        let world = generate(&GenConfig::test_small());
        for class in [
            PlantedClass::TransparentForwarder,
            PlantedClass::RecursiveForwarder,
            PlantedClass::RecursiveResolver,
            PlantedClass::ManipulatedForwarder,
        ] {
            assert!(world.truth.count(class) > 0, "no {class:?} planted");
        }
        for h in &world.truth.hosts {
            assert_eq!(
                h.injects.is_some(),
                h.class == PlantedClass::ManipulatedForwarder,
                "{h:?}"
            );
            assert_eq!(
                h.resolver_target.is_none(),
                h.class == PlantedClass::RecursiveResolver,
                "{h:?}"
            );
        }
    }
}
