//! Generated worlds held stable *across commits*.
//!
//! The determinism suites compare two runs of one build; nothing there
//! notices a generator change that moves every run the same way. These
//! literals do: each is an FNV-1a digest of what `inetgen` planted (every
//! field of every `PlantedHost`, the country list, the geo database's view
//! of each planted address, the shuffled target list) and of what one
//! default scan of that world put on the wire (probe tuples and send
//! times, response sources, ports, arrival times and bytes, `SimStats`).
//!
//! A digest changes only when the generator's draw sequence, address
//! layout or host installation changes. Re-record a literal only for a
//! change that means to move the world, and say so in CHANGES.md; the
//! failure message prints the struct to paste.

use inetgen::{CountrySelection, GenConfig, Internet, PlantedClass, ShardSpec};
use netsim::SimStats;
use scanner::ScanConfig;

/// 64-bit FNV-1a, fed explicit little-endian integers so the digest does
/// not depend on how `std` happens to hash a type.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn ip(&mut self, ip: std::net::Ipv4Addr) {
        self.u64(u64::from(u32::from(ip)));
    }

    /// Length-prefixed, so adjacent strings cannot run together.
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// What a world is held to. Counts are in the clear so a mismatch says
/// roughly what moved before anyone diffs a digest.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    hosts: usize,
    targets: usize,
    responses: usize,
    truth_fnv: u64,
    geo_fnv: u64,
    targets_fnv: u64,
    scan_fnv: u64,
    stats_fnv: u64,
}

fn truth_fnv(world: &Internet) -> u64 {
    let mut h = Fnv::new();
    for p in &world.truth.hosts {
        h.ip(p.ip);
        h.u64(u64::from(p.node.0));
        h.u64(match p.class {
            PlantedClass::TransparentForwarder => 0,
            PlantedClass::RecursiveForwarder => 1,
            PlantedClass::RecursiveResolver => 2,
            PlantedClass::ManipulatedForwarder => 3,
        });
        h.str(p.country);
        h.u64(u64::from(p.asn));
        h.str(&format!("{:?}", p.vendor));
        match p.resolver_target {
            Some(ip) => h.ip(ip),
            None => h.u64(u64::MAX),
        }
        h.u64(u64::from(p.middlebox));
    }
    for c in &world.truth.countries {
        h.str(c);
    }
    h.0
}

fn geo_fnv(world: &Internet) -> u64 {
    let mut h = Fnv::new();
    h.u64(world.geo.prefix_count() as u64);
    h.u64(world.geo.asn_count() as u64);
    // One address in a thousand is unmapped on purpose (route-collector
    // gaps), so the lookups are hashed as the options they are.
    for p in &world.truth.hosts {
        let asn = world.geo.asn_of(p.ip);
        h.str(&format!("{asn:?}"));
        h.str(world.geo.country_of(p.ip).unwrap_or("?"));
        h.str(&format!("{:?}", asn.and_then(|a| world.geo.kind_of_asn(a))));
    }
    h.0
}

fn targets_fnv(world: &Internet) -> u64 {
    let mut h = Fnv::new();
    for t in &world.targets {
        h.ip(*t);
    }
    h.0
}

/// One default scan of the world: `(responses, stream digest, stats)`.
fn scan(world: &mut Internet) -> (usize, u64, SimStats) {
    let (probes, responses, _retries) = scanner::run_scan_raw(
        &mut world.sim,
        world.fixtures.scanner,
        ScanConfig::new(world.targets.clone()),
    );
    let mut h = Fnv::new();
    for p in &probes {
        h.ip(p.target);
        h.u64(u64::from(p.src_port));
        h.u64(u64::from(p.txid));
        h.u64(p.sent_at.as_micros());
    }
    for r in &responses {
        h.ip(r.src);
        h.u64(u64::from(r.dst_port));
        h.u64(r.received_at.as_micros());
        h.u64(r.payload.len() as u64);
        h.bytes(&r.payload);
    }
    (responses.len(), h.0, world.sim.stats().clone())
}

/// Route segments cached by the first scan survive a reset, so the second
/// scan's misses are hits; everything else must be equal.
fn route_cache_blind(stats: &SimStats) -> SimStats {
    SimStats {
        route_cache_hits: stats.route_cache_hits + stats.route_cache_misses,
        route_cache_misses: 0,
        ..stats.clone()
    }
}

fn golden(mut world: Internet) -> Golden {
    let (responses, scan_fnv, stats) = scan(&mut world);
    // A reset world reinstalls every host from what generation kept; the
    // same literals therefore also hold the replay path.
    world.reset();
    let (again_responses, again_fnv, again_stats) = scan(&mut world);
    assert_eq!(
        (again_responses, again_fnv, route_cache_blind(&again_stats)),
        (responses, scan_fnv, route_cache_blind(&stats)),
        "a reset world must scan like the freshly generated one"
    );
    let mut stats_fnv = Fnv::new();
    stats_fnv.str(&format!("{stats:?}"));
    Golden {
        hosts: world.truth.hosts.len(),
        targets: world.targets.len(),
        responses,
        truth_fnv: truth_fnv(&world),
        geo_fnv: geo_fnv(&world),
        targets_fnv: targets_fnv(&world),
        scan_fnv,
        stats_fnv: stats_fnv.0,
    }
}

#[test]
fn benchmark_sized_world_all_countries() {
    let config = GenConfig {
        seed: 7,
        scale: 1000,
        dud_fraction: 0.1,
        countries: CountrySelection::All,
        ..GenConfig::default()
    };
    assert_eq!(
        golden(inetgen::generate(&config)),
        Golden {
            hosts: 2397,
            targets: 2642,
            responses: 2397,
            truth_fnv: 6948239947955116278,
            geo_fnv: 13243105862311879249,
            targets_fnv: 295871183925355440,
            scan_fnv: 4258838641488775971,
            stats_fnv: 16849320520628756707,
        }
    );
}

#[test]
fn test_small_world() {
    assert_eq!(
        golden(inetgen::generate(&GenConfig::test_small())),
        Golden {
            hosts: 1260,
            targets: 1316,
            responses: 1260,
            truth_fnv: 17224104210200535967,
            geo_fnv: 14808082315257843529,
            targets_fnv: 9264613847914448636,
            scan_fnv: 4295074742484470385,
            stats_fnv: 10723317333765259490,
        }
    );
}

/// Two small countries planted densely enough for whole-/24 middleboxes,
/// with half as many duds as hosts.
#[test]
fn two_countries_dense() {
    let config = GenConfig {
        seed: 7,
        scale: 10,
        dud_fraction: 0.5,
        countries: CountrySelection::Codes(vec!["MUS", "FSM"]),
        ..GenConfig::default()
    };
    assert_eq!(
        golden(inetgen::generate(&config)),
        Golden {
            hosts: 960,
            targets: 1440,
            responses: 960,
            truth_fnv: 17896030775153268866,
            geo_fnv: 5302679172244165287,
            targets_fnv: 5725153421075372632,
            scan_fnv: 1157099840951440390,
            stats_fnv: 1299865496543027695,
        }
    );
}

/// Both shards of a two-way partition: each shard's target shuffle is part
/// of the contract too.
#[test]
fn five_countries_in_two_shards() {
    let config = GenConfig {
        countries: CountrySelection::Codes(vec!["BRA", "TUR", "MUS", "FSM", "AFG"]),
        scale: 2_500,
        dud_fraction: 0.05,
        ..GenConfig::default()
    };
    let shards = [0, 1].map(|i| golden(inetgen::generate_shard(&config, ShardSpec::new(i, 2))));
    assert_eq!(
        shards,
        [
            Golden {
                hosts: 154,
                targets: 162,
                responses: 154,
                truth_fnv: 3890566104652369182,
                geo_fnv: 15885527849532824469,
                targets_fnv: 10379536556331359536,
                scan_fnv: 451040382690965933,
                stats_fnv: 10439398226012945955,
            },
            Golden {
                hosts: 7,
                targets: 7,
                responses: 7,
                truth_fnv: 5825229426770700013,
                geo_fnv: 10774498891780551230,
                targets_fnv: 9688057561076922056,
                scan_fnv: 7582264773582630173,
                stats_fnv: 5638249287776843802,
            },
        ]
    );
}
