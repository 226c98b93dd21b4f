//! The determinism referee: partitioning the synthetic Internet into K
//! shard worlds, and reusing warm ones, changes wall-clock behaviour only.
//!
//! A seeded generator draws each case — a world (countries, `scale`,
//! `dud_fraction`, seed), a shard count K in 1..=8 and a fault plan — and
//! every case runs the census, DNSRoute++, campaign and attack sweeps
//! fresh at K = 1, fresh at K and three times over one
//! [`ShardWorldCache`], then holds them to one table of oracles
//! ([`referee`]). A failure names its seed and the drawn case; tier-1 runs
//! the fixed seeds of [`SEEDS`]. The structural checks and the floors the
//! paper's claims rest on run once, on fixed worlds.

use analysis::{diff, AttackMatrix, CampaignSweep, Census, ShardedSweep};
use dnsroute::{run_dnsroute, DnsRouteConfig, TraceResult};
use inetgen::{CountrySelection, GenConfig, PlantedClass, ShardSpec, ShardWorldCache};
use netsim::shard::derive_seed;
use netsim::wire::{decode, DecodedPacket};
use netsim::{FaultConfig, FaultPlan};
use scanner::{
    AttackVector, Campaign, CampaignReport, ClassifierConfig, OdnsClass, ScanConfig, SensorStats,
};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::net::Ipv4Addr;

/// The tier-1 cases: between them they draw every fault plan at some
/// K > 1 (`tier1_seeds_cover_every_plan`).
const SEEDS: [u64; 6] = [1, 2, 3, 4, 5, 6];

/// The countries a case draws its world from.
const POOL: [&str; 8] = ["BRA", "TUR", "MUS", "FSM", "AFG", "DEU", "ARG", "IND"];

/// The fault plans a case draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Plan {
    Quiet,
    /// `FaultPlan::lossy(0.10)`: drops, duplicates and corrupts.
    Lossy,
    /// Half of all packets duplicated, nothing lost.
    DuplicationOnly,
    /// A fifth of all packets corrupted (so discarded), nothing else.
    CorruptionOnly,
}

impl Plan {
    const ALL: [Plan; 4] = [
        Plan::Quiet,
        Plan::Lossy,
        Plan::DuplicationOnly,
        Plan::CorruptionOnly,
    ];

    fn faults(self) -> FaultPlan {
        let only = |base| FaultPlan { salt: 0, base };
        match self {
            Plan::Quiet => FaultPlan::none(),
            Plan::Lossy => FaultPlan::lossy(0.10),
            Plan::DuplicationOnly => only(FaultConfig {
                duplicate_probability: 0.5,
                ..FaultConfig::default()
            }),
            Plan::CorruptionOnly => only(FaultConfig {
                corrupt_probability: 0.2,
                ..FaultConfig::default()
            }),
        }
    }

    /// Whether every packet sent arrives (at least once).
    fn loses_nothing(self) -> bool {
        matches!(self, Plan::Quiet | Plan::DuplicationOnly)
    }
}

/// One drawn case: a pure function of its seed.
struct Case {
    seed: u64,
    config: GenConfig,
    k: u32,
    plan: Plan,
}

impl Case {
    fn draw(seed: u64) -> Case {
        let draw = |stream: u64| derive_seed(seed, stream);
        let mut pool = POOL.to_vec();
        let n = 2 + draw(0) % 3;
        let countries = (0..n)
            .map(|i| pool.swap_remove((draw(1 + i) % pool.len() as u64) as usize))
            .collect();
        let plan = Plan::ALL[(draw(8) % 4) as usize];
        Case {
            seed,
            config: GenConfig {
                countries: CountrySelection::Codes(countries),
                scale: 2_000 + (draw(9) % 501) as u32,
                dud_fraction: [0.0, 0.05][(draw(10) % 2) as usize],
                seed: draw(11),
                faults: plan.faults(),
                ..GenConfig::default()
            },
            k: 1 + (draw(12) % 8) as u32,
            plan,
        }
    }
}

impl fmt::Display for Case {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = &self.config;
        write!(
            f,
            "referee seed {}: countries {:?}, scale {}, dud_fraction {}, world seed {:#x}, K={}, {:?}",
            self.seed, c.countries, c.scale, c.dud_fraction, c.seed, self.k, self.plan
        )
    }
}

/// Panic with the case and the oracle that failed.
macro_rules! oracle {
    ($case:expr, $holds:expr, $($what:tt)+) => {
        if !$holds {
            panic!("{}\noracle failed: {}", $case, format!($($what)+));
        }
    };
}

/// Every sweep of one world at one K.
struct Runs {
    census: Census,
    dnsroute: ShardedSweep,
    campaign: CampaignSweep,
    attacks: AttackMatrix,
}

impl Runs {
    fn fresh(config: &GenConfig, k: u32) -> Runs {
        let classifier = ClassifierConfig::default();
        Runs {
            census: analysis::run_census_sharded(config, k, &classifier),
            dnsroute: analysis::run_dnsroute_sharded(config, k, &classifier),
            campaign: analysis::run_campaign_sharded(config, k, &classifier),
            attacks: analysis::run_attacks_sharded(config, k),
        }
    }

    /// The same sweeps, one after the other over the cache's worlds.
    fn warm(cache: &mut ShardWorldCache, k: u32) -> Runs {
        let classifier = ClassifierConfig::default();
        Runs {
            census: analysis::run_census_sharded(&mut *cache, k, &classifier),
            dnsroute: analysis::run_dnsroute_sharded(&mut *cache, k, &classifier),
            campaign: analysis::run_campaign_sharded(&mut *cache, k, &classifier),
            attacks: analysis::run_attacks_sharded(&mut *cache, k),
        }
    }

    /// The first output that differs from `other`'s in any bit, captures
    /// and timestamps included.
    fn first_difference(&self, other: &Runs) -> Option<&'static str> {
        let (a, b) = (&self.campaign, &other.campaign);
        let captures = a.captures.len() == b.captures.len()
            && (a.captures.iter().zip(&b.captures))
                .all(|(x, y)| (x.shard, &x.scan, &x.campaigns) == (y.shard, &y.scan, &y.campaigns));
        [
            ("census", self.census == other.census),
            (
                "DNSRoute++ census",
                self.dnsroute.census == other.dnsroute.census,
            ),
            ("traces", self.dnsroute.traces == other.dnsroute.traces),
            ("campaign census", a.census == b.census),
            ("campaign reports", a.reports == b.reports),
            ("Table 3", a.matrix == b.matrix),
            ("sensor totals", a.sensors == b.sensors),
            ("captures", captures),
            ("attack matrix", self.attacks == other.attacks),
        ]
        .into_iter()
        .find(|(_, same)| !same)
        .map(|(what, _)| what)
    }
}

/// A trace's timing-free content: `DnsEndpoint.at` is the one field a
/// K-sweep may change (stagger position, cache warm-up).
type TraceKey = (
    Ipv4Addr,
    Vec<Option<Ipv4Addr>>,
    Option<u8>,
    Option<(u8, Ipv4Addr)>,
);

fn trace_keys(traces: &[TraceResult]) -> Vec<TraceKey> {
    let mut keys: Vec<TraceKey> = traces
        .iter()
        .map(|t| {
            let dns = t.dns.as_ref().map(|d| (d.ttl, d.src));
            (t.target, t.hops.clone(), t.target_seen_at, dns)
        })
        .collect();
    keys.sort();
    keys
}

/// Per campaign that differs: the addresses only one side reports, and
/// both sides' drop counters.
fn report_delta(
    base: &[(Campaign, CampaignReport)],
    other: &[(Campaign, CampaignReport)],
) -> String {
    let mut out = String::new();
    for ((campaign, a), (_, b)) in base.iter().zip(other) {
        if a != b {
            let only = |x: &CampaignReport, y: &CampaignReport| {
                x.odns.difference(&y.odns).copied().collect::<Vec<_>>()
            };
            out += &format!(
                "\n  {campaign}: only at K=1 {:?}, only at K {:?}, (sanitized, invalid) {:?} → {:?}",
                only(a, b),
                only(b, a),
                (a.sanitized_out, a.invalid),
                (b.sanitized_out, b.invalid)
            );
        }
    }
    out
}

/// The class the census must give a planted host; `None` for one it must
/// never classify.
fn expected_class(planted: PlantedClass) -> Option<OdnsClass> {
    match planted {
        PlantedClass::TransparentForwarder => Some(OdnsClass::TransparentForwarder),
        PlantedClass::RecursiveForwarder => Some(OdnsClass::RecursiveForwarder),
        PlantedClass::RecursiveResolver => Some(OdnsClass::RecursiveResolver),
        PlantedClass::ManipulatedForwarder => None,
    }
}

/// Run one drawn case through the oracle table. Each oracle compares with
/// the K = 1 fresh run of the same world and plan.
fn referee(seed: u64) {
    let case = Case::draw(seed);
    let config = &case.config;
    let classifier = ClassifierConfig::default();

    // The unsharded pipeline: generate → census → DNSRoute++ in one sim.
    let mut solo = inetgen::generate(config);
    let census = analysis::run_census(&mut solo, &classifier);
    let traces = run_dnsroute(
        &mut solo.sim,
        solo.fixtures.scanner,
        DnsRouteConfig::new(census.transparent_targets()),
    );
    let base = Runs::fresh(config, 1);
    oracle!(
        case,
        base.census == census && base.dnsroute.census == census,
        "K=1 census equals the unsharded one bit for bit: {}",
        diff(&census, &base.dnsroute.census)
    );
    oracle!(
        case,
        base.dnsroute.traces == traces,
        "K=1 traces equal the unsharded pipeline's bit for bit"
    );

    // Precision 1.0: every classified row is a planted host of its class.
    let truth: HashMap<Ipv4Addr, PlantedClass> =
        solo.truth.hosts.iter().map(|h| (h.ip, h.class)).collect();
    for row in &base.census.rows {
        let Some(class) = row.class() else { continue };
        let planted = truth.get(&row.target).copied();
        oracle!(
            case,
            planted.and_then(expected_class) == Some(class),
            "{} classified {class}, planted {planted:?}",
            row.target
        );
    }
    if case.plan.loses_nothing() {
        let planted = truth.values().filter_map(|c| expected_class(*c)).count();
        let found = base.census.odns_total();
        oracle!(
            case,
            found == planted && base.census.unmatched_responses == 0,
            "a plan that loses nothing finds every planted host ({found} of {planted}) and \
             matches every answer ({} unmatched)",
            base.census.unmatched_responses
        );
    }

    // Partition invariance at the drawn K.
    let at_k = if case.k == 1 {
        None
    } else {
        Some(Runs::fresh(config, case.k))
    };
    let at_k = at_k.as_ref().unwrap_or(&base);
    let censuses = [
        ("census", &at_k.census),
        ("DNSRoute++ census", &at_k.dnsroute.census),
        ("campaign census", &at_k.campaign.census),
        ("K=1 campaign census", &base.campaign.census),
    ];
    for (what, census) in censuses {
        let delta = diff(&base.census, census);
        oracle!(
            case,
            delta.is_empty(),
            "{what} equals K=1's by target: {delta}"
        );
    }
    // Campaigns, Table 3 and the sensors hold across K only on a plan that
    // loses nothing (see ROADMAP item 1), and the attack matrix with them.
    let (campaign, base_campaign) = (&at_k.campaign, &base.campaign);
    if case.plan.loses_nothing() {
        oracle!(
            case,
            campaign.reports == base_campaign.reports,
            "campaign reports equal K=1's:{}",
            report_delta(&base_campaign.reports, &campaign.reports)
        );
        oracle!(
            case,
            campaign.matrix == base_campaign.matrix,
            "Table 3 equals K=1's:\n{}",
            campaign.matrix.render().render()
        );
        oracle!(
            case,
            campaign.sensors == base_campaign.sensors,
            "sensor totals equal K=1's: {:?} vs {:?}",
            campaign.sensors,
            base_campaign.sensors
        );
        oracle!(
            case,
            at_k.attacks == base.attacks,
            "attack matrix equals K=1's"
        );
    }

    // The captures alone rebuild the live sweep.
    let replayed = campaign
        .capture_census(&classifier)
        .expect("captures parse");
    oracle!(
        case,
        replayed == campaign.census,
        "capture census equals the live one: {}",
        diff(&campaign.census, &replayed)
    );
    oracle!(
        case,
        campaign.capture_reports().expect("captures parse") == campaign.reports,
        "capture reports equal the live ones"
    );

    // Timing-free traces hold across K only on a quiet plan (see ROADMAP
    // item 2).
    if case.plan == Plan::Quiet {
        oracle!(
            case,
            trace_keys(&at_k.dnsroute.traces) == trace_keys(&base.dnsroute.traces),
            "timing-free traces equal K=1's"
        );
        // Figure 6 holds sorted hop counts per project, so equal figures
        // are equal distributions; the unassigned paths follow trace order.
        let figure6 = |sweep: &ShardedSweep| {
            let (paths, stats) = sweep.sanitized();
            let (projects, other) = analysis::figure6_by_project(&paths, &sweep.geo);
            let (asrel, _, _) =
                analysis::as_relationship_report(&paths, &sweep.geo, &Default::default());
            let asrel = (asrel.usable_paths, asrel.matching_paths, asrel.inferred);
            (stats, projects, other.len(), asrel)
        };
        oracle!(
            case,
            figure6(&at_k.dnsroute) == figure6(&base.dnsroute),
            "sanitization, Figure 6 and the AS relationships equal K=1's"
        );
    }

    // Warm reuse: every run over one cache equals the fresh run at K.
    let mut cache = ShardWorldCache::new(config.clone());
    for run in 0..3 {
        let differs = Runs::warm(&mut cache, case.k).first_difference(at_k);
        oracle!(
            case,
            differs.is_none(),
            "cached run {run}'s {} equals the fresh run's",
            differs.unwrap_or_default()
        );
    }

    // Packets, events and deliveries balance on every shard's simulator.
    let run = inetgen::run_sharded(config, case.k, |_, world| {
        analysis::run_census(world, &classifier);
        world.sim.stats().conserved()
    });
    oracle!(
        case,
        run.outputs.iter().all(|&conserved| conserved),
        "conserved() on every shard: {:?}",
        run.outputs
    );
}

#[test]
fn seeded_case_1() {
    referee(SEEDS[0]);
}

#[test]
fn seeded_case_2() {
    referee(SEEDS[1]);
}

#[test]
fn seeded_case_3() {
    referee(SEEDS[2]);
}

#[test]
fn seeded_case_4() {
    referee(SEEDS[3]);
}

#[test]
fn seeded_case_5() {
    referee(SEEDS[4]);
}

#[test]
fn seeded_case_6() {
    referee(SEEDS[5]);
}

/// The tier-1 seeds draw every fault plan at some K > 1, and a case is a
/// pure function of its seed.
#[test]
fn tier1_seeds_cover_every_plan() {
    let cases: Vec<Case> = SEEDS.iter().map(|&s| Case::draw(s)).collect();
    for plan in Plan::ALL {
        assert!(
            cases.iter().any(|c| c.plan == plan && c.k > 1),
            "no tier-1 case draws {plan:?} at K > 1"
        );
    }
    let again = Case::draw(SEEDS[0]);
    assert_eq!(again.to_string(), cases[0].to_string());
}

/// The world the old suites hand-picked, for the structural checks and
/// the floors.
fn fixed_world() -> GenConfig {
    GenConfig {
        countries: CountrySelection::Codes(vec!["BRA", "TUR", "MUS", "FSM"]),
        scale: 2_500,
        dud_fraction: 0.05,
        ..GenConfig::default()
    }
}

#[test]
fn shards_partition_the_world() {
    // No planted address lands in two shards, and the union is the solo
    // world's population.
    let config = fixed_world();
    let mut seen = std::collections::HashSet::new();
    for i in 0..4 {
        for host in &inetgen::generate_shard(&config, ShardSpec::new(i, 4))
            .truth
            .hosts
        {
            assert!(seen.insert(host.ip), "{} planted in two shards", host.ip);
        }
    }
    let solo: std::collections::HashSet<_> = inetgen::generate(&config)
        .truth
        .hosts
        .iter()
        .map(|h| h.ip)
        .collect();
    assert_eq!(seen, solo, "shard union equals the unsharded population");
    // No scan target, duds included, is probed by two shards, and the
    // shards probe what the solo world does — in a clean world and in a
    // dud-heavy one shaped like the benchmark's.
    let dud_heavy = GenConfig {
        seed: 7,
        scale: 1_000,
        dud_fraction: 4.0,
        ..GenConfig::default()
    };
    for config in [config, dud_heavy] {
        let mut solo = inetgen::generate(&config).targets;
        solo.sort();
        for k in [2, 8] {
            let mut union = Vec::new();
            for i in 0..k {
                union.extend(inetgen::generate_shard(&config, ShardSpec::new(i, k)).targets);
            }
            union.sort();
            assert!(
                union.windows(2).all(|w| w[0] != w[1]),
                "K={k}: a target is probed by two shards"
            );
            assert!(
                union == solo,
                "K={k}: shard targets differ from the solo world's"
            );
        }
    }
}

#[test]
fn clean_probe_tuples_do_not_depend_on_k() {
    // A probe's `(src_port, txid)` is its target's, not its shard's or its
    // place in the shuffle — the scanner's and every campaign's, read off
    // the taps of a clean campaign sweep.
    let config = fixed_world();
    let tuples = |k| {
        let sweep = analysis::run_campaign_sharded(&config, k, &ClassifierConfig::default());
        let mut tuples = BTreeMap::new();
        for shard in &sweep.captures {
            let campaigns = shard.campaigns.iter().map(|(c, pcap)| (Some(*c), pcap));
            for (campaign, pcap) in std::iter::once((None, &shard.scan)).chain(campaigns) {
                for record in netsim::pcap::read_pcap(pcap).expect("capture parses") {
                    let Ok(DecodedPacket::Udp(d)) = decode(&record.data) else {
                        continue;
                    };
                    // A query (QR = 0) is a probe.
                    if d.payload.get(2).is_some_and(|flags| flags & 0x80 == 0) {
                        let txid = dnswire::peek_id(&d.payload).expect("a DNS header");
                        tuples.insert((campaign, d.dst), (d.src_port, txid));
                    }
                }
            }
        }
        tuples
    };
    let solo = tuples(1);
    let targets = inetgen::generate(&config).targets.len();
    assert_eq!(
        solo.len(),
        4 * targets + 3 * 4,
        "one probe per target and pass"
    );
    assert!(tuples(8) == solo, "target → tuple moved at K=8");
}

#[test]
fn the_paper_floors_hold() {
    let config = fixed_world();
    let classifier = ClassifierConfig::default();

    // §6: every reflection pass fired, got answers and amplified; EDNS
    // costs more per query and buys nothing here, so it amplifies less
    // than plain ANY; and the limiter answers the 75-query flood twice.
    let attacks = analysis::run_attacks_sharded(&config, 1);
    assert_eq!(attacks.cells.len(), 9, "3 vectors × 3 component classes");
    for ((vector, class), cell) in &attacks.cells {
        assert!(
            cell.queries > 0 && cell.responses > 0 && !cell.sources.is_empty(),
            "{vector}/{class:?}: {cell:?}"
        );
        assert!(
            cell.amplification() > 1.0,
            "{vector}/{class:?} amplifies {:.2}",
            cell.amplification()
        );
    }
    for class in OdnsClass::all() {
        let any = attacks.cell(AttackVector::Any, class).unwrap();
        let edns = attacks.cell(AttackVector::EdnsAny, class).unwrap();
        assert!(edns.bytes_sent > any.bytes_sent, "{class:?}: OPT overhead");
        assert!(edns.amplification() < any.amplification(), "{class:?}");
    }
    let s = &attacks.sensors;
    assert_eq!(
        (s.attack_queries, s.queries, s.answered, s.rate_limited),
        (75, 75, 2, 73),
        "25 flood cycles over three sensor addresses, one answer per sensor instance"
    );
    assert_eq!(s.victim.packets, 2, "the limiter caps the reflected volume");

    // §3.1: Table 3 as the paper reports it; sensor 2 sheds the IP3 probe
    // 50 µs after the IP2 one from the same /24, once per campaign.
    let sweep = analysis::run_campaign_sharded(&config, 1, &classifier);
    assert_eq!(
        sweep.matrix,
        analysis::DetectionMatrix::paper_expected(),
        "\n{}",
        sweep.matrix.render().render()
    );
    let stats = |queries, rate_limited, answered| SensorStats {
        queries,
        rate_limited,
        upstream: 3,
        answered,
    };
    let expected = analysis::SensorTotals {
        sensor1: stats(3, 0, 3),
        sensor2: stats(6, 3, 3),
        sensor3: stats(3, 0, 0),
        relayed: 3,
    };
    assert_eq!(sweep.sensors, expected);
    let counts = sweep.component_counts();
    assert!(counts.iter().all(|(_, n)| *n > 0), "{counts:?}");
    assert!(!sweep.table5(10).render().is_empty());
    assert!(sweep.census.count(OdnsClass::TransparentForwarder) > 0);
    let truth = inetgen::generate(&config).truth.hosts.len();
    assert!(sweep.census.rows.len() > truth, "the world holds duds");
    let merged = sweep.merged_capture().expect("captures merge");
    let records = netsim::pcap::read_pcap(&merged).expect("one valid pcap stream");
    assert!(
        records.len() > sweep.census.rows.len(),
        "probes + responses"
    );

    // Figure 6 has paths to show.
    let routes = analysis::run_dnsroute_sharded(&config, 1, &classifier);
    let (paths, stats) = routes.sanitized();
    assert!(stats.kept > 0, "the sweep keeps sanitized paths");
    let (fig6, _) = analysis::figure6_by_project(&paths, &routes.geo);
    assert!(!fig6.is_empty(), "projects appear in Figure 6");

    // Loss costs coverage but never precision (the seeded cases hold
    // that), and 10 % of it must not obliterate coverage; duplicates are
    // discarded as late answers, never counted.
    let fault_world = |plan: Plan| GenConfig {
        countries: CountrySelection::Codes(vec!["BRA", "TUR", "MUS"]),
        seed: 23,
        faults: plan.faults(),
        ..config.clone()
    };
    let planted = |class: Option<OdnsClass>| {
        let hosts = inetgen::generate(&fault_world(Plan::Quiet)).truth.hosts;
        let classes = hosts.iter().filter_map(|h| expected_class(h.class));
        classes
            .filter(|c| class.is_none_or(|class| *c == class))
            .count()
    };
    let census = analysis::run_census_sharded(&fault_world(Plan::Lossy), 2, &classifier);
    let transparent = OdnsClass::TransparentForwarder;
    let coverage = census.count(transparent) as f64 / planted(Some(transparent)) as f64;
    assert!(
        census.odns_total() < planted(None) && coverage > 0.4,
        "10 % loss costs coverage, not all of it: {coverage:.2} of transparent forwarders"
    );
    let census = analysis::run_census_sharded(&fault_world(Plan::CorruptionOnly), 2, &classifier);
    assert!(
        census.odns_total() < planted(None),
        "corruption costs coverage"
    );
    let census = analysis::run_census_sharded(&fault_world(Plan::DuplicationOnly), 2, &classifier);
    assert_eq!(
        census.odns_total(),
        planted(None),
        "duplicates never inflate"
    );
    assert!(
        census.late_answers_discarded > 0,
        "duplicates are late answers"
    );

    // A plan set after generation does not outlive `Internet::reset`: it
    // moves the census, and the reset world censuses as a fresh one.
    let fresh = analysis::run_census(&mut inetgen::generate(&config), &classifier);
    let mut world = inetgen::generate(&config);
    world
        .sim
        .set_faults(analysis::sweep_fault_plan(200, config.seed));
    let lossy = analysis::run_census(&mut world, &classifier);
    assert!(
        world.sim.stats().dropped_fault > 0,
        "the plan drops packets"
    );
    assert!(lossy != fresh, "the plan moves the census");
    world.reset();
    let after = analysis::run_census(&mut world, &classifier);
    assert!(
        after == fresh,
        "census after reset: {}",
        diff(&fresh, &after)
    );
    // Nor a bare `Simulator::reset`, which reinstalls no plan of its own.
    world
        .sim
        .set_faults(analysis::sweep_fault_plan(200, config.seed));
    world.sim.reset();
    let scan = ScanConfig::new(world.targets.clone());
    scanner::run_scan_raw(&mut world.sim, world.fixtures.scanner, scan);
    assert_eq!(
        world.sim.stats().dropped_fault,
        0,
        "a reset network is quiet"
    );
}
