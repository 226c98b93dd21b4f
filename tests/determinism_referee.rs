//! The determinism referee: partitioning the synthetic Internet into K
//! shard worlds, and reusing warm ones, changes wall-clock behaviour only.
//!
//! A [`Case`] is a world (countries, `scale`, `dud_fraction`, seed and
//! fault plan) and the shard counts K it is checked at. A seeded generator
//! draws one K and one of four plans per case; the fixed cases pin
//! hand-picked worlds at their own Ks. Every case runs the census,
//! DNSRoute++, campaign and attack sweeps fresh at K = 1, fresh at each K
//! and three times per K over one [`ShardWorldCache`], then holds them to
//! one table of oracles ([`referee`]): to every [`Row`] of it, unless it
//! lists some. What a row may assert under faults follows from the plan's
//! own fields. A failure names the case and the oracle; tier-1 runs the
//! seeds of [`SEEDS`] and every fixed case. The structural checks and the
//! paper's floors run once, on a fixed world.

use analysis::{
    diff, AttackMatrix, CampaignSweep, Census, DetectionMatrix, SensorTotals, ShardCaptures,
    ShardedSweep,
};
use dnsroute::{run_dnsroute, DnsRouteConfig, TraceResult};
use inetgen::{CountrySelection, GenConfig, PlantedClass, ShardSpec, ShardWorldCache};
use netsim::shard::derive_seed;
use netsim::wire::{decode, DecodedPacket};
use netsim::{FaultConfig, FaultPlan, SimDuration};
use scanner::{
    AttackVector, Campaign, CampaignConfig, CampaignReport, ClassifierConfig, HoneypotSensor,
    OdnsClass, ScanConfig, SensorStats,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::net::Ipv4Addr;

/// The tier-1 drawn cases: between them they draw every fault plan at
/// some K > 1 (`tier1_seeds_cover_every_plan`).
const SEEDS: [u64; 6] = [1, 2, 3, 4, 5, 6];

/// The fewest planted hosts a world needs for the floors that fault
/// plans must show (lost coverage, corrupt discards, late duplicates).
const FLOOR_HOSTS: usize = 100;

/// The countries a drawn case picks its world from.
const POOL: [&str; 8] = ["BRA", "TUR", "MUS", "FSM", "AFG", "DEU", "ARG", "IND"];

/// The fault plans a drawn case picks from: quiet; 10 % lossy (drops,
/// duplicates, corrupts and jitters); half of all packets duplicated and
/// nothing lost; a fifth of all packets corrupted, so discarded, and
/// nothing else.
fn drawn_plans() -> [FaultPlan; 4] {
    let only = |base: FaultConfig| base.into();
    [
        FaultPlan::none(),
        FaultPlan::lossy(0.10),
        only(FaultConfig {
            duplicate_probability: 0.5,
            ..FaultConfig::default()
        }),
        only(FaultConfig {
            corrupt_probability: 0.2,
            ..FaultConfig::default()
        }),
    ]
}

/// The oracle table's rows beyond the ones every case holds: one row per
/// target and one trace per transparent forwarder found, and the three
/// censuses equal to the unsharded one at K = 1 and to K = 1's by target
/// at each K. A `Warm*` row holds its sweep's three cached runs per K to
/// the fresh run at K, in every bit.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Row {
    /// Precision, coverage and the plan's floors; `conserved()` on every
    /// shard after the census and after DNSRoute++.
    Census,
    WarmCensus,
    /// K = 1 traces equal the unsharded pipeline's; on a quiet plan,
    /// Figure 6 has material, and it and timing-free traces hold across K.
    Traces,
    WarmTraces,
    /// The K = 1 campaign sweep equals the composition from primitives.
    Composition,
    /// Reports, country counts, Table 3 and sensor totals across K on a
    /// plan that loses nothing; a quiet world reads the paper's.
    Campaigns,
    /// The captures alone rebuild the live campaign sweep.
    Captures,
    WarmCampaigns,
    /// The attack matrix across K, on a plan that loses nothing.
    Attacks,
    WarmAttacks,
}

/// A world, its fault plan (`config.faults`), the shard counts it is
/// checked at and the rows it is held to.
struct Case {
    /// `referee seed N`, or the fixed case's name.
    name: String,
    config: GenConfig,
    /// Each K is checked against K = 1, in order, over one cache.
    ks: Vec<u32>,
    /// `None` holds the case to every row.
    rows: Option<&'static [Row]>,
    /// The share of its planted transparent forwarders the census must
    /// find. A world's own floor: under loss, every forwarder in a /16
    /// that relays to one resolver shares one coin (ROADMAP item 1), so
    /// coverage falls by whole resolver groups.
    transparent_floor: Option<f64>,
}

impl Case {
    /// A pure function of its seed.
    fn draw(seed: u64) -> Case {
        let draw = |stream: u64| derive_seed(seed, stream);
        let mut pool = POOL.to_vec();
        let n = 2 + draw(0) % 3;
        let countries = (0..n)
            .map(|i| pool.swap_remove((draw(1 + i) % pool.len() as u64) as usize))
            .collect();
        let plan = drawn_plans()[(draw(8) % 4) as usize].clone();
        Case {
            name: format!("referee seed {seed}"),
            config: GenConfig {
                countries: CountrySelection::Codes(countries),
                scale: 2_000 + (draw(9) % 501) as u32,
                dud_fraction: [0.0, 0.05][(draw(10) % 2) as usize],
                seed: draw(11),
                faults: plan,
                ..GenConfig::default()
            },
            ks: vec![1 + (draw(12) % 8) as u32],
            rows: None,
            transparent_floor: None,
        }
    }

    fn fixed(name: &str, config: GenConfig, ks: &[u32]) -> Case {
        Case {
            name: name.to_string(),
            config,
            ks: ks.to_vec(),
            rows: None,
            transparent_floor: None,
        }
    }

    fn holds(&self, row: Row) -> bool {
        self.rows.is_none_or(|rows| rows.contains(&row))
    }
}

impl fmt::Display for Case {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = &self.config;
        write!(
            f,
            "{}: countries {:?}, scale {}, as_divisor {}, dud_fraction {}, world seed {:#x}, \
             K in {:?}, {:?}",
            self.name,
            c.countries,
            c.scale,
            c.as_divisor,
            c.dud_fraction,
            c.seed,
            self.ks,
            c.faults
        )
    }
}

/// Panic with the case and the oracle that failed.
macro_rules! oracle {
    ($case:expr, $holds:expr, $($what:tt)+) => {
        let holds: bool = $holds;
        if !holds {
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

    /// Per warm row, the first of its sweep's outputs that differs from
    /// `fresh`'s in any bit, captures and timestamps included.
    fn warm_differences(&self, fresh: &Runs) -> [(Row, Option<&'static str>); 4] {
        let differs = |what, same: bool| (!same).then_some(what);
        let census = differs("census", self.census == fresh.census);
        let (sweep, fresh_sweep) = (&self.dnsroute, &fresh.dnsroute);
        let traces = differs("traces", sweep.traces == fresh_sweep.traces);
        let traces = differs("census", sweep.census == fresh_sweep.census).or(traces);
        let campaign = campaign_difference(&self.campaign, &fresh.campaign);
        let attacks = differs("attack matrix", self.attacks == fresh.attacks);
        [
            (Row::WarmCensus, census),
            (Row::WarmTraces, traces),
            (Row::WarmCampaigns, campaign),
            (Row::WarmAttacks, attacks),
        ]
    }
}

/// The first output of two campaign sweeps that differs in any bit,
/// captures and timestamps included.
fn campaign_difference(a: &CampaignSweep, b: &CampaignSweep) -> Option<&'static str> {
    let captures = a.captures.len() == b.captures.len()
        && (a.captures.iter().zip(&b.captures))
            .all(|(x, y)| (x.shard, &x.scan, &x.campaigns) == (y.shard, &y.scan, &y.campaigns));
    [
        ("campaign census", a.census == b.census),
        ("campaign reports", a.reports == b.reports),
        ("Table 3", a.matrix == b.matrix),
        ("sensor totals", a.sensors == b.sensors),
        ("captures", captures),
    ]
    .into_iter()
    .find(|(_, same)| !same)
    .map(|(what, _)| what)
}

/// The campaign experiment composed from primitives, without the sharded
/// engine: generate → deploy the sensors → tapped transactional scan →
/// three tapped, epoch-spaced campaign passes over the targets and the
/// four sensor addresses (the solo world is the sensor shard).
fn unsharded_campaign(config: &GenConfig, classifier: &ClassifierConfig) -> CampaignSweep {
    let mut internet = inetgen::generate(config);
    analysis::install_sensors(&mut internet);
    let addrs = internet.fixtures.sensor_addrs;
    let scanner_node = internet.fixtures.scanner;
    internet.sim.tap(scanner_node);
    let (probes, responses, _retries) = scanner::run_scan_raw(
        &mut internet.sim,
        scanner_node,
        ScanConfig::new(internet.targets.clone()),
    );
    let scan = internet.sim.take_capture(scanner_node).unwrap();
    let outcome = scanner::correlate_owned(probes, responses, ScanConfig::DEFAULT_TIMEOUT);
    let census = Census::from_outcome(&outcome, &internet.geo, classifier);

    let mut targets = internet.targets.clone();
    targets.extend([addrs.ip1, addrs.ip2, addrs.ip3, addrs.ip4]);
    let mut reports = Vec::new();
    let mut campaigns = Vec::new();
    for (i, campaign) in Campaign::all().into_iter().enumerate() {
        let node = internet.fixtures.campaign_scanners[i];
        internet.sim.tap(node);
        let delay = if i == 0 {
            SimDuration::ZERO
        } else {
            analysis::CAMPAIGN_EPOCH
        };
        let report = scanner::run_campaign_delayed(
            &mut internet.sim,
            node,
            CampaignConfig::new(campaign, targets.clone()),
            delay,
        );
        reports.push((campaign, report));
        campaigns.push((campaign, internet.sim.take_capture(node).unwrap()));
    }
    let stats = |node| {
        let sensor = internet.sim.host_as::<HoneypotSensor>(node);
        sensor.expect("sensor installed").stats()
    };
    let fixtures = &internet.fixtures;
    let sensor3 = stats(fixtures.sensor3);
    let sensors = SensorTotals {
        sensor1: stats(fixtures.sensor1),
        sensor2: stats(fixtures.sensor2),
        sensor3,
        // Everything sensor 3 sends upstream is a spoofed relay.
        relayed: sensor3.upstream,
    };
    CampaignSweep {
        census,
        matrix: DetectionMatrix::from_reports(&reports, addrs),
        reports,
        sensors,
        captures: vec![ShardCaptures {
            shard: 0,
            scan,
            campaigns,
        }],
        geo: internet.geo,
        sensor_addrs: addrs,
    }
}

/// The sensor counters of the §3.1 experiment as the paper reads them:
/// sensor 2 sheds the IP3 probe 50 µs after the IP2 one from the same
/// /24, once per campaign.
fn paper_sensors() -> SensorTotals {
    let stats = |queries, rate_limited, answered| SensorStats {
        queries,
        rate_limited,
        upstream: 3,
        answered,
    };
    SensorTotals {
        sensor1: stats(3, 0, 3),
        sensor2: stats(6, 3, 3),
        sensor3: stats(3, 0, 0),
        relayed: 3,
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

/// Figure 6 holds sorted hop counts per project, so equal figures are
/// equal distributions; the unassigned paths follow trace order.
type Figure6 = (
    dnsroute::SanitizeStats,
    Vec<analysis::ProjectPaths>,
    usize,
    (usize, usize, BTreeSet<dnsroute::InferredRelationship>),
);

/// Sanitization, Figure 6 and the AS-relationship report of a sweep.
fn figure6(sweep: &ShardedSweep) -> Figure6 {
    let (paths, stats) = sweep.sanitized();
    let (projects, other) = analysis::figure6_by_project(&paths, &sweep.geo);
    let (asrel, _, _) = analysis::as_relationship_report(&paths, &sweep.geo, &Default::default());
    let asrel = (asrel.usable_paths, asrel.matching_paths, asrel.inferred);
    (stats, projects, other.len(), asrel)
}

/// Per campaign, its merged report's ODNS count per country (Table 5).
fn country_counts(sweep: &CampaignSweep) -> Vec<BTreeMap<&'static str, usize>> {
    (sweep.reports.iter())
        .map(|(_, report)| analysis::campaign_country_counts(report, &sweep.geo))
        .collect()
}

/// Run one case through the oracle table. Each oracle compares with the
/// K = 1 fresh run of the same world and plan.
fn referee(case: &Case) {
    let config = &case.config;
    let classifier = ClassifierConfig::default();
    let faults = config.faults.base;
    let quiet = config.faults.is_quiet();
    // A corrupt packet is discarded, so only a plan that neither drops nor
    // corrupts delivers every packet (at least once).
    let loses_nothing = faults.drop_probability == 0.0 && faults.corrupt_probability == 0.0;

    // The unsharded pipelines: generate → census → DNSRoute++ in one sim,
    // and the campaign experiment from primitives.
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
        [&base.census, &base.dnsroute.census, &base.campaign.census]
            .iter()
            .all(|c| **c == census),
        "K=1 censuses equal the unsharded one bit for bit: {}, {}",
        diff(&census, &base.dnsroute.census),
        diff(&census, &base.campaign.census)
    );
    if case.holds(Row::Traces) {
        oracle!(
            case,
            base.dnsroute.traces == traces,
            "K=1 traces equal the unsharded pipeline's bit for bit"
        );
    }
    if case.holds(Row::Composition) {
        let composed = unsharded_campaign(config, &classifier);
        let differs = campaign_difference(&base.campaign, &composed);
        oracle!(
            case,
            differs.is_none(),
            "K=1 campaign sweep's {} equals the unsharded composition's bit for bit",
            differs.unwrap_or_default()
        );
    }

    let transparent = OdnsClass::TransparentForwarder;
    let transparent_found = base.census.count(transparent);
    oracle!(
        case,
        base.census.rows.len() == solo.targets.len()
            && base.dnsroute.traces.len() == transparent_found,
        "one census row per scan target, duds included ({} rows, {} targets), and one trace \
         per transparent forwarder found ({} traces, {transparent_found} found)",
        base.census.rows.len(),
        solo.targets.len(),
        base.dnsroute.traces.len()
    );
    if case.holds(Row::Census) {
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
        let planted = |only: Option<OdnsClass>| {
            let classes = truth.values().filter_map(|c| expected_class(*c));
            classes.filter(|c| only.is_none_or(|o| *c == o)).count()
        };
        let found = base.census.odns_total();
        if loses_nothing {
            oracle!(
                case,
                found == planted(None) && base.census.unmatched_responses == 0,
                "a plan that loses nothing finds every planted host ({found} of {}) and matches \
                 every answer, duplicates included ({} unmatched)",
                planted(None),
                base.census.unmatched_responses
            );
        }
        if let Some(floor) = case.transparent_floor {
            let coverage = transparent_found as f64 / planted(Some(transparent)) as f64;
            oracle!(
                case,
                coverage > floor,
                "the census keeps {coverage:.2} of transparent forwarders, over {floor}"
            );
        }

        // Floors: each fault the plan injects shows, on a world large enough
        // that chance cannot decide it.
        if planted(None) >= FLOOR_HOSTS {
            if !loses_nothing {
                oracle!(
                    case,
                    found < planted(None),
                    "loss costs coverage ({found} of {}), or the plan never fired",
                    planted(None)
                );
            }
            if faults.corrupt_probability > 0.0 {
                oracle!(
                    case,
                    solo.sim.stats().dropped_corrupt > 0,
                    "a corrupting plan discards packets as corrupt"
                );
            }
            if faults.duplicate_probability > 0.0 && loses_nothing {
                // Every host was counted once above, though its answer came
                // twice.
                oracle!(
                    case,
                    base.census.late_answers_discarded > 0,
                    "duplicates are discarded as late answers, never counted"
                );
            }
        }
    }
    let base_figure6 = (quiet && case.holds(Row::Traces)).then(|| figure6(&base.dnsroute));
    if let Some((stats, projects, _, _)) = &base_figure6 {
        oracle!(
            case,
            base.dnsroute.traces.is_empty() || (stats.kept > 0 && !projects.is_empty()),
            "Figure 6 has sanitized paths ({}) and projects ({}) to show",
            stats.kept,
            projects.len()
        );
    }
    if quiet && case.holds(Row::Campaigns) {
        oracle!(
            case,
            base.campaign.matrix == DetectionMatrix::paper_expected()
                && base.campaign.sensors == paper_sensors(),
            "a quiet world reads Table 3 and the sensor counters as the paper does:\n{}{:?}",
            base.campaign.matrix.render().render(),
            base.campaign.sensors
        );
    }

    // Partition invariance and warm reuse at each K, over one cache: a
    // change of K repartitions it.
    let mut cache = ShardWorldCache::new(config.clone());
    for &k in &case.ks {
        let fresh = (k != 1).then(|| Runs::fresh(config, k));
        let at_k = fresh.as_ref().unwrap_or(&base);
        let censuses = [
            ("census", &at_k.census),
            ("DNSRoute++ census", &at_k.dnsroute.census),
            ("campaign census", &at_k.campaign.census),
        ];
        for (what, census) in censuses {
            let delta = diff(&base.census, census);
            oracle!(
                case,
                delta.is_empty(),
                "K={k}: {what} equals K=1's by target: {delta}"
            );
        }
        // Campaigns, Table 3 and the sensors hold across K only on a plan
        // that loses nothing (see ROADMAP item 1), and the attack matrix
        // with them.
        let (campaign, base_campaign) = (&at_k.campaign, &base.campaign);
        if loses_nothing && case.holds(Row::Campaigns) {
            oracle!(
                case,
                campaign.reports == base_campaign.reports,
                "K={k}: campaign reports equal K=1's:{}",
                report_delta(&base_campaign.reports, &campaign.reports)
            );
            oracle!(
                case,
                country_counts(campaign) == country_counts(base_campaign),
                "K={k}: each campaign's per-country counts equal K=1's"
            );
            oracle!(
                case,
                campaign.matrix == base_campaign.matrix,
                "K={k}: Table 3 equals K=1's:\n{}",
                campaign.matrix.render().render()
            );
            oracle!(
                case,
                campaign.sensors == base_campaign.sensors,
                "K={k}: sensor totals equal K=1's: {:?} vs {:?}",
                campaign.sensors,
                base_campaign.sensors
            );
        }
        if loses_nothing && case.holds(Row::Attacks) {
            oracle!(
                case,
                at_k.attacks == base.attacks,
                "K={k}: attack matrix equals K=1's"
            );
        }

        if case.holds(Row::Captures) {
            // The captures alone rebuild the live sweep, and join into one
            // valid pcap stream.
            let replayed = campaign
                .capture_census(&classifier)
                .expect("captures parse");
            oracle!(
                case,
                replayed == campaign.census,
                "K={k}: capture census equals the live one: {}",
                diff(&campaign.census, &replayed)
            );
            oracle!(
                case,
                campaign.capture_reports().expect("captures parse") == campaign.reports,
                "K={k}: capture reports equal the live ones"
            );
            let merged = campaign.merged_capture().expect("captures merge");
            let records = netsim::pcap::read_pcap(&merged).expect("one valid pcap stream");
            oracle!(
                case,
                records.len() > campaign.census.rows.len(),
                "K={k}: the joined capture holds probes and responses ({} records)",
                records.len()
            );
        }

        // Timing-free traces hold across K only on a quiet plan (see
        // ROADMAP item 2).
        if let Some(base_figure6) = &base_figure6 {
            oracle!(
                case,
                trace_keys(&at_k.dnsroute.traces) == trace_keys(&base.dnsroute.traces),
                "K={k}: timing-free traces equal K=1's"
            );
            oracle!(
                case,
                figure6(&at_k.dnsroute) == *base_figure6,
                "K={k}: sanitization, Figure 6 and the AS relationships equal K=1's"
            );
        }

        // Warm reuse: every run over the cache equals the fresh run at K.
        let warm = [
            Row::WarmCensus,
            Row::WarmTraces,
            Row::WarmCampaigns,
            Row::WarmAttacks,
        ];
        if warm.into_iter().any(|row| case.holds(row)) {
            for run in 0..3 {
                let runs = Runs::warm(&mut cache, k);
                for (row, differs) in runs.warm_differences(at_k) {
                    oracle!(
                        case,
                        !case.holds(row) || differs.is_none(),
                        "{row:?}: K={k}: cached run {run}'s {} equals the fresh run's",
                        differs.unwrap_or_default()
                    );
                }
            }
        }

        if case.holds(Row::Census) {
            // Packets, events and deliveries balance on every shard's
            // simulator, after the census and again after DNSRoute++ (TTL
            // expiry, ICMP).
            let run = inetgen::run_sharded(&mut cache, k, |_, world| {
                let part = analysis::run_census(world, &classifier);
                let scanned = world.sim.stats().conserved();
                let targets = part.transparent_targets();
                run_dnsroute(
                    &mut world.sim,
                    world.fixtures.scanner,
                    DnsRouteConfig::new(targets),
                );
                (scanned, world.sim.stats().conserved())
            });
            oracle!(
                case,
                run.outputs
                    .iter()
                    .all(|&(scanned, traced)| scanned && traced),
                "K={k}: conserved() on every shard after the census and after DNSRoute++: {:?}",
                run.outputs
            );
        }
    }
}

macro_rules! seeded_cases {
    ($($test:ident: $seed:expr),+) => {$(
        #[test]
        fn $test() {
            referee(&Case::draw($seed));
        }
    )+};
}

seeded_cases!(seeded_case_1: SEEDS[0], seeded_case_2: SEEDS[1], seeded_case_3: SEEDS[2],
    seeded_case_4: SEEDS[3], seeded_case_5: SEEDS[4], seeded_case_6: SEEDS[5]);

/// More drawn cases than tier-1 runs, ~20 s in the dev profile; CI's test
/// job runs them (`cargo test --test determinism_referee -- --ignored`).
#[test]
#[ignore = "194 more drawn cases; CI's test job runs them"]
fn referee_seeds_7_to_200() {
    for seed in 7..=200 {
        referee(&Case::draw(seed));
    }
}

/// The tier-1 seeds draw every fault plan at some K > 1, and a case is a
/// pure function of its seed.
#[test]
fn tier1_seeds_cover_every_plan() {
    let cases: Vec<Case> = SEEDS.iter().map(|&s| Case::draw(s)).collect();
    for plan in drawn_plans() {
        assert!(
            (cases.iter()).any(|c| c.config.faults == plan && c.ks.iter().any(|&k| k > 1)),
            "no tier-1 case draws {plan:?} at K > 1"
        );
    }
    let again = Case::draw(SEEDS[0]);
    assert_eq!(again.to_string(), cases[0].to_string());
}

/// The world the structural checks and the paper's floors use.
fn fixed_world() -> GenConfig {
    GenConfig {
        countries: CountrySelection::Codes(vec!["BRA", "TUR", "MUS", "FSM"]),
        scale: 2_500,
        dud_fraction: 0.05,
        ..GenConfig::default()
    }
}

/// Fixed cases that split a world's rows over several tests, which
/// together hold it to every row. Each K after a case's first repartitions
/// its one cache.
macro_rules! fixed_cases {
    ($($test:ident: $config:expr, $ks:expr, [$($row:ident),+];)+) => {$(
        #[test]
        fn $test() {
            let case = Case::fixed(stringify!($test), $config, &$ks);
            referee(&Case { rows: Some(&[$(Row::$row),+]), ..case });
        }
    )+};
}

fixed_cases! {
    fixed_case_test_small: GenConfig::test_small(), [1, 2, 8],
        [Census, WarmCensus, Composition, Campaigns, Captures, WarmCampaigns, Attacks, WarmAttacks];
    fixed_case_test_small_traces: GenConfig::test_small(), [2, 8], [Traces, WarmTraces];
    fixed_case_fixed_world_census: fixed_world(), [1, 2, 4, 8], [Census, WarmCensus];
    fixed_case_fixed_world_traces: fixed_world(), [1, 2, 8], [Traces, WarmTraces];
    fixed_case_fixed_world_composition: fixed_world(), [1], [Composition];
    fixed_case_fixed_world_campaigns: fixed_world(), [2, 8], [Campaigns];
    fixed_case_fixed_world_captures: fixed_world(), [1, 2, 4], [Captures];
    fixed_case_fixed_world_warm_campaigns: fixed_world(), [1, 2, 8], [WarmCampaigns];
    fixed_case_fixed_world_attacks: fixed_world(), [2, 8], [Attacks];
    fixed_case_fixed_world_warm_attacks: fixed_world(), [2], [WarmAttacks];
}

/// Five countries: the merged geo database attributes every row to the
/// country and ASN the unsharded one does.
#[test]
fn fixed_case_attribution_world() {
    let mut config = fixed_world();
    config.countries = CountrySelection::Codes(vec!["BRA", "TUR", "MUS", "FSM", "AFG"]);
    referee(&Case::fixed("attribution world", config, &[3]));
}

/// Only FSM: the sensors' counters do not depend on what else the world
/// holds.
#[test]
fn fixed_case_sensor_world() {
    let config = GenConfig {
        countries: CountrySelection::Codes(vec!["FSM"]),
        scale: 2_000,
        dud_fraction: 0.0,
        ..GenConfig::default()
    };
    referee(&Case::fixed("sensor world", config, &[2, 8]));
}

/// A BRA/TUR/DEU world degraded by `faults`.
fn faulty_world(seed: u64, faults: FaultConfig) -> GenConfig {
    GenConfig {
        countries: CountrySelection::Codes(vec!["BRA", "TUR", "DEU"]),
        scale: 2_000,
        dud_fraction: 0.0,
        seed,
        faults: faults.into(),
        ..GenConfig::default()
    }
}

/// 10 % loss with duplication, corruption and 30 ms of jitter.
#[test]
fn fixed_case_mixed_faults_seed_11() {
    let faults = FaultConfig {
        drop_probability: 0.10,
        duplicate_probability: 0.05,
        corrupt_probability: 0.02,
        max_jitter: SimDuration::from_millis(30),
    };
    let config = faulty_world(11, faults);
    referee(&Case {
        transparent_floor: Some(0.4),
        ..Case::fixed("mixed faults", config, &[1, 8])
    });
}

/// Half of all packets duplicated, with 5 ms of jitter.
#[test]
fn fixed_case_duplication_seed_13() {
    let faults = FaultConfig {
        duplicate_probability: 0.5,
        max_jitter: SimDuration::from_millis(5),
        ..FaultConfig::default()
    };
    let config = faulty_world(13, faults);
    referee(&Case::fixed("duplication", config, &[1, 8]));
}

/// Every fifth packet flips a bit. The Internet checksum catches every
/// single-bit error, so corruption is loss, never a forged transaction.
#[test]
fn fixed_case_corruption_seed_17() {
    let faults = FaultConfig {
        corrupt_probability: 0.20,
        ..FaultConfig::default()
    };
    let config = faulty_world(17, faults);
    referee(&Case::fixed("corruption", config, &[1, 8]));
}

#[test]
fn fixed_case_lossy_seed_23() {
    let config = GenConfig {
        countries: CountrySelection::Codes(vec!["BRA", "TUR", "MUS"]),
        seed: 23,
        faults: FaultPlan::lossy(0.10),
        ..fixed_world()
    };
    referee(&Case {
        transparent_floor: Some(0.4),
        ..Case::fixed("lossy", config, &[1, 2, 8])
    });
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

    // The world holds transparent forwarders and duds, and Table 5 has
    // material: every campaign reports components, and Shadowserver's per
    // country counts join the census ranking.
    let sweep = analysis::run_campaign_sharded(&config, 1, &classifier);
    assert!(sweep.census.count(OdnsClass::TransparentForwarder) > 0);
    let truth = inetgen::generate(&config).truth.hosts.len();
    assert!(sweep.census.rows.len() > truth, "the world holds duds");
    let counts = sweep.component_counts();
    assert!(counts.iter().all(|(_, n)| *n > 0), "{counts:?}");
    assert!(!country_counts(&sweep)[0].is_empty(), "Shadowserver");
    assert!(!sweep.table5(10).render().is_empty());
}

/// A plan set after generation does not outlive `Internet::reset`: it
/// moves the census, and the reset world censuses as a fresh one.
#[test]
fn reset_discards_a_fault_plan_set_after_generation() {
    let config = fixed_world();
    let classifier = ClassifierConfig::default();
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
