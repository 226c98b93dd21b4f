//! The four workloads: what one set-up and one repetition of each does.
//!
//! Every call into a library layer sits between a `tr.begin` / `tr.end`
//! pair, so the traced run splits a repetition by layer without any edit
//! inside `crates/`. The untraced run executes the very same code with the
//! tracer off.

use crate::trace::Tracer;
use analysis::{report, Census};
use dnsroute::{DnsRouteConfig, ForwarderPath, TraceResult};
use inetgen::{CountrySelection, GenConfig, GroundTruth, Internet, PlantedClass};
use netsim::{FaultPlan, RetryPolicy, SimStats};
use scanner::{ClassifierConfig, OdnsClass, ScanConfig};
use std::collections::HashMap;
use std::fmt::Write;
use std::net::Ipv4Addr;

/// Loss injected on `dnsroute_lossy`, in permille (5 %).
const LOSS_PERMILLE: u32 = 50;
/// Salt of the lossy workload's fault plan. Fixed, not drawn from the run's
/// seed: verdicts are keyed per flow, answers of one resolver to one /16 of
/// targets share a flow, and so a salt dooms whole blocks together — census
/// recall swings between 0.64 and 0.94 from salt to salt at this size. The
/// loss pattern is part of the workload, like the loss rate; the seed draws
/// the world it falls on.
const LOSS_SALT_SEED: u64 = 0xC0DE_2021;
/// Retransmissions the lossy scan and the lossy trace may spend per probe.
const LOSSY_RETRIES: u8 = 2;

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CensusFresh,
    CensusWarmDud,
    HotpathRepeat,
    DnsrouteLossy,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CensusFresh,
        Workload::CensusWarmDud,
        Workload::HotpathRepeat,
        Workload::DnsrouteLossy,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CensusFresh => "census_fresh",
            Workload::CensusWarmDud => "census_warm_dud",
            Workload::HotpathRepeat => "hotpath_repeat",
            Workload::DnsrouteLossy => "dnsroute_lossy",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists: which layers it loads and which it starves.
    pub fn why(self) -> &'static str {
        match self {
            Workload::CensusFresh => "a new world per rep, every host probed once: cold routes, no serve-path cache ever hits, generation and teardown are paid every run",
            Workload::CensusWarmDud => "one reused world, 80% of targets never answer: reset replaces generate, pacing timers, unanswered rows and the largest CSV dominate",
            Workload::HotpathRepeat => "13 targets scanned back to back on one simulator: HotWire, QueryMemo, ResponseTemplate and the route cache hit ~100%, inetgen and analysis idle",
            Workload::DnsrouteLossy => "census plus DNSRoute++ under 5% flow-keyed loss with retries: TTL expiry and ICMP, long retransmission timers, fault verdicts, target-keyed tuples",
        }
    }

    /// What one op is, for the report.
    pub fn op(self) -> &'static str {
        match self {
            Workload::CensusFresh | Workload::CensusWarmDud => {
                "probe target taken through the whole rep"
            }
            Workload::HotpathRepeat => "probe",
            Workload::DnsrouteLossy => {
                "planted transparent forwarder put through discovery census and DNSRoute++ trace"
            }
        }
    }

    /// True when the workload injects no faults, so every fault and retry
    /// counter must read zero.
    pub fn clean(self) -> bool {
        self != Workload::DnsrouteLossy
    }

    /// The world this workload runs on.
    pub fn gen_config(self, seed: u64) -> GenConfig {
        let (dud_fraction, countries) = match self {
            Workload::CensusFresh | Workload::DnsrouteLossy => (0.1, CountrySelection::All),
            Workload::CensusWarmDud => (4.0, CountrySelection::All),
            // The 13-target `tiny_world` of the CI-gated `hotpath` bench.
            Workload::HotpathRepeat => (0.0, CountrySelection::Codes(vec!["MUS", "FSM"])),
        };
        GenConfig {
            seed,
            scale: SCALE,
            dud_fraction,
            countries,
            ..GenConfig::default()
        }
    }
}

/// `GenConfig::scale` of every world: ≈2.6 k census targets (≈12 k with
/// `census_warm_dud`'s duds), a fiftieth of the issue's sizing, because on
/// the reference box that is where a rep repeats best (README, "Sizes").
const SCALE: u32 = 1_000;
/// Back-to-back scans in one `hotpath_repeat` rep.
const SCANS_PER_REP: u32 = 2_000;
/// Scans of `hotpath_repeat`'s set-up pass: enough to fill every cache the
/// reps then hit, and for `setup_s` to be a time worth measuring.
const SETUP_SCANS: u32 = 10_000;

/// What one pass (the cold set-up pass or a timed rep) produced. The big
/// results are handed back so that checking and hashing them happens
/// outside the timed region.
#[derive(Default)]
pub struct Pass {
    /// Ops completed.
    pub ops: u64,
    /// Probes the scanner sent (first attempts).
    pub probes: u64,
    /// Probes that got an answer inside the correlation window.
    pub answered: u64,
    pub late_answers_discarded: u64,
    /// Retransmissions sent by the scanner and the tracer hosts.
    pub host_retransmits: u64,
    /// Simulator counters accumulated by this pass.
    pub stats: SimStats,
    pub csv_bytes: u64,
    /// Traces offered to `sanitize`, and how many it kept.
    pub sanitize_total: u64,
    pub sanitize_kept: u64,
    /// Rendered tables, figures and the CSV.
    pub texts: Vec<String>,
    pub census: Option<Census>,
    pub traces: Vec<TraceResult>,
    pub paths: Vec<ForwarderPath>,
    /// Running digest of `hotpath_repeat`'s per-scan answers.
    pub scan_digest: u64,
}

impl Pass {
    /// FNV-1a digest over everything the pass produced. Two passes over the
    /// same world and seed must agree, freshly generated or reset.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.bytes(&self.scan_digest.to_le_bytes());
        for text in &self.texts {
            h.bytes(text.as_bytes());
        }
        // The CSV already covers every census row; without one (the
        // DNSRoute++ workload renders none) hash the rows themselves.
        if let (Some(census), true) = (&self.census, self.texts.is_empty()) {
            let _ = write!(h, "{:?}", census.rows);
        }
        let _ = write!(h, "{:?}{:?}", self.traces, self.paths);
        h.0
    }
}

/// FNV-1a, 64 bit.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// A workload bound to its seed and size, holding the warm world between
/// repetitions.
pub struct Runner {
    pub workload: Workload,
    config: GenConfig,
    faults: FaultPlan,
    retry: RetryPolicy,
    classifier: ClassifierConfig,
    world: Option<Internet>,
    /// Transparent forwarders planted in the set-up world.
    planted_transparent: u64,
}

impl Runner {
    pub fn new(workload: Workload, seed: u64) -> Self {
        Runner {
            workload,
            config: workload.gen_config(seed),
            faults: analysis::sweep_fault_plan(LOSS_PERMILLE, LOSS_SALT_SEED),
            retry: analysis::sweep_retry_policy(LOSSY_RETRIES),
            classifier: ClassifierConfig::default(),
            world: None,
            planted_transparent: 0,
        }
    }

    /// One set-up: generate the world and take it through a first, cold
    /// pass, which fills route caches and every serve-path cache. The
    /// caller times this, so an earlier set-up's world must already be gone
    /// ([`Runner::discard_world`]): its teardown is not part of a set-up.
    pub fn setup(&mut self) -> Pass {
        assert!(self.world.is_none(), "discard the previous world first");
        let mut tr = Tracer::new();
        let mut world = inetgen::generate(&self.config);
        self.planted_transparent = world.truth.count(PlantedClass::TransparentForwarder) as u64;
        let pass = match self.workload {
            Workload::CensusFresh | Workload::CensusWarmDud => {
                self.census_pass(&mut world, &mut tr)
            }
            Workload::HotpathRepeat => hotpath_pass(&mut world, &mut tr, SETUP_SCANS),
            Workload::DnsrouteLossy => self.dnsroute_pass(&mut world, &mut tr),
        };
        self.world = Some(world);
        pass
    }

    /// The ground truth of the world the last set-up generated.
    pub fn truth(&self) -> &GroundTruth {
        &self.world.as_ref().expect("set-up ran").truth
    }

    /// Drop the set-up world, outside any timed region: before another
    /// set-up, and before the reps of `census_fresh`, which generates a
    /// world inside every rep.
    pub fn discard_world(&mut self) {
        self.world = None;
    }

    /// One timed repetition. The caller brackets it with the `rep` span.
    pub fn rep(&mut self, tr: &mut Tracer) -> Pass {
        match self.workload {
            Workload::CensusFresh => {
                let s = tr.begin("inetgen.generate");
                let mut world = inetgen::generate(&self.config);
                tr.end(s);
                let pass = self.census_pass(&mut world, tr);
                let s = tr.begin("inetgen.drop");
                drop(world);
                tr.end(s);
                pass
            }
            Workload::CensusWarmDud => {
                let mut world = self.world.take().expect("set-up ran");
                let s = tr.begin("inetgen.reset");
                world.reset();
                tr.end(s);
                let pass = self.census_pass(&mut world, tr);
                self.world = Some(world);
                pass
            }
            Workload::HotpathRepeat => {
                hotpath_pass(self.world.as_mut().expect("set-up ran"), tr, SCANS_PER_REP)
            }
            Workload::DnsrouteLossy => {
                let mut world = self.world.take().expect("set-up ran");
                let s = tr.begin("inetgen.reset");
                world.reset();
                tr.end(s);
                let pass = self.dnsroute_pass(&mut world, tr);
                self.world = Some(world);
                pass
            }
        }
    }

    /// Scan → correlate → classify, and the raw transactions released: the
    /// discovery census both the census workloads and `dnsroute_lossy` run.
    /// The returned pass carries the scan's counts; `ops` and `stats` are
    /// the caller's to fill once its own stages are through.
    fn discover(
        &self,
        world: &mut Internet,
        configure: impl FnOnce(ScanConfig) -> ScanConfig,
        tr: &mut Tracer,
    ) -> (Census, Pass) {
        let s = tr.begin("scanner.scan");
        let scan = configure(ScanConfig::new(world.targets.clone()));
        let (probes, responses, retry) =
            scanner::run_scan_raw(&mut world.sim, world.fixtures.scanner, scan);
        tr.end(s);

        let s = tr.begin("scanner.correlate");
        let outcome = scanner::correlate_owned(probes, responses, ScanConfig::DEFAULT_TIMEOUT);
        tr.end(s);

        let s = tr.begin("analysis.classify");
        let census = Census::from_transactions(&outcome.transactions, &world.geo, &self.classifier);
        tr.end(s);

        let pass = Pass {
            probes: outcome.transactions.len() as u64,
            answered: outcome.answered_count() as u64,
            late_answers_discarded: outcome.late_answers_discarded as u64,
            host_retransmits: retry.retransmits_sent,
            ..Pass::default()
        };

        // The raw transactions are dead once classified.
        let s = tr.begin("scanner.release");
        drop(outcome);
        tr.end(s);
        (census, pass)
    }

    /// Discovery census → render every census artifact + CSV.
    fn census_pass(&self, world: &mut Internet, tr: &mut Tracer) -> Pass {
        let (census, mut pass) = self.discover(world, |scan| scan, tr);
        pass.ops = pass.probes;
        pass.stats = world.sim.stats().clone();

        let s = tr.begin("analysis.render");
        pass.texts = vec![
            report::table1(&census).render(),
            report::figure3(&census).0.render(),
            report::figure4(&census, 50).render(),
            report::figure5(&census, 12).render(),
            report::table4(&census, &world.geo, 10).render(),
            report::figure8(&census).0.render(),
            census.to_csv(),
        ];
        tr.end(s);
        pass.csv_bytes = pass.texts.last().map_or(0, |csv| csv.len() as u64);
        pass.census = Some(census);
        pass
    }

    /// Lossy target-keyed census with retry → DNSRoute++ with retry over the
    /// forwarders found → sanitize → Figure 6.
    fn dnsroute_pass(&self, world: &mut Internet, tr: &mut Tracer) -> Pass {
        world.sim.set_faults(self.faults.clone());
        let retry = self.retry;
        let lossy = |scan: ScanConfig| scan.with_target_keyed_tuples().with_retry(retry);
        let (census, mut pass) = self.discover(world, lossy, tr);

        let s = tr.begin("dnsroute.trace");
        let targets = census.transparent_targets();
        let traces = dnsroute::run_dnsroute(
            &mut world.sim,
            world.fixtures.scanner,
            DnsRouteConfig::new(targets).with_retry(self.retry),
        );
        tr.end(s);
        pass.host_retransmits += world
            .sim
            .host_as::<dnsroute::DnsRoutePlusPlus>(world.fixtures.scanner)
            .map_or(0, |prober| prober.retransmits_sent);

        let s = tr.begin("dnsroute.sanitize");
        let (paths, kept) = dnsroute::sanitize(&traces);
        let (projects, other) = analysis::figure6_by_project(&paths, &world.geo);
        tr.end(s);

        pass.stats = world.sim.stats().clone();
        // Every planted forwarder is attempted; those that end without a
        // sanitized path are `fail_share`'s business.
        pass.ops = self.planted_transparent;
        pass.sanitize_total = kept.total() as u64;
        pass.sanitize_kept = kept.kept as u64;
        pass.scan_digest = {
            let mut h = Fnv::new();
            let _ = write!(h, "{projects:?}{other:?}");
            h.0
        };
        pass.census = Some(census);
        pass.traces = traces;
        pass.paths = paths;
        pass
    }
}

/// `scans` back-to-back scans of the tiny world on one simulator, no reset.
fn hotpath_pass(world: &mut Internet, tr: &mut Tracer, scans: u32) -> Pass {
    let before = world.sim.stats().clone();
    let mut pass = Pass::default();
    let mut digest = Fnv::new();
    let s = tr.begin("scanner.scan");
    for _ in 0..scans {
        let outcome = scanner::run_scan(
            &mut world.sim,
            world.fixtures.scanner,
            ScanConfig::new(world.targets.clone()),
        );
        pass.probes += outcome.transactions.len() as u64;
        pass.late_answers_discarded += outcome.late_answers_discarded as u64;
        for t in &outcome.transactions {
            if let Some(src) = t.response_src() {
                pass.answered += 1;
                digest.bytes(&src.octets());
            }
        }
    }
    tr.end(s);
    pass.ops = pass.probes;
    pass.scan_digest = digest.0;
    pass.stats = stats_delta(world.sim.stats(), &before);
    pass
}

/// The counters of `now` minus those of `before`, for a simulator that is
/// not reset between repetitions. Only the fields the benchmark reads.
fn stats_delta(now: &SimStats, before: &SimStats) -> SimStats {
    SimStats {
        events_processed: now.events_processed - before.events_processed,
        timers_coalesced: now.timers_coalesced - before.timers_coalesced,
        events_wheel_scheduled: now.events_wheel_scheduled - before.events_wheel_scheduled,
        events_heap_scheduled: now.events_heap_scheduled - before.events_heap_scheduled,
        route_cache_hits: now.route_cache_hits - before.route_cache_hits,
        route_cache_misses: now.route_cache_misses - before.route_cache_misses,
        dropped_fault: now.dropped_fault - before.dropped_fault,
        dropped_corrupt: now.dropped_corrupt - before.dropped_corrupt,
        duplicates_injected: now.duplicates_injected - before.duplicates_injected,
        retransmits_sent: now.retransmits_sent - before.retransmits_sent,
        icmp_delivered: now.icmp_delivered - before.icmp_delivered,
        ..SimStats::default()
    }
}

/// What checking a cold pass against the planted ground truth found.
#[derive(Debug, Clone, Copy)]
pub struct Verdicts {
    /// Ops attempted: targets (census workloads), probes (`hotpath_repeat`),
    /// planted transparent forwarders (`dnsroute_lossy`).
    pub attempted: u64,
    /// Attempted ops that did not come out right (`fail_share`'s numerator).
    pub failed: u64,
    /// Results that claim something the ground truth denies: a dud or a
    /// manipulated forwarder classified as ODNS, a wrong class, a path for
    /// a host that is no transparent forwarder. Must be zero.
    pub false_positives: u64,
    /// Planted transparent forwarders, and how many the census classified
    /// as such.
    pub planted_transparent: u64,
    pub found_transparent: u64,
}

impl Verdicts {
    /// Census precision: 1.0 unless something was fabricated.
    pub fn precise(&self) -> bool {
        self.false_positives == 0
    }

    /// Share of planted transparent forwarders the census classified as
    /// such; 1.0 for a pass that ran no census or planted none.
    pub fn transparent_recall(&self) -> f64 {
        if self.planted_transparent == 0 {
            1.0
        } else {
            self.found_transparent as f64 / self.planted_transparent as f64
        }
    }
}

/// The class the strict method should assign to a planted host. It must
/// discard manipulated forwarders, so those expect `None`, like duds.
fn expected_class(planted: PlantedClass) -> Option<OdnsClass> {
    match planted {
        PlantedClass::TransparentForwarder => Some(OdnsClass::TransparentForwarder),
        PlantedClass::RecursiveForwarder => Some(OdnsClass::RecursiveForwarder),
        PlantedClass::RecursiveResolver => Some(OdnsClass::RecursiveResolver),
        PlantedClass::ManipulatedForwarder => None,
    }
}

/// Check a pass against the planted ground truth. `plant_false_positive`
/// is the self-test hook: it makes the ground truth deny the first
/// classified row, which the check must then report.
pub fn verify(
    workload: Workload,
    pass: &Pass,
    truth: &GroundTruth,
    plant_false_positive: bool,
) -> Verdicts {
    let mut planted: HashMap<Ipv4Addr, PlantedClass> =
        truth.hosts.iter().map(|h| (h.ip, h.class)).collect();
    let census_rows = pass.census.as_ref().map_or(&[][..], |c| &c.rows[..]);
    if plant_false_positive {
        if let Some(row) = census_rows.iter().find(|r| r.class().is_some()) {
            planted.remove(&row.target);
        }
    }
    let planted_transparent = if pass.census.is_some() {
        planted
            .values()
            .filter(|c| **c == PlantedClass::TransparentForwarder)
            .count() as u64
    } else {
        0
    };

    let mut wrong = 0u64;
    let mut false_positives = 0u64;
    let mut found_transparent = 0u64;
    for row in census_rows {
        let expected = planted.get(&row.target).copied().and_then(expected_class);
        let got = row.class();
        if got != expected {
            wrong += 1;
            if got.is_some() {
                false_positives += 1;
            }
        } else if got == Some(OdnsClass::TransparentForwarder) {
            found_transparent += 1;
        }
    }

    let (attempted, failed) = match workload {
        Workload::CensusFresh | Workload::CensusWarmDud => (census_rows.len() as u64, wrong),
        Workload::HotpathRepeat => (pass.probes, pass.probes - pass.answered),
        Workload::DnsrouteLossy => {
            let traced_true = pass
                .paths
                .iter()
                .filter(|p| planted.get(&p.forwarder) == Some(&PlantedClass::TransparentForwarder))
                .count() as u64;
            false_positives += pass.paths.len() as u64 - traced_true;
            (planted_transparent, planted_transparent - traced_true)
        }
    };
    Verdicts {
        attempted,
        failed,
        false_positives,
        planted_transparent,
        found_transparent,
    }
}
