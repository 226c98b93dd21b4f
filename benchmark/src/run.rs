//! Running one workload in this process: set-up, timed repetitions, checks,
//! and the numbers derived from them.
//!
//! Load shape: closed loop, one client. Everything runs on the calling
//! thread with K=1; rep *n*+1 starts when rep *n* has finished. All times
//! are host wall time; simulated time is never reported as a speed.
//!
//! Noise policy: the reference box is two vCPUs of a shared host. Its speed
//! moves in bursts of tens of milliseconds to seconds (a throughput-bound
//! L1-resident loop swings 1.8x while a dependent-load chain holds +-10 % —
//! the signature of a neighbour on the sibling hardware thread) and drifts
//! over minutes, by +-10 % for a cache-resident world and +-30 % for one of
//! 45 MiB. That noise only ever adds time. A run therefore makes hundreds
//! of reps of some 20 ms and reports each timed metric from its **best**
//! rep — the machine at its quietest — with the median and quartiles over
//! all reps stated beside it. Between identical 20-second runs the best rep
//! moved by 4-8 %, the median rep by 10-25 %.

use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::Summary;
use crate::trace::{Span, Tracer};
use crate::workloads::{verify, Pass, Runner, Verdicts, Workload};
use crate::{clock, kernels};
use std::collections::BTreeMap;

/// How long the timed reps of one run go on unless `--seconds` says
/// otherwise — `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 20.0;
/// Set-ups per untraced run, spread over its window; `setup_s` is the
/// fastest of them, by the noise policy above.
const SETUP_REPS: usize = 15;
/// Timed reps a run makes at least, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Clean transparent-forwarder recall the census must reach.
const MIN_CLEAN_RECALL: f64 = 0.99;

/// A fault the self-tests plant to prove the checks bite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    /// Corrupt the digest of the second timed rep.
    Digest,
    /// Make the ground truth deny one classified row.
    FalsePositive,
}

impl Inject {
    pub const ALL: [Inject; 2] = [Inject::Digest, Inject::FalsePositive];

    /// The value `--inject` takes.
    pub fn name(self) -> &'static str {
        match self {
            Inject::Digest => "digest",
            Inject::FalsePositive => "false-positive",
        }
    }
}

/// Settings of one workload run.
#[derive(Debug, Clone)]
pub struct Settings {
    pub workload: Workload,
    pub seed: u64,
    /// How long the timed reps go on (ignored by `--smoke`: 3 reps).
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    pub inject: Option<Inject>,
}

/// One timed repetition. Small on purpose: a run keeps a thousand of them,
/// and `peak_rss_mb` should not depend on how many fitted in.
struct Rep {
    traced: bool,
    wall_s: f64,
    digest: u64,
    ops: u64,
    events: u64,
    /// Probes sent minus probes answered (`hotpath_repeat`'s failures).
    unanswered: u64,
}

/// Everything one workload run measured.
pub struct Outcome {
    pub settings: Settings,
    pub correct: bool,
    /// Why `correct` is false, one line per failed check.
    pub complaints: Vec<String>,
    pub digest: u64,
    pub verdicts: Verdicts,
    pub reps_untraced: usize,
    pub reps_traced: usize,
    pub ops_per_rep: u64,
    /// Wall time of every timed rep, in order, and whether it was traced.
    pub rep_wall_s: Vec<(bool, f64)>,
    /// Wall time of every set-up, in order.
    pub setup_wall_s: Vec<f64>,
    /// Ops completed and ops that failed a correctness check, over all
    /// timed reps — the driver's `attempted` and `failed`.
    pub ops_total: u64,
    pub ops_wrong: u64,
    pub end_to_end: BTreeMap<&'static str, Summary>,
    /// Filled by a traced run only.
    pub per_layer: BTreeMap<&'static str, f64>,
    pub tracer: Tracer,
}

pub fn run(settings: Settings) -> Outcome {
    let Settings {
        workload,
        seed,
        smoke,
        traced,
        ..
    } = settings;
    let mut complaints = Vec::new();
    let mut runner = Runner::new(workload, seed);

    let (secs, cold) = timed_setup(&mut runner);
    let mut setup_s = vec![secs];
    let verdicts = verify(
        workload,
        &cold,
        runner.truth(),
        settings.inject == Some(Inject::FalsePositive),
    );
    let cold_digest = cold.digest();
    check_counters(workload, &cold, &mut complaints);
    drop(cold);

    if !verdicts.precise() {
        complaints.push(format!(
            "precision below 1.0: {} result(s) contradict the ground truth",
            verdicts.false_positives
        ));
    }
    if workload.clean() && verdicts.transparent_recall() < MIN_CLEAN_RECALL {
        // (`hotpath_repeat` classifies nothing, so its recall reads 1.)
        complaints.push(format!(
            "clean transparent-forwarder recall {:.4} below {MIN_CLEAN_RECALL}",
            verdicts.transparent_recall()
        ));
    }

    // Timed reps. A traced run alternates untraced and traced reps, so both
    // sides of `trace.overhead_share` see the same machine. An untraced run
    // spreads its remaining set-ups evenly over the window: the box's slow
    // phases last seconds, and set-ups done back to back would all sit in
    // one. (The traced run reports no `setup_s` and sets up once.)
    let later_setups = if traced || smoke { 0 } else { SETUP_REPS - 1 };
    let setup_every_s = settings.seconds / SETUP_REPS as f64;
    let mut tracer = Tracer::new();
    let mut reps: Vec<Rep> = Vec::new();
    let mut counters = None;
    let started = clock::now();
    loop {
        let n = reps.len();
        let elapsed = clock::secs_since(started);
        let done = if smoke {
            n >= if traced { 2 * MIN_REPS } else { MIN_REPS }
        } else {
            n >= MIN_REPS && elapsed >= settings.seconds
        };
        // A traced run ends on a traced rep, keeping the two kinds paired.
        if done && !(traced && n % 2 == 1) {
            break;
        }
        if setup_s.len() <= later_setups && elapsed >= setup_every_s * setup_s.len() as f64 {
            let (secs, again) = timed_setup(&mut runner);
            setup_s.push(secs);
            if again.digest() != cold_digest {
                complaints.push(format!("set-up {} produced another digest", setup_s.len()));
            }
        }
        // `census_fresh` generates its world inside the rep.
        if workload == Workload::CensusFresh {
            runner.discard_world();
        }

        let trace_this = traced && n % 2 == 1;
        tracer.set(trace_this, n as u32);
        let start = clock::now();
        let span = tracer.begin("rep");
        let pass = runner.rep(&mut tracer);
        tracer.end(span);
        let wall_s = clock::secs_since(start);
        tracer.set(false, n as u32);

        let mut digest = pass.digest();
        if settings.inject == Some(Inject::Digest) && n == 1 {
            digest ^= 1;
        }
        check_counters(workload, &pass, &mut complaints);
        reps.push(Rep {
            traced: trace_this,
            wall_s,
            digest,
            ops: pass.ops,
            events: pass.stats.events_processed,
            unanswered: pass.probes - pass.answered,
        });
        // The counts behind the per-layer metrics repeat from rep to rep;
        // keep those of the first traced one and let the bulk go.
        if trace_this && counters.is_none() {
            counters = Some(Pass {
                texts: Vec::new(),
                census: None,
                traces: Vec::new(),
                paths: Vec::new(),
                ..pass
            });
        }
    }

    // Every rep, freshly generated or reset, must reproduce the same
    // results. `hotpath_repeat`'s set-up pass is shorter than a rep, so its
    // reps are compared with each other only.
    let reference = if workload == Workload::HotpathRepeat {
        reps[0].digest
    } else {
        cold_digest
    };
    for (i, rep) in reps.iter().enumerate() {
        if rep.digest != reference {
            complaints.push(format!(
                "rep {i} digest {:016x} differs from reference {reference:016x}",
                rep.digest
            ));
        }
    }

    // End-to-end metrics, over the untraced reps.
    let fail_share = |rep: &Rep| match workload {
        Workload::HotpathRepeat => rep.unanswered as f64 / rep.ops as f64,
        _ => verdicts.failed as f64 / verdicts.attempted.max(1) as f64,
    };
    let untraced: Vec<&Rep> = reps.iter().filter(|r| !r.traced).collect();
    let peak_rss_mb = peak_rss_mb();
    let mut end_to_end = BTreeMap::new();
    for def in &END_TO_END {
        let per_rep: &dyn Fn(&Rep) -> f64 = match def.name {
            "ops_per_s" => &|r| r.ops as f64 / r.wall_s,
            "fail_share" => &fail_share,
            "events_per_op" => &|r| r.events as f64 / r.ops as f64,
            "host_ns_per_event" => &|r| r.wall_s * 1e9 / r.events as f64,
            _ => &|_| f64::NAN,
        };
        let samples: &[f64] = match def.name {
            "setup_s" => &setup_s,
            "peak_rss_mb" => &[peak_rss_mb],
            _ => &untraced.iter().map(|r| per_rep(r)).collect::<Vec<_>>(),
        };
        let s = Summary::of(samples, def.estimator);
        end_to_end.insert(def.name, s);
        if ![s.value, s.median, s.q1, s.q3]
            .iter()
            .all(|v| v.is_finite())
        {
            complaints.push(format!("{} is not finite", def.name));
        }
    }

    let ops_total: u64 = reps.iter().map(|r| r.ops).sum();
    // Only a precision violation makes an op *wrong*; a target the lossy
    // network cost us is a simulated outcome, counted by `fail_share`.
    let ops_wrong = verdicts.false_positives * reps.len() as u64;

    let mut per_layer = BTreeMap::new();
    if traced {
        let counters = counters.expect("a traced run makes traced reps");
        per_layer = per_layer_metrics(&settings, &reps, &counters, &tracer, &end_to_end);
        for def in &PER_LAYER {
            match per_layer.get(def.name) {
                None => complaints.push(format!("per-layer metric {} was not produced", def.name)),
                Some(v) if !v.is_finite() => complaints.push(format!("{} is not finite", def.name)),
                Some(_) => {}
            }
        }
    }

    Outcome {
        correct: complaints.is_empty(),
        complaints,
        digest: reference,
        verdicts,
        reps_untraced: untraced.len(),
        reps_traced: reps.len() - untraced.len(),
        ops_per_rep: reps[0].ops,
        rep_wall_s: reps.iter().map(|r| (r.traced, r.wall_s)).collect(),
        setup_wall_s: setup_s,
        ops_total,
        ops_wrong,
        end_to_end,
        per_layer,
        tracer,
        settings,
    }
}

/// One set-up — generate + the first cold pass — and how long it took. The
/// teardown of an earlier world stays out of the timed region.
fn timed_setup(runner: &mut Runner) -> (f64, Pass) {
    runner.discard_world();
    let start = clock::now();
    let cold = runner.setup();
    (clock::secs_since(start), cold)
}

/// On a clean workload no fault may be injected and nothing retransmitted.
fn check_counters(workload: Workload, pass: &Pass, complaints: &mut Vec<String>) {
    let s = &pass.stats;
    let touched = s.dropped_fault + s.dropped_corrupt + s.duplicates_injected + s.retransmits_sent;
    if workload.clean() && touched + pass.host_retransmits != 0 {
        complaints.push(format!(
            "fault plane or retry layer touched a clean workload: dropped {} corrupt {} duplicated {} retransmitted {}",
            s.dropped_fault, s.dropped_corrupt, s.duplicates_injected, s.retransmits_sent
        ));
    }
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(f64::NAN)
}

/// The per-layer numbers of a traced run: stage times from the spans,
/// counts from the simulator's own counters, kernels, and the K=2 probe.
/// `trace.overhead_share` sets the fastest traced rep against the fastest
/// untraced one, by the same best-of-N policy as the end-to-end metrics.
fn per_layer_metrics(
    settings: &Settings,
    reps: &[Rep],
    pass: &Pass,
    tracer: &Tracer,
    end_to_end: &BTreeMap<&'static str, Summary>,
) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    let fastest = |traced: bool| {
        reps.iter()
            .enumerate()
            .filter(|(_, r)| r.traced == traced)
            .min_by(|a, b| a.1.wall_s.total_cmp(&b.1.wall_s))
            .expect("a traced run makes reps of both kinds")
    };
    // Every span-derived number comes from the fastest traced rep, so the
    // stage times add up to one rep that really happened.
    let (rep_id, rep) = fastest(true);
    let (_, untraced_rep) = fastest(false);
    let ops = rep.ops as f64;
    let self_ns = tracer.self_ns();
    let spans: Vec<(usize, &Span)> = tracer
        .spans()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.rep == rep_id as u32)
        .collect();
    let named = |name: &'static str| spans.iter().filter(move |(_, s)| s.name == name);

    for def in PER_LAYER.iter().filter(|def| def.span.is_some()) {
        let ns: u64 = named(def.span.expect("filtered"))
            .map(|(_, s)| s.duration_ns())
            .sum();
        out.insert(def.name, ns as f64 / 1e9);
    }
    let (root_idx, root) = *named("rep")
        .next()
        .expect("every traced rep has a root span");
    out.insert(
        "trace.attributed_share",
        1.0 - self_ns[root_idx] as f64 / root.duration_ns() as f64,
    );
    out.insert("mem.allocs_per_op", root.allocs as f64 / ops);
    out.insert("mem.alloc_bytes_per_op", root.alloc_bytes as f64 / ops);
    out.insert(
        "mem.scan_allocs_per_op",
        named("scanner.scan").map(|(_, s)| s.allocs).sum::<u64>() as f64 / ops,
    );
    out.insert(
        "trace.overhead_share",
        (rep.wall_s - untraced_rep.wall_s) / untraced_rep.wall_s,
    );

    // `pass` holds the counts of a traced rep; they repeat from rep to rep.
    let s = &pass.stats;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    out.insert("fail_share", end_to_end["fail_share"].value);
    out.insert(
        "scanner.correlate_ns_per_probe",
        out["scanner.correlate_s"] * 1e9 / pass.probes as f64,
    );
    out.insert("scanner.answered_share", ratio(pass.answered, pass.probes));
    out.insert(
        "scanner.late_answers_discarded",
        pass.late_answers_discarded as f64,
    );
    out.insert("analysis.csv_bytes", pass.csv_bytes as f64);
    out.insert(
        "dnsroute.sanitize_reject_share",
        ratio(
            pass.sanitize_total - pass.sanitize_kept,
            pass.sanitize_total,
        ),
    );
    out.insert(
        "netsim.route_cache_hit_ratio",
        ratio(
            s.route_cache_hits,
            s.route_cache_hits + s.route_cache_misses,
        ),
    );
    out.insert(
        "netsim.timers_coalesced_per_op",
        s.timers_coalesced as f64 / ops,
    );
    out.insert(
        "netsim.wheel_overflow_share",
        ratio(
            s.events_heap_scheduled,
            s.events_heap_scheduled + s.events_wheel_scheduled,
        ),
    );
    out.insert("netsim.dropped_fault_per_op", s.dropped_fault as f64 / ops);
    out.insert("netsim.retransmits_per_op", s.retransmits_sent as f64 / ops);
    out.insert("netsim.icmp_per_op", s.icmp_delivered as f64 / ops);

    out.extend(kernels::run(settings.seed, settings.smoke));
    out.insert("inetgen.k2_speedup", k2_speedup(settings.seed));
    out.insert("host.available_parallelism", available_parallelism() as f64);
    let traced_reps = reps.iter().filter(|r| r.traced).count();
    out.insert("bench.reps_traced", traced_reps as f64);
    out.insert("bench.reps_untraced", (reps.len() - traced_reps) as f64);
    out.insert("bench.ops_per_rep", ops);
    out
}

pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The fastest of five warm `run_census_cached` passes at K=1 against the
/// same at K=2 (the library's own sanctioned worker pool), on the
/// `census_fresh` world. Informational: on a shared 2-core box this says
/// nothing about parallel scaling, which stays unclaimed until a benchmark
/// revision on a bigger machine.
fn k2_speedup(seed: u64) -> f64 {
    let classifier = scanner::ClassifierConfig::default();
    let mut cache = inetgen::ShardWorldCache::new(Workload::CensusFresh.gen_config(seed));
    let mut warm_pass_s = |shards: u32| {
        // The first call at a shard count generates the partition.
        let cold = analysis::run_census_cached(&mut cache, shards, &classifier);
        (0..5)
            .map(|_| {
                let start = clock::now();
                let warm = analysis::run_census_cached(&mut cache, shards, &classifier);
                let secs = clock::secs_since(start);
                assert_eq!(
                    cold.odns_total(),
                    warm.odns_total(),
                    "warm K={shards} pass diverged"
                );
                secs
            })
            .fold(f64::INFINITY, f64::min)
    };
    let k1 = warm_pass_s(1);
    let k2 = warm_pass_s(2);
    k1 / k2
}

impl Outcome {
    /// The results file of this run: a manifest and every metric measured.
    pub fn to_json(&self) -> Json {
        let s = &self.settings;
        let walls = self.rep_wall_s.iter().map(|(traced, wall_s)| {
            Json::obj([
                ("traced", Json::Bool(*traced)),
                ("wall_s", Json::Num(*wall_s)),
            ])
        });
        let setups = self.setup_wall_s.iter().map(|wall_s| Json::Num(*wall_s));
        let mut doc = vec![
            ("workload", Json::str(s.workload.name())),
            ("why", Json::str(s.workload.why())),
            ("op", Json::str(s.workload.op())),
            // A string: a u64 seed need not survive a trip through f64.
            ("seed", Json::str(s.seed.to_string())),
            ("smoke", Json::Bool(s.smoke)),
            ("traced", Json::Bool(s.traced)),
            ("seconds", Json::Num(s.seconds)),
            ("commit", Json::str(commit_id())),
            (
                "available_parallelism",
                Json::Num(available_parallelism() as f64),
            ),
            ("reps_untraced", Json::Num(self.reps_untraced as f64)),
            ("reps_traced", Json::Num(self.reps_traced as f64)),
            ("ops_per_rep", Json::Num(self.ops_per_rep as f64)),
            ("reps", Json::Arr(walls.collect())),
            ("setups_wall_s", Json::Arr(setups.collect())),
            ("digest", Json::str(format!("{:016x}", self.digest))),
            ("correct", Json::Bool(self.correct)),
            (
                "complaints",
                Json::Arr(self.complaints.iter().map(Json::str).collect()),
            ),
            (
                "transparent_recall",
                Json::Num(self.verdicts.transparent_recall()),
            ),
        ];
        let metrics = END_TO_END.iter().map(|def| {
            let m = self.end_to_end[def.name];
            let entry = Json::obj([
                ("value", Json::Num(m.value)),
                ("median", Json::Num(m.median)),
                ("q1", Json::Num(m.q1)),
                ("q3", Json::Num(m.q3)),
                ("n", Json::Num(m.n as f64)),
                ("unit", Json::str(def.unit)),
                ("better", Json::str(def.better.as_str())),
            ]);
            (def.name, entry)
        });
        doc.push(("end_to_end", Json::obj(metrics)));
        if s.traced {
            let layers = PER_LAYER.iter().filter_map(|def| {
                let value = *self.per_layer.get(def.name)?;
                let entry = Json::obj([("value", Json::Num(value)), ("unit", Json::str(def.unit))]);
                Some((def.name, entry))
            });
            doc.push(("per_layer", Json::obj(layers)));
            let self_ns = self.tracer.self_ns();
            let spans = self.tracer.spans().iter().zip(self_ns).map(|(span, own)| {
                Json::obj([
                    ("name", Json::str(span.name)),
                    ("rep", Json::Num(f64::from(span.rep))),
                    ("start_ns", Json::Num(span.start_ns as f64)),
                    ("end_ns", Json::Num(span.end_ns as f64)),
                    ("self_ns", Json::Num(own as f64)),
                    (
                        "parent",
                        span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("allocs", Json::Num(span.allocs as f64)),
                    ("alloc_bytes", Json::Num(span.alloc_bytes as f64)),
                ])
            });
            doc.push(("spans", Json::Arr(spans.collect())));
        }
        Json::obj(doc)
    }

    /// The driver's result line: `correct`, `attempted`, `failed`, and the
    /// end-to-end metrics (untraced run) or the per-layer ones (traced).
    pub fn driver_line(&self) -> String {
        let metric = |value: f64, unit: &str| {
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
        };
        let metrics = if self.settings.traced {
            Json::obj(PER_LAYER.iter().filter_map(|def| {
                let value = *self.per_layer.get(def.name)?;
                Some((def.name, metric(value, def.unit)))
            }))
        } else {
            Json::obj(
                END_TO_END
                    .iter()
                    .filter(|def| def.driver_bound.is_some())
                    .map(|def| (def.name, metric(self.end_to_end[def.name].value, def.unit))),
            )
        };
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.ops_total as f64)),
            ("failed", Json::Num(self.ops_wrong as f64)),
            ("metrics", metrics),
        ])
        .encode()
    }

    /// One line per metric, by name, with its unit.
    pub fn print(&self) {
        let w = self.settings.workload.name();
        println!(
            "{w}: seed {} · {} untraced + {} traced reps of {} ops · digest {:016x} · transparent recall {:.4}",
            self.settings.seed,
            self.reps_untraced,
            self.reps_traced,
            self.ops_per_rep,
            self.digest,
            self.verdicts.transparent_recall(),
        );
        if self.settings.traced {
            for def in &PER_LAYER {
                if let Some(value) = self.per_layer.get(def.name) {
                    println!("{w} {} {value:.6} {}", def.name, def.unit);
                }
            }
        } else {
            for def in &END_TO_END {
                let m = self.end_to_end[def.name];
                println!(
                    "{w} {} {:.6} {} ({:?} of {}; median {:.6}, IQR {:.6}..{:.6})",
                    def.name, m.value, def.unit, def.estimator, m.n, m.median, m.q1, m.q3
                );
            }
        }
        for complaint in &self.complaints {
            println!("{w} CHECK FAILED: {complaint}");
        }
    }
}

/// The commit this tree is at, read from `.git/HEAD`; `unknown` outside a
/// git checkout (the driver's copies are not repositories).
pub fn commit_id() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |rel: &str| std::fs::read_to_string(git.join(rel)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(reference) {
        return id.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}
