//! The benchmark's metric tables: names, units, directions and the bound by
//! which an end-to-end metric may worsen before a change counts as a
//! regression. `BENCHMARK.json` at the repo root repeats them for the
//! driver; a self-test keeps the two in step.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

use crate::stats::Estimator;

/// How `compare` judges a metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// The median may worsen by at most this share of the baseline's.
    Bound(f64),
    /// A count the simulator repeats exactly for a seed: any difference
    /// between two commits is a behaviour change, reported as a count.
    Exact,
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Which rep's value a run reports (see the noise policy in `run.rs`).
    pub estimator: Estimator,
    pub rule: Rule,
    /// The bound `BENCHMARK.json` declares to the driver, which compares
    /// runs across *different* seeds, on a box whose timings swing by more
    /// than 10 % between identical runs, and forbids metrics that read
    /// zero. `None` keeps the metric out of the driver's end-to-end list
    /// (it is then reported with the traced run instead).
    pub driver_bound: Option<f64>,
}

/// The six end-to-end metrics, reported per workload with tracing off.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "ops/s",
        better: Better::Higher,
        estimator: Estimator::Max,
        rule: Rule::Bound(0.10),
        driver_bound: Some(0.25),
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        estimator: Estimator::Min,
        rule: Rule::Bound(0.25),
        driver_bound: Some(0.25),
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        estimator: Estimator::First,
        rule: Rule::Bound(0.05),
        // Worlds of different seeds differ by a few percent in size.
        driver_bound: Some(0.10),
    },
    EndToEnd {
        name: "fail_share",
        unit: "ratio",
        better: Better::Lower,
        estimator: Estimator::First,
        rule: Rule::Exact,
        // Reads exactly 0 on the three clean workloads.
        driver_bound: None,
    },
    EndToEnd {
        name: "events_per_op",
        unit: "count",
        better: Better::Lower,
        estimator: Estimator::First,
        rule: Rule::Exact,
        // Exact for one seed; across seeds the generated worlds differ a
        // little, so the driver gets a small bound instead.
        driver_bound: Some(0.10),
    },
    EndToEnd {
        name: "host_ns_per_event",
        unit: "ns",
        better: Better::Lower,
        estimator: Estimator::Min,
        rule: Rule::Bound(0.10),
        driver_bound: Some(0.25),
    },
];

/// One per-layer metric of the traced run. No bound: these explain a
/// movement of an end-to-end metric, they do not gate.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// For a stage time: the span it is the duration of.
    pub span: Option<&'static str>,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        span: None,
    }
}

/// A stage time: seconds spent in spans called `span` during one rep.
const fn stage(name: &'static str, span: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "s",
        better: Better::Lower,
        span: Some(span),
    }
}

/// Every per-layer metric, `<layer>.<name>`. Stage times are those of the
/// fastest traced rep; `_ns` kernels are medians over batches; counts come
/// from `SimStats` / `ScanOutcome` and repeat exactly for a seed.
pub const PER_LAYER: [PerLayer; 44] = [
    layer("fail_share", "ratio", Better::Lower),
    layer("trace.overhead_share", "ratio", Better::Lower),
    layer("trace.attributed_share", "ratio", Better::Higher),
    stage("inetgen.generate_s", "inetgen.generate"),
    stage("inetgen.drop_s", "inetgen.drop"),
    stage("inetgen.reset_s", "inetgen.reset"),
    layer("inetgen.k2_speedup", "ratio", Better::Higher),
    stage("scanner.scan_s", "scanner.scan"),
    stage("scanner.correlate_s", "scanner.correlate"),
    layer("scanner.correlate_ns_per_probe", "ns", Better::Lower),
    stage("scanner.release_s", "scanner.release"),
    layer("scanner.classify_ns", "ns", Better::Lower),
    layer("scanner.answered_share", "ratio", Better::Higher),
    layer("scanner.late_answers_discarded", "count", Better::Lower),
    stage("analysis.classify_s", "analysis.classify"),
    stage("analysis.render_s", "analysis.render"),
    layer("analysis.csv_bytes", "bytes", Better::Lower),
    stage("dnsroute.trace_s", "dnsroute.trace"),
    stage("dnsroute.sanitize_s", "dnsroute.sanitize"),
    layer("dnsroute.sanitize_reject_share", "ratio", Better::Lower),
    layer("netsim.route_cache_hit_ratio", "ratio", Better::Higher),
    layer("netsim.route_resolve_cold_ns", "ns", Better::Lower),
    layer("netsim.route_resolve_warm_ns", "ns", Better::Lower),
    layer("netsim.wheel_push_pop_ns", "ns", Better::Lower),
    layer("netsim.timers_coalesced_per_op", "count", Better::Higher),
    layer("netsim.wheel_overflow_share", "ratio", Better::Lower),
    layer("netsim.fault_decide_ns", "ns", Better::Lower),
    layer("netsim.dropped_fault_per_op", "count", Better::Lower),
    layer("netsim.retransmits_per_op", "count", Better::Lower),
    layer("netsim.icmp_per_op", "count", Better::Lower),
    layer("odns.cache_get_wire_ns", "ns", Better::Lower),
    layer("odns.hotwire_serve_ns", "ns", Better::Lower),
    layer("odns.querymemo_match_ns", "ns", Better::Lower),
    layer("dnswire.encode_response_ns", "ns", Better::Lower),
    layer("dnswire.decode_response_ns", "ns", Better::Lower),
    layer("dnswire.template_materialize_ns", "ns", Better::Lower),
    layer("dnswire.peek_id_ns", "ns", Better::Lower),
    layer("mem.allocs_per_op", "count", Better::Lower),
    layer("mem.alloc_bytes_per_op", "bytes", Better::Lower),
    layer("mem.scan_allocs_per_op", "count", Better::Lower),
    layer("host.available_parallelism", "count", Better::Higher),
    layer("bench.reps_traced", "count", Better::Higher),
    layer("bench.reps_untraced", "count", Better::Higher),
    layer("bench.ops_per_rep", "count", Better::Higher),
];
