//! The sharded DNSRoute++ sweep: census → trace every transparent
//! forwarder, one shard world at a time, in parallel.
//!
//! The paper's §5 sweep "scans all transparent forwarders" found by the
//! census — full coverage, not a sampled subset, which is also what
//! attack-surface mapping of forwarder misuse needs. A single simulator
//! bounds one sweep to the 25 536 source ports from 40 000 up (one port
//! per target is the only Time-Exceeded correlator); sharding removes
//! that wave limit, because every shard world owns its own port space
//! *and* its own worker thread.
//!
//! Built on [`inetgen::run_sharded`]: each shard runs the transactional
//! scan, correlates and classifies its own transactions *once* in-worker
//! — yielding both that shard's census part and its transparent-forwarder
//! targets — and traces them with [`dnsroute::run_dnsroute`] in the same
//! (already warm) simulator. Census parts concatenate into exactly the
//! census [`crate::run_census_sharded`] produces; traces concatenate in
//! ascending shard order. Partition invariance of the
//! generator makes every per-target trace independent of `K`, so
//! Figure 6 ([`crate::figure6_by_project`]) and the AS-relationship
//! report are identical for any shard count — and `K = 1` reproduces the
//! classic unsharded census → trace pipeline bit for bit.

use crate::census::{merge_census_parts, run_census, Census};
use dnsroute::{DnsRouteConfig, ForwarderPath, SanitizeStats, TraceResult};
use inetgen::{GeoDb, Internet, ShardedRun, Worlds};
use scanner::ClassifierConfig;

/// Everything a sharded census → DNSRoute++ sweep produces.
#[derive(Debug)]
pub struct ShardedSweep {
    /// The merged census (identical to [`crate::run_census_sharded`] over
    /// the same configuration).
    pub census: Census,
    /// All traces, concatenated in ascending shard order; within a shard,
    /// in that shard's census target order.
    pub traces: Vec<TraceResult>,
    /// The merged lookup database for figure/report generation.
    pub geo: GeoDb,
}

impl ShardedSweep {
    /// Sanitize the sweep (§5's "after sanitization" filter).
    pub fn sanitized(&self) -> (Vec<ForwarderPath>, SanitizeStats) {
        dnsroute::sanitize(&self.traces)
    }

    /// Figure 6 input: sanitized paths grouped by resolver project.
    pub fn figure6(&self) -> (Vec<crate::ProjectPaths>, Vec<ForwarderPath>) {
        let (paths, _) = self.sanitized();
        crate::figure6_by_project(&paths, &self.geo)
    }
}

/// One shard's §5 experiment: the census pass ([`run_census`] — this
/// shard's census part, whose transparent forwarders are the targets, in
/// probe order) → DNSRoute++ over those targets in the same, already warm
/// simulator. The scan's records are correlated and classified exactly
/// once.
fn dnsroute_shard_pass(
    world: &mut Internet,
    classifier: &ClassifierConfig,
) -> (Census, Vec<TraceResult>) {
    let part = run_census(world, classifier);
    let traces = dnsroute::run_dnsroute(
        &mut world.sim,
        world.fixtures.scanner,
        DnsRouteConfig::new(part.transparent_targets()),
    );
    (part, traces)
}

/// The deterministic merge: census parts concatenate (ascending shard
/// order), traces concatenate in the same order.
fn merge_sweep(run: ShardedRun<(Census, Vec<TraceResult>)>) -> ShardedSweep {
    let mut parts = Vec::with_capacity(run.outputs.len());
    let mut traces = Vec::new();
    for (part, shard_traces) in run.outputs {
        parts.push(part);
        traces.extend(shard_traces);
    }
    ShardedSweep {
        census: merge_census_parts(parts),
        traces,
        geo: run.geo,
    }
}

/// Run the full §5 pipeline sharded `shards` ways on a worker-thread
/// pool: per shard, transactional scan → classify → DNSRoute++ over that
/// shard's transparent forwarders — then merge census parts and traces in
/// deterministic shard order. `worlds` is a `&GenConfig` or a
/// `&mut ShardWorldCache` ([`inetgen::Worlds`]); over a cache a K-sweep
/// pays world generation once per shard count instead of once per sweep,
/// with bit-identical output.
///
/// Classification is per-transaction, so the shard-local discovery pass
/// finds exactly the targets the merged census attributes to that shard;
/// no cross-shard state exists. Each shard's sweep runs in the simulator
/// the scan just warmed (routes resolved, resolver caches filled), which
/// is also how the real study operated: trace the forwarders right after
/// the census that found them.
pub fn run_dnsroute_sharded<'a>(
    worlds: impl Into<Worlds<'a>>,
    shards: u32,
    classifier: &ClassifierConfig,
) -> ShardedSweep {
    merge_sweep(inetgen::run_sharded(worlds, shards, |_, world| {
        dnsroute_shard_pass(world, classifier)
    }))
}
