//! Prefix-sharded world generation.
//!
//! A sharded census partitions the synthetic Internet into `K` disjoint
//! shards and builds one self-contained [`crate::Internet`] (with its own
//! [`netsim::Simulator`]) per shard. The partition key is the country:
//! every country owns a fixed, disjoint region of probe-address space
//! (see `build::Allocator`), so assigning countries to shards *is* a
//! disjoint prefix partition.
//!
//! Determinism contract: every per-country random decision is drawn from
//! a stream derived only from `(config.seed, country index)` via
//! [`netsim::shard::derive_seed`] — never from the shard count or from
//! other countries. Re-partitioning the same seed therefore replants the
//! byte-identical population in every country, which is what makes the
//! sharded census produce identical classification counts for any `K`
//! (`generate(config)` is exactly `generate_shard(config,
//! ShardSpec::solo())`).

use crate::build::{generate_shard, Internet};
use crate::config::GenConfig;
use crate::geodb::GeoDb;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Which shard of how many a generated world is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardSpec {
    /// This shard's index, in `0..count`.
    pub index: u32,
    /// Total number of shards in the partition.
    pub count: u32,
}

impl ShardSpec {
    /// The unsharded (single-simulator) world.
    pub fn solo() -> Self {
        ShardSpec { index: 0, count: 1 }
    }

    /// Shard `index` of `count`.
    pub fn new(index: u32, count: u32) -> Self {
        assert!(count >= 1, "a partition needs at least one shard");
        assert!(
            index < count,
            "shard index {index} out of range for {count} shards"
        );
        ShardSpec { index, count }
    }

    /// All shards of a `count`-way partition.
    pub fn partition(count: u32) -> Vec<ShardSpec> {
        (0..count).map(|i| ShardSpec::new(i, count)).collect()
    }
}

/// Which shard a country (by its index in [`crate::COUNTRIES`]) belongs
/// to. Round-robin keeps the large head countries spread across shards so
/// shard workloads stay balanced.
///
/// Panics on `shard_count == 0`, exactly like [`ShardSpec::new`]: a
/// zero-way partition is a caller bug, and quietly mapping every country
/// to shard 0 would mask it.
pub fn shard_of_country(global_index: usize, shard_count: u32) -> u32 {
    assert!(shard_count >= 1, "a partition needs at least one shard");
    (global_index as u32) % shard_count
}

/// Generate every shard of a `count`-way partition, sequentially. Worker
/// pools that want generation *and* scanning off-thread should instead
/// call [`crate::generate_shard`] from their own threads — or use
/// [`run_sharded`], which owns that worker pool.
pub fn generate_partition(config: &GenConfig, count: u32) -> Vec<Internet> {
    ShardSpec::partition(count)
        .into_iter()
        .map(|s| generate_shard(config, s))
        .collect()
}

/// The merged result of driving one experiment over every shard of a
/// partition — what [`run_sharded`] returns.
#[derive(Debug)]
pub struct ShardedRun<T> {
    /// One experiment output per shard, in ascending shard order
    /// regardless of worker scheduling.
    pub outputs: Vec<T>,
    /// The union lookup database, merged in shard order. Disjoint
    /// per-country regions make the merge collision-free by construction.
    pub geo: GeoDb,
}

/// Where a sharded run's worlds come from — a value the caller already
/// holds, converted by `From`: a `&GenConfig` generates a fresh world per
/// shard that dies on its worker (peak memory = one world per worker), a
/// `&mut ShardWorldCache` resets and reuses warm ones. Outputs are
/// bit-identical either way.
pub enum Worlds<'a> {
    /// Generate every shard world from this configuration and drop it
    /// when its experiment returns.
    Fresh(&'a GenConfig),
    /// Take warm worlds from this cache (generating the cold ones from
    /// its configuration) and put them back afterwards.
    Cached(&'a mut ShardWorldCache),
}

impl<'a> From<&'a GenConfig> for Worlds<'a> {
    fn from(config: &'a GenConfig) -> Self {
        Worlds::Fresh(config)
    }
}

impl<'a> From<&'a mut ShardWorldCache> for Worlds<'a> {
    fn from(cache: &'a mut ShardWorldCache) -> Self {
        Worlds::Cached(cache)
    }
}

/// The sharded experiment runner: acquire one self-contained world per
/// shard on a worker-thread pool, run `experiment` against it in place,
/// and hand back the outputs in deterministic shard order plus the merged
/// [`GeoDb`].
///
/// This is the acquire-world → run-on-worker → deterministic-merge
/// skeleton every sharded experiment shares (`analysis::run_*_sharded`
/// all run on it). Each shard's simulator runs on one worker thread —
/// worker `w` handles shards `w, w + workers, w + 2·workers, …` — so the
/// wall-clock cost of a large experiment divides by the worker count
/// while the partition invariance of [`generate_shard`] keeps results
/// independent of `K`.
///
/// The experiment closure receives the shard's [`ShardSpec`] and its
/// [`Internet`] in post-generation state (mutable: scans and sweeps drive
/// the shard's own simulator). Only the closure's output and the shard's
/// geo database leave the worker; experiment-specific merging (census
/// rows, trace concatenation) is the caller's job.
///
/// Panic handling: a panicking shard job is retried exactly once on the
/// same worker — a transient failure costs one extra world instead of the
/// whole run. A shard that fails twice is deterministic-broken: every
/// surviving worker stops picking up new shards at its next boundary (no
/// burning minutes on worlds for a run that already failed), and the
/// final panic names the failing shard.
pub fn run_sharded<'a, T, F>(
    worlds: impl Into<Worlds<'a>>,
    shards: u32,
    experiment: F,
) -> ShardedRun<T>
where
    T: Send,
    F: Fn(ShardSpec, &mut Internet) -> T + Sync,
{
    let run = drive(worlds.into(), shards, FailureMode::FailFast, experiment);
    ShardedRun {
        outputs: run.outputs.into_iter().map(|(_, output)| output).collect(),
        geo: run.geo,
    }
}

/// The outcome of a gracefully-degraded sharded run: partial results plus
/// a ledger of the shards that failed (twice — every job gets one retry).
///
/// Unlike [`ShardedRun`], outputs carry their shard index explicitly,
/// because failed shards leave gaps; [`DegradedRun::coverage`] quantifies
/// how much of the partition the surviving outputs represent.
#[derive(Debug)]
pub struct DegradedRun<T> {
    /// `(shard, output)` for every shard that completed, in ascending
    /// shard order.
    pub outputs: Vec<(u32, T)>,
    /// The union lookup database over the *surviving* shards only.
    pub geo: GeoDb,
    /// Shards whose job panicked twice, in ascending shard order, each
    /// with the retried panic's message.
    pub failures: Vec<ShardFailure>,
    /// How many shards the partition had in total.
    pub total_shards: u32,
}

impl<T> DegradedRun<T> {
    /// Fraction of the partition that completed, in `[0, 1]`.
    pub fn coverage(&self) -> f64 {
        self.outputs.len() as f64 / f64::from(self.total_shards)
    }

    /// Whether every shard completed (no degradation happened).
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }
}

/// [`run_sharded`] with graceful degradation: a shard that fails twice is
/// *recorded* rather than aborting the run — every surviving shard still
/// completes, and the caller gets partial results plus the failure ledger.
///
/// Use this for long campaigns where losing 1 shard of 64 should cost
/// 1/64th of the census, not the whole night's run. Callers must treat a
/// [`DegradedRun`] with failures as a *lower bound*: absolute counts are
/// missing the failed shards' populations (rates within surviving shards
/// are unaffected, because shards are disjoint by construction).
pub fn run_sharded_degraded<'a, T, F>(
    worlds: impl Into<Worlds<'a>>,
    shards: u32,
    experiment: F,
) -> DegradedRun<T>
where
    T: Send,
    F: Fn(ShardSpec, &mut Internet) -> T + Sync,
{
    drive(worlds.into(), shards, FailureMode::Degrade, experiment)
}

/// A shard whose job failed — panicked twice, once on the original run
/// and once on the automatic retry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardFailure {
    /// The failing shard's index.
    pub shard: u32,
    /// The panic message of the *second* (retried) failure.
    pub message: String,
}

/// What the driver does when a shard job fails even after retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FailureMode {
    /// Record the first failure, stop every worker at its next boundary,
    /// and panic after the pool drains.
    FailFast,
    /// Record every failure and keep the surviving shards running; the
    /// caller receives partial results plus the failure ledger.
    Degrade,
}

/// The one sharded driver: world acquisition, the worker pool, the
/// failure policy and the [`GeoDb`] fold, for both world sources.
fn drive<T, F>(worlds: Worlds<'_>, shards: u32, mode: FailureMode, experiment: F) -> DegradedRun<T>
where
    T: Send,
    F: Fn(ShardSpec, &mut Internet) -> T + Sync,
{
    assert!(shards >= 1, "a sharded run needs at least one shard");
    let (config, slots) = match worlds {
        Worlds::Fresh(config) => (config, None),
        Worlds::Cached(cache) => {
            // Shard worlds are partition-specific: a new shard count
            // starts from empty slots.
            if cache.slots.len() != shards as usize {
                cache.slots = (0..shards).map(|_| Mutex::new(None)).collect();
            }
            (&cache.config, Some(cache.slots.as_slice()))
        }
    };
    let job = |index: u32| {
        let spec = ShardSpec::new(index, shards);
        let slot = slots.map(|slots| &slots[index as usize]);
        // A warm world comes OUT of its slot for the experiment: no lock
        // is held while it runs, and a panicking experiment leaves the
        // slot empty (regenerate next run) instead of poisoned.
        let warm = slot.and_then(|slot| {
            slot.lock()
                .expect("slot lock never held across a job")
                .take()
        });
        let mut world = match warm {
            Some(mut warm) => {
                warm.reset();
                warm
            }
            None => generate_shard(config, spec),
        };
        let output = experiment(spec, &mut world);
        let geo = match slot {
            Some(slot) => {
                let geo = world.geo.clone();
                *slot.lock().expect("slot lock never held across a job") = Some(world);
                geo
            }
            // A fresh world dies here, on the worker — only the output
            // and the geo database survive, keeping peak memory at one
            // world per worker however many shards run.
            None => world.geo,
        };
        (output, geo)
    };
    let (per_shard, failures) = run_pool(shards, mode, job);
    if mode == FailureMode::FailFast {
        if let Some(ShardFailure { shard, message }) = failures.first() {
            panic!("shard {shard} worker panicked: {message}");
        }
    }

    let mut geo: Option<GeoDb> = None;
    let mut outputs = Vec::with_capacity(per_shard.len());
    for (shard, (output, shard_geo)) in per_shard {
        match &mut geo {
            None => geo = Some(shard_geo),
            Some(merged) => merged.merge(shard_geo),
        }
        outputs.push((shard, output));
    }
    DegradedRun {
        outputs,
        // An all-shards-failed run still reports the paper's 99.9 % geo
        // coverage semantics, not the derived (full-miss) default.
        geo: match geo {
            Some(geo) => geo,
            None => GeoDb::new(),
        },
        failures,
        total_shards: shards,
    }
}

/// The worker pool under [`drive`]: `job(index)` runs once per shard
/// (worker `w` handles shards `w, w + workers, …`), and the collected
/// `(shard, output)` pairs come back sorted by shard index, beside the
/// shards that failed twice.
fn run_pool<T, F>(shards: u32, mode: FailureMode, job: F) -> (Vec<(u32, T)>, Vec<ShardFailure>)
where
    T: Send,
    F: Fn(u32) -> T + Sync,
{
    let workers = std::thread::available_parallelism()
        .map(|n| n.get() as u32)
        .unwrap_or(1)
        .min(shards)
        .max(1);

    // Failures in the order they were *recorded*; under FailFast only the
    // first entry matters (workers stop once it exists).
    let failures: Mutex<Vec<ShardFailure>> = Mutex::new(Vec::new());
    let mut per_shard: Vec<(u32, T)> = std::thread::scope(|scope| {
        let job = &job;
        let failures = &failures;
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                // detlint::allow(ad-hoc-spawn): this IS the sanctioned
                // run_sharded worker pool; outputs are re-sorted by shard
                // index below, so scheduling order cannot escape.
                scope.spawn(move || {
                    let mut collected = Vec::new();
                    let mut index = w;
                    while index < shards {
                        if mode == FailureMode::FailFast && !failures.lock().unwrap().is_empty() {
                            break;
                        }
                        let attempt = || catch_unwind(AssertUnwindSafe(|| job(index)));
                        // Retry a panicked job once before giving up on
                        // the shard: transient blips recover, determinis-
                        // tic failures reproduce and get recorded.
                        match attempt().or_else(|_first| attempt()) {
                            Ok(output) => collected.push((index, output)),
                            Err(payload) => {
                                let message = payload
                                    .downcast_ref::<&str>()
                                    .map(|s| (*s).to_string())
                                    .or_else(|| payload.downcast_ref::<String>().cloned())
                                    .unwrap_or_else(|| "non-string panic payload".to_string());
                                failures.lock().unwrap().push(ShardFailure {
                                    shard: index,
                                    message,
                                });
                                if mode == FailureMode::FailFast {
                                    break;
                                }
                            }
                        }
                        index += workers;
                    }
                    collected
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("shard worker died outside a job"))
            .collect()
    });
    // Deterministic order regardless of worker scheduling.
    per_shard.sort_by_key(|(shard, _)| *shard);
    let mut failed = failures.into_inner().unwrap();
    if mode == FailureMode::Degrade {
        failed.sort_by_key(|f| f.shard);
    }
    (per_shard, failed)
}

/// Generate-once, scan-many: a cache of warm per-shard worlds.
///
/// Pass `&mut cache` where [`run_sharded`] takes its worlds: the first run
/// at a shard count generates each shard's [`Internet`] exactly like a
/// fresh run would; every later run at the same count takes the warm
/// world, [`Internet::reset`]s it to its pre-scan state, and drives the
/// experiment again — skipping world generation entirely. Repeated sweeps
/// (the scaling bench, parameter studies, the million-target census) pay
/// generation once instead of once per sweep, and the reset contract
/// keeps every run bit-identical to a run over freshly generated worlds
/// (property-tested in `tests/warm_world_reuse.rs`).
///
/// Changing the shard count rebuilds the cache: shard worlds are
/// partition-specific. A shard whose experiment panics leaves its slot
/// empty, so the next run regenerates that world from scratch rather
/// than reusing one in an unknown state.
pub struct ShardWorldCache {
    config: GenConfig,
    /// One slot per shard of the cached partition.
    slots: Vec<Mutex<Option<Internet>>>,
}

impl ShardWorldCache {
    /// A cache that generates worlds from `config`. No worlds are built
    /// until the first run over it.
    pub fn new(config: GenConfig) -> Self {
        ShardWorldCache {
            config,
            slots: Vec::new(),
        }
    }

    /// The generation config worlds are built from.
    pub fn config(&self) -> &GenConfig {
        &self.config
    }

    /// How many shard worlds are currently cached (warm slots).
    pub fn warm_shards(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.lock().unwrap().is_some())
            .count()
    }

    /// Drop every cached world (e.g. to bound memory between phases).
    pub fn clear(&mut self) {
        self.slots.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solo_is_shard_zero_of_one() {
        assert_eq!(ShardSpec::solo(), ShardSpec::new(0, 1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_index() {
        let _ = ShardSpec::new(3, 3);
    }

    #[test]
    fn run_sharded_outputs_in_shard_order() {
        let config = GenConfig {
            countries: crate::CountrySelection::Codes(vec!["MUS", "FSM", "AFG"]),
            scale: 5_000,
            dud_fraction: 0.0,
            ..GenConfig::default()
        };
        let run = run_sharded(&config, 3, |spec, world| (spec.index, world.targets.len()));
        assert_eq!(run.outputs.len(), 3);
        for (i, (index, _)) in run.outputs.iter().enumerate() {
            assert_eq!(*index, i as u32, "outputs sorted by shard index");
        }
        // The merged geo covers every shard's population.
        let total: usize = run.outputs.iter().map(|(_, n)| n).sum();
        assert!(total > 0);
        let solo = crate::generate(&config);
        assert_eq!(total, solo.targets.len());
        for host in &solo.truth.hosts {
            assert_eq!(run.geo.asn_of(host.ip), Some(host.asn));
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn shard_of_country_rejects_zero_shards() {
        let _ = shard_of_country(0, 0);
    }

    #[test]
    #[should_panic(expected = "shard 1 worker panicked: boom in shard 1")]
    fn worker_panic_names_the_failing_shard() {
        let config = GenConfig {
            countries: crate::CountrySelection::Codes(vec!["MUS", "FSM"]),
            scale: 5_000,
            dud_fraction: 0.0,
            ..GenConfig::default()
        };
        run_sharded(&config, 2, |spec, _world| {
            if spec.index == 1 {
                panic!("boom in shard {}", spec.index);
            }
            0u32
        });
    }

    #[test]
    fn one_transient_panic_recovers_via_retry() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let config = GenConfig {
            countries: crate::CountrySelection::Codes(vec!["MUS", "FSM"]),
            scale: 5_000,
            dud_fraction: 0.0,
            ..GenConfig::default()
        };
        let tripped = AtomicBool::new(false);
        let run = run_sharded(&config, 2, |spec, world| {
            if spec.index == 1 && !tripped.swap(true, Ordering::SeqCst) {
                panic!("transient blip in shard {}", spec.index);
            }
            world.targets.len()
        });
        assert!(tripped.load(Ordering::SeqCst), "the flaky path ran");
        assert_eq!(run.outputs.len(), 2, "retry recovered the flaky shard");
        let clean = run_sharded(&config, 2, |_, world| world.targets.len());
        assert_eq!(run.outputs, clean.outputs, "retried run matches clean run");
    }

    #[test]
    fn degraded_run_reports_partial_results_and_failures() {
        let config = GenConfig {
            countries: crate::CountrySelection::Codes(vec!["MUS", "FSM", "AFG"]),
            scale: 5_000,
            dud_fraction: 0.0,
            ..GenConfig::default()
        };
        let run = run_sharded_degraded(&config, 3, |spec, world| {
            if spec.index == 1 {
                panic!("deterministic failure in shard {}", spec.index);
            }
            world.targets.clone()
        });
        assert!(!run.is_complete());
        assert_eq!(run.total_shards, 3);
        assert_eq!(run.failures.len(), 1);
        assert_eq!(run.failures[0].shard, 1);
        assert!(run.failures[0].message.contains("deterministic failure"));
        let shards: Vec<u32> = run.outputs.iter().map(|(s, _)| *s).collect();
        assert_eq!(shards, vec![0, 2], "surviving shards, in order");
        assert!((run.coverage() - 2.0 / 3.0).abs() < 1e-9);
        // Surviving shards' outputs are bit-identical to a healthy run's.
        let healthy = run_sharded(&config, 3, |_, world| world.targets.clone());
        assert_eq!(run.outputs[0].1, healthy.outputs[0]);
        assert_eq!(run.outputs[1].1, healthy.outputs[2]);
        // The geo covers exactly the surviving populations.
        for (_, targets) in &run.outputs {
            for ip in targets {
                assert_eq!(run.geo.asn_of(*ip), healthy.geo.asn_of(*ip));
            }
        }
    }

    #[test]
    fn degraded_run_with_no_failures_matches_run_sharded() {
        let config = GenConfig {
            countries: crate::CountrySelection::Codes(vec!["MUS", "FSM"]),
            scale: 5_000,
            dud_fraction: 0.0,
            ..GenConfig::default()
        };
        let degraded = run_sharded_degraded(&config, 2, |_, world| world.targets.clone());
        assert!(degraded.is_complete());
        assert_eq!(degraded.coverage(), 1.0);
        let full = run_sharded(&config, 2, |_, world| world.targets.clone());
        let outputs: Vec<_> = degraded.outputs.into_iter().map(|(_, t)| t).collect();
        assert_eq!(outputs, full.outputs);
    }

    #[test]
    fn cached_worlds_rerun_identically_and_survive_count_changes() {
        let config = GenConfig {
            countries: crate::CountrySelection::Codes(vec!["MUS", "FSM", "AFG"]),
            scale: 5_000,
            dud_fraction: 0.0,
            ..GenConfig::default()
        };
        let mut cache = ShardWorldCache::new(config.clone());
        let experiment = |_: ShardSpec, world: &mut Internet| world.targets.clone();
        let cold = run_sharded(&mut cache, 2, experiment);
        assert_eq!(cache.warm_shards(), 2);
        let warm = run_sharded(&mut cache, 2, experiment);
        assert_eq!(cold.outputs, warm.outputs, "warm rerun matches cold");
        let fresh = run_sharded(&config, 2, experiment);
        assert_eq!(cold.outputs, fresh.outputs, "cache matches run_sharded");
        assert_eq!(warm.geo.prefix_count(), fresh.geo.prefix_count());
        assert_eq!(warm.geo.asn_count(), fresh.geo.asn_count());
        for ip in fresh.outputs.iter().flatten() {
            assert_eq!(warm.geo.asn_of(*ip), fresh.geo.asn_of(*ip));
        }
        // Count change rebuilds the partition.
        let three = run_sharded(&mut cache, 3, experiment);
        assert_eq!(cache.warm_shards(), 3);
        let total: usize = three.outputs.iter().map(|t| t.len()).sum();
        let total2: usize = cold.outputs.iter().map(|t| t.len()).sum();
        assert_eq!(total, total2, "partition change keeps the population");
    }

    #[test]
    fn cache_regenerates_a_slot_after_an_experiment_panic() {
        let config = GenConfig {
            countries: crate::CountrySelection::Codes(vec!["MUS", "FSM"]),
            scale: 5_000,
            dud_fraction: 0.0,
            ..GenConfig::default()
        };
        let mut cache = ShardWorldCache::new(config);
        let baseline = run_sharded(&mut cache, 2, |_, world| world.targets.clone());
        let boom = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_sharded(&mut cache, 2, |spec, _world: &mut Internet| {
                if spec.index == 1 {
                    panic!("mid-experiment failure");
                }
                0u32
            })
        }));
        assert!(boom.is_err());
        assert!(cache.warm_shards() < 2, "failed shard's slot is empty");
        let after = run_sharded(&mut cache, 2, |_, world| world.targets.clone());
        assert_eq!(baseline.outputs, after.outputs, "regenerated identically");
    }

    #[test]
    fn degraded_run_over_a_cache_empties_the_failed_slot_only() {
        let config = GenConfig {
            countries: crate::CountrySelection::Codes(vec!["MUS", "FSM", "AFG"]),
            scale: 5_000,
            dud_fraction: 0.0,
            ..GenConfig::default()
        };
        let healthy = run_sharded(&config, 3, |_, world| world.targets.clone());
        let mut cache = ShardWorldCache::new(config);
        let run = run_sharded_degraded(&mut cache, 3, |spec, world| {
            if spec.index == 1 {
                panic!("deterministic failure in shard {}", spec.index);
            }
            world.targets.clone()
        });
        assert_eq!(run.failures.len(), 1, "failed twice, recorded once");
        assert_eq!(run.failures[0].shard, 1);
        assert_eq!(cache.warm_shards(), 2, "only the failed slot is empty");
        let shards: Vec<u32> = run.outputs.iter().map(|(s, _)| *s).collect();
        assert_eq!(shards, vec![0, 2]);
        assert_eq!(run.outputs[0].1, healthy.outputs[0]);
        assert_eq!(run.outputs[1].1, healthy.outputs[2]);
        let lost = healthy.outputs[1]
            .iter()
            .find(|ip| healthy.geo.asn_of(**ip).is_some())
            .expect("shard 1 has mapped targets");
        assert_eq!(run.geo.asn_of(*lost), None, "union covers survivors only");
        // The next run regenerates the failed shard identically, and its
        // union covers the whole partition again.
        let after = run_sharded(&mut cache, 3, |_, world| world.targets.clone());
        assert_eq!(cache.warm_shards(), 3);
        assert_eq!(after.outputs, healthy.outputs);
        for ip in healthy.outputs.iter().flatten() {
            assert_eq!(after.geo.asn_of(*ip), healthy.geo.asn_of(*ip));
        }
    }

    #[test]
    fn every_country_lands_in_exactly_one_shard() {
        for k in [1u32, 2, 3, 8] {
            for idx in 0..crate::COUNTRIES.len() {
                let s = shard_of_country(idx, k);
                assert!(s < k);
            }
            // Round-robin: all shards non-empty once indexes >= k exist.
            let hit: std::collections::HashSet<u32> = (0..crate::COUNTRIES.len())
                .map(|i| shard_of_country(i, k))
                .collect();
            assert_eq!(hit.len(), k as usize);
        }
    }
}
