//! Prefix-sharded world generation.
//!
//! A sharded census partitions the synthetic Internet into `K` disjoint
//! shards and builds one self-contained [`crate::Internet`] (with its own
//! [`netsim::Simulator`]) per shard. The partition key is the country:
//! every country owns a fixed, disjoint region of probe-address space
//! (see `build::Blocks`), its planted hosts and its dud targets alike, so
//! assigning countries to shards *is* a disjoint prefix partition.
//!
//! Determinism contract: every per-country random decision is drawn from
//! a stream derived only from `(config.seed, country index)` via
//! [`netsim::shard::derive_seed`] — never from the shard count or from
//! other countries. Re-partitioning the same seed therefore replants the
//! byte-identical population and the same duds in every country, which is
//! what makes the sharded census produce identical rows, by target, for
//! any `K` (`generate(config)` is exactly `generate_shard(config,
//! ShardSpec::solo())`).

use crate::build::{generate_shard, Internet};
use crate::config::GenConfig;
use crate::geodb::GeoDb;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, OnceLock};

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
/// Panic handling: a shard whose experiment panics fails the whole run —
/// a partial census is a wrong census. The job is never retried: in a
/// seeded world a panic reproduces, so a retry could only double the time
/// to failure or hide a nondeterminism bug. Every surviving worker stops
/// picking up new shards at its next boundary, and once the pool joins the
/// run panics with `shard {i} worker panicked: {message}`.
pub fn run_sharded<'a, T, F>(
    worlds: impl Into<Worlds<'a>>,
    shards: u32,
    experiment: F,
) -> ShardedRun<T>
where
    T: Send,
    F: Fn(ShardSpec, &mut Internet) -> T + Sync,
{
    assert!(shards >= 1, "a sharded run needs at least one shard");
    let (config, slots) = match worlds.into() {
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

    let workers = std::thread::available_parallelism()
        .map(|n| n.get() as u32)
        .unwrap_or(1)
        .min(shards);
    // The first failing shard and its panic message; workers stop once
    // it is set.
    let failure: OnceLock<(u32, String)> = OnceLock::new();
    let mut per_shard: Vec<(u32, (T, GeoDb))> = std::thread::scope(|scope| {
        let job = &job;
        let failure = &failure;
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                // detlint::allow(ad-hoc-spawn): this IS the sanctioned
                // run_sharded worker pool; outputs are re-sorted by shard
                // index below, so scheduling order cannot escape.
                scope.spawn(move || {
                    let mut collected = Vec::new();
                    let mut index = w;
                    while index < shards {
                        if failure.get().is_some() {
                            break;
                        }
                        match catch_unwind(AssertUnwindSafe(|| job(index))) {
                            Ok(output) => collected.push((index, output)),
                            Err(payload) => {
                                let message = payload
                                    .downcast_ref::<&str>()
                                    .map(|s| (*s).to_string())
                                    .or_else(|| payload.downcast_ref::<String>().cloned())
                                    .unwrap_or_else(|| "non-string panic payload".to_string());
                                // A later failure on another worker loses
                                // the race and is dropped.
                                let _ = failure.set((index, message));
                                break;
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
    if let Some((shard, message)) = failure.into_inner() {
        panic!("shard {shard} worker panicked: {message}");
    }

    // Deterministic order regardless of worker scheduling.
    per_shard.sort_by_key(|(shard, _)| *shard);
    let mut outputs = Vec::with_capacity(per_shard.len());
    let mut geo: Option<GeoDb> = None;
    for (_, (output, shard_geo)) in per_shard {
        match &mut geo {
            None => geo = Some(shard_geo),
            Some(merged) => merged.merge(shard_geo),
        }
        outputs.push(output);
    }
    ShardedRun {
        outputs,
        geo: geo.expect("a run that did not fail has at least one shard"),
    }
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
/// (held by `tests/determinism_referee.rs` under every fault plan).
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
    #[cfg(test)]
    fn warm_shards(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.lock().unwrap().is_some())
            .count()
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
    fn a_panicking_shard_runs_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let config = GenConfig {
            countries: crate::CountrySelection::Codes(vec!["MUS", "FSM"]),
            scale: 5_000,
            dud_fraction: 0.0,
            ..GenConfig::default()
        };
        let calls = AtomicUsize::new(0);
        let boom = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_sharded(&config, 2, |spec, _world| {
                if spec.index == 1 {
                    calls.fetch_add(1, Ordering::SeqCst);
                    panic!("deterministic failure in shard {}", spec.index);
                }
                0u32
            })
        }));
        assert!(boom.is_err(), "a failing shard fails the run");
        assert_eq!(calls.load(Ordering::SeqCst), 1, "no retry");
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
