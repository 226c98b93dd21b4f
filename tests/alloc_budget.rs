//! Whole-probe allocation budget: what one probed target may cost from
//! world generation to the rendered CSV.
//!
//! `dnswire`'s and `netsim`'s `alloc_budget.rs` pin single calls; this one
//! pins their sum over the unit a user runs — one fresh `scale` 1000
//! census (generate → scan → correlate → classify → render every census
//! artifact → drop the world), the repo benchmark's `census_fresh` rep and
//! its `mem.allocs_per_op`. That figure was 104 with the label-vector
//! codec, 59 with per-host-pair paths, 46 while forwarders re-encoded
//! every relayed answer, resolvers rebuilt a message per coalesced waiter
//! and the CSV went through a `String` per cell, 23.6 while forwarders,
//! resolvers and the classifier decoded every census query and answer to
//! read two or three fields, a patched response was copied once more to be
//! sent, the memo kept its own copy of the query and every route miss made
//! three BFS buffers, and 13.9 while every queued packet was boxed (3.65
//! per target) and every fresh world grew the wheel's per-slot vectors
//! (0.3); it is ≈9.9 now. The ceiling fails tier-1 when a per-probe
//! allocation creeps back into a host, the scanner, the event queue or a
//! renderer, instead of only drifting a benchmark.
//!
//! The library crates forbid `unsafe`; this test crate carries the one
//! `unsafe impl` a counting allocator needs. The count is per thread, so
//! the harness's other threads cannot disturb it.

use analysis::{report, Census};
use inetgen::{CountrySelection, GenConfig};
use scanner::{ClassifierConfig, ScanConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a thread-local
// counter bump, which neither allocates nor unwinds (`try_with` turns the
// thread-teardown case into a skipped count).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`, plus the caller's `new_size` guarantee.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) one probed target may cost.
const CEILING_PER_TARGET: f64 = 12.0;

#[test]
fn fresh_census_stays_within_the_per_target_allocation_ceiling() {
    let config = GenConfig {
        seed: 7,
        scale: 1_000,
        dud_fraction: 0.1,
        countries: CountrySelection::All,
        ..GenConfig::default()
    };
    let before = ALLOCATIONS.with(Cell::get);
    let mut world = inetgen::generate(&config);
    let scan = ScanConfig::new(world.targets.clone());
    let (probes, responses, _) =
        scanner::run_scan_raw(&mut world.sim, world.fixtures.scanner, scan);
    let outcome = scanner::correlate_owned(probes, responses, ScanConfig::DEFAULT_TIMEOUT);
    let census = Census::from_transactions(
        &outcome.transactions,
        &world.geo,
        &ClassifierConfig::default(),
    );
    drop(outcome);
    let rendered = [
        report::table1(&census).render(),
        report::figure3(&census).0.render(),
        report::figure4(&census, 50).render(),
        report::figure5(&census, 12).render(),
        report::table4(&census, &world.geo, 10).render(),
        report::figure8(&census).0.render(),
        census.to_csv(),
    ];
    drop(world);
    let spent = ALLOCATIONS.with(Cell::get) - before;

    let targets = census.rows.len();
    assert!(targets > 2_000, "a scale-1000 census: {targets} targets");
    assert!(rendered.iter().all(|text| !text.is_empty()));
    let per_target = spent as f64 / targets as f64;
    assert!(
        per_target <= CEILING_PER_TARGET,
        "{spent} allocations for {targets} targets: {per_target:.1} per target, \
         ceiling {CEILING_PER_TARGET}"
    );
}
