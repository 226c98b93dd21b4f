//! Counting global allocator for the traced run.
//!
//! Disarmed (the default, and the whole untraced run) it costs one relaxed
//! load per allocation. Armed, it bumps two counters of the allocating
//! thread — plain thread-local cells, because atomic increments on every
//! allocation cost `census_fresh` a tenth of its speed. Workloads run on the
//! main thread, which is also the one that reads the counters; allocations
//! of the library's own K=2 worker pool are deliberately not seen.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};

/// Publishes no other data, so `Relaxed` is enough.
static ARMED: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// `(allocations, bytes requested)` of this thread while armed. Const-
    /// initialised and without destructor, so touching it from inside the
    /// allocator neither allocates nor registers anything.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// The system allocator plus allocation counters.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller guarantees `layout` has non-zero size.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // `layout`, and this allocator only ever hands out `System` blocks.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[inline]
fn count(size: usize) {
    if ARMED.load(Relaxed) {
        let _ = COUNTS.try_with(|counts| {
            let (allocs, bytes) = counts.get();
            counts.set((allocs + 1, bytes + size as u64));
        });
    }
}

/// Start or stop counting.
pub fn arm(on: bool) {
    ARMED.store(on, Relaxed);
}

/// `(allocations, bytes requested)` the calling thread made while armed.
pub fn snapshot() -> (u64, u64) {
    COUNTS.with(Cell::get)
}
