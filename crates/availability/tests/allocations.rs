//! The simulator allocates nothing per event: a Table 2 row costs the
//! same allocations, up to a small constant, however long it runs.
//!
//! This binary counts every heap allocation and reallocation through
//! its own global allocator, so it holds exactly one test: a sibling
//! test running on another thread would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dynvote_availability::run::simulate_row;
use dynvote_availability::{Params, CONFIG_A};

/// The system allocator, counting allocation and reallocation events.
struct Counting;

static EVENTS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a statistic
// that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        EVENTS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `alloc` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        EVENTS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        EVENTS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator, and
        // the caller's guarantees for `realloc` are `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn row_allocations(params: &Params) -> u64 {
    let before = EVENTS.load(Ordering::Relaxed);
    let row = simulate_row(&CONFIG_A, params);
    let events = EVENTS.load(Ordering::Relaxed) - before;
    assert_eq!(row.len(), 6);
    events
}

/// Twice the batches is 18,000 more simulated days: at one access a
/// day, six policies see over 100,000 more events. What the longer row
/// may allocate beyond the shorter one is what grows with the number of
/// batches and outages (their logs, doubling) and the up-sets first
/// seen in the second half (the reachability memo) — a few dozen.
#[test]
fn a_row_allocates_nothing_per_event() {
    let quick = Params::quick_test();
    let doubled = Params {
        batches: 2 * quick.batches,
        ..quick.clone()
    };
    let short = row_allocations(&quick);
    let long = row_allocations(&doubled);
    assert!(
        long <= short + 200,
        "{short} allocation events at {} batches, {long} at {}",
        quick.batches,
        doubled.batches
    );
}
