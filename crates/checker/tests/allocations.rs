//! Allocation budget of a checker transition: a child the explorer
//! throws away (covered, tied or terminal — most of them) is stepped in
//! a spare world whose buffers are reused, so what is allocated is
//! paid for by the states the run keeps.
//!
//! This binary counts every heap allocation and reallocation through
//! its own global allocator, so it holds exactly one test: a sibling
//! test running on another thread would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dynvote_check::{run, CheckConfig, Scenario};
use dynvote_replica::Protocol;

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

/// Figure 8 under LDV at depth 4, exhaustive and on this thread: at
/// most three allocation events per transition. Stepping every child in
/// a fresh clone, with a 64-slot state table per poll, cost 7.3.
#[test]
fn a_transition_allocates_for_the_states_it_keeps() {
    let mut config = CheckConfig::new(Scenario::new(Protocol::Ldv, 8, 3).unwrap(), 4);
    config.shrink = false;
    config.max_findings = 1;
    let before = EVENTS.load(Ordering::Relaxed);
    let report = run(&config);
    let events = EVENTS.load(Ordering::Relaxed) - before;
    assert!(report.clean() && !report.truncated);
    let per_transition = events as f64 / report.transitions as f64;
    assert!(
        per_transition <= 3.0,
        "{events} allocation events over {} transitions ({} states): \
         {per_transition:.2} per transition",
        report.transitions,
        report.states_explored
    );
}
