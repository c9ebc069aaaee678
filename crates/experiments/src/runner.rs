//! Parallel regeneration of the Table 2/3 rows.
//!
//! Each configuration row is one independent common-random-numbers
//! trace: `simulate_row` builds its own network, driver, and policy set
//! from the master seed, and shares nothing mutable with its siblings.
//! The rows can therefore run on worker threads with **no effect on the
//! output** — results are joined back in configuration order, and every
//! number in them is a deterministic function of `(config, params)`.
//! The determinism regression test in
//! `tests/parallel_determinism.rs` holds this to bitwise equality.

use dynvote_availability::config::ALL_CONFIGS;
use dynvote_availability::run::{simulate_row, Params, RunResult};

/// Simulates every Table 2/3 configuration (A–H) under all six paper
/// policies, one common-random-numbers trace per configuration on its
/// own scoped worker thread, and returns the rows in configuration
/// order.
#[must_use]
pub fn simulate_all_rows(params: &Params) -> Vec<Vec<RunResult>> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = ALL_CONFIGS
            .iter()
            .map(|config| scope.spawn(move || simulate_row(config, params)))
            .collect();
        // Joining in spawn order restores configuration order no matter
        // which worker finishes first.
        handles
            .into_iter()
            .map(|h| h.join().expect("row worker panicked"))
            .collect()
    })
}
