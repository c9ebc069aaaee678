//! Regression: parallel row regeneration must be *bitwise* identical to
//! running the rows sequentially.
//!
//! Every Table 2/3 row is an independent common-random-numbers trace,
//! so thread scheduling can change nothing — not even the last ULP of a
//! confidence interval. This test pins that claim at the paper seed by
//! comparing every field of every `RunResult`, floats via `to_bits()`.

use dynvote_availability::config::ALL_CONFIGS;
use dynvote_availability::run::{simulate_row, Params, RunResult};
use dynvote_experiments::simulate_all_rows;
use dynvote_sim::Duration;

/// Small but non-trivial workload at the pinned paper seed: long enough
/// for outages (non-zero Table 3 cells) on every configuration.
fn pinned_params() -> Params {
    Params {
        seed: Params::paper().seed,
        access_rate: 1.0,
        warmup: Duration::days(90.0),
        batch_len: Duration::days(2_000.0),
        batches: 4,
    }
}

fn assert_bitwise_eq(a: &RunResult, b: &RunResult) {
    let ctx = format!("{} on {}", a.policy, a.config);
    assert_eq!(a.policy, b.policy, "policy ({ctx})");
    assert_eq!(a.config, b.config, "config ({ctx})");
    for (name, x, y) in [
        ("unavailability", a.unavailability, b.unavailability),
        ("ci_half", a.ci_half, b.ci_half),
        ("mean_outage_days", a.mean_outage_days, b.mean_outage_days),
        ("p50_outage_days", a.p50_outage_days, b.p50_outage_days),
        ("p90_outage_days", a.p90_outage_days, b.p90_outage_days),
        ("max_outage_days", a.max_outage_days, b.max_outage_days),
        ("measured_days", a.measured_days, b.measured_days),
    ] {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{name} differs ({ctx}): {x:?} vs {y:?}"
        );
    }
    assert_eq!(a.outage_count, b.outage_count, "outage_count ({ctx})");
    assert_eq!(a.hazard_events, b.hazard_events, "hazard_events ({ctx})");
}

#[test]
fn parallel_rows_match_sequential_rows_bitwise() {
    let params = pinned_params();
    let parallel = simulate_all_rows(&params);
    let sequential: Vec<Vec<RunResult>> = ALL_CONFIGS
        .iter()
        .map(|config| simulate_row(config, &params))
        .collect();

    assert_eq!(parallel.len(), sequential.len(), "row count");
    let mut outages = 0u64;
    for (p_row, s_row) in parallel.iter().zip(&sequential) {
        assert_eq!(p_row.len(), s_row.len(), "cells per row");
        for (p, s) in p_row.iter().zip(s_row) {
            assert_bitwise_eq(p, s);
            outages += p.outage_count;
        }
    }
    // Guard against the test silently degenerating into comparing
    // all-zero statistics.
    assert!(outages > 0, "workload too small to exercise outage stats");
}

#[test]
fn parallel_rows_are_reproducible_across_runs() {
    let params = pinned_params();
    let first = simulate_all_rows(&params);
    let second = simulate_all_rows(&params);
    for (f_row, s_row) in first.iter().zip(&second) {
        for (f, s) in f_row.iter().zip(s_row) {
            assert_bitwise_eq(f, s);
        }
    }
}
