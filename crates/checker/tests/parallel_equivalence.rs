//! Parallel exploration is observationally identical to sequential
//! exploration: the layered-BFS engine merges worker output in
//! canonical order, so for every scenario in the small-scope sweep a
//! `--threads 4` run must report the *same* state counts, the same
//! finding counts, and the same shrunk traces as `--threads 1` — not
//! merely "equivalent" verdicts.
//!
//! Also pins budget behavior under concurrency: the transition budget
//! is one shared atomic counter (`BUDGET_POLL_MASK` polls), so a
//! truncated multi-threaded run still yields a well-formed partial
//! report.

use std::time::Duration;

use dynvote_check::{run, CheckConfig, Report, Scenario};
use dynvote_replica::Protocol;

/// Renders every shrunk trace as sorted text so two reports can be
/// compared without caring about finding order.
fn shrunk_signatures(report: &Report) -> Vec<String> {
    let mut sigs: Vec<String> = report
        .findings
        .iter()
        .map(|finding| {
            let events: Vec<String> = finding.shrunk.iter().map(|e| e.to_string()).collect();
            format!(
                "{}|{}|{}",
                finding.violation.invariant,
                finding.known_hazard,
                events.join(";")
            )
        })
        .collect();
    sigs.sort();
    sigs
}

fn assert_identical(base: &Report, par: &Report, label: &str) {
    assert_eq!(
        base.states_explored, par.states_explored,
        "{label}: states diverged"
    );
    assert_eq!(base.dedup_hits, par.dedup_hits, "{label}: dedup diverged");
    assert_eq!(
        base.transitions, par.transitions,
        "{label}: transitions diverged"
    );
    assert_eq!(
        base.real_violations, par.real_violations,
        "{label}: real-violation count diverged"
    );
    assert_eq!(
        base.known_hazards, par.known_hazards,
        "{label}: hazard count diverged"
    );
    assert_eq!(
        base.findings.len(),
        par.findings.len(),
        "{label}: finding count diverged"
    );
    assert_eq!(
        shrunk_signatures(base),
        shrunk_signatures(par),
        "{label}: shrunk traces diverged"
    );
}

/// The full small-scope sweep (every policy, single- and two-segment
/// topologies, hazard-surfacing depths) reports identically at 4
/// worker threads.
#[test]
fn four_threads_match_sequential_across_the_sweep() {
    let shapes = [(3usize, 1usize, 5usize), (4, 1, 5), (4, 2, 5)];
    for policy in Protocol::ALL {
        for (sites, segments, depth) in shapes {
            let scenario = Scenario::new(policy, sites, segments).unwrap();
            let base = run(&CheckConfig::new(scenario, depth));
            let par = run(&CheckConfig::new(scenario, depth).threads(4));
            assert_identical(&base, &par, &format!("{scenario} depth {depth}"));
        }
    }
}

/// Thread count is irrelevant beyond determinism: 2, 3, and 8 workers
/// also agree on a hazard-bearing scenario.
#[test]
fn any_thread_count_agrees_on_hazard_scenarios() {
    let scenario = Scenario::new(Protocol::Tdv, 4, 2).unwrap();
    let base = run(&CheckConfig::new(scenario, 5));
    assert!(base.known_hazards > 0, "scenario must surface the hazard");
    for threads in [2, 3, 8] {
        let par = run(&CheckConfig::new(scenario, 5).threads(threads));
        assert_identical(&base, &par, &format!("{scenario} threads {threads}"));
    }
}

/// A zero-budget run truncates immediately but still returns a
/// well-formed partial report — with worker threads sharing one atomic
/// budget counter, not each keeping a private one that would let
/// `threads × budget` transitions slip through.
#[test]
fn truncated_parallel_runs_are_well_formed() {
    let scenario = Scenario::new(Protocol::Ldv, 4, 1).unwrap();
    for threads in [1usize, 4] {
        let mut config = CheckConfig::new(scenario, 8).threads(threads);
        config.budget = Some(Duration::ZERO);
        let report = run(&config);
        assert!(report.truncated, "zero budget must truncate ({threads}t)");
        // The poll mask bounds how far past the deadline workers run:
        // well past it, the run must have stopped long before the
        // untruncated ~10^6-transition depth-8 space.
        assert!(
            report.transitions < 100_000,
            "budget leaked: {} transitions ({threads}t)",
            report.transitions
        );
        // Partial results stay internally consistent.
        assert!(report.states_explored >= 1, "root must be counted");
        assert!(report.real_violations == 0);
        for finding in &report.findings {
            assert!(!finding.trace.is_empty());
            assert!(finding.shrunk.len() <= finding.trace.len());
        }
    }
}

/// Symmetry on DV (a genuinely site-symmetric policy) shrinks the
/// state count without changing the verdict, at any thread count.
#[test]
fn symmetry_shrinks_dv_identically_at_any_thread_count() {
    let scenario = Scenario::new(Protocol::Dv, 4, 1).unwrap();
    let plain = run(&CheckConfig::new(scenario, 5));
    let sym_seq = run(&CheckConfig::new(scenario, 5).symmetry(true));
    let sym_par = run(&CheckConfig::new(scenario, 5).symmetry(true).threads(4));
    assert!(
        sym_seq.states_explored < plain.states_explored,
        "quotient saved nothing: {} vs {}",
        sym_seq.states_explored,
        plain.states_explored
    );
    assert_identical(&sym_seq, &sym_par, "dv symmetry seq-vs-par");
    assert_eq!(plain.real_violations, sym_seq.real_violations);
    assert_eq!(plain.known_hazards, sym_seq.known_hazards);
}
