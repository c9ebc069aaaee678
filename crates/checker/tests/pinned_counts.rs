//! Pinned counts at four sites: the two-segment sweep of every policy
//! with symmetry off and on, and the four differential relations on one
//! segment (EXPERIMENTS.md, "State counts, symmetry off → on" and the
//! `--diff` runs); plus MCV's row of the Figure 8 depth-5 sweep.
//!
//! The engine is deterministic for any thread count, so a moved count
//! is a behavioural change: two states merged that used to be told
//! apart, or the other way round. These numbers are the reference the
//! fingerprint is held to whenever a state field or the hash changes.
//! Both together take a few seconds in a debug build, so they run with
//! the rest of `cargo test`.

use dynvote_check::{run, run_differential, CheckConfig, DiffConfig, Relation, Scenario};
use dynvote_replica::Protocol;

#[test]
fn two_segment_sweep_symmetry_off_and_on() {
    // In Protocol::ALL order: MCV, DV, LDV, ODV, TDV, OTDV.
    let off = [932, 5_419, 6_978, 6_978, 10_198, 10_198];
    let on = [596, 3_204, 6_978, 6_978, 10_198, 10_198];
    for (index, policy) in Protocol::ALL.into_iter().enumerate() {
        let hazards = if matches!(policy, Protocol::Tdv | Protocol::Otdv) {
            340
        } else {
            0
        };
        for (symmetry, states) in [(false, off[index]), (true, on[index])] {
            let mut config =
                CheckConfig::new(Scenario::new(policy, 4, 2).unwrap(), 6).symmetry(symmetry);
            config.shrink = false;
            let report = run(&config);
            let label = format!("{policy:?}, symmetry {symmetry}");
            assert_eq!(report.states_explored, states, "{label}");
            assert_eq!(report.real_violations, 0, "{label}");
            assert_eq!(report.known_hazards, hazards, "{label}");
            assert!(!report.truncated, "{label}");
        }
    }
}

/// MCV's row of the Figure 8 depth-5 sweep (8 sites, 3 segments,
/// symmetry on), the count `BENCH_check.json` and `check_fig8` read.
#[test]
fn figure8_depth_five_mcv_row() {
    let mut config =
        CheckConfig::new(Scenario::new(Protocol::Mcv, 8, 3).unwrap(), 5).symmetry(true);
    config.shrink = false;
    let report = run(&config);
    assert_eq!(report.states_explored, 5_908);
    assert_eq!(report.transitions, 45_747);
    assert_eq!(report.real_violations, 0);
    assert_eq!(report.known_hazards, 0);
    assert!(!report.truncated);
}

#[test]
fn differential_relations() {
    use Protocol::{Dv, Ldv, Mcv, Odv, Otdv, Tdv};
    use Relation::{Equivalent, GrantImplies};
    for (primary, reference, relation, depth, states, mismatches) in [
        (Dv, Ldv, GrantImplies, 6, 6_841, 0),
        (Odv, Ldv, Equivalent, 6, 6_631, 0),
        (Otdv, Tdv, Equivalent, 6, 8_750, 0),
        (Mcv, Ldv, GrantImplies, 5, 1_971, 78),
    ] {
        let scenario = Scenario::new(primary, 4, 1).unwrap();
        let mut config = DiffConfig::new(scenario, reference, relation, depth);
        config.max_findings = 0;
        let report = run_differential(&config);
        let label = format!("{primary:?} vs {reference:?}");
        assert_eq!(report.states_explored, states, "{label}");
        assert_eq!(report.mismatches, mismatches, "{label}");
        assert!(!report.truncated, "{label}");
    }
}
