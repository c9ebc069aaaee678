//! Exhaustive small-scope runs over every policy: clean, deterministic,
//! and hazard-aware.

use dynvote_check::{run, CheckConfig, Scenario};
use dynvote_replica::Protocol;

/// Every policy is violation-free at depth 5 on 3 sites — and the
/// whole run is deterministic, state counts included.
#[test]
fn depth_five_three_sites_all_policies_clean() {
    for policy in Protocol::ALL {
        let scenario = Scenario::new(policy, 3, 1).unwrap();
        let config = CheckConfig::new(scenario, 5);
        let report = run(&config);
        assert_eq!(
            report.real_violations, 0,
            "{scenario}: real violations found"
        );
        assert_eq!(
            report.known_hazards, 0,
            "{scenario}: the 3-site fork needs more than 5 events"
        );
        assert!(!report.truncated);
        assert!(report.states_explored > 100, "{scenario}: too few states");

        let again = run(&config);
        assert_eq!(report.states_explored, again.states_explored, "{scenario}");
        assert_eq!(report.dedup_hits, again.dedup_hits, "{scenario}");
        assert_eq!(report.transitions, again.transitions, "{scenario}");
    }
}

/// The optimistic protocols are message-level identical to their
/// instantaneous counterparts: identical exploration statistics.
#[test]
fn optimistic_variants_explore_identical_state_spaces() {
    let pairs = [
        (Protocol::Odv, Protocol::Ldv),
        (Protocol::Otdv, Protocol::Tdv),
    ];
    for (optimistic, instantaneous) in pairs {
        let a = run(&CheckConfig::new(
            Scenario::new(optimistic, 3, 1).unwrap(),
            5,
        ));
        let b = run(&CheckConfig::new(
            Scenario::new(instantaneous, 3, 1).unwrap(),
            5,
        ));
        assert_eq!(a.states_explored, b.states_explored);
        assert_eq!(a.transitions, b.transitions);
    }
}

/// Two segments at depth 5: the topological policies surface the
/// sequential-claim hazard (gateway loss isolates a claimed segment),
/// classified as known — and the non-topological policies stay clean.
#[test]
fn two_segments_surface_topological_hazards_only() {
    for policy in Protocol::ALL {
        let scenario = Scenario::new(policy, 4, 2).unwrap();
        let report = run(&CheckConfig::new(scenario, 5));
        assert_eq!(report.real_violations, 0, "{scenario}");
        let topological = matches!(policy, Protocol::Tdv | Protocol::Otdv);
        if topological {
            assert!(report.known_hazards > 0, "{scenario}: hazard expected");
            let finding = &report.findings[0];
            assert!(finding.known_hazard);
            assert!(!finding.shrunk.is_empty());
            assert!(finding.shrunk.len() <= finding.trace.len());
        } else {
            assert_eq!(report.known_hazards, 0, "{scenario}");
        }
    }
}

/// The explorer honors its depth bound: depth 0 explores nothing and a
/// deeper run dominates a shallower one.
#[test]
fn depth_bound_is_respected() {
    let scenario = Scenario::new(Protocol::Ldv, 3, 1).unwrap();
    let zero = run(&CheckConfig::new(scenario, 0));
    assert_eq!(zero.states_explored, 1);
    assert_eq!(zero.transitions, 0);

    let shallow = run(&CheckConfig::new(scenario, 3));
    let deep = run(&CheckConfig::new(scenario, 4));
    assert!(deep.states_explored > shallow.states_explored);
}
