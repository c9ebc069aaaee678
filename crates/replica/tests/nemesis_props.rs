//! Seeded nemesis property tests: the non-topological protocols keep
//! their invariants under full message-fault adversity; the topological
//! ones demonstrably do not.
//!
//! Every campaign is generated from a seed drawn by the proptest
//! strategy, so a failing case prints everything needed to replay it
//! (`run_nemesis` consumes a `SimRng::new(seed)` and nothing else).
//! The case budget honours the `PROPTEST_CASES` environment variable
//! (default 256), which CI pins explicitly.

use dynvote_replica::nemesis::{run_nemesis, NemesisProfile};
use dynvote_replica::{Cluster, ClusterBuilder, Protocol, Violation};
use dynvote_sim::SimRng;
use proptest::prelude::*;

fn cluster(protocol: Protocol) -> Cluster<u64> {
    ClusterBuilder::new()
        .copies([0, 1, 2, 3, 4])
        .protocol(protocol)
        .build_with_value(1)
}

/// One campaign at `seed`; returns the violations it produced.
fn campaign(protocol: Protocol, seed: u64) -> Vec<dynvote_replica::Violation> {
    let mut c = cluster(protocol);
    run_nemesis(&mut c, &mut SimRng::new(seed), &NemesisProfile::default());
    c.checker().violations().to_vec()
}

proptest! {
    /// MCV, DV, LDV and ODV never emit a stale read, duplicate version
    /// or lineage fork, no matter what the nemesis does: partial
    /// commits wedge their silent voters instead of forking history.
    #[test]
    fn prop_sound_protocols_survive_nemesis(seed in any::<u64>()) {
        for protocol in [Protocol::Mcv, Protocol::Dv, Protocol::Ldv, Protocol::Odv] {
            let violations = campaign(protocol, seed);
            prop_assert!(
                violations.is_empty(),
                "{protocol:?} violated invariants at seed {seed}: {violations:?}"
            );
        }
    }
}

/// The paper's warning about the topological variants, demonstrated:
/// under a nemesis campaign TDV and OTDV fork history — disjoint
/// participant sets commit the same operation number — because
/// co-segment claims count votes of sites whose state was never
/// observed. The seed is pinned so the failure is a regression anchor,
/// not a flake: the same campaign that the sound protocols survive
/// (seed 1 is in `prop_sound_protocols_survive_nemesis`'s universe)
/// breaks both topological rules. Seed 1 is the first seed
/// `scan_topological_violation_seeds` reports for both rules; re-pin it
/// from that scan whenever the campaign's draws or message sequence
/// move.
#[test]
fn topological_protocols_fork_lineage_under_nemesis() {
    for protocol in [Protocol::Tdv, Protocol::Otdv] {
        let violations = campaign(protocol, 1);
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, Violation::LineageFork { .. })),
            "{protocol:?} at seed 1 should fork lineage, got: {violations:?}"
        );
    }
}

/// Violation histories replay exactly from the seed — the property
/// tests' failure reports are actionable.
#[test]
fn topological_violations_replay_from_seed() {
    assert_eq!(campaign(Protocol::Tdv, 1), campaign(Protocol::Tdv, 1));
}

/// Scans for topological-violation seeds. Not part of the suite; run
/// with `--ignored --nocapture` when the pinned regression seed needs
/// refreshing.
#[test]
#[ignore]
fn scan_topological_violation_seeds() {
    for protocol in [Protocol::Tdv, Protocol::Otdv] {
        for seed in 0..5000u64 {
            let violations = campaign(protocol, seed);
            if !violations.is_empty() {
                eprintln!("{protocol:?}: seed {seed} -> {violations:?}");
                break;
            }
        }
    }
}
