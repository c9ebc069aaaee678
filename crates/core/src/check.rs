//! Table-level protocol invariants for model checking.
//!
//! The paper's safety argument (Section 3) rests on two claims: at any
//! instant *at most one* group of communicating sites can win the
//! majority-partition decision, and the consistency-control counters
//! only ever move forward. This module states those claims as two pure
//! checks — [`at_most_one_majority`] over a [`ProtocolSnapshot`] and
//! [`monotone_counters`] over one transition — which the exhaustive
//! explorer (crate `dynvote-check`) evaluates at every reachable state.
//!
//! The invariants here are *table-level*: they see the per-site
//! `(op, version, partition)` state and the communication groups, and
//! they re-run the real Algorithm 1 ([`crate::decision::decide`] /
//! [`crate::ops::plan_with_witnesses`]) — not a re-model of it.
//! History-dependent oracles (operation numbers minted at most once, no
//! read older than the last committed write, cross-policy differentials)
//! need per-path ground truth and live with the explorer.

use dynvote_topology::Network;
use dynvote_types::SiteSet;

use crate::decision::Rule;
use crate::ops::{plan_with_witnesses, OpKind};
use crate::state::StateTable;

/// One observed invariant violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Short stable name of the invariant that failed, used in reports
    /// and trace files ("at-most-one-majority", "monotone-counters", …).
    pub invariant: &'static str,
    /// Human-readable description of what went wrong.
    pub detail: String,
}

impl core::fmt::Display for Violation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}: {}", self.invariant, self.detail)
    }
}

/// Everything a table-level invariant may inspect about one state.
///
/// Borrowed, not owned: the explorer assembles it per state from the
/// live cluster without copying tables.
pub struct ProtocolSnapshot<'a> {
    /// Sites holding full data copies.
    pub copies: SiteSet,
    /// Sites holding witness (state-only) replicas.
    pub witnesses: SiteSet,
    /// Per-site consistency-control state.
    pub states: &'a StateTable,
    /// The maximal communication groups of *up* sites, pairwise
    /// disjoint. Down sites appear in no group.
    pub groups: &'a [SiteSet],
    /// The decision rule of every protocol, MCV's static majority
    /// included.
    pub rule: &'a Rule,
    /// The topology (required by topological rules).
    pub network: Option<&'a Network>,
}

impl ProtocolSnapshot<'_> {
    /// Would Algorithm 1 grant a READ coordinated from inside `group`?
    ///
    /// Runs the real planner — the same decision the message-level
    /// cluster takes, minus the messages.
    #[must_use]
    pub fn granted(&self, group: SiteSet) -> bool {
        plan_with_witnesses(
            OpKind::Read,
            group,
            self.copies,
            self.witnesses,
            self.states,
            self.rule,
            self.network,
        )
        .is_ok()
    }
}

/// *At most one* communication group may win the majority-partition
/// decision in any state (the paper's mutual-exclusion claim).
///
/// Under the topological rules this can genuinely fail after a
/// sequential claim (DESIGN.md, "the sequential-claim hazard") — the
/// explorer reports those as known hazards rather than errors, but the
/// invariant itself stays strict: it *detects*, classification is the
/// caller's policy.
///
/// # Errors
///
/// Returns the "at-most-one-majority" [`Violation`] naming two groups
/// that both win.
pub fn at_most_one_majority(snapshot: &ProtocolSnapshot<'_>) -> Result<(), Violation> {
    let mut winner: Option<SiteSet> = None;
    for &group in snapshot.groups {
        if group.is_empty() || !snapshot.granted(group) {
            continue;
        }
        if let Some(first) = winner {
            return Err(Violation {
                invariant: "at-most-one-majority",
                detail: format!("rival majority partitions: {first} and {group}"),
            });
        }
        winner = Some(group);
    }
    Ok(())
}

/// Per-site operation and version numbers never decrease from `prev` to
/// `next` at any of `sites`.
///
/// Commits only ever install `max + 1` counters, so any decrease means
/// a site adopted state from a forked or stale lineage.
///
/// # Errors
///
/// Returns the "monotone-counters" [`Violation`] for the first site
/// whose counters went back.
pub fn monotone_counters(
    prev: &StateTable,
    next: &StateTable,
    sites: SiteSet,
) -> Result<(), Violation> {
    for site in sites.iter() {
        let before = prev.get(site);
        let after = next.get(site);
        if after.op < before.op || after.version < before.version {
            return Err(Violation {
                invariant: "monotone-counters",
                detail: format!(
                    "{site} went from (o={}, v={}) to (o={}, v={})",
                    before.op, before.version, after.op, after.version
                ),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use dynvote_types::SiteId;

    use super::*;
    use crate::lexicon::Lexicon;
    use crate::state::ReplicaState;

    fn snapshot_with<'a>(
        states: &'a StateTable,
        groups: &'a [SiteSet],
        rule: &'a Rule,
    ) -> ProtocolSnapshot<'a> {
        ProtocolSnapshot {
            copies: SiteSet::first_n(4),
            witnesses: SiteSet::EMPTY,
            states,
            groups,
            rule,
            network: None,
        }
    }

    #[test]
    fn healthy_partition_passes() {
        let states = StateTable::fresh(SiteSet::first_n(4));
        let rule = Rule::lexicographic();
        let groups = [SiteSet::from_indices([0, 1, 2]), SiteSet::from_indices([3])];
        let snap = snapshot_with(&states, &groups, &rule);
        assert!(at_most_one_majority(&snap).is_ok());
    }

    #[test]
    fn rival_majorities_detected() {
        // Two groups that each believe they are the full partition:
        // forge forked partition sets, the fingerprint of a sequential
        // claim gone wrong.
        let copies = SiteSet::first_n(4);
        let mut states = StateTable::fresh(copies);
        let left = SiteSet::from_indices([0, 1]);
        let right = SiteSet::from_indices([2, 3]);
        for site in left.iter() {
            states.set(
                site,
                ReplicaState {
                    op: 2,
                    version: 1,
                    partition: left,
                },
            );
        }
        for site in right.iter() {
            states.set(
                site,
                ReplicaState {
                    op: 2,
                    version: 1,
                    partition: right,
                },
            );
        }
        let rule = Rule::lexicographic();
        let groups = [left, right];
        let snap = snapshot_with(&states, &groups, &rule);
        let err = at_most_one_majority(&snap).unwrap_err();
        assert_eq!(err.invariant, "at-most-one-majority");
    }

    #[test]
    fn mcv_half_with_top_copy_is_single_winner() {
        let states = StateTable::fresh(SiteSet::first_n(4));
        let groups = [SiteSet::from_indices([0, 1]), SiteSet::from_indices([2, 3])];
        let rule = Rule::static_majority(Some(Lexicon::default()));
        let snap = snapshot_with(&states, &groups, &rule);
        // {S0,S1} wins the calibrated tie, {S2,S3} loses it: one winner.
        assert!(snap.granted(SiteSet::from_indices([0, 1])));
        assert!(!snap.granted(SiteSet::from_indices([2, 3])));
        assert!(at_most_one_majority(&snap).is_ok());
    }

    #[test]
    fn counter_regression_detected() {
        let copies = SiteSet::first_n(2);
        let prev = StateTable::fresh(copies);
        let mut next = prev.clone();
        next.set(
            SiteId::new(1),
            ReplicaState {
                op: 0,
                version: 1,
                partition: copies,
            },
        );
        let err = monotone_counters(&prev, &next, copies).unwrap_err();
        assert_eq!(err.invariant, "monotone-counters");
        assert!(monotone_counters(&prev, &prev, copies).is_ok());
    }
}
