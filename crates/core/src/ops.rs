//! The READ / WRITE / RECOVER procedures (Figures 1–3 and 5–7).
//!
//! Each procedure is implemented as a *planner*: given the states
//! gathered by `START` (a group of mutually communicating sites and
//! their `(o, v, P)` triples), it either returns a [`Plan`] — exactly
//! which sites participate, what state they commit, and where data must
//! be copied from — or the [`AccessError`] describing the `ABORT`.
//! Executing the plan (actually moving bytes, actually sending `COMMIT`
//! messages) is the caller's job; the `dynvote-replica` crate does it at
//! message level, and the availability simulator's
//! [`DynamicPolicy`](crate::policy::DynamicPolicy) plans a READ in every
//! group at each state exchange and applies it to its [`StateTable`]
//! with [`Plan::apply`].
//!
//! Keeping the planners pure makes the protocol logic trivially testable
//! and lets both executors share one implementation, so the simulation
//! results are produced by the *same code* a real deployment would run.

use dynvote_topology::Network;
use dynvote_types::{AccessError, AccessKind, SiteId, SiteSet};

use crate::decision::{decide, Decision, Refusal, Rule};
use crate::state::StateTable;

/// The operation being planned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// READ (Figure 1 / Figure 5): bumps the operation number only.
    Read,
    /// WRITE (Figure 2 / Figure 6): bumps operation and version numbers.
    Write,
    /// RECOVER (Figure 3 / Figure 7): reintegrates a recovering site,
    /// copying the data if its version is stale.
    Recover(SiteId),
}

impl OpKind {
    /// The [`AccessKind`] used in error reporting.
    #[must_use]
    pub fn access_kind(self) -> AccessKind {
        match self {
            OpKind::Read => AccessKind::Read,
            OpKind::Write => AccessKind::Write,
            OpKind::Recover(_) => AccessKind::Recover,
        }
    }
}

/// A granted operation: everything the executor needs to `COMMIT`.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The operation this plan executes.
    pub kind: OpKind,
    /// Sites receiving the commit — the paper's `S` (plus the recovering
    /// site for RECOVER). These sites adopt the new `(o, v, P)`. Under
    /// [`Rule::static_majority`], a write's every reachable copy and
    /// otherwise nobody.
    pub participants: SiteSet,
    /// New operation number (`o_m + 1`; `o_m` under a static majority).
    pub new_op: u64,
    /// New version number (`v_m`, or `v_m + 1` for a write).
    pub new_version: u64,
    /// New partition set (equal to [`Plan::participants`]; all copies
    /// under a static majority).
    pub new_partition: SiteSet,
    /// The lowest reachable copy holding the current data — where a
    /// read is served from, and the source of the copy during a stale
    /// recovery.
    pub data_source: SiteId,
    /// `true` when the recovering site must copy the file before the
    /// commit (RECOVER with `v_l < v_m`).
    pub copy_needed: bool,
    /// The decision that granted the plan, for observability.
    pub decision: Decision,
}

impl Plan {
    /// Applies the commit to a state table (the simulator's executor).
    pub fn apply(&self, states: &mut StateTable) {
        states.commit(
            self.participants,
            self.new_op,
            self.new_version,
            self.new_partition,
        );
    }
}

fn refusal_to_error(kind: AccessKind, decision: &Decision, refusal: Refusal) -> AccessError {
    match refusal {
        Refusal::NoCopyReachable | Refusal::NoMajority => AccessError::NoQuorum {
            kind,
            reachable: decision.reachable,
            counted: decision.counted.len(),
            against: decision.prev_partition,
        },
        Refusal::TieLost { needed } => match needed {
            Some(needed) => AccessError::TieLost {
                kind,
                against: decision.prev_partition,
                needed,
            },
            None => AccessError::NoQuorum {
                kind,
                reachable: decision.reachable,
                counted: decision.counted.len(),
                against: decision.prev_partition,
            },
        },
    }
}

/// Plans one operation for the group `group` (the requester's `R`).
///
/// * `copies` — all sites holding physical copies of the file,
/// * `states` — the `(o, v, P)` triples gathered by `START`,
/// * `rule` — which protocol variant decides the majority test,
/// * `network` — required by topological rules.
///
/// # Errors
///
/// Returns the `ABORT` reason when the group is not the majority
/// partition, or — for RECOVER — when the recovering site is not in the
/// group.
///
/// # Examples
///
/// ```
/// use dynvote_core::ops::{plan, OpKind};
/// use dynvote_core::decision::Rule;
/// use dynvote_core::state::StateTable;
/// use dynvote_types::SiteSet;
///
/// let copies = SiteSet::first_n(3);
/// let mut states = StateTable::fresh(copies);
///
/// // S2 is down: {S0, S1} write.
/// let group = SiteSet::from_indices([0, 1]);
/// let p = plan(OpKind::Write, group, copies, &states, &Rule::lexicographic(), None).unwrap();
/// assert_eq!(p.new_version, 2);
/// assert_eq!(p.new_partition, group);
/// p.apply(&mut states);
/// ```
pub fn plan(
    kind: OpKind,
    group: SiteSet,
    copies: SiteSet,
    states: &StateTable,
    rule: &Rule,
    network: Option<&Network>,
) -> Result<Plan, AccessError> {
    plan_with_witnesses(kind, group, copies, SiteSet::EMPTY, states, rule, network)
}

/// Plans one operation where some participants are **witnesses** —
/// sites that vote and store `(o, v, P)` but hold no data (Pâris 1986,
/// the paper's §5 "witness copies" extension).
///
/// Witnesses participate in the decision and in commits exactly like
/// full copies; the additional constraint is that a granted operation
/// must find a reachable **full** copy holding the maximal version,
/// because only full copies can serve reads or seed recoveries. A
/// recovering witness never needs a data transfer.
///
/// `plan` is the special case with no witnesses.
///
/// # Errors
///
/// All of [`plan`]'s errors, plus [`AccessError::NoCurrentCopy`] when
/// the quorum exists but the latest version survives only on witnesses
/// (and dead full copies).
pub fn plan_with_witnesses(
    kind: OpKind,
    group: SiteSet,
    full: SiteSet,
    witnesses: SiteSet,
    states: &StateTable,
    rule: &Rule,
    network: Option<&Network>,
) -> Result<Plan, AccessError> {
    debug_assert!(
        full.is_disjoint(witnesses),
        "a site cannot be both a copy and a witness"
    );
    if let OpKind::Recover(l) = kind {
        if !group.contains(l) {
            return Err(AccessError::OriginUnavailable { origin: l });
        }
    }
    let participants_all = full | witnesses;
    let decision = decide(group, participants_all, states, rule, network);
    if let Err(refusal) = decision.granted() {
        return Err(refusal_to_error(kind.access_kind(), &decision, refusal));
    }

    // "choose any m ∈ Q" — but the data must come from a *full* copy
    // holding the maximal version; witnesses store only state.
    let Some(data_source) = (decision.current_set & full).min() else {
        return Err(AccessError::NoCurrentCopy {
            kind: kind.access_kind(),
            reachable: decision.reachable,
        });
    };

    // A static majority moves no operation number and no partition set:
    // a read or a recovery commits nothing, and a write commits
    // ⟨o_m, v_m + 1, all copies⟩ to every copy that answered.
    let participants = match kind {
        OpKind::Write if rule.static_majority => decision.reachable,
        _ if rule.static_majority => SiteSet::EMPTY,
        OpKind::Read | OpKind::Write => decision.current_set,
        OpKind::Recover(l) => decision.current_set.with(l),
    };
    let copy_needed = matches!(kind, OpKind::Recover(l)
        if participants.contains(l) && full.contains(l) && states.get(l).version < decision.max_version);
    Ok(Plan {
        kind,
        participants,
        new_op: decision.max_op + u64::from(!rule.static_majority),
        new_version: decision.max_version + u64::from(kind == OpKind::Write),
        new_partition: if rule.static_majority {
            decision.prev_partition
        } else {
            participants
        },
        data_source,
        copy_needed,
        decision,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(indices: &[usize]) -> SiteSet {
        SiteSet::from_indices(indices.iter().copied())
    }

    #[test]
    fn read_bumps_op_only() {
        let copies = s(&[0, 1, 2]);
        let mut states = StateTable::fresh(copies);
        let p = plan(
            OpKind::Read,
            copies,
            copies,
            &states,
            &Rule::lexicographic(),
            None,
        )
        .unwrap();
        assert_eq!(p.new_op, 2);
        assert_eq!(p.new_version, 1);
        assert_eq!(p.participants, copies);
        assert!(!p.copy_needed);
        p.apply(&mut states);
        assert_eq!(states.get(SiteId::new(1)).op, 2);
        assert_eq!(states.get(SiteId::new(1)).version, 1);
    }

    #[test]
    fn write_bumps_op_and_version() {
        let copies = s(&[0, 1, 2]);
        let mut states = StateTable::fresh(copies);
        let p = plan(
            OpKind::Write,
            copies,
            copies,
            &states,
            &Rule::lexicographic(),
            None,
        )
        .unwrap();
        assert_eq!((p.new_op, p.new_version), (2, 2));
        p.apply(&mut states);
        assert_eq!(states.get(SiteId::new(2)).version, 2);
    }

    #[test]
    fn commit_goes_to_current_sites_only() {
        // C is version-stale: a write by {A, B, C} commits to {A, B}.
        let copies = s(&[0, 1, 2]);
        let mut states = StateTable::fresh(copies);
        // {A,B} write while C is away.
        let p = plan(
            OpKind::Write,
            s(&[0, 1]),
            copies,
            &states,
            &Rule::lexicographic(),
            None,
        )
        .unwrap();
        p.apply(&mut states);
        // C rejoins the group, but a plain write does not reintegrate it.
        let p = plan(
            OpKind::Write,
            copies,
            copies,
            &states,
            &Rule::lexicographic(),
            None,
        )
        .unwrap();
        assert_eq!(p.participants, s(&[0, 1]));
        assert_eq!(p.new_partition, s(&[0, 1]));
    }

    #[test]
    fn recover_reintegrates_and_copies_when_stale() {
        let copies = s(&[0, 1, 2]);
        let mut states = StateTable::fresh(copies);
        // Writes by {A, B} while C is down: C's version goes stale.
        for _ in 0..3 {
            let p = plan(
                OpKind::Write,
                s(&[0, 1]),
                copies,
                &states,
                &Rule::lexicographic(),
                None,
            )
            .unwrap();
            p.apply(&mut states);
        }
        let l = SiteId::new(2);
        let p = plan(
            OpKind::Recover(l),
            copies,
            copies,
            &states,
            &Rule::lexicographic(),
            None,
        )
        .unwrap();
        assert!(p.copy_needed, "C missed writes and must copy the file");
        assert_eq!(p.participants, copies);
        assert_eq!(p.new_partition, copies);
        assert_eq!(p.new_version, 4, "recovery does not bump the version");
        p.apply(&mut states);
        assert_eq!(states.get(l).version, 4);
        assert_eq!(states.get(l).partition, copies);
    }

    #[test]
    fn recover_skips_copy_after_reads_only() {
        // The whole point of operation numbers: if only reads happened
        // while the site was away, no data transfer is needed.
        let copies = s(&[0, 1, 2]);
        let mut states = StateTable::fresh(copies);
        for _ in 0..3 {
            let p = plan(
                OpKind::Read,
                s(&[0, 1]),
                copies,
                &states,
                &Rule::lexicographic(),
                None,
            )
            .unwrap();
            p.apply(&mut states);
        }
        let p = plan(
            OpKind::Recover(SiteId::new(2)),
            copies,
            copies,
            &states,
            &Rule::lexicographic(),
            None,
        )
        .unwrap();
        assert!(!p.copy_needed, "only reads happened — versions match");
        assert_eq!(p.participants, copies);
    }

    #[test]
    fn recover_requires_site_in_group() {
        let copies = s(&[0, 1, 2]);
        let states = StateTable::fresh(copies);
        let err = plan(
            OpKind::Recover(SiteId::new(2)),
            s(&[0, 1]),
            copies,
            &states,
            &Rule::lexicographic(),
            None,
        )
        .unwrap_err();
        assert_eq!(
            err,
            AccessError::OriginUnavailable {
                origin: SiteId::new(2)
            }
        );
    }

    #[test]
    fn abort_reports_tie_loss() {
        let copies = s(&[0, 1]);
        let states = StateTable::fresh(copies);
        let err = plan(
            OpKind::Write,
            s(&[1]),
            copies,
            &states,
            &Rule::lexicographic(),
            None,
        )
        .unwrap_err();
        assert_eq!(
            err,
            AccessError::TieLost {
                kind: AccessKind::Write,
                against: copies,
                needed: SiteId::new(0),
            }
        );
    }

    #[test]
    fn abort_reports_no_quorum() {
        let copies = s(&[0, 1, 2, 3, 4]);
        let states = StateTable::fresh(copies);
        let err = plan(
            OpKind::Read,
            s(&[4]),
            copies,
            &states,
            &Rule::lexicographic(),
            None,
        )
        .unwrap_err();
        match err {
            AccessError::NoQuorum {
                kind,
                counted,
                against,
                ..
            } => {
                assert_eq!(kind, AccessKind::Read);
                assert_eq!(counted, 1);
                assert_eq!(against, copies);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn plain_dv_tie_reports_no_quorum_error() {
        let copies = s(&[0, 1]);
        let states = StateTable::fresh(copies);
        let err = plan(OpKind::Read, s(&[0]), copies, &states, &Rule::dv(), None).unwrap_err();
        assert!(matches!(err, AccessError::NoQuorum { .. }));
    }

    #[test]
    fn a_static_majority_plans_commits_that_move_no_operation_number() {
        // S2 missed a write: o = 1 everywhere, v = 2 at S0 and S1 only.
        let copies = s(&[0, 1, 2]);
        let mut states = StateTable::fresh(copies);
        states.commit(s(&[0, 1]), 1, 2, copies);
        let rule = Rule::static_majority(Some(crate::lexicon::Lexicon::default()));
        let read = plan(OpKind::Read, s(&[1, 2]), copies, &states, &rule, None).unwrap();
        assert_eq!(read.participants, SiteSet::EMPTY, "a read commits nothing");
        assert_eq!(read.data_source, SiteId::new(1), "the lowest current copy");
        let write = plan(OpKind::Write, s(&[1, 2]), copies, &states, &rule, None).unwrap();
        assert_eq!(write.participants, s(&[1, 2]), "every copy that answered");
        assert_eq!(
            (write.new_op, write.new_version, write.new_partition),
            (1, 3, copies)
        );
        let err = plan(OpKind::Read, s(&[2]), copies, &states, &rule, None).unwrap_err();
        assert!(
            matches!(err, AccessError::NoQuorum { counted: 1, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn witness_plans_require_a_full_copy_source() {
        use super::plan_with_witnesses;
        // Full copies S0, S1; witness S2.
        let full = s(&[0, 1]);
        let witnesses = s(&[2]);
        let mut states = StateTable::fresh(full | witnesses);
        let rule = Rule::lexicographic();

        // Normal write by everyone: data source is a full copy, the
        // witness participates in the commit.
        let p = plan_with_witnesses(
            OpKind::Write,
            s(&[0, 1, 2]),
            full,
            witnesses,
            &states,
            &rule,
            None,
        )
        .unwrap();
        assert_eq!(p.participants, s(&[0, 1, 2]));
        assert!(full.contains(p.data_source));
        p.apply(&mut states);

        // Write by {S1, witness} while S0 is away: quorum 2 of 3.
        let p = plan_with_witnesses(
            OpKind::Write,
            s(&[1, 2]),
            full,
            witnesses,
            &states,
            &rule,
            None,
        )
        .unwrap();
        assert_eq!(p.data_source, SiteId::new(1));
        p.apply(&mut states);
    }

    #[test]
    fn quorum_without_data_is_refused() {
        use super::plan_with_witnesses;
        // The witness S0 is the lexicographic max, so it can win ties —
        // the exact setup where a quorum can exist with no data behind
        // it. Full copies: S1, S2.
        let full = s(&[1, 2]);
        let witnesses = s(&[0]);
        let mut states = StateTable::fresh(full | witnesses);
        let rule = Rule::lexicographic();

        // Write by {witness, S2} while S1 is away: P := {S0, S2}.
        let p = plan_with_witnesses(
            OpKind::Write,
            s(&[0, 2]),
            full,
            witnesses,
            &states,
            &rule,
            None,
        )
        .unwrap();
        assert_eq!(p.data_source, SiteId::new(2));
        p.apply(&mut states);

        // S2 (the only current data holder) dies; S1 returns beside the
        // witness. The witness wins the tie on P = {S0, S2} — a quorum
        // exists — but the newest data live only on dead S2.
        let err = plan_with_witnesses(
            OpKind::Read,
            s(&[0, 1]),
            full,
            witnesses,
            &states,
            &rule,
            None,
        )
        .unwrap_err();
        assert!(matches!(err, AccessError::NoCurrentCopy { .. }), "{err:?}");
    }

    #[test]
    fn witness_recovery_never_copies_data() {
        use super::plan_with_witnesses;
        let full = s(&[0, 1]);
        let witnesses = s(&[2]);
        let mut states = StateTable::fresh(full | witnesses);
        let rule = Rule::lexicographic();
        // Writes happen while the witness is down.
        for _ in 0..2 {
            let p = plan_with_witnesses(
                OpKind::Write,
                s(&[0, 1]),
                full,
                witnesses,
                &states,
                &rule,
                None,
            )
            .unwrap();
            p.apply(&mut states);
        }
        // The witness recovers: version-stale, but data-free.
        let p = plan_with_witnesses(
            OpKind::Recover(SiteId::new(2)),
            s(&[0, 1, 2]),
            full,
            witnesses,
            &states,
            &rule,
            None,
        )
        .unwrap();
        assert!(!p.copy_needed, "witnesses hold no data to copy");
        assert_eq!(p.participants, s(&[0, 1, 2]));
    }

    #[test]
    fn plan_is_witness_plan_with_no_witnesses() {
        use super::plan_with_witnesses;
        let copies = s(&[0, 1, 2]);
        let states = StateTable::fresh(copies);
        let rule = Rule::lexicographic();
        let a = plan(OpKind::Write, s(&[0, 1]), copies, &states, &rule, None).unwrap();
        let b = plan_with_witnesses(
            OpKind::Write,
            s(&[0, 1]),
            copies,
            SiteSet::EMPTY,
            &states,
            &rule,
            None,
        )
        .unwrap();
        assert_eq!(a.participants, b.participants);
        assert_eq!(a.new_op, b.new_op);
        assert_eq!(a.new_version, b.new_version);
        assert_eq!(a.data_source, b.data_source);
    }

    #[test]
    fn sequence_of_ops_matches_figures() {
        // READ then WRITE then RECOVER, checking the exact (o, v, P)
        // transitions of Figures 1-3.
        let copies = s(&[0, 1, 2]);
        let mut states = StateTable::fresh(copies);
        let rule = Rule::lexicographic();

        // READ by all: (o=2, v=1, P={A,B,C}).
        plan(OpKind::Read, copies, copies, &states, &rule, None)
            .unwrap()
            .apply(&mut states);
        // WRITE by {A,B} (C down): (o=3, v=2, P={A,B}).
        plan(OpKind::Write, s(&[0, 1]), copies, &states, &rule, None)
            .unwrap()
            .apply(&mut states);
        // RECOVER C: (o=4, v=2, P={A,B,C}), copy needed.
        let p = plan(
            OpKind::Recover(SiteId::new(2)),
            copies,
            copies,
            &states,
            &rule,
            None,
        )
        .unwrap();
        assert!(p.copy_needed);
        p.apply(&mut states);

        for site in copies.iter() {
            assert_eq!(states.get(site).op, 4);
            assert_eq!(states.get(site).version, 2);
            assert_eq!(states.get(site).partition, copies);
        }
    }
}
