//! The explored state: a real cluster plus the ground truth the
//! history-dependent oracles need.
//!
//! A [`World`] wraps the message-level [`Cluster`] — the checker drives
//! the *actual* protocol implementation, it does not re-model it — and
//! adds the per-path bookkeeping that table-level invariants cannot
//! carry: the monotone write-token counter, the token of the last
//! committed write (the "no read older than the last committed write"
//! oracle), and the forced-partition index.

use std::sync::Arc;

use dynvote_core::check::{at_most_one_majority, monotone_counters, ProtocolSnapshot, Violation};
use dynvote_core::state::StateTable;
use dynvote_replica::checker::Violation as ReplicaViolation;
use dynvote_replica::{Cluster, Protocol};
use dynvote_types::{AccessError, SiteSet};

use crate::event::CheckEvent;
use crate::scenario::Scenario;
use crate::symmetry::{NodeView, SymView};

/// What applying one event did, before any invariant is consulted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StepOutcome {
    /// Whether the event took effect: always `true` for fault events,
    /// and the grant/refuse outcome for operations.
    pub granted: bool,
    /// The protocol's refusal, when the operation was refused.
    pub refusal: Option<AccessError>,
    /// A token-oracle violation: a granted read returned a value other
    /// than the last committed write token.
    pub oracle: Option<Violation>,
}

/// One explored state: the live cluster plus per-path ground truth.
///
/// `clone_from` copies a world into another's buffers (see
/// [`Cluster`]'s), which is how the explorer steps every child in one
/// spare world per worker.
pub struct World {
    /// The cluster under check (value type = write token).
    pub cluster: Cluster<u64>,
    /// Canonical segment partitions of the scenario network (entry 0 is
    /// the trivial one-block partition). Shared, not cloned per branch.
    partitions: Arc<Vec<Vec<SiteSet>>>,
    /// Index of the currently forced partition, if any.
    forced: Option<usize>,
    /// The next write token to mint (consumed only by granted writes).
    next_token: u64,
    /// Token of the last committed write (`0` = the initial value).
    last_committed: u64,
    /// How many token-oracle violations this path has seen.
    oracle_violations: u64,
}

impl Clone for World {
    fn clone(&self) -> World {
        World {
            cluster: self.cluster.clone(),
            partitions: Arc::clone(&self.partitions),
            forced: self.forced,
            next_token: self.next_token,
            last_committed: self.last_committed,
            oracle_violations: self.oracle_violations,
        }
    }

    /// Field by field, so a new field does not compile until it is
    /// copied here too.
    fn clone_from(&mut self, source: &World) {
        let World {
            cluster,
            partitions,
            forced,
            next_token,
            last_committed,
            oracle_violations,
        } = source;
        self.cluster.clone_from(cluster);
        if !Arc::ptr_eq(&self.partitions, partitions) {
            self.partitions = Arc::clone(partitions);
        }
        self.forced = *forced;
        self.next_token = *next_token;
        self.last_committed = *last_committed;
        self.oracle_violations = *oracle_violations;
    }
}

impl World {
    /// A fresh world for the scenario's canonical cluster.
    #[must_use]
    pub fn new(scenario: &Scenario) -> World {
        World::with_cluster(scenario.build_cluster())
    }

    /// A fresh world around a caller-built cluster — the hook that
    /// fault-injection tests use to hand the checker a deliberately
    /// broken cluster.
    #[must_use]
    pub fn with_cluster(cluster: Cluster<u64>) -> World {
        let partitions = Arc::new(cluster.network().segment_partitions());
        World {
            cluster,
            partitions,
            forced: None,
            next_token: 1,
            last_committed: 0,
            oracle_violations: 0,
        }
    }

    /// The canonical segment partitions of this world's network.
    #[must_use]
    pub fn partitions(&self) -> &[Vec<SiteSet>] {
        &self.partitions
    }

    /// Index of the currently forced partition, if any.
    #[must_use]
    pub fn forced(&self) -> Option<usize> {
        self.forced
    }

    /// The token of the last committed write (`0` before any write).
    #[must_use]
    pub fn last_committed(&self) -> u64 {
        self.last_committed
    }

    /// Whether this path has already committed a forked lineage — the
    /// topological protocols' sequential-claim hazard. Violations on a
    /// forked path are classified as known hazards, not fresh bugs.
    #[must_use]
    pub fn forked(&self) -> bool {
        self.cluster
            .checker()
            .violations()
            .iter()
            .any(|v| matches!(v, ReplicaViolation::LineageFork { .. }))
    }

    /// Applies one event to the live cluster.
    pub fn apply(&mut self, event: CheckEvent) -> StepOutcome {
        let mut outcome = StepOutcome {
            granted: true,
            refusal: None,
            oracle: None,
        };
        // `Ok(Some(value))` for a granted read, `Ok(None)` for every
        // other event that took effect.
        let result = match event {
            CheckEvent::Crash(site) => {
                self.cluster.fail_site(site);
                Ok(None)
            }
            CheckEvent::Repair(site) => {
                self.cluster.repair_site(site);
                Ok(None)
            }
            CheckEvent::Recover(site) => self.cluster.recover(site).map(|()| None),
            CheckEvent::Partition(index) => {
                self.forced = Some(index);
                self.cluster.force_partition(self.partitions[index].clone());
                Ok(None)
            }
            CheckEvent::Heal => {
                self.forced = None;
                self.cluster.heal_partition();
                Ok(None)
            }
            CheckEvent::Read(origin) => self.cluster.read(origin).map(Some),
            CheckEvent::Write(origin) => {
                let token = self.next_token;
                let result = self.cluster.write(origin, token).map(|()| None);
                if result.is_ok() {
                    self.next_token += 1;
                    self.last_committed = token;
                }
                result
            }
        };
        match result {
            Ok(Some(value)) => {
                if value != self.last_committed {
                    self.oracle_violations += 1;
                    outcome.oracle = Some(Violation {
                        invariant: "token-oracle",
                        detail: format!(
                            "granted {event} returned write token {value}, \
                             but the last committed write is token {}",
                            self.last_committed
                        ),
                    });
                }
            }
            Ok(None) => {}
            Err(refusal) => {
                outcome.granted = false;
                outcome.refusal = Some(refusal);
            }
        }
        outcome
    }

    /// Everything that can influence the world's future behaviour or
    /// verdicts, as plain site-indexed data: liveness, the forced
    /// partition, each participant's ⟨o, v, P⟩, data and vote
    /// presence, the monitor's ledgers and the token bookkeeping. Two
    /// worlds with equal views are the same state; the explorer hashes
    /// the view under a [`crate::SymmetryGroup`] (the trivial one when
    /// symmetry is off), and the differential checker compares two.
    #[must_use]
    pub fn sym_view(&self) -> SymView {
        let mut view = SymView::default();
        self.fill_view(&mut view);
        view
    }

    /// [`World::sym_view`] written over `view`, whose buffers are kept:
    /// the explorer fingerprints every transition through one view per
    /// worker and allocates nothing doing it.
    pub fn fill_view(&self, view: &mut SymView) {
        let participants = self.cluster.participants();
        let up = self.cluster.up_sites();
        view.sites = participants.max().map_or(0, |s| s.index() + 1);
        view.up = up;
        view.forced = self.forced;
        view.nodes.clear();
        view.nodes.extend((0..view.sites).map(|index| {
            let site = dynvote_types::SiteId::new(index);
            if !participants.contains(site) {
                return NodeView::default();
            }
            let state = self.cluster.state_at(site);
            NodeView {
                participant: true,
                up: up.contains(site),
                pending: self.cluster.pending_at(site).is_some(),
                op: state.op,
                version: state.version,
                partition: state.partition,
                value: self.cluster.value_at(site),
            }
        }));
        let checker = self.cluster.checker();
        // Both ledgers iterate in number order: no sort.
        view.commits.clear();
        view.commits.extend(checker.commits());
        view.versions.clear();
        view.versions.extend(checker.written());
        view.monitor = (checker.latest_written(), checker.violations().len() as u64);
        view.scalars = [self.next_token, self.last_committed, self.oracle_violations];
    }
}

/// Maps a replica-checker violation to its stable invariant name.
#[must_use]
pub fn replica_invariant_name(violation: &ReplicaViolation) -> &'static str {
    match violation {
        ReplicaViolation::StaleRead { .. } => "stale-read",
        ReplicaViolation::DuplicateVersion { .. } => "duplicate-version",
        ReplicaViolation::LineageFork { .. } => "lineage-fork",
    }
}

/// Snapshots every participant's control state into a dense table.
#[must_use]
pub fn state_table_of<T: Clone>(cluster: &Cluster<T>) -> StateTable {
    let mut table = StateTable::fresh(cluster.participants());
    fill_state_table(cluster, &mut table);
    table
}

/// Writes every participant's control state over its slot of `table`;
/// the other slots keep what they held and are never read.
fn fill_state_table<T: Clone>(cluster: &Cluster<T>, table: &mut StateTable) {
    for site in cluster.participants().iter() {
        table.set(site, cluster.state_at(site));
    }
}

/// The maximal communication groups of up participants, in site order.
#[must_use]
pub fn groups_of<T: Clone>(cluster: &Cluster<T>) -> Vec<SiteSet> {
    let mut groups = Vec::new();
    fill_groups(cluster, &mut groups);
    groups
}

/// [`groups_of`] written over `groups`, whose buffer is kept.
fn fill_groups<T: Clone>(cluster: &Cluster<T>, groups: &mut Vec<SiteSet>) {
    let participants = cluster.participants();
    groups.clear();
    let mut grouped = SiteSet::EMPTY;
    for site in participants.iter() {
        if grouped.contains(site) {
            continue;
        }
        let Some(group) = cluster.group_of(site) else {
            continue; // down site: in no group
        };
        let group = group & participants;
        grouped |= group;
        groups.push(group);
    }
}

/// What one detection step fills and compares: the state tables before
/// and after the event and the communication groups after it. Whoever
/// steps many worlds keeps one, so a step allocates none of them.
pub(crate) struct DetectScratch {
    /// The participants the two tables have slots for.
    sized_for: SiteSet,
    prev: StateTable,
    next: StateTable,
    groups: Vec<SiteSet>,
}

impl Default for DetectScratch {
    fn default() -> DetectScratch {
        DetectScratch {
            sized_for: SiteSet::EMPTY,
            prev: StateTable::fresh(SiteSet::EMPTY),
            next: StateTable::fresh(SiteSet::EMPTY),
            groups: Vec::new(),
        }
    }
}

impl DetectScratch {
    /// Sizes the two tables for `participants`, once per scenario.
    fn fit(&mut self, participants: SiteSet) {
        if self.sized_for != participants {
            self.sized_for = participants;
            self.prev = StateTable::fresh(participants);
            self.next = StateTable::fresh(participants);
        }
    }
}

/// Applies one event and returns every invariant violation the step
/// surfaced: the token oracle, fresh replica-checker findings (stale
/// read / duplicate version / lineage fork), and the two table-level
/// invariants ([`at_most_one_majority`] on the resulting state,
/// [`monotone_counters`] on the transition).
///
/// This is *the* detection path — the explorer, the shrinker's
/// reproduction check, and trace replay all go through it, so a shrunk
/// trace is judged by exactly the rules that convicted the original.
pub fn apply_and_detect(world: &mut World, event: CheckEvent) -> Vec<Violation> {
    apply_and_detect_in(&mut DetectScratch::default(), world, event)
}

/// [`apply_and_detect`] with the caller's tables.
pub(crate) fn apply_and_detect_in(
    scratch: &mut DetectScratch,
    world: &mut World,
    event: CheckEvent,
) -> Vec<Violation> {
    let participants = world.cluster.participants();
    scratch.fit(participants);
    fill_state_table(&world.cluster, &mut scratch.prev);
    let seen_before = world.cluster.checker().violations().len();

    let outcome = world.apply(event);

    let mut found = Vec::new();
    if let Some(oracle) = outcome.oracle {
        found.push(oracle);
    }
    for violation in &world.cluster.checker().violations()[seen_before..] {
        found.push(Violation {
            invariant: replica_invariant_name(violation),
            detail: violation.to_string(),
        });
    }
    fill_state_table(&world.cluster, &mut scratch.next);
    fill_groups(&world.cluster, &mut scratch.groups);
    let snapshot = ProtocolSnapshot {
        copies: world.cluster.copies(),
        witnesses: world.cluster.witnesses(),
        states: &scratch.next,
        groups: &scratch.groups,
        rule: world.cluster.rule(),
        network: Some(world.cluster.network()),
    };
    if let Err(violation) = at_most_one_majority(&snapshot) {
        found.push(violation);
    }
    if let Err(violation) = monotone_counters(&scratch.prev, &scratch.next, participants) {
        found.push(violation);
    }
    found
}

/// Classifies a violation: `true` means *known hazard* — the
/// documented sequential-claim behaviour of the topological protocols —
/// rather than a fresh bug.
///
/// Two signals mark a hazard, both only under TDV/OTDV: the path has
/// (or just) committed a forked lineage, or the violation is the
/// rival-majority state (`at-most-one-majority`), which a sequential
/// claim produces *before* the rival group commits anything. Every
/// violation under the non-topological policies is a real finding.
#[must_use]
pub fn classify_known_hazard(
    policy: Protocol,
    was_forked: bool,
    now_forked: bool,
    violation: &Violation,
) -> bool {
    matches!(policy, Protocol::Tdv | Protocol::Otdv)
        && (was_forked || now_forked || violation.invariant == "at-most-one-majority")
}

/// Applies `events` in order through [`apply_and_detect_in`] and
/// returns every violation they surfaced, each classified by
/// [`classify_known_hazard`] against the path's fork state just before
/// and just after its step. The explorer steps one event through it,
/// trace replay and the shrinker's reproduction check a whole trace.
pub(crate) fn replay_classified(
    scratch: &mut DetectScratch,
    world: &mut World,
    policy: Protocol,
    events: &[CheckEvent],
) -> Vec<(Violation, bool)> {
    let mut all = Vec::new();
    for &event in events {
        let was_forked = world.forked();
        let found = apply_and_detect_in(scratch, world, event);
        if found.is_empty() {
            continue;
        }
        let now_forked = world.forked();
        all.extend(found.into_iter().map(|violation| {
            let hazard = classify_known_hazard(policy, was_forked, now_forked, &violation);
            (violation, hazard)
        }));
    }
    all
}

#[cfg(test)]
mod tests {
    use dynvote_replica::Protocol;
    use dynvote_types::SiteId;

    use super::*;

    fn scenario(policy: Protocol) -> Scenario {
        Scenario::new(policy, 3, 1).unwrap()
    }

    #[test]
    fn tokens_follow_committed_writes() {
        let mut world = World::new(&scenario(Protocol::Odv));
        assert_eq!(world.last_committed(), 0);
        let out = world.apply(CheckEvent::Write(SiteId::new(0)));
        assert!(out.granted);
        assert_eq!(world.last_committed(), 1);
        // A granted read returns the committed token: no oracle firing.
        let out = world.apply(CheckEvent::Read(SiteId::new(2)));
        assert!(out.granted && out.oracle.is_none());
    }

    #[test]
    fn refused_write_consumes_no_token() {
        let mut world = World::new(&scenario(Protocol::Odv));
        for site in 0..2 {
            world.apply(CheckEvent::Crash(SiteId::new(site)));
        }
        let out = world.apply(CheckEvent::Write(SiteId::new(2)));
        assert!(!out.granted, "1 of 3 is no quorum");
        assert_eq!(world.last_committed(), 0);
        let before = world.sym_view();
        // Refusals leave the world's state exactly as it was.
        let again = world.apply(CheckEvent::Write(SiteId::new(2)));
        assert!(!again.granted);
        assert_eq!(world.sym_view(), before);
    }

    #[test]
    fn a_clone_branches_without_touching_the_original() {
        let mut world = World::new(&scenario(Protocol::Ldv));
        world.apply(CheckEvent::Write(SiteId::new(0)));
        let before = world.sym_view();
        let mut branch = world.clone();
        for event in [
            CheckEvent::Crash(SiteId::new(2)),
            CheckEvent::Write(SiteId::new(1)),
            CheckEvent::Repair(SiteId::new(2)),
            CheckEvent::Recover(SiteId::new(2)),
        ] {
            assert!(branch.apply(event).granted, "{event}");
        }
        assert_ne!(branch.sym_view(), before);
        assert_eq!(world.sym_view(), before);
    }

    /// Everything a world shows of itself, cluster and bus included.
    #[derive(Debug, PartialEq)]
    struct Observed {
        view: SymView,
        stats: dynvote_replica::OpStats,
        trace: dynvote_replica::Trace,
        history: Vec<dynvote_replica::CommittedOp>,
        pending: SiteSet,
        last_ticket: u64,
        violations: Vec<ReplicaViolation>,
        groups: Vec<SiteSet>,
        bus: dynvote_replica::BusStats,
        max_attempts: u32,
        protocol: Protocol,
        copies: SiteSet,
        witnesses: SiteSet,
    }

    fn observe(world: &World) -> Observed {
        let cluster = &world.cluster;
        Observed {
            copies: cluster.copies(),
            witnesses: cluster.witnesses(),
            view: world.sym_view(),
            stats: cluster.stats(),
            trace: cluster.trace().clone(),
            history: cluster.history().to_vec(),
            pending: cluster.pending_sites(),
            last_ticket: cluster.last_ticket(),
            violations: cluster.checker().violations().to_vec(),
            groups: groups_of(cluster),
            bus: *cluster.bus().stats(),
            max_attempts: cluster.max_attempts(),
            protocol: cluster.protocol(),
        }
    }

    /// The root of `scenario` and every world within `depth` events of
    /// it, refused operations included.
    fn worlds_within(scenario: &Scenario, depth: usize) -> Vec<World> {
        let mut layer = vec![World::new(scenario)];
        let mut all = layer.clone();
        for _ in 0..depth {
            let mut next = Vec::new();
            for world in &layer {
                for event in crate::explore::enumerate_events(world) {
                    let mut child = world.clone();
                    child.apply(event);
                    next.push(child);
                }
            }
            all.extend(next.iter().cloned());
            layer = next;
        }
        all
    }

    #[test]
    fn clone_from_is_clone() {
        // Three dirty worlds, each different from every state below:
        // one further along the same scenario (a forced partition,
        // grown ledgers and history), one a forked two-site TDV world on
        // another network, with a violation, another retry bound and
        // the stale-read fault armed, and one with a witness.
        let mut witnessed = World::with_cluster(
            dynvote_replica::ClusterBuilder::new()
                .copies([0, 1])
                .witnesses([2])
                .protocol(Protocol::Dv)
                .build_with_value(0),
        );
        witnessed.apply(CheckEvent::Write(SiteId::new(1)));
        let mut forked = World::new(&Scenario::new(Protocol::Tdv, 2, 1).unwrap());
        forked.cluster.set_max_attempts(1);
        forked.cluster.set_stale_read_fault(true);
        for event in [
            CheckEvent::Crash(SiteId::new(0)),
            CheckEvent::Read(SiteId::new(1)),
            CheckEvent::Crash(SiteId::new(1)),
            CheckEvent::Repair(SiteId::new(0)),
            CheckEvent::Recover(SiteId::new(0)),
        ] {
            forked.apply(event);
        }
        assert!(forked.forked());
        for policy in [Protocol::Dv, Protocol::Tdv] {
            let scenario = Scenario::new(policy, 4, 2).unwrap();
            let states = worlds_within(&scenario, 3);
            assert!(states.len() > 1000, "{} states", states.len());
            let mut along = World::new(&scenario);
            for event in [
                CheckEvent::Write(SiteId::new(0)),
                CheckEvent::Partition(1),
                CheckEvent::Write(SiteId::new(0)),
                CheckEvent::Crash(SiteId::new(3)),
                CheckEvent::Write(SiteId::new(1)),
                CheckEvent::Read(SiteId::new(0)),
                CheckEvent::Write(SiteId::new(0)),
            ] {
                along.apply(event);
            }
            let dirty = [along, forked.clone(), witnessed.clone()];
            for (index, state) in states.iter().enumerate() {
                let mut reused = dirty[index % dirty.len()].clone();
                reused.clone_from(state);
                assert_eq!(observe(&reused), observe(&state.clone()));
                for event in crate::explore::enumerate_events(state) {
                    // `reused` is dirty again from the previous event.
                    reused.clone_from(state);
                    let mut fresh = state.clone();
                    assert_eq!(reused.apply(event), fresh.apply(event), "{event}");
                    assert_eq!(observe(&reused), observe(&fresh), "{event}");
                }
            }
        }
    }

    #[test]
    fn clean_steps_surface_no_violations() {
        let mut world = World::new(&scenario(Protocol::Ldv));
        let events = [
            CheckEvent::Write(SiteId::new(0)),
            CheckEvent::Crash(SiteId::new(2)),
            CheckEvent::Read(SiteId::new(1)),
            CheckEvent::Repair(SiteId::new(2)),
            CheckEvent::Recover(SiteId::new(2)),
            CheckEvent::Read(SiteId::new(2)),
        ];
        for event in events {
            let found = apply_and_detect(&mut world, event);
            assert!(found.is_empty(), "unexpected violations: {found:?}");
        }
    }

    #[test]
    fn lineage_fork_is_detected_and_classified() {
        // The 2-site TDV sequential-claim hazard (the PR 1 finding):
        // S1 claims the crashed S0's vote, shrinks to P={1}, then S0
        // repairs alone, claims S1's vote back, and RECOVER forks the
        // lineage: operation 2 committed by {1} and again by {0}.
        let mut world = World::new(&Scenario::new(Protocol::Tdv, 2, 1).unwrap());
        let path = [
            CheckEvent::Crash(SiteId::new(0)),
            CheckEvent::Read(SiteId::new(1)),
            CheckEvent::Crash(SiteId::new(1)),
            CheckEvent::Repair(SiteId::new(0)),
        ];
        for event in path {
            let found = apply_and_detect(&mut world, event);
            assert!(found.is_empty(), "no violation before the fork: {found:?}");
        }
        let was_forked = world.forked();
        let found = apply_and_detect(&mut world, CheckEvent::Recover(SiteId::new(0)));
        assert!(
            found.iter().any(|v| v.invariant == "lineage-fork"),
            "expected a lineage fork, got {found:?}"
        );
        let now_forked = world.forked();
        for violation in &found {
            assert!(
                classify_known_hazard(Protocol::Tdv, was_forked, now_forked, violation),
                "the TDV fork is the documented hazard"
            );
        }
        // The same violation under a non-topological policy would be a
        // real finding.
        assert!(!classify_known_hazard(
            Protocol::Ldv,
            was_forked,
            now_forked,
            &found[0]
        ));
    }

    #[test]
    fn ldv_refuses_where_tdv_claims() {
        // Control for the test above: LDV has no vote claiming, so
        // S1's READ loses the 1-of-2 tie (the default lexicon ranks S0
        // highest), the partition never shrinks to {1}, and S0's later
        // RECOVER is a legitimate, fork-free tie win.
        let mut world = World::new(&Scenario::new(Protocol::Ldv, 2, 1).unwrap());
        assert!(apply_and_detect(&mut world, CheckEvent::Crash(SiteId::new(0))).is_empty());
        let out = world.apply(CheckEvent::Read(SiteId::new(1)));
        assert!(!out.granted, "S1 alone loses the {{S0,S1}} tie to S0");
        for event in [
            CheckEvent::Crash(SiteId::new(1)),
            CheckEvent::Repair(SiteId::new(0)),
            CheckEvent::Recover(SiteId::new(0)),
        ] {
            assert!(apply_and_detect(&mut world, event).is_empty());
        }
        assert!(!world.forked(), "only one lineage ever committed");
    }

    #[test]
    fn groups_respect_gateway_loss() {
        let scenario = Scenario::new(Protocol::Otdv, 4, 2).unwrap();
        let mut world = World::new(&scenario);
        assert_eq!(groups_of(&world.cluster).len(), 1);
        world.apply(CheckEvent::Crash(SiteId::new(1)));
        // Gateway S1 down: {0} and {2,3}.
        let groups = groups_of(&world.cluster);
        assert_eq!(groups.len(), 2);
        assert!(groups.contains(&SiteSet::from_indices([0])));
        assert!(groups.contains(&SiteSet::from_indices([2, 3])));
    }

    #[test]
    fn forced_partition_tracks_index() {
        let scenario = Scenario::new(Protocol::Dv, 4, 2).unwrap();
        let mut world = World::new(&scenario);
        assert!(world.partitions().len() > 1, "two segments: 2 partitions");
        let healed = world.sym_view();
        world.apply(CheckEvent::Partition(1));
        assert_eq!(world.forced(), Some(1));
        assert_ne!(world.sym_view(), healed);
        world.apply(CheckEvent::Heal);
        assert_eq!(world.forced(), None);
        assert_eq!(world.sym_view(), healed);
    }
}
