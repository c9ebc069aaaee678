//! Algorithm 1 as an availability state machine: MCV, DV, LDV, ODV,
//! TDV and OTDV, with or without witnesses.

use dynvote_topology::{Network, Reachability};
use dynvote_types::{AccessError, SiteSet};

use crate::decision::Rule;
use crate::lexicon::Lexicon;
use crate::ops::{plan_with_witnesses, OpKind, Plan};
use crate::state::StateTable;

use super::{AvailabilityPolicy, CopiesView, Protocol};

/// Algorithm 1 as an availability state machine, parameterized along
/// the paper's axes:
///
/// * **rule** — MCV's static majority; plain DV fails even splits; LDV
///   and everything derived from it applies the lexicographic rule;
/// * **topological** — TDV/OTDV claim the votes of unreachable
///   co-segment members of the previous majority partition;
/// * **optimistic** — ODV/OTDV exchange state only at access time;
/// * **witnesses** — voters that keep the state but no data (§5, Pâris
///   1986): a group is served only when a current copy is in it.
///
/// All six protocols share one implementation whose behaviour is fully
/// determined by the [`Rule`], the optimistic axis and which voters hold
/// data; the constructors ([`DynamicPolicy::mcv`], [`DynamicPolicy::dv`],
/// [`DynamicPolicy::ldv`], [`DynamicPolicy::odv`], [`DynamicPolicy::tdv`],
/// [`DynamicPolicy::otdv`]) take the paper's combinations from
/// [`Protocol`], and [`DynamicPolicy::with_witnesses`] adds witnesses.
///
/// A state exchange is the planner's READ (Figure 1,
/// [`plan_with_witnesses`]) in every group, applied with [`Plan::apply`]:
/// the commit a deployment runs. The simulator never writes, so every
/// copy keeps version 1, the READ's current set `S` is every reachable
/// voter, and the READ reintegrates every reachable copy: a RECOVER
/// would commit nothing more. Under a static majority the READ commits
/// nothing, and [`decide`](crate::decision::decide) reads only
/// `group ∩ copies`, so MCV's verdicts never move.
#[derive(Clone, Debug)]
pub struct DynamicPolicy {
    name: String,
    /// Every voter: the copies and the witnesses.
    copies: SiteSet,
    /// The voters that hold data: `copies` less the witnesses.
    full: SiteSet,
    rule: Rule,
    network: Option<Network>,
    /// State is exchanged only at access time (ODV, OTDV).
    optimistic: bool,
    states: StateTable,
    rival_grants: u64,
    memo: SyncMemo,
    probe: ProbeMemo,
}

/// Memo of the most recently *executed* state exchange.
///
/// Repeating an exchange with the same view of the copies back-to-back
/// takes exactly the same branches: a granted READ leaves its
/// participants current with the partition set equal to the participant
/// set, so running it again grants the same groups and re-commits the
/// same participants at the same version with one higher operation
/// number (a served group's current copy stays current, so witnesses
/// change nothing; under a static majority the READ has no participants),
/// and a refused exchange mutates nothing at all. Long runs of accesses
/// between topology changes — the hot path of every simulation —
/// therefore replay the memoized commits instead of re-deciding. See
/// DESIGN.md, "Grant memoization".
///
/// The replay *must* include the operation-number bump: the topological
/// variants compare op counters across rival lineages when partitions
/// merge, so freezing the counters during a memoized run would change
/// which lineage wins the merge. A hit therefore owes every participant
/// of the memoized commits one bump, and writes nothing: it counts the
/// bump in `pending`, and [`SyncMemo::settle`] adds `pending` to every
/// participant before anything reads an operation number (the next
/// miss, an optimistic probe's decision, [`DynamicPolicy::states`]).
/// Each participant then holds exactly the op the eager bumps would
/// have left. [`AvailabilityPolicy::is_available`], which cannot
/// settle, answers the memo's own view from the memo and decides any
/// other on a settled copy.
///
/// The key is the [`CopiesView`], not the up-set: tests and exotic
/// drivers may present different partitions over the same up sites,
/// and a false hit would corrupt the protocol state.
#[derive(Clone, Debug, Default)]
struct SyncMemo {
    valid: bool,
    view: CopiesView,
    /// The participants of every granted group's commit, in group order.
    commits: Vec<SiteSet>,
    granted: bool,
    rival_delta: u64,
    /// Hits not yet settled: the op bumps owed to every participant.
    pending: u64,
}

impl SyncMemo {
    fn matches(&mut self, reach: &Reachability, copies: SiteSet) -> bool {
        self.valid && self.view.matches(reach, copies)
    }

    /// Adds the owed bumps to `states`, as the hits would have.
    fn pay(&self, states: &mut StateTable) {
        for &participants in &self.commits {
            for site in participants.iter() {
                states.get_mut(site).op += self.pending;
            }
        }
    }

    /// Writes the owed bumps into `states`: nothing is owed afterwards.
    fn settle(&mut self, states: &mut StateTable) {
        if self.pending > 0 {
            self.pay(states);
            self.pending = 0;
        }
    }

    /// Forgets the exchange, settling it first.
    fn invalidate(&mut self, states: &mut StateTable) {
        self.settle(states);
        self.valid = false;
        self.commits.clear();
    }
}

/// The optimistic policies' answer to a topology change — would an
/// access be granted now? — for the last view probed.
///
/// Between two exchanges an optimistic policy's state does not move, so
/// the answer for a view holds until the next exchange, which clears it
/// whether it hit the [`SyncMemo`] or not: a hit bumps operation
/// numbers, and those decide merges with the groups of another view.
#[derive(Clone, Debug, Default)]
struct ProbeMemo {
    valid: bool,
    view: CopiesView,
    available: bool,
}

/// The planner's READ (Figure 1) in `group`: a plan when the group is
/// the majority partition with a current copy among its voters.
fn read(
    states: &StateTable,
    copies: SiteSet,
    full: SiteSet,
    rule: &Rule,
    network: Option<&Network>,
    group: SiteSet,
) -> Result<Plan, AccessError> {
    plan_with_witnesses(
        OpKind::Read,
        group,
        full,
        copies - full,
        states,
        rule,
        network,
    )
}

impl DynamicPolicy {
    /// A custom instantaneous family member under `rule`, e.g. strict
    /// MCV, or MCV or LDV under another lexicon. Only a topological rule
    /// keeps `network`.
    ///
    /// # Panics
    ///
    /// Panics when `copies` is empty, or when the rule is topological
    /// and `network` is `None`.
    #[must_use]
    pub fn custom(
        name: impl Into<String>,
        copies: SiteSet,
        rule: Rule,
        network: Option<Network>,
    ) -> Self {
        assert!(!copies.is_empty(), "a replicated file needs copies");
        assert!(
            !rule.topological || network.is_some(),
            "topological rules require a network"
        );
        DynamicPolicy {
            name: name.into(),
            copies,
            full: copies,
            states: StateTable::fresh(copies),
            network: network.filter(|_| rule.topological),
            rule,
            optimistic: false,
            rival_grants: 0,
            memo: SyncMemo::default(),
            probe: ProbeMemo::default(),
        }
    }

    /// The paper's combination for `protocol`: its name, its rule under
    /// the default lexicon, and its optimistic axis.
    pub(crate) fn of(protocol: Protocol, copies: SiteSet, network: Option<Network>) -> Self {
        let rule = protocol.rule(Lexicon::default());
        DynamicPolicy {
            optimistic: protocol.optimistic(),
            ..DynamicPolicy::custom(protocol.name(), copies, rule, network)
        }
    }

    /// Majority Consensus Voting (Ellis/Gifford/Thomas): an access
    /// proceeds iff a majority of all *n* copies is reachable, and the
    /// quorum never adapts.
    ///
    /// For even *n* a bare majority strands *both* halves of an even
    /// split. Gifford's remedy is to skew the votes so no tie is
    /// possible — equivalently, to grant the half that holds a
    /// designated top copy — and the paper's Table 2 is only consistent
    /// with that variant: configuration H (copies 1, 2, 7, 8) reports an
    /// MCV unavailability of 0.0014 ≈ the gateway's own downtime, which
    /// a strict 3-of-4 quorum could never reach with sites 7 and 8
    /// *each* down ~12% of the time. So this MCV breaks even splits
    /// toward the top copy of the default [`Lexicon`], as LDV does; the
    /// textbook strict rule is [`DynamicPolicy::custom`] with
    /// `Rule::static_majority(None)` (`weight_study`'s uniform column).
    /// For odd *n* the two agree.
    #[must_use]
    pub fn mcv(copies: SiteSet) -> Self {
        DynamicPolicy::of(Protocol::Mcv, copies, None)
    }

    /// Original Dynamic Voting (Davčev–Burkhard): instantaneous, strict
    /// majority only.
    #[must_use]
    pub fn dv(copies: SiteSet) -> Self {
        DynamicPolicy::of(Protocol::Dv, copies, None)
    }

    /// Lexicographic Dynamic Voting (Jajodia): instantaneous with the
    /// tie-break.
    #[must_use]
    pub fn ldv(copies: SiteSet) -> Self {
        DynamicPolicy::of(Protocol::Ldv, copies, None)
    }

    /// Optimistic Dynamic Voting (this paper, §2): the LDV decision rule
    /// driven only by access-time state exchange.
    #[must_use]
    pub fn odv(copies: SiteSet) -> Self {
        DynamicPolicy::of(Protocol::Odv, copies, None)
    }

    /// Topological Dynamic Voting (this paper, §3): instantaneous,
    /// claiming co-segment votes.
    #[must_use]
    pub fn tdv(copies: SiteSet, network: Network) -> Self {
        DynamicPolicy::of(Protocol::Tdv, copies, Some(network))
    }

    /// Optimistic Topological Dynamic Voting (this paper, §3, Figs 5–7).
    #[must_use]
    pub fn otdv(copies: SiteSet, network: Network) -> Self {
        DynamicPolicy::of(Protocol::Otdv, copies, Some(network))
    }

    /// The same protocol with `witnesses` voting beside the copies
    /// (Pâris 1986, the paper's §5): they keep `(o, v, P)`, join
    /// partition sets and count toward every majority, but hold no
    /// data, so a group is served only when one of its current voters
    /// is a copy. Starts from fresh state; the name gains "+W".
    ///
    /// # Panics
    ///
    /// Panics under a static majority, whose quorum never adapts (as
    /// the replica's `ClusterBuilder` refuses MCV with witnesses), and
    /// when a witness is also a copy.
    #[must_use]
    pub fn with_witnesses(mut self, witnesses: SiteSet) -> Self {
        assert!(
            !self.rule.static_majority,
            "witnesses require a dynamic-voting protocol"
        );
        assert!(
            self.full.is_disjoint(witnesses),
            "a site cannot be both a copy and a witness"
        );
        self.name.push_str("+W");
        self.copies = self.full | witnesses;
        self.reset();
        self
    }

    /// Every voter this policy manages: the copies and any witnesses.
    #[must_use]
    pub fn copies(&self) -> SiteSet {
        self.copies
    }

    /// Read-only view of the per-copy protocol state (for tests and
    /// observability). Writes the operation-number bumps that memo hits
    /// deferred first.
    #[must_use]
    pub fn states(&mut self) -> &StateTable {
        self.memo.settle(&mut self.states);
        &self.states
    }

    /// Runs a state-exchange opportunity in every group.
    ///
    /// Under MCV/DV/LDV/ODV at most one group can be the majority
    /// partition. The topological variants can — rarely — reach a state
    /// where two groups both believe they are the majority block (the
    /// sequential-claim hazard, see DESIGN.md); such events are counted
    /// in [`DynamicPolicy::rival_grants`] rather than asserted away,
    /// because Figures 5–7 as published admit them.
    fn sync_all(&mut self, reach: &Reachability) -> bool {
        let DynamicPolicy {
            copies,
            full,
            rule,
            network,
            states,
            rival_grants,
            memo,
            probe,
            ..
        } = self;
        probe.valid = false;
        // Fast path: an immediate repeat of the previous exchange as the
        // copies see it (the common case — consecutive accesses, or
        // failures and repairs of sites without a copy, in between)
        // replays its commits without re-deciding. Each granted group's
        // participants all carry the op of the previous commit, so a
        // fresh READ would commit them at that op plus one, with the
        // version and partition set they already hold: the hit owes
        // them that bump and writes nothing.
        if memo.matches(reach, *copies) {
            *rival_grants += memo.rival_delta;
            memo.pending += 1;
            return memo.granted;
        }
        // The memo's own buffers, refilled: a miss allocates nothing.
        memo.settle(states);
        memo.commits.clear();
        memo.granted = false;
        memo.rival_delta = 0;
        for &group in reach.groups() {
            if let Ok(plan) = read(states, *copies, *full, rule, network.as_ref(), group) {
                plan.apply(states);
                if memo.granted {
                    debug_assert!(
                        rule.topological,
                        "two groups were both granted: mutual exclusion violated"
                    );
                    memo.rival_delta += 1;
                }
                memo.granted = true;
                memo.commits.push(plan.participants);
            }
        }
        *rival_grants += memo.rival_delta;
        memo.valid = true;
        memo.view.set(reach, *copies);
        memo.granted
    }

    /// An optimistic policy's answer to a topology change: would an
    /// access be granted under `reach`? From the last exchange when the
    /// copies' view is its view (the exchange left exactly its verdict
    /// behind), from the probe memo when the view is the last one
    /// probed, and from the READ on settled state otherwise.
    fn probe_availability(&mut self, reach: &Reachability) -> bool {
        if self.memo.matches(reach, self.copies) {
            return self.memo.granted;
        }
        if self.probe.valid && self.probe.view.matches(reach, self.copies) {
            return self.probe.available;
        }
        // Settled, `is_available` decides on the table itself.
        self.memo.settle(&mut self.states);
        self.probe.available = self.is_available(reach);
        self.probe.valid = true;
        self.probe.view.set(reach, self.copies);
        self.probe.available
    }

    /// Would some group of `reach` be served an access on `states`?
    fn grants_any(&self, states: &StateTable, reach: &Reachability) -> bool {
        let network = self.network.as_ref();
        reach
            .groups()
            .iter()
            .any(|&group| read(states, self.copies, self.full, &self.rule, network, group).is_ok())
    }

    /// Number of times two disjoint groups were granted in the same
    /// state exchange — non-zero only for the topological variants, and
    /// only after a sequential-claim lineage fork (see DESIGN.md).
    #[must_use]
    pub fn rival_grants(&self) -> u64 {
        self.rival_grants
    }
}

impl AvailabilityPolicy for DynamicPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn optimistic(&self) -> bool {
        self.optimistic
    }

    fn reset(&mut self) {
        // The memo settles into the table replaced next: its owed bumps
        // are discarded with it.
        self.memo.invalidate(&mut self.states);
        self.states = StateTable::fresh(self.copies);
        self.rival_grants = 0;
        self.probe.valid = false;
    }

    fn on_topology_change(&mut self, reach: &Reachability) -> bool {
        if self.optimistic {
            self.probe_availability(reach)
        } else {
            self.sync_all(reach)
        }
    }

    fn on_access(&mut self, reach: &Reachability) -> bool {
        self.sync_all(reach)
    }

    fn is_available(&self, reach: &Reachability) -> bool {
        if self.memo.pending == 0 {
            return self.grants_any(&self.states, reach);
        }
        // Bumps are owed, so the memo is valid. Its own view keeps the
        // verdict of its exchange, as a repeat would find: this is the
        // probe the simulator's debug assertions make after every hit,
        // answered without a copy. Any other view is decided on a
        // settled copy.
        if self.memo.view.is_of(reach, self.copies) {
            return self.memo.granted;
        }
        let mut settled = self.states.clone();
        self.memo.pay(&mut settled);
        self.grants_any(&settled, reach)
    }

    fn hazard_events(&self) -> u64 {
        self.rival_grants
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynvote_types::SiteId;

    fn reach(groups: &[&[usize]]) -> Reachability {
        Reachability::from_groups(
            groups
                .iter()
                .map(|g| SiteSet::from_indices(g.iter().copied()))
                .collect(),
        )
    }

    #[test]
    fn dv_shrinks_quorum_but_fails_ties() {
        let mut p = DynamicPolicy::dv(SiteSet::first_n(3));
        // B (S1) fails: {A, C} is a majority of {A,B,C} → P shrinks.
        let r = reach(&[&[0, 2]]);
        p.on_topology_change(&r);
        assert!(p.is_available(&r));
        assert_eq!(
            p.states().get(SiteId::new(0)).partition,
            SiteSet::from_indices([0, 2])
        );
        // A–C partition: 1-1 tie on {A, C}; plain DV refuses both sides.
        let r = reach(&[&[0], &[2]]);
        p.on_topology_change(&r);
        assert!(!p.is_available(&r));
    }

    #[test]
    fn ldv_wins_the_tie_with_the_max_site() {
        let mut p = DynamicPolicy::ldv(SiteSet::first_n(3));
        let r = reach(&[&[0, 2]]);
        p.on_topology_change(&r);
        // A–C partition: A = max({A, C}) wins alone.
        let r = reach(&[&[0], &[2]]);
        p.on_topology_change(&r);
        assert!(p.is_available(&r));
        assert_eq!(
            p.states().get(SiteId::new(0)).partition,
            SiteSet::from_indices([0])
        );
        // C's side stays refused even as other sites join it.
        let r = reach(&[&[0], &[1, 2]]);
        p.on_topology_change(&r);
        assert!(p.is_available(&r), "A's side still available");
    }

    #[test]
    fn dynamic_voting_survives_sequential_failures_mcv_cannot() {
        // 5 copies; sites fail one by one. DV stays available down to
        // the last two (then the tie-break matters); MCV dies at 2.
        let mut p = DynamicPolicy::ldv(SiteSet::first_n(5));
        let seq: &[&[usize]] = &[&[0, 1, 2, 3], &[0, 1, 2], &[0, 1], &[0]];
        for up in seq {
            let r = reach(&[up]);
            p.on_topology_change(&r);
            assert!(p.is_available(&r), "LDV should survive {up:?}");
        }
    }

    #[test]
    fn odv_ignores_topology_changes_between_accesses() {
        let mut p = DynamicPolicy::odv(SiteSet::first_n(3));
        assert!(p.optimistic());
        // B fails and recovers between two accesses: no state change.
        let degraded = reach(&[&[0, 2]]);
        p.on_topology_change(&degraded);
        assert_eq!(
            p.states().get(SiteId::new(0)).partition,
            SiteSet::first_n(3),
            "optimistic: partition set untouched by topology changes"
        );
        // The probe still answers correctly against the stale state.
        assert!(p.is_available(&degraded));
        // An access commits the shrink.
        assert!(p.on_access(&degraded));
        assert_eq!(
            p.states().get(SiteId::new(0)).partition,
            SiteSet::from_indices([0, 2])
        );
    }

    #[test]
    fn odv_transient_blip_never_shrinks_quorum() {
        // The configuration-F effect in miniature: a short failure that
        // heals before the next access leaves the quorum untouched,
        // while LDV would have shrunk and re-expanded it.
        let copies = SiteSet::first_n(3);
        let mut odv = DynamicPolicy::odv(copies);
        let mut ldv = DynamicPolicy::ldv(copies);
        let blip = reach(&[&[1, 2]]); // S0 briefly down
        let healed = reach(&[&[0, 1, 2]]);
        for p in [&mut odv, &mut ldv] {
            p.on_topology_change(&blip);
            p.on_topology_change(&healed);
        }
        assert_eq!(
            odv.states().get(SiteId::new(1)).partition,
            copies,
            "ODV never exchanged state"
        );
        assert_eq!(
            ldv.states().get(SiteId::new(1)).partition,
            copies,
            "LDV shrank to {{S1,S2}} then re-expanded on repair"
        );
        // But LDV's op numbers show the churn; ODV's do not.
        assert!(ldv.states().get(SiteId::new(1)).op > odv.states().get(SiteId::new(1)).op);
    }

    #[test]
    fn tdv_claims_co_segment_votes() {
        // A, B on one segment; C alone behind a gateway (S3).
        let net = dynvote_topology::NetworkBuilder::new()
            .segment("alpha", [0, 1, 3])
            .segment("beta", [2])
            .bridge(3, "beta")
            .build()
            .unwrap();
        let copies = SiteSet::from_indices([0, 1, 2]);
        let mut p = DynamicPolicy::tdv(copies, net.clone());

        // Everyone up, then C partitioned away (gateway S3 down):
        let r = net.reachability(SiteSet::from_indices([0, 1, 2]));
        p.on_topology_change(&r);
        assert_eq!(
            p.states().get(SiteId::new(0)).partition,
            SiteSet::from_indices([0, 1])
        );

        // Now A fails too. B alone claims A's vote (same segment):
        // P = {A, B}, T = {A, B} → 2 > 1 → available.
        let r = net.reachability(SiteSet::from_indices([1, 2]));
        // (gateway still down: groups are {B} and {C})
        let r2 =
            Reachability::from_groups(vec![SiteSet::from_indices([1]), SiteSet::from_indices([2])]);
        let _ = r;
        p.on_topology_change(&r2);
        assert!(p.is_available(&r2), "B claims A's co-segment vote");
        // LDV in the same history is unavailable (A is max of {A,B}).
        let mut ldv = DynamicPolicy::ldv(copies);
        ldv.on_topology_change(&reach(&[&[0, 1], &[2]]));
        ldv.on_topology_change(&r2);
        assert!(!ldv.is_available(&r2));
    }

    #[test]
    fn tdv_single_segment_behaves_like_available_copy() {
        // All copies on one segment: any single surviving copy keeps the
        // file available, however the others failed.
        let net = Network::single_segment(4);
        let copies = SiteSet::first_n(4);
        let mut p = DynamicPolicy::tdv(copies, net);
        for up in [&[0usize, 1, 2][..], &[1, 2][..], &[2][..]] {
            let r = reach(&[up]);
            p.on_topology_change(&r);
            assert!(p.is_available(&r), "TDV should survive {up:?}");
        }
    }

    #[test]
    fn total_failure_then_recovery_regenerates_partition() {
        let copies = SiteSet::first_n(3);
        let mut p = DynamicPolicy::ldv(copies);
        p.on_topology_change(&reach(&[&[0, 1]])); // S2 down, P := {0,1}
        p.on_topology_change(&reach(&[])); // everyone down
        assert!(!p.is_available(&reach(&[])));
        // S2 alone returns: it is stale (P_2 = {0,1,2}, old op) — 1 of 3
        // is no quorum, and it was not in the last majority partition.
        let r = reach(&[&[2]]);
        p.on_topology_change(&r);
        assert!(!p.is_available(&r));
        // S0 returns alongside: Q = {S0} (newest op), P_m = {0,1}, tie
        // won by S0 = max; RECOVER folds S2 back in.
        let r = reach(&[&[0, 2]]);
        p.on_topology_change(&r);
        assert!(p.is_available(&r));
        assert_eq!(
            p.states().get(SiteId::new(2)).partition,
            SiteSet::from_indices([0, 2])
        );
    }

    /// Reproduces the *sequential-claim hazard* of Topological Dynamic
    /// Voting as published (Figures 5–7): after a total failure of a
    /// segment, the co-segment survivors can alternately claim each
    /// other's votes without ever communicating, forking the lineage.
    /// The paper's mutual-consistency argument only excludes
    /// *concurrent* rival claims; this sequential interleaving slips
    /// through. We reproduce the protocol faithfully and surface the
    /// fork through [`DynamicPolicy::rival_grants`].
    #[test]
    fn tdv_sequential_claim_hazard_is_reproduced_and_counted() {
        let net = Network::single_segment(2);
        let copies = SiteSet::first_n(2);
        let mut p = DynamicPolicy::tdv(copies, net);
        // S0 fails; S1 claims S0's vote and carries on alone.
        let only_s1 = reach(&[&[1]]);
        p.on_topology_change(&only_s1);
        assert!(p.is_available(&only_s1));
        assert_eq!(
            p.states().get(SiteId::new(1)).partition,
            SiteSet::from_indices([1])
        );
        // S1 fails before S0 returns; S0 recovers *alone* and — per
        // Figure 7 — claims S1's vote based on its stale partition set.
        p.on_topology_change(&reach(&[]));
        let only_s0 = reach(&[&[0]]);
        p.on_topology_change(&only_s0);
        assert!(
            p.is_available(&only_s0),
            "Figure 7 grants the recovery: the hazard is real"
        );
        // The lineage has forked: both sites carry op 2 with different
        // partition sets. When both finally come up, both singleton
        // lineages coexist — counted, not asserted.
        assert_eq!(
            p.states().get(SiteId::new(0)).partition,
            SiteSet::from_indices([0])
        );
        assert_eq!(
            p.states().get(SiteId::new(1)).partition,
            SiteSet::from_indices([1])
        );
        let states = p.states();
        assert_eq!(
            states.get(SiteId::new(0)).op,
            states.get(SiteId::new(1)).op,
            "equal operation numbers from rival commits"
        );
        let healed = reach(&[&[0, 1]]);
        p.on_topology_change(&healed);
        assert!(p.is_available(&healed));
    }

    #[test]
    fn ldv_rejects_the_sequential_claim_scenario() {
        // The same interleaving under LDV: S1 (not max) never proceeds
        // alone, so no fork is possible — quantifying what the
        // topological claim trades for its availability.
        let copies = SiteSet::first_n(2);
        let mut p = DynamicPolicy::ldv(copies);
        let only_s1 = reach(&[&[1]]);
        p.on_topology_change(&only_s1);
        assert!(!p.is_available(&only_s1), "S1 loses the tie to S0");
        p.on_topology_change(&reach(&[]));
        let only_s0 = reach(&[&[0]]);
        p.on_topology_change(&only_s0);
        assert!(p.is_available(&only_s0), "S0 holds the tie-break");
        assert_eq!(p.rival_grants(), 0);
    }

    #[test]
    fn reset_restores_fresh_state() {
        let copies = SiteSet::first_n(3);
        let mut p = DynamicPolicy::ldv(copies);
        p.on_topology_change(&reach(&[&[0, 1]]));
        p.reset();
        assert_eq!(p.states().get(SiteId::new(0)).partition, copies);
        assert_eq!(p.states().get(SiteId::new(0)).op, 1);
    }

    #[test]
    fn custom_lexicon_flips_tie_winner() {
        let copies = SiteSet::first_n(2);
        let rule = Rule::with_lexicon(Lexicon::ascending());
        let mut p = DynamicPolicy::custom("LDV-asc", copies, rule, None);
        let r = reach(&[&[0], &[1]]);
        p.on_topology_change(&r);
        // With the ascending lexicon, S1 (not S0) wins the tie.
        assert!(p.is_available(&r));
        assert_eq!(
            p.states().get(SiteId::new(1)).partition,
            SiteSet::from_indices([1])
        );
        assert_eq!(
            p.states().get(SiteId::new(0)).partition,
            copies,
            "S0 losing side untouched"
        );
    }

    /// Strict MCV: a static majority of the copies, no tie vote.
    fn strict_mcv(copies: SiteSet) -> DynamicPolicy {
        let rule = Rule::static_majority(None);
        DynamicPolicy::custom("MCV", copies, rule, None)
    }

    /// MCV breaking ties toward the top copy of `lexicon`.
    fn mcv_under(copies: SiteSet, lexicon: Lexicon) -> DynamicPolicy {
        let rule = Protocol::Mcv.rule(lexicon);
        DynamicPolicy::custom("MCV", copies, rule, None)
    }

    /// The brute-force oracle: over every single group of 4 and 5
    /// copies, with and without two bystanders, each MCV rule grants iff
    /// `|g ∩ copies| > n/2`, or `= n/2` with the rule's top copy; strict
    /// MCV only on `>`. One policy per rule sees every group in turn, so
    /// the quorum must also never adapt.
    #[test]
    fn mcv_grants_exactly_a_static_majority_of_the_copies() {
        let bystanders = SiteSet::from_indices([6, 7]);
        for n in [4, 5] {
            let copies = SiteSet::first_n(n);
            let mut rules = [
                (DynamicPolicy::mcv(copies), Some(SiteId::new(0))),
                (strict_mcv(copies), None),
                (
                    mcv_under(copies, Lexicon::ascending()),
                    Some(SiteId::new(n - 1)),
                ),
            ];
            for mask in 0..1u64 << n {
                for extra in [SiteSet::EMPTY, bystanders] {
                    let group = SiteSet::from_bits(mask) | extra;
                    let r = Reachability::from_groups(vec![group]);
                    let held = 2 * (group & copies).len();
                    for (p, top) in &mut rules {
                        let tie_won = top.is_some_and(|site| group.contains(site));
                        let want = held > n || (held == n && tie_won);
                        let at = format!("n = {n}, {top:?} on top, group {group}");
                        assert_eq!(p.is_available(&r), want, "{at}: probe");
                        assert_eq!(p.on_topology_change(&r), want, "{at}: change");
                        assert_eq!(p.on_access(&r), want, "{at}: access");
                    }
                }
            }
        }
    }

    /// The handlers answer from the memo; `is_available` decides. Both
    /// must agree on every step of a walk through partitions that
    /// repeat, that the voters see alike, and that differ, for the three
    /// MCV rules and for copies with witnesses.
    #[test]
    fn the_remembered_verdict_is_the_decided_one() {
        let walk: [&[&[usize]]; 9] = [
            &[&[0, 1, 2, 3]],
            &[&[0, 1, 2, 3]],
            &[&[0, 1], &[2, 3]],
            &[&[0, 1, 6], &[2, 3]],
            &[&[2, 3], &[0, 1]],
            &[&[2, 3]],
            &[&[2, 3, 5], &[7]],
            &[],
            &[&[0, 1], &[2, 3]],
        ];
        let (copies, full, witnesses) = (
            SiteSet::first_n(4),
            SiteSet::from_indices([0, 2]),
            SiteSet::from_indices([1, 3]),
        );
        for mut p in [
            DynamicPolicy::mcv(copies),
            strict_mcv(copies),
            mcv_under(copies, Lexicon::ascending()),
            DynamicPolicy::ldv(full).with_witnesses(witnesses),
            DynamicPolicy::odv(full).with_witnesses(witnesses),
        ] {
            for (i, groups) in walk.iter().enumerate() {
                let r = reach(groups);
                let again = Reachability::from_groups(r.groups().to_vec());
                let want = p.is_available(&r);
                let got = if i % 2 == 0 {
                    p.on_topology_change(&r)
                } else {
                    p.on_access(&r)
                };
                let at = format!("{} step {i}: {groups:?}", p.name);
                assert_eq!(got, want, "{at}");
                assert_eq!(p.is_available(&r), want, "{at} after");
                assert_eq!(p.on_access(&again), want, "{at} rebuilt");
                assert_eq!(p.on_access(&r), want, "{at} repeated");
            }
        }
    }

    #[test]
    #[should_panic(expected = "needs copies")]
    fn mcv_without_copies_is_rejected() {
        let _ = DynamicPolicy::mcv(SiteSet::EMPTY);
    }

    // ---- Witnesses --------------------------------------------------------

    /// Two copies + one witness behaves like three copies for quorum
    /// purposes while any copy survives.
    #[test]
    fn witness_breaks_the_two_copy_tie() {
        let full = SiteSet::from_indices([0, 1]);
        let w = SiteSet::from_indices([2]);
        let mut p = DynamicPolicy::ldv(full).with_witnesses(w);
        // Copy S1 fails: {S0, witness} is 2 of 3 — available.
        let r = reach(&[&[0, 2]]);
        p.on_topology_change(&r);
        assert!(p.is_available(&r));
        // Plain two-copy LDV in the same situation depends on the tie
        // break; with the witness the majority is genuine.
        assert_eq!(
            p.states().get(SiteId::new(0)).partition,
            SiteSet::from_indices([0, 2])
        );
    }

    /// The witness S0 ranks above both copies, so it wins the tie alone
    /// and only the data check refuses it.
    #[test]
    fn witness_alone_cannot_serve_data() {
        let full = SiteSet::from_indices([1, 2]);
        let w = SiteSet::from_indices([0]);
        let mut p = DynamicPolicy::ldv(full).with_witnesses(w);
        // Shrink to {witness, S1}:
        p.on_topology_change(&reach(&[&[0, 1]]));
        assert!(p.is_available(&reach(&[&[0, 1]])));
        // Now S1 fails: the witness alone wins the tie of {S0, S1}...
        // but holds no data. The file must be unavailable.
        let r = reach(&[&[0]]);
        p.on_topology_change(&r);
        assert!(!p.is_available(&r), "witness holds no data");
    }

    #[test]
    fn stale_copy_plus_witness_cannot_serve_newer_data() {
        let full = SiteSet::from_indices([1, 2]);
        let w = SiteSet::from_indices([0]);
        let mut p = DynamicPolicy::ldv(full).with_witnesses(w);
        // S2 partitioned away; {witness, S1} proceed (writes included:
        // our sync models an up-to-date commit).
        p.on_topology_change(&reach(&[&[0, 1], &[2]]));
        // S1 dies; S2 heals back next to the witness, which wins the tie
        // of {S0, S1}. The witness's version stamp exceeds S2's — the
        // quorum exists but the data do not.
        let r = reach(&[&[0, 2]]);
        // Simulate that a write bumped the version while S2 was away.
        let states = &mut p.states;
        states.get_mut(SiteId::new(0)).version += 1;
        states.get_mut(SiteId::new(1)).version += 1;
        p.on_topology_change(&r);
        assert!(
            !p.is_available(&r),
            "latest version lives only on dead S1 and the witness"
        );
    }

    #[test]
    fn optimistic_witnesses_defer_state_changes() {
        let full = SiteSet::from_indices([0, 1]);
        let mut p = DynamicPolicy::odv(full).with_witnesses(SiteSet::from_indices([2]));
        assert!(p.optimistic());
        p.on_topology_change(&reach(&[&[0, 2]]));
        assert_eq!(
            p.states().get(SiteId::new(0)).partition,
            SiteSet::first_n(3),
            "no exchange before an access"
        );
        assert!(p.on_access(&reach(&[&[0, 2]])));
        assert_eq!(
            p.states().get(SiteId::new(0)).partition,
            SiteSet::from_indices([0, 2])
        );
    }

    #[test]
    fn reset_restores_the_witnesses() {
        let full = SiteSet::from_indices([0]);
        let mut p = DynamicPolicy::odv(full).with_witnesses(SiteSet::from_indices([1]));
        assert_eq!(p.name, "ODV+W");
        p.on_access(&reach(&[&[0]]));
        p.reset();
        assert_eq!(
            p.states().get(SiteId::new(0)).partition,
            SiteSet::first_n(2)
        );
    }

    #[test]
    #[should_panic(expected = "cannot be both")]
    fn a_witness_that_is_a_copy_is_rejected() {
        let _ = DynamicPolicy::ldv(SiteSet::first_n(2)).with_witnesses(SiteSet::from_indices([1]));
    }

    #[test]
    #[should_panic(expected = "dynamic-voting protocol")]
    fn mcv_with_witnesses_is_rejected() {
        let _ = DynamicPolicy::mcv(SiteSet::first_n(2)).with_witnesses(SiteSet::from_indices([2]));
    }

    // ---- Memo soundness ---------------------------------------------------

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The Figure 8 network: sites 0–4 on the main segment, 5 alone on
    /// the second (gateway S3), 6 and 7 on the third (gateway S4).
    fn figure_8() -> Network {
        dynvote_topology::NetworkBuilder::new()
            .segment("main", [0, 1, 2, 3, 4])
            .segment("second", [5])
            .segment("third", [6, 7])
            .bridge(3, "second")
            .bridge(4, "third")
            .build()
            .unwrap()
    }

    /// Every protocol, and LDV and ODV with the top copy made a witness.
    fn every_constructor(copies: SiteSet, net: &Network) -> [DynamicPolicy; 8] {
        let top = SiteSet::singleton(copies.max().expect("copies"));
        [
            DynamicPolicy::mcv(copies),
            DynamicPolicy::dv(copies),
            DynamicPolicy::ldv(copies),
            DynamicPolicy::odv(copies),
            DynamicPolicy::tdv(copies, net.clone()),
            DynamicPolicy::otdv(copies, net.clone()),
            DynamicPolicy::ldv(copies - top).with_witnesses(top),
            DynamicPolicy::odv(copies - top).with_witnesses(top),
        ]
    }

    #[derive(Clone, Copy, Debug)]
    enum Call {
        Topology,
        Access,
    }

    /// Memo hits seen while driving a policy.
    #[derive(Default)]
    struct Hits {
        /// Sync memo hits on the id of the last partition it matched.
        by_id: u64,
        /// Sync memo hits on the copies' view of another construction.
        by_view: u64,
        /// Probe memo hits, on either key.
        probe: u64,
    }

    /// Drives `policy` and a twin whose memos are forgotten before every
    /// call through `steps`, and demands the same answers, states,
    /// probes and rival grants after each one. The probes ask about the
    /// step's own partition and about the next step's, so a policy in
    /// the middle of a run of memo hits is read as well as driven. Each
    /// call is also made on a copy of `policy` that forgets its memos
    /// just before it, in the middle of whatever run of hits `policy`
    /// is in.
    fn assert_memo_is_invisible(
        mut policy: DynamicPolicy,
        steps: &[(Call, Reachability)],
        hits: &mut Hits,
    ) {
        let mut twin = policy.clone();
        for (i, (call, reach)) in steps.iter().enumerate() {
            let next = &steps[(i + 1) % steps.len()].1;
            let groups = reach.groups();
            let probing = matches!(call, Call::Topology) && policy.optimistic;
            let memo = &policy.memo;
            if memo.valid && memo.view.is_of(reach, policy.copies) {
                if memo.view.id == reach.id() {
                    hits.by_id += 1;
                } else {
                    hits.by_view += 1;
                }
            } else if probing && policy.probe.valid && policy.probe.view.is_of(reach, policy.copies)
            {
                hits.probe += 1;
            }
            let mut forgetful = policy.clone();
            for p in [&mut twin, &mut forgetful] {
                p.memo.invalidate(&mut p.states);
                p.probe.valid = false;
            }
            let [got, want, forgot] =
                [&mut policy, &mut twin, &mut forgetful].map(|p| match call {
                    Call::Topology => p.on_topology_change(reach),
                    Call::Access => p.on_access(reach),
                });
            let at = format!("{} step {i}: {call:?} {groups:?}", policy.name);
            assert_eq!(got, want, "{at}: answer");
            assert_eq!(forgot, want, "{at}: answer after forgetting");
            // `states()` settles the owed bumps; read it only now and
            // then, so that runs of hits go on owing them.
            let read = if i % 8 == 7 {
                policy.states().clone()
            } else {
                owed_states(&policy)
            };
            assert_eq!(&read, twin.states(), "{at}: states");
            assert_eq!(
                forgetful.states(),
                twin.states(),
                "{at}: states after forgetting"
            );
            assert_eq!(policy.rival_grants(), twin.rival_grants(), "{at}: rivals");
            assert_eq!(
                policy.hazard_events(),
                twin.hazard_events(),
                "{at}: hazards"
            );
            for probe in [reach, next] {
                assert_eq!(
                    policy.is_available(probe),
                    twin.is_available(probe),
                    "{at}: probe of {:?}",
                    probe.groups()
                );
            }
        }
    }

    /// The table `policy.states()` would show, read without settling.
    fn owed_states(policy: &DynamicPolicy) -> StateTable {
        let mut states = policy.states.clone();
        policy.memo.pay(&mut states);
        states
    }

    /// Up to three groups over the eight sites, each site down or in one
    /// of them.
    fn random_partition(rng: &mut StdRng) -> Reachability {
        let mut groups = vec![SiteSet::EMPTY; 3];
        for site in 0..8 {
            let slot = rng.gen_range(0..4usize);
            if slot < 3 {
                groups[slot].insert(SiteId::new(site));
            }
        }
        groups.retain(|g| !g.is_empty());
        Reachability::from_groups(groups)
    }

    /// The same split of the copies, with every other site moved to
    /// another group, to a group of its own, or down.
    fn same_view_elsewhere(
        rng: &mut StdRng,
        reach: &Reachability,
        copies: SiteSet,
    ) -> Reachability {
        let mut groups: Vec<SiteSet> = reach.groups().iter().map(|&g| g & copies).collect();
        for site in (SiteSet::first_n(8) - copies).iter() {
            let slot = rng.gen_range(0..groups.len() + 2);
            if slot < groups.len() {
                groups[slot].insert(site);
            } else if slot == groups.len() {
                let at = rng.gen_range(0..groups.len() + 1);
                groups.insert(at, SiteSet::singleton(site));
            }
        }
        groups.retain(|g| !g.is_empty());
        Reachability::from_groups(groups)
    }

    /// A seeded walk: accesses, fresh partitions, partitions the copies
    /// see as the current one, returns to the one before, and accesses
    /// under a partition no topology change announced.
    fn random_steps(seed: u64, copies: SiteSet, len: usize) -> Vec<(Call, Reachability)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut current = Reachability::from_groups(vec![SiteSet::first_n(8)]);
        let mut before = current.clone();
        let mut steps = Vec::with_capacity(len);
        for _ in 0..len {
            let roll = rng.gen_range(0..10u32);
            let next = match roll {
                0..=3 => {
                    steps.push((Call::Access, current.clone()));
                    continue;
                }
                4 => {
                    steps.push((Call::Access, random_partition(&mut rng)));
                    continue;
                }
                5 | 6 => random_partition(&mut rng),
                7 | 8 => same_view_elsewhere(&mut rng, &current, copies),
                _ => before.clone(),
            };
            before = std::mem::replace(&mut current, next);
            steps.push((Call::Topology, current.clone()));
        }
        steps
    }

    #[test]
    fn memos_are_invisible_on_random_figure_8_walks() {
        let net = figure_8();
        let placements = [
            SiteSet::from_indices([0, 1, 3]),
            SiteSet::from_indices([0, 1, 5]),
            SiteSet::from_indices([0, 5, 7]),
            SiteSet::from_indices([0, 1, 5, 7]),
            SiteSet::from_indices([0, 1, 2, 3]),
            SiteSet::from_indices([1, 2, 6, 7]),
            SiteSet::from_indices([0, 2, 4, 5, 6]),
            SiteSet::first_n(8),
        ];
        let mut hits = Hits::default();
        for (p, &copies) in placements.iter().enumerate() {
            for seed in 0..12 {
                let steps = random_steps(100 * p as u64 + seed, copies, 300);
                for policy in every_constructor(copies, &net) {
                    assert_memo_is_invisible(policy, &steps, &mut hits);
                }
            }
        }
        assert!(
            hits.by_id > 10_000 && hits.by_view > 1_000 && hits.probe > 1_000,
            "the walks must exercise both memos and both keys: {} sync hits by id, \
             {} by view, {} probe hits",
            hits.by_id,
            hits.by_view,
            hits.probe
        );
    }

    /// The walks again, each step's partition built a second time, with
    /// equal groups, on every other step: a run of accesses then meets
    /// two constructions of one partition in turn.
    #[test]
    fn memos_are_invisible_when_equal_partitions_alternate() {
        let net = figure_8();
        let placements = [
            SiteSet::from_indices([0, 1, 5]),
            SiteSet::from_indices([0, 1, 5, 7]),
            SiteSet::from_indices([1, 2, 6, 7]),
        ];
        let mut hits = Hits::default();
        for (p, &copies) in placements.iter().enumerate() {
            for seed in 0..4 {
                let steps: Vec<(Call, Reachability)> =
                    random_steps(1_000 + 100 * p as u64 + seed, copies, 300)
                        .into_iter()
                        .enumerate()
                        .map(|(i, (call, reach))| {
                            if i % 2 == 1 {
                                (call, Reachability::from_groups(reach.groups().to_vec()))
                            } else {
                                (call, reach)
                            }
                        })
                        .collect();
                for policy in every_constructor(copies, &net) {
                    assert_memo_is_invisible(policy, &steps, &mut hits);
                }
            }
        }
        // A return to the partition the memo last saw, in the same
        // construction, still hits on its id: a handful.
        assert!(
            hits.by_view > 1_000 && hits.by_view > 50 * hits.by_id && hits.probe > 100,
            "the memo hits must miss the identity key and hit the view: {} sync hits \
             by id, {} by view, {} probe hits",
            hits.by_id,
            hits.by_view,
            hits.probe
        );
    }

    /// Why `analytic_check`'s TDV row on one segment reads below the
    /// CTMC. Copies A = S0 and B = S1 share a segment; the up-set walks
    /// {A, B} → {B} → {} → {A}. B claims A's vote and carries on alone;
    /// after the total failure A returns alone and claims B's vote from
    /// its own stale P = {A, B}: the sequential-claim hazard (DESIGN
    /// §3) on one segment. Available Copy refuses that last step, and
    /// the CTMC's TDV chain, which keeps one partition set for the
    /// whole file, is Available Copy's chain. The two claims never meet
    /// in one exchange, so `rival_grants` never sees them.
    #[test]
    fn tdv_on_one_segment_grants_where_available_copy_refuses() {
        let net = Network::single_segment(2);
        let copies = SiteSet::first_n(2);
        let mut tdv = DynamicPolicy::tdv(copies, net.clone());
        let mut ac = crate::policy::AvailableCopyPolicy::new(copies);
        let walk: [&[usize]; 4] = [&[0, 1], &[1], &[], &[0]];
        let answers: Vec<(bool, bool)> = walk
            .iter()
            .map(|up| {
                let r = net.reachability(SiteSet::from_indices(up.iter().copied()));
                (tdv.on_topology_change(&r), ac.on_topology_change(&r))
            })
            .collect();
        assert_eq!(
            answers,
            [(true, true), (true, true), (false, false), (true, false)],
            "(TDV, Available Copy) after each step"
        );
        let (a, b) = (SiteId::new(0), SiteId::new(1));
        assert_eq!(tdv.states().get(a).op, 3, "A committed alone");
        assert_eq!(tdv.states().get(b).op, 3, "as B did before it");
        assert_eq!(tdv.states().get(a).partition, SiteSet::singleton(a));
        assert_eq!(tdv.states().get(b).partition, SiteSet::singleton(b));
        assert_eq!(ac.current(), SiteSet::singleton(b));
        let both = net.reachability(copies);
        assert!(tdv.on_topology_change(&both));
        assert_eq!(tdv.rival_grants(), 0, "the rival claims never met");
    }

    /// The simulator never writes, so no exchange moves a version, and
    /// under a static majority the READ commits nothing, so MCV moves no
    /// operation number (nor a partition set): on every step of the
    /// memo walks, for every constructor.
    #[test]
    fn exchanges_move_no_version_and_mcv_moves_no_operation_number() {
        let net = figure_8();
        let placements = [
            SiteSet::from_indices([0, 1, 5]),
            SiteSet::from_indices([0, 1, 5, 7]),
            SiteSet::from_indices([1, 2, 6, 7]),
        ];
        for (p, &copies) in placements.iter().enumerate() {
            let steps = random_steps(2_000 + p as u64, copies, 300);
            for mut policy in every_constructor(copies, &net) {
                let fixed = policy.rule.static_majority;
                let voters = policy.copies;
                for (i, (call, reach)) in steps.iter().enumerate() {
                    match call {
                        Call::Topology => policy.on_topology_change(reach),
                        Call::Access => policy.on_access(reach),
                    };
                    let at = format!("{} step {i}", policy.name);
                    let states = policy.states();
                    for site in voters.iter() {
                        let state = states.get(site);
                        assert_eq!(state.version, 1, "{at}: {site} moved a version");
                        if fixed {
                            assert_eq!(state.op, 1, "{at}: {site} moved an operation number");
                            assert_eq!(state.partition, voters, "{at}: {site} moved P");
                        }
                    }
                }
            }
        }
    }

    /// The two-site TDV fork: S1 carries on alone, fails, and S0 recovers
    /// alone on its stale partition set. Each lineage then takes a
    /// different number of accesses before the two meet, so the memo's
    /// op bumps decide which lineage wins the merge.
    #[test]
    fn memos_are_invisible_through_the_sequential_claim_fork() {
        let net = Network::single_segment(2);
        let copies = SiteSet::first_n(2);
        let (only_s0, only_s1, none, both) = (
            reach(&[&[0]]),
            reach(&[&[1]]),
            reach(&[]),
            reach(&[&[0, 1]]),
        );
        for (s1_runs, s0_runs) in [(0, 0), (3, 1), (1, 3), (2, 2), (5, 0), (0, 5)] {
            let mut steps = vec![(Call::Topology, only_s1.clone())];
            steps.extend((0..s1_runs).map(|_| (Call::Access, only_s1.clone())));
            steps.push((Call::Topology, none.clone()));
            steps.push((Call::Topology, only_s0.clone()));
            steps.extend((0..s0_runs).map(|_| (Call::Access, only_s0.clone())));
            steps.push((Call::Topology, both.clone()));
            steps.push((Call::Access, both.clone()));
            for policy in [
                DynamicPolicy::tdv(copies, net.clone()),
                DynamicPolicy::otdv(copies, net.clone()),
            ] {
                assert_memo_is_invisible(policy, &steps, &mut Hits::default());
            }
        }
    }
}
