//! The dynamic-voting policy family: DV, LDV, ODV, TDV, OTDV.

use dynvote_topology::{Network, Reachability};
use dynvote_types::SiteSet;

use crate::decision::{decide, Rule};
use crate::lexicon::Lexicon;
use crate::state::StateTable;

use super::AvailabilityPolicy;

/// When recovered sites are reintegrated into the partition set.
///
/// The paper's RECOVER procedure "repeats until successful". Under the
/// instantaneous (connection-vector) protocols a repaired site therefore
/// rejoins the majority partition the moment it is up; under the
/// optimistic protocols the *whole* state exchange — including recovery —
/// happens at access time. `OnRepair` is provided for the ablation
/// benchmark that isolates how much of ODV's advantage comes from lazy
/// *shrinking* versus lazy *rejoining*.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejoinMode {
    /// State exchange at every topology change (instantaneous protocols).
    OnRepair,
    /// State exchange only at access time (optimistic protocols).
    OnAccess,
    /// Quorums *shrink* on every topology change (a READ-style commit
    /// among the current copies, Figure 1), but stale/recovered copies
    /// are *reintegrated* only at access time (the RECOVER of Figure 3
    /// runs as part of the next access). This models a connection-vector
    /// implementation whose recovery is an explicit, access-driven
    /// operation — the likely behaviour of the paper's own LDV
    /// simulation, and the ablation that reproduces the Table 2
    /// configuration-F inversion where ODV beats LDV.
    Hybrid,
}

/// The dynamic-voting family, parameterized along the paper's three axes:
///
/// * **tie-break** — plain DV fails even splits; LDV and everything
///   derived from it applies the lexicographic rule;
/// * **topological** — TDV/OTDV claim the votes of unreachable
///   co-segment members of the previous majority partition;
/// * **optimistic** — ODV/OTDV exchange state only at access time.
///
/// All five protocols share one implementation whose behaviour is fully
/// determined by the [`Rule`] and the [`RejoinMode`]; the constructors
/// ([`DynamicPolicy::dv`], [`DynamicPolicy::ldv`], [`DynamicPolicy::odv`],
/// [`DynamicPolicy::tdv`], [`DynamicPolicy::otdv`]) pick the paper's
/// combinations.
#[derive(Clone, Debug)]
pub struct DynamicPolicy {
    name: String,
    copies: SiteSet,
    rule: Rule,
    network: Option<Network>,
    mode: RejoinMode,
    states: StateTable,
    rival_grants: u64,
    memo: SyncMemo,
}

/// Memo of the most recently *executed* state exchange.
///
/// Repeating an exchange with the same partition structure and the same
/// reintegrate flavor back-to-back takes exactly the same branches: a
/// granted exchange leaves its participants current with the partition
/// set equal to the participant set, so running it again grants the
/// same groups and re-commits the same participants at the same version
/// with one higher operation number, and a refused exchange mutates
/// nothing at all. Long runs of accesses between topology changes — the
/// hot path of every simulation — therefore replay the memoized commits
/// instead of re-deciding. See DESIGN.md, "Grant memoization".
///
/// The replay *must* include the operation-number bump: the topological
/// variants compare op counters across rival lineages when partitions
/// merge, so freezing the counters during a memoized run would change
/// which lineage wins the merge. The memo only skips [`decide`], never
/// the commit.
///
/// The key is the exact group list (not just the up-set): tests and
/// exotic drivers may present different partitions over the same up
/// sites, and a false hit would corrupt the protocol state.
#[derive(Clone, Debug, Default)]
struct SyncMemo {
    valid: bool,
    reintegrate: bool,
    groups: Vec<SiteSet>,
    /// `(participants, version)` of every granted group's commit, in
    /// group order.
    commits: Vec<(SiteSet, u64)>,
    granted: bool,
    rival_delta: u64,
}

impl SyncMemo {
    fn matches(&self, groups: &[SiteSet], reintegrate: bool) -> bool {
        self.valid && self.reintegrate == reintegrate && self.groups == groups
    }

    fn store(
        &mut self,
        groups: &[SiteSet],
        reintegrate: bool,
        commits: Vec<(SiteSet, u64)>,
        granted: bool,
        rival_delta: u64,
    ) {
        self.valid = true;
        self.reintegrate = reintegrate;
        self.groups.clear();
        self.groups.extend_from_slice(groups);
        self.commits = commits;
        self.granted = granted;
        self.rival_delta = rival_delta;
    }

    fn invalidate(&mut self) {
        self.valid = false;
        self.groups.clear();
        self.commits.clear();
    }
}

impl DynamicPolicy {
    fn new(
        name: impl Into<String>,
        copies: SiteSet,
        rule: Rule,
        network: Option<Network>,
        mode: RejoinMode,
    ) -> Self {
        assert!(!copies.is_empty(), "a replicated file needs copies");
        assert!(
            !rule.topological || network.is_some(),
            "topological rules require a network"
        );
        DynamicPolicy {
            name: name.into(),
            copies,
            states: StateTable::fresh(copies),
            rule,
            network,
            mode,
            rival_grants: 0,
            memo: SyncMemo::default(),
        }
    }

    /// Original Dynamic Voting (Davčev–Burkhard): instantaneous, strict
    /// majority only.
    #[must_use]
    pub fn dv(copies: SiteSet) -> Self {
        DynamicPolicy::new("DV", copies, Rule::dv(), None, RejoinMode::OnRepair)
    }

    /// Lexicographic Dynamic Voting (Jajodia): instantaneous with the
    /// tie-break.
    #[must_use]
    pub fn ldv(copies: SiteSet) -> Self {
        DynamicPolicy::new(
            "LDV",
            copies,
            Rule::lexicographic(),
            None,
            RejoinMode::OnRepair,
        )
    }

    /// Optimistic Dynamic Voting (this paper, §2): the LDV decision rule
    /// driven only by access-time state exchange.
    #[must_use]
    pub fn odv(copies: SiteSet) -> Self {
        DynamicPolicy::new(
            "ODV",
            copies,
            Rule::lexicographic(),
            None,
            RejoinMode::OnAccess,
        )
    }

    /// Topological Dynamic Voting (this paper, §3): instantaneous,
    /// claiming co-segment votes.
    #[must_use]
    pub fn tdv(copies: SiteSet, network: Network) -> Self {
        DynamicPolicy::new(
            "TDV",
            copies,
            Rule::topological(),
            Some(network),
            RejoinMode::OnRepair,
        )
    }

    /// Optimistic Topological Dynamic Voting (this paper, §3, Figs 5–7).
    #[must_use]
    pub fn otdv(copies: SiteSet, network: Network) -> Self {
        DynamicPolicy::new(
            "OTDV",
            copies,
            Rule::topological(),
            Some(network),
            RejoinMode::OnAccess,
        )
    }

    /// LDV whose quorums shrink instantly but whose recoveries run only
    /// at access time ([`RejoinMode::Hybrid`]) — the ablation variant
    /// that isolates where ODV's configuration-F advantage comes from.
    #[must_use]
    pub fn ldv_lazy_rejoin(copies: SiteSet) -> Self {
        DynamicPolicy::new(
            "LDV-lazy",
            copies,
            Rule::lexicographic(),
            None,
            RejoinMode::Hybrid,
        )
    }

    /// A custom family member (used by ablation studies), e.g. LDV with
    /// a reversed lexicon or ODV with eager rejoining.
    #[must_use]
    pub fn custom(
        name: impl Into<String>,
        copies: SiteSet,
        lexicon: Option<Lexicon>,
        network: Option<Network>,
        mode: RejoinMode,
    ) -> Self {
        let rule = Rule {
            tie_break: lexicon,
            topological: network.is_some(),
            ..Rule::dv()
        };
        DynamicPolicy::new(name, copies, rule, network, mode)
    }

    /// The copies this policy manages.
    #[must_use]
    pub fn copies(&self) -> SiteSet {
        self.copies
    }

    /// Read-only view of the per-copy protocol state (for tests and
    /// observability).
    #[must_use]
    pub fn states(&self) -> &StateTable {
        &self.states
    }

    /// Runs one state-exchange opportunity inside `group`. With
    /// `reintegrate`, every recovering/stale member RECOVERs and an
    /// access commits — the composite effect of the paper's RECOVER
    /// loop followed by a READ; without it, only a READ-style commit
    /// among the current copies runs (quorums shrink, nobody rejoins).
    /// Returns the committed `(participants, version)` when the group
    /// was the majority partition.
    fn sync_group(&mut self, group: SiteSet, reintegrate: bool) -> Option<(SiteSet, u64)> {
        let d = decide(
            group,
            self.copies,
            &self.states,
            &self.rule,
            self.network.as_ref(),
        );
        if d.is_granted() {
            let participants = if reintegrate {
                // RECOVER(S ∪ {l}) for each rejoining l, then the
                // access: everyone in the group ends current.
                group & self.copies
            } else {
                // READ commit (Figure 1): P := S, stale members wait.
                d.current_set
            };
            self.states
                .commit(participants, d.max_op + 1, d.max_version, participants);
            Some((participants, d.max_version))
        } else {
            None
        }
    }

    /// Runs a state-exchange opportunity in every group.
    ///
    /// Under DV/LDV/ODV at most one group can be the majority partition.
    /// The topological variants can — rarely — reach a state where two
    /// groups both believe they are the majority block (the
    /// sequential-claim hazard, see DESIGN.md); such events are counted
    /// in [`DynamicPolicy::rival_grants`] rather than asserted away,
    /// because Figures 5–7 as published admit them.
    fn sync_all(&mut self, reach: &Reachability, reintegrate: bool) -> bool {
        // Fast path: an immediate repeat of the previous exchange (the
        // common case — consecutive accesses with no topology change in
        // between) replays its commits without re-deciding. The
        // operation-number bump is preserved exactly: each granted
        // group's participants all carry the op of the previous commit,
        // so the repeat commits at that op plus one, just as a fresh
        // `decide` would conclude.
        if self.memo.matches(reach.groups(), reintegrate) {
            self.rival_grants += self.memo.rival_delta;
            for i in 0..self.memo.commits.len() {
                let (participants, version) = self.memo.commits[i];
                let site = participants.iter().next().expect("commits are non-empty");
                let op = self.states.get(site).op + 1;
                self.states.commit(participants, op, version, participants);
            }
            return self.memo.granted;
        }
        // The memo's own buffer, refilled: a miss allocates nothing.
        let mut commits = std::mem::take(&mut self.memo.commits);
        commits.clear();
        let mut granted = false;
        let mut rival_delta = 0u64;
        for i in 0..reach.groups().len() {
            let committed = self.sync_group(reach.groups()[i], reintegrate);
            if let Some(record) = committed {
                if granted {
                    debug_assert!(
                        self.rule.topological,
                        "two groups were both granted: mutual exclusion violated"
                    );
                    rival_delta += 1;
                }
                granted = true;
                commits.push(record);
            }
        }
        self.rival_grants += rival_delta;
        self.memo
            .store(reach.groups(), reintegrate, commits, granted, rival_delta);
        granted
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
        self.mode == RejoinMode::OnAccess
    }

    fn reset(&mut self) {
        self.states = StateTable::fresh(self.copies);
        self.rival_grants = 0;
        self.memo.invalidate();
    }

    fn on_topology_change(&mut self, reach: &Reachability) -> bool {
        match self.mode {
            RejoinMode::OnRepair => self.sync_all(reach, true),
            RejoinMode::Hybrid => self.sync_all(reach, false),
            RejoinMode::OnAccess => self.is_available(reach),
        }
    }

    fn on_access(&mut self, reach: &Reachability) -> bool {
        self.sync_all(reach, true)
    }

    fn is_available(&self, reach: &Reachability) -> bool {
        reach.groups().iter().any(|&group| {
            decide(
                group,
                self.copies,
                &self.states,
                &self.rule,
                self.network.as_ref(),
            )
            .is_granted()
        })
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
        assert_eq!(
            p.states().get(SiteId::new(0)).op,
            p.states().get(SiteId::new(1)).op,
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
        let mut p = DynamicPolicy::custom(
            "LDV-asc",
            copies,
            Some(Lexicon::ascending()),
            None,
            RejoinMode::OnRepair,
        );
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
}
