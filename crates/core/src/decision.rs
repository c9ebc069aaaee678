//! Algorithm 1: is the requesting group the majority partition?
//!
//! Every protocol variant reduces to the same five-step decision
//! (paper, Algorithm 1), differing only in *what is counted* toward the
//! majority and *how ties are resolved*:
//!
//! 1. Find `R`, the sites communicating with the requester.
//! 2. Collect each reachable copy's `(P_i, o_i, v_i)`.
//! 3. `Q` = reachable copies holding the maximal operation number.
//! 4. `P_m` = the partition set of any member of `Q` (all members of `Q`
//!    took part in the same most-recent operation, so they agree).
//! 5. Grant iff `|Q| > |P_m|/2`, or `|Q| = |P_m|/2` and `Q` contains
//!    `max(P_m)` (the lexicographic tie-break), where Topological Dynamic
//!    Voting replaces `|Q|` with `|T|` — `Q` plus the *claimed votes* of
//!    unreachable members of `P_m` that share a segment with a reachable
//!    member of `P_m`.
//!
//! Majority Consensus Voting is the same step 5 with `P_m` fixed at all
//! copies and every reachable copy counted ([`Rule::static_majority`]);
//! weighted MCV (Gifford) weighs both sides of it by a vote map
//! ([`DynamicPolicy::weighted_mcv`](crate::policy::DynamicPolicy::weighted_mcv)).

use std::sync::Arc;

use dynvote_topology::Network;
use dynvote_types::{SiteId, SiteSet, VoteMap};

use crate::lexicon::Lexicon;
use crate::state::StateTable;

/// How the majority test is evaluated — the axis along which MCV, DV,
/// LDV and TDV differ.
///
/// The *optimistic* axis (ODV, OTDV) is orthogonal: it is about **when**
/// state is exchanged, not how the decision is computed, so it lives in
/// the policies ([`crate::policy`]) and the simulator, not here.
#[derive(Clone, Debug)]
pub struct Rule {
    /// Tie-breaking lexicon; `None` reproduces original Dynamic Voting,
    /// where an even split makes the file unavailable.
    pub tie_break: Option<Lexicon>,
    /// When `true`, unreachable members of the previous majority
    /// partition that share a segment with a reachable member are
    /// *claimed* toward the majority (Topological Dynamic Voting).
    /// Requires a [`Network`] to be passed to [`decide`].
    pub topological: bool,
    /// When `true`, the previous majority partition is every copy and
    /// every reachable copy votes: Majority Consensus Voting, whose
    /// quorums never adapt (see [`crate::ops::Plan`] for what it
    /// commits).
    pub static_majority: bool,
    /// Weighted MCV's vote map: step 5 weighs `counted` and `P_m` by it
    /// instead of counting sites. Private, so that only
    /// [`DynamicPolicy::weighted_mcv`](crate::policy::DynamicPolicy::weighted_mcv)
    /// sets it, under a static majority with no tie-break; behind a
    /// pointer because every clone of a rule shares it.
    pub(crate) votes: Option<Arc<VoteMap>>,
}

impl Rule {
    /// Original Dynamic Voting: strict majority only, ties fail.
    #[must_use]
    pub fn dv() -> Self {
        Rule {
            tie_break: None,
            ..Rule::lexicographic()
        }
    }

    /// Lexicographic Dynamic Voting with the default site ordering.
    #[must_use]
    pub fn lexicographic() -> Self {
        Rule::with_lexicon(Lexicon::default())
    }

    /// Lexicographic Dynamic Voting with a custom site ordering.
    #[must_use]
    pub fn with_lexicon(lexicon: Lexicon) -> Self {
        Rule {
            tie_break: Some(lexicon),
            topological: false,
            static_majority: false,
            votes: None,
        }
    }

    /// Topological Dynamic Voting (includes the lexicographic
    /// tie-break, per Figures 5–7).
    #[must_use]
    pub fn topological() -> Self {
        Rule {
            topological: true,
            ..Rule::lexicographic()
        }
    }

    /// Majority Consensus Voting. With a `tie_break` lexicon, the
    /// paper-calibrated tie vote: an exact half of the copies wins iff it
    /// holds the top copy under it (see
    /// [`crate::policy::DynamicPolicy::mcv`]). Without one, textbook
    /// MCV: an exact half loses.
    #[must_use]
    pub fn static_majority(tie_break: Option<Lexicon>) -> Self {
        Rule {
            tie_break,
            topological: false,
            static_majority: true,
            votes: None,
        }
    }
}

/// Why the majority test refused the group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Refusal {
    /// No copy of the replicated file is reachable.
    NoCopyReachable,
    /// Fewer than half of the previous majority partition is counted.
    NoMajority,
    /// Exactly half counted, but the tie-break site is absent (or the
    /// rule has no tie-break).
    TieLost {
        /// The site whose presence in `Q` would have won the tie
        /// (`None` under plain DV, which never wins ties).
        needed: Option<SiteId>,
    },
}

/// The full outcome of Algorithm 1 for one group.
///
/// Exposes every intermediate set so that the operation planners, the
/// simulator, and the tests can all inspect *why* a decision went the
/// way it did.
#[derive(Clone, Debug)]
pub struct Decision {
    /// `R` — reachable sites holding copies.
    pub reachable: SiteSet,
    /// `Q` — reachable copies with the maximal operation number (every
    /// reachable copy under a static majority).
    pub quorum_set: SiteSet,
    /// `S` — reachable copies with the maximal version number.
    pub current_set: SiteSet,
    /// `P_m` — partition set of the most-recent operation known in `R`
    /// (all copies under a static majority).
    pub prev_partition: SiteSet,
    /// The votes counted toward the majority: `Q`, or `T ⊇ Q ∩ P_m` for
    /// topological rules.
    pub counted: SiteSet,
    /// The maximal operation number in `R` (the paper's `o_m`).
    pub max_op: u64,
    /// The maximal version number in `R` (the paper's `v_m`).
    pub max_version: u64,
    /// A deterministic representative `m ∈ Q`.
    pub representative: SiteId,
    verdict: Result<(), Refusal>,
}

impl Decision {
    /// `Ok(())` when the group is the majority partition.
    #[inline]
    pub fn granted(&self) -> Result<(), Refusal> {
        self.verdict
    }

    /// `true` when the group is the majority partition.
    #[inline]
    #[must_use]
    pub fn is_granted(&self) -> bool {
        self.verdict.is_ok()
    }

    fn refused(reachable: SiteSet, refusal: Refusal) -> Self {
        Decision {
            reachable,
            quorum_set: SiteSet::EMPTY,
            current_set: SiteSet::EMPTY,
            prev_partition: SiteSet::EMPTY,
            counted: SiteSet::EMPTY,
            max_op: 0,
            max_version: 0,
            representative: SiteId::new(0),
            verdict: Err(refusal),
        }
    }
}

/// Runs Algorithm 1 for the group of mutually communicating sites
/// `group`, over the copies in `copies` with per-copy state in `states`.
///
/// `network` is consulted only by topological rules (to find co-segment
/// sites whose votes can be claimed); passing `None` with
/// `rule.topological == true` panics, because silently skipping the
/// claims would produce a different protocol.
///
/// # Examples
///
/// The paper's §2.1 tie: copies on `{A, C}` (= `{S0, S2}`), the A–C link
/// fails, and `A` alone wins the tie because `A = max({A, C})`:
///
/// ```
/// use dynvote_core::decision::{decide, Rule};
/// use dynvote_core::state::StateTable;
/// use dynvote_types::SiteSet;
///
/// let copies = SiteSet::from_indices([0, 2]);
/// let mut states = StateTable::fresh(copies);
///
/// let a_alone = decide(SiteSet::from_indices([0]), copies, &states, &Rule::lexicographic(), None);
/// assert!(a_alone.is_granted());
/// let c_alone = decide(SiteSet::from_indices([2]), copies, &states, &Rule::lexicographic(), None);
/// assert!(!c_alone.is_granted());
/// ```
#[must_use]
pub fn decide(
    group: SiteSet,
    copies: SiteSet,
    states: &StateTable,
    rule: &Rule,
    network: Option<&Network>,
) -> Decision {
    let reachable = group & copies;
    let Some((max_op, max_op_set)) = states.max_op(reachable) else {
        return Decision::refused(reachable, Refusal::NoCopyReachable);
    };
    let (max_version, current_set) = states
        .max_version(reachable)
        .expect("non-empty reachable set has a max version");
    // "choose any m ∈ Q" — every member of Q participated in the same
    // most-recent operation and therefore stores the same partition set;
    // pick the lowest index for determinism. A static majority skips
    // steps 3–4: every reachable copy votes, against all copies.
    let representative = max_op_set.min().expect("Q is non-empty");
    let (quorum_set, prev_partition) = if rule.static_majority {
        (reachable, copies)
    } else {
        (max_op_set, states.get(representative).partition)
    };
    // Under DV/LDV/ODV every operation number is committed exactly once,
    // so all members of Q store the same partition set. Topological vote
    // claiming can violate this: after a total failure of a segment, the
    // survivors may *sequentially* claim each other's votes and fork the
    // lineage (see DESIGN.md, "the sequential-claim hazard"), leaving two
    // sites with equal operation numbers but different partition sets.
    // The decision then proceeds from the deterministic representative.
    //
    // This invariant holds even under lossy delivery and mid-operation
    // crashes: a partially-delivered COMMIT installs its operation
    // number only at sites that received it, and every other voter of
    // that operation stays wedged on its outstanding vote (abstaining
    // from later polls) until the commit reaches it or the vote is
    // proven non-binding — so a given operation number is minted with
    // exactly one partition set (see DESIGN.md, "Nemesis layer and the
    // partial-commit hazard").
    debug_assert!(
        rule.topological
            || rule.static_majority
            || quorum_set
                .iter()
                .all(|s| states.get(s).partition == prev_partition),
        "members of Q must agree on the previous partition set"
    );

    let counted = if rule.topological {
        let net = network.expect("topological rules require a Network");
        // T = members of P_m on the same segment as a reachable member of
        // P_m. (Figure 5 prints `P_m ∪ R`; the prose and the soundness
        // argument require the intersection — see DESIGN.md.)
        let anchors = prev_partition & reachable;
        let mut t = SiteSet::EMPTY;
        for s in anchors.iter() {
            t |= net.co_segment(s) & prev_partition;
        }
        t
    } else {
        quorum_set
    };

    Decision {
        reachable,
        quorum_set,
        current_set,
        prev_partition,
        counted,
        max_op,
        max_version,
        representative,
        verdict: majority(counted, quorum_set, prev_partition, rule),
    }
}

/// Step 5, the one majority test: `counted` wins iff it is more than
/// half of `prev_partition` — in sites, or in the rule's votes — or
/// exactly half with `quorum_set` holding the tie-break maximum of
/// `prev_partition`.
fn majority(
    counted: SiteSet,
    quorum_set: SiteSet,
    prev_partition: SiteSet,
    rule: &Rule,
) -> Result<(), Refusal> {
    let weigh = |sites: SiteSet| {
        rule.votes
            .as_ref()
            .map_or(sites.len() as u64, |votes| votes.of(sites))
    };
    let (counted, against) = (weigh(counted), weigh(prev_partition));
    if 2 * counted > against {
        Ok(())
    } else if 2 * counted == against {
        // Tie: grant iff the rule breaks ties and Q holds max(P_m).
        // Note the tie-break consults Q — real, current, reachable
        // copies — even under topological counting (Figures 5–7).
        let needed = rule
            .tie_break
            .as_ref()
            .and_then(|lexicon| lexicon.max_of(prev_partition));
        match needed {
            Some(site) if quorum_set.contains(site) => Ok(()),
            _ => Err(Refusal::TieLost { needed }),
        }
    } else {
        Err(Refusal::NoMajority)
    }
}

/// Renders a [`Decision`] as a human-readable, multi-line explanation —
/// the teaching/debugging view of Algorithm 1 used by the scenario
/// runner's `explain` command.
///
/// # Examples
///
/// ```
/// use dynvote_core::decision::{decide, explain, Rule};
/// use dynvote_core::state::StateTable;
/// use dynvote_types::SiteSet;
///
/// let copies = SiteSet::first_n(3);
/// let states = StateTable::fresh(copies);
/// let d = decide(SiteSet::from_indices([0, 2]), copies, &states, &Rule::lexicographic(), None);
/// let text = explain(&d);
/// assert!(text.contains("GRANTED"));
/// assert!(text.contains("Q   ="));
/// ```
#[must_use]
pub fn explain(decision: &Decision) -> String {
    use core::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "R   = {}  (reachable copies)", decision.reachable);
    if decision.reachable.is_empty() {
        let _ = writeln!(out, "=> REFUSED: no copy reachable");
        return out;
    }
    let _ = writeln!(
        out,
        "Q   = {}  (max operation number o = {})",
        decision.quorum_set, decision.max_op
    );
    let _ = writeln!(
        out,
        "S   = {}  (max version number v = {})",
        decision.current_set, decision.max_version
    );
    let _ = writeln!(
        out,
        "P_m = {}  (partition set of m = {})",
        decision.prev_partition, decision.representative
    );
    if decision.counted != decision.quorum_set {
        let _ = writeln!(
            out,
            "T   = {}  (Q plus claimed co-segment votes)",
            decision.counted
        );
    }
    let counted = decision.counted.len();
    let needed = decision.prev_partition.len();
    let _ = write!(out, "test: 2x{counted} vs |P_m| = {needed}: ");
    match decision.granted() {
        Ok(()) => {
            if 2 * counted > needed {
                let _ = writeln!(out, "strict majority");
            } else {
                let _ = writeln!(out, "exact half holding max(P_m)");
            }
            let _ = writeln!(out, "=> GRANTED: this group is the majority partition");
        }
        Err(Refusal::NoMajority) => {
            let _ = writeln!(out, "minority");
            let _ = writeln!(
                out,
                "=> REFUSED: fewer than half of the previous majority partition"
            );
        }
        Err(Refusal::TieLost { needed: site }) => {
            let _ = writeln!(out, "exact half");
            match site {
                Some(site) => {
                    let _ = writeln!(
                        out,
                        "=> REFUSED: tie lost — max(P_m) = {site} is not reachable and current"
                    );
                }
                None => {
                    let _ = writeln!(out, "=> REFUSED: tie, and this rule breaks no ties");
                }
            }
        }
        Err(Refusal::NoCopyReachable) => {
            let _ = writeln!(out, "=> REFUSED: no copy reachable");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynvote_topology::NetworkBuilder;

    fn s(indices: &[usize]) -> SiteSet {
        SiteSet::from_indices(indices.iter().copied())
    }

    /// Walks the exact state trace of the paper's §2.1 worked example
    /// (copies A=S0, B=S1, C=S2).
    #[test]
    fn worked_example_from_section_2_1() {
        let copies = s(&[0, 1, 2]);
        let mut states = StateTable::fresh(copies);
        let rule = Rule::lexicographic();

        // Initial: o,v = 1, P = {A,B,C}. Seven writes by {A,B,C}:
        for _ in 0..7 {
            let d = decide(copies, copies, &states, &rule, None);
            assert!(d.is_granted());
            states.commit(copies, d.max_op + 1, d.max_version + 1, copies);
        }
        assert_eq!(states.get(SiteId::new(0)).op, 8);
        assert_eq!(states.get(SiteId::new(0)).version, 8);

        // B fails; {A, C} is 2 of 3 — a strict majority.
        let group = s(&[0, 2]);
        let d = decide(group, copies, &states, &rule, None);
        assert!(d.is_granted());
        assert_eq!(d.quorum_set, s(&[0, 2]));
        assert_eq!(d.prev_partition, copies);

        // Three more writes by {A, C}: o,v = 11, P = {A, C}.
        for _ in 0..3 {
            let d = decide(group, copies, &states, &rule, None);
            assert!(d.is_granted());
            states.commit(group, d.max_op + 1, d.max_version + 1, group);
        }
        assert_eq!(states.get(SiteId::new(0)).op, 11);
        assert_eq!(states.get(SiteId::new(2)).version, 11);
        assert_eq!(states.get(SiteId::new(0)).partition, s(&[0, 2]));
        // B still has the stale state.
        assert_eq!(states.get(SiteId::new(1)).op, 8);
        assert_eq!(states.get(SiteId::new(1)).partition, copies);

        // Link between A and C fails: {A} vs {C}, a 1-1 tie on P={A,C}.
        // A (the maximum) wins; C does not.
        let d_a = decide(s(&[0]), copies, &states, &rule, None);
        assert!(d_a.is_granted());
        let d_c = decide(s(&[2]), copies, &states, &rule, None);
        assert_eq!(
            d_c.granted(),
            Err(Refusal::TieLost {
                needed: Some(SiteId::new(0))
            })
        );

        // Four more writes by {A}: o,v = 15, P = {A}.
        for _ in 0..4 {
            let d = decide(s(&[0]), copies, &states, &rule, None);
            assert!(d.is_granted());
            states.commit(s(&[0]), d.max_op + 1, d.max_version + 1, s(&[0]));
        }
        assert_eq!(states.get(SiteId::new(0)).op, 15);
        assert_eq!(states.get(SiteId::new(0)).version, 15);
        assert_eq!(states.get(SiteId::new(0)).partition, s(&[0]));

        // And B's reappearance alongside C still cannot form a quorum:
        // Q = {B} (op 8 > nothing? B op=8, C op=11 → Q={C}), P_m = {A,C},
        // tie needs A.
        let d_bc = decide(s(&[1, 2]), copies, &states, &rule, None);
        assert_eq!(d_bc.quorum_set, s(&[2]));
        assert!(!d_bc.is_granted());
    }

    #[test]
    fn explain_covers_every_verdict() {
        let copies = s(&[0, 1, 2, 3]);
        let states = StateTable::fresh(copies);
        let rule = Rule::lexicographic();
        // Strict majority.
        let text = explain(&decide(s(&[0, 1, 2]), copies, &states, &rule, None));
        assert!(text.contains("strict majority"), "{text}");
        // Tie won.
        let text = explain(&decide(s(&[0, 1]), copies, &states, &rule, None));
        assert!(text.contains("exact half holding max"), "{text}");
        // Tie lost (names the needed site).
        let text = explain(&decide(s(&[2, 3]), copies, &states, &rule, None));
        assert!(text.contains("REFUSED: tie lost"), "{text}");
        assert!(text.contains("S0"), "{text}");
        // Minority.
        let text = explain(&decide(s(&[3]), copies, &states, &rule, None));
        assert!(text.contains("fewer than half"), "{text}");
        // No copies.
        let text = explain(&decide(SiteSet::EMPTY, copies, &states, &rule, None));
        assert!(text.contains("no copy reachable"), "{text}");
        // Plain DV tie.
        let text = explain(&decide(s(&[0, 1]), copies, &states, &Rule::dv(), None));
        assert!(text.contains("breaks no ties"), "{text}");
    }

    #[test]
    fn explain_shows_claimed_votes() {
        let net = dynvote_topology::Network::single_segment(2);
        let copies = s(&[0, 1]);
        let states = StateTable::fresh(copies);
        let text = explain(&decide(
            s(&[1]),
            copies,
            &states,
            &Rule::topological(),
            Some(&net),
        ));
        assert!(text.contains("T   ="), "{text}");
        assert!(text.contains("claimed co-segment"), "{text}");
    }

    #[test]
    fn plain_dv_never_wins_ties() {
        let copies = s(&[0, 1]);
        let states = StateTable::fresh(copies);
        let d = decide(s(&[0]), copies, &states, &Rule::dv(), None);
        assert_eq!(d.granted(), Err(Refusal::TieLost { needed: None }));
        // LDV grants the same split.
        let d = decide(s(&[0]), copies, &states, &Rule::lexicographic(), None);
        assert!(d.is_granted());
    }

    #[test]
    fn empty_group_refused() {
        let copies = s(&[0, 1, 2]);
        let states = StateTable::fresh(copies);
        let d = decide(SiteSet::EMPTY, copies, &states, &Rule::dv(), None);
        assert_eq!(d.granted(), Err(Refusal::NoCopyReachable));
        // A group of non-copy sites is equally useless.
        let d = decide(s(&[5, 6]), copies, &states, &Rule::dv(), None);
        assert_eq!(d.granted(), Err(Refusal::NoCopyReachable));
    }

    #[test]
    fn minority_refused() {
        let copies = s(&[0, 1, 2, 3, 4]);
        let states = StateTable::fresh(copies);
        let d = decide(s(&[0, 1]), copies, &states, &Rule::lexicographic(), None);
        assert_eq!(d.granted(), Err(Refusal::NoMajority));
    }

    #[test]
    fn stale_group_cannot_usurp() {
        // {A,B,C}; {A,B} shrink the partition to themselves. C alone —
        // even together with non-copy friends — cannot form a quorum.
        let copies = s(&[0, 1, 2]);
        let mut states = StateTable::fresh(copies);
        let d = decide(s(&[0, 1]), copies, &states, &Rule::lexicographic(), None);
        assert!(d.is_granted());
        states.commit(s(&[0, 1]), d.max_op + 1, d.max_version, s(&[0, 1]));

        // C still believes P = {A,B,C}: 1 of 3 is not a majority.
        let d = decide(s(&[2, 7]), copies, &states, &Rule::lexicographic(), None);
        assert_eq!(d.granted(), Err(Refusal::NoMajority));
    }

    #[test]
    fn q_and_s_can_differ() {
        // A site that missed only *reads* keeps the max version but a
        // stale op number: it appears in S but not in Q.
        let copies = s(&[0, 1, 2]);
        let mut states = StateTable::fresh(copies);
        // {A,B} perform a read without C (partitioned away, not down).
        let d = decide(s(&[0, 1]), copies, &states, &Rule::lexicographic(), None);
        states.commit(s(&[0, 1]), d.max_op + 1, d.max_version, s(&[0, 1]));
        // Network heals; everyone reachable.
        let d = decide(copies, copies, &states, &Rule::lexicographic(), None);
        assert_eq!(d.quorum_set, s(&[0, 1]));
        assert_eq!(d.current_set, copies, "C missed no writes");
        assert!(d.is_granted());
    }

    #[test]
    fn representative_partition_sets_agree() {
        let copies = s(&[0, 1, 2]);
        let states = StateTable::fresh(copies);
        let d = decide(copies, copies, &states, &Rule::dv(), None);
        assert_eq!(d.representative, SiteId::new(0));
        assert_eq!(d.prev_partition, copies);
    }

    // ---- Topological rules -------------------------------------------------

    /// The paper's §3 example: copies A,B on segment α; C on γ; D on δ.
    /// State: A,B current with P={A,B}; C, D stale.
    fn section_3_setup() -> (SiteSet, StateTable, dynvote_topology::Network) {
        let copies = s(&[0, 1, 2, 3]); // A,B,C,D
        let net = NetworkBuilder::new()
            .segment("alpha", [0, 1, 8, 9]) // A, B (+ the repeaters X=8, Y=9)
            .segment("gamma", [2])
            .segment("delta", [3])
            .bridge(8, "gamma")
            .bridge(9, "delta")
            .build()
            .unwrap();
        let mut states = StateTable::fresh(copies);
        // P_D = {A,B,C,D} o,v=8; P_C = {A,B,C} o,v=11; P_A = P_B = {A,B} o,v=15.
        states.set(
            SiteId::new(3),
            crate::state::ReplicaState {
                op: 8,
                version: 8,
                partition: s(&[0, 1, 2, 3]),
            },
        );
        states.set(
            SiteId::new(2),
            crate::state::ReplicaState {
                op: 11,
                version: 11,
                partition: s(&[0, 1, 2]),
            },
        );
        for i in [0, 1] {
            states.set(
                SiteId::new(i),
                crate::state::ReplicaState {
                    op: 15,
                    version: 15,
                    partition: s(&[0, 1]),
                },
            );
        }
        (copies, states, net)
    }

    #[test]
    fn topological_claims_co_segment_votes() {
        let (copies, states, net) = section_3_setup();
        // Site A fails. Under LDV, B alone loses the tie on P={A,B}
        // (max is A). Under TDV, B claims A's vote: A is on B's segment,
        // so A cannot be on the far side of a partition — it must be down.
        let group_b = s(&[1]);
        let ldv = decide(group_b, copies, &states, &Rule::lexicographic(), None);
        assert!(!ldv.is_granted());
        let tdv = decide(group_b, copies, &states, &Rule::topological(), Some(&net));
        assert_eq!(tdv.counted, s(&[0, 1]), "B claims A's vote");
        assert!(tdv.is_granted());
    }

    #[test]
    fn topological_does_not_claim_cross_segment_votes() {
        let (copies, states, net) = section_3_setup();
        // C alone: P_C = {A,B,C}; C can claim nobody (alone on γ) and
        // 1 < 3/2 — refused.
        let d = decide(s(&[2]), copies, &states, &Rule::topological(), Some(&net));
        assert_eq!(d.counted, s(&[2]));
        assert!(!d.is_granted());
    }

    #[test]
    fn topological_tie_break_consults_real_copies_only() {
        // P = {A, B, C, D} with A,B on one segment, C,D on another.
        // Group = {C}: C claims D (same segment) → |T| = 2 = |P|/2.
        // The tie-break needs max(P)=A in Q — absent → refused. Claimed
        // votes do not count toward the tie-break.
        let copies = s(&[0, 1, 2, 3]);
        let net = NetworkBuilder::new()
            .segment("one", [0, 1])
            .segment("two", [2, 3])
            .bridge(0, "two")
            .build()
            .unwrap();
        let states = StateTable::fresh(copies);
        let d = decide(s(&[2]), copies, &states, &Rule::topological(), Some(&net));
        assert_eq!(d.counted, s(&[2, 3]));
        assert_eq!(
            d.granted(),
            Err(Refusal::TieLost {
                needed: Some(SiteId::new(0))
            })
        );
        // Group = {A}: claims B, and A = max(P) is reachable → granted.
        let d = decide(s(&[0]), copies, &states, &Rule::topological(), Some(&net));
        assert_eq!(d.counted, s(&[0, 1]));
        assert!(d.is_granted());
    }

    #[test]
    fn topological_on_isolated_segments_equals_lexicographic() {
        // Every copy on its own segment: T = Q ∩ P_m and the decision
        // matches LDV (the paper's configuration-C observation).
        let copies = s(&[0, 1, 2]);
        let net = NetworkBuilder::new()
            .segment("a", [0])
            .segment("b", [1])
            .segment("c", [2])
            .bridge(0, "b")
            .bridge(1, "c")
            .build()
            .unwrap();
        let states = StateTable::fresh(copies);
        for mask in 1u64..8 {
            let group = SiteSet::from_bits(mask);
            let ldv = decide(group, copies, &states, &Rule::lexicographic(), None);
            let tdv = decide(group, copies, &states, &Rule::topological(), Some(&net));
            assert_eq!(
                ldv.is_granted(),
                tdv.is_granted(),
                "mask {mask:#b} diverged"
            );
        }
    }

    #[test]
    #[should_panic(expected = "topological rules require a Network")]
    fn topological_without_network_panics() {
        let copies = s(&[0, 1]);
        let states = StateTable::fresh(copies);
        let _ = decide(s(&[0]), copies, &states, &Rule::topological(), None);
    }

    #[test]
    fn two_rival_groups_never_both_granted() {
        // Deterministic sweep: for every split of 5 copies into two
        // groups, at most one side may be granted (mutual exclusion).
        let copies = s(&[0, 1, 2, 3, 4]);
        let states = StateTable::fresh(copies);
        let rule = Rule::lexicographic();
        for mask in 0u64..32 {
            let g1 = SiteSet::from_bits(mask);
            let g2 = copies - g1;
            let d1 = decide(g1, copies, &states, &rule, None);
            let d2 = decide(g2, copies, &states, &rule, None);
            assert!(
                !(d1.is_granted() && d2.is_granted()),
                "split {g1} | {g2} granted both sides"
            );
        }
    }
}
