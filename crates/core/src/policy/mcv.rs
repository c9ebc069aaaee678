//! Majority Consensus Voting — the static baseline.

use dynvote_topology::Reachability;
use dynvote_types::SiteSet;

use crate::decision::majority;
use crate::lexicon::Lexicon;

use super::{AvailabilityPolicy, CopiesView};

/// Majority Consensus Voting (Ellis/Gifford/Thomas): an access proceeds
/// iff a majority of all *n* copies is reachable.
///
/// The quorum is fixed for the lifetime of the file — the very rigidity
/// Dynamic Voting was invented to remove: "a few failures can render
/// the data inaccessible" even when the surviving copies are mutually
/// consistent.
///
/// # Even copy counts and the tie vote
///
/// For even *n* a bare majority rule needs `n/2 + 1` copies, so an even
/// split strands *both* sides. Gifford's remedy is to skew the vote
/// assignment so no tie is possible — equivalently, to grant the half
/// that contains a designated top-ranked site. The paper's Table 2 is
/// only consistent with that variant: e.g. configuration H
/// (copies 1, 2, 7, 8) reports an MCV unavailability of 0.0014 ≈ the
/// gateway's own downtime, which a strict 3-of-4 quorum could never
/// achieve given that sites 7 and 8 are *each* down ~12% of the time
/// (`P(7 and 8 down) ≈ 0.015` already exceeds it). [`McvPolicy::new`]
/// therefore breaks even splits with the same lexicographic ordering
/// LDV uses; [`McvPolicy::strict`] provides the textbook no-tie-break
/// rule for comparison (the `mcv_tiebreak` ablation measures the gap).
///
/// MCV keeps no protocol state. Its test is Algorithm 1's step 5 with
/// `P_m` fixed at all copies — the verdict [`crate::decision::decide`]
/// reaches under [`Rule::static_majority`] — and it reads only
/// `group ∩ copies`. So [`AvailabilityPolicy::on_topology_change`] and
/// [`AvailabilityPolicy::on_access`] answer from the copies' view of
/// the last partition they decided, and decide again only when the view
/// changes; [`AvailabilityPolicy::is_available`] always decides.
///
/// [`Rule::static_majority`]: crate::decision::Rule::static_majority
#[derive(Clone, Debug)]
pub struct McvPolicy {
    copies: SiteSet,
    tie_break: Option<Lexicon>,
    /// The verdict for `seen`, once a partition has been decided.
    verdict: Option<bool>,
    seen: CopiesView,
}

impl McvPolicy {
    /// MCV with the paper-calibrated tie vote: an exact half that
    /// contains the top-ranked copy (under the default [`Lexicon`])
    /// wins. For odd `n` this is exactly the textbook rule.
    ///
    /// # Panics
    ///
    /// Panics when `copies` is empty.
    #[must_use]
    pub fn new(copies: SiteSet) -> Self {
        McvPolicy::with_lexicon(copies, &Lexicon::default())
    }

    /// MCV breaking ties toward the maximum copy of a custom ordering.
    ///
    /// # Panics
    ///
    /// Panics when `copies` is empty.
    #[must_use]
    pub fn with_lexicon(copies: SiteSet, lexicon: &Lexicon) -> Self {
        McvPolicy {
            tie_break: Some(lexicon.clone()),
            ..McvPolicy::strict(copies)
        }
    }

    /// Textbook MCV: strictly more than half, ties strand both sides.
    ///
    /// # Panics
    ///
    /// Panics when `copies` is empty.
    #[must_use]
    pub fn strict(copies: SiteSet) -> Self {
        assert!(!copies.is_empty(), "a replicated file needs copies");
        McvPolicy {
            copies,
            tie_break: None,
            verdict: None,
            seen: CopiesView::default(),
        }
    }

    /// Does `group` hold a static quorum?
    #[must_use]
    pub fn group_grants(&self, group: SiteSet) -> bool {
        let held = group & self.copies;
        majority(held, held, self.copies, self.tie_break.as_ref()).is_ok()
    }

    /// The verdict for `reach`: the last one when the copies see the
    /// partition they saw then, a fresh one otherwise.
    fn answer(&mut self, reach: &Reachability) -> bool {
        if let Some(verdict) = self.verdict {
            if self.seen.matches(reach, self.copies) {
                return verdict;
            }
        }
        let verdict = self.is_available(reach);
        self.verdict = Some(verdict);
        self.seen.set(reach, self.copies);
        verdict
    }
}

impl AvailabilityPolicy for McvPolicy {
    fn name(&self) -> &str {
        "MCV"
    }

    fn reset(&mut self) {}

    fn on_topology_change(&mut self, reach: &Reachability) -> bool {
        self.answer(reach)
    }

    fn on_access(&mut self, reach: &Reachability) -> bool {
        self.answer(reach)
    }

    fn is_available(&self, reach: &Reachability) -> bool {
        reach.groups().iter().any(|&g| self.group_grants(g))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reach(groups: &[&[usize]]) -> Reachability {
        Reachability::from_groups(
            groups
                .iter()
                .map(|g| SiteSet::from_indices(g.iter().copied()))
                .collect(),
        )
    }

    #[test]
    fn three_copies_need_two() {
        let p = McvPolicy::new(SiteSet::first_n(3));
        assert!(p.is_available(&reach(&[&[0, 1, 2]])));
        assert!(p.is_available(&reach(&[&[0, 2]])));
        assert!(!p.is_available(&reach(&[&[0], &[2]])));
    }

    #[test]
    fn odd_counts_ignore_the_tie_vote() {
        // For odd n the tie-break can never fire: both variants agree
        // on every partition of 5 copies.
        let a = McvPolicy::new(SiteSet::first_n(5));
        let b = McvPolicy::strict(SiteSet::first_n(5));
        for mask in 0u64..32 {
            let r = reach(&[]);
            let _ = r;
            let groups = Reachability::from_groups(vec![SiteSet::from_bits(mask)]);
            assert_eq!(
                a.is_available(&groups),
                b.is_available(&groups),
                "mask {mask:#b}"
            );
        }
    }

    #[test]
    fn four_copies_half_with_max_wins() {
        let p = McvPolicy::new(SiteSet::first_n(4));
        // {S0, S1} holds the tie vote (S0 ranks highest); {S2, S3} not.
        assert!(p.is_available(&reach(&[&[0, 1], &[2, 3]])));
        let r = reach(&[&[2, 3]]);
        assert!(!p.is_available(&r));
        // Never both sides.
        let both = reach(&[&[0, 1], &[2, 3]]);
        let grants: usize = both.groups().iter().filter(|&&g| p.group_grants(g)).count();
        assert_eq!(grants, 1, "the tie vote preserves mutual exclusion");
    }

    #[test]
    fn strict_mcv_strands_even_splits() {
        let p = McvPolicy::strict(SiteSet::first_n(4));
        assert!(!p.is_available(&reach(&[&[0, 1], &[2, 3]])));
        assert!(p.is_available(&reach(&[&[0, 1, 3]])));
    }

    #[test]
    fn non_copy_sites_do_not_count() {
        let p = McvPolicy::new(SiteSet::first_n(3));
        // Group of one copy plus two bystanders: still 1 < 2.
        assert!(!p.is_available(&reach(&[&[2, 6, 7]])));
    }

    #[test]
    fn quorum_never_adapts() {
        // The defining weakness: even after losing two copies forever,
        // the quorum stays 2 of 3.
        let mut p = McvPolicy::new(SiteSet::first_n(3));
        let degraded = reach(&[&[1]]);
        p.on_topology_change(&degraded);
        assert!(!p.on_access(&degraded));
        assert!(!p.is_available(&degraded));
    }

    #[test]
    fn custom_lexicon_moves_the_tie_vote() {
        let p = McvPolicy::with_lexicon(SiteSet::first_n(4), &Lexicon::ascending());
        assert!(
            p.is_available(&reach(&[&[2, 3]])),
            "S3 now holds the tie vote"
        );
        assert!(!p.is_available(&reach(&[&[0, 1]])));
    }

    /// The handlers answer from the last view; `is_available` decides.
    /// Both must agree on every step of a walk through partitions that
    /// repeat, that the copies see alike, and that differ.
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
        for mut p in [
            McvPolicy::new(SiteSet::first_n(4)),
            McvPolicy::strict(SiteSet::first_n(4)),
            McvPolicy::with_lexicon(SiteSet::first_n(4), &Lexicon::ascending()),
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
                assert_eq!(got, want, "step {i}: {groups:?}");
                assert_eq!(p.on_access(&again), want, "step {i} rebuilt");
                assert_eq!(p.on_access(&r), want, "step {i} repeated");
            }
        }
    }

    #[test]
    #[should_panic(expected = "needs copies")]
    fn empty_copies_rejected() {
        let _ = McvPolicy::new(SiteSet::EMPTY);
    }
}
