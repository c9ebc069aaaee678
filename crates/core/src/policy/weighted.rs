//! Gifford-style weighted voting — the "weight assignments" future work.

use dynvote_topology::Reachability;
use dynvote_types::{SiteSet, VoteMap};

use super::AvailabilityPolicy;

/// Weighted Majority Consensus Voting: each copy carries an integer
/// number of votes and an access proceeds iff a group holds a *strict
/// majority of all votes*.
///
/// With uniform weights this is *strict* MCV: an exact half of an even
/// number of copies is refused, where
/// [`DynamicPolicy::mcv`](super::DynamicPolicy::mcv) grants the
/// half that holds the top copy (so `weight_study`'s uniform column
/// reads well above Table 2's MCV at even copy counts). Skewed weights
/// let an administrator bias availability toward reliable or
/// well-connected sites — the paper's closing remark ("to analyze weight
/// assignments") made concrete. The `weight_study` experiment sweeps
/// weight vectors over the Table 1 site models to show when a weighted
/// static scheme can and cannot close the gap to dynamic voting.
#[derive(Clone, Debug)]
pub struct WeightedMcvPolicy {
    votes: VoteMap,
}

impl WeightedMcvPolicy {
    /// A new weighted-voting policy with the given vote assignment.
    ///
    /// # Panics
    ///
    /// Panics when no site holds a vote.
    #[must_use]
    pub fn new(votes: VoteMap) -> Self {
        assert!(votes.total() > 0, "at least one vote must be assigned");
        WeightedMcvPolicy { votes }
    }

    /// Uniform weights over `copies` — strict MCV, with no tie vote.
    #[must_use]
    pub fn uniform(copies: SiteSet) -> Self {
        WeightedMcvPolicy::new(VoteMap::uniform(copies))
    }

    /// The vote assignment.
    #[must_use]
    pub fn votes(&self) -> &VoteMap {
        &self.votes
    }
}

impl AvailabilityPolicy for WeightedMcvPolicy {
    fn name(&self) -> &str {
        "W-MCV"
    }

    fn reset(&mut self) {}

    fn on_topology_change(&mut self, reach: &Reachability) -> bool {
        self.is_available(reach)
    }

    fn on_access(&mut self, reach: &Reachability) -> bool {
        self.is_available(reach)
    }

    fn is_available(&self, reach: &Reachability) -> bool {
        reach
            .groups()
            .iter()
            .any(|&g| self.votes.is_strict_majority(g))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::Rule;
    use crate::policy::dynamic::DynamicPolicy;
    use dynvote_types::SiteId;

    fn reach(groups: &[&[usize]]) -> Reachability {
        Reachability::from_groups(
            groups
                .iter()
                .map(|g| SiteSet::from_indices(g.iter().copied()))
                .collect(),
        )
    }

    /// Uniform weights are strict MCV at n = 3 and n = 4: no tie vote,
    /// so an even split of four copies strands both halves.
    #[test]
    fn uniform_matches_strict_mcv() {
        for n in [3, 4] {
            let copies = SiteSet::first_n(n);
            let w = WeightedMcvPolicy::uniform(copies);
            let strict = Rule::static_majority(None);
            let mcv = DynamicPolicy::custom("MCV", copies, strict, None);
            for mask in 0u64..1 << n {
                let rest = copies - SiteSet::from_bits(mask);
                let groups = Reachability::from_groups(
                    [SiteSet::from_bits(mask), rest]
                        .into_iter()
                        .filter(|g| !g.is_empty())
                        .collect(),
                );
                assert_eq!(
                    w.is_available(&groups),
                    mcv.is_available(&groups),
                    "n = {n}, mask {mask:#b}"
                );
            }
        }
        let halves = reach(&[&[0, 1], &[2, 3]]);
        assert!(!WeightedMcvPolicy::uniform(SiteSet::first_n(4)).is_available(&halves));
    }

    #[test]
    fn heavy_site_dominates() {
        let mut votes = VoteMap::uniform(SiteSet::first_n(3));
        votes.set(SiteId::new(0), 3); // total = 5
        let p = WeightedMcvPolicy::new(votes);
        assert!(p.is_available(&reach(&[&[0]])), "3 of 5 votes");
        assert!(!p.is_available(&reach(&[&[1, 2]])), "2 of 5 votes");
    }

    #[test]
    fn even_total_still_needs_strict_majority() {
        let mut votes = VoteMap::uniform(SiteSet::first_n(2));
        votes.set(SiteId::new(0), 3); // total = 4
        let p = WeightedMcvPolicy::new(votes);
        assert!(p.is_available(&reach(&[&[0]])));
        assert!(!p.is_available(&reach(&[&[1]])), "1 of 4 votes");
    }

    #[test]
    #[should_panic(expected = "at least one vote")]
    fn zero_votes_rejected() {
        let _ = WeightedMcvPolicy::new(VoteMap::empty());
    }
}
