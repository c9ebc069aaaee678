//! Dynamic vote reassignment — the other dynamic family (\[BGS86\]).
//!
//! Barbara, Garcia-Molina and Spauster's *"Policies for Dynamic Vote
//! Reassignment"* (cited in the paper's introduction alongside dynamic
//! voting) keeps the **quorum rule static** — a strict majority of all
//! votes — but lets the **vote assignment move**: when sites become
//! unreachable, the surviving majority group transfers their votes to a
//! member it can rely on, so later failures face a quorum the group can
//! still meet.
//!
//! This module implements the *proxy transfer* flavour as an
//! [`AvailabilityPolicy`]: a group holding a strict majority of the
//! current votes commits a reassignment in which every absent voter's
//! base votes are carried by the group's top-ranked member, and every
//! present voter holds exactly its base votes again. Mutual exclusion
//! follows the dynamic-voting argument — each reassignment needs a
//! strict majority of the assignment it replaces, so two rival
//! assignments can never both be reached.

use dynvote_topology::Reachability;
use dynvote_types::{SiteSet, VoteMap};

use crate::lexicon::Lexicon;

use super::AvailabilityPolicy;

/// Majority voting with autonomous proxy vote reassignment.
///
/// # Examples
///
/// Three uniform copies: after {S0, S1} commit a reassignment that
/// moves S2's vote to S0, S0 *alone* holds 2 of 3 votes and keeps the
/// file available through S1's failure — something static MCV cannot
/// do:
///
/// ```
/// use dynvote_core::policy::{AvailabilityPolicy, VoteReassignmentPolicy};
/// use dynvote_topology::Reachability;
/// use dynvote_types::SiteSet;
///
/// let mut p = VoteReassignmentPolicy::uniform(SiteSet::first_n(3));
/// let groups = |g: &[u64]| Reachability::from_groups(
///     g.iter().map(|&m| SiteSet::from_bits(m)).collect());
///
/// p.on_topology_change(&groups(&[0b011])); // S2 down: reassign to S0
/// p.on_topology_change(&groups(&[0b001])); // S1 down too
/// assert!(p.is_available(&groups(&[0b001])), "S0 carries 2 of 3 votes");
/// ```
#[derive(Clone, Debug)]
pub struct VoteReassignmentPolicy {
    base: VoteMap,
    current: VoteMap,
    lexicon: Lexicon,
    /// Reassignments committed since the last reset: a test oracle.
    #[cfg(test)]
    reassignments: u64,
}

impl VoteReassignmentPolicy {
    /// One base vote per copy.
    ///
    /// # Panics
    ///
    /// Panics when `copies` is empty.
    #[must_use]
    pub fn uniform(copies: SiteSet) -> Self {
        assert!(!copies.is_empty(), "a replicated file needs copies");
        VoteReassignmentPolicy::new(VoteMap::uniform(copies))
    }

    /// A custom base assignment.
    ///
    /// # Panics
    ///
    /// Panics when no votes are assigned.
    #[must_use]
    pub fn new(base: VoteMap) -> Self {
        assert!(base.total() > 0, "at least one vote must be assigned");
        VoteReassignmentPolicy {
            current: base.clone(),
            base,
            lexicon: Lexicon::default(),
            #[cfg(test)]
            reassignments: 0,
        }
    }

    /// The current (possibly reassigned) votes: a test oracle, read
    /// only by this module's tests.
    #[cfg(test)]
    fn current_votes(&self) -> &VoteMap {
        &self.current
    }

    /// How many reassignments have been committed since the last reset:
    /// a test oracle, read only by this module's tests.
    #[cfg(test)]
    fn reassignments(&self) -> u64 {
        self.reassignments
    }

    fn group_grants(&self, group: SiteSet) -> bool {
        self.current.is_strict_majority(group)
    }

    /// Commits a reassignment for the (unique) group holding a strict
    /// majority of the current votes: present voters revert to their
    /// base votes; the group's top-ranked voter carries every absent
    /// voter's base votes as a proxy.
    fn sync(&mut self, reach: &Reachability) {
        for &group in reach.groups() {
            if !self.group_grants(group) {
                continue;
            }
            let voters = self.base.voters();
            let present = voters & group;
            let absent = voters - group;
            let proxy = self
                .lexicon
                .max_of(present)
                .expect("a majority group contains a voter");
            let mut next = VoteMap::empty();
            for site in present.iter() {
                next.set(site, self.base.get(site));
            }
            let carried: u64 = absent.iter().map(|s| u64::from(self.base.get(s))).sum();
            next.set(
                proxy,
                self.base.get(proxy) + u32::try_from(carried).expect("vote totals are small"),
            );
            debug_assert_eq!(next.total(), self.base.total(), "votes are conserved");
            #[cfg(test)]
            if next.of(voters) != self.current.of(voters)
                || present.iter().any(|s| next.get(s) != self.current.get(s))
            {
                self.reassignments += 1;
            }
            self.current = next;
            // At most one group can hold a strict majority.
            break;
        }
    }
}

impl AvailabilityPolicy for VoteReassignmentPolicy {
    fn name(&self) -> &str {
        "VR"
    }

    fn reset(&mut self) {
        self.current = self.base.clone();
        #[cfg(test)]
        {
            self.reassignments = 0;
        }
    }

    fn on_topology_change(&mut self, reach: &Reachability) -> bool {
        self.sync(reach);
        self.is_available(reach)
    }

    fn on_access(&mut self, reach: &Reachability) -> bool {
        self.sync(reach);
        self.is_available(reach)
    }

    fn is_available(&self, reach: &Reachability) -> bool {
        reach.groups().iter().any(|&g| self.group_grants(g))
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
    fn reassignment_survives_sequential_failures() {
        let mut p = VoteReassignmentPolicy::uniform(SiteSet::first_n(5));
        // Sites fail one by one; after each step the survivors reassign.
        for up in [&[0usize, 1, 2, 3][..], &[0, 1, 2], &[0, 1], &[0]] {
            let r = reach(&[up]);
            p.on_topology_change(&r);
            assert!(p.is_available(&r), "should survive {up:?}");
        }
        assert_eq!(p.current_votes().get(SiteId::new(0)), 5, "S0 carries all");
    }

    #[test]
    fn static_mcv_dies_where_reassignment_survives() {
        let copies = SiteSet::first_n(3);
        let mut vr = VoteReassignmentPolicy::uniform(copies);
        let mcv = crate::policy::DynamicPolicy::mcv(copies);
        let steps: &[&[usize]] = &[&[0, 1], &[0]];
        let mut r = reach(&[steps[0]]);
        vr.on_topology_change(&r);
        r = reach(&[steps[1]]);
        vr.on_topology_change(&r);
        assert!(vr.is_available(&r));
        assert!(!mcv.is_available(&r), "static quorum: 1 of 3 is dead");
    }

    #[test]
    fn rejoining_sites_get_their_votes_back() {
        let mut p = VoteReassignmentPolicy::uniform(SiteSet::first_n(3));
        p.on_topology_change(&reach(&[&[0, 1]])); // S2's vote → S0
        assert_eq!(p.current_votes().get(SiteId::new(0)), 2);
        assert_eq!(p.current_votes().get(SiteId::new(2)), 0);
        p.on_topology_change(&reach(&[&[0, 1, 2]])); // S2 rejoins
        assert_eq!(p.current_votes().get(SiteId::new(0)), 1);
        assert_eq!(p.current_votes().get(SiteId::new(2)), 1);
    }

    #[test]
    fn votes_are_conserved() {
        let mut p = VoteReassignmentPolicy::uniform(SiteSet::first_n(4));
        for up in [&[0usize, 1, 2][..], &[1, 2], &[1, 2, 3], &[0, 1, 2, 3]] {
            p.on_topology_change(&reach(&[up]));
            assert_eq!(p.current_votes().total(), 4, "after {up:?}");
        }
    }

    #[test]
    fn minority_side_never_reassigns() {
        let mut p = VoteReassignmentPolicy::uniform(SiteSet::first_n(4));
        // 2-2 split: neither side has a strict majority of 4.
        let r = reach(&[&[0, 1], &[2, 3]]);
        p.on_topology_change(&r);
        assert!(!p.is_available(&r), "even splits still strand both sides");
        assert_eq!(p.reassignments(), 0);
        // The stale minority cannot usurp after the majority moved on.
        p.on_topology_change(&reach(&[&[0, 1, 2]])); // S3's vote → S0
        let r = reach(&[&[3], &[0, 1, 2]]);
        p.on_topology_change(&r);
        assert!(!p.current.is_strict_majority(SiteSet::from_indices([3])));
    }

    #[test]
    fn mutual_exclusion_over_random_histories() {
        use dynvote_types::SiteSet as S;
        // Exhaustive over 4-site histories of length 3 and all splits:
        // at no point can two disjoint groups both hold a majority.
        let copies = S::first_n(4);
        for h1 in 1u64..16 {
            for h2 in 1u64..16 {
                let mut p = VoteReassignmentPolicy::uniform(copies);
                for mask in [h1, h2] {
                    let up = S::from_bits(mask) & copies;
                    if up.is_empty() {
                        continue;
                    }
                    p.on_topology_change(&Reachability::from_groups(vec![up]));
                }
                for split in 0u64..16 {
                    let a = S::from_bits(split) & copies;
                    let b = copies - a;
                    let both = !a.is_empty()
                        && !b.is_empty()
                        && p.current.is_strict_majority(a)
                        && p.current.is_strict_majority(b);
                    assert!(!both, "h=({h1:#b},{h2:#b}) split {a} | {b}");
                }
            }
        }
    }

    #[test]
    fn reset_restores_base() {
        let mut p = VoteReassignmentPolicy::uniform(SiteSet::first_n(3));
        p.on_topology_change(&reach(&[&[0]]));
        p.reset();
        assert_eq!(p.current_votes().get(SiteId::new(2)), 1);
        assert_eq!(p.reassignments(), 0);
    }

    #[test]
    fn access_hook_reports_and_syncs() {
        let mut p = VoteReassignmentPolicy::uniform(SiteSet::first_n(3));
        assert!(p.on_access(&reach(&[&[0, 2]])));
        assert!(!p.on_access(&reach(&[&[1]])), "1 of 3 current votes");
    }
}
