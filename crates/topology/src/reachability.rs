//! The result of a reachability computation: who can talk to whom, now.

use std::sync::atomic::{AtomicU64, Ordering};

use dynvote_types::{SiteId, SiteSet, MAX_SITES};

/// Sentinel for "site is in no group" in the per-site index array.
const NO_GROUP: u8 = u8::MAX;

/// The next [`Reachability::id`]. Ids start at 1, so 0 is never one.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn next_id() -> u64 {
    // Relaxed: `fetch_add` hands every caller a distinct value under any
    // ordering, and an id publishes no other data.
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// A partition of the currently-up sites into maximal groups of mutually
/// communicating sites.
///
/// Produced by [`crate::Network::reachability`]. Each group corresponds
/// to one side of a (possibly multi-way) network partition; within a
/// group, the paper's fail-stop/reliable-delivery assumptions mean every
/// member answers a broadcast.
///
/// Alongside the group list the value carries a compact per-site
/// group-index array, so the hot-path queries [`Reachability::group_of`]
/// and [`Reachability::can_communicate`] are O(1) lookups rather than
/// linear scans — the simulation driver issues them on every event.
///
/// Each construction also draws a fresh [`Reachability::id`], which a
/// clone keeps: a policy that remembers the id of the last value it
/// answered can recognise the same value again with one compare.
#[derive(Clone, Debug)]
pub struct Reachability {
    groups: Vec<SiteSet>,
    up: SiteSet,
    /// `group_index[s]` is the index into `groups` of the group holding
    /// site `s`, or [`NO_GROUP`] when the site is down.
    group_index: [u8; MAX_SITES],
    id: u64,
}

impl PartialEq for Reachability {
    fn eq(&self, other: &Self) -> bool {
        // The index array is derived from the groups; comparing it
        // would be redundant. The id names a construction, not a
        // content, so two equal partitions built apart are equal.
        self.groups == other.groups && self.up == other.up
    }
}

impl Eq for Reachability {}

fn index_groups(groups: &[SiteSet]) -> [u8; MAX_SITES] {
    debug_assert!(groups.len() < NO_GROUP as usize, "group count fits in u8");
    let mut index = [NO_GROUP; MAX_SITES];
    for (i, g) in groups.iter().enumerate() {
        for site in g.iter() {
            index[site.index()] = i as u8;
        }
    }
    index
}

impl Reachability {
    pub(crate) fn new(groups: Vec<SiteSet>, up: SiteSet) -> Self {
        debug_assert!(
            groups.iter().all(|g| g.is_subset_of(up)),
            "groups must contain only up sites"
        );
        let group_index = index_groups(&groups);
        Reachability {
            groups,
            up,
            group_index,
            id: next_id(),
        }
    }

    /// Builds a reachability directly from groups (for tests and for
    /// driving protocol engines without a [`crate::Network`]).
    ///
    /// # Panics
    ///
    /// Panics if the groups are not pairwise disjoint.
    #[must_use]
    pub fn from_groups(groups: Vec<SiteSet>) -> Self {
        let mut up = SiteSet::EMPTY;
        for g in &groups {
            assert!(up.is_disjoint(*g), "groups must be pairwise disjoint");
            up |= *g;
        }
        let group_index = index_groups(&groups);
        Reachability {
            groups,
            up,
            group_index,
            id: next_id(),
        }
    }

    /// The maximal mutually-communicating groups, in unspecified order.
    #[must_use]
    pub fn groups(&self) -> &[SiteSet] {
        &self.groups
    }

    /// The identity of this value: drawn once per construction from a
    /// process-wide counter and kept by clones.
    ///
    /// Equal ids imply equal groups; unequal ids imply nothing. Ids are
    /// never reused and a `Reachability` never changes after it is
    /// built, so an id cannot come to name other groups.
    #[inline]
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// All sites that are up.
    #[must_use]
    pub fn up(&self) -> SiteSet {
        self.up
    }

    /// The group containing `site`, or `None` when the site is down.
    ///
    /// This is the paper's `R` for a request originating at `site`: "the
    /// set of all sites communicating with the requesting site". An O(1)
    /// array lookup.
    #[inline]
    #[must_use]
    pub fn group_of(&self, site: SiteId) -> Option<SiteSet> {
        match self.group_index[site.index()] {
            NO_GROUP => None,
            i => Some(self.groups[i as usize]),
        }
    }

    /// `true` when the two sites can currently communicate. O(1).
    /// Its caller is `tests/substrate_props.rs`, which checks it against
    /// [`Network::same_segment`](crate::Network::same_segment).
    #[inline]
    #[must_use]
    pub fn can_communicate(&self, a: SiteId, b: SiteId) -> bool {
        let ia = self.group_index[a.index()];
        ia != NO_GROUP && ia == self.group_index[b.index()]
    }

    /// The linear-scan definition of [`Reachability::group_of`], kept as
    /// the executable specification the O(1) index is tested against:
    /// a test oracle, read only by this module's proptests.
    #[cfg(test)]
    fn group_of_linear(&self, site: SiteId) -> Option<SiteSet> {
        self.groups.iter().copied().find(|g| g.contains(site))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn from_groups_and_queries() {
        let r = Reachability::from_groups(vec![
            SiteSet::from_indices([0, 1]),
            SiteSet::from_indices([3]),
        ]);
        assert_eq!(r.up(), SiteSet::from_indices([0, 1, 3]));
        assert_eq!(
            r.group_of(SiteId::new(1)),
            Some(SiteSet::from_indices([0, 1]))
        );
        assert_eq!(r.group_of(SiteId::new(2)), None);
        assert!(r.can_communicate(SiteId::new(0), SiteId::new(1)));
        assert!(!r.can_communicate(SiteId::new(0), SiteId::new(3)));
        assert!(!r.can_communicate(SiteId::new(0), SiteId::new(2)));
    }

    #[test]
    #[should_panic(expected = "pairwise disjoint")]
    fn overlapping_groups_rejected() {
        let _ = Reachability::from_groups(vec![
            SiteSet::from_indices([0, 1]),
            SiteSet::from_indices([1, 2]),
        ]);
    }

    #[test]
    fn the_id_names_a_construction_not_a_content() {
        let groups = vec![SiteSet::from_indices([0, 1]), SiteSet::from_indices([3])];
        let a = Reachability::from_groups(groups.clone());
        let b = Reachability::from_groups(groups);
        assert_eq!(a.clone().id(), a.id(), "a clone keeps its id");
        assert_ne!(a.id(), b.id(), "two constructions differ");
        assert_eq!(a, b, "== ignores the id");
        let c = crate::Network::single_segment(4).reachability(SiteSet::from_indices([0, 1]));
        assert_ne!(c.id(), a.id());
        assert_ne!(c.id(), 0, "0 is never an id");
    }

    /// A random partition of (a subset of) the first 12 sites into up to
    /// four disjoint groups: each site draws a group id 0-4, where 4
    /// means "down".
    fn arb_partition() -> impl Strategy<Value = Vec<SiteSet>> {
        proptest::collection::vec(0u8..5, 12).prop_map(|assignment| {
            let mut groups = vec![SiteSet::EMPTY; 4];
            for (site, &g) in assignment.iter().enumerate() {
                if (g as usize) < groups.len() {
                    groups[g as usize].insert(SiteId::new(site));
                }
            }
            groups.retain(|g| !g.is_empty());
            groups
        })
    }

    proptest! {
        /// The O(1) per-site index agrees with the linear-scan
        /// definition for every site, on random group partitions.
        #[test]
        fn indexed_group_of_matches_linear_scan(groups in arb_partition()) {
            let r = Reachability::from_groups(groups);
            for site in (0..16).map(SiteId::new) {
                prop_assert_eq!(r.group_of(site), r.group_of_linear(site));
            }
        }

        /// `can_communicate` is exactly "same group under the linear
        /// scan" on random partitions.
        #[test]
        fn can_communicate_matches_linear_scan(groups in arb_partition()) {
            let r = Reachability::from_groups(groups);
            for a in (0..14).map(SiteId::new) {
                for b in (0..14).map(SiteId::new) {
                    let expected = match (r.group_of_linear(a), r.group_of_linear(b)) {
                        (Some(ga), Some(gb)) => ga == gb,
                        _ => false,
                    };
                    prop_assert_eq!(r.can_communicate(a, b), expected);
                }
            }
        }
    }
}
