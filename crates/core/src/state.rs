//! Per-copy protocol state: operation number, version number, partition set.

use core::fmt;

use dynvote_types::{SiteId, SiteSet};

/// The consistency-control state attached to one physical copy.
///
/// Quoting the paper (§2.1): *"Every physical copy of a replicated file
/// will maintain some state information. This information will include a
/// operation number, a version number and a partition set."*
///
/// * `op` — incremented at every successful operation the copy takes part
///   in; the set of reachable copies with the **maximum** operation
///   number is the quorum set `Q`.
/// * `version` — identifies the last successful **write** the copy has
///   seen; reads bump `op` but not `version`, which is exactly what lets
///   recovering copies skip a data transfer when only reads happened
///   while they were away.
/// * `partition` — the set of sites that participated in the most recent
///   operation (the paper's `P_i`); the majority test is run against the
///   partition set of any maximal-`op` copy.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReplicaState {
    /// Operation number `o_i` (≥ 1).
    pub op: u64,
    /// Version number `v_i` (≥ 1).
    pub version: u64,
    /// Partition set `P_i`.
    pub partition: SiteSet,
}

impl ReplicaState {
    /// The state every copy starts with: `o = v = 1` and the partition
    /// set containing all copies (the paper's initial configuration).
    #[must_use]
    pub fn initial(all_copies: SiteSet) -> Self {
        ReplicaState {
            op: 1,
            version: 1,
            partition: all_copies,
        }
    }
}

impl fmt::Debug for ReplicaState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o={}, v={}, P={}", self.op, self.version, self.partition)
    }
}

/// The collection of every copy's [`ReplicaState`], indexed by site.
///
/// In a deployment each site stores its own entry on stable storage; the
/// simulator and the in-process replicated store keep them side by side.
/// A `StateTable` holds one slot per site from `S0` up to the highest
/// site it was made [`fresh`](StateTable::fresh) for — eight on the
/// Figure 8 network, not one per addressable site. Slots of sites in
/// that range that hold no copy are simply never read; a site past the
/// last slot has none, and touching it panics (index out of bounds).
#[derive(Clone, PartialEq, Eq)]
pub struct StateTable {
    states: Box<[ReplicaState]>,
}

impl StateTable {
    /// A table where every copy in `copies` carries the initial state,
    /// with a slot for every site up to the highest copy.
    #[must_use]
    pub fn fresh(copies: SiteSet) -> Self {
        let slots = copies.max().map_or(0, |site| site.index() + 1);
        StateTable {
            states: vec![ReplicaState::initial(copies); slots].into_boxed_slice(),
        }
    }

    /// The state stored at `site`.
    #[inline]
    #[must_use]
    pub fn get(&self, site: SiteId) -> &ReplicaState {
        &self.states[site.index()]
    }

    /// Mutable access to the state stored at `site`.
    #[inline]
    pub fn get_mut(&mut self, site: SiteId) -> &mut ReplicaState {
        &mut self.states[site.index()]
    }

    /// Overwrites the state at `site`.
    #[inline]
    pub fn set(&mut self, site: SiteId, state: ReplicaState) {
        self.states[site.index()] = state;
    }

    /// The highest operation number among `group`, with the set of
    /// holders — the paper's `Q ⊆ R`. Returns `None` for an empty group.
    #[must_use]
    pub fn max_op(&self, group: SiteSet) -> Option<(u64, SiteSet)> {
        let mut best: Option<(u64, SiteSet)> = None;
        for site in group.iter() {
            let op = self.states[site.index()].op;
            match &mut best {
                None => best = Some((op, SiteSet::singleton(site))),
                Some((max, holders)) => {
                    if op > *max {
                        *max = op;
                        *holders = SiteSet::singleton(site);
                    } else if op == *max {
                        holders.insert(site);
                    }
                }
            }
        }
        best
    }

    /// The highest version number among `group`, with the set of holders
    /// — the paper's `S ⊆ R`. Returns `None` for an empty group.
    #[must_use]
    pub fn max_version(&self, group: SiteSet) -> Option<(u64, SiteSet)> {
        let mut best: Option<(u64, SiteSet)> = None;
        for site in group.iter() {
            let v = self.states[site.index()].version;
            match &mut best {
                None => best = Some((v, SiteSet::singleton(site))),
                Some((max, holders)) => {
                    if v > *max {
                        *max = v;
                        *holders = SiteSet::singleton(site);
                    } else if v == *max {
                        holders.insert(site);
                    }
                }
            }
        }
        best
    }

    /// Applies a commit: every `participant` adopts the given operation
    /// number, version number, and partition set (the paper's `COMMIT`).
    pub fn commit(&mut self, participants: SiteSet, op: u64, version: u64, partition: SiteSet) {
        for site in participants.iter() {
            self.states[site.index()] = ReplicaState {
                op,
                version,
                partition,
            };
        }
    }
}

impl fmt::Debug for StateTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(
                self.states
                    .iter()
                    .enumerate()
                    .map(|(index, state)| (SiteId::new(index), state)),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(indices: &[usize]) -> SiteSet {
        SiteSet::from_indices(indices.iter().copied())
    }

    #[test]
    fn fresh_matches_paper_initial_state() {
        // "the initial operation numbers o_i and version numbers v_i are 1
        //  and the partition vector P_i are {A, B, C} for all three copies"
        let copies = s(&[0, 1, 2]);
        let t = StateTable::fresh(copies);
        for site in copies.iter() {
            assert_eq!(t.get(site).op, 1);
            assert_eq!(t.get(site).version, 1);
            assert_eq!(t.get(site).partition, copies);
        }
    }

    #[test]
    fn a_table_holds_a_slot_per_site_up_to_its_highest_copy() {
        let copies = s(&[1, 3, 5]);
        let mut t = StateTable::fresh(copies);
        assert_eq!(t.states.len(), 6);
        assert_eq!(StateTable::fresh(s(&[0])).states.len(), 1);
        assert_eq!(StateTable::fresh(SiteSet::EMPTY).states.len(), 0);

        let top = SiteId::new(5);
        assert_eq!(*t.get(top), ReplicaState::initial(copies));
        let state = ReplicaState {
            op: 9,
            version: 4,
            partition: s(&[3, 5]),
        };
        t.set(top, state);
        assert_eq!(*t.get(top), state);
        t.get_mut(top).op = 10;
        assert_eq!(t.get(top).op, 10);
        assert_eq!(t.max_op(copies), Some((10, s(&[5]))));
    }

    #[test]
    #[should_panic(expected = "the len is 6 but the index is 6")]
    fn a_site_past_the_last_slot_panics() {
        let t = StateTable::fresh(s(&[1, 3, 5]));
        let _ = t.get(SiteId::new(6));
    }

    #[test]
    fn debug_prints_the_tables_own_slots() {
        let t = StateTable::fresh(s(&[0, 2]));
        let text = format!("{t:?}");
        assert_eq!(
            text,
            "{S0: o=1, v=1, P={S0, S2}, S1: o=1, v=1, P={S0, S2}, S2: o=1, v=1, P={S0, S2}}"
        );
    }

    #[test]
    fn max_op_groups_holders() {
        let mut t = StateTable::fresh(s(&[0, 1, 2]));
        t.get_mut(SiteId::new(0)).op = 5;
        t.get_mut(SiteId::new(1)).op = 5;
        t.get_mut(SiteId::new(2)).op = 3;
        let (max, holders) = t.max_op(s(&[0, 1, 2])).unwrap();
        assert_eq!(max, 5);
        assert_eq!(holders, s(&[0, 1]));
        assert_eq!(t.max_op(SiteSet::EMPTY), None);
    }

    #[test]
    fn max_version_groups_holders() {
        let mut t = StateTable::fresh(s(&[0, 1, 2]));
        t.get_mut(SiteId::new(2)).version = 9;
        let (max, holders) = t.max_version(s(&[0, 1, 2])).unwrap();
        assert_eq!(max, 9);
        assert_eq!(holders, s(&[2]));
    }

    #[test]
    fn commit_updates_only_participants() {
        let copies = s(&[0, 1, 2]);
        let mut t = StateTable::fresh(copies);
        t.commit(s(&[0, 2]), 4, 2, s(&[0, 2]));
        assert_eq!(t.get(SiteId::new(0)).op, 4);
        assert_eq!(t.get(SiteId::new(2)).partition, s(&[0, 2]));
        // Non-participant untouched.
        assert_eq!(t.get(SiteId::new(1)).op, 1);
        assert_eq!(t.get(SiteId::new(1)).partition, copies);
    }

    #[test]
    fn subset_restricted_maxima() {
        let mut t = StateTable::fresh(s(&[0, 1, 2]));
        t.get_mut(SiteId::new(0)).op = 10;
        // Restricting the group to {1, 2} ignores site 0's higher op.
        let (max, holders) = t.max_op(s(&[1, 2])).unwrap();
        assert_eq!(max, 1);
        assert_eq!(holders, s(&[1, 2]));
    }
}
