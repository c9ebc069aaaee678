//! Dynamic voting with witnesses — the "witness copies" future work.

use dynvote_topology::Reachability;
use dynvote_types::SiteSet;

use crate::decision::{decide, Rule};
use crate::state::StateTable;

use super::AvailabilityPolicy;

/// Optimistic dynamic voting where some participants are **witnesses**:
/// sites that store the consistency-control state `(o, v, P)` but *no
/// data* (Pâris 1986, cited by the paper as the next inclusion).
///
/// Witnesses vote in the majority-partition decision exactly like full
/// copies — they are members of partition sets, they appear in `Q` —
/// but an access can only be *served* when at least one reachable
/// **full copy** holds the maximal version. A witness is thus a cheap
/// tie-breaker: three participants of which one is a witness give
/// nearly the availability of three copies at the storage cost of two.
///
/// The implementation reuses the dynamic-voting decision verbatim and
/// adds the data-availability constraint, demonstrating the paper's
/// claim that the partition-set formulation "can be expanded" cleanly.
#[derive(Clone, Debug)]
pub struct WitnessPolicy {
    /// Sites holding data + state.
    full: SiteSet,
    /// Sites holding state only.
    witnesses: SiteSet,
    rule: Rule,
    optimistic: bool,
    states: StateTable,
}

impl WitnessPolicy {
    /// A new witness policy: `full` sites store data, `witnesses` store
    /// state only. Optimistic (access-time) semantics by default — this
    /// is the ODV-with-witnesses protocol.
    ///
    /// # Panics
    ///
    /// Panics when `full` is empty (someone must hold the data) or when
    /// the two sets overlap.
    #[must_use]
    pub fn new(full: SiteSet, witnesses: SiteSet) -> Self {
        WitnessPolicy::with_mode(full, witnesses, true)
    }

    /// Same, choosing between optimistic and instantaneous semantics.
    #[must_use]
    pub fn with_mode(full: SiteSet, witnesses: SiteSet, optimistic: bool) -> Self {
        assert!(!full.is_empty(), "at least one full copy is required");
        assert!(
            full.is_disjoint(witnesses),
            "a site cannot be both a copy and a witness"
        );
        let all = full | witnesses;
        WitnessPolicy {
            full,
            witnesses,
            rule: Rule::lexicographic(),
            optimistic,
            states: StateTable::fresh(all),
        }
    }

    /// All voting participants (copies and witnesses).
    #[must_use]
    pub fn participants(&self) -> SiteSet {
        self.full | self.witnesses
    }

    /// Read-only protocol state (for tests).
    #[must_use]
    pub fn states(&self) -> &StateTable {
        &self.states
    }

    /// Decision + the data constraint: the maximal version in the group
    /// must be held by a reachable **full** copy.
    fn group_grants(&self, group: SiteSet) -> bool {
        let d = decide(group, self.participants(), &self.states, &self.rule, None);
        d.is_granted() && !(d.current_set & self.full).is_empty()
    }

    fn sync_group(&mut self, group: SiteSet) -> bool {
        let d = decide(group, self.participants(), &self.states, &self.rule, None);
        if d.is_granted() && !(d.current_set & self.full).is_empty() {
            let r = group & self.participants();
            // Full copies resync data from a current full copy;
            // witnesses just adopt the new state stamp.
            self.states.commit(r, d.max_op + 1, d.max_version, r);
            true
        } else {
            false
        }
    }

    fn sync_all(&mut self, reach: &Reachability) -> bool {
        let mut granted = false;
        for i in 0..reach.groups().len() {
            granted |= self.sync_group(reach.groups()[i]);
        }
        granted
    }
}

impl AvailabilityPolicy for WitnessPolicy {
    fn name(&self) -> &str {
        "ODV+W"
    }

    fn optimistic(&self) -> bool {
        self.optimistic
    }

    fn reset(&mut self) {
        self.states = StateTable::fresh(self.participants());
    }

    fn on_topology_change(&mut self, reach: &Reachability) -> bool {
        if self.optimistic {
            self.is_available(reach)
        } else {
            self.sync_all(reach)
        }
    }

    fn on_access(&mut self, reach: &Reachability) -> bool {
        self.sync_all(reach)
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

    /// Two copies + one witness behaves like three copies for quorum
    /// purposes while any copy survives.
    #[test]
    fn witness_breaks_the_two_copy_tie() {
        let full = SiteSet::from_indices([0, 1]);
        let w = SiteSet::from_indices([2]);
        let mut p = WitnessPolicy::with_mode(full, w, false);
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

    #[test]
    fn witness_alone_cannot_serve_data() {
        let full = SiteSet::from_indices([0, 1]);
        let w = SiteSet::from_indices([2]);
        let mut p = WitnessPolicy::with_mode(full, w, false);
        // Shrink to {S1, witness}:
        p.on_topology_change(&reach(&[&[1, 2]]));
        assert!(p.is_available(&reach(&[&[1, 2]])));
        // Now S1 fails: the witness alone holds a quorum tie... but no
        // data. The file must be unavailable.
        let r = reach(&[&[2]]);
        p.on_topology_change(&r);
        assert!(!p.is_available(&r), "witness holds no data");
    }

    #[test]
    fn stale_copy_plus_witness_cannot_serve_newer_data() {
        let full = SiteSet::from_indices([0, 1]);
        let w = SiteSet::from_indices([2]);
        let mut p = WitnessPolicy::with_mode(full, w, false);
        // S0 partitioned away; {S1, witness} proceed (writes included:
        // our sync models an up-to-date commit).
        p.on_topology_change(&reach(&[&[1, 2], &[0]]));
        // S1 dies; S0 heals back next to the witness. The witness's
        // version stamp exceeds S0's — quorum may exist but data do not.
        let r = reach(&[&[0, 2]]);
        // Simulate that a write bumped the version while S0 was away.
        p.states.get_mut(SiteId::new(1)).version += 1;
        p.states.get_mut(SiteId::new(2)).version += 1;
        p.on_topology_change(&r);
        assert!(
            !p.is_available(&r),
            "latest version lives only on dead S1 and the witness"
        );
    }

    #[test]
    fn optimistic_mode_defers_state_changes() {
        let mut p = WitnessPolicy::new(SiteSet::from_indices([0, 1]), SiteSet::from_indices([2]));
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
    fn reset_restores_participants() {
        let mut p = WitnessPolicy::new(SiteSet::from_indices([0]), SiteSet::from_indices([1]));
        p.on_access(&reach(&[&[0]]));
        p.reset();
        assert_eq!(
            p.states().get(SiteId::new(0)).partition,
            SiteSet::first_n(2)
        );
    }

    #[test]
    #[should_panic(expected = "cannot be both")]
    fn overlap_rejected() {
        let _ = WitnessPolicy::new(SiteSet::first_n(2), SiteSet::from_indices([1]));
    }

    #[test]
    #[should_panic(expected = "at least one full copy")]
    fn no_full_copies_rejected() {
        let _ = WitnessPolicy::new(SiteSet::EMPTY, SiteSet::first_n(2));
    }
}
