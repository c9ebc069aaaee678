//! Consistency policies as availability state machines.
//!
//! The paper's simulation (§4) drives each protocol through a stream of
//! site failures, repairs, maintenance windows, and file accesses, and
//! measures when the replicated file is available. The
//! [`AvailabilityPolicy`] trait is exactly that interface:
//!
//! * **instantaneous** protocols (MCV, DV, LDV, TDV, Available Copy)
//!   update their quorum state on every topology change — they model the
//!   paper's *connection vector*, where "the quorums instantaneously
//!   reflect any change in the network status";
//! * **optimistic** protocols (ODV, OTDV) update state **only at access
//!   time**; between accesses their partition sets go stale, which is
//!   both their efficiency advantage and, on some configurations, an
//!   availability advantage (Table 2, configuration F).
//!
//! A policy answers, at any instant, *"would an access be granted right
//! now?"* ([`AvailabilityPolicy::is_available`]) without mutating state —
//! the probe the simulator integrates over time to measure
//! unavailability.

pub mod available_copy;
pub mod dynamic;
pub mod reassignment;

use dynvote_topology::{Network, Reachability};
use dynvote_types::SiteSet;

use crate::decision::Rule;
use crate::lexicon::Lexicon;

pub use available_copy::AvailableCopyPolicy;
pub use dynamic::DynamicPolicy;
pub use reassignment::VoteReassignmentPolicy;

/// What the copies see of a partition: each group ∩ copies, in group
/// order, with the groups that hold no copy dropped.
///
/// [`crate::decision::decide`] reads only `group ∩ copies`, and so do
/// [`DynamicPolicy`]'s commits, so two partitions with the same view
/// take the same branches. A site that holds no copy can fail or return
/// without changing the view. Two partitions that split the copies
/// differently never share a view.
///
/// The view also keeps the [`Reachability::id`] of the last partition
/// it matched or was set from. Equal ids imply equal groups, so the
/// driver's interned partitions — every access, and every return to an
/// up-set seen before — match with one compare; another partition is
/// compared group by group.
#[derive(Clone, Debug, Default)]
pub(crate) struct CopiesView {
    groups: Vec<SiteSet>,
    /// 0, which is never an id, until the view is first set.
    id: u64,
}

impl CopiesView {
    /// `true` when `reach` shows the copies this view.
    pub(crate) fn is_of(&self, reach: &Reachability, copies: SiteSet) -> bool {
        reach.id() == self.id || self.is_of_groups(reach.groups(), copies)
    }

    /// [`CopiesView::is_of`], remembering the id of a partition that
    /// matched group by group so that it matches with one compare next.
    pub(crate) fn matches(&mut self, reach: &Reachability, copies: SiteSet) -> bool {
        let seen = self.is_of(reach, copies);
        if seen {
            self.id = reach.id();
        }
        seen
    }

    fn is_of_groups(&self, groups: &[SiteSet], copies: SiteSet) -> bool {
        let mut mine = self.groups.iter();
        for &group in groups {
            let seen = group & copies;
            if !seen.is_empty() && mine.next() != Some(&seen) {
                return false;
            }
        }
        mine.next().is_none()
    }

    /// Becomes the view of `reach`, reusing its buffer.
    pub(crate) fn set(&mut self, reach: &Reachability, copies: SiteSet) {
        self.groups.clear();
        self.groups.extend(
            reach
                .groups()
                .iter()
                .map(|&group| group & copies)
                .filter(|seen| !seen.is_empty()),
        );
        self.id = reach.id();
    }
}

/// A consistency protocol viewed as an availability state machine.
///
/// The driver contract, identical to the paper's simulation model:
///
/// 1. [`reset`](AvailabilityPolicy::reset) at time zero (all sites up,
///    fresh state).
/// 2. On every site failure, repair, or maintenance transition, call
///    [`on_topology_change`](AvailabilityPolicy::on_topology_change)
///    with the new reachability.
/// 3. On every file access, call
///    [`on_access`](AvailabilityPolicy::on_access).
/// 4. Integrate [`is_available`](AvailabilityPolicy::is_available)
///    over time.
pub trait AvailabilityPolicy {
    /// Short display name ("MCV", "ODV", …).
    fn name(&self) -> &str;

    /// `true` when the policy exchanges state only at access time.
    fn optimistic(&self) -> bool {
        false
    }

    /// Returns the protocol to its initial state (all copies current,
    /// partition sets containing every copy).
    fn reset(&mut self);

    /// Notifies the policy that the set of up/communicating sites
    /// changed. Instantaneous protocols adjust quorums here; optimistic
    /// protocols only re-evaluate.
    ///
    /// Returns the availability *after* the change — the same value
    /// [`is_available`](AvailabilityPolicy::is_available) would report,
    /// already computed by the state exchange, so hot simulation loops
    /// need not pay a second decision pass per event.
    fn on_topology_change(&mut self, reach: &Reachability) -> bool;

    /// Drives one file access: returns `true` when granted, updating
    /// protocol state (quorum adjustment, reintegration of recovered
    /// sites) as a successful operation would.
    ///
    /// The return value equals the post-access
    /// [`is_available`](AvailabilityPolicy::is_available) — a granted
    /// access leaves the file available, a refused one changes nothing.
    fn on_access(&mut self, reach: &Reachability) -> bool;

    /// Non-mutating probe: would an access be granted right now?
    ///
    /// Hot loops should prefer the values returned by
    /// [`on_topology_change`](AvailabilityPolicy::on_topology_change) /
    /// [`on_access`](AvailabilityPolicy::on_access), which are
    /// contractually identical and already paid for.
    fn is_available(&self, reach: &Reachability) -> bool;

    /// Number of times two disjoint groups were granted in the same
    /// state exchange — the sequential-claim hazard's observable
    /// signature. Zero for every protocol except the topological
    /// variants (see `DynamicPolicy::rival_grants`).
    fn hazard_events(&self) -> u64 {
        0
    }
}

/// The six policies of the paper's evaluation (Table 2 / Table 3
/// columns): the one table that lists, names, tokenises and rules them.
///
/// The family has two axes. [`Protocol::rule`] is the decision rule — a
/// static majority (MCV), a majority without the tie-break (DV), with
/// the lexicographic tie-break (LDV, ODV), or with the tie-break and
/// topological vote claiming (TDV, OTDV). [`Protocol::optimistic`] is
/// when state is exchanged: at every change, or only at access time
/// (ODV, OTDV). The simulator ([`Protocol::build`]), the replica
/// cluster, the model checker and the daemon all read this one enum.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// Majority Consensus Voting — static quorums.
    Mcv,
    /// Dynamic Voting (Davčev–Burkhard) — instantaneous, no tie-break.
    Dv,
    /// Lexicographic Dynamic Voting (Jajodia) — instantaneous, tie-break.
    Ldv,
    /// Optimistic Dynamic Voting (this paper, Figures 1–3) — state at
    /// access time.
    Odv,
    /// Topological Dynamic Voting (this paper) — instantaneous, claims
    /// co-segment votes.
    Tdv,
    /// Optimistic Topological Dynamic Voting (this paper, Figures 5–7).
    Otdv,
}

impl Protocol {
    /// Every policy, in the Table 2 column order.
    pub const ALL: [Protocol; 6] = [
        Protocol::Mcv,
        Protocol::Dv,
        Protocol::Ldv,
        Protocol::Odv,
        Protocol::Tdv,
        Protocol::Otdv,
    ];

    /// Display name matching the paper's column headers ("MCV", …).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Mcv => "MCV",
            Protocol::Dv => "DV",
            Protocol::Ldv => "LDV",
            Protocol::Odv => "ODV",
            Protocol::Tdv => "TDV",
            Protocol::Otdv => "OTDV",
        }
    }

    /// The lower-case token of CLI values and trace files ("mcv", …).
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            Protocol::Mcv => "mcv",
            Protocol::Dv => "dv",
            Protocol::Ldv => "ldv",
            Protocol::Odv => "odv",
            Protocol::Tdv => "tdv",
            Protocol::Otdv => "otdv",
        }
    }

    /// The policy whose [`Protocol::token`] is `token`.
    #[must_use]
    pub fn parse(token: &str) -> Option<Protocol> {
        Protocol::ALL.into_iter().find(|p| p.token() == token)
    }

    /// `true` for the optimistic variants.
    #[must_use]
    pub fn optimistic(self) -> bool {
        matches!(self, Protocol::Odv | Protocol::Otdv)
    }

    /// The decision rule, breaking ties under `lexicon`. DV breaks none
    /// and ignores it; each optimistic variant shares the rule of its
    /// instantaneous twin.
    #[must_use]
    pub fn rule(self, lexicon: Lexicon) -> Rule {
        match self {
            Protocol::Mcv => Rule::static_majority(Some(lexicon)),
            Protocol::Dv => Rule::dv(),
            Protocol::Ldv | Protocol::Odv => Rule::with_lexicon(lexicon),
            Protocol::Tdv | Protocol::Otdv => Rule {
                topological: true,
                ..Rule::with_lexicon(lexicon)
            },
        }
    }

    /// Builds the policy for a file replicated on `copies` over
    /// `network`: one [`DynamicPolicy`] for every protocol.
    #[must_use]
    pub fn build(self, copies: SiteSet, network: &Network) -> Box<dyn AvailabilityPolicy> {
        Box::new(DynamicPolicy::of(self, copies, Some(network.clone())))
    }
}

impl core::fmt::Display for Protocol {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_order_matches_paper_columns() {
        let names: Vec<&str> = Protocol::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, vec!["MCV", "DV", "LDV", "ODV", "TDV", "OTDV"]);
    }

    #[test]
    fn optimism_flags() {
        assert!(!Protocol::Mcv.optimistic());
        assert!(!Protocol::Ldv.optimistic());
        assert!(Protocol::Odv.optimistic());
        assert!(Protocol::Otdv.optimistic());
    }

    #[test]
    fn build_produces_matching_names() {
        let net = Network::single_segment(3);
        let copies = SiteSet::first_n(3);
        for kind in Protocol::ALL {
            let policy = kind.build(copies, &net);
            assert_eq!(policy.name(), kind.name());
            assert_eq!(policy.optimistic(), kind.optimistic());
        }
    }
}
