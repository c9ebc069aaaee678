//! Randomized nemesis campaigns: seeded, replayable message-fault and
//! site-fault schedules driven against a live [`Cluster`].
//!
//! The randomness comes from [`dynvote_sim::SimRng`] — the same
//! deterministic generator the availability simulator uses — so a
//! campaign is fully reproducible from its seed: the property tests
//! print the seed of a failing run, and replaying it replays the exact
//! schedule, message by message.
//!
//! A campaign interleaves three kinds of adversity with ordinary
//! client traffic:
//!
//! * **site churn** — random fail/repair (with a RECOVER attempt after
//!   each repair, the paper's "repeat until successful" loop);
//! * **message faults** — random single-shot [`FaultRule`]s armed on
//!   the bus: drops, duplicates, delays and mid-operation crashes,
//!   including the partial-commit hazard (crash-on-`COMMIT`-receipt);
//! * **client operations** — reads, writes and recoveries from random
//!   origins, whose outcomes are tallied but never allowed to panic.
//!
//! The cluster's [`Checker`](crate::Checker) stays armed throughout;
//! callers assert on `cluster.checker().violations()` afterwards.

use dynvote_sim::SimRng;
use dynvote_types::{AccessError, SiteId, SiteSet};

use crate::bus::{FaultAction, FaultRule, MessageClass};
use crate::cluster::Cluster;

/// Tunable probabilities for one nemesis campaign. All probabilities
/// are per client operation.
#[derive(Clone, Copy, Debug)]
pub struct NemesisProfile {
    /// Chance of arming one random message-fault rule before an
    /// operation.
    pub fault_rule_p: f64,
    /// Chance that an armed rule is a crash action (recipient or
    /// sender) rather than drop/duplicate/delay.
    pub crash_p: f64,
    /// Chance of failing one random up participant first.
    pub site_fail_p: f64,
    /// Chance of repairing one random down participant first (followed
    /// by a RECOVER attempt at it).
    pub site_repair_p: f64,
    /// Client operations in the campaign.
    pub steps: u32,
}

impl Default for NemesisProfile {
    fn default() -> Self {
        NemesisProfile {
            fault_rule_p: 0.5,
            crash_p: 0.25,
            site_fail_p: 0.15,
            site_repair_p: 0.3,
            steps: 40,
        }
    }
}

/// Outcome tallies of one campaign. Every operation lands in exactly
/// one bucket; none may panic or hang.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NemesisReport {
    /// Operations that succeeded.
    pub granted: u64,
    /// Quorum refusals (`NoQuorum`, `TieLost`, `NoCurrentCopy`).
    pub refused: u64,
    /// Bounded-retry give-ups ([`AccessError::Timeout`]).
    pub timeouts: u64,
    /// Partially-committed operations ([`AccessError::Indeterminate`]).
    pub indeterminate: u64,
    /// Operations whose coordinator was (or died) down.
    pub origin_unavailable: u64,
}

impl NemesisReport {
    fn tally(&mut self, result: Result<(), AccessError>) {
        match result {
            Ok(()) => self.granted += 1,
            Err(AccessError::Timeout { .. }) => self.timeouts += 1,
            Err(AccessError::Indeterminate { .. }) => self.indeterminate += 1,
            Err(AccessError::OriginUnavailable { .. }) => self.origin_unavailable += 1,
            Err(_) => self.refused += 1,
        }
    }

    /// Total operations tallied.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.granted + self.refused + self.timeouts + self.indeterminate + self.origin_unavailable
    }
}

/// Picks the `n`-th site of a set, uniformly at random.
fn pick(rng: &mut SimRng, set: SiteSet) -> Option<SiteId> {
    if set.is_empty() {
        return None;
    }
    set.iter().nth(rng.below(set.len()))
}

/// One random single-shot message-fault rule aimed at `sites`.
#[must_use]
pub fn random_rule(rng: &mut SimRng, sites: SiteSet, crash_p: f64) -> FaultRule {
    const CLASSES: [MessageClass; 5] = [
        MessageClass::Start,
        MessageClass::State,
        MessageClass::Commit,
        MessageClass::CopyRequest,
        MessageClass::CopyReply,
    ];
    let action = if rng.bernoulli(crash_p) {
        if rng.bernoulli(0.5) {
            FaultAction::CrashRecipient
        } else {
            FaultAction::CrashSender
        }
    } else {
        match rng.below(3) {
            0 => FaultAction::Drop,
            1 => FaultAction::Duplicate,
            _ => FaultAction::Delay,
        }
    };
    FaultRule {
        class: Some(CLASSES[rng.below(CLASSES.len())]),
        from: None,
        to: pick(rng, sites),
        action,
        remaining: 1,
    }
}

/// Runs one full nemesis campaign against `cluster`, returning the
/// outcome tallies. Every draw comes from `rng`, so the seed alone
/// makes a run replayable.
pub fn run_nemesis(
    cluster: &mut Cluster<u64>,
    rng: &mut SimRng,
    profile: &NemesisProfile,
) -> NemesisReport {
    let mut report = NemesisReport::default();
    let participants = cluster.participants();
    for step in 0..profile.steps {
        // Site churn first: the poll that follows sees the new world.
        if rng.bernoulli(profile.site_fail_p) {
            if let Some(site) = pick(rng, cluster.up_sites() & participants) {
                cluster.fail_site(site);
            }
        }
        if rng.bernoulli(profile.site_repair_p) {
            if let Some(site) = pick(rng, participants - cluster.up_sites()) {
                cluster.repair_site(site);
                report.tally(cluster.recover(site));
            }
        }
        // Then the adversary arms the bus for whatever comes next.
        if rng.bernoulli(profile.fault_rule_p) {
            cluster.inject_fault(random_rule(rng, participants, profile.crash_p));
        }
        // One client operation from a random live origin.
        let Some(origin) = pick(rng, cluster.up_sites() & participants) else {
            continue;
        };
        match rng.below(3) {
            0 => report.tally(cluster.read(origin).map(|_| ())),
            1 => report.tally(cluster.write(origin, u64::from(step) + 2)),
            _ => report.tally(cluster.recover(origin)),
        }
    }
    // Lingering single-shot rules must not leak into later campaigns.
    cluster.clear_message_faults();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterBuilder, Protocol};

    fn cluster(protocol: Protocol) -> Cluster<u64> {
        ClusterBuilder::new()
            .copies([0, 1, 2, 3, 4])
            .protocol(protocol)
            .build_with_value(1)
    }

    #[test]
    fn campaign_is_replayable_from_seed() {
        let profile = NemesisProfile::default();
        let mut first = cluster(Protocol::Odv);
        let mut second = cluster(Protocol::Odv);
        let a = run_nemesis(&mut first, &mut SimRng::new(42), &profile);
        let b = run_nemesis(&mut second, &mut SimRng::new(42), &profile);
        assert_eq!(a, b, "same seed, same campaign");
        assert_eq!(first.trace().total(), second.trace().total());
        assert!(a.total() > 0);
    }

    #[test]
    fn campaign_never_violates_ldv_invariants() {
        let mut c = cluster(Protocol::Ldv);
        let report = run_nemesis(&mut c, &mut SimRng::new(7), &NemesisProfile::default());
        assert!(report.total() > 0);
        assert!(
            c.checker().violations().is_empty(),
            "violations: {:?}",
            c.checker().violations()
        );
    }
}
