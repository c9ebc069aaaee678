//! Cross-policy differential oracle: lockstep exploration of two
//! policies under identical event schedules.
//!
//! Two relations are checked:
//!
//! * [`Relation::GrantImplies`] — every operation the primary policy
//!   grants, the reference grants too (grant-set inclusion under a
//!   shared history). The sound instance is **DV ⊆ LDV**: LDV is DV
//!   plus a tie-break, so it can only grant *more*.
//! * [`Relation::Equivalent`] — the policies take identical decisions
//!   and their worlds stay identical (equal [`World::sym_view`]s).
//!   The sound instances are **ODV ≡ LDV** and **OTDV ≡ TDV**: at
//!   message level the optimistic/instantaneous distinction is about
//!   *when clients invoke operations*, which the event schedule already
//!   controls, so the rules coincide.
//!
//! The often-assumed third relation, **MCV ⊆ LDV**, is *false* — MCV
//! counts every reachable copy while LDV's shrunk partitions demand the
//! lineage's survivors, so a repaired-but-unrecovered copy lets MCV
//! grant where LDV refuses. The checker found and minimized a witness;
//! it is pinned as a corpus trace and documented in EXPERIMENTS.md
//! rather than asserted as an invariant.
//!
//! Differential runs share the layered-BFS engine (`crate::engine`)
//! with the invariant checker, so they inherit `--threads` parallelism
//! and the `--symmetry` quotient. A pair state is deduplicated by the
//! combined canonical fingerprint of both worlds' views (under the
//! trivial group when symmetry is off); under symmetry the *same*
//! relabeling is applied to both sides (a permutation that maps pair
//! `(p, r)` onto pair `(πp, πr)` is a symmetry of the lockstep system
//! only if it is one of each side), and the admissible group is the
//! *meet* of the two policies' groups — which, per the soundness rules
//! in [`crate::symmetry`], is non-trivial only when both policies are
//! site-symmetric.

use std::time::{Duration, Instant};

use dynvote_replica::Protocol;

use crate::engine::{self, EngineConfig, Space};
use crate::event::CheckEvent;
use crate::explore::{checked_depth, enumerate_events, DepthTooLarge};
use crate::scenario::Scenario;
use crate::shrink::ddmin;
use crate::symmetry::{canonical_fingerprint, SymView, SymmetryGroup};
use crate::world::World;

/// The relation a differential run asserts between primary and
/// reference policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Relation {
    /// Primary grants ⟹ reference grants (grant-set inclusion).
    GrantImplies,
    /// Identical decisions and identical world states.
    Equivalent,
}

/// One differential run: primary policy (from `scenario`) vs
/// `reference`, same sites/segments/depth.
#[derive(Clone, Debug)]
pub struct DiffConfig {
    /// Scenario of the *primary* policy.
    pub scenario: Scenario,
    /// The reference policy.
    pub reference: Protocol,
    /// The asserted relation.
    pub relation: Relation,
    /// Maximum number of events per path, at most
    /// [`crate::explore::MAX_DEPTH`].
    pub depth: usize,
    /// Wall-clock budget; `None` is exhaustive.
    pub budget: Option<Duration>,
    /// At most this many counterexamples keep their traces.
    pub max_findings: usize,
    /// Worker threads for frontier expansion.
    pub threads: usize,
    /// Quotient pair states by the meet of both policies' symmetry
    /// groups.
    pub symmetry: bool,
}

impl DiffConfig {
    /// A default exhaustive configuration: sequential, no symmetry.
    #[must_use]
    pub fn new(
        scenario: Scenario,
        reference: Protocol,
        relation: Relation,
        depth: usize,
    ) -> DiffConfig {
        DiffConfig {
            scenario,
            reference,
            relation,
            depth,
            budget: None,
            max_findings: 4,
            threads: 1,
            symmetry: false,
        }
    }

    /// Sets the worker-thread count.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> DiffConfig {
        self.threads = threads;
        self
    }

    /// Turns the symmetry quotient on or off.
    #[must_use]
    pub fn symmetry(mut self, on: bool) -> DiffConfig {
        self.symmetry = on;
        self
    }

    /// Whether [`run_differential`] accepts this configuration.
    ///
    /// # Errors
    ///
    /// [`DepthTooLarge`] when `depth` exceeds
    /// [`crate::explore::MAX_DEPTH`].
    pub fn validate(&self) -> Result<(), DepthTooLarge> {
        checked_depth(self.depth).map(|_| ())
    }

    fn reference_scenario(&self) -> Scenario {
        Scenario {
            policy: self.reference,
            ..self.scenario
        }
    }
}

/// One relation counterexample.
#[derive(Clone, Debug)]
pub struct DiffFinding {
    /// The events leading to (and including) the diverging step.
    pub trace: Vec<CheckEvent>,
    /// What diverged.
    pub detail: String,
    /// The delta-debugged minimal reproduction.
    pub shrunk: Vec<CheckEvent>,
}

/// The result of one differential run.
#[derive(Clone, Debug)]
pub struct DiffReport {
    /// The primary scenario.
    pub scenario: Scenario,
    /// The reference policy.
    pub reference: Protocol,
    /// The asserted relation.
    pub relation: Relation,
    /// Distinct lockstep states visited.
    pub states_explored: u64,
    /// Transitions landing on covered states.
    pub dedup_hits: u64,
    /// Total transitions applied.
    pub transitions: u64,
    /// Whether the budget truncated the run.
    pub truncated: bool,
    /// Total relation mismatches (not capped).
    pub mismatches: u64,
    /// Recorded counterexamples.
    pub findings: Vec<DiffFinding>,
}

impl DiffReport {
    /// Whether the relation held everywhere explored.
    #[must_use]
    pub fn holds(&self) -> bool {
        self.mismatches == 0
    }
}

/// The lockstep pair, as a [`Space`]: a mismatch is a terminal hit.
struct PairSpace {
    primary: World,
    reference: World,
    primary_policy: Protocol,
    reference_policy: Protocol,
    relation: Relation,
}

impl Clone for PairSpace {
    fn clone(&self) -> Self {
        PairSpace {
            primary: self.primary.clone(),
            reference: self.reference.clone(),
            primary_policy: self.primary_policy,
            reference_policy: self.reference_policy,
            relation: self.relation,
        }
    }

    /// Into the engine's spare: both worlds' buffers are reused.
    fn clone_from(&mut self, source: &Self) {
        let PairSpace {
            primary,
            reference,
            primary_policy,
            reference_policy,
            relation,
        } = source;
        self.primary.clone_from(primary);
        self.reference.clone_from(reference);
        self.primary_policy = *primary_policy;
        self.reference_policy = *reference_policy;
        self.relation = *relation;
    }
}

impl Space for PairSpace {
    type Hit = String;

    type Scratch = [SymView; 2];

    fn events(&self) -> Vec<CheckEvent> {
        // The alphabet comes from the primary world; fault events keep
        // the two up-sets identical, so enumeration agrees between the
        // worlds even after their partition sets diverge.
        enumerate_events(&self.primary)
    }

    fn step(&mut self, event: CheckEvent, views: &mut [SymView; 2]) -> Vec<String> {
        check_pair(self, event, views).into_iter().collect()
    }

    fn fingerprint(&self, group: &SymmetryGroup, views: &mut [SymView; 2]) -> u64 {
        self.primary.fill_view(&mut views[0]);
        self.reference.fill_view(&mut views[1]);
        canonical_fingerprint(&[&views[0], &views[1]], group)
    }
}

/// Applies one event to both worlds and checks the relation;
/// `Some(detail)` on mismatch. `views` is scratch.
fn check_pair(pair: &mut PairSpace, event: CheckEvent, views: &mut [SymView; 2]) -> Option<String> {
    let out_primary = pair.primary.apply(event);
    let out_reference = pair.reference.apply(event);
    let primary_name = pair.primary_policy.token();
    let reference_name = pair.reference_policy.token();
    match pair.relation {
        Relation::GrantImplies => {
            if out_primary.granted && !out_reference.granted {
                return Some(format!(
                    "{primary_name} granted `{event}` but {reference_name} refused it \
                     ({:?})",
                    out_reference.refusal
                ));
            }
        }
        Relation::Equivalent => {
            if out_primary.granted != out_reference.granted {
                return Some(format!(
                    "`{event}`: {primary_name} {} while {reference_name} {}",
                    verdict(out_primary.granted),
                    verdict(out_reference.granted)
                ));
            }
            pair.primary.fill_view(&mut views[0]);
            pair.reference.fill_view(&mut views[1]);
            if views[0] != views[1] {
                return Some(format!(
                    "states diverged after `{event}` despite identical decisions"
                ));
            }
        }
    }
    None
}

fn verdict(granted: bool) -> &'static str {
    if granted {
        "granted"
    } else {
        "refused"
    }
}

fn root_pair(config: &DiffConfig) -> PairSpace {
    PairSpace {
        primary: World::new(&config.scenario),
        reference: World::new(&config.reference_scenario()),
        primary_policy: config.scenario.policy,
        reference_policy: config.reference,
        relation: config.relation,
    }
}

/// Replays `events` on fresh lockstep worlds; true if any step breaks
/// the relation.
fn mismatch_reproduces(config: &DiffConfig, events: &[CheckEvent]) -> bool {
    let mut pair = root_pair(config);
    let mut views = Default::default();
    events
        .iter()
        .any(|&event| check_pair(&mut pair, event, &mut views).is_some())
}

/// Runs the lockstep differential exploration.
///
/// # Panics
///
/// When the configuration does not [`DiffConfig::validate`].
#[must_use]
pub fn run_differential(config: &DiffConfig) -> DiffReport {
    let engine_config = EngineConfig {
        depth: checked_depth(config.depth).unwrap_or_else(|error| panic!("{error}")),
        threads: config.threads,
        symmetry: if config.symmetry {
            SymmetryGroup::of(&config.scenario)
                .meet(&SymmetryGroup::of(&config.reference_scenario()))
        } else {
            SymmetryGroup::trivial(config.scenario.sites)
        },
        deadline: config.budget.map(|budget| Instant::now() + budget),
        max_traced: config.max_findings,
    };
    let result = engine::explore(root_pair(config), &engine_config);

    let mut report = DiffReport {
        scenario: config.scenario,
        reference: config.reference,
        relation: config.relation,
        states_explored: result.states_explored,
        dedup_hits: result.dedup_hits,
        transitions: result.transitions,
        truncated: result.truncated,
        mismatches: 0,
        findings: Vec::new(),
    };
    for rec in result.hits {
        for detail in rec.hits {
            report.mismatches += 1;
            if report.findings.len() < config.max_findings {
                if let Some(trace) = &rec.trace {
                    report.findings.push(DiffFinding {
                        trace: trace.clone(),
                        detail,
                        shrunk: trace.clone(),
                    });
                }
            }
        }
    }
    for finding in &mut report.findings {
        finding.shrunk = ddmin(&finding.trace, |candidate| {
            mismatch_reproduces(config, candidate)
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_depth_the_seen_map_cannot_hold_is_refused() {
        let scenario = Scenario::new(Protocol::Odv, 2, 1).unwrap();
        let at_bound = DiffConfig::new(scenario, Protocol::Ldv, Relation::Equivalent, 255);
        assert_eq!(at_bound.validate(), Ok(()));
        let too_deep = DiffConfig::new(scenario, Protocol::Ldv, Relation::Equivalent, 256);
        assert_eq!(too_deep.validate(), Err(DepthTooLarge { depth: 256 }));
    }

    #[test]
    fn odv_is_ldv_at_message_level() {
        let scenario = Scenario::new(Protocol::Odv, 3, 1).unwrap();
        let config = DiffConfig::new(scenario, Protocol::Ldv, Relation::Equivalent, 4);
        let report = run_differential(&config);
        assert!(report.holds(), "findings: {:?}", report.findings);
        assert!(report.states_explored > 1);
    }

    #[test]
    fn dv_grants_imply_ldv_grants() {
        let scenario = Scenario::new(Protocol::Dv, 3, 1).unwrap();
        let config = DiffConfig::new(scenario, Protocol::Ldv, Relation::GrantImplies, 4);
        let report = run_differential(&config);
        assert!(report.holds(), "findings: {:?}", report.findings);
    }

    #[test]
    fn mcv_domination_by_ldv_is_refuted() {
        // The textbook-sounding "MCV ⊆ LDV" is false: a repaired but
        // unrecovered copy counts for MCV's static majority but not for
        // LDV's shrunk partition. The checker must find (and shrink) a
        // witness at 4 sites within depth 6.
        let scenario = Scenario::new(Protocol::Mcv, 4, 1).unwrap();
        let config = DiffConfig::new(scenario, Protocol::Ldv, Relation::GrantImplies, 6);
        let report = run_differential(&config);
        assert!(!report.holds(), "MCV ⊆ LDV should be refuted");
        let finding = &report.findings[0];
        assert!(finding.shrunk.len() <= finding.trace.len());
        assert!(
            finding.shrunk.len() <= 6,
            "witness should shrink small, got {:?}",
            finding.shrunk
        );
    }

    #[test]
    fn parallel_and_symmetric_diff_agree_with_sequential() {
        let scenario = Scenario::new(Protocol::Odv, 3, 1).unwrap();
        let base = run_differential(&DiffConfig::new(
            scenario,
            Protocol::Ldv,
            Relation::Equivalent,
            4,
        ));
        let par = run_differential(
            &DiffConfig::new(scenario, Protocol::Ldv, Relation::Equivalent, 4).threads(4),
        );
        assert_eq!(base.states_explored, par.states_explored);
        assert_eq!(base.dedup_hits, par.dedup_hits);
        assert_eq!(base.transitions, par.transitions);
        assert_eq!(base.mismatches, par.mismatches);

        // ODV/LDV both carry the lexicographic tie-break, so the meet
        // group is the identity and symmetry-on must change nothing.
        let sym = run_differential(
            &DiffConfig::new(scenario, Protocol::Ldv, Relation::Equivalent, 4).symmetry(true),
        );
        assert_eq!(base.states_explored, sym.states_explored);
        assert_eq!(base.mismatches, sym.mismatches);
    }
}
