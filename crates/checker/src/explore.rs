//! Bounded exhaustive exploration with memoized deduplication.
//!
//! Layered breadth-first search over every interleaving of the event
//! alphabet, to a configurable depth, on the shared engine
//! (`crate::engine`): optionally multi-threaded (`threads`) and
//! optionally quotiented by site symmetry (`symmetry`, see
//! [`crate::symmetry`]). Branching copies the parent [`World`] into a
//! spare one with `clone_from`, reusing the spare's buffers (clusters
//! share their network and reachability memo), and only a child that
//! enters the frontier keeps its copy; deduplication hashes
//! every reached state's [`World::sym_view`] canonically under the
//! run's symmetry group (the trivial group when symmetry is off, under
//! which the canonical hash is the view's plain one) and skips a state
//! already explored with at least as much remaining depth
//! (*depth-left dominance*: a weaker revisit can only reach a subset of
//! what the stronger visit already covered; the engine's layer order
//! makes the first visit always the strongest, which is what keeps
//! parallel counts identical to sequential ones).
//!
//! Violating states are terminal: the violation is recorded with its
//! full event path and never expanded further, so every finding's trace
//! ends at the exact step that surfaced it.

use std::time::{Duration, Instant};

use dynvote_core::check::Violation;

use crate::engine::{self, EngineConfig, Space};
use crate::event::CheckEvent;
use crate::scenario::Scenario;
use crate::shrink::ddmin;
use crate::symmetry::{canonical_fingerprint, SymView, SymmetryGroup};
use crate::trace::regression_snippet;
use crate::world::{replay_classified, DetectScratch, World};

/// How often (in applied transitions) the wall-clock budget is polled.
/// The counter is shared across workers (a single atomic), so the poll
/// cadence holds fleet-wide: no worker can overrun the deadline by more
/// than one poll interval, however the layer is partitioned.
pub const BUDGET_POLL_MASK: u64 = 0x3FF;

/// The deepest bound a run accepts: the engine's seen map stores the
/// depth left at a state in one byte.
pub const MAX_DEPTH: usize = u8::MAX as usize;

/// A depth bound past [`MAX_DEPTH`]. Clamping it instead would alias
/// states seen with different depths left, so the run is refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DepthTooLarge {
    /// The depth that was asked for.
    pub depth: usize,
}

impl core::fmt::Display for DepthTooLarge {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "depth {} is past the checker's bound of {MAX_DEPTH}",
            self.depth
        )
    }
}

impl std::error::Error for DepthTooLarge {}

/// `depth` as the engine stores it.
///
/// # Errors
///
/// [`DepthTooLarge`] when `depth` exceeds [`MAX_DEPTH`].
pub fn checked_depth(depth: usize) -> Result<u8, DepthTooLarge> {
    u8::try_from(depth).map_err(|_| DepthTooLarge { depth })
}

/// One run of the checker.
#[derive(Clone, Debug)]
pub struct CheckConfig {
    /// The configuration under check.
    pub scenario: Scenario,
    /// Maximum number of events per path, at most [`MAX_DEPTH`].
    pub depth: usize,
    /// Wall-clock budget; `None` explores exhaustively (and
    /// deterministically — budgeted runs may truncate at a
    /// machine-dependent point).
    pub budget: Option<Duration>,
    /// At most this many findings keep their full traces (all
    /// violations are still *counted*).
    pub max_findings: usize,
    /// Minimize each recorded trace with delta debugging.
    pub shrink: bool,
    /// Worker threads for frontier expansion (1 = sequential; any
    /// value yields identical reports, see
    /// `tests/parallel_equivalence.rs`).
    pub threads: usize,
    /// Deduplicate states up to permutations of interchangeable
    /// same-segment sites (see [`crate::symmetry`]).
    pub symmetry: bool,
}

impl CheckConfig {
    /// A default configuration: exhaustive, sequential, no symmetry
    /// quotient, up to 8 recorded findings, shrinking on.
    #[must_use]
    pub fn new(scenario: Scenario, depth: usize) -> CheckConfig {
        CheckConfig {
            scenario,
            depth,
            budget: None,
            max_findings: 8,
            shrink: true,
            threads: 1,
            symmetry: false,
        }
    }

    /// Sets the worker-thread count.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> CheckConfig {
        self.threads = threads;
        self
    }

    /// Turns the symmetry quotient on or off.
    #[must_use]
    pub fn symmetry(mut self, on: bool) -> CheckConfig {
        self.symmetry = on;
        self
    }

    /// Whether [`run`] accepts this configuration.
    ///
    /// # Errors
    ///
    /// [`DepthTooLarge`] when `depth` exceeds [`MAX_DEPTH`].
    pub fn validate(&self) -> Result<(), DepthTooLarge> {
        checked_depth(self.depth).map(|_| ())
    }
}

/// One recorded invariant violation.
#[derive(Clone, Debug)]
pub struct Finding {
    /// The violated invariant.
    pub violation: Violation,
    /// Whether this is the topological protocols' documented
    /// sequential-claim hazard rather than a fresh bug.
    pub known_hazard: bool,
    /// The event path that reached the violation, as found.
    pub trace: Vec<CheckEvent>,
    /// The delta-debugged 1-minimal reproduction (equals `trace` when
    /// shrinking is off).
    pub shrunk: Vec<CheckEvent>,
    /// A ready-to-paste `#[test]` reproducing the violation.
    pub regression: String,
}

/// The result of one exploration.
#[derive(Clone, Debug)]
pub struct Report {
    /// The explored configuration.
    pub scenario: Scenario,
    /// The depth bound the run used.
    pub depth: usize,
    /// Distinct states visited (the root included; orbit
    /// representatives when symmetry is on).
    pub states_explored: u64,
    /// Transitions that landed on an already-covered state.
    pub dedup_hits: u64,
    /// Total transitions applied.
    pub transitions: u64,
    /// Whether the wall-clock budget truncated the search.
    pub truncated: bool,
    /// Violations classified as real bugs (total, not capped).
    pub real_violations: u64,
    /// Violations classified as known topological hazards (total).
    pub known_hazards: u64,
    /// Recorded findings, at most `max_findings`, in discovery order.
    pub findings: Vec<Finding>,
}

impl Report {
    /// Whether the run is clean: no real violations (known hazards are
    /// reported, not failed, unless the caller denies them).
    #[must_use]
    pub fn clean(&self) -> bool {
        self.real_violations == 0
    }
}

/// Every event applicable in `world`, in canonical order: crash/repair
/// per site, recover per up site, partition changes, then reads and
/// writes per up site. Canonical ordering is what makes exploration
/// (and therefore reports and recorded traces) deterministic.
#[must_use]
pub fn enumerate_events(world: &World) -> Vec<CheckEvent> {
    let cluster = &world.cluster;
    let copies = cluster.copies();
    let up = cluster.up_sites();
    let mut out = Vec::new();
    for site in copies.iter() {
        if up.contains(site) {
            out.push(CheckEvent::Crash(site));
        } else {
            out.push(CheckEvent::Repair(site));
        }
    }
    for site in copies.iter() {
        if up.contains(site) {
            out.push(CheckEvent::Recover(site));
        }
    }
    let partitions = world.partitions();
    if partitions.len() > 1 {
        for index in 1..partitions.len() {
            if world.forced() != Some(index) {
                out.push(CheckEvent::Partition(index));
            }
        }
        if world.forced().is_some() {
            out.push(CheckEvent::Heal);
        }
    }
    for site in copies.iter() {
        if up.contains(site) {
            out.push(CheckEvent::Read(site));
        }
    }
    for site in copies.iter() {
        if up.contains(site) {
            out.push(CheckEvent::Write(site));
        }
    }
    out
}

/// The invariant checker's [`Space`]: a [`World`] stepped through
/// [`crate::apply_and_detect`], with violations classified against the
/// policy's documented hazards at the transition that surfaced them.
struct CheckSpace {
    world: World,
    scenario: Scenario,
}

impl Clone for CheckSpace {
    fn clone(&self) -> Self {
        CheckSpace {
            world: self.world.clone(),
            scenario: self.scenario,
        }
    }

    /// Into the engine's spare: the world's buffers are reused.
    fn clone_from(&mut self, source: &Self) {
        self.world.clone_from(&source.world);
        self.scenario = source.scenario;
    }
}

impl Space for CheckSpace {
    type Hit = (Violation, bool);

    type Scratch = CheckScratch;

    fn events(&self) -> Vec<CheckEvent> {
        enumerate_events(&self.world)
    }

    fn step(&mut self, event: CheckEvent, scratch: &mut Self::Scratch) -> Vec<(Violation, bool)> {
        replay_classified(
            &mut scratch.detect,
            &mut self.world,
            self.scenario.policy,
            &[event],
        )
    }

    fn fingerprint(&self, group: &SymmetryGroup, scratch: &mut Self::Scratch) -> u64 {
        self.world.fill_view(&mut scratch.view);
        if let Some(fingerprint) = scratch.last_fingerprint {
            if scratch.last_view == scratch.view {
                return fingerprint;
            }
        }
        let fingerprint = canonical_fingerprint(&[&scratch.view], group);
        std::mem::swap(&mut scratch.view, &mut scratch.last_view);
        scratch.last_fingerprint = Some(fingerprint);
        fingerprint
    }
}

/// A [`CheckSpace`] worker's buffers: the detection tables, the view
/// each fingerprint fills, and a one-entry memo — the last view
/// canonicalized and its fingerprint. `canonical_fingerprint` is a
/// pure function of the view (the group is fixed for a run), so an
/// equal view reuses the memo's fingerprint exactly; sibling reads
/// granted at different origins often reach the very state the
/// previous transition reached.
#[derive(Default)]
struct CheckScratch {
    detect: DetectScratch,
    view: SymView,
    last_view: SymView,
    last_fingerprint: Option<u64>,
}

/// Runs the checker on the scenario's canonical cluster.
///
/// # Panics
///
/// When the configuration does not [`CheckConfig::validate`].
#[must_use]
pub fn run(config: &CheckConfig) -> Report {
    run_with_factory(config, &|scenario: &Scenario| scenario.build_cluster())
}

/// Runs the checker with a pluggable cluster factory.
///
/// The factory builds the root cluster *and* every reproduction replay
/// (shrinking re-validates candidate traces from scratch), so a factory
/// that arms a fault keeps it armed through minimization.
///
/// # Panics
///
/// When the configuration does not [`CheckConfig::validate`].
#[must_use]
pub fn run_with_factory(
    config: &CheckConfig,
    factory: &dyn Fn(&Scenario) -> dynvote_replica::Cluster<u64>,
) -> Report {
    let root = CheckSpace {
        world: World::with_cluster(factory(&config.scenario)),
        scenario: config.scenario,
    };
    let engine_config = EngineConfig {
        depth: checked_depth(config.depth).unwrap_or_else(|error| panic!("{error}")),
        threads: config.threads,
        symmetry: if config.symmetry {
            SymmetryGroup::of(&config.scenario)
        } else {
            SymmetryGroup::trivial(config.scenario.sites)
        },
        deadline: config.budget.map(|budget| Instant::now() + budget),
        max_traced: config.max_findings,
    };
    let result = engine::explore(root, &engine_config);

    let mut report = Report {
        scenario: config.scenario,
        depth: config.depth,
        states_explored: result.states_explored,
        dedup_hits: result.dedup_hits,
        transitions: result.transitions,
        truncated: result.truncated,
        real_violations: 0,
        known_hazards: 0,
        findings: Vec::new(),
    };
    for rec in result.hits {
        for (violation, hazard) in rec.hits {
            if hazard {
                report.known_hazards += 1;
            } else {
                report.real_violations += 1;
            }
            if report.findings.len() < config.max_findings {
                if let Some(trace) = &rec.trace {
                    report.findings.push(Finding {
                        violation,
                        known_hazard: hazard,
                        trace: trace.clone(),
                        shrunk: trace.clone(),
                        regression: String::new(),
                    });
                }
            }
        }
    }

    if config.shrink {
        for finding in &mut report.findings {
            finding.shrunk = shrink_finding(config, factory, finding);
            finding.regression = regression_snippet(
                &config.scenario,
                &finding.shrunk,
                finding.violation.invariant,
                finding.known_hazard,
            );
        }
    }
    report
}

/// Replays `events` on a fresh factory-built world and reports whether
/// the target violation (same invariant, same hazard classification)
/// occurs at any step.
pub fn reproduces(
    scenario: &Scenario,
    factory: &dyn Fn(&Scenario) -> dynvote_replica::Cluster<u64>,
    invariant: &str,
    known_hazard: bool,
    events: &[CheckEvent],
) -> bool {
    replay_classified(
        &mut DetectScratch::default(),
        &mut World::with_cluster(factory(scenario)),
        scenario.policy,
        events,
    )
    .iter()
    .any(|(violation, hazard)| violation.invariant == invariant && *hazard == known_hazard)
}

fn shrink_finding(
    config: &CheckConfig,
    factory: &dyn Fn(&Scenario) -> dynvote_replica::Cluster<u64>,
    finding: &Finding,
) -> Vec<CheckEvent> {
    ddmin(&finding.trace, |candidate| {
        reproduces(
            &config.scenario,
            factory,
            finding.violation.invariant,
            finding.known_hazard,
            candidate,
        )
    })
}

#[cfg(test)]
mod tests {
    use dynvote_replica::Protocol;

    use super::*;

    #[test]
    fn enumeration_is_canonical_and_liveness_aware() {
        let scenario = Scenario::new(Protocol::Ldv, 3, 1).unwrap();
        let world = World::new(&scenario);
        let events = enumerate_events(&world);
        // 3 crash + 3 recover + 3 read + 3 write, no partitions at one
        // segment.
        assert_eq!(events.len(), 12);
        assert_eq!(events, enumerate_events(&world), "stable order");

        let mut crashed = world.clone();
        crashed.apply(CheckEvent::Crash(dynvote_types::SiteId::new(1)));
        let events = enumerate_events(&crashed);
        // S1 swaps crash→repair and loses recover/read/write.
        assert_eq!(events.len(), 9);
        assert!(events.contains(&CheckEvent::Repair(dynvote_types::SiteId::new(1))));
    }

    #[test]
    fn multi_segment_enumeration_offers_partitions() {
        let scenario = Scenario::new(Protocol::Dv, 4, 2).unwrap();
        let world = World::new(&scenario);
        let events = enumerate_events(&world);
        assert!(events.contains(&CheckEvent::Partition(1)));
        assert!(!events.contains(&CheckEvent::Heal), "nothing to heal yet");
    }

    #[test]
    fn the_view_memo_never_changes_a_fingerprint() {
        // Every state within three events of a 4-site / 2-segment
        // scenario, under a non-trivial symmetry group (DV) and the
        // identity (ODV): a scratch that last saw a different view and
        // one that last saw this very view both answer what a fresh
        // canonicalization does.
        for policy in [Protocol::Dv, Protocol::Odv] {
            let scenario = Scenario::new(policy, 4, 2).unwrap();
            let group = SymmetryGroup::of(&scenario);
            let root = CheckSpace {
                world: World::new(&scenario),
                scenario,
            };
            let mut layer = vec![root.clone()];
            let mut states = vec![root.clone()];
            for _ in 0..3 {
                let mut next = Vec::new();
                for state in &layer {
                    for event in state.events() {
                        let mut child = state.clone();
                        if child.step(event, &mut CheckScratch::default()).is_empty() {
                            next.push(child);
                        }
                    }
                }
                states.extend(next.iter().cloned());
                layer = next;
            }
            assert!(states.len() > 1000, "{} states", states.len());
            for state in &states {
                let view = state.world.sym_view();
                let fresh = canonical_fingerprint(&[&view], &group);
                let other = if root.world.sym_view() == view {
                    &states[states.len() - 1]
                } else {
                    &root
                };
                assert_ne!(other.world.sym_view(), view);
                let mut scratch = CheckScratch::default();
                other.fingerprint(&group, &mut scratch);
                assert_eq!(state.fingerprint(&group, &mut scratch), fresh);
                assert_eq!(scratch.last_view, view);
                assert_eq!(state.fingerprint(&group, &mut scratch), fresh);
                // That second answer came from the memo, not a rerun.
                scratch.last_fingerprint = Some(!fresh);
                assert_eq!(state.fingerprint(&group, &mut scratch), !fresh);
            }
        }
    }

    #[test]
    fn a_depth_the_seen_map_cannot_hold_is_refused() {
        let scenario = Scenario::new(Protocol::Odv, 2, 1).unwrap();
        assert_eq!(CheckConfig::new(scenario, MAX_DEPTH).validate(), Ok(()));
        let too_deep = CheckConfig::new(scenario, MAX_DEPTH + 1);
        assert_eq!(too_deep.validate(), Err(DepthTooLarge { depth: 256 }));
        assert_eq!(checked_depth(255), Ok(255));
        let refused = std::panic::catch_unwind(|| run(&too_deep));
        assert!(refused.is_err(), "run must not clamp the depth");
    }

    #[test]
    fn tiny_exhaustive_run_is_clean_and_deterministic() {
        let scenario = Scenario::new(Protocol::Odv, 2, 1).unwrap();
        let config = CheckConfig::new(scenario, 3);
        let a = run(&config);
        let b = run(&config);
        assert!(a.clean(), "ODV at depth 3 must be violation-free");
        assert_eq!(a.known_hazards, 0);
        assert_eq!(a.states_explored, b.states_explored);
        assert_eq!(a.dedup_hits, b.dedup_hits);
        assert_eq!(a.transitions, b.transitions);
        assert!(a.states_explored > 1);
        assert!(!a.truncated);
    }

    #[test]
    fn tdv_two_sites_finds_the_fork_hazard() {
        let scenario = Scenario::new(Protocol::Tdv, 2, 1).unwrap();
        let report = run(&CheckConfig::new(scenario, 5));
        assert_eq!(report.real_violations, 0, "the fork is a *known* hazard");
        assert!(report.known_hazards > 0, "depth 5 reaches the 2-site fork");
        let finding = report
            .findings
            .iter()
            .find(|f| f.violation.invariant == "lineage-fork")
            .expect("a lineage-fork finding");
        assert!(finding.known_hazard);
        assert!(finding.shrunk.len() <= finding.trace.len());
        assert_eq!(finding.shrunk.len(), 5, "the 2-site fork needs 5 events");
    }

    #[test]
    fn threads_and_symmetry_flags_preserve_verdicts() {
        let scenario = Scenario::new(Protocol::Tdv, 3, 1).unwrap();
        let base = run(&CheckConfig::new(scenario, 5));
        let par = run(&CheckConfig::new(scenario, 5).threads(4));
        assert_eq!(base.states_explored, par.states_explored);
        assert_eq!(base.dedup_hits, par.dedup_hits);
        assert_eq!(base.transitions, par.transitions);
        assert_eq!(base.known_hazards, par.known_hazards);
        assert_eq!(base.real_violations, par.real_violations);

        // TDV's lexicographic tie-break degenerates the group to the
        // identity, so symmetry-on must be byte-for-byte equivalent.
        let sym = run(&CheckConfig::new(scenario, 5).symmetry(true));
        assert_eq!(base.states_explored, sym.states_explored);
        assert_eq!(base.known_hazards, sym.known_hazards);
        assert_eq!(base.real_violations, sym.real_violations);

        // DV is site-symmetric: the quotient must genuinely shrink the
        // state space without changing the verdict.
        let dv = Scenario::new(Protocol::Dv, 3, 1).unwrap();
        let dv_base = run(&CheckConfig::new(dv, 5));
        let dv_sym = run(&CheckConfig::new(dv, 5).symmetry(true));
        assert!(
            dv_sym.states_explored < dv_base.states_explored,
            "the quotient must actually shrink a symmetric scenario \
             ({} vs {})",
            dv_sym.states_explored,
            dv_base.states_explored,
        );
        assert!(dv_base.clean() && dv_sym.clean());
        assert_eq!(dv_base.known_hazards, 0);
        assert_eq!(dv_sym.known_hazards, 0);
    }
}
