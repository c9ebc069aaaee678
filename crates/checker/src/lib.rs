#![warn(missing_docs)]

//! `dynvote-check`: a bounded exhaustive model checker for the six
//! voting policies, with shrinking counterexample traces.
//!
//! The checker drives the *real* message-level implementation — the
//! [`dynvote_replica::Cluster`] with its actual READ / WRITE / RECOVER
//! code paths — through every interleaving of a small event alphabet
//! (site crash, site repair, explicit RECOVER, segment-respecting
//! partition, heal, READ, WRITE) up to a configurable depth, on
//! small-scope configurations (the CLI allows ≤ 8 sites and ≤ 3
//! segments: Figure 8's topology). It is not a re-model: a bug in the
//! cluster is a bug the checker can reach.
//!
//! The pieces:
//!
//! * [`Scenario`] — policy × sites × segments, with a canonical
//!   topology;
//! * [`CheckEvent`] / [`World`] — the enumerable alphabet and the
//!   explored state (real cluster + write-token ground truth);
//! * [`run`] / [`run_with_factory`] — layered breadth-first exploration
//!   ([`explore`]), deduplicating states by the fingerprint of their
//!   [`SymView`] under a [`SymmetryGroup`] (the trivial group unless
//!   symmetry is on) with depth-left dominance;
//! * invariants — the pluggable [`dynvote_core::check::StateInvariant`]
//!   suite (rival majorities, monotone counters) plus history oracles
//!   (stale reads, duplicate versions, lineage forks, the write-token
//!   oracle);
//! * [`ddmin`] / [`trace`] — delta-debugged 1-minimal traces,
//!   replayable text files, and generated `#[test]` regression
//!   snippets;
//! * [`diff`] — lockstep cross-policy differential checking
//!   (DV ⊆ LDV, ODV ≡ LDV, OTDV ≡ TDV).
//!
//! Violations under TDV/OTDV that stem from the documented
//! sequential-claim hazard are *classified* as known hazards and
//! reported separately instead of failing the run (see DESIGN.md); the
//! `--deny-hazards` CLI flag turns them back into failures.

pub mod diff;
pub(crate) mod engine;
pub mod event;
pub mod explore;
pub mod scenario;
pub mod shrink;
pub mod symmetry;
pub mod trace;
pub mod world;

pub use diff::{run_differential, DiffConfig, DiffFinding, DiffReport, Relation};
pub use event::CheckEvent;
pub use explore::{
    checked_depth, enumerate_events, run, run_with_factory, CheckConfig, DepthTooLarge, Finding,
    Report, MAX_DEPTH,
};
pub use scenario::{Scenario, ALL_POLICIES};
pub use shrink::ddmin;
pub use symmetry::{canonical_fingerprint, SymView, SymmetryGroup};
pub use trace::{replay, verify, Expectation, TraceFile};
pub use world::{
    apply_and_detect, classify_known_hazard, default_suite, groups_of, state_table_of, World,
};
