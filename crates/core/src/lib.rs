#![warn(missing_docs)]

//! Dynamic voting protocols for replicated data.
//!
//! This crate implements the consistency protocols of *"Efficient Dynamic
//! Voting Algorithms"* (Jehan-François Pâris and Darrell D. E. Long,
//! ICDE 1988), plus the baselines they are evaluated against and the
//! extensions the paper points to:
//!
//! | Protocol | Module | Paper section |
//! |----------|--------|---------------|
//! | Majority Consensus Voting (MCV) | [`policy::dynamic`] | §1, baseline |
//! | Dynamic Voting (DV) | [`policy::dynamic`] | §2 (Davčev–Burkhard) |
//! | Lexicographic Dynamic Voting (LDV) | [`policy::dynamic`] | §2 (Jajodia) |
//! | **Optimistic Dynamic Voting (ODV)** | [`policy::dynamic`], [`ops`] | §2.1, Figs 1–3 |
//! | **Topological Dynamic Voting (TDV)** | [`policy::dynamic`] | §3 |
//! | **Optimistic Topological DV (OTDV)** | [`policy::dynamic`], [`ops`] | §3, Figs 5–7 |
//! | Available Copy | [`policy::available_copy`] | §3 (degenerate case) |
//! | Weighted voting (Gifford) | [`policy::dynamic`], [`decision`] | §5 (future work) |
//! | Voting with witnesses | [`policy::dynamic`], [`ops`] | §5 (future work) |
//!
//! # Architecture
//!
//! The protocol state each physical copy maintains — an *operation
//! number*, a *version number*, and a *partition set* — lives in
//! [`state::ReplicaState`]. The heart of every protocol is Algorithm 1,
//! the **majority-partition decision**, implemented once as a pure
//! function in [`decision`] and parameterized by a [`decision::Rule`]
//! (plain strict majority, lexicographic tie-break, topological vote
//! claiming, or MCV's static majority). The READ / WRITE / RECOVER
//! procedures of Figures 1–3 and 5–7 are implemented in [`ops`] as
//! *planners*: they take a view of the reachable states and return
//! either a [`ops::Plan`] describing exactly what to commit where, or
//! the [`AccessError`] explaining the abort.
//!
//! On top of the planners, [`policy`] packages each protocol as an
//! [`policy::AvailabilityPolicy`] — the state machine the discrete-event
//! availability simulator (crate `dynvote-availability`) drives, and the
//! message-level replicated store (crate `dynvote-replica`) executes.
//! [`Protocol`] is the one table of the six evaluated policies — their
//! names, tokens, decision rules and optimistic axis — that the
//! simulator, the replica cluster, the model checker and the daemon all
//! read.
//!
//! # Quick example
//!
//! ```
//! use dynvote_core::decision::{decide, Rule};
//! use dynvote_core::state::StateTable;
//! use dynvote_types::{SiteId, SiteSet};
//!
//! // Three copies on sites S0, S1, S2; everyone current.
//! let copies = SiteSet::first_n(3);
//! let states = StateTable::fresh(copies);
//!
//! // S1 is down: can {S0, S2} proceed?
//! let group = SiteSet::from_indices([0, 2]);
//! let d = decide(group, copies, &states, &Rule::lexicographic(), None);
//! assert!(d.granted().is_ok(), "2 of 3 is a strict majority");
//! ```

pub mod check;
pub mod decision;
pub mod fingerprint;
pub mod lexicon;
pub mod ops;
pub mod policy;
pub mod state;
pub mod wire;

pub use check::ProtocolSnapshot;
pub use decision::{decide, explain, Decision, Rule};
pub use dynvote_types::{AccessError, AccessKind, SiteId, SiteSet, VoteMap};
pub use fingerprint::Fnv64;
pub use lexicon::Lexicon;
pub use ops::{plan, plan_with_witnesses, OpKind, Plan};
pub use policy::{AvailabilityPolicy, Protocol};
pub use state::{ReplicaState, StateTable};
