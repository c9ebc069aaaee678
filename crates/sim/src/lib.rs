#![warn(missing_docs)]

//! A small discrete-event simulation engine.
//!
//! The paper's evaluation (§4) rejects closed-form stochastic modelling —
//! non-exponential repair times and simultaneous site failures plus
//! network partitions make the chains intractable — and instead runs a
//! discrete-event simulation with batch-means confidence intervals. This
//! crate is that substrate, kept deliberately generic so the availability
//! study, the ablations, and the property tests all drive the same
//! machinery:
//!
//! * [`SimTime`]/[`Duration`] — the virtual clock, measured in days (the
//!   natural unit of Table 1),
//! * [`SimRng`] + [`Dist`] — seeded random streams and the paper's
//!   failure/repair distributions (exponential, constant, and
//!   constant-plus-exponential),
//! * [`stats`] — outage bookkeeping and batch-means analysis with 95%
//!   Student-t confidence intervals.

pub mod dist;
pub mod rng;
pub mod stats;
pub mod time;

pub use dist::Dist;
pub use rng::SimRng;
pub use stats::{BatchMeans, OutageLog};
pub use time::{Duration, SimTime};
