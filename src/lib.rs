#![warn(missing_docs)]

//! Dynamic voting protocols for replicated data — a full reproduction
//! of *"Efficient Dynamic Voting Algorithms"* (Pâris & Long,
//! ICDE 1988).
//!
//! This umbrella crate re-exports the workspace:
//!
//! * [`types`] — site identifiers, one-word site sets, vote maps;
//! * [`topology`] — non-partitionable segments joined by gateway hosts;
//! * [`core`] — the protocols: Algorithm 1, the READ/WRITE/RECOVER
//!   planners, and the MCV/DV/LDV/ODV/TDV/OTDV policy state machines
//!   (plus Available-Copy, weighted, witness and vote-reassignment
//!   extensions);
//! * [`sim`] — the discrete-event engine with batch-means statistics;
//! * [`availability`] — the paper's §4 study: Table 1 site models, the
//!   Figure 8 network, configurations A–H, and the experiment runner;
//! * [`replica`] — a message-level replicated store (and multi-file
//!   directory) that executes the same planners, with fault injection
//!   and an always-on invariant monitor;
//! * [`analytic`] — exact Markov-chain models cross-validating the
//!   simulator.
//!
//! # Example: a replicated value under Optimistic Dynamic Voting
//!
//! ```
//! use dynamic_voting::replica::{ClusterBuilder, Protocol};
//! use dynamic_voting::types::SiteId;
//!
//! let mut cluster = ClusterBuilder::new()
//!     .copies([0, 1, 2])
//!     .protocol(Protocol::Odv)
//!     .build_with_value(String::from("v1"));
//!
//! cluster.write(SiteId::new(0), "v2".into())?;
//! cluster.fail_site(SiteId::new(1)); // 2 of 3 is still a majority
//! assert_eq!(cluster.read(SiteId::new(2))?, "v2");
//!
//! cluster.repair_site(SiteId::new(1));
//! cluster.recover(SiteId::new(1))?; // Figure 3's RECOVER
//! assert!(cluster.checker().violations().is_empty());
//! # Ok::<(), dynamic_voting::types::AccessError>(())
//! ```
//!
//! # Example: measuring availability the paper's way
//!
//! The simulator takes the same `Protocol` the cluster runs:
//! `replica::Protocol` re-exports `core::policy::Protocol`.
//!
//! ```
//! use dynamic_voting::availability::config::CONFIG_B;
//! use dynamic_voting::availability::run::{simulate, Params};
//! use dynamic_voting::core::policy::Protocol;
//!
//! let result = simulate(Protocol::Ldv, &CONFIG_B, &Params::quick_test());
//! assert!(result.unavailability < 0.01);
//! ```

pub use dynvote_analytic as analytic;
pub use dynvote_availability as availability;
pub use dynvote_core as core;
pub use dynvote_replica as replica;
pub use dynvote_sim as sim;
pub use dynvote_topology as topology;
pub use dynvote_types as types;
