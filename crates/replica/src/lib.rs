#![warn(missing_docs)]

//! A message-level replicated store managed by dynamic voting.
//!
//! Where `dynvote-availability` measures *whether* the protocols would
//! grant accesses, this crate actually *runs* them: a [`Cluster`] hosts
//! one participant [`Node`] per site — a copy, or a §5 witness that
//! keeps ⟨o, v, P⟩ but no data — routes explicit `START` / state-reply
//! / `COMMIT` / data-copy [`Message`]s between nodes that can currently
//! communicate, stores real values at each copy, and exposes the READ /
//! WRITE / RECOVER operations of Figures 1–3 (and their topological
//! variants, Figures 5–7) as a public API. The three are one round —
//! poll, Algorithm 1's plan, an operation-specific step inside the
//! vote, commit to the new partition — written once. Which rule a
//! round decides by is the [`Protocol`]'s, the simulator's own policy
//! table (`dynvote_core::policy::Protocol`, re-exported here).
//!
//! Four supporting pieces make it a test bed as well as a library:
//!
//! * [`event`] — the one event alphabet ([`CheckEvent`]: crash, repair,
//!   partition, heal, READ, WRITE, RECOVER) that the model checker's
//!   traces, the [`scenario`] scripts and the live drivers all speak;
//! * [`nemesis`] — seeded random campaigns of site churn and message
//!   faults over the cluster's own fault surface
//!   ([`Cluster::fail_site`], [`Cluster::force_partition`],
//!   [`Cluster::inject_fault`], …);
//! * [`checker`] — an always-on invariant monitor (no stale reads,
//!   unique versions, no lineage forks) that records [`Violation`]s
//!   instead of panicking, so tests can also *demonstrate* the
//!   published protocols' edge cases;
//! * [`message::Trace`] — per-operation message counters (a total and
//!   one count per kind; no message bodies are kept), used to
//!   verify the paper's claim that the optimistic protocols cost "much
//!   the same message traffic overhead as majority consensus voting":
//!   `cluster::tests::message_counts_read` asserts the exact totals of
//!   one read and one write for every protocol at 3 and 5 copies.
//!
//! With no message faults injected a `Cluster` draws no randomness and
//! reads no clock, so a clone branches independently and an event
//! sequence replays identically — what the exhaustive checker
//! (`dynvote-check`) relies on when it drives the named methods above
//! and fingerprints the state it reads back through the accessors.
//!
//! # Quick example
//!
//! ```
//! use dynvote_replica::{ClusterBuilder, Protocol};
//! use dynvote_types::SiteId;
//!
//! let mut cluster = ClusterBuilder::new()
//!     .copies([0, 1, 2])
//!     .protocol(Protocol::Odv)
//!     .build_with_value("v1".to_string());
//!
//! cluster.write(SiteId::new(0), "v2".to_string()).unwrap();
//! cluster.fail_site(SiteId::new(1));
//! assert_eq!(cluster.read(SiteId::new(0)).unwrap(), "v2");
//! assert!(cluster.checker().violations().is_empty());
//! ```

pub mod bus;
pub mod checker;
pub mod cluster;
pub mod directory;
pub mod disk;
pub mod event;
pub mod message;
pub mod nemesis;
pub mod node;
pub mod scenario;
pub mod snapshot;
pub mod transport;
pub mod wal;

pub use bus::{Bus, BusStats, FaultAction, FaultRule, MessageClass, Verdict};
pub use checker::{Checker, Violation};
pub use cluster::{Cluster, ClusterBuilder, CommittedOp, OpStats};
pub use directory::{Directory, DirectoryError};
pub use disk::WalTail;
pub use dynvote_core::policy::Protocol;
pub use event::CheckEvent;
pub use message::{Message, MessageKind, Trace};
pub use nemesis::{run_nemesis, NemesisProfile, NemesisReport};
pub use node::Node;
pub use scenario::{Command, ScenarioError};
pub use snapshot::{DurableSiteState, SnapshotLoad};
pub use transport::{BusTransport, Carried, LocalServe, Reply, Response, Transport, WireRequest};
pub use wal::{DeltaFold, FsyncOutcome, Restored, SiteStore, Wal, WalEntry, WalRecord, WalReplay};
