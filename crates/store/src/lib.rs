#![warn(missing_docs)]

//! A real networked replicated-file service speaking the voting
//! protocols of *"Efficient Dynamic Voting Algorithms"* over TCP.
//!
//! Where `dynvote-replica` runs whole clusters in one process behind
//! the in-memory nemesis bus, this crate deploys the *same* protocol
//! implementation — the identical [`Cluster`](dynvote_replica::Cluster)
//! poll/plan/copy/commit code path, reached through the
//! [`Transport`](dynvote_replica::Transport) seam — across real
//! processes and real sockets:
//!
//! * [`wire`] — the length-prefixed binary frame protocol (total
//!   decoding over untrusted bytes);
//! * [`tcp`] — [`tcp::TcpTransport`]: one link per peer, driven on the
//!   calling thread under the socket's own timeouts, capped
//!   exponential reconnect backoff, and the runtime [`tcp::LinkRules`]
//!   that cut *real* partitions into a live cluster;
//! * [`value`] — [`value::ShardValue`]: a shard group's replicated
//!   value as the cluster holds it — cheap to clone, resident as a
//!   decoded map when it is one, carrying the delta a keyed batch made
//!   it by;
//! * [`config`] / [`server`] — the `dynvote-stored` daemon: one site
//!   per process, always the sharded service (one group on every site
//!   unless `--shards` says otherwise), one listener for peer, client,
//!   and admin frames;
//! * [`client`] and [`conn`] — the two client primitives, the only
//!   two things outside the peer link that open a socket:
//!   [`client::exchange`] is one connection per call, one frame each
//!   way, failing fast and typed when the daemon is gone (`dynvote-ctl`,
//!   boot polls, the wedge probe); [`conn::Connection`] is one
//!   persistent stream with N outstanding correlation-id-tagged
//!   requests and the only client-side reconnect backoff (load, the
//!   router, the nemesis workload);
//! * [`router`] — a caller of both: cached, epoch-tagged shard map;
//!   key-to-shard hashing; per-shard coordinator routing with typed
//!   stale-map retry; and the scripted rebalance driver;
//! * [`replay`] — drive a live cluster through minimized model-checker
//!   counterexample traces;
//! * [`campaign`] — the live nemesis: seeded, time-bounded randomized
//!   fault campaigns (SIGKILL/restart, partitions, disk injection,
//!   stalls) against a fleet of real daemons, with a concurrent client
//!   workload and an online invariant monitor (`dynvote-nemesis`).
//!
//! # Quick example (in-process loopback cluster)
//!
//! ```no_run
//! use std::time::Duration;
//! use dynvote_store::config::Config;
//! use dynvote_store::client::request;
//! use dynvote_store::server::BOOT_EPOCH;
//! use dynvote_store::wire::Frame;
//!
//! let args = "--site 0 --policy odv --peers 0=127.0.0.1:7100,1=127.0.0.1:7101,2=127.0.0.1:7102 \
//!             --data-dir /var/lib/dynvote/node0";
//! let config = Config::parse_args(args.split_whitespace().map(str::to_string)).unwrap();
//! let daemon = dynvote_store::server::start(config).unwrap();
//! // The paper's one file is one key of shard 0's map, written here at
//! // the site the frame is sent to.
//! let outcome = request(
//!     &daemon.addr().to_string(),
//!     &Frame::put_file(BOOT_EPOCH, 0, b"hello".to_vec()),
//!     Duration::from_secs(2),
//! ).unwrap();
//! assert!(outcome.granted());
//! ```

pub mod campaign;
pub mod client;
pub mod config;
pub mod conn;
pub mod jitter;
pub mod probe;
pub mod replay;
pub mod router;
pub mod server;
pub mod tcp;
pub mod value;
pub mod wire;

pub use client::{exchange, request, request_deadline, ClientError, Deadline, Outcome};
pub use config::Config;
pub use conn::{ConnOptions, Connection};
pub use replay::{run as run_replay, ReplayStep};
pub use router::ShardRouter;
pub use server::{refusal_clause, start, start_on, unavailable_reason, ServiceHandle};
pub use tcp::{LinkRules, PeerStats, TcpTimeouts, TcpTransport};
pub use wire::{read_frame, write_frame, Frame, FrameError, UnavailableReason, MAX_FRAME};
