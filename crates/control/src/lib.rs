#![warn(missing_docs)]

//! The sharded store's control plane (DESIGN.md §14).
//!
//! The data plane runs N independent dynamic-voting groups — one
//! `Cluster` per *shard*, each with its own ⟨o, v, P⟩ state, its own
//! placement, and its own WAL/snapshot namespace. This crate holds
//! everything the control plane needs to describe and route that
//! fleet, with no networking of its own:
//!
//! * [`map`] — the [`ShardMap`]: a versioned,
//!   checksummed, persisted assignment of key-hash ranges onto shard
//!   groups. Every daemon and every client carries one; the map
//!   *epoch* is the single version number that makes "stale client"
//!   a typed, retryable condition instead of a misrouted write.
//! * [`placement`] — [`Placement`] policies
//!   mapping shards onto sites: a rotating ring, plus the paper's
//!   configurations A–H reused as per-shard placements on an
//!   eight-site fleet.
//! * [`kv`] — the codec for the replicated value each shard group
//!   actually votes on: an ordered `key → bytes` map, so one quorum
//!   round can carry a whole batch of keyed writes — as a full image,
//!   as a put list applied to the image a copy already holds
//!   ([`KvPuts`]), and as the resident decoded form a
//!   daemon keeps between batches ([`KvMap`]).
//!
//! Rebalancing is deliberately *not* a new protocol: moving a copy of
//! shard `k` to site `t` is (1) an epoch bump adding `t` to `k`'s
//! placement, (2) the paper's RECOVER run at `t` — a brand-new copy
//! with ⟨0, 0, P₀⟩ is indistinguishable from a crashed-and-wiped site,
//! which RECOVER already handles — and (3) optionally a second epoch
//! bump dropping the source copy. See DESIGN.md §14 for the soundness
//! argument.

pub mod kv;
pub mod map;
pub mod placement;

pub use kv::{decode_kv, encode_kv, fold_image, KvMap, KvPuts};
pub use map::{route_hash, MapError, ShardMap, ShardSpec};
pub use placement::Placement;
