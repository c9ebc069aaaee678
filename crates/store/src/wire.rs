//! The store's framed wire protocol.
//!
//! Every unit on a connection is one *frame*: a 4-byte big-endian body
//! length, then the body — one type byte followed by that frame's
//! fields, encoded with the [`dynvote_core::wire`] primitives. Three
//! frame families share the format (and the listener):
//!
//! * **peer frames** (`0x01..=0x0A`) — the protocol exchanges of
//!   Figures 1–3/5–7: `START` → state reply or abstention, `COMMIT`
//!   (whole value, or [`Frame::CommitDelta`]: the puts of a keyed batch
//!   against the version the recipient holds) → acknowledgement, copy
//!   request → copy reply, plus the abort oracle's release
//!   and the vote probe;
//! * **client requests** (`0x12..=0x1A`) — `dynvote-ctl` commands:
//!   RECOVER, status, the link-rule administration used to cut real
//!   partitions into a live cluster, the keyed data operations and the
//!   shard map (`0x10` and `0x11` are unassigned);
//! * **client responses** (`0x20..=0x24`) — outcome, value, refusal,
//!   unavailability, or a status report.
//!
//! A fourth kind wraps the other three: a [`Frame::Tagged`] envelope
//! (`0x30`) prefixes any frame with a 64-bit correlation id. Pipelined
//! sessions send many tagged requests down one connection without
//! waiting; the daemon answers each with a tagged response carrying the
//! *same* id, possibly out of order, and the client matches replies to
//! callers by id.
//!
//! The sharded store adds a second envelope and a handful of plain
//! frames. [`Frame::Shard`] (`0x31`) prefixes a frame with the shard
//! group it addresses, so one listener can host many independent
//! voting groups: peer traffic and admin commands for shard `k` arrive
//! as `Shard{k, …}`. Keyed client operations ([`Frame::PutKey`],
//! [`Frame::GetKey`]) instead carry their shard *and* the client's map
//! epoch inline — the daemon answers a wrong epoch with the typed
//! [`Frame::StaleShardMap`] so the client can refetch and retry
//! instead of writing through a stale route. A bare keyed frame is
//! served only by its shard's coordinator; one inside its shard's
//! envelope is served at the site it is sent to, which is how the
//! paper's one file ([`FILE_KEY`]) is read and written at any site. The map itself travels as
//! opaque checksummed bytes ([`Frame::GetShardMap`] /
//! [`Frame::ShardMapRep`] / [`Frame::InstallShardMap`]) whose format
//! belongs to `dynvote-control`.
//!
//! Envelope nesting is canonical and bounded: a `Tagged` may wrap a
//! `Shard`, a `Shard` wraps only plain frames, and any other nesting
//! is a decode error — decoding never recurses more than two levels.
//!
//! Decoding is *total* over untrusted bytes: every malformed input
//! returns a [`FrameError`] — never a panic — and no allocation is
//! sized from a length field before [`MAX_FRAME`] bounds it and the
//! bytes are actually present in the body.

use std::io::{self, Read, Write};

use dynvote_core::state::ReplicaState;
use dynvote_core::wire::{put_state, put_u16, put_u32, put_u64, put_u8, Reader};
use dynvote_replica::wal::WalRecord;
use dynvote_types::{SiteId, SiteSet};

/// The key that holds the paper's one replicated file in a group's
/// key → bytes map: a WRITE of the file is a `PutKey` of this key and
/// a READ a `GetKey` ([`Frame::put_file`], [`Frame::get_file`]).
pub const FILE_KEY: &str = "file";

/// Hard ceiling on a frame body, enforced *before* the body is read:
/// a hostile length prefix can never make the decoder allocate more.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Why a frame body failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The body ended before a field did.
    Truncated,
    /// The body continued past the last field of its frame type.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
    /// The type byte names no known frame.
    UnknownType(u8),
    /// The length prefix exceeds [`MAX_FRAME`].
    Oversized {
        /// The claimed body length.
        len: u32,
    },
    /// A site index outside `0..64` (the [`SiteSet`] word).
    BadSite(u16),
    /// A boolean field held a byte other than 0 or 1.
    BadBool(u8),
    /// An unavailability-reason field held an unknown code.
    BadReason(u8),
    /// A text field was not valid UTF-8.
    BadUtf8,
    /// A correlation-id envelope wrapped another correlation-id
    /// envelope.
    NestedTag,
    /// A shard envelope appeared somewhere it may not: inside another
    /// shard envelope, or wrapping a non-plain frame.
    NestedShard,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "truncated frame body"),
            FrameError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing byte(s) after the last field")
            }
            FrameError::UnknownType(t) => write!(f, "unknown frame type 0x{t:02x}"),
            FrameError::Oversized { len } => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME}-byte cap")
            }
            FrameError::BadSite(index) => write!(f, "site index {index} out of range"),
            FrameError::BadBool(b) => write!(f, "boolean field holds 0x{b:02x}"),
            FrameError::BadReason(b) => write!(f, "unknown unavailability reason 0x{b:02x}"),
            FrameError::BadUtf8 => write!(f, "text field is not valid UTF-8"),
            FrameError::NestedTag => write!(f, "correlation-id envelopes do not nest"),
            FrameError::NestedShard => write!(f, "shard envelopes wrap only plain frames"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Why a data operation could not be served right now — the typed,
/// machine-readable core of a [`Frame::Unavailable`] response. Clients
/// (and the fault-campaign workload) branch on this without parsing
/// refusal prose; the codes mirror [`dynvote_types::AccessError`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnavailableReason {
    /// The reachable sites do not form a majority of the current
    /// partition set (the paper's quorum condition failed).
    NoQuorum,
    /// Exactly half the votes were assembled and the tie-breaker was
    /// on the other side.
    TieLost,
    /// A quorum of control state answered, but no reachable site holds
    /// a current copy of the data.
    NoCurrentCopy,
    /// The serving site itself is down or still recovering.
    OriginDown,
    /// Peers went silent mid-operation (crash or partition during the
    /// exchange); the operation aborted rather than hang.
    PeerSilence,
    /// The operation aborted at an indeterminate point — some
    /// participants may have committed; retry after RECOVER.
    Indeterminate,
}

impl UnavailableReason {
    const ALL: [UnavailableReason; 6] = [
        UnavailableReason::NoQuorum,
        UnavailableReason::TieLost,
        UnavailableReason::NoCurrentCopy,
        UnavailableReason::OriginDown,
        UnavailableReason::PeerSilence,
        UnavailableReason::Indeterminate,
    ];

    fn code(self) -> u8 {
        match self {
            UnavailableReason::NoQuorum => 1,
            UnavailableReason::TieLost => 2,
            UnavailableReason::NoCurrentCopy => 3,
            UnavailableReason::OriginDown => 4,
            UnavailableReason::PeerSilence => 5,
            UnavailableReason::Indeterminate => 6,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        Self::ALL.into_iter().find(|reason| reason.code() == code)
    }

    /// The stable lower-case token used in status output and reports.
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            UnavailableReason::NoQuorum => "no-quorum",
            UnavailableReason::TieLost => "tie-lost",
            UnavailableReason::NoCurrentCopy => "no-current-copy",
            UnavailableReason::OriginDown => "origin-down",
            UnavailableReason::PeerSilence => "peer-silence",
            UnavailableReason::Indeterminate => "indeterminate",
        }
    }
}

impl std::fmt::Display for UnavailableReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.token())
    }
}

/// One wire frame — see the module docs for the three families.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// `START` (Figures 1–3/5–7): poll the recipient's state.
    StartReq {
        /// The coordinator's operation ticket.
        ticket: u64,
        /// The coordinating site.
        from: SiteId,
        /// The polled site.
        to: SiteId,
        /// Whether answering records an outstanding vote.
        mark_pending: bool,
    },
    /// The state reply: the recipient's `⟨o_i, v_i, P_i⟩`.
    StateRep {
        /// The ticket of the `START` being answered.
        ticket: u64,
        /// The replying site.
        from: SiteId,
        /// The coordinating site.
        to: SiteId,
        /// The replier's consistency-control state.
        state: ReplicaState,
    },
    /// `COMMIT`: install the new state (and value, on a write).
    Commit {
        /// The coordinator's operation ticket.
        ticket: u64,
        /// The coordinating site.
        from: SiteId,
        /// The participant being committed.
        to: SiteId,
        /// The new `⟨o, v, P⟩` to install.
        state: ReplicaState,
        /// The write value riding the commit, when there is one.
        value: Option<Vec<u8>>,
    },
    /// `COMMIT` of a keyed write batch, as a delta: install the new
    /// state and apply `puts` to the value of version `base`. Sent in
    /// place of [`Frame::Commit`] to a participant that voted holding
    /// version `base`; a recipient that holds any other version does
    /// not apply it and does not acknowledge. Acknowledged like a
    /// `COMMIT`, with [`Frame::CommitAck`].
    CommitDelta {
        /// The coordinator's operation ticket.
        ticket: u64,
        /// The coordinating site.
        from: SiteId,
        /// The participant being committed.
        to: SiteId,
        /// The new `⟨o, v, P⟩` to install.
        state: ReplicaState,
        /// The version of the value the puts apply to.
        base: u64,
        /// The batch's puts: an encoded `dynvote_control::KvPuts`,
        /// opaque to this layer like the shard map's bytes.
        puts: Vec<u8>,
    },
    /// The commit acknowledgement.
    CommitAck {
        /// The ticket of the `COMMIT` being acknowledged.
        ticket: u64,
        /// The acknowledging site.
        from: SiteId,
        /// The coordinating site.
        to: SiteId,
    },
    /// Ask the recipient for its full copy of the file.
    CopyReq {
        /// The coordinator's operation ticket.
        ticket: u64,
        /// The requesting site.
        from: SiteId,
        /// The site holding the wanted copy.
        to: SiteId,
    },
    /// The copy reply: the file, with the version it carries.
    CopyRep {
        /// The ticket of the request being answered.
        ticket: u64,
        /// The serving site.
        from: SiteId,
        /// The requesting site.
        to: SiteId,
        /// The version number of the served copy.
        version: u64,
        /// The file contents.
        value: Vec<u8>,
    },
    /// The abort oracle: outstanding votes for `ticket` may be
    /// released, except at the sites in `keep`.
    Release {
        /// The aborted (or resolved) operation's ticket.
        ticket: u64,
        /// The coordinating site broadcasting the release.
        from: SiteId,
        /// Sites whose `COMMIT` may still be outstanding — they stay
        /// wedged.
        keep: SiteSet,
    },
    /// A wedged participant asking the coordinator that issued
    /// `ticket` what became of it — the pull path that complements the
    /// best-effort `COMMIT`/`RELEASE` push. Answered with the
    /// [`Frame::Release`] or [`Frame::Commit`] the prober lost, or a
    /// [`Frame::Abstain`] when the coordinator cannot soundly say.
    VoteProbe {
        /// The outstanding vote's ticket.
        ticket: u64,
        /// The wedged (probing) site.
        from: SiteId,
        /// The coordinator the ticket names.
        to: SiteId,
    },
    /// Explicit abstention: the recipient processed the `START` but is
    /// wedged on an outstanding vote for another operation.
    Abstain {
        /// The ticket of the `START` being declined.
        ticket: u64,
        /// The abstaining site.
        from: SiteId,
        /// The coordinating site.
        to: SiteId,
    },

    /// Client: run RECOVER (Figure 3/7) at the daemon's site.
    Recover,
    /// Client: report the daemon's policy state and transport health.
    Status,
    /// Admin: stop exchanging traffic with `site` (cut the link).
    Deny {
        /// The peer to partition away.
        site: SiteId,
    },
    /// Admin: resume exchanging traffic with `site`.
    Allow {
        /// The peer to reconnect.
        site: SiteId,
    },
    /// Admin: drop every link rule (heal all partitions).
    HealLinks,

    /// Client: WRITE one key of a shard's replicated KV map. Carries
    /// the client's map epoch so a stale route is refused typed
    /// ([`Frame::StaleShardMap`]) instead of landing on the wrong
    /// shard group.
    PutKey {
        /// The map epoch the client routed by.
        epoch: u64,
        /// The shard the key hashed to under that epoch's map.
        shard: u16,
        /// The key.
        key: String,
        /// The new value for the key.
        value: Vec<u8>,
    },
    /// Client: READ one key of a shard's replicated KV map.
    GetKey {
        /// The map epoch the client routed by.
        epoch: u64,
        /// The shard the key hashed to under that epoch's map.
        shard: u16,
        /// The key.
        key: String,
    },
    /// Client: fetch the daemon's current shard map.
    GetShardMap,
    /// Admin: install a new shard map (an epoch bump). The bytes are
    /// a `dynvote-control` encoded map — checksummed, so the daemon
    /// validates before adopting.
    InstallShardMap {
        /// The encoded [`dynvote_control::ShardMap`].
        map: Vec<u8>,
    },

    /// Response: the command succeeded.
    Done {
        /// Human-readable outcome detail.
        detail: String,
    },
    /// Response: the read value.
    Value {
        /// The version number the serving site holds.
        version: u64,
        /// The file contents.
        value: Vec<u8>,
    },
    /// Response: the access was refused (the paper's ABORT).
    Refused {
        /// The refusal, with the clause that fired.
        message: String,
    },
    /// Response: a status report (key=value lines).
    Report {
        /// The report text.
        text: String,
    },
    /// Response: the site cannot serve this data operation *right now*
    /// — graceful degradation with a typed cause, answered promptly
    /// instead of stalling. Carries the same human-readable clause a
    /// [`Frame::Refused`] would, plus the machine-readable reason.
    Unavailable {
        /// Why the operation cannot be served.
        reason: UnavailableReason,
        /// The refusal prose, with the clause that fired.
        message: String,
    },

    /// Response: the daemon's current shard map, as checksummed
    /// `dynvote-control` bytes.
    ShardMapRep {
        /// The encoded [`dynvote_control::ShardMap`].
        map: Vec<u8>,
    },
    /// Response: the keyed operation carried a map epoch other than
    /// the daemon's current one. The client refetches the map and
    /// retries — a typed, retryable condition, not a failure.
    StaleShardMap {
        /// The daemon's current map epoch.
        epoch: u64,
    },

    /// A correlation-id envelope around any other frame. A pipelined
    /// session tags each request with a caller-chosen id; the daemon
    /// echoes the id on the matching response, so many requests can be
    /// in flight on one connection and answered out of order.
    Tagged {
        /// The correlation id, echoed verbatim on the response.
        id: u64,
        /// The wrapped frame (never itself a `Tagged`; may be a
        /// [`Frame::Shard`]).
        inner: Box<Frame>,
    },
    /// A shard-address envelope: the wrapped frame is for shard
    /// group `shard` at the receiving site. Peer protocol traffic and
    /// per-shard admin commands travel wrapped; the daemon replies
    /// unwrapped, because replies are correlated by connection (peer
    /// exchanges) or by tag (pipelined clients), not by shard.
    Shard {
        /// The shard group the inner frame addresses.
        shard: u16,
        /// The wrapped frame (always plain: never a `Tagged` or
        /// another `Shard`).
        inner: Box<Frame>,
    },
}

const T_START_REQ: u8 = 0x01;
const T_STATE_REP: u8 = 0x02;
const T_COMMIT: u8 = 0x03;
const T_COMMIT_ACK: u8 = 0x04;
const T_COPY_REQ: u8 = 0x05;
const T_COPY_REP: u8 = 0x06;
const T_RELEASE: u8 = 0x07;
const T_ABSTAIN: u8 = 0x08;
const T_VOTE_PROBE: u8 = 0x09;
const T_COMMIT_DELTA: u8 = 0x0A;
const T_RECOVER: u8 = 0x12;
const T_STATUS: u8 = 0x13;
const T_DENY: u8 = 0x14;
const T_ALLOW: u8 = 0x15;
const T_HEAL_LINKS: u8 = 0x16;
const T_PUT_KEY: u8 = 0x17;
const T_GET_KEY: u8 = 0x18;
const T_GET_SHARD_MAP: u8 = 0x19;
const T_INSTALL_SHARD_MAP: u8 = 0x1A;
const T_DONE: u8 = 0x20;
const T_VALUE: u8 = 0x21;
const T_REFUSED: u8 = 0x22;
const T_REPORT: u8 = 0x23;
const T_UNAVAILABLE: u8 = 0x24;
const T_SHARD_MAP_REP: u8 = 0x25;
const T_STALE_SHARD_MAP: u8 = 0x26;
const T_TAGGED: u8 = 0x30;
const T_SHARD: u8 = 0x31;

fn put_site(out: &mut Vec<u8>, site: SiteId) {
    // SiteId indices are bounded by MAX_SITES (64), far under u16.
    put_u16(out, site.index() as u16);
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

fn put_text(out: &mut Vec<u8>, text: &str) {
    put_bytes(out, text.as_bytes());
}

fn put_bool(out: &mut Vec<u8>, flag: bool) {
    put_u8(out, u8::from(flag));
}

fn read_site(r: &mut Reader<'_>) -> Result<SiteId, FrameError> {
    let raw = r.u16()?;
    SiteId::try_new(raw as usize).ok_or(FrameError::BadSite(raw))
}

fn read_bool(r: &mut Reader<'_>) -> Result<bool, FrameError> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(FrameError::BadBool(other)),
    }
}

/// Reads a length-prefixed byte field. [`Reader::bytes`] verifies the
/// claimed length against what the body actually holds *before* any
/// copy, so a hostile inner length cannot trigger an allocation.
fn read_blob(r: &mut Reader<'_>) -> Result<Vec<u8>, FrameError> {
    let len = r.u32()? as usize;
    Ok(r.bytes(len)?.to_vec())
}

fn read_text(r: &mut Reader<'_>) -> Result<String, FrameError> {
    String::from_utf8(read_blob(r)?).map_err(|_| FrameError::BadUtf8)
}

impl From<dynvote_core::wire::WireError> for FrameError {
    fn from(_: dynvote_core::wire::WireError) -> Self {
        FrameError::Truncated
    }
}

impl Frame {
    /// Encodes the frame, length prefix included.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(None, &mut out);
        out
    }

    /// Encodes the frame wrapped in a correlation-id envelope, length
    /// prefix included — the hot-path encoder pipelined clients use,
    /// sparing them a clone of the inner frame into [`Frame::Tagged`].
    #[must_use]
    pub fn encode_tagged(&self, id: u64) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(Some(id), &mut out);
        out
    }

    /// Appends the frame to `out`, length prefix included, wrapped in a
    /// correlation-id envelope when `tag` names one — how a daemon lays
    /// a batch's replies to one session out in one buffer.
    pub(crate) fn encode_into(&self, tag: Option<u64>, out: &mut Vec<u8>) {
        debug_assert!(
            tag.is_none() || !matches!(self, Frame::Tagged { .. }),
            "correlation-id envelopes do not nest"
        );
        let start = out.len();
        put_u32(out, 0);
        if let Some(id) = tag {
            put_u8(out, T_TAGGED);
            put_u64(out, id);
        }
        self.encode_body(out);
        let len = out.len() - start - 4;
        debug_assert!(len <= MAX_FRAME as usize);
        out[start..start + 4].copy_from_slice(&(len as u32).to_be_bytes());
    }

    fn encode_body(&self, out: &mut Vec<u8>) {
        match self {
            Frame::StartReq {
                ticket,
                from,
                to,
                mark_pending,
            } => {
                put_u8(out, T_START_REQ);
                put_u64(out, *ticket);
                put_site(out, *from);
                put_site(out, *to);
                put_bool(out, *mark_pending);
            }
            Frame::StateRep {
                ticket,
                from,
                to,
                state,
            } => {
                put_u8(out, T_STATE_REP);
                put_u64(out, *ticket);
                put_site(out, *from);
                put_site(out, *to);
                put_state(out, state);
            }
            Frame::Commit {
                ticket,
                from,
                to,
                state,
                value,
            } => {
                put_u8(out, T_COMMIT);
                put_u64(out, *ticket);
                put_site(out, *from);
                put_site(out, *to);
                put_state(out, state);
                put_bool(out, value.is_some());
                if let Some(value) = value {
                    put_bytes(out, value);
                }
            }
            Frame::CommitDelta {
                ticket,
                from,
                to,
                state,
                base,
                puts,
            } => {
                put_u8(out, T_COMMIT_DELTA);
                put_u64(out, *ticket);
                put_site(out, *from);
                put_site(out, *to);
                put_state(out, state);
                put_u64(out, *base);
                put_bytes(out, puts);
            }
            Frame::CommitAck { ticket, from, to } => {
                put_u8(out, T_COMMIT_ACK);
                put_u64(out, *ticket);
                put_site(out, *from);
                put_site(out, *to);
            }
            Frame::CopyReq { ticket, from, to } => {
                put_u8(out, T_COPY_REQ);
                put_u64(out, *ticket);
                put_site(out, *from);
                put_site(out, *to);
            }
            Frame::CopyRep {
                ticket,
                from,
                to,
                version,
                value,
            } => {
                put_u8(out, T_COPY_REP);
                put_u64(out, *ticket);
                put_site(out, *from);
                put_site(out, *to);
                put_u64(out, *version);
                put_bytes(out, value);
            }
            Frame::Release { ticket, from, keep } => {
                put_u8(out, T_RELEASE);
                put_u64(out, *ticket);
                put_site(out, *from);
                put_u64(out, keep.bits());
            }
            Frame::Abstain { ticket, from, to } => {
                put_u8(out, T_ABSTAIN);
                put_u64(out, *ticket);
                put_site(out, *from);
                put_site(out, *to);
            }
            Frame::VoteProbe { ticket, from, to } => {
                put_u8(out, T_VOTE_PROBE);
                put_u64(out, *ticket);
                put_site(out, *from);
                put_site(out, *to);
            }
            Frame::Recover => put_u8(out, T_RECOVER),
            Frame::Status => put_u8(out, T_STATUS),
            Frame::Deny { site } => {
                put_u8(out, T_DENY);
                put_site(out, *site);
            }
            Frame::Allow { site } => {
                put_u8(out, T_ALLOW);
                put_site(out, *site);
            }
            Frame::HealLinks => put_u8(out, T_HEAL_LINKS),
            Frame::PutKey {
                epoch,
                shard,
                key,
                value,
            } => {
                put_u8(out, T_PUT_KEY);
                put_u64(out, *epoch);
                put_u16(out, *shard);
                put_text(out, key);
                put_bytes(out, value);
            }
            Frame::GetKey { epoch, shard, key } => {
                put_u8(out, T_GET_KEY);
                put_u64(out, *epoch);
                put_u16(out, *shard);
                put_text(out, key);
            }
            Frame::GetShardMap => put_u8(out, T_GET_SHARD_MAP),
            Frame::InstallShardMap { map } => {
                put_u8(out, T_INSTALL_SHARD_MAP);
                put_bytes(out, map);
            }
            Frame::ShardMapRep { map } => {
                put_u8(out, T_SHARD_MAP_REP);
                put_bytes(out, map);
            }
            Frame::StaleShardMap { epoch } => {
                put_u8(out, T_STALE_SHARD_MAP);
                put_u64(out, *epoch);
            }
            Frame::Done { detail } => {
                put_u8(out, T_DONE);
                put_text(out, detail);
            }
            Frame::Value { version, value } => {
                put_u8(out, T_VALUE);
                put_u64(out, *version);
                put_bytes(out, value);
            }
            Frame::Refused { message } => {
                put_u8(out, T_REFUSED);
                put_text(out, message);
            }
            Frame::Report { text } => {
                put_u8(out, T_REPORT);
                put_text(out, text);
            }
            Frame::Unavailable { reason, message } => {
                put_u8(out, T_UNAVAILABLE);
                put_u8(out, reason.code());
                put_text(out, message);
            }
            Frame::Tagged { id, inner } => {
                put_u8(out, T_TAGGED);
                put_u64(out, *id);
                inner.encode_body(out);
            }
            Frame::Shard { shard, inner } => {
                debug_assert!(
                    !matches!(**inner, Frame::Tagged { .. } | Frame::Shard { .. }),
                    "shard envelopes wrap only plain frames"
                );
                put_u8(out, T_SHARD);
                put_u16(out, *shard);
                inner.encode_body(out);
            }
        }
    }

    /// The `COMMIT` of operation `ticket` from `from` to `to` that
    /// installs `record`: a [`WalRecord::Commit`] travels as a
    /// [`Frame::Commit`], a [`WalRecord::Delta`] as a
    /// [`Frame::CommitDelta`]. `None` for any other record.
    #[must_use]
    pub fn commit(ticket: u64, from: SiteId, to: SiteId, record: WalRecord) -> Option<Frame> {
        match record {
            WalRecord::Commit { state, value } => Some(Frame::Commit {
                ticket,
                from,
                to,
                state,
                value,
            }),
            WalRecord::Delta { state, base, delta } => Some(Frame::CommitDelta {
                ticket,
                from,
                to,
                state,
                base,
                puts: delta,
            }),
            _ => None,
        }
    }

    /// The inverse of [`Frame::commit`]: a `COMMIT`'s ticket, sender,
    /// recipient and the record it installs. `None` for any other frame.
    #[must_use]
    pub fn into_commit(self) -> Option<(u64, SiteId, SiteId, WalRecord)> {
        match self {
            Frame::Commit {
                ticket,
                from,
                to,
                state,
                value,
            } => Some((ticket, from, to, WalRecord::Commit { state, value })),
            Frame::CommitDelta {
                ticket,
                from,
                to,
                state,
                base,
                puts: delta,
            } => Some((ticket, from, to, WalRecord::Delta { state, base, delta })),
            _ => None,
        }
    }

    /// This (plain) frame addressed to shard group `shard`: how every
    /// per-group command and peer frame travels, and a keyed data
    /// operation served at the site it is sent to.
    #[must_use]
    pub fn for_shard(self, shard: u16) -> Frame {
        Frame::Shard {
            shard,
            inner: Box::new(self),
        }
    }

    /// A WRITE of the paper's file: a `PutKey` of [`FILE_KEY`] in shard
    /// `shard`'s envelope, served at the site it is sent to.
    #[must_use]
    pub fn put_file(epoch: u64, shard: u16, value: Vec<u8>) -> Frame {
        Frame::PutKey {
            epoch,
            shard,
            key: FILE_KEY.to_string(),
            value,
        }
        .for_shard(shard)
    }

    /// A READ of the paper's file: a `GetKey` of [`FILE_KEY`] in shard
    /// `shard`'s envelope, served at the site it is sent to.
    #[must_use]
    pub fn get_file(epoch: u64, shard: u16) -> Frame {
        Frame::GetKey {
            epoch,
            shard,
            key: FILE_KEY.to_string(),
        }
        .for_shard(shard)
    }

    /// Decodes one frame body (the bytes after the length prefix).
    ///
    /// # Errors
    ///
    /// [`FrameError`] on any malformed input; never panics.
    pub fn decode(body: &[u8]) -> Result<Frame, FrameError> {
        let mut r = Reader::new(body);
        let frame = Frame::decode_one(&mut r, true, true)?;
        if !r.is_exhausted() {
            return Err(FrameError::TrailingBytes {
                extra: r.remaining(),
            });
        }
        Ok(frame)
    }

    /// Decodes one frame from the reader. The flags enforce canonical
    /// envelope nesting: `allow_tag` is true only at the top level and
    /// `allow_shard` is true at the top level and directly under a
    /// `Tagged`, so `Tagged{Shard{plain}}` is the deepest legal shape
    /// and the decoder never recurses more than two levels.
    fn decode_one(
        r: &mut Reader<'_>,
        allow_tag: bool,
        allow_shard: bool,
    ) -> Result<Frame, FrameError> {
        let frame = match r.u8()? {
            T_START_REQ => Frame::StartReq {
                ticket: r.u64()?,
                from: read_site(r)?,
                to: read_site(r)?,
                mark_pending: read_bool(r)?,
            },
            T_STATE_REP => Frame::StateRep {
                ticket: r.u64()?,
                from: read_site(r)?,
                to: read_site(r)?,
                state: r.state()?,
            },
            T_COMMIT => {
                let ticket = r.u64()?;
                let from = read_site(r)?;
                let to = read_site(r)?;
                let state = r.state()?;
                let value = if read_bool(r)? {
                    Some(read_blob(r)?)
                } else {
                    None
                };
                Frame::Commit {
                    ticket,
                    from,
                    to,
                    state,
                    value,
                }
            }
            T_COMMIT_DELTA => Frame::CommitDelta {
                ticket: r.u64()?,
                from: read_site(r)?,
                to: read_site(r)?,
                state: r.state()?,
                base: r.u64()?,
                puts: read_blob(r)?,
            },
            T_COMMIT_ACK => Frame::CommitAck {
                ticket: r.u64()?,
                from: read_site(r)?,
                to: read_site(r)?,
            },
            T_COPY_REQ => Frame::CopyReq {
                ticket: r.u64()?,
                from: read_site(r)?,
                to: read_site(r)?,
            },
            T_COPY_REP => Frame::CopyRep {
                ticket: r.u64()?,
                from: read_site(r)?,
                to: read_site(r)?,
                version: r.u64()?,
                value: read_blob(r)?,
            },
            T_RELEASE => Frame::Release {
                ticket: r.u64()?,
                from: read_site(r)?,
                keep: SiteSet::from_bits(r.u64()?),
            },
            T_ABSTAIN => Frame::Abstain {
                ticket: r.u64()?,
                from: read_site(r)?,
                to: read_site(r)?,
            },
            T_VOTE_PROBE => Frame::VoteProbe {
                ticket: r.u64()?,
                from: read_site(r)?,
                to: read_site(r)?,
            },
            T_RECOVER => Frame::Recover,
            T_STATUS => Frame::Status,
            T_DENY => Frame::Deny {
                site: read_site(r)?,
            },
            T_ALLOW => Frame::Allow {
                site: read_site(r)?,
            },
            T_HEAL_LINKS => Frame::HealLinks,
            T_PUT_KEY => Frame::PutKey {
                epoch: r.u64()?,
                shard: r.u16()?,
                key: read_text(r)?,
                value: read_blob(r)?,
            },
            T_GET_KEY => Frame::GetKey {
                epoch: r.u64()?,
                shard: r.u16()?,
                key: read_text(r)?,
            },
            T_GET_SHARD_MAP => Frame::GetShardMap,
            T_INSTALL_SHARD_MAP => Frame::InstallShardMap { map: read_blob(r)? },
            T_SHARD_MAP_REP => Frame::ShardMapRep { map: read_blob(r)? },
            T_STALE_SHARD_MAP => Frame::StaleShardMap { epoch: r.u64()? },
            T_DONE => Frame::Done {
                detail: read_text(r)?,
            },
            T_VALUE => Frame::Value {
                version: r.u64()?,
                value: read_blob(r)?,
            },
            T_REFUSED => Frame::Refused {
                message: read_text(r)?,
            },
            T_REPORT => Frame::Report {
                text: read_text(r)?,
            },
            T_UNAVAILABLE => {
                let code = r.u8()?;
                let reason =
                    UnavailableReason::from_code(code).ok_or(FrameError::BadReason(code))?;
                Frame::Unavailable {
                    reason,
                    message: read_text(r)?,
                }
            }
            T_TAGGED => {
                if !allow_tag {
                    return Err(FrameError::NestedTag);
                }
                Frame::Tagged {
                    id: r.u64()?,
                    inner: Box::new(Frame::decode_one(r, false, true)?),
                }
            }
            T_SHARD => {
                if !allow_shard {
                    return Err(FrameError::NestedShard);
                }
                Frame::Shard {
                    shard: r.u16()?,
                    inner: Box::new(Frame::decode_one(r, false, false)?),
                }
            }
            other => return Err(FrameError::UnknownType(other)),
        };
        Ok(frame)
    }
}

fn invalid_data(err: FrameError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, err)
}

/// Reads one frame off a stream: length prefix, cap check, body,
/// decode. A length over [`MAX_FRAME`] fails *before* any body
/// allocation.
///
/// # Errors
///
/// I/O errors pass through (`UnexpectedEof` marks a clean close at a
/// frame boundary as well as a mid-frame truncation); malformed frames
/// surface as [`io::ErrorKind::InvalidData`] wrapping the
/// [`FrameError`].
pub fn read_frame<R: Read>(reader: &mut R) -> io::Result<Frame> {
    let mut prefix = [0u8; 4];
    reader.read_exact(&mut prefix)?;
    let len = u32::from_be_bytes(prefix);
    if len > MAX_FRAME {
        return Err(invalid_data(FrameError::Oversized { len }));
    }
    let mut body = vec![0u8; len as usize];
    reader.read_exact(&mut body)?;
    Frame::decode(&body).map_err(invalid_data)
}

/// Writes one frame (length prefix included) and flushes.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_frame<W: Write>(writer: &mut W, frame: &Frame) -> io::Result<()> {
    writer.write_all(&frame.encode())?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> ReplicaState {
        ReplicaState {
            op: 9,
            version: 4,
            partition: SiteSet::from_indices([0, 1, 5]),
        }
    }

    #[test]
    fn peer_frames_round_trip() {
        let frames = [
            Frame::StartReq {
                ticket: 77,
                from: SiteId::new(0),
                to: SiteId::new(3),
                mark_pending: true,
            },
            Frame::StateRep {
                ticket: 77,
                from: SiteId::new(3),
                to: SiteId::new(0),
                state: state(),
            },
            Frame::Commit {
                ticket: 77,
                from: SiteId::new(0),
                to: SiteId::new(3),
                state: state(),
                value: Some(b"payload".to_vec()),
            },
            Frame::Commit {
                ticket: 77,
                from: SiteId::new(0),
                to: SiteId::new(3),
                state: state(),
                value: None,
            },
            Frame::CommitDelta {
                ticket: 77,
                from: SiteId::new(0),
                to: SiteId::new(3),
                state: state(),
                base: 3,
                puts: b"opaque put list".to_vec(),
            },
            Frame::Release {
                ticket: 77,
                from: SiteId::new(0),
                keep: SiteSet::from_indices([2]),
            },
            Frame::Abstain {
                ticket: 77,
                from: SiteId::new(3),
                to: SiteId::new(0),
            },
            Frame::VoteProbe {
                ticket: (2 << 48) | 91,
                from: SiteId::new(1),
                to: SiteId::new(2),
            },
        ];
        for frame in frames {
            let bytes = frame.encode();
            let mut cursor = &bytes[..];
            assert_eq!(read_frame(&mut cursor).unwrap(), frame);
            assert!(cursor.is_empty());
        }
    }

    #[test]
    fn a_commit_record_and_its_frame_map_both_ways() {
        let (from, to) = (SiteId::new(0), SiteId::new(3));
        let records = [
            WalRecord::Commit {
                state: state(),
                value: Some(b"image".to_vec()),
            },
            WalRecord::Commit {
                state: state(),
                value: None,
            },
            WalRecord::Delta {
                state: state(),
                base: 3,
                delta: b"puts".to_vec(),
            },
        ];
        for record in records {
            let frame = Frame::commit(77, from, to, record.clone()).expect("a commit record");
            assert_eq!(
                matches!(record, WalRecord::Delta { .. }),
                matches!(frame, Frame::CommitDelta { .. })
            );
            assert_eq!(frame.into_commit(), Some((77, from, to, record)));
        }
        let vote = WalRecord::Vote { ticket: 77 };
        assert_eq!(Frame::commit(77, from, to, vote), None);
        let release = Frame::Release {
            ticket: 77,
            from,
            keep: SiteSet::EMPTY,
        };
        assert_eq!(release.into_commit(), None);
    }

    #[test]
    fn unavailable_round_trips_every_reason() {
        for reason in UnavailableReason::ALL {
            let frame = Frame::Unavailable {
                reason,
                message: format!("cannot serve: {reason}"),
            };
            let bytes = frame.encode();
            let mut cursor = &bytes[..];
            assert_eq!(read_frame(&mut cursor).unwrap(), frame);
        }
        // An unknown reason code is a decode error, not a panic or a
        // silent default.
        let mut body = Vec::new();
        put_u8(&mut body, T_UNAVAILABLE);
        put_u8(&mut body, 0xEE);
        put_u32(&mut body, 0);
        assert_eq!(Frame::decode(&body), Err(FrameError::BadReason(0xEE)));
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut bytes = Vec::new();
        put_u32(&mut bytes, MAX_FRAME + 1);
        let err = read_frame(&mut &bytes[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn inner_length_cannot_exceed_the_body() {
        // A map install whose blob claims 4 GiB inside a 5-byte body.
        let mut body = Vec::new();
        put_u8(&mut body, T_INSTALL_SHARD_MAP);
        put_u32(&mut body, u32::MAX);
        assert_eq!(Frame::decode(&body), Err(FrameError::Truncated));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut body = Vec::new();
        put_u8(&mut body, T_STATUS);
        put_u8(&mut body, 0xFF);
        assert_eq!(
            Frame::decode(&body),
            Err(FrameError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn shard_frames_round_trip() {
        let frames = [
            Frame::PutKey {
                epoch: 3,
                shard: 7,
                key: "user:42".to_string(),
                value: b"payload".to_vec(),
            },
            Frame::GetKey {
                epoch: 3,
                shard: 0,
                key: String::new(),
            },
            Frame::GetShardMap,
            Frame::InstallShardMap { map: vec![1, 2, 3] },
            Frame::ShardMapRep { map: Vec::new() },
            Frame::StaleShardMap { epoch: 9 },
            Frame::Shard {
                shard: 2,
                inner: Box::new(Frame::Recover),
            },
            Frame::Shard {
                shard: 2,
                inner: Box::new(Frame::StartReq {
                    ticket: 77,
                    from: SiteId::new(0),
                    to: SiteId::new(3),
                    mark_pending: true,
                }),
            },
            Frame::Tagged {
                id: 5,
                inner: Box::new(Frame::Shard {
                    shard: 1,
                    inner: Box::new(Frame::Status),
                }),
            },
        ];
        for frame in frames {
            let bytes = frame.encode();
            let mut cursor = &bytes[..];
            assert_eq!(read_frame(&mut cursor).unwrap(), frame);
            assert!(cursor.is_empty());
        }
    }

    #[test]
    fn envelope_nesting_is_canonical() {
        // Shard{Shard{...}} is a decode error.
        let mut body = Vec::new();
        put_u8(&mut body, T_SHARD);
        put_u16(&mut body, 0);
        put_u8(&mut body, T_SHARD);
        put_u16(&mut body, 1);
        put_u8(&mut body, T_STATUS);
        assert_eq!(Frame::decode(&body), Err(FrameError::NestedShard));

        // Shard{Tagged{...}} is a decode error: the tag goes outside.
        let mut body = Vec::new();
        put_u8(&mut body, T_SHARD);
        put_u16(&mut body, 0);
        put_u8(&mut body, T_TAGGED);
        put_u64(&mut body, 1);
        put_u8(&mut body, T_STATUS);
        assert_eq!(Frame::decode(&body), Err(FrameError::NestedTag));

        // Tagged{Tagged{...}} stays an error.
        let mut body = Vec::new();
        put_u8(&mut body, T_TAGGED);
        put_u64(&mut body, 1);
        put_u8(&mut body, T_TAGGED);
        put_u64(&mut body, 2);
        put_u8(&mut body, T_STATUS);
        assert_eq!(Frame::decode(&body), Err(FrameError::NestedTag));
    }

    #[test]
    fn bad_site_and_bool_are_rejected() {
        let mut body = Vec::new();
        put_u8(&mut body, T_DENY);
        put_u16(&mut body, 64);
        assert_eq!(Frame::decode(&body), Err(FrameError::BadSite(64)));

        let mut body = Vec::new();
        put_u8(&mut body, T_START_REQ);
        put_u64(&mut body, 1);
        put_u16(&mut body, 0);
        put_u16(&mut body, 1);
        put_u8(&mut body, 2);
        assert_eq!(Frame::decode(&body), Err(FrameError::BadBool(2)));
    }
}
