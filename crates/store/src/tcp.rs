//! `TcpTransport`: the [`Transport`] implementation that carries the
//! protocol over real sockets.
//!
//! Each peer has one `PeerLink`: a connection and its retry state,
//! owned by the transport and therefore by whoever holds the cluster
//! lock. An exchange runs on the calling thread — connect on demand,
//! write the frame, read the single reply frame the remote daemon
//! sends back on the same connection — and every wait in it is bounded
//! by the socket's own connect, write and read timeouts. Every failure
//! — refused connection, reset, read timeout, malformed reply — is
//! *silence* to the protocol: [`Carried::silent`] with a
//! [`Verdict::Drop`], exactly how the in-memory bus reports a lost
//! message, so the cluster's bounded-retry and quorum logic need no
//! network-specific cases. A failure also drops the connection with
//! whatever its read buffer held, so a reply that arrives after its
//! timeout can never be taken for the answer to a later exchange.
//!
//! A broadcast is scattered, then gathered: the cluster
//! [posts](Transport::post) every `START` of a poll attempt (and every
//! first `COMMIT` of a fanout) before it carries the first, so the
//! frames are in flight together and a round costs its slowest reply,
//! not the sum of them. A `carry` of the request last posted on its
//! link only reads the reply, and that read is bounded by one deadline
//! counted from the post — k silent peers cost one read timeout, not
//! k: a gather that starts past its deadline takes only a reply already
//! received and never blocks, and a miss is silence. Every reply,
//! posted or not, counts only when its kind, sender and ticket answer
//! the request; anything else is silence and drops the connection. A
//! post nobody gathered drops its connection at the link's next use,
//! so its reply, too, never reaches a later exchange.
//!
//! Reconnection uses capped exponential backoff: after a failure the
//! link refuses further attempts until the backoff window elapses
//! (failing sends fast instead of hammering a dead peer), doubling the
//! window on each consecutive failure up to a cap and resetting it on
//! success. Each wait is *jittered* — drawn from `[window/2, window]`
//! per link — so sites restarted at the same instant do not reconnect
//! in lockstep.
//!
//! [`LinkRules`] is the partition surface: a shared set of peers this
//! host refuses to talk to. Outbound frames to a denied peer are
//! dropped before they reach a socket; the daemon consults the same
//! rules to ignore inbound frames, so denying a site severs the link
//! in both directions — a *real* partition for a live cluster, driven
//! at runtime by `dynvote-ctl deny/allow/heal-links`.

use std::collections::BTreeMap;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dynvote_core::state::ReplicaState;
use dynvote_replica::wal::{SiteStore, WalRecord};
use dynvote_replica::Message;
use dynvote_replica::{
    Carried, LocalServe, MessageKind, Reply, Response, Transport, Verdict, WireRequest,
};
use dynvote_types::{SiteId, SiteSet};

use crate::jitter::Jitter;
use crate::probe::OpLedger;
use crate::value::ShardValue;
use crate::wire::{read_frame, Frame};

/// The runtime-mutable partition surface shared by the transport (which
/// drops outbound frames) and the daemon (which ignores inbound ones).
#[derive(Debug, Default)]
pub struct LinkRules {
    blocked: Mutex<SiteSet>,
}

impl LinkRules {
    /// No links cut.
    #[must_use]
    pub fn new() -> Self {
        LinkRules::default()
    }

    /// Cuts the link to `site` (both directions, once the daemon
    /// consults the same rules). Returns `false` if it was already cut.
    pub fn block(&self, site: SiteId) -> bool {
        self.blocked
            .lock()
            .expect("link rules poisoned")
            .insert(site)
    }

    /// Restores the link to `site`.
    pub fn unblock(&self, site: SiteId) -> bool {
        self.blocked
            .lock()
            .expect("link rules poisoned")
            .remove(site)
    }

    /// Restores every link.
    pub fn clear(&self) {
        *self.blocked.lock().expect("link rules poisoned") = SiteSet::EMPTY;
    }

    /// Whether traffic to/from `site` is currently denied.
    #[must_use]
    pub fn is_blocked(&self, site: SiteId) -> bool {
        self.blocked
            .lock()
            .expect("link rules poisoned")
            .contains(site)
    }

    /// The full denied set.
    #[must_use]
    pub fn blocked(&self) -> SiteSet {
        *self.blocked.lock().expect("link rules poisoned")
    }
}

/// Socket and retry timing for [`TcpTransport`].
#[derive(Clone, Copy, Debug)]
pub struct TcpTimeouts {
    /// Budget for one `connect` attempt.
    pub connect: Duration,
    /// Budget for reading one reply frame.
    pub read: Duration,
    /// First backoff window after a failure.
    pub backoff_floor: Duration,
    /// Backoff window cap (the exponential doubling stops here).
    pub backoff_cap: Duration,
}

impl Default for TcpTimeouts {
    fn default() -> Self {
        TcpTimeouts {
            connect: Duration::from_millis(500),
            read: Duration::from_millis(2000),
            backoff_floor: Duration::from_millis(100),
            backoff_cap: Duration::from_millis(2000),
        }
    }
}

impl TcpTimeouts {
    /// Fast timings for loopback tests: failures settle in
    /// milliseconds instead of seconds.
    #[must_use]
    pub fn fast() -> Self {
        TcpTimeouts {
            connect: Duration::from_millis(250),
            read: Duration::from_millis(1000),
            backoff_floor: Duration::from_millis(20),
            backoff_cap: Duration::from_millis(200),
        }
    }
}

/// Health counters for one peer link, for `dynvote-ctl status`.
#[derive(Clone, Copy, Debug, Default)]
pub struct PeerStats {
    /// Whether the link currently holds an open connection.
    pub connected: bool,
    /// Frames handed to the link for sending.
    pub sends: u64,
    /// Exchanges that failed (connect refused, write/read error,
    /// backoff fast-fail, malformed reply).
    pub failures: u64,
    /// Successful (re)connections.
    pub reconnects: u64,
    /// The backoff window currently in force, zero when healthy.
    pub backoff_ms: u64,
}

/// The shortest read timeout a link arms, and how far the armed one
/// may stray from a read's deadline before it is re-armed: a gather
/// re-arms the socket only after earlier gathers of its round waited.
const REARM: Duration = Duration::from_millis(1);

/// What a request asks, and so which reply answers it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Question {
    kind: Asked,
    ticket: u64,
    /// The coordinator.
    from: SiteId,
    /// The peer.
    to: SiteId,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Asked {
    Start,
    Commit,
    Copy,
}

impl Question {
    /// The question `request` asks; `None` for a reply kind, which is
    /// never sent as a request.
    fn of<T>(request: &WireRequest<'_, T>) -> Option<Question> {
        let message = request.message;
        let kind = match message.kind {
            MessageKind::StartRequest => Asked::Start,
            MessageKind::Commit { .. } => Asked::Commit,
            MessageKind::CopyRequest => Asked::Copy,
            MessageKind::StateReply { .. } | MessageKind::CopyReply => return None,
        };
        Some(Question {
            kind,
            ticket: request.ticket,
            from: message.from,
            to: message.to,
        })
    }

    /// Whether `reply` is the peer's answer to this question.
    fn answered_by(&self, reply: &Frame) -> bool {
        let (ticket, from, to) = match (self.kind, reply) {
            (
                Asked::Start,
                Frame::StateRep {
                    ticket, from, to, ..
                },
            )
            | (Asked::Start | Asked::Copy, Frame::Abstain { ticket, from, to })
            | (Asked::Commit, Frame::CommitAck { ticket, from, to })
            | (
                Asked::Copy,
                Frame::CopyRep {
                    ticket, from, to, ..
                },
            ) => (*ticket, *from, *to),
            _ => return false,
        };
        ticket == self.ticket && from == self.to && to == self.from
    }
}

/// A request sent ahead of its gather.
struct Posted {
    question: Question,
    /// When its reply stops being worth waiting for.
    deadline: Instant,
    /// Whether the frame left; a post that failed is gathered as
    /// silence without touching the socket.
    sent: bool,
}

/// One peer's connection state machine (see the module docs).
struct PeerLink {
    addr: String,
    timeouts: TcpTimeouts,
    /// Replies are read through a buffer that lives and dies with the
    /// connection: one `recv` per reply frame, and nothing buffered
    /// survives the connection it was read from.
    conn: Option<BufReader<TcpStream>>,
    /// The read timeout the connection's socket is armed with.
    armed: Duration,
    /// The request posted on this link and not yet gathered.
    posted: Option<Posted>,
    backoff: Duration,
    retry_at: Instant,
    stats: PeerStats,
    /// Decorrelates reconnect waves: each wait is drawn from
    /// `[window/2, window]` rather than sitting exactly on the window's
    /// edge, so a fleet of simultaneously-restarted sites does not
    /// retry in lockstep forever.
    jitter: Jitter,
}

impl PeerLink {
    fn new(addr: String, timeouts: TcpTimeouts, jitter: Jitter) -> Self {
        PeerLink {
            addr,
            timeouts,
            conn: None,
            armed: timeouts.read,
            posted: None,
            backoff: timeouts.backoff_floor,
            retry_at: Instant::now(),
            stats: PeerStats::default(),
            jitter,
        }
    }

    fn note_failure(&mut self) {
        self.conn = None;
        let wait = self.jitter.equal_jitter(self.backoff);
        self.retry_at = Instant::now() + wait;
        self.backoff = (self.backoff * 2).min(self.timeouts.backoff_cap);
        self.stats.connected = false;
        self.stats.failures += 1;
        self.stats.backoff_ms = wait.as_millis() as u64;
    }

    fn ensure_connected(&mut self) -> bool {
        if self.conn.is_some() {
            return true;
        }
        if Instant::now() < self.retry_at {
            // Inside the backoff window: fail fast, no socket work.
            self.stats.failures += 1;
            return false;
        }
        let addrs: Vec<std::net::SocketAddr> =
            match std::net::ToSocketAddrs::to_socket_addrs(&self.addr.as_str()) {
                Ok(addrs) => addrs.collect(),
                Err(_) => Vec::new(),
            };
        let stream = addrs
            .first()
            .and_then(|addr| TcpStream::connect_timeout(addr, self.timeouts.connect).ok());
        match stream {
            Some(stream) => {
                let _ = stream.set_read_timeout(Some(self.timeouts.read));
                let _ = stream.set_write_timeout(Some(self.timeouts.read));
                let _ = stream.set_nodelay(true);
                self.conn = Some(BufReader::new(stream));
                self.armed = self.timeouts.read;
                self.backoff = self.timeouts.backoff_floor;
                self.stats.connected = true;
                self.stats.reconnects += 1;
                self.stats.backoff_ms = 0;
                true
            }
            None => {
                self.note_failure();
                false
            }
        }
    }

    /// Hands one frame to the peer, connecting on demand. `false`: it
    /// never left (backoff, refused connection, failed write).
    fn send(&mut self, frame: &Frame) -> bool {
        self.stats.sends += 1;
        if !self.ensure_connected() {
            return false;
        }
        let stream = self.conn.as_mut().expect("just connected").get_mut();
        let sent = stream
            .write_all(&frame.encode())
            .and_then(|()| stream.flush());
        if sent.is_err() {
            self.note_failure();
        }
        sent.is_ok()
    }

    /// One exchange: send the frame, read the single reply. `None` is
    /// silence — the protocol's lost message.
    fn exchange(&mut self, frame: &Frame, question: Question) -> Option<Frame> {
        self.drop_ungathered();
        if !self.send(frame) {
            return None;
        }
        self.read_reply(question, Instant::now() + self.timeouts.read)
    }

    /// The first half of an exchange: send the frame, leave the reply
    /// to [`PeerLink::gather`].
    fn post(&mut self, frame: &Frame, question: Question) {
        self.drop_ungathered();
        let deadline = Instant::now() + self.timeouts.read;
        let sent = self.send(frame);
        self.posted = Some(Posted {
            question,
            deadline,
            sent,
        });
    }

    /// Whether `question` is the one posted on this link and not yet
    /// gathered.
    fn has_posted(&self, question: Question) -> bool {
        self.posted
            .as_ref()
            .is_some_and(|posted| posted.question == question)
    }

    /// The second half of a posted exchange: read its reply, by the
    /// post's deadline. `None` is silence.
    fn gather(&mut self) -> Option<Frame> {
        let posted = self.posted.take()?;
        if !posted.sent {
            return None;
        }
        self.read_reply(posted.question, posted.deadline)
    }

    /// A post nobody gathered: its reply may still be on the way, so
    /// the connection goes with it. The peer did nothing wrong, so the
    /// link reconnects at once instead of backing off.
    fn drop_ungathered(&mut self) {
        if self.posted.take().is_some() && self.conn.take().is_some() {
            self.stats.connected = false;
            self.stats.failures += 1;
        }
    }

    /// Reads the reply to `question` by `deadline`. Past the deadline
    /// only a reply already received counts: the read does not block.
    fn read_reply(&mut self, question: Question, deadline: Instant) -> Option<Frame> {
        let Some(conn) = self.conn.as_mut() else {
            return None; // dropped since the send, and counted then
        };
        let left = deadline.saturating_duration_since(Instant::now());
        let past = left.is_zero();
        let armed = if past {
            conn.get_ref().set_nonblocking(true)
        } else if left.abs_diff(self.armed) >= REARM {
            let wait = left.max(REARM);
            self.armed = wait;
            conn.get_ref().set_read_timeout(Some(wait))
        } else {
            Ok(())
        };
        let mut reply = armed
            .and_then(|()| read_frame(conn))
            .ok()
            .filter(|reply| question.answered_by(reply));
        if past && conn.get_ref().set_nonblocking(false).is_err() {
            reply = None;
        }
        if reply.is_none() {
            // Timeout, nothing received by the deadline, reset, garbage,
            // or a reply to some other request: the connection's framing
            // can no longer be trusted — drop it and back off.
            self.note_failure();
        }
        reply
    }
}

/// The socket-backed [`Transport`]: peers are remote daemons, the
/// local participant is served directly by the cluster (never through
/// `carry` — the coordinator reads its own node without a message).
pub struct TcpTransport {
    local: SiteId,
    peers: BTreeMap<SiteId, PeerLink>,
    links: Arc<LinkRules>,
    /// The operation ledger for answering vote probes — shared with
    /// the daemon's `VOTE-PROBE` handler, written at every commit
    /// point and abort.
    ledger: Arc<Mutex<OpLedger>>,
    /// Where the site's commit points and aborts are logged.
    store: Arc<Mutex<SiteStore>>,
    /// Set by the shard-map install that hands `store`'s directory to a
    /// successor daemon; nothing is logged here after that.
    retired: Arc<AtomicU64>,
    /// The shard group this transport serves: every outbound peer
    /// frame travels inside a [`Frame::Shard`] envelope naming it, so
    /// one remote listener can demultiplex traffic for the many voting
    /// groups it hosts. Replies come back unwrapped (they are
    /// correlated by connection), so only the outbound side wraps.
    shard: u16,
}

impl TcpTransport {
    /// A transport for shard group `shard` at `local`, with one link
    /// per remote peer, that logs every commit point and abort its
    /// coordinator reaches in `store` and answers vote probes from
    /// `ledger` — the one [`OpLedger::open`] rebuilt from that store's
    /// directory.
    ///
    /// `peers` maps every *other* site to its daemon address (a
    /// `host:port` string); an entry for `local` itself is ignored.
    #[must_use]
    pub fn new(
        local: SiteId,
        shard: u16,
        peers: &[(SiteId, String)],
        links: Arc<LinkRules>,
        timeouts: TcpTimeouts,
        store: Arc<Mutex<SiteStore>>,
        ledger: OpLedger,
    ) -> Self {
        let peers = peers
            .iter()
            .filter(|(site, _)| *site != local)
            .map(|(site, addr)| {
                let jitter = Jitter::from_entropy(&(local.index(), site.index(), addr));
                (*site, PeerLink::new(addr.clone(), timeouts, jitter))
            })
            .collect();
        TcpTransport {
            local,
            peers,
            links,
            ledger: Arc::new(Mutex::new(ledger)),
            store,
            retired: Arc::default(),
            shard,
        }
    }

    /// The operation ledger (shared handle) — the daemon's vote-probe
    /// handler answers from it.
    #[must_use]
    pub fn ledger(&self) -> Arc<Mutex<OpLedger>> {
        Arc::clone(&self.ledger)
    }

    /// The retirement flag (shared handle): once a shard-map install
    /// sets it to the retiring epoch, the store's directory belongs to a
    /// successor daemon and nothing more is logged in it here.
    #[must_use]
    pub fn retired(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.retired)
    }

    /// The link rules this transport consults (shared with the daemon).
    #[must_use]
    pub fn links(&self) -> &Arc<LinkRules> {
        &self.links
    }

    /// Health counters per peer, for status reports.
    #[must_use]
    pub fn peer_stats(&self) -> Vec<(SiteId, PeerStats)> {
        self.peers
            .iter()
            .map(|(site, link)| (*site, link.stats))
            .collect()
    }
}

impl Transport<ShardValue> for TcpTransport {
    fn carry(
        &mut self,
        request: WireRequest<'_, ShardValue>,
        serve: LocalServe<'_, ShardValue>,
    ) -> Carried<ShardValue> {
        let message = request.message;
        if message.to == self.local {
            // Defensive: the cluster never routes a coordinator's
            // message to itself through the transport, but if it did,
            // the local handler is the truth.
            return match serve(message, request.payload) {
                Some(body) => local_response(message, body),
                None => Carried::silent(Verdict::Deliver),
            };
        }
        let Some(question) = Question::of(&request) else {
            // Replies travel as answers on the requester's connection,
            // never as outbound requests.
            return Carried::silent(Verdict::Drop);
        };
        if self.links.is_blocked(message.to) {
            // The partition surface: the frame never leaves this host.
            return Carried::silent(Verdict::Drop);
        }
        let shard = self.shard;
        let reply = self.peers.get_mut(&message.to).and_then(|link| {
            if link.has_posted(question) {
                link.gather()
            } else {
                link.exchange(&request_frame(&request).for_shard(shard), question)
            }
        });
        let Some(reply) = reply else {
            return Carried::silent(Verdict::Drop);
        };
        if self.links.is_blocked(message.to) {
            // The link was cut while the exchange was in flight: the
            // reply is discarded at the (new) partition boundary.
            return Carried::silent(Verdict::Drop);
        }
        match reply {
            Frame::Abstain { .. } => Carried {
                request: Verdict::Deliver,
                response: None,
            },
            Frame::StateRep { state, .. } => Carried {
                request: Verdict::Deliver,
                response: Some(Response {
                    wire: Some(Message {
                        from: message.to,
                        to: message.from,
                        kind: MessageKind::StateReply {
                            op: state.op,
                            version: state.version,
                            partition: state.partition,
                        },
                    }),
                    verdict: Verdict::Deliver,
                    body: Reply::State {
                        op: state.op,
                        version: state.version,
                        partition: state.partition,
                    },
                }),
            },
            Frame::CommitAck { .. } => Carried {
                request: Verdict::Deliver,
                response: Some(Response {
                    wire: None,
                    verdict: Verdict::Deliver,
                    body: Reply::Ack,
                }),
            },
            // A copy whose image is not a canonical KV map is a
            // malformed reply: it counts as lost.
            Frame::CopyRep { version, value, .. } => match ShardValue::from_image(&value) {
                Some(value) => Carried {
                    request: Verdict::Deliver,
                    response: Some(Response {
                        wire: Some(Message {
                            from: message.to,
                            to: message.from,
                            kind: MessageKind::CopyReply,
                        }),
                        verdict: Verdict::Deliver,
                        body: Reply::Copy { version, value },
                    }),
                },
                None => Carried::silent(Verdict::Drop),
            },
            // The link admits no other reply (`Question::answered_by`).
            _ => Carried::silent(Verdict::Drop),
        }
    }

    fn post(&mut self, request: WireRequest<'_, ShardValue>) {
        let to = request.message.to;
        let Some(question) = Question::of(&request) else {
            return;
        };
        if to == self.local || self.links.is_blocked(to) {
            return;
        }
        if let Some(link) = self.peers.get_mut(&to) {
            link.post(&request_frame(&request).for_shard(self.shard), question);
        }
    }

    fn commit_point(
        &mut self,
        ticket: u64,
        state: ReplicaState,
        value: Option<&ShardValue>,
        local: Option<&ShardValue>,
    ) -> std::io::Result<()> {
        // A value made by a delta was built on the maximal version its
        // write's participants polled at, however many versions the
        // write commits. So the delta is what *every* participant is
        // sent, and the record a lost frame is re-sent from is the
        // delta; a value made otherwise is logged whole.
        let commit = match value {
            Some(value) => match value.delta() {
                Some(delta) => value.install_record(state, delta.base),
                None => WalRecord::Commit {
                    state,
                    value: Some(value.to_image()),
                },
            },
            None => WalRecord::Commit { state, value: None },
        };
        if self.retired.load(Ordering::SeqCst) != 0 {
            // The successor daemon owns the directory now. Unlike a
            // state sync, a commit point cannot be left to it: it would
            // not know the ticket, and would release its voters.
            return Err(std::io::Error::other("retired by a shard-map install"));
        }
        let mut store = self.store.lock().expect("site store poisoned");
        // A coordinator that holds `local` once the commit lands is a
        // participant, and the record is its own install too — in the
        // form that applies to its durable image.
        let install = match local {
            Some(local) => local.install_record(state, store.state().version),
            None => commit.clone(),
        };
        store.log(WalRecord::CommitPoint {
            ticket,
            adopted: local.is_some(),
            commit: Box::new(install),
        })?;
        drop(store);
        self.ledger
            .lock()
            .expect("op ledger poisoned")
            .note(ticket, commit);
        Ok(())
    }

    fn release(&mut self, ticket: u64, keep: SiteSet, recipients: SiteSet) {
        // The abort is decided here, whoever it is sent to; ledger it
        // even for peers behind a cut link — the probe path is exactly
        // for deliveries that fail here. Its WAL record is best-effort:
        // a lost one leaves a prober wedged, never mis-freed.
        let aborted = self
            .ledger
            .lock()
            .expect("op ledger poisoned")
            .note_release(ticket, keep);
        if aborted && self.retired.load(Ordering::SeqCst) == 0 {
            let record = WalRecord::Abort { ticket, keep };
            let _ = self
                .store
                .lock()
                .expect("site store poisoned")
                .log_unsynced(record);
        }
        let frame = Frame::Release {
            ticket,
            from: self.local,
            keep,
        }
        .for_shard(self.shard);
        for (site, link) in &mut self.peers {
            if recipients.contains(*site) && !self.links.is_blocked(*site) {
                link.send(&frame);
            }
        }
    }
}

/// The frame that carries `request`, which is not a reply.
fn request_frame(request: &WireRequest<'_, ShardValue>) -> Frame {
    let message = request.message;
    match &message.kind {
        MessageKind::StartRequest => Frame::StartReq {
            ticket: request.ticket,
            from: message.from,
            to: message.to,
            mark_pending: request.mark_pending,
        },
        MessageKind::Commit {
            op,
            version,
            partition,
        } => {
            let state = ReplicaState {
                op: *op,
                version: *version,
                partition: *partition,
            };
            // The file moves whole only to a copy that is not at the
            // version the write was built on; one that voted holding
            // exactly that version gets the puts alone.
            let delta = request
                .payload
                .and_then(ShardValue::delta)
                .filter(|delta| request.polled_version == Some(delta.base));
            match delta {
                Some(delta) => Frame::CommitDelta {
                    ticket: request.ticket,
                    from: message.from,
                    to: message.to,
                    state,
                    base: delta.base,
                    puts: delta.puts.clone(),
                },
                None => Frame::Commit {
                    ticket: request.ticket,
                    from: message.from,
                    to: message.to,
                    state,
                    value: request.payload.map(ShardValue::to_image),
                },
            }
        }
        MessageKind::CopyRequest => Frame::CopyReq {
            ticket: request.ticket,
            from: message.from,
            to: message.to,
        },
        MessageKind::StateReply { .. } | MessageKind::CopyReply => {
            unreachable!("a reply is never sent as a request")
        }
    }
}

/// Builds the [`Carried`] for a locally-served request (the defensive
/// self-delivery path), mirroring the in-memory transport's wiring.
fn local_response(message: &Message, body: Reply<ShardValue>) -> Carried<ShardValue> {
    let wire = match &body {
        Reply::State {
            op,
            version,
            partition,
        } => Some(Message {
            from: message.to,
            to: message.from,
            kind: MessageKind::StateReply {
                op: *op,
                version: *version,
                partition: *partition,
            },
        }),
        Reply::Copy { .. } => Some(Message {
            from: message.to,
            to: message.from,
            kind: MessageKind::CopyReply,
        }),
        Reply::Ack => None,
    };
    Carried {
        request: Verdict::Deliver,
        response: Some(Response {
            wire,
            verdict: Verdict::Deliver,
            body,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// The shard group the transports under test serve.
    const SHARD: u16 = 3;

    /// A transport at site 0 with a link to each of `peers`, logging in
    /// a store opened in a temp dir of its own. No test here reaches a
    /// commit point or an abort, so the dir goes at once.
    fn transport(
        peers: &[(SiteId, String)],
        links: Arc<LinkRules>,
        timeouts: TcpTimeouts,
    ) -> TcpTransport {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "dynvote-tcp-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let (store, _) = SiteStore::open(&dir, 0).expect("a store in a temp dir");
        std::fs::remove_dir_all(&dir).ok();
        TcpTransport::new(
            SiteId::new(0),
            SHARD,
            peers,
            links,
            timeouts,
            Arc::new(Mutex::new(store)),
            OpLedger::default(),
        )
    }

    /// Reads one peer request off `stream`, out of the envelope the
    /// transport addressed it in.
    fn read_request(stream: &mut TcpStream) -> Frame {
        match read_frame(stream).unwrap() {
            Frame::Shard {
                shard: SHARD,
                inner,
            } => *inner,
            other => panic!("expected a frame for shard {SHARD}, got {other:?}"),
        }
    }

    fn start_message(from: usize, to: usize) -> Message {
        Message {
            from: SiteId::new(from),
            to: SiteId::new(to),
            kind: MessageKind::StartRequest,
        }
    }

    fn carry(transport: &mut TcpTransport, message: &Message) -> Carried<ShardValue> {
        carry_ticket(transport, message, 1)
    }

    fn start_request(message: &Message, ticket: u64) -> WireRequest<'_, ShardValue> {
        WireRequest {
            message,
            payload: None,
            ticket,
            mark_pending: true,
            polled_version: None,
        }
    }

    fn carry_ticket(
        transport: &mut TcpTransport,
        message: &Message,
        ticket: u64,
    ) -> Carried<ShardValue> {
        let mut serve = |_: &Message, _: Option<&ShardValue>| -> Option<Reply<ShardValue>> { None };
        transport.carry(start_request(message, ticket), &mut serve)
    }

    #[test]
    fn unreachable_peer_is_silence() {
        // Grab a port with no listener behind it.
        let port = {
            let probe = TcpListener::bind("127.0.0.1:0").unwrap();
            probe.local_addr().unwrap().port()
        };
        let mut transport = transport(
            &[(SiteId::new(1), format!("127.0.0.1:{port}"))],
            Arc::new(LinkRules::new()),
            TcpTimeouts::fast(),
        );
        let carried = carry(&mut transport, &start_message(0, 1));
        assert_eq!(carried.request, Verdict::Drop);
        assert!(carried.response.is_none());
        let stats = transport.peer_stats();
        assert_eq!(stats.len(), 1);
        assert!(stats[0].1.failures >= 1);
        assert!(!stats[0].1.connected);
    }

    #[test]
    fn blocked_link_drops_without_touching_the_socket() {
        let links = Arc::new(LinkRules::new());
        links.block(SiteId::new(1));
        let mut transport = transport(
            &[(SiteId::new(1), "127.0.0.1:1".to_string())],
            Arc::clone(&links),
            TcpTimeouts::fast(),
        );
        let carried = carry(&mut transport, &start_message(0, 1));
        assert_eq!(carried.request, Verdict::Drop);
        assert_eq!(transport.peer_stats()[0].1.sends, 0, "no socket work");
        links.clear();
        assert!(!links.is_blocked(SiteId::new(1)));
    }

    #[test]
    fn reconnect_backoff_is_jittered_within_the_window() {
        // Drive the link state machine directly through consecutive
        // failures: every recorded wait must stay inside the jitter
        // envelope [window/2, window] of the exponential policy, and
        // two links (different seeds) must not draw identical waves.
        let waves: Vec<Vec<u64>> = (0u64..2)
            .map(|seed| {
                let timeouts = TcpTimeouts::fast();
                let mut link =
                    PeerLink::new("127.0.0.1:1".to_string(), timeouts, Jitter::new(7 + seed));
                let mut window = timeouts.backoff_floor;
                let mut waits = Vec::new();
                for _ in 0..8 {
                    link.note_failure();
                    let wait = link.stats.backoff_ms;
                    let lo = (window / 2).as_millis() as u64;
                    let hi = window.as_millis() as u64;
                    assert!(
                        (lo..=hi).contains(&wait),
                        "wait {wait}ms outside [{lo}, {hi}]ms"
                    );
                    waits.push(wait);
                    window = (window * 2).min(timeouts.backoff_cap);
                }
                waits
            })
            .collect();
        assert_ne!(waves[0], waves[1], "two links retry in lockstep");
    }

    /// Answers a `StartReq` with a state reply whose op number says
    /// which answer it is.
    fn answer_start(stream: &mut TcpStream, request: &Frame, op: u64) -> std::io::Result<()> {
        let Frame::StartReq {
            ticket, from, to, ..
        } = request
        else {
            panic!("expected StartReq, got {request:?}");
        };
        let reply = Frame::StateRep {
            ticket: *ticket,
            from: *to,
            to: *from,
            state: ReplicaState {
                op,
                version: 1,
                partition: SiteSet::from_indices([0, 1]),
            },
        };
        stream.write_all(&reply.encode())
    }

    /// A peer that accepts and then says nothing costs the caller one
    /// read timeout — the exchange runs on the caller's thread, the
    /// socket's timeout is the bound — and nothing more while the link
    /// backs off. Its answer, when it finally comes, died with the
    /// connection: the next exchange gets the next connection's reply.
    #[test]
    fn a_silent_peer_costs_one_read_timeout_and_its_late_reply_is_never_delivered() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (gave_up, may_answer) = std::sync::mpsc::channel::<()>();
        let (answered_late, late_answer_sent) = std::sync::mpsc::channel::<()>();
        let served = std::thread::spawn(move || {
            let (mut first, _) = listener.accept().unwrap();
            let request = read_request(&mut first);
            // Silent until the caller has timed out; then the late
            // answer, which may or may not still find a socket.
            may_answer.recv().unwrap();
            let _ = answer_start(&mut first, &request, 111);
            answered_late.send(()).unwrap();
            let (mut second, _) = listener.accept().unwrap();
            let request = read_request(&mut second);
            answer_start(&mut second, &request, 222).unwrap();
        });
        let timeouts = TcpTimeouts {
            connect: Duration::from_millis(250),
            read: Duration::from_millis(150),
            backoff_floor: Duration::from_millis(400),
            backoff_cap: Duration::from_millis(400),
        };
        let mut transport = transport(
            &[(SiteId::new(1), addr.to_string())],
            Arc::new(LinkRules::new()),
            timeouts,
        );
        let message = start_message(0, 1);

        let began = Instant::now();
        let carried = carry(&mut transport, &message);
        let waited = began.elapsed();
        assert!(carried.response.is_none());
        assert!(
            waited >= timeouts.read && waited < timeouts.read * 3,
            "one read timeout, got {waited:?}"
        );
        gave_up.send(()).unwrap();

        // Inside the backoff window (at least 200 ms of it left): no
        // socket work, no wait.
        let began = Instant::now();
        let carried = carry(&mut transport, &message);
        assert!(carried.response.is_none());
        assert!(began.elapsed() < Duration::from_millis(50));
        let stats = transport.peer_stats()[0].1;
        assert_eq!((stats.sends, stats.failures, stats.reconnects), (2, 2, 1));
        assert!(!stats.connected);

        late_answer_sent.recv().unwrap();
        std::thread::sleep(timeouts.backoff_cap);
        let carried = carry(&mut transport, &message);
        served.join().unwrap();
        let response = carried.response.expect("the second connection answers");
        assert!(
            matches!(response.body, Reply::State { op: 222, .. }),
            "a reply from a dropped connection reached a later exchange"
        );
        assert_eq!(transport.peer_stats()[0].1.reconnects, 2);
    }

    #[test]
    fn state_reply_frame_becomes_a_poll_response() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let served = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let frame = read_request(&mut stream);
            let Frame::StartReq {
                ticket, from, to, ..
            } = frame
            else {
                panic!("expected StartReq, got {frame:?}");
            };
            let reply = Frame::StateRep {
                ticket,
                from: to,
                to: from,
                state: ReplicaState {
                    op: 6,
                    version: 5,
                    partition: SiteSet::from_indices([0, 1]),
                },
            };
            stream.write_all(&reply.encode()).unwrap();
        });
        let mut transport = transport(
            &[(SiteId::new(1), addr.to_string())],
            Arc::new(LinkRules::new()),
            TcpTimeouts::fast(),
        );
        let carried = carry(&mut transport, &start_message(0, 1));
        served.join().unwrap();
        assert_eq!(carried.request, Verdict::Deliver);
        let response = carried.response.expect("reply arrived");
        assert!(response.arrived());
        assert!(matches!(
            response.body,
            Reply::State {
                op: 6,
                version: 5,
                partition,
            } if partition == SiteSet::from_indices([0, 1])
        ));
        let wire = response.wire.expect("state replies are wire messages");
        assert!(matches!(wire.kind, MessageKind::StateReply { .. }));
        let stats = transport.peer_stats();
        assert!(stats[0].1.connected);
        assert_eq!(stats[0].1.reconnects, 1);
    }

    /// A transport at site 0 with one link per address, sites 1, 2, ….
    fn transport_to(addrs: &[std::net::SocketAddr], timeouts: TcpTimeouts) -> TcpTransport {
        let peers: Vec<(SiteId, String)> = addrs
            .iter()
            .enumerate()
            .map(|(i, addr)| (SiteId::new(i + 1), addr.to_string()))
            .collect();
        transport(&peers, Arc::new(LinkRules::new()), timeouts)
    }

    /// Posts a START with `ticket` to every site, then carries each: the
    /// round a poll attempt runs. Returns each site's carried outcome.
    fn posted_round(
        transport: &mut TcpTransport,
        sites: usize,
        ticket: u64,
    ) -> Vec<Carried<ShardValue>> {
        let messages: Vec<Message> = (1..=sites).map(|to| start_message(0, to)).collect();
        for message in &messages {
            transport.post(start_request(message, ticket));
        }
        messages
            .iter()
            .map(|message| carry_ticket(transport, message, ticket))
            .collect()
    }

    /// Four peers that each take 50 ms to answer: posted, the round
    /// waits for the slowest of them; carried one by one, for all four.
    #[test]
    fn a_posted_round_waits_for_its_slowest_reply_not_for_the_sum() {
        const PEERS: usize = 4;
        let delay = Duration::from_millis(50);
        let listeners: Vec<TcpListener> = (0..PEERS)
            .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
            .collect();
        let addrs: Vec<_> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
        let served: Vec<_> = listeners
            .into_iter()
            .map(|listener| {
                std::thread::spawn(move || {
                    let (mut stream, _) = listener.accept().unwrap();
                    for op in [1, 2] {
                        let request = read_request(&mut stream);
                        std::thread::sleep(delay);
                        answer_start(&mut stream, &request, op).unwrap();
                    }
                })
            })
            .collect();
        let mut transport = transport_to(&addrs, TcpTimeouts::fast());

        let began = Instant::now();
        let round = posted_round(&mut transport, PEERS, 1);
        let posted = began.elapsed();
        assert!(round.iter().all(|carried| carried.response.is_some()));
        assert!(posted < delay * 2, "a posted round took {posted:?}");

        let began = Instant::now();
        for to in 1..=PEERS {
            let carried = carry_ticket(&mut transport, &start_message(0, to), 2);
            assert!(carried.response.is_some());
        }
        let sequential = began.elapsed();
        assert!(
            sequential >= delay * 4,
            "a sequential round took {sequential:?}"
        );
        for peer in served {
            peer.join().unwrap();
        }
        for (_, stats) in transport.peer_stats() {
            assert_eq!((stats.sends, stats.failures, stats.reconnects), (2, 0, 1));
        }
    }

    /// Two posted peers that accept and say nothing cost the round one
    /// read timeout between them — each read is bounded by a deadline
    /// counted from its post — and the next round fails fast inside
    /// both links' backoff.
    #[test]
    fn two_silent_posted_peers_cost_one_read_timeout_together() {
        let listeners: Vec<TcpListener> = (0..2)
            .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
            .collect();
        let addrs: Vec<_> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
        let (done, finished) = std::sync::mpsc::channel::<()>();
        let silent = std::thread::spawn(move || {
            let held: Vec<TcpStream> = listeners.iter().map(|l| l.accept().unwrap().0).collect();
            finished.recv().unwrap();
            drop(held);
        });
        let timeouts = TcpTimeouts {
            connect: Duration::from_millis(250),
            read: Duration::from_millis(150),
            backoff_floor: Duration::from_millis(400),
            backoff_cap: Duration::from_millis(400),
        };
        let mut transport = transport_to(&addrs, timeouts);

        let began = Instant::now();
        let round = posted_round(&mut transport, 2, 1);
        let waited = began.elapsed();
        assert!(round.iter().all(|carried| carried.response.is_none()));
        assert!(
            waited >= timeouts.read && waited < timeouts.read * 2,
            "one read timeout for both, got {waited:?}"
        );

        let began = Instant::now();
        let round = posted_round(&mut transport, 2, 2);
        assert!(round.iter().all(|carried| carried.response.is_none()));
        assert!(began.elapsed() < Duration::from_millis(50));
        for (_, stats) in transport.peer_stats() {
            assert_eq!((stats.sends, stats.failures, stats.reconnects), (2, 2, 1));
            assert!(!stats.connected);
        }
        done.send(()).unwrap();
        silent.join().unwrap();
    }

    /// Sixteen silent posted peers cost the round one read timeout,
    /// not sixteen timer ticks besides: once the first gather has
    /// waited out the shared deadline, every later gather reads only
    /// what is already buffered and never blocks.
    #[test]
    fn sixteen_silent_posted_peers_cost_one_read_timeout_and_no_more() {
        const PEERS: usize = 16;
        let listeners: Vec<TcpListener> = (0..PEERS)
            .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
            .collect();
        let addrs: Vec<_> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
        let (done, finished) = std::sync::mpsc::channel::<()>();
        let silent = std::thread::spawn(move || {
            let held: Vec<TcpStream> = listeners.iter().map(|l| l.accept().unwrap().0).collect();
            finished.recv().unwrap();
            drop(held);
        });
        let timeouts = TcpTimeouts {
            connect: Duration::from_millis(250),
            read: Duration::from_millis(150),
            backoff_floor: Duration::from_millis(400),
            backoff_cap: Duration::from_millis(400),
        };
        let mut transport = transport_to(&addrs, timeouts);

        let began = Instant::now();
        let round = posted_round(&mut transport, PEERS, 1);
        let waited = began.elapsed();
        assert!(round.iter().all(|carried| carried.response.is_none()));
        assert!(
            waited >= timeouts.read && waited < timeouts.read + Duration::from_millis(40),
            "one read timeout for all sixteen, got {waited:?}"
        );
        for (_, stats) in transport.peer_stats() {
            assert_eq!((stats.sends, stats.failures, stats.reconnects), (1, 1, 1));
            assert!(!stats.connected);
        }
        done.send(()).unwrap();
        silent.join().unwrap();
    }

    /// A reply that arrived by its deadline counts even when its gather
    /// comes after the deadline, because a silent peer gathered first
    /// took the whole wait; the answering link stays connected.
    #[test]
    fn a_reply_buffered_by_its_deadline_counts_when_gathered_after_it() {
        let listeners: Vec<TcpListener> = (0..2)
            .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
            .collect();
        let addrs: Vec<_> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
        let (done, finished) = std::sync::mpsc::channel::<()>();
        let peers = std::thread::spawn(move || {
            let (silent, _) = listeners[0].accept().unwrap();
            let (mut answering, _) = listeners[1].accept().unwrap();
            let request = read_request(&mut answering);
            answer_start(&mut answering, &request, 7).unwrap();
            finished.recv().unwrap();
            drop(silent);
        });
        let timeouts = TcpTimeouts {
            connect: Duration::from_millis(250),
            read: Duration::from_millis(100),
            backoff_floor: Duration::from_millis(400),
            backoff_cap: Duration::from_millis(400),
        };
        let mut transport = transport_to(&addrs, timeouts);

        let round = posted_round(&mut transport, 2, 1);
        assert!(round[0].response.is_none(), "the silent peer answered");
        let response = round[1].response.as_ref().expect("the buffered reply");
        assert!(matches!(response.body, Reply::State { op: 7, .. }));
        let stats = transport.peer_stats();
        assert_eq!((stats[1].1.failures, stats[1].1.connected), (0, true));
        done.send(()).unwrap();
        peers.join().unwrap();
    }

    /// A reply whose ticket, then one whose kind, does not answer the
    /// posted START is silence: each drops its connection, and only the
    /// third connection's answer is delivered.
    #[test]
    fn a_reply_that_does_not_answer_its_post_is_silence_and_drops_the_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let served = std::thread::spawn(move || {
            let (mut first, _) = listener.accept().unwrap();
            let Frame::StartReq {
                ticket, from, to, ..
            } = read_request(&mut first)
            else {
                panic!("expected StartReq");
            };
            let wrong_ticket = Frame::StateRep {
                ticket: ticket + 1,
                from: to,
                to: from,
                state: ReplicaState {
                    op: 111,
                    version: 1,
                    partition: SiteSet::from_indices([0, 1]),
                },
            };
            first.write_all(&wrong_ticket.encode()).unwrap();
            let (mut second, _) = listener.accept().unwrap();
            let _ = read_request(&mut second);
            let wrong_kind = Frame::CommitAck {
                ticket,
                from: to,
                to: from,
            };
            second.write_all(&wrong_kind.encode()).unwrap();
            let (mut third, _) = listener.accept().unwrap();
            let request = read_request(&mut third);
            answer_start(&mut third, &request, 333).unwrap();
        });
        let timeouts = TcpTimeouts {
            connect: Duration::from_millis(250),
            read: Duration::from_millis(1000),
            backoff_floor: Duration::from_millis(20),
            backoff_cap: Duration::from_millis(20),
        };
        let mut transport = transport_to(&[addr], timeouts);
        for failures in [1, 2] {
            let round = posted_round(&mut transport, 1, 7);
            assert!(round[0].response.is_none(), "an unanswering reply counted");
            let stats = transport.peer_stats()[0].1;
            assert_eq!((stats.failures, stats.connected), (failures, false));
            std::thread::sleep(timeouts.backoff_cap * 2);
        }
        let round = posted_round(&mut transport, 1, 7);
        let response = round[0]
            .response
            .as_ref()
            .expect("the third connection answers");
        assert!(matches!(response.body, Reply::State { op: 333, .. }));
        served.join().unwrap();
        let stats = transport.peer_stats()[0].1;
        assert_eq!((stats.sends, stats.failures, stats.reconnects), (3, 2, 3));
    }

    /// The reply to a post that was never gathered dies with its
    /// connection: the link's next exchange reconnects at once and gets
    /// its own answer.
    #[test]
    fn the_reply_to_a_post_never_gathered_never_reaches_a_later_exchange() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (answered, first_answer_sent) = std::sync::mpsc::channel::<()>();
        let served = std::thread::spawn(move || {
            let (mut first, _) = listener.accept().unwrap();
            let request = read_request(&mut first);
            answer_start(&mut first, &request, 111).unwrap();
            answered.send(()).unwrap();
            let (mut second, _) = listener.accept().unwrap();
            let request = read_request(&mut second);
            answer_start(&mut second, &request, 222).unwrap();
        });
        let mut transport = transport_to(&[addr], TcpTimeouts::fast());
        let message = start_message(0, 1);
        transport.post(start_request(&message, 1));
        first_answer_sent
            .recv_timeout(Duration::from_secs(5))
            .expect("the post reached the peer");

        let carried = carry_ticket(&mut transport, &message, 2);
        let response = carried.response.expect("the second connection answers");
        assert!(
            matches!(response.body, Reply::State { op: 222, .. }),
            "an ungathered post's reply reached a later exchange"
        );
        served.join().unwrap();
        let stats = transport.peer_stats()[0].1;
        assert_eq!((stats.sends, stats.failures, stats.reconnects), (2, 1, 2));
        assert!(stats.connected);
    }
}
