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
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dynvote_core::state::ReplicaState;
use dynvote_replica::Message;
use dynvote_replica::{
    Carried, LocalServe, MessageKind, Reply, Response, Transport, Verdict, WireRequest,
};
use dynvote_types::{SiteId, SiteSet};

use crate::jitter::Jitter;
use crate::probe::{CommitBody, OpLedger};
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

/// One peer's connection state machine (see the module docs).
struct PeerLink {
    addr: String,
    timeouts: TcpTimeouts,
    /// Replies are read through a buffer that lives and dies with the
    /// connection: one `recv` per reply frame, and nothing buffered
    /// survives the connection it was read from.
    conn: Option<BufReader<TcpStream>>,
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
    fn exchange(&mut self, frame: &Frame) -> Option<Frame> {
        if !self.send(frame) {
            return None;
        }
        match read_frame(self.conn.as_mut().expect("just sent on it")) {
            Ok(frame) => Some(frame),
            Err(_) => {
                // Timeout, reset, or garbage: the connection's framing
                // can no longer be trusted — drop it and back off.
                self.note_failure();
                None
            }
        }
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
    /// point. Durable (replayed across restarts) when the daemon has a
    /// data directory.
    ledger: Arc<Mutex<OpLedger>>,
    /// The shard group this transport serves: every outbound peer
    /// frame travels inside a [`Frame::Shard`] envelope naming it, so
    /// one remote listener can demultiplex traffic for the many voting
    /// groups it hosts. Replies come back unwrapped (they are
    /// correlated by connection), so only the outbound side wraps.
    shard: u16,
}

impl TcpTransport {
    /// A transport for shard group `shard` at `local`, with one link
    /// per remote peer.
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
            ledger: Arc::new(Mutex::new(OpLedger::default())),
            shard,
        }
    }

    /// The operation ledger (shared handle) — the daemon's vote-probe
    /// handler answers from it, and daemons with a data directory
    /// swap in a durable replayed instance at boot.
    #[must_use]
    pub fn ledger(&self) -> Arc<Mutex<OpLedger>> {
        Arc::clone(&self.ledger)
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
        if self.links.is_blocked(message.to) {
            // The partition surface: the frame never leaves this host.
            return Carried::silent(Verdict::Drop);
        }
        let frame = match &message.kind {
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
                // The file moves whole only to a copy that is not at
                // the version the write was built on; one that voted
                // holding exactly that version gets the puts alone.
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
            // Replies travel as answers on the requester's connection,
            // never as outbound requests.
            MessageKind::StateReply { .. } | MessageKind::CopyReply => {
                return Carried::silent(Verdict::Drop);
            }
        };
        let frame = frame.for_shard(self.shard);
        let reply = self
            .peers
            .get_mut(&message.to)
            .and_then(|link| link.exchange(&frame));
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
            Frame::CopyRep { version, value, .. } => Carried {
                request: Verdict::Deliver,
                response: Some(Response {
                    wire: Some(Message {
                        from: message.to,
                        to: message.from,
                        kind: MessageKind::CopyReply,
                    }),
                    verdict: Verdict::Deliver,
                    body: Reply::Copy {
                        version,
                        value: ShardValue::from_image(value),
                    },
                }),
            },
            // A reply that answers no question we asked: protocol
            // confusion, treated as a lost exchange.
            _ => Carried::silent(Verdict::Drop),
        }
    }

    fn commit_point(&mut self, ticket: u64, state: ReplicaState, value: Option<&ShardValue>) {
        // A write's participants are the copies that polled at the
        // maximal version v, and it commits v + 1. So a delta built on
        // v is what *every* participant is sent, and the record a lost
        // frame is re-sent from can be the delta; a delta built on any
        // other version reached nobody, and the record is the image.
        let body = match value {
            None => CommitBody::StateOnly,
            Some(value) => match value.delta() {
                Some(delta) if delta.base + 1 == state.version => {
                    CommitBody::Delta(Arc::clone(delta))
                }
                _ => CommitBody::Image(value.to_shared_image()),
            },
        };
        // The wedge-resolution record, fsync'd before the commit has
        // any effect (see `crate::probe`). A failed append is only
        // unsound if this process also dies and a wedged site probes
        // across the gap; surface it loudly rather than fail the
        // commit.
        if let Err(error) = self
            .ledger
            .lock()
            .expect("op ledger poisoned")
            .note(ticket, state, body)
        {
            eprintln!(
                "S{} commit ledger write failed at ticket {ticket}: {error}",
                self.local.index()
            );
        }
    }

    fn release(&mut self, ticket: u64, keep: SiteSet, recipients: SiteSet) {
        // The abort is decided here, whoever it is sent to; ledger it
        // even for peers behind a cut link — the probe path is exactly
        // for deliveries that fail here.
        self.ledger
            .lock()
            .expect("op ledger poisoned")
            .note_release(ticket, keep);
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
        let mut serve = |_: &Message, _: Option<&ShardValue>| -> Option<Reply<ShardValue>> { None };
        transport.carry(
            WireRequest {
                message,
                payload: None,
                ticket: 1,
                mark_pending: true,
                polled_version: None,
            },
            &mut serve,
        )
    }

    #[test]
    fn unreachable_peer_is_silence() {
        // Grab a port with no listener behind it.
        let port = {
            let probe = TcpListener::bind("127.0.0.1:0").unwrap();
            probe.local_addr().unwrap().port()
        };
        let mut transport = TcpTransport::new(
            SiteId::new(0),
            SHARD,
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
        let mut transport = TcpTransport::new(
            SiteId::new(0),
            SHARD,
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
        let mut transport = TcpTransport::new(
            SiteId::new(0),
            SHARD,
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
        let mut transport = TcpTransport::new(
            SiteId::new(0),
            SHARD,
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
}
