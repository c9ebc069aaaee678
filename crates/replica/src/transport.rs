//! The transport seam: how a coordinator's messages reach other sites.
//!
//! The cluster's poll/plan/copy/commit phases are transport-agnostic:
//! they hand each outgoing [`Message`] to a [`Transport`] and get back
//! what the exchange produced — did the request arrive, and if so, what
//! did the recipient reply. Two implementations exist:
//!
//! * [`BusTransport`] — the in-process nemesis [`Bus`]: every
//!   participant lives in the same [`Cluster`](crate::Cluster), the
//!   transport asks the bus for a fault [`Verdict`] and, on delivery,
//!   invokes the recipient's handler *directly* (the `serve` callback).
//! * `TcpTransport` (crate `dynvote-store`) — real sockets: the request
//!   is framed onto a TCP connection, the remote daemon runs the same
//!   handler ([`Cluster::serve_at`](crate::Cluster::serve_at)) on its
//!   own node, and the framed reply (or its absence, on loss/timeout)
//!   comes back as the [`Carried`] result.
//!
//! Because the protocol code only ever talks to the trait, the nemesis
//! campaigns, the exhaustive checker, and a live loopback cluster all
//! exercise the *identical* implementation of Figures 1–3/5–7.

use dynvote_core::state::ReplicaState;
use dynvote_types::SiteSet;

use crate::bus::{Bus, Verdict};
use crate::message::{Message, MessageKind};

/// One outgoing protocol request, with everything a remote recipient
/// needs to process it.
///
/// `ticket` and `mark_pending` are coordination metadata that ride the
/// `START` frame on a real wire (the in-memory transport's `serve`
/// callback already closes over them); `payload` is the data value a
/// write's `COMMIT` carries; `polled_version` tells a transport which
/// version of the file that `COMMIT` will land on.
pub struct WireRequest<'a, T> {
    /// The protocol message (addressing + kind).
    pub message: &'a Message,
    /// The data value riding a write `COMMIT`, if any.
    pub payload: Option<&'a T>,
    /// The coordinator's operation ticket.
    pub ticket: u64,
    /// Whether answering this `START` records an outstanding vote.
    pub mark_pending: bool,
    /// On a `COMMIT` of a dynamic-voting operation: the version number
    /// the recipient reported in this operation's poll. Its vote
    /// wedges it — it answers no other coordinator until this commit
    /// or a release reaches it — so that is still the version it holds
    /// when the commit arrives, and a transport may ship the write as
    /// a change against that version instead of the whole file. `None`
    /// on every other request, and under MCV, whose repliers are not
    /// wedged.
    pub polled_version: Option<u64>,
}

/// What a recipient's handler produced for one request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply<T> {
    /// Answer to `START`: the replier's consistency-control state.
    State {
        /// The replier's operation number.
        op: u64,
        /// The replier's version number.
        version: u64,
        /// The replier's partition set.
        partition: SiteSet,
    },
    /// Answer to `COMMIT`: installed.
    Ack,
    /// Answer to a copy request: the file, with the version it carries.
    Copy {
        /// The version number of the served copy.
        version: u64,
        /// The file contents.
        value: T,
    },
}

/// A reply that made it back onto the wire.
pub struct Response<T> {
    /// The reply as a wire message, for tracing — `None` when the reply
    /// is a bare commit acknowledgement, which the paper's message
    /// accounting does not count.
    pub wire: Option<Message>,
    /// What the fault surface did to the reply on its way back.
    pub verdict: Verdict,
    /// The reply body.
    pub body: Reply<T>,
}

impl<T> Response<T> {
    /// Whether the reply actually reached the coordinator.
    /// `CrashSender` delivers (the replier dies *after* sending).
    #[must_use]
    pub fn arrived(&self) -> bool {
        matches!(
            self.verdict,
            Verdict::Deliver | Verdict::Duplicate | Verdict::CrashSender
        )
    }
}

/// The complete outcome of one request/reply exchange.
pub struct Carried<T> {
    /// What the fault surface did to the request.
    pub request: Verdict,
    /// The reply, when the recipient processed the request and
    /// answered. `None` covers every silent outcome: the request was
    /// lost, the recipient is wedged on an outstanding vote and
    /// abstained, or (on a real network) the peer is unreachable.
    pub response: Option<Response<T>>,
}

impl<T> Carried<T> {
    /// A silent exchange: the request got verdict `request`, no reply.
    #[must_use]
    pub fn silent(request: Verdict) -> Self {
        Carried {
            request,
            response: None,
        }
    }
}

/// The recipient-side handler a transport invokes on delivery.
///
/// Returns `None` when the recipient abstains (outstanding vote for a
/// different ticket) or cannot answer (witness asked for data).
pub type LocalServe<'a, T> = &'a mut dyn FnMut(&Message, Option<&T>) -> Option<Reply<T>>;

/// Carries protocol messages between sites.
///
/// This is the *only* delivery API the cluster's operation phases use —
/// swapping the implementation swaps the network under the protocol
/// without touching the protocol.
pub trait Transport<T> {
    /// Performs one request/reply exchange.
    ///
    /// `serve` is the handler for recipients hosted in *this* process;
    /// an in-memory transport calls it for every delivered request,
    /// a networked transport never does (its recipients are remote).
    /// The caller applies all verdict side effects (trace records,
    /// crash faults) — the transport only reports them.
    fn carry(&mut self, request: WireRequest<'_, T>, serve: LocalServe<'_, T>) -> Carried<T>;

    /// Sends `request` ahead of its [`Transport::carry`]: the cluster
    /// posts every request of a broadcast before it carries the first,
    /// so a networked transport can have them all in flight at once and
    /// a round waits for its slowest reply instead of the sum of them.
    /// A `carry` of the request last posted to its recipient then only
    /// collects the reply. Posting changes nothing else: every posted
    /// request is still carried, traced and counted exactly as an
    /// unposted one. The in-memory bus delivers inside `carry`, so the
    /// default is a no-op.
    fn post(&mut self, request: WireRequest<'_, T>) {
        let _ = request;
    }

    /// The commit point of operation `ticket`: the decision is made and
    /// `state` = `⟨o, v, P⟩` (with `value` riding a write) is about to
    /// take effect. `local` is the coordinator's own data as the commit
    /// leaves it, when the coordinator is a participant holding data:
    /// `value`, or what it already held (a recovery copies the file in
    /// before its commit). Called strictly *before* the coordinator
    /// applies the commit locally and before any `COMMIT` frame is
    /// sent, so a durable transport can record the outcome — and the
    /// coordinator's own install — where a crashed coordinator's
    /// successor will find it (the site's WAL, which vote probes are
    /// answered from). In-memory clusters need no such record; the
    /// default records nothing and succeeds.
    ///
    /// # Errors
    ///
    /// The outcome could not be recorded. The cluster then abandons the
    /// round before it has any effect: an unrecorded commit would look
    /// releasable to the coordinator's next incarnation.
    fn commit_point(
        &mut self,
        ticket: u64,
        state: ReplicaState,
        value: Option<&T>,
        local: Option<&T>,
    ) -> std::io::Result<()> {
        let _ = (ticket, state, value, local);
        Ok(())
    }

    /// Best-effort delivery of the abort oracle: sites holding an
    /// outstanding vote for `ticket` and not in `keep` may release it.
    /// `recipients` are the only sites that can still hold one — every
    /// site the operation polled, less those that acknowledged its
    /// `COMMIT` (installing it released their vote), less `keep` — so a
    /// round that closed everywhere names nobody and sends nothing.
    /// In-memory clusters release their nodes directly, so the default
    /// is a no-op; a networked transport forwards it to `recipients`.
    fn release(&mut self, ticket: u64, keep: SiteSet, recipients: SiteSet) {
        let _ = (ticket, keep, recipients);
    }
}

/// The in-process transport: the nemesis [`Bus`] decides each
/// message's fate, and delivered requests are served by the local
/// handler.
///
/// Faithful to the original in-line dispatch, with the fault timing the
/// partial-commit tests pin down:
///
/// * `CrashRecipient` kills the recipient *before* it processes the
///   request — no handler effects, no reply.
/// * `CrashSender` on `START` or a copy request kills the coordinator
///   before the recipient's handler runs (the coordinator's loop breaks
///   the instant it learns of its own death, so the recipient's vote is
///   never recorded and no phantom reply hits the trace).
/// * `CrashSender` on `COMMIT` delivers first: the commit *is*
///   installed, then the coordinator dies — the ordering that creates
///   the paper's partial-commit divergence.
#[derive(Clone, Debug, Default)]
pub struct BusTransport {
    bus: Bus,
}

impl BusTransport {
    /// A transport with a fault-free bus.
    #[must_use]
    pub fn new() -> Self {
        BusTransport { bus: Bus::new() }
    }

    /// The fault surface: injected rules and delivery statistics.
    #[must_use]
    pub fn bus(&self) -> &Bus {
        &self.bus
    }

    /// Mutable access to the fault surface.
    pub fn bus_mut(&mut self) -> &mut Bus {
        &mut self.bus
    }
}

impl<T> Transport<T> for BusTransport {
    fn carry(&mut self, request: WireRequest<'_, T>, serve: LocalServe<'_, T>) -> Carried<T> {
        let message = request.message;
        let verdict = self.bus.decide(message);
        let delivered = match verdict {
            Verdict::Deliver | Verdict::Duplicate => true,
            // The sender dies in the act: a commit still lands (the
            // partial-commit ordering), but a poll or copy request is
            // moot — the coordinator that would consume the answer is
            // gone before the recipient acts.
            Verdict::CrashSender => matches!(message.kind, MessageKind::Commit { .. }),
            Verdict::Drop | Verdict::Delay | Verdict::CrashRecipient => false,
        };
        if !delivered {
            return Carried::silent(verdict);
        }
        let Some(body) = serve(message, request.payload) else {
            return Carried::silent(verdict);
        };
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
            // Commit acknowledgements are implicit in-process; the
            // paper counts no ACK message and neither do we.
            Reply::Ack => None,
        };
        let reply_verdict = match &wire {
            Some(reply) => self.bus.decide(reply),
            None => Verdict::Deliver,
        };
        Carried {
            request: verdict,
            response: Some(Response {
                wire,
                verdict: reply_verdict,
                body,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::{FaultAction, FaultRule, MessageClass};
    use dynvote_types::SiteId;

    fn start(from: usize, to: usize) -> Message {
        Message {
            from: SiteId::new(from),
            to: SiteId::new(to),
            kind: MessageKind::StartRequest,
        }
    }

    fn commit(from: usize, to: usize) -> Message {
        Message {
            from: SiteId::new(from),
            to: SiteId::new(to),
            kind: MessageKind::Commit {
                op: 2,
                version: 2,
                partition: SiteSet::first_n(2),
            },
        }
    }

    fn carry_one(
        transport: &mut BusTransport,
        message: &Message,
        reply: Option<Reply<u64>>,
    ) -> (Carried<u64>, u32) {
        let mut served = 0;
        let mut serve = |_: &Message, _: Option<&u64>| {
            served += 1;
            reply.clone()
        };
        let carried = transport.carry(
            WireRequest {
                message,
                payload: None,
                ticket: 1,
                mark_pending: true,
                polled_version: None,
            },
            &mut serve,
        );
        (carried, served)
    }

    #[test]
    fn fault_free_request_serves_and_replies() {
        let mut t = BusTransport::new();
        let msg = start(0, 1);
        let state = Reply::State {
            op: 1,
            version: 1,
            partition: SiteSet::first_n(2),
        };
        let (carried, served) = carry_one(&mut t, &msg, Some(state.clone()));
        assert_eq!(served, 1);
        assert_eq!(carried.request, Verdict::Deliver);
        let resp = carried.response.unwrap();
        assert!(resp.arrived());
        assert_eq!(resp.body, state);
        let wire = resp.wire.unwrap();
        assert_eq!((wire.from, wire.to), (msg.to, msg.from));
        assert!(matches!(wire.kind, MessageKind::StateReply { .. }));
    }

    #[test]
    fn dropped_request_never_reaches_the_handler() {
        let mut t = BusTransport::new();
        t.bus_mut().inject(FaultRule::once(
            MessageClass::Start,
            SiteId::new(1),
            FaultAction::Drop,
        ));
        let (carried, served) = carry_one(&mut t, &start(0, 1), None);
        assert_eq!(served, 0);
        assert_eq!(carried.request, Verdict::Drop);
        assert!(carried.response.is_none());
    }

    #[test]
    fn sender_crash_on_start_suppresses_the_handler() {
        let mut t = BusTransport::new();
        t.bus_mut().inject(FaultRule::once(
            MessageClass::Start,
            SiteId::new(1),
            FaultAction::CrashSender,
        ));
        let (carried, served) = carry_one(&mut t, &start(0, 1), None);
        assert_eq!(served, 0, "the coordinator died before the vote counted");
        assert_eq!(carried.request, Verdict::CrashSender);
        assert!(carried.response.is_none());
    }

    #[test]
    fn sender_crash_on_commit_still_installs() {
        let mut t = BusTransport::new();
        t.bus_mut().inject(FaultRule::once(
            MessageClass::Commit,
            SiteId::new(1),
            FaultAction::CrashSender,
        ));
        let (carried, served) = carry_one(&mut t, &commit(0, 1), Some(Reply::Ack));
        assert_eq!(served, 1, "the commit lands, then the sender dies");
        assert_eq!(carried.request, Verdict::CrashSender);
        let resp = carried.response.unwrap();
        assert!(resp.wire.is_none(), "commit acks are not wire messages");
        assert!(resp.arrived());
    }

    #[test]
    fn abstention_is_a_silent_delivery() {
        let mut t = BusTransport::new();
        let (carried, served) = carry_one(&mut t, &start(0, 1), None);
        assert_eq!(served, 1);
        assert_eq!(carried.request, Verdict::Deliver);
        assert!(carried.response.is_none());
    }

    #[test]
    fn release_defaults_to_noop() {
        let mut t = BusTransport::new();
        Transport::<u64>::release(&mut t, 7, SiteSet::EMPTY, SiteSet::first_n(3));
    }
}
