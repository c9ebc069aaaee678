//! The cluster: nodes, the transport carrying protocol messages, and
//! the READ / WRITE / RECOVER operations.
//!
//! Every operation of every protocol is one round: `open_round` (a
//! ticket, `poll_phase` — the only code that hands a `START` to the
//! transport — and Algorithm 1's plan), the operation's own step inside
//! the vote (a read's `fetch_current`, a write's value, a recovery's
//! blank-slate rule and copy), and `close_round` (`commit_phase`, whose
//! `deliver_commit` is the only `COMMIT` delivery, then lineage notes,
//! release, and `Indeterminate` or history).
//!
//! MCV is a [`Rule`] too, the static majority, and its plan is data:
//! a read commits nothing, a write commits ⟨o, v + 1, all copies⟩ to
//! every copy that answered. What sets it apart is that a static rule
//! wedges nobody, which only the round reads: its poll records no
//! outstanding votes, so there is no commit point, no release, no
//! polled version on a `COMMIT`, no lineage note, and its history
//! entries say op 0. Three MCV operations stay different on purpose:
//! `recover` is a granted no-op, `update` is a quorum read and then a
//! write, and `write_batch` runs its writes serially — without a wedge
//! no one poll can pin a version for a later commit.
//!
//! Copies and witnesses are one [`Node`] type; a witness holds no data.

use std::sync::{Arc, Mutex};

use dynvote_core::decision::Rule;
use dynvote_core::lexicon::Lexicon;
use dynvote_core::ops::{plan_with_witnesses, OpKind, Plan};
use dynvote_core::policy::Protocol;
use dynvote_core::state::{ReplicaState, StateTable};
use dynvote_topology::{Network, Reachability, ReachabilityCache};
use dynvote_types::{AccessError, AccessKind, SiteId, SiteSet};

use crate::bus::{Bus, FaultRule, Verdict};
use crate::checker::Checker;
use crate::message::{Message, MessageKind, Trace};
use crate::node::Node;
use crate::transport::{BusTransport, Carried, Reply, Transport, WireRequest};

/// Default bound on delivery rounds per operation phase.
const DEFAULT_MAX_ATTEMPTS: u32 = 3;

/// Operation counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Granted reads.
    pub reads_ok: u64,
    /// Refused reads.
    pub reads_refused: u64,
    /// Granted writes.
    pub writes_ok: u64,
    /// Refused writes.
    pub writes_refused: u64,
    /// Successful recoveries.
    pub recovers_ok: u64,
    /// Refused recoveries.
    pub recovers_refused: u64,
}

impl OpStats {
    /// Total granted operations.
    #[must_use]
    pub fn granted(&self) -> u64 {
        self.reads_ok + self.writes_ok + self.recovers_ok
    }

    /// Total refused operations.
    #[must_use]
    pub fn refused(&self) -> u64 {
        self.reads_refused + self.writes_refused + self.recovers_refused
    }
}

/// One committed operation, as recorded in the cluster's history log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommittedOp {
    /// What kind of operation committed.
    pub kind: AccessKind,
    /// The coordinating site.
    pub origin: SiteId,
    /// The committed operation number.
    pub op: u64,
    /// The committed version number.
    pub version: u64,
    /// The participants (the new partition set).
    pub participants: SiteSet,
}

impl CommittedOp {
    /// The entry `steps` writes later in the same batch.
    fn later(self, steps: u64) -> Self {
        CommittedOp {
            op: self.op + steps,
            version: self.version + steps,
            ..self
        }
    }
}

/// Retention floor for the history log and the invariant monitor's
/// ledgers: each always holds at least the latest `HISTORY_CAP`
/// entries and never more than twice that (operation *counting* lives
/// in [`OpStats`] and never stops).
pub(crate) const HISTORY_CAP: usize = 4096;

/// Builder for [`Cluster`].
#[derive(Clone, Debug)]
pub struct ClusterBuilder {
    network: Option<Network>,
    copies: Vec<usize>,
    witnesses: Vec<usize>,
    protocol: Protocol,
    lexicon: Lexicon,
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        ClusterBuilder::new()
    }
}

impl ClusterBuilder {
    /// A builder defaulting to ODV on a single-segment network.
    #[must_use]
    pub fn new() -> Self {
        ClusterBuilder {
            network: None,
            copies: Vec::new(),
            witnesses: Vec::new(),
            protocol: Protocol::Odv,
            lexicon: Lexicon::default(),
        }
    }

    /// Sets the network (default: one segment covering all copies).
    #[must_use]
    pub fn network(mut self, network: Network) -> Self {
        self.network = Some(network);
        self
    }

    /// Sets the copy sites (zero-based indices). Required.
    #[must_use]
    pub fn copies<I: IntoIterator<Item = usize>>(mut self, copies: I) -> Self {
        self.copies = copies.into_iter().collect();
        self
    }

    /// Adds witness sites: voting participants that store the
    /// consistency-control state but no data (the paper's §5 "witness
    /// copies" extension). Not supported with [`Protocol::Mcv`], whose
    /// static majority counts copies and whose partition set never
    /// changes, so a witness would carry nothing.
    #[must_use]
    pub fn witnesses<I: IntoIterator<Item = usize>>(mut self, witnesses: I) -> Self {
        self.witnesses = witnesses.into_iter().collect();
        self
    }

    /// Sets the consistency protocol (default ODV). The cluster reads
    /// only its [`Protocol::rule`]: at message level the optimistic axis
    /// is about *when* clients invoke operations, which is the caller's
    /// business, so ODV runs LDV's rounds and OTDV runs TDV's.
    #[must_use]
    pub fn protocol(mut self, protocol: Protocol) -> Self {
        self.protocol = protocol;
        self
    }

    /// Sets a custom tie-break ordering (default: lower index ranks
    /// higher). Every protocol that breaks ties honours it — MCV's
    /// half-with-the-top-copy vote included — and DV, which breaks
    /// none, ignores it.
    #[must_use]
    pub fn lexicon(mut self, lexicon: Lexicon) -> Self {
        self.lexicon = lexicon;
        self
    }

    /// Builds the cluster, storing `initial` at every copy.
    ///
    /// # Panics
    ///
    /// Panics when no copies were declared, or when a copy site is not
    /// part of the supplied network.
    #[must_use]
    pub fn build_with_value<T: Clone>(self, initial: T) -> Cluster<T> {
        self.build_with_transport(BusTransport::new(), initial)
    }

    /// Builds the all-in-process cluster on a caller-supplied
    /// transport. This is the observation seam for tests that need to
    /// see the transport-level event order (e.g. that the commit point
    /// fires strictly before the `COMMIT` fanout) — wrap a
    /// [`BusTransport`] in a recorder and hand it in here.
    ///
    /// # Panics
    ///
    /// Panics when no copies were declared, or when a copy site is not
    /// part of the supplied network.
    #[must_use]
    pub fn build_with_transport<T: Clone, X: Transport<T>>(
        self,
        transport: X,
        initial: T,
    ) -> Cluster<T, X> {
        self.build_hosting(None, transport, initial)
    }

    /// Builds one *node's share* of a networked deployment: a cluster
    /// that hosts only the participant at `local` and reaches every
    /// other participant through `transport` — the configuration a
    /// `dynvote-stored` daemon runs.
    ///
    /// Two deliberate differences from the all-in-process build:
    ///
    /// * the up-set stays "everyone up" forever — on a real network the
    ///   coordinator cannot observe remote liveness, only silence, so
    ///   unreachable peers surface as `Timeout` refusals instead of the
    ///   fail-stop model's omniscient down-set;
    /// * operation tickets are namespaced by the local site index (high
    ///   16 bits), so the outstanding votes of concurrent coordinators
    ///   on different daemons can never collide.
    ///
    /// # Panics
    ///
    /// Panics when the placement is invalid (see
    /// [`ClusterBuilder::build_with_value`]) or when `local` is not a
    /// declared participant.
    #[must_use]
    pub fn build_remote<T: Clone, X: Transport<T>>(
        self,
        local: usize,
        transport: X,
        initial: T,
    ) -> Cluster<T, X> {
        self.build_hosting(Some(SiteId::new(local)), transport, initial)
    }

    /// The one constructor: hosts every participant in this process
    /// (`local` = `None`), or only `local`, whose index then namespaces
    /// the operation tickets.
    fn build_hosting<T: Clone, X: Transport<T>>(
        self,
        local: Option<SiteId>,
        transport: X,
        initial: T,
    ) -> Cluster<T, X> {
        assert!(!self.copies.is_empty(), "a replicated file needs copies");
        let copies: SiteSet = SiteSet::from_indices(self.copies.iter().copied());
        let witnesses: SiteSet = SiteSet::from_indices(self.witnesses.iter().copied());
        assert!(
            copies.is_disjoint(witnesses),
            "a site cannot be both a copy and a witness"
        );
        assert!(
            witnesses.is_empty() || self.protocol != Protocol::Mcv,
            "witnesses require a dynamic-voting protocol"
        );
        let participants = copies | witnesses;
        let hosted = local.map_or(participants, SiteSet::singleton);
        assert!(
            hosted.is_subset_of(participants),
            "the local site must be a declared participant"
        );
        let network = self.network.unwrap_or_else(|| {
            let max = participants.max().expect("non-empty").index();
            Network::single_segment(max + 1)
        });
        assert!(
            participants.is_subset_of(network.sites()),
            "every copy and witness must live on a network site"
        );
        let nodes: Vec<Node<T>> = hosted
            .iter()
            .map(|site| {
                Node::new(
                    site,
                    participants,
                    copies.contains(site).then(|| initial.clone()),
                )
            })
            .collect();
        debug_assert!(
            nodes.windows(2).all(|pair| pair[0].id() < pair[1].id()),
            "nodes are in site order"
        );
        let mut reach_cache = ReachabilityCache::new(&network);
        let reach = reach_cache.get(&network, network.sites());
        Cluster {
            rule: self.protocol.rule(self.lexicon),
            protocol: self.protocol,
            up: network.sites(),
            reach,
            reach_cache: Arc::new(Mutex::new(reach_cache)),
            #[cfg(any(test, feature = "stale-read-fault"))]
            stale_read_fault: false,
            network: Arc::new(network),
            copies,
            witnesses,
            nodes,
            forced_groups: None,
            trace: Trace::default(),
            checker: Checker::new(),
            stats: OpStats::default(),
            history: Vec::new(),
            transport,
            max_attempts: DEFAULT_MAX_ATTEMPTS,
            op_ticket: local.map_or(0, |site| (site.index() as u64) << 48),
        }
    }
}

/// A replicated file: one value, `n` copies, one consistency protocol.
///
/// All operations are *coordinated from an origin site*: the origin
/// broadcasts `START`, reachable copies reply with their control state,
/// the origin runs the majority-partition decision, and — when granted —
/// sends `COMMIT` (and data) to the participants. Message routing
/// respects the current failure/partition state: messages to down or
/// unreachable sites are silently lost, exactly as the paper's fail-stop
/// model prescribes.
///
/// `Cluster` is `Clone` (when its transport is): a clone is an
/// independent replicated file that evolves separately from the
/// original — the branch operation an exhaustive explorer
/// (`dynvote-check`) performs at every state. Only the network and the
/// reachability memo are shared between clones (both are immutable or
/// a pure cache keyed by up-set, so sharing changes no observable
/// behavior and keeps branching cheap). `clone_from` branches into an
/// existing cluster's buffers, so an explorer that keeps one spare
/// cluster allocates nothing to step a child it then throws away.
///
/// The transport parameter `X` selects the network under the protocol:
/// the default [`BusTransport`] hosts every participant in-process
/// behind the nemesis fault bus, while `dynvote-store`'s `TcpTransport`
/// runs the *same* operation code against remote peers over real
/// sockets (built via [`ClusterBuilder::build_remote`]).
pub struct Cluster<T, X = BusTransport> {
    /// Fixed at build time, so a clone shares it (as it shares the
    /// memo below): the model checker clones a cluster per transition.
    network: Arc<Network>,
    protocol: Protocol,
    rule: Rule,
    copies: SiteSet,
    witnesses: SiteSet,
    /// All network sites currently up (gateways included). Written
    /// only through [`Cluster::set_up`], which keeps `reach` in step.
    up: SiteSet,
    /// The topology-derived reachability of `up`, resolved when `up`
    /// changes so that [`Cluster::group_of`] reads it without a lock.
    reach: Arc<Reachability>,
    /// The participants hosted in this process, copies and witnesses
    /// alike, in site order.
    nodes: Vec<Node<T>>,
    forced_groups: Option<Vec<SiteSet>>,
    /// Memoized topology-derived reachability, keyed by the up-set:
    /// every up-set's union-find runs once. Shared (`Arc`) so that
    /// cloning a cluster — the hot branch operation of exhaustive
    /// exploration — does not copy the dense memo table, and so every
    /// branch keeps hitting memo entries interned by its siblings.
    /// Locked only when `up` changes.
    reach_cache: Arc<Mutex<ReachabilityCache>>,
    /// Deliberate fault for checker self-tests: a granted read — or the
    /// read inside an [`Cluster::update`] — serves the origin's *local*
    /// copy (skipping the planned data source) whenever the origin
    /// holds one — the classic "trust the local replica" optimization
    /// that breaks one-copy semantics. Compiled only for tests and the
    /// `stale-read-fault` feature; defaults off.
    #[cfg(any(test, feature = "stale-read-fault"))]
    stale_read_fault: bool,
    trace: Trace,
    checker: Checker,
    stats: OpStats,
    history: Vec<CommittedOp>,
    /// The delivery surface every protocol message crosses.
    transport: X,
    /// Bound on delivery rounds per operation phase (poll retries,
    /// per-participant commit retries, copy-transfer retries).
    max_attempts: u32,
    /// Cluster-wide monotonic operation ticket; outstanding votes are
    /// keyed by it.
    op_ticket: u64,
}

impl<T: Clone, X: Clone> Clone for Cluster<T, X> {
    fn clone(&self) -> Self {
        Cluster {
            network: Arc::clone(&self.network),
            protocol: self.protocol,
            rule: self.rule.clone(),
            copies: self.copies,
            witnesses: self.witnesses,
            up: self.up,
            reach: Arc::clone(&self.reach),
            nodes: self.nodes.clone(),
            forced_groups: self.forced_groups.clone(),
            reach_cache: Arc::clone(&self.reach_cache),
            #[cfg(any(test, feature = "stale-read-fault"))]
            stale_read_fault: self.stale_read_fault,
            trace: self.trace.clone(),
            checker: self.checker.clone(),
            stats: self.stats,
            history: self.history.clone(),
            transport: self.transport.clone(),
            max_attempts: self.max_attempts,
            op_ticket: self.op_ticket,
        }
    }

    /// `source`, copied into this cluster's buffers (nodes, ledgers,
    /// violations, history, forced groups). The source is destructured
    /// field by field, so a new field does not compile until it is
    /// copied here too.
    fn clone_from(&mut self, source: &Self) {
        let Cluster {
            network,
            protocol,
            rule,
            copies,
            witnesses,
            up,
            reach,
            nodes,
            forced_groups,
            reach_cache,
            #[cfg(any(test, feature = "stale-read-fault"))]
            stale_read_fault,
            trace,
            checker,
            stats,
            history,
            transport,
            max_attempts,
            op_ticket,
        } = source;
        share(&mut self.network, network);
        self.protocol = *protocol;
        self.rule.clone_from(rule);
        self.copies = *copies;
        self.witnesses = *witnesses;
        self.up = *up;
        share(&mut self.reach, reach);
        self.nodes.clone_from(nodes);
        self.forced_groups.clone_from(forced_groups);
        share(&mut self.reach_cache, reach_cache);
        #[cfg(any(test, feature = "stale-read-fault"))]
        {
            self.stale_read_fault = *stale_read_fault;
        }
        self.trace.clone_from(trace);
        self.checker.clone_from(checker);
        self.stats = *stats;
        self.history.clone_from(history);
        self.transport.clone_from(transport);
        self.max_attempts = *max_attempts;
        self.op_ticket = *op_ticket;
    }
}

/// Points `to` where `from` points, with no refcount traffic when it
/// already does (a checker branch almost always shares its parent's).
fn share<A: ?Sized>(to: &mut Arc<A>, from: &Arc<A>) {
    if !Arc::ptr_eq(to, from) {
        *to = Arc::clone(from);
    }
}

/// The result of the START/STATE polling rounds.
struct Poll {
    /// The operation ticket the poll ran under.
    ticket: u64,
    table: StateTable,
    /// Participants whose state reply arrived (origin included when it
    /// answers itself).
    heard: SiteSet,
    /// Delivery rounds used.
    attempts: u32,
    /// Sites a `START` was handed to the transport for: whether or not
    /// a reply came back, each may hold a vote for this operation.
    polled: SiteSet,
    /// Reachable, up participants that never answered: message-loss
    /// victims or outstanding-vote abstainers — the coordinator cannot
    /// tell which.
    silent: SiteSet,
    /// `false` when a fault killed the coordinator mid-poll.
    origin_alive: bool,
    /// Whether every replier recorded an outstanding vote for `ticket`
    /// — under every rule but the static majority, which wedges nobody
    /// and so has no vote to record, probe or release.
    wedged: bool,
}

/// Where a granted operation's `COMMIT` fanout actually landed.
struct CommitOutcome {
    applied: SiteSet,
    missing: SiteSet,
}

/// A granted round between its open and its close: who coordinates it,
/// its poll (which wedged every replier on its ticket, unless the rule
/// is static), and the plan Algorithm 1 granted.
struct Round {
    kind: AccessKind,
    origin: SiteId,
    poll: Poll,
    plan: Plan,
}

/// How one `COMMIT` delivery ended.
enum Delivery {
    /// Acknowledged: the recipient installed it.
    Installed,
    /// Held back by the fault surface; it lands when the caller's delay
    /// rule says. Delay is an in-memory bus verdict, so the recipient is
    /// hosted in this process.
    Delayed,
    /// Never installed: the coordinator or the recipient died, or the
    /// retries ran out.
    Lost,
}

/// Serves one protocol request at a locally-hosted participant — the
/// node side of every exchange, shared verbatim by the in-memory
/// transport (invoked through the `serve` callback) and a network
/// daemon answering a framed request for its own site.
///
/// Returns `None` when the addressed site abstains (outstanding vote
/// for a different ticket), is asked for data it does not hold (a
/// witness), or is not hosted here at all.
fn serve_participant<T: Clone>(
    nodes: &mut [Node<T>],
    to: SiteId,
    kind: &MessageKind,
    payload: Option<&T>,
    ticket: u64,
    mark_pending: bool,
) -> Option<Reply<T>> {
    let slot = nodes.binary_search_by_key(&to, Node::id).ok()?;
    let node = &mut nodes[slot];
    match kind {
        MessageKind::StartRequest => {
            match node.pending() {
                // Outstanding vote for a different operation: the site
                // abstains. Re-polls of the *same* ticket are answered
                // (the coordinator lost the first reply).
                Some(t) if t != ticket => return None,
                _ => {}
            }
            if mark_pending {
                node.set_pending(ticket);
            }
            let state = node.state();
            Some(Reply::State {
                op: state.op,
                version: state.version,
                partition: state.partition,
            })
        }
        MessageKind::Commit {
            op,
            version,
            partition,
        } => {
            node.apply_commit(
                ReplicaState {
                    op: *op,
                    version: *version,
                    partition: *partition,
                },
                payload,
            );
            Some(Reply::Ack)
        }
        MessageKind::CopyRequest => node.fetch().map(|value| Reply::Copy {
            version: node.state().version,
            value,
        }),
        MessageKind::StateReply { .. } | MessageKind::CopyReply => None,
    }
}

impl<T: Clone, X: Transport<T>> Cluster<T, X> {
    /// Where `site`'s node sits in `nodes`, which is in site order.
    fn slot(&self, site: SiteId) -> Option<usize> {
        self.nodes.binary_search_by_key(&site, Node::id).ok()
    }

    fn node(&self, site: SiteId) -> &Node<T> {
        let slot = self.slot(site).expect("site is a participant hosted here");
        &self.nodes[slot]
    }

    fn node_mut(&mut self, site: SiteId) -> &mut Node<T> {
        let slot = self.slot(site).expect("site is a participant hosted here");
        &mut self.nodes[slot]
    }

    /// The copy sites (full data replicas).
    #[must_use]
    pub fn copies(&self) -> SiteSet {
        self.copies
    }

    /// The witness sites (state-only voting participants).
    #[must_use]
    pub fn witnesses(&self) -> SiteSet {
        self.witnesses
    }

    /// All voting participants: copies plus witnesses.
    #[must_use]
    pub fn participants(&self) -> SiteSet {
        self.copies | self.witnesses
    }

    /// The protocol in use.
    #[must_use]
    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    /// The voting rule every operation is decided by — for MCV the
    /// static majority ([`Rule::static_majority`]). External invariant
    /// checkers use this to re-evaluate grant decisions from pure state
    /// (see [`dynvote_core::ProtocolSnapshot`]).
    #[must_use]
    pub fn rule(&self) -> &Rule {
        &self.rule
    }

    /// The network topology.
    #[must_use]
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Sites currently up.
    #[must_use]
    pub fn up_sites(&self) -> SiteSet {
        self.up
    }

    /// The invariant monitor.
    #[must_use]
    pub fn checker(&self) -> &Checker {
        &self.checker
    }

    /// The message trace.
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Resets the message trace's counters.
    pub fn clear_trace(&mut self) {
        self.trace.clear();
    }

    /// Operation counters.
    #[must_use]
    pub fn stats(&self) -> OpStats {
        self.stats
    }

    /// The committed-operation history (most recent last): one entry
    /// per granted read, write (a batch of K leaves K) and recovery —
    /// MCV's recovery runs no round and leaves none. Old entries are
    /// dropped past an internal retention limit; the latest one is
    /// always there.
    #[must_use]
    pub fn history(&self) -> &[CommittedOp] {
        &self.history
    }

    fn record_op(&mut self, entry: CommittedOp) {
        if self.history.len() == 2 * HISTORY_CAP {
            self.history.drain(..HISTORY_CAP);
        }
        self.history.push(entry);
    }

    /// The value stored at one copy (test/observability access — not a
    /// protocol read).
    #[must_use]
    pub fn value_at(&self, site: SiteId) -> T {
        self.node(site).fetch().expect("site holds a copy")
    }

    /// The control state at one participant (copy or witness).
    #[must_use]
    pub fn state_at(&self, site: SiteId) -> ReplicaState {
        self.node(site).state()
    }

    // ---- fault surface -----------------------------------------------------

    /// Fails a site (copy, witness, or gateway). Idempotent. Sites
    /// hosted elsewhere (a [`ClusterBuilder::build_remote`] deployment)
    /// only leave the up-set — their node state is their own daemon's.
    pub fn fail_site(&mut self, site: SiteId) {
        self.set_up(self.up.without(site));
        if let Some(slot) = self.slot(site) {
            self.nodes[slot].fail();
        }
    }

    /// Repairs a site. For copies this restores *liveness only*; rejoin
    /// the majority partition with [`Cluster::recover`].
    pub fn repair_site(&mut self, site: SiteId) {
        self.set_up(self.up.with(site));
        if let Some(slot) = self.slot(site) {
            self.nodes[slot].repair();
        }
    }

    /// Makes `up` the up-set and resolves its reachability from the
    /// shared memo.
    fn set_up(&mut self, up: SiteSet) {
        if up == self.up {
            return;
        }
        self.up = up;
        self.reach = self
            .reach_cache
            .lock()
            .expect("reachability memo poisoned")
            .get(&self.network, up);
    }

    /// Forces an explicit partition (groups of mutually-communicating
    /// sites), overriding the topology-derived reachability. Groups must
    /// be pairwise disjoint. Down sites are excluded automatically.
    ///
    /// Note: with the topological protocols, forced partitions must not
    /// split a segment — segments are non-partitionable by definition,
    /// and the vote-claiming rule is only sound under that assumption.
    pub fn force_partition(&mut self, groups: Vec<SiteSet>) {
        let mut seen = SiteSet::EMPTY;
        for g in &groups {
            assert!(seen.is_disjoint(*g), "groups must be pairwise disjoint");
            seen |= *g;
        }
        self.forced_groups = Some(groups);
    }

    /// Removes a forced partition; reachability follows the topology
    /// again.
    pub fn heal_partition(&mut self) {
        self.forced_groups = None;
    }

    /// The group of up sites currently communicating with `origin`.
    #[must_use]
    pub fn group_of(&self, origin: SiteId) -> Option<SiteSet> {
        if !self.up.contains(origin) {
            return None;
        }
        match &self.forced_groups {
            Some(groups) => groups
                .iter()
                .map(|g| *g & self.up)
                .find(|g| g.contains(origin)),
            None => self.reach.group_of(origin),
        }
    }

    // ---- transport surface -------------------------------------------------

    /// The transport carrying this cluster's protocol messages.
    #[must_use]
    pub fn transport(&self) -> &X {
        &self.transport
    }

    /// Mutable access to the transport (admin surface: fault rules for
    /// the in-memory bus, link rules and peer stats for a networked
    /// transport).
    pub fn transport_mut(&mut self) -> &mut X {
        &mut self.transport
    }

    /// Arms (or disarms) the deliberate stale-read fault: a granted
    /// read at a copy-holding origin, and an update's read of the
    /// value it builds on, serve the origin's **local** data whether or
    /// not the plan calls that copy current — the classic "trust the
    /// local replica" bug. Exists so the model checker's own tests can
    /// prove the invariant suite catches a real one-copy violation;
    /// compiled only for tests and under the `stale-read-fault`
    /// feature, and off by default even then.
    #[cfg(any(test, feature = "stale-read-fault"))]
    pub fn set_stale_read_fault(&mut self, armed: bool) {
        self.stale_read_fault = armed;
    }

    /// Bounds how many delivery rounds each operation phase may use
    /// before giving up (minimum 1; default 3).
    pub fn set_max_attempts(&mut self, attempts: u32) {
        self.max_attempts = attempts.max(1);
    }

    /// The per-phase delivery-round bound.
    #[must_use]
    pub fn max_attempts(&self) -> u32 {
        self.max_attempts
    }

    /// Participants currently holding an outstanding vote: they
    /// answered a `START` for an operation whose outcome they have not
    /// seen, and abstain from every other operation until it resolves.
    #[must_use]
    pub fn pending_sites(&self) -> SiteSet {
        self.nodes
            .iter()
            .filter(|node| node.pending().is_some())
            .map(Node::id)
            .collect()
    }

    /// The outstanding-vote ticket held at one participant, if any —
    /// the durable layer persists this alongside ⟨o, v, P⟩, because a
    /// site that forgot its vote across a crash could vote again in a
    /// conflicting operation.
    #[must_use]
    pub fn pending_at(&self, site: SiteId) -> Option<u64> {
        self.node(site).pending()
    }

    /// Installs a restored durable image at a participant hosted in
    /// this process — the boot path of a persistent daemon: the node
    /// comes up holding exactly the ⟨o, v, P⟩, data, and outstanding
    /// vote it had fsync'd before the crash. `value` is ignored for
    /// witnesses (they hold no data); `None` at a copy keeps the
    /// builder's seed value.
    ///
    /// # Panics
    ///
    /// Panics when `site` is not hosted in this process.
    pub fn install_durable_state(
        &mut self,
        site: SiteId,
        state: ReplicaState,
        value: Option<T>,
        pending: Option<u64>,
    ) {
        let node = self.node_mut(site);
        node.apply_commit(state, None);
        if let Some(value) = value {
            node.store(value);
        }
        if let Some(ticket) = pending {
            node.set_pending(ticket);
        }
    }

    /// The last vote ticket this cluster's coordinator side issued
    /// (`0` before the first operation). Together with
    /// [`Cluster::advance_ticket_past`], this lets a restart path keep
    /// ticket issuance monotone across process incarnations.
    #[must_use]
    pub fn last_ticket(&self) -> u64 {
        self.op_ticket
    }

    /// Raises the ticket counter so every future ticket exceeds
    /// `floor`. A restarted daemon calls this with its boot-epoch salt:
    /// reissuing a pre-crash ticket number would look *current* to a
    /// site the previous incarnation left wedged under that ticket,
    /// silently lifting the wedge that prevents lineage forks.
    pub fn advance_ticket_past(&mut self, floor: u64) {
        self.op_ticket = self.op_ticket.max(floor);
    }

    /// Applies the abort oracle to the participants hosted in *this*
    /// process: releases every outstanding vote for `ticket` except at
    /// the sites in `keep`. A network daemon calls this when a release
    /// frame arrives for its local site; coordinators use
    /// `Cluster::release_pending`, which also forwards the release
    /// through the transport.
    pub fn local_release(&mut self, ticket: u64, keep: SiteSet) {
        for node in &mut self.nodes {
            if node.pending() == Some(ticket) && !keep.contains(node.id()) {
                node.clear_pending();
            }
        }
    }

    /// Releases every outstanding vote for `ticket` except at the
    /// sites in `keep` — the abort oracle: a replier whose vote is
    /// *provably* non-binding (the operation was refused or aborted,
    /// or its reply was never counted and it did not become a
    /// participant) times out and frees itself. Participants whose
    /// `COMMIT` may still be outstanding are in `keep` and stay
    /// wedged. Locally-hosted participants release synchronously; the
    /// transport forwards the release best-effort to the remote sites
    /// that can still hold such a vote: `unresolved` — the sites the
    /// operation polled, less those that acknowledged its `COMMIT` —
    /// less `keep`.
    fn release_pending(&mut self, ticket: u64, keep: SiteSet, unresolved: SiteSet) {
        self.local_release(ticket, keep);
        self.transport.release(ticket, keep, unresolved - keep);
    }

    /// Ends a round before its commit point: every vote `poll`
    /// collected is released (a poll that wedged nobody has none).
    fn abandon(&mut self, poll: &Poll) {
        if poll.wedged {
            self.release_pending(poll.ticket, SiteSet::EMPTY, poll.polled);
        }
    }

    fn next_ticket(&mut self) -> u64 {
        self.op_ticket += 1;
        self.op_ticket
    }

    // ---- the protocol rounds -----------------------------------------------

    /// Serves one incoming protocol request at a participant hosted in
    /// this process — the entry point a network daemon routes framed
    /// peer requests through, so remote delivery runs exactly the code
    /// the in-memory transport's callback runs. Records nothing on the
    /// trace (the trace belongs to the *coordinator's* side of an
    /// exchange).
    pub fn serve_at(
        &mut self,
        to: SiteId,
        kind: &MessageKind,
        payload: Option<&T>,
        ticket: u64,
        mark_pending: bool,
    ) -> Option<Reply<T>> {
        serve_participant(&mut self.nodes, to, kind, payload, ticket, mark_pending)
    }

    /// Runs one request/reply exchange through the transport: records
    /// the request (and a duplicate's second wire copy) on the trace,
    /// lets the transport deliver it — serving locally-hosted
    /// recipients via [`serve_participant`] — then records the reply's
    /// wire copy and applies every crash side effect the fault surface
    /// reported. Only called for recipients that are up and reachable —
    /// losses from the failure model itself never reach the transport.
    fn exchange(
        &mut self,
        message: Message,
        payload: Option<&T>,
        ticket: u64,
        mark_pending: bool,
        polled_version: Option<u64>,
    ) -> Carried<T> {
        self.trace.record(&message);
        let Cluster {
            transport, nodes, ..
        } = self;
        let mut serve = |msg: &Message, payload: Option<&T>| {
            serve_participant(nodes, msg.to, &msg.kind, payload, ticket, mark_pending)
        };
        let carried = transport.carry(
            WireRequest {
                message: &message,
                payload,
                ticket,
                mark_pending,
                polled_version,
            },
            &mut serve,
        );
        match carried.request {
            // Two wire copies, processed once: handlers are keyed by
            // the operation ticket, so the second is ignored.
            Verdict::Duplicate => self.trace.record(&message),
            // The recipient dies *before* processing: the message was
            // sent (it is on the trace) but never took effect.
            Verdict::CrashRecipient => self.fail_site(message.to),
            // Delivered (for a commit) or moot (for a poll) — either
            // way the sender is now dead.
            Verdict::CrashSender => self.fail_site(message.from),
            Verdict::Deliver | Verdict::Drop | Verdict::Delay => {}
        }
        if let Some(response) = &carried.response {
            if let Some(wire) = &response.wire {
                self.trace.record(wire);
                match response.verdict {
                    Verdict::Duplicate => self.trace.record(wire),
                    Verdict::CrashRecipient => self.fail_site(wire.to),
                    Verdict::CrashSender => self.fail_site(wire.from),
                    Verdict::Deliver | Verdict::Drop | Verdict::Delay => {}
                }
            }
        }
        carried
    }

    /// START/STATE polling with bounded retry: broadcast, collect the
    /// replies that actually arrive, re-poll the silent, give up after
    /// [`Cluster::max_attempts`] rounds. `mark_pending` (dynamic
    /// protocols) makes every replier record an outstanding vote for
    /// `ticket`; a site already holding an outstanding vote for a
    /// *different* ticket abstains — to the coordinator it is
    /// indistinguishable from a down site.
    fn poll_phase(
        &mut self,
        origin: SiteId,
        group: SiteSet,
        ticket: u64,
        mark_pending: bool,
    ) -> Poll {
        let participants = self.participants();
        let mut table = StateTable::fresh(participants);
        let mut heard = SiteSet::EMPTY;
        let mut polled = SiteSet::EMPTY;
        if participants.contains(origin) {
            let node = self.node(origin);
            match node.pending() {
                // The origin holds an outstanding vote for another
                // operation: it abstains even from itself, exactly as
                // it would ignore a remote START.
                Some(t) if t != ticket => {}
                _ => {
                    table.set(origin, node.state());
                    heard.insert(origin);
                }
            }
        }
        let mut attempts = 0;
        loop {
            let targets = ((group & participants & self.up) - heard).without(origin);
            if attempts >= self.max_attempts || (attempts > 0 && targets.is_empty()) {
                break;
            }
            // Round one: "a message is broadcast to all sites" — one
            // START per participant, lost outright when the site is
            // down or unreachable. Retries re-poll only the silent
            // reachable sites.
            let broadcast = if attempts == 0 {
                participants.without(origin)
            } else {
                targets
            };
            attempts += 1;
            for site in broadcast.iter() {
                if !self.up.contains(origin) {
                    break;
                }
                let start = Message {
                    from: origin,
                    to: site,
                    kind: MessageKind::StartRequest,
                };
                if !targets.contains(site) {
                    // Down or unreachable: lost by the failure model,
                    // not the transport — but it was sent, so it is
                    // traced.
                    self.trace.record(&start);
                    continue;
                }
                polled.insert(site);
                let carried = self.exchange(start, None, ticket, mark_pending, None);
                if !self.up.contains(origin) {
                    break; // a crash fault killed the origin mid-poll
                }
                // Silence covers a lost request, a lost reply's
                // sibling (none), an abstaining wedged site, and (on a
                // real network) an unreachable peer — all one case to
                // the coordinator.
                let Some(response) = carried.response else {
                    continue;
                };
                if response.arrived() {
                    if let Reply::State {
                        op,
                        version,
                        partition,
                    } = response.body
                    {
                        heard.insert(site);
                        table.set(
                            site,
                            ReplicaState {
                                op,
                                version,
                                partition,
                            },
                        );
                    }
                }
            }
            if !self.up.contains(origin) {
                break;
            }
        }
        let silent = ((group & participants & self.up) - heard).without(origin);
        Poll {
            ticket,
            table,
            heard,
            attempts,
            polled,
            silent,
            origin_alive: self.up.contains(origin),
            wedged: mark_pending,
        }
    }

    /// Delivers one `COMMIT` of `state` (with `value` riding it) from
    /// `origin` to `site`, retrying losses up to
    /// [`Cluster::max_attempts`] times — the only place a `COMMIT` is
    /// handed to the transport. `polled_version` is what the recipient
    /// voted with (see [`WireRequest::polled_version`]). What a delayed
    /// commit does is the caller's rule.
    fn deliver_commit(
        &mut self,
        origin: SiteId,
        site: SiteId,
        state: ReplicaState,
        value: Option<&T>,
        polled_version: Option<u64>,
    ) -> Delivery {
        if !self.up.contains(origin) {
            // The coordinator died mid-fanout: the rest of it was never
            // sent.
            return Delivery::Lost;
        }
        for _ in 0..self.max_attempts {
            let commit = Message {
                from: origin,
                to: site,
                kind: MessageKind::Commit {
                    op: state.op,
                    version: state.version,
                    partition: state.partition,
                },
            };
            if !self.up.contains(site) {
                // The participant died after voting: the commit goes
                // into the void (traced, not transport-faulted).
                self.trace.record(&commit);
                return Delivery::Lost;
            }
            let carried = self.exchange(commit, value, 0, false, polled_version);
            if carried.response.is_some() {
                return Delivery::Installed;
            }
            if matches!(carried.request, Verdict::Delay) {
                return Delivery::Delayed;
            }
            // Lost: retry.
        }
        Delivery::Lost
    }

    /// The commit point, then the `COMMIT` fanout of `state` to the
    /// plan's participants. The coordinator installs its own commit
    /// first, then delivers one `COMMIT` per other participant, each
    /// naming the version its recipient voted with in `round`'s poll.
    /// Delayed commits arrive after every on-time one (reordering); a
    /// participant that dies, or whose retries run out, ends up in
    /// `missing` — and, having voted, stays wedged on its outstanding
    /// vote. A poll that wedged nobody has no commit point and names no
    /// version: nothing holds its repliers at the one they reported.
    fn commit_phase(
        &mut self,
        round: &Round,
        state: ReplicaState,
        value: Option<&T>,
    ) -> CommitOutcome {
        let Round {
            origin,
            ref poll,
            ref plan,
            ..
        } = *round;
        // The commit point: a durable transport records ⟨ticket, o, v,
        // P, value⟩ (fsync'd) before the commit has *any* effect —
        // the coordinator's own apply included. A crashed coordinator's
        // successor answers vote probes from that record; without it, a
        // ticket whose commit landed only locally would look
        // releasable, and releasing a committed participant's vote can
        // fork the partition lineage.
        if poll.wedged {
            self.transport.commit_point(poll.ticket, state, value);
        }
        let mut applied = SiteSet::EMPTY;
        let mut missing = SiteSet::EMPTY;
        let mut late = Vec::new();
        if plan.participants.contains(origin) {
            self.node_mut(origin).apply_commit(state, value);
            applied.insert(origin);
        }
        for site in plan.participants.without(origin).iter() {
            let polled_version = poll.wedged.then(|| poll.table.get(site).version);
            match self.deliver_commit(origin, site, state, value, polled_version) {
                Delivery::Installed => {
                    applied.insert(site);
                }
                Delivery::Delayed => late.push(site),
                Delivery::Lost => {
                    missing.insert(site);
                }
            }
        }
        // Delayed commits land after the on-time ones — reordered but
        // still within the operation's horizon.
        for site in late {
            self.node_mut(site).apply_commit(state, value);
            applied.insert(site);
        }
        CommitOutcome { applied, missing }
    }

    /// Moves the file from `source` to `requester` through the
    /// transport: one request/reply pair per attempt. Returns the
    /// value together with the version number it carries at the source
    /// — what a real copy reply ships, and what the invariant checker
    /// grades a read against. Fails as `kind`'s
    /// [`AccessError::Timeout`] when the retry budget runs out (lost
    /// messages, or the source died) and as
    /// [`AccessError::OriginUnavailable`] when the requester itself
    /// died during the transfer.
    fn transfer_copy(
        &mut self,
        kind: AccessKind,
        requester: SiteId,
        source: SiteId,
    ) -> Result<(T, u64), AccessError> {
        if requester == source {
            let node = self.node(source);
            let value = node.fetch().expect("the source holds a copy");
            return Ok((value, node.state().version));
        }
        let requester_down = AccessError::OriginUnavailable { origin: requester };
        for _ in 0..self.max_attempts {
            if !self.up.contains(requester) {
                return Err(requester_down);
            }
            if !self.up.contains(source) {
                break;
            }
            let request = Message {
                from: requester,
                to: source,
                kind: MessageKind::CopyRequest,
            };
            let carried = self.exchange(request, None, 0, false, None);
            if !self.up.contains(requester) {
                return Err(requester_down);
            }
            if let Some(response) = carried.response {
                if response.arrived() {
                    if let Reply::Copy { version, value } = response.body {
                        return Ok((value, version));
                    }
                }
            }
        }
        Err(AccessError::Timeout {
            kind,
            origin: requester,
            attempts: self.max_attempts,
        })
    }

    /// The current value behind a granted read or write plan, with the
    /// version it carries: the origin's own copy when the origin is one
    /// of the plan's current copies — no message moves — and a copy
    /// transfer from the planner's source otherwise. Either way it
    /// happens inside the operation's vote.
    fn fetch_current(
        &mut self,
        kind: AccessKind,
        origin: SiteId,
        p: &Plan,
    ) -> Result<(T, u64), AccessError> {
        #[allow(unused_mut)]
        let mut trust_local = p.participants.contains(origin);
        #[cfg(any(test, feature = "stale-read-fault"))]
        {
            // The injected bug: trust the local replica whether or not
            // the plan calls it current. Correct when the origin is
            // current, silently stale when it is not.
            trust_local |= self.stale_read_fault;
        }
        let local = trust_local && self.copies.contains(origin);
        self.transfer_copy(kind, origin, if local { origin } else { p.data_source })
    }

    /// The open of every round from `origin`, whose group is `group`: a
    /// fresh ticket, the `START` poll — which wedges every replier on
    /// it unless the rule is a static majority — the origin still
    /// alive, `vet` (RECOVER's blank-slate rule; reads and writes vet
    /// nothing), and Algorithm 1's plan for `kind`. A refusal at any
    /// step releases every vote the poll collected; a refused plan is
    /// named by [`Cluster::timeout_or`].
    fn open_round(
        &mut self,
        kind: OpKind,
        origin: SiteId,
        group: SiteSet,
        vet: impl FnOnce(&Self, &mut Poll) -> Result<(), AccessError>,
    ) -> Result<Round, AccessError> {
        let ticket = self.next_ticket();
        let mut poll = self.poll_phase(origin, group, ticket, !self.rule.static_majority);
        let planned = if poll.origin_alive {
            vet(self, &mut poll).and_then(|()| {
                plan_with_witnesses(
                    kind,
                    poll.heard,
                    self.copies,
                    self.witnesses,
                    &poll.table,
                    &self.rule,
                    Some(&self.network),
                )
                .map_err(|refusal| self.timeout_or(refusal, kind.access_kind(), origin, &poll))
            })
        } else {
            Err(AccessError::OriginUnavailable { origin })
        };
        match planned {
            Ok(plan) => Ok(Round {
                kind: kind.access_kind(),
                origin,
                poll,
                plan,
            }),
            Err(refusal) => {
                self.abandon(&poll);
                Err(refusal)
            }
        }
    }

    /// The close of every round, for `count` consecutive operations
    /// granted by its one plan: the commit of ⟨o + count − 1,
    /// v + count − 1, P⟩ (with `value` riding it), a lineage note per
    /// operation, the release of every vote the outcome does not bind,
    /// and then either `Indeterminate` — the commit did not close
    /// everywhere, so the caller must not claim success — or one history
    /// entry per operation, naming the version a read `served`. Returns
    /// the first operation's entry. A round that wedged nobody moved no
    /// lineage and holds no vote: it notes and releases nothing, and its
    /// entries say op 0 and the copies that answered.
    fn close_round(
        &mut self,
        round: &Round,
        count: u64,
        value: Option<&T>,
        served: Option<u64>,
    ) -> Result<CommittedOp, AccessError> {
        let Round {
            kind,
            origin,
            poll,
            plan: p,
        } = round;
        let steps = count - 1;
        let state = ReplicaState {
            op: p.new_op + steps,
            version: p.new_version + steps,
            partition: p.new_partition,
        };
        let outcome = self.commit_phase(round, state, value);
        if poll.wedged {
            if !outcome.applied.is_empty() {
                for i in 0..count {
                    self.checker.note_commit(p.new_op + i, p.participants);
                }
            }
            self.release_pending(poll.ticket, outcome.missing, poll.polled - outcome.applied);
        }
        if !outcome.missing.is_empty() {
            return Err(AccessError::Indeterminate {
                kind: *kind,
                origin: *origin,
                applied: outcome.applied,
                missing: outcome.missing,
            });
        }
        let (op, participants) = if poll.wedged {
            (p.new_op, p.participants)
        } else {
            (0, p.decision.reachable)
        };
        let first = CommittedOp {
            kind: *kind,
            origin: *origin,
            op,
            version: served.unwrap_or(p.new_version),
            participants,
        };
        for i in 0..count {
            self.record_op(first.later(i));
        }
        Ok(first)
    }

    /// Maps a quorum refusal to [`AccessError::Timeout`] when
    /// reachable participants stayed silent: lost messages and
    /// outstanding-vote abstentions look identical from the
    /// coordinator's side, so it cannot honestly blame a partition.
    fn timeout_or(
        &self,
        refusal: AccessError,
        kind: AccessKind,
        origin: SiteId,
        poll: &Poll,
    ) -> AccessError {
        if poll.silent.is_empty() {
            refusal
        } else {
            AccessError::Timeout {
                kind,
                origin,
                attempts: poll.attempts,
            }
        }
    }

    fn origin_group(&self, origin: SiteId) -> Result<SiteSet, AccessError> {
        self.group_of(origin)
            .ok_or(AccessError::OriginUnavailable { origin })
    }

    /// The replies a real poll in `group` would collect right now —
    /// sites wedged on an outstanding vote abstain — as the answering
    /// set and its state table.
    fn answering(&self, group: SiteSet) -> (SiteSet, StateTable) {
        let answering = group - self.pending_sites();
        let participants = self.participants();
        let mut table = StateTable::fresh(participants);
        for site in (answering & participants).iter() {
            table.set(site, self.node(site).state());
        }
        (answering, table)
    }

    /// Non-mutating probe: would a read at `origin` be granted right
    /// now? Exchanges no messages and commits nothing — the same
    /// question the availability simulator's
    /// [`dynvote_core::policy::AvailabilityPolicy::is_available`] asks,
    /// answered by the message-level state (the equivalence of the two
    /// is an integration test).
    #[must_use]
    pub fn probe(&self, origin: SiteId) -> bool {
        let Some(group) = self.group_of(origin) else {
            return false;
        };
        let (answering, table) = self.answering(group);
        plan_with_witnesses(
            OpKind::Read,
            answering,
            self.copies,
            self.witnesses,
            &table,
            &self.rule,
            Some(&self.network),
        )
        .is_ok()
    }

    /// Whether *any* up site could currently get a read granted — the
    /// cluster-level availability signal ("a single user that can
    /// access any of the sites").
    #[must_use]
    pub fn is_available(&self) -> bool {
        self.up.iter().any(|origin| self.probe(origin))
    }

    /// Algorithm 1's full decision trace for a (non-mutating) read
    /// probe at `origin`, rendered for humans — under MCV with `P_m` =
    /// all copies. Returns `None` when the origin is down.
    #[must_use]
    pub fn explain(&self, origin: SiteId) -> Option<String> {
        let group = self.group_of(origin)?;
        let (answering, table) = self.answering(group);
        let decision = dynvote_core::decision::decide(
            answering,
            self.participants(),
            &table,
            &self.rule,
            Some(&self.network),
        );
        Some(dynvote_core::decision::explain(&decision))
    }

    /// READ (Figure 1 / Figure 5): returns the current value.
    ///
    /// # Errors
    ///
    /// Returns the ABORT reason when the origin's group is not the
    /// majority partition (for MCV, holds no static majority).
    pub fn read(&mut self, origin: SiteId) -> Result<T, AccessError> {
        // An origin with no group (down, or outside every forced group)
        // is refused before the read counts as attempted.
        let group = self.origin_group(origin)?;
        let result = self
            .open_round(OpKind::Read, origin, group, |_, _| Ok(()))
            .and_then(|round| {
                // The version actually being served — for a correct
                // cluster this equals the planned `new_version` (the
                // source is a current copy), but the checker must grade
                // what was *served*, not what was planned, or a bug in
                // source selection would grade itself. It rides the copy
                // reply: on a real network the coordinator has no other
                // way to know what the source shipped, and under MCV no
                // wedge keeps the source at the version it reported.
                let (value, served) = self
                    .fetch_current(AccessKind::Read, origin, &round.plan)
                    .inspect_err(|_| self.abandon(&round.poll))?;
                // An absorption commit that did not close everywhere
                // discards the value: serving it would claim a success
                // the cluster cannot stand behind.
                self.close_round(&round, 1, None, Some(served))?;
                self.checker.note_read(served);
                Ok(value)
            });
        match &result {
            Ok(_) => self.stats.reads_ok += 1,
            Err(_) => self.stats.reads_refused += 1,
        }
        result
    }

    /// WRITE (Figure 2 / Figure 6): replaces the value.
    ///
    /// # Errors
    ///
    /// Returns the ABORT reason when the origin's group is not the
    /// majority partition (for MCV, holds no static majority).
    pub fn write(&mut self, origin: SiteId, value: T) -> Result<(), AccessError> {
        self.write_value(origin, 1, value).map(|_| ())
    }

    /// WRITE, batched: commits `values` as `values.len()` consecutive
    /// write operations decided by ONE poll and closed by ONE commit
    /// exchange. The quorum question is identical for every write in
    /// the batch — the group either holds a strict majority of P_m or
    /// it does not — so one ruling covers all of them, and the single
    /// COMMIT installs ⟨o + K, v + K, P⟩ with the *last* value: exactly
    /// the state K serial writes would leave (each overwriting its
    /// predecessor), with the same per-write history entries and
    /// checker lineage notes.
    ///
    /// All-or-nothing by construction: one decision grants or refuses
    /// the whole batch, so a client never sees write i+1 acknowledged
    /// while write i failed. A partial commit surfaces as
    /// [`AccessError::Indeterminate`] for every write — the honest
    /// answer, since the one fanout carried them all.
    ///
    /// Under MCV the batch is K serial writes: its repliers are not
    /// wedged, so nothing holds the version one poll saw until the K-th
    /// commit.
    ///
    /// Returns one result per value, in order; `Ok` carries the
    /// committed ⟨o, v, P⟩ entry for that write.
    pub fn write_batch(
        &mut self,
        origin: SiteId,
        mut values: Vec<T>,
    ) -> Vec<Result<CommittedOp, AccessError>> {
        if self.rule.static_majority {
            return values
                .into_iter()
                .map(|value| self.write_value(origin, 1, value))
                .collect();
        }
        let count = values.len() as u64;
        let Some(last) = values.pop() else {
            return Vec::new();
        };
        // Only the final value rides the COMMIT — the intermediate
        // ones are overwritten before any reader could be served,
        // exactly as under K serial writes back to back.
        let first = self.write_value(origin, count, last);
        (0..count)
            .map(|i| first.clone().map(|first| first.later(i)))
            .collect()
    }

    /// READ-MODIFY-WRITE decided by ONE poll: `build` is handed the
    /// current value and returns the value to write in its place, or
    /// `None` to write nothing (every vote is released and the result
    /// is `Ok(None)`).
    ///
    /// The read needs no round of its own. Every replier to the write's
    /// poll is wedged on its ticket until the COMMIT or a release
    /// reaches it, so nothing can move the maximal version between the
    /// poll and the commit: the value a current copy holds *inside the
    /// vote* — the origin's own when it is current, one copy transfer
    /// away when it is not — is the value the write replaces. `build`
    /// is also told the version that value carries, which is the
    /// version every participant voted with; a caller may describe its
    /// write as a change against it (see
    /// [`WireRequest::polled_version`]).
    ///
    /// Under MCV repliers are not wedged, so nothing pins a version
    /// between a poll and a commit: the update is a quorum read
    /// followed by a write, and `build` is told no version.
    ///
    /// # Errors
    ///
    /// A write's refusals (see [`Cluster::write`]), plus its `Timeout`
    /// when a stale origin cannot fetch the current copy.
    pub fn update(
        &mut self,
        origin: SiteId,
        build: impl FnOnce(&T, Option<u64>) -> Option<T>,
    ) -> Result<Option<CommittedOp>, AccessError> {
        if self.rule.static_majority {
            let current = self.read(origin)?;
            return build(&current, None)
                .map(|next| self.write_value(origin, 1, next))
                .transpose();
        }
        self.write_round(origin, 1, |this, p| {
            let (current, served_version) = this.fetch_current(AccessKind::Write, origin, p)?;
            let next = build(&current, Some(served_version));
            if next.is_some() {
                // Graded as the read it is, and before the write it
                // feeds is noted: a value built on a stale copy must
                // not pass for current.
                this.checker.note_read(served_version);
            }
            Ok(next)
        })
    }

    /// One write round committing `value` as `count` consecutive writes;
    /// returns the first write's entry.
    fn write_value(
        &mut self,
        origin: SiteId,
        count: u64,
        value: T,
    ) -> Result<CommittedOp, AccessError> {
        self.write_round(origin, count, |_, _| Ok(Some(value)))
            .map(|entry| entry.expect("a write that names its value always commits one"))
    }

    /// One write round for `count` consecutive writes: the open,
    /// `value` (handed the granted plan, with every replier wedged
    /// unless the rule is static), the close at ⟨o + count, v + count,
    /// P⟩. Returns the first write's entry — the i-th is `i` operations
    /// and versions later — or `Ok(None)`, all votes released, when
    /// `value` declines.
    fn write_round(
        &mut self,
        origin: SiteId,
        count: u64,
        value: impl FnOnce(&mut Self, &Plan) -> Result<Option<T>, AccessError>,
    ) -> Result<Option<CommittedOp>, AccessError> {
        let result = self
            .origin_group(origin)
            .and_then(|group| self.open_round(OpKind::Write, origin, group, |_, _| Ok(())))
            .and_then(|round| {
                let value = match value(self, &round.plan) {
                    Ok(Some(value)) => value,
                    declined_or_failed => {
                        self.abandon(&round.poll);
                        return declined_or_failed.map(|_| None);
                    }
                };
                // The value rides the COMMIT: a copy that never receives
                // the commit keeps its old data — that is the
                // partial-commit divergence this layer exists to
                // exercise.
                let first = self.close_round(&round, count, Some(&value), None)?;
                for i in 0..count {
                    self.checker.note_write(first.version + i);
                }
                Ok(Some(first))
            });
        match &result {
            Ok(Some(_)) => self.stats.writes_ok += count,
            Ok(None) => {}
            Err(_) => self.stats.writes_refused += count,
        }
        result
    }

    /// RECOVER (Figure 3 / Figure 7): reintegrates the (repaired)
    /// `site`, copying the file first when its copy is stale. One
    /// attempt; the paper's "repeat until successful" loop is the
    /// caller's retry policy.
    ///
    /// # Errors
    ///
    /// Returns the ABORT reason when the site's group is not the
    /// majority partition, and [`AccessError::OriginUnavailable`] when
    /// the site is down. Under MCV it always succeeds and sends nothing,
    /// even at a down site: MCV has no recovery step — a repaired copy
    /// is simply consulted again, and its partition set never changed.
    pub fn recover(&mut self, site: SiteId) -> Result<(), AccessError> {
        let result = if self.rule.static_majority {
            Ok(())
        } else {
            self.origin_group(site)
                .and_then(|group| {
                    self.open_round(OpKind::Recover(site), site, group, |this, poll| {
                        this.blank_slate(site, poll)
                    })
                })
                .and_then(|round| {
                    if round.plan.copy_needed {
                        let (value, _version) = self
                            .transfer_copy(AccessKind::Recover, site, round.plan.data_source)
                            .inspect_err(|_| self.abandon(&round.poll))?;
                        self.node_mut(site).store(value);
                    }
                    // A granted RECOVER absorbs the site into the
                    // current lineage: installing the commit locally
                    // (the origin is always a participant of its own
                    // recovery) also releases any older outstanding vote
                    // it was wedged on.
                    self.close_round(&round, 1, None, None).map(|_| ())
                })
        };
        match &result {
            Ok(()) => self.stats.recovers_ok += 1,
            Err(_) => self.stats.recovers_refused += 1,
        }
        result
    }

    /// RECOVER's blank-slate rule, applied to its poll before the plan.
    /// A recovering site with an outstanding vote (it abstained from its
    /// own poll) cannot trust its own stored state: its vote may have
    /// elected a partition it never saw committed. It needs at least
    /// one real reply, and joins the plan as a blank slate — op 0 never
    /// enters the quorum computation, version 0 forces a data copy.
    fn blank_slate(&self, site: SiteId, poll: &mut Poll) -> Result<(), AccessError> {
        if self.node(site).pending().is_none_or(|t| t == poll.ticket) {
            return Ok(());
        }
        if poll.heard.is_empty() {
            return Err(self.timeout_or(
                AccessError::NoQuorum {
                    kind: AccessKind::Recover,
                    reachable: poll.heard,
                    counted: 0,
                    against: self.node(site).state().partition,
                },
                AccessKind::Recover,
                site,
                poll,
            ));
        }
        poll.table.set(
            site,
            ReplicaState {
                op: 0,
                version: 0,
                partition: SiteSet::EMPTY,
            },
        );
        poll.heard.insert(site);
        Ok(())
    }
}

impl<T: Clone> Cluster<T> {
    /// The message-fault bus: injected rules and delivery statistics.
    /// Only the in-memory [`BusTransport`] has one; a networked
    /// cluster's fault surface is its transport's link rules
    /// ([`Cluster::transport_mut`]).
    #[must_use]
    pub fn bus(&self) -> &Bus {
        self.transport.bus()
    }

    /// Mutable access to the bus (inject/clear rules directly).
    pub fn bus_mut(&mut self) -> &mut Bus {
        self.transport.bus_mut()
    }

    /// Injects a message-fault rule (see [`FaultRule`]).
    pub fn inject_fault(&mut self, rule: FaultRule) {
        self.transport.bus_mut().inject(rule);
    }

    /// Removes every message-fault rule; delivery is perfect again.
    /// Sites already wedged by an outstanding vote stay wedged until
    /// the interrupted operation resolves (commit retry by a later
    /// operation, or [`Cluster::recover`] at the site).
    pub fn clear_message_faults(&mut self) {
        self.transport.bus_mut().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(protocol: Protocol) -> Cluster<String> {
        ClusterBuilder::new()
            .copies([0, 1, 2])
            .protocol(protocol)
            .build_with_value("v1".to_string())
    }

    #[test]
    fn quickstart_flow() {
        let mut c = cluster(Protocol::Odv);
        assert_eq!(c.read(SiteId::new(1)).unwrap(), "v1");
        c.write(SiteId::new(0), "v2".to_string()).unwrap();
        assert_eq!(c.read(SiteId::new(2)).unwrap(), "v2");
        assert!(c.checker().violations().is_empty());
        let s = c.stats();
        assert_eq!((s.reads_ok, s.writes_ok), (2, 1));
    }

    #[test]
    fn history_records_committed_operations() {
        let mut c = cluster(Protocol::Odv);
        c.read(SiteId::new(1)).unwrap();
        c.write(SiteId::new(0), "v2".to_string()).unwrap();
        c.fail_site(SiteId::new(2));
        let _ = c.read(SiteId::new(2)); // refused: must NOT appear
        c.repair_site(SiteId::new(2));
        c.recover(SiteId::new(2)).unwrap();
        let history = c.history();
        let kinds: Vec<AccessKind> = history.iter().map(|h| h.kind).collect();
        assert_eq!(
            kinds,
            vec![AccessKind::Read, AccessKind::Write, AccessKind::Recover]
        );
        // Operation numbers are strictly increasing along the lineage.
        for w in history.windows(2) {
            assert!(w[0].op < w[1].op);
        }
        assert_eq!(history[1].version, 2);
        assert_eq!(history[2].participants, SiteSet::first_n(3));
    }

    #[test]
    fn survives_one_failure_and_recovers() {
        let mut c = cluster(Protocol::Odv);
        c.fail_site(SiteId::new(1));
        c.write(SiteId::new(0), "v2".to_string()).unwrap();
        assert_eq!(
            c.state_at(SiteId::new(0)).partition,
            SiteSet::from_indices([0, 2])
        );
        c.repair_site(SiteId::new(1));
        // Before RECOVER the repaired copy is stale…
        assert_eq!(c.value_at(SiteId::new(1)), "v1");
        c.recover(SiteId::new(1)).unwrap();
        // …after RECOVER it holds the data and is back in the partition.
        assert_eq!(c.value_at(SiteId::new(1)), "v2");
        assert_eq!(c.state_at(SiteId::new(1)).partition, SiteSet::first_n(3));
        assert!(c.checker().violations().is_empty());
    }

    #[test]
    fn minority_side_is_refused() {
        let mut c = cluster(Protocol::Odv);
        c.force_partition(vec![
            SiteSet::from_indices([0, 1]),
            SiteSet::from_indices([2]),
        ]);
        // Majority side proceeds; minority side aborts.
        c.write(SiteId::new(0), "v2".to_string()).unwrap();
        let err = c.read(SiteId::new(2)).unwrap_err();
        assert!(matches!(err, AccessError::NoQuorum { .. }));
        // Healing restores service everywhere (stale copy rejoins via
        // the version-current read-absorption or RECOVER).
        c.heal_partition();
        c.recover(SiteId::new(2)).unwrap();
        assert_eq!(c.read(SiteId::new(2)).unwrap(), "v2");
        assert!(c.checker().violations().is_empty());
    }

    #[test]
    fn down_origin_is_rejected() {
        let mut c = cluster(Protocol::Ldv);
        c.fail_site(SiteId::new(0));
        let err = c.read(SiteId::new(0)).unwrap_err();
        assert_eq!(
            err,
            AccessError::OriginUnavailable {
                origin: SiteId::new(0)
            }
        );
    }

    #[test]
    fn dv_freezes_on_tie_ldv_does_not() {
        for (protocol, should_grant) in [(Protocol::Dv, false), (Protocol::Ldv, true)] {
            let mut c = cluster(protocol);
            c.fail_site(SiteId::new(2)); // P shrinks on next op
            c.write(SiteId::new(0), "v2".to_string()).unwrap();
            c.fail_site(SiteId::new(1)); // 1 of {0,1}: a tie
            let r = c.read(SiteId::new(0));
            assert_eq!(r.is_ok(), should_grant, "{}", protocol.name());
        }
    }

    #[test]
    fn mcv_static_quorum() {
        let mut c = cluster(Protocol::Mcv);
        c.fail_site(SiteId::new(2));
        c.write(SiteId::new(0), "v2".to_string()).unwrap();
        c.fail_site(SiteId::new(1));
        // One copy left: MCV refuses (LDV would have adapted).
        assert!(c.read(SiteId::new(0)).is_err());
        // Repair restores the quorum with no recovery protocol at all;
        // version numbers route the read to the fresh copy.
        c.repair_site(SiteId::new(1));
        assert_eq!(c.read(SiteId::new(0)).unwrap(), "v2");
        assert!(c.checker().violations().is_empty());
    }

    #[test]
    fn mcv_stale_copy_never_served() {
        let mut c = cluster(Protocol::Mcv);
        c.fail_site(SiteId::new(2));
        c.write(SiteId::new(0), "v2".to_string()).unwrap();
        c.repair_site(SiteId::new(2));
        // Site 2 still holds v1, but every read quorum includes a v2
        // copy and the read picks the max version.
        for origin in [0, 1, 2] {
            assert_eq!(c.read(SiteId::new(origin)).unwrap(), "v2");
        }
        assert!(c.checker().violations().is_empty());
    }

    #[test]
    fn an_mcv_read_is_recorded_with_the_version_it_served() {
        // S1 misses a write and comes back: its read is served v2 from
        // a current copy, and the history says so — not S1's own v1,
        // and not the write before it.
        let mut c = cluster(Protocol::Mcv);
        c.fail_site(SiteId::new(1));
        c.write(SiteId::new(0), "v2".to_string()).unwrap();
        c.repair_site(SiteId::new(1));
        assert_eq!(c.read(SiteId::new(1)).unwrap(), "v2");
        assert_eq!(
            c.history().last(),
            Some(&CommittedOp {
                kind: AccessKind::Read,
                origin: SiteId::new(1),
                op: 0,
                version: 2,
                participants: SiteSet::first_n(3),
            })
        );
        assert_eq!(
            c.state_at(SiteId::new(1)).version,
            1,
            "a read commits nothing"
        );
    }

    #[test]
    fn mcv_refusals_are_algorithm_1_refusals() {
        // Four copies: an exact half without the top copy S0 loses the
        // tie, exactly as under LDV; the half holding S0 wins it; a
        // lone copy is a minority.
        let copies = SiteSet::first_n(4);
        let mut c: Cluster<String> = ClusterBuilder::new()
            .copies(0..4)
            .protocol(Protocol::Mcv)
            .build_with_value("v1".to_string());
        c.force_partition(vec![
            SiteSet::from_indices([0, 1]),
            SiteSet::from_indices([2, 3]),
        ]);
        assert_eq!(
            c.write(SiteId::new(2), "v2".to_string()),
            Err(AccessError::TieLost {
                kind: AccessKind::Write,
                against: copies,
                needed: SiteId::new(0),
            })
        );
        c.write(SiteId::new(1), "v2".to_string()).unwrap();
        c.force_partition(vec![
            SiteSet::from_indices([1]),
            SiteSet::from_indices([0, 2, 3]),
        ]);
        assert_eq!(
            c.read(SiteId::new(1)),
            Err(AccessError::NoQuorum {
                kind: AccessKind::Read,
                reachable: SiteSet::from_indices([1]),
                counted: 1,
                against: copies,
            })
        );
        assert!(c.checker().violations().is_empty());
    }

    #[test]
    fn message_counts_read() {
        // ODV read, all three up: 2 START + 2 STATE + 2 COMMIT and no
        // data transfer — whichever current copy coordinates serves
        // its own, not only the lowest-numbered one.
        for origin in 0..3 {
            let mut c = cluster(Protocol::Odv);
            c.clear_trace();
            c.read(SiteId::new(origin)).unwrap();
            assert_eq!(c.trace().count_of(&MessageKind::StartRequest), 2);
            assert_eq!(c.trace().count_of(&MessageKind::CopyRequest), 0);
            assert_eq!(c.trace().total(), 6, "origin S{origin}");
        }
        // The paper's traffic claim, per protocol: with n copies all up
        // and S0 coordinating, an MCV read costs 2(n-1) messages and
        // every dynamic protocol's read 3(n-1); a write costs 3(n-1)
        // under all six.
        for protocol in Protocol::ALL {
            for n in [3u64, 5] {
                let mut c: Cluster<u64> = ClusterBuilder::new()
                    .copies(0..n as usize)
                    .protocol(protocol)
                    .build_with_value(0);
                let read = if protocol == Protocol::Mcv { 2 } else { 3 } * (n - 1);
                c.clear_trace();
                c.read(SiteId::new(0)).unwrap();
                assert_eq!(c.trace().total(), read, "{protocol:?} read, {n} copies");
                c.clear_trace();
                c.write(SiteId::new(0), 1).unwrap();
                assert_eq!(
                    c.trace().total(),
                    3 * (n - 1),
                    "{protocol:?} write, {n} copies"
                );
            }
        }
    }

    #[test]
    fn history_keeps_the_latest_operations() {
        // Well past the retention limit the log still ends with the
        // operation that just committed.
        let mut c = cluster(Protocol::Odv);
        for i in 0..3 * HISTORY_CAP as u64 {
            c.write(SiteId::new(0), format!("v{i}")).unwrap();
            let last = c.history().last().expect("a granted write is recorded");
            assert_eq!(last.version, c.state_at(SiteId::new(0)).version);
        }
        assert!(c.history().len() >= HISTORY_CAP);
        assert!(c.history().len() <= 2 * HISTORY_CAP);
    }

    #[test]
    fn monitor_ledgers_keep_a_bounded_window() {
        // Past twice the retention floor, both ledgers have dropped
        // their oldest half, and a duplicate inside the window they
        // keep is still caught.
        let mut c = cluster(Protocol::Odv);
        for i in 0..2 * HISTORY_CAP as u64 + 100 {
            c.write(SiteId::new(0), format!("v{i}")).unwrap();
        }
        let checker = c.checker();
        for kept in [checker.commits().count(), checker.written().count()] {
            assert!((HISTORY_CAP..=2 * HISTORY_CAP).contains(&kept), "{kept}");
        }
        assert!(checker.violations().is_empty());
        let latest = checker.latest_written();
        c.checker.note_write(latest);
        assert_eq!(
            c.checker().violations(),
            [crate::Violation::DuplicateVersion { version: latest }]
        );
    }

    #[test]
    fn cached_reachability_equals_fresh_reachability() {
        // The Figure 8 network: gateways S3 and S4 lead to the
        // subordinate segments {S5} and {S6, S7}.
        let network = dynvote_topology::NetworkBuilder::new()
            .segment("main", [0, 1, 2, 3, 4])
            .segment("second", [5])
            .segment("third", [6, 7])
            .bridge(3, "second")
            .bridge(4, "third")
            .build()
            .unwrap();
        let mut c: Cluster<u64> = ClusterBuilder::new()
            .network(network.clone())
            .copies([0, 1, 5, 7])
            .protocol(Protocol::Ldv)
            .build_with_value(0);
        let mut rng = dynvote_sim::SimRng::new(29);
        let mut forced: Option<Vec<SiteSet>> = None;
        for step in 0..2_000 {
            let site = SiteId::new(rng.below(8));
            match rng.below(4) {
                0 => c.fail_site(site),
                1 => c.repair_site(site),
                2 => {
                    let mut groups = vec![SiteSet::EMPTY; 3];
                    for member in network.sites().iter() {
                        groups[rng.below(3)].insert(member);
                    }
                    groups.retain(|g| !g.is_empty());
                    c.force_partition(groups.clone());
                    forced = Some(groups);
                }
                _ => {
                    c.heal_partition();
                    forced = None;
                }
            }
            let up = c.up_sites();
            let fresh = ReachabilityCache::new(&network).get(&network, up);
            for s in network.sites().iter() {
                let expected = match &forced {
                    None => fresh.group_of(s),
                    Some(groups) => groups
                        .iter()
                        .map(|g| *g & up)
                        .find(|g| up.contains(s) && g.contains(s)),
                };
                assert_eq!(c.group_of(s), expected, "step {step}, site {s}");
            }
        }
    }

    #[test]
    fn an_update_built_on_a_stale_local_copy_is_graded_a_stale_read() {
        // DESIGN §12's argument, run: the value an update builds on
        // must come from a copy the plan calls current. S0 misses a
        // write and comes back without RECOVER; trusting its own copy
        // then is a stale read, and the checker says so.
        for armed in [false, true] {
            let mut c = cluster(Protocol::Odv);
            c.fail_site(SiteId::new(0));
            c.write(SiteId::new(1), "v2".to_string()).unwrap();
            c.repair_site(SiteId::new(0));
            c.set_stale_read_fault(armed);
            let committed = c
                .update(SiteId::new(0), |current, _| Some(format!("{current}+")))
                .unwrap()
                .expect("the build wrote");
            assert_eq!(committed.version, 3);
            if armed {
                assert_eq!(c.value_at(SiteId::new(1)), "v1+", "built on the stale copy");
                assert_eq!(
                    c.checker().violations(),
                    [crate::Violation::StaleRead {
                        served: 1,
                        latest: 2
                    }]
                );
            } else {
                assert_eq!(c.value_at(SiteId::new(1)), "v2+");
                assert!(c.checker().violations().is_empty());
            }
        }
    }

    #[test]
    fn recover_after_reads_needs_no_copy() {
        let mut c = cluster(Protocol::Odv);
        c.fail_site(SiteId::new(2));
        c.read(SiteId::new(0)).unwrap();
        c.read(SiteId::new(1)).unwrap();
        c.repair_site(SiteId::new(2));
        c.clear_trace();
        c.recover(SiteId::new(2)).unwrap();
        assert_eq!(
            c.trace().count_of(&MessageKind::CopyRequest),
            0,
            "only reads happened: no data transfer on recovery"
        );
        assert!(c.checker().violations().is_empty());
    }

    #[test]
    fn forced_partition_respects_liveness() {
        let mut c = cluster(Protocol::Ldv);
        c.force_partition(vec![SiteSet::from_indices([0, 1, 2])]);
        c.fail_site(SiteId::new(1));
        let g = c.group_of(SiteId::new(0)).unwrap();
        assert_eq!(g, SiteSet::from_indices([0, 2]), "down sites drop out");
    }

    #[test]
    #[should_panic(expected = "pairwise disjoint")]
    fn overlapping_forced_groups_rejected() {
        let mut c = cluster(Protocol::Ldv);
        c.force_partition(vec![
            SiteSet::from_indices([0, 1]),
            SiteSet::from_indices([1, 2]),
        ]);
    }

    fn witness_cluster() -> Cluster<String> {
        ClusterBuilder::new()
            .copies([0, 1])
            .witnesses([2])
            .protocol(Protocol::Odv)
            .build_with_value("v1".to_string())
    }

    #[test]
    fn witness_breaks_the_two_copy_tie_at_message_level() {
        let mut c = witness_cluster();
        assert_eq!(c.participants(), SiteSet::first_n(3));
        // Copy S1 fails: {S0, witness} is 2 of 3 — the write proceeds,
        // and the witness's state stamp advances with the commit.
        c.fail_site(SiteId::new(1));
        c.write(SiteId::new(0), "v2".to_string()).unwrap();
        assert_eq!(c.state_at(SiteId::new(2)).version, 2);
        assert_eq!(
            c.state_at(SiteId::new(2)).partition,
            SiteSet::from_indices([0, 2])
        );
        // Fail S0 instead (the lexicographic max): the witness is what
        // keeps the other side alive.
        let mut c = witness_cluster();
        c.fail_site(SiteId::new(0));
        assert!(c.write(SiteId::new(1), "v2".to_string()).is_ok());
        assert!(c.checker().violations().is_empty());
    }

    #[test]
    fn witness_cannot_serve_reads() {
        // The witness (S0) is the lexicographic max so it can win ties:
        // the setup where a quorum can exist with no data behind it.
        let mut c: Cluster<String> = ClusterBuilder::new()
            .copies([1, 2])
            .witnesses([0])
            .protocol(Protocol::Odv)
            .build_with_value("v1".to_string());
        // Write at S2 while S1 is down: P := {witness, S2}.
        c.fail_site(SiteId::new(1));
        c.write(SiteId::new(2), "v2".to_string()).unwrap();
        // The data holder S2 dies; stale S1 returns beside the witness.
        // The witness wins the tie — but holds no data: reads abort.
        c.fail_site(SiteId::new(2));
        c.repair_site(SiteId::new(1));
        let err = c.read(SiteId::new(0)).unwrap_err();
        assert!(matches!(err, AccessError::NoCurrentCopy { .. }), "{err:?}");
        // S2 (the data holder) returning restores service.
        c.repair_site(SiteId::new(2));
        assert_eq!(c.read(SiteId::new(2)).unwrap(), "v2");
        assert!(c.checker().violations().is_empty());
    }

    #[test]
    fn witness_recovery_is_data_free() {
        let mut c = witness_cluster();
        c.fail_site(SiteId::new(2));
        c.write(SiteId::new(0), "v2".to_string()).unwrap();
        c.repair_site(SiteId::new(2));
        c.clear_trace();
        c.recover(SiteId::new(2)).unwrap();
        assert_eq!(
            c.trace().count_of(&MessageKind::CopyRequest),
            0,
            "witnesses never transfer data"
        );
        assert_eq!(c.state_at(SiteId::new(2)).version, 2);
        assert!(c.checker().violations().is_empty());
    }

    #[test]
    #[should_panic(expected = "witnesses require a dynamic-voting protocol")]
    fn mcv_with_witnesses_rejected() {
        let _ = ClusterBuilder::new()
            .copies([0, 1])
            .witnesses([2])
            .protocol(Protocol::Mcv)
            .build_with_value(0u8);
    }

    #[test]
    #[should_panic(expected = "cannot be both")]
    fn overlapping_copy_and_witness_rejected() {
        let _ = ClusterBuilder::new()
            .copies([0, 1])
            .witnesses([1])
            .build_with_value(0u8);
    }

    #[test]
    #[should_panic(expected = "needs copies")]
    fn empty_cluster_rejected() {
        let _ = ClusterBuilder::new().build_with_value(0u8);
    }

    #[test]
    fn builder_validates_copies_on_network() {
        let net = Network::single_segment(2);
        let result = std::panic::catch_unwind(|| {
            ClusterBuilder::new()
                .network(net)
                .copies([0, 5])
                .build_with_value(0u8)
        });
        assert!(result.is_err());
    }
}
