//! Batched-commit equivalence: `Cluster::write_batch` must be
//! observationally identical to the serial writes it amortizes.
//!
//! Nine angles:
//!
//! * **serial equivalence** — a fault-free K-batch leaves every site
//!   with the same final `⟨o, v, P⟩`, the same committed-op history,
//!   the same checker digest, and the same readable value as K
//!   back-to-back `write` calls;
//! * **commit-point ordering** — a recording transport wrapped around
//!   the nemesis bus proves the batch's single commit point (where a
//!   durable transport fsyncs its WAL record) fires strictly
//!   *before* any `COMMIT` frame leaves the coordinator, and carries
//!   the batch's final state; a commit point that cannot be recorded
//!   commits nothing;
//! * **all-or-nothing** — one poll and one commit fanout carry the
//!   whole batch, so a partial commit refuses every write in it as
//!   `Indeterminate`, never some prefix;
//! * **fault adversity** — under injected drop/dup message faults the
//!   batch path keeps every checker invariant the serial path keeps;
//! * **keyed batches** — a run of K keyed puts folded into one write
//!   of the map (what the store's batch worker commits, and ships as a
//!   delta) leaves every copy holding the map K serial keyed writes
//!   leave;
//! * **the delta premise** — every `COMMIT` of a dynamic-voting
//!   operation names the version its recipient really holds when it
//!   lands, which is what lets a transport ship a write as a change
//!   against that version; MCV, which wedges nobody, names none;
//! * **one-round updates** — `Cluster::update` reads the value under
//!   the write's own vote: the same value, version and P as a quorum
//!   read followed by a write, one operation number and one poll
//!   fewer; a stale coordinator fetches the copy between its poll and
//!   its commit point; refusals and aborts release every vote. (That a
//!   value built on a stale local copy is *caught* is a unit test
//!   beside the fault hook, `cluster::tests::
//!   an_update_built_on_a_stale_local_copy_is_graded_a_stale_read`.)
//! * **who a release is sent to** — the sites the operation polled
//!   that no acknowledged `COMMIT` released and that are not kept
//!   wedged: nobody after a clean `update`, `write_batch` or `read`,
//!   the stale copy that voted without becoming a participant, and
//!   everyone polled when the plan is refused;
//! * **the wire order of every round shape** — an update, a batch, a
//!   read, a recovery at a stale site, a write beside a witness, and
//!   MCV's write, read, refusal, lost commit, update, batch and
//!   recovery, each journaled message by message.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use dynvote_core::state::ReplicaState;
use dynvote_replica::{
    BusTransport, Carried, Cluster, ClusterBuilder, CommittedOp, FaultAction, FaultRule,
    LocalServe, MessageClass, MessageKind, OpStats, Protocol, Transport, WireRequest,
};
use dynvote_types::{AccessError, AccessKind, SiteId, SiteSet};

fn cluster(protocol: Protocol) -> Cluster<u64> {
    ClusterBuilder::new()
        .copies([0, 1, 2])
        .protocol(protocol)
        .build_with_value(0)
}

fn origin() -> SiteId {
    SiteId::new(0)
}

/// A fault-free batch and the serial writes it stands in for cannot be
/// told apart by any observer: state, history, checker, or a reader.
#[test]
fn a_k_batch_is_indistinguishable_from_k_serial_writes() {
    for protocol in [Protocol::Odv, Protocol::Ldv, Protocol::Dv, Protocol::Mcv] {
        let mut batched = cluster(protocol);
        let mut serial = cluster(protocol);

        let values: Vec<u64> = (1..=5).collect();
        let results = batched.write_batch(origin(), values.clone());
        assert_eq!(results.len(), values.len());
        for result in &results {
            result.as_ref().expect("fault-free batch write granted");
        }
        for value in values {
            serial.write(origin(), value).expect("serial write granted");
        }

        assert_eq!(
            batched.history(),
            serial.history(),
            "{protocol:?}: per-write history entries diverged"
        );
        for site in 0..3 {
            assert_eq!(
                batched.state_at(SiteId::new(site)),
                serial.state_at(SiteId::new(site)),
                "{protocol:?}: S{site} final ⟨o, v, P⟩ diverged"
            );
        }
        let (b, s) = (batched.checker(), serial.checker());
        assert!(
            b.commits().eq(s.commits())
                && b.written().eq(s.written())
                && b.latest_written() == s.latest_written()
                && b.violations() == s.violations(),
            "{protocol:?}: checker observations diverged"
        );
        assert_eq!(
            batched.read(SiteId::new(2)).expect("read granted"),
            serial.read(SiteId::new(2)).expect("read granted"),
            "{protocol:?}: a reader can tell the batch from the serial run"
        );
        assert!(batched.checker().violations().is_empty());
    }
}

/// What the recording transport saw, in order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Event {
    /// A `START` handed to the wire.
    StartSent { to: SiteId },
    /// A copy request handed to the wire.
    CopySent { to: SiteId },
    /// `commit_point` — the durable-ledger hook.
    Point { op: u64, version: u64 },
    /// A `COMMIT` frame handed to the wire, with the version the
    /// cluster says its recipient voted with.
    CommitSent {
        op: u64,
        to: SiteId,
        polled_version: Option<u64>,
    },
    /// `release` — the abort oracle, with the sites it is sent to.
    Release { keep: SiteSet, recipients: SiteSet },
}

/// Wraps the nemesis bus and journals the transport-level events the
/// WAL/ledger safety argument is about.
struct RecordingTransport {
    inner: BusTransport,
    events: Arc<Mutex<Vec<Event>>>,
    /// Every request posted ahead of its carry, with the length the
    /// event journal had when it was posted — a journal of its own, so
    /// the wire-order journals above read exactly what they always did.
    posts: Vec<(usize, Event)>,
    /// Whether `commit_point` reports that it could not record.
    unrecordable: bool,
}

/// The event of handing `request` to the wire.
fn sent<T>(request: &WireRequest<'_, T>) -> Option<Event> {
    let to = request.message.to;
    match request.message.kind {
        MessageKind::StartRequest => Some(Event::StartSent { to }),
        MessageKind::CopyRequest => Some(Event::CopySent { to }),
        MessageKind::Commit { op, .. } => Some(Event::CommitSent {
            op,
            to,
            polled_version: request.polled_version,
        }),
        MessageKind::StateReply { .. } | MessageKind::CopyReply => None,
    }
}

impl<T> Transport<T> for RecordingTransport {
    fn carry(&mut self, request: WireRequest<'_, T>, serve: LocalServe<'_, T>) -> Carried<T> {
        self.events
            .lock()
            .expect("journal poisoned")
            .extend(sent(&request));
        self.inner.carry(request, serve)
    }

    fn post(&mut self, request: WireRequest<'_, T>) {
        let at = self.events.lock().expect("journal poisoned").len();
        self.posts.extend(sent(&request).map(|event| (at, event)));
        Transport::<T>::post(&mut self.inner, request);
    }

    fn commit_point(
        &mut self,
        ticket: u64,
        state: ReplicaState,
        value: Option<&T>,
        local: Option<&T>,
    ) -> std::io::Result<()> {
        self.events
            .lock()
            .expect("journal poisoned")
            .push(Event::Point {
                op: state.op,
                version: state.version,
            });
        if self.unrecordable {
            return Err(std::io::Error::other("the log refused the record"));
        }
        Transport::<T>::commit_point(&mut self.inner, ticket, state, value, local)
    }

    fn release(&mut self, ticket: u64, keep: SiteSet, recipients: SiteSet) {
        self.events
            .lock()
            .expect("journal poisoned")
            .push(Event::Release { keep, recipients });
        Transport::<T>::release(&mut self.inner, ticket, keep, recipients);
    }
}

type Journal = Arc<Mutex<Vec<Event>>>;

/// A three-copy cluster on a recording transport, and its journal.
fn recording_cluster<T: Clone>(
    protocol: Protocol,
    initial: T,
) -> (Cluster<T, RecordingTransport>, Journal) {
    recording(
        ClusterBuilder::new().copies([0, 1, 2]).protocol(protocol),
        initial,
    )
}

/// `builder`'s cluster on a recording transport, and its journal.
fn recording<T: Clone>(
    builder: ClusterBuilder,
    initial: T,
) -> (Cluster<T, RecordingTransport>, Journal) {
    let events = Journal::default();
    let transport = RecordingTransport {
        inner: BusTransport::new(),
        events: Arc::clone(&events),
        posts: Vec::new(),
        unrecordable: false,
    };
    (builder.build_with_transport(transport, initial), events)
}

/// The ledger hook fires exactly once per batch, carries the batch's
/// *final* state, and strictly precedes every `COMMIT` frame, posted or
/// carried — the ordering that lets a crashed coordinator's successor
/// answer vote probes instead of forking the lineage (DESIGN §10–11).
#[test]
fn the_commit_point_precedes_the_commit_fanout_and_covers_the_batch() {
    let (mut cluster, events) = recording_cluster(Protocol::Odv, 0u64);

    let results = cluster.write_batch(origin(), vec![7, 8, 9]);
    assert!(results.iter().all(Result::is_ok), "{results:?}");
    let last = *cluster
        .history()
        .last()
        .expect("a granted batch records history");

    let events = events.lock().expect("journal poisoned");
    let points: Vec<(usize, Event)> = events
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e, Event::Point { .. }))
        .map(|(i, e)| (i, *e))
        .collect();
    assert_eq!(
        points.len(),
        1,
        "one decision covers the whole batch: {events:?}"
    );
    let (point_at, point) = points[0];
    assert_eq!(
        point,
        Event::Point {
            op: last.op,
            version: last.version
        },
        "the ledger record must name the batch's final state"
    );
    let fanout: Vec<usize> = events
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e, Event::CommitSent { .. }))
        .map(|(i, _)| i)
        .collect();
    assert_eq!(
        fanout.len(),
        2,
        "one COMMIT per non-coordinator: {events:?}"
    );
    assert!(
        fanout.iter().all(|&i| point_at < i),
        "a COMMIT left before the commit point was durable: {events:?}"
    );
    for event in events.iter() {
        if let Event::CommitSent { op, .. } = event {
            assert_eq!(*op, last.op, "every COMMIT carries the final op");
        }
    }
    let posted: Vec<(usize, Event)> = cluster
        .transport()
        .posts
        .iter()
        .copied()
        .filter(|(_, e)| matches!(e, Event::CommitSent { .. }))
        .collect();
    assert_eq!(posted.len(), 2, "one posted COMMIT per non-coordinator");
    for (at, event) in &posted {
        assert!(
            point_at < *at,
            "{event:?} was posted before the commit point was durable: {events:?}"
        );
    }
    let carried: Vec<Event> = fanout.iter().map(|&i| events[i]).collect();
    assert_eq!(
        posted.iter().map(|(_, e)| *e).collect::<Vec<_>>(),
        carried,
        "each COMMIT is posted, then carried unchanged"
    );
}

/// A commit point the transport cannot record commits nothing: no
/// `COMMIT` leaves, no copy (the coordinator's included) changes state,
/// every site the round polled is sent the release, and each write of
/// the batch is refused as `Unrecorded`.
#[test]
fn a_commit_point_that_cannot_be_recorded_commits_nothing() {
    let (mut cluster, events) = recording_cluster(Protocol::Odv, 0u64);
    cluster.transport_mut().unrecordable = true;
    let before: Vec<ReplicaState> = (0..3).map(|i| cluster.state_at(SiteId::new(i))).collect();

    let results = cluster.write_batch(origin(), vec![7, 8, 9]);
    assert_eq!(results.len(), 3);
    for result in &results {
        assert!(
            matches!(
                result,
                Err(AccessError::Unrecorded {
                    kind: AccessKind::Write,
                    origin: o,
                }) if *o == origin()
            ),
            "{result:?}"
        );
    }
    let events = events.lock().expect("journal poisoned").clone();
    assert!(
        !events.iter().any(|e| matches!(e, Event::CommitSent { .. })),
        "a COMMIT left: {events:?}"
    );
    assert_eq!(
        events.last(),
        Some(&Event::Release {
            keep: SiteSet::EMPTY,
            recipients: SiteSet::from_indices([1, 2]),
        }),
        "{events:?}"
    );
    for (i, state) in before.iter().enumerate() {
        let site = SiteId::new(i);
        assert_eq!(cluster.state_at(site), *state, "S{i} moved");
        assert_eq!(cluster.pending_at(site), None, "S{i} is still wedged");
    }
    assert!(cluster.history().is_empty());
    assert_eq!(cluster.value_at(SiteId::new(1)), 0);

    // Once the log records again, the next round commits.
    cluster.transport_mut().unrecordable = false;
    cluster
        .write(origin(), 4)
        .expect("a recordable round commits");
    assert_eq!(cluster.read(SiteId::new(2)).expect("read granted"), 4);
}

/// One fanout carries the whole batch, so a partial commit (both
/// peers' COMMITs swallowed past the retry budget) is `Indeterminate`
/// for *every* write in it — no prefix is reported granted.
#[test]
fn a_partial_batch_commit_refuses_every_write_as_indeterminate() {
    let mut cluster = cluster(Protocol::Odv);
    for peer in [1, 2] {
        cluster.inject_fault(
            FaultRule::once(MessageClass::Commit, SiteId::new(peer), FaultAction::Drop).times(16),
        );
    }
    let results = cluster.write_batch(origin(), vec![1, 2, 3]);
    assert_eq!(results.len(), 3);
    for result in results {
        assert!(
            matches!(result, Err(AccessError::Indeterminate { .. })),
            "a partial batch must be indeterminate for every write, got {result:?}"
        );
    }
    assert!(
        cluster.checker().violations().is_empty(),
        "{:?}",
        cluster.checker().violations()
    );
}

/// Under drop/dup message faults the batch path keeps the checker
/// invariants, decides each batch once (all grants or all refusals),
/// and keeps serving once the fault budgets are spent.
#[test]
fn batches_keep_invariants_under_drop_and_dup_faults() {
    let mut cluster = ClusterBuilder::new()
        .copies([0, 1, 2, 3, 4])
        .protocol(Protocol::Odv)
        .build_with_value(0u64);

    cluster.inject_fault(FaultRule {
        class: Some(MessageClass::State),
        from: Some(SiteId::new(1)),
        to: Some(origin()),
        action: FaultAction::Drop,
        remaining: 4,
    });
    cluster.inject_fault(
        FaultRule::once(MessageClass::Commit, SiteId::new(2), FaultAction::Duplicate).times(3),
    );
    cluster.inject_fault(
        FaultRule::once(MessageClass::Commit, SiteId::new(3), FaultAction::Drop).times(2),
    );
    cluster.inject_fault(
        FaultRule::once(MessageClass::Start, SiteId::new(4), FaultAction::Drop).times(2),
    );

    let mut granted = 0usize;
    for round in 0u64..6 {
        let values = vec![round * 10 + 1, round * 10 + 2, round * 10 + 3];
        let results = cluster.write_batch(origin(), values);
        let oks = results.iter().filter(|r| r.is_ok()).count();
        assert!(
            oks == 0 || oks == results.len(),
            "round {round}: a batch decides once — all grants or all \
             refusals, got {oks}/{}",
            results.len()
        );
        granted += oks;
        assert!(
            cluster.checker().violations().is_empty(),
            "round {round}: {:?}",
            cluster.checker().violations()
        );
    }
    assert!(
        granted > 0,
        "the fault budgets exhaust; some batches must land"
    );

    // Faults spent: the next batch lands everywhere a reader looks.
    let results = cluster.write_batch(origin(), vec![1000, 1001]);
    assert!(results.iter().all(Result::is_ok), "{results:?}");
    let reader = cluster
        .history()
        .last()
        .expect("granted batch recorded")
        .participants
        .max()
        .expect("non-empty participant set");
    assert_eq!(cluster.read(reader).expect("read granted"), 1001);
    assert!(cluster.checker().violations().is_empty());
}

type KeyedMap = BTreeMap<String, u64>;

fn with_puts(map: &KeyedMap, puts: &[(&str, u64)]) -> KeyedMap {
    let mut map = map.clone();
    for (key, value) in puts {
        map.insert((*key).to_string(), *value);
    }
    map
}

/// The store's keyed read-modify-write, in miniature: the map read
/// under the write's own vote, the puts applied in order, the result
/// committed — one round.
fn keyed_write<X: Transport<KeyedMap>>(cluster: &mut Cluster<KeyedMap, X>, puts: &[(&str, u64)]) {
    let committed = cluster
        .update(origin(), 1, |map, _| Some(with_puts(map, puts)))
        .expect("keyed write granted");
    assert!(committed.is_some(), "the build never declines");
}

/// K keyed puts committed as one write of the folded map — the unit
/// the store ships as a delta — leave every copy holding exactly the
/// map K serial keyed writes leave (a later put of a key winning), and
/// a reader anywhere sees the same.
#[test]
fn a_keyed_k_batch_leaves_the_map_k_serial_keyed_writes_leave() {
    let puts = [("b", 1), ("a", 2), ("b", 3), ("c", 4), ("a", 5)];
    for protocol in [Protocol::Odv, Protocol::Ldv, Protocol::Dv, Protocol::Mcv] {
        let build = || {
            ClusterBuilder::new()
                .copies([0, 1, 2])
                .protocol(protocol)
                .build_with_value(KeyedMap::new())
        };
        let mut batched = build();
        let mut serial = build();
        keyed_write(&mut batched, &puts);
        for put in puts {
            keyed_write(&mut serial, &[put]);
        }
        for site in 0..3 {
            assert_eq!(
                batched.value_at(SiteId::new(site)),
                serial.value_at(SiteId::new(site)),
                "{protocol:?}: S{site} holds a different map"
            );
        }
        assert_eq!(
            batched.read(SiteId::new(2)).expect("read granted"),
            serial.read(SiteId::new(2)).expect("read granted"),
        );
        // One batch is one write: one version up, not K.
        let base = build().state_at(origin()).version;
        assert_eq!(batched.state_at(origin()).version, base + 1);
        assert_eq!(serial.state_at(origin()).version, base + puts.len() as u64);
        assert!(batched.checker().violations().is_empty());
    }
}

/// Runs `operate` on a recording cluster and checks every `COMMIT` it
/// sent against the versions the recipients held just before.
fn assert_commits_name_held_versions(
    protocol: Protocol,
    prepare: impl Fn(&mut Cluster<u64, RecordingTransport>),
    operate: impl Fn(&mut Cluster<u64, RecordingTransport>),
) {
    let (mut cluster, events) = recording_cluster(protocol, 0u64);
    prepare(&mut cluster);
    events.lock().expect("journal poisoned").clear();
    let held: Vec<u64> = (0..3)
        .map(|site| cluster.state_at(SiteId::new(site)).version)
        .collect();
    operate(&mut cluster);
    let events = events.lock().expect("journal poisoned");
    let mut commits = 0;
    for event in events.iter() {
        if let Event::CommitSent {
            to, polled_version, ..
        } = event
        {
            commits += 1;
            let expected = (protocol != Protocol::Mcv).then_some(held[to.index()]);
            assert_eq!(
                *polled_version,
                expected,
                "{protocol:?}: COMMIT to S{} names the wrong version ({events:?})",
                to.index()
            );
        }
    }
    assert!(commits > 0, "{protocol:?}: the operation sent no COMMIT");
}

/// The premise of delta commits, checked where it is established: the
/// version a `COMMIT` names is the one its recipient holds — for a
/// write among current copies, for a batch, and for the commits a
/// recovery sends from a stale site to the current ones. MCV repliers
/// are not wedged at the version they reported, so MCV names none.
#[test]
fn every_commit_names_the_version_its_recipient_holds() {
    for protocol in [Protocol::Odv, Protocol::Ldv, Protocol::Dv, Protocol::Mcv] {
        assert_commits_name_held_versions(
            protocol,
            |_| {},
            |cluster| cluster.write(origin(), 7).expect("write granted"),
        );
        assert_commits_name_held_versions(
            protocol,
            |cluster| cluster.write(origin(), 1).expect("write granted"),
            |cluster| {
                let results = cluster.write_batch(origin(), vec![2, 3, 4]);
                assert!(results.iter().all(Result::is_ok), "{results:?}");
            },
        );
    }
    // S2 misses two writes, comes back stale, and recovers: its RECOVER
    // commits at S0 and S1 (at the current version), from a coordinator
    // that itself holds an older one.
    for protocol in [Protocol::Odv, Protocol::Ldv, Protocol::Dv] {
        assert_commits_name_held_versions(
            protocol,
            |cluster| {
                cluster.fail_site(SiteId::new(2));
                cluster.write(origin(), 1).expect("write granted");
                cluster.write(origin(), 2).expect("write granted");
                cluster.repair_site(SiteId::new(2));
            },
            |cluster| cluster.recover(SiteId::new(2)).expect("recover granted"),
        );
    }
}

fn keyed_cluster(protocol: Protocol) -> Cluster<KeyedMap> {
    ClusterBuilder::new()
        .copies([0, 1, 2])
        .protocol(protocol)
        .build_with_value(KeyedMap::new())
}

/// `update` is a quorum read followed by a write, minus the read's
/// round: whoever coordinates, every copy ends with the same value,
/// version and partition set, a reader sees the same map, and the only
/// trace of the difference is the operation number — one lower per
/// update under dynamic voting (no read commit), equal under MCV
/// (whose update *is* read-then-write, and whose reads commit nothing).
#[test]
fn an_update_is_a_quorum_read_and_a_write_minus_one_round() {
    for protocol in [Protocol::Odv, Protocol::Ldv, Protocol::Dv, Protocol::Mcv] {
        let mut updated = keyed_cluster(protocol);
        let mut serial = keyed_cluster(protocol);
        let rounds: [&[(&str, u64)]; 4] = [
            &[("a", 1)],
            &[("b", 2), ("a", 3)],
            &[("c", 4)],
            &[("a", 5), ("c", 6), ("d", 7)],
        ];
        for (round, puts) in rounds.into_iter().enumerate() {
            let at = SiteId::new(round % 3);
            let held = updated.state_at(at).version;
            let mut told = None;
            // One version per put, as a batch of serial puts makes.
            let count = puts.len() as u64;
            let committed = updated
                .update(at, count, |map, base| {
                    told = Some(base);
                    Some(with_puts(map, puts))
                })
                .expect("update granted")
                .expect("the build wrote");
            let pinned = (protocol != Protocol::Mcv).then_some(held);
            assert_eq!(
                told,
                Some(pinned),
                "{protocol:?}: the version build is told"
            );
            assert_eq!(Some(&committed.later(count - 1)), updated.history().last());
            assert_eq!(committed.version, held + 1);

            let map = serial.read(at).expect("read granted");
            let values = (1..=puts.len())
                .map(|n| with_puts(&map, &puts[..n]))
                .collect();
            let results = serial.write_batch(at, values);
            assert!(results.iter().all(Result::is_ok), "{results:?}");

            let read_commits = if protocol == Protocol::Mcv {
                0
            } else {
                round as u64 + 1
            };
            for site in (0..3).map(SiteId::new) {
                assert_eq!(
                    updated.value_at(site),
                    serial.value_at(site),
                    "{protocol:?} S{site:?}"
                );
                let (u, s) = (updated.state_at(site), serial.state_at(site));
                assert_eq!((u.version, u.partition), (s.version, s.partition));
                assert_eq!(u.op + read_commits, s.op, "{protocol:?}: round {round}");
            }
        }
        assert_eq!(updated.stats().writes_ok, serial.stats().writes_ok);
        if protocol != Protocol::Mcv {
            assert_eq!(updated.stats().reads_ok, 0, "{protocol:?}: no read was run");
        }
        assert_eq!(
            updated.read(SiteId::new(2)).expect("read granted"),
            serial.read(SiteId::new(2)).expect("read granted"),
        );
        assert!(updated.checker().violations().is_empty());
    }
}

/// One clean operation is one round on the wire, and nothing after it:
/// exactly one `START` per peer, no copy request when the coordinator
/// is current, the commit point before any `COMMIT` — each of which
/// names the version its recipient voted with, the base `build` was
/// told — and a release that names **no** recipient, because every
/// site that voted acknowledged the commit that released it.
#[test]
fn a_clean_round_is_two_exchanges_per_peer_and_a_release_to_nobody() {
    type Operate = fn(&mut Cluster<KeyedMap, RecordingTransport>);
    let operations: [(&str, u64, Operate); 3] = [
        ("update", 1, |cluster| keyed_write(cluster, &[("k", 1)])),
        ("write_batch", 2, |cluster| {
            let maps = vec![
                with_puts(&KeyedMap::new(), &[("a", 1)]),
                with_puts(&KeyedMap::new(), &[("b", 2)]),
            ];
            let results = cluster.write_batch(origin(), maps);
            assert!(results.iter().all(Result::is_ok), "{results:?}");
        }),
        ("read", 0, |cluster| {
            cluster.read(origin()).expect("read granted");
        }),
    ];
    for (name, versions, operate) in operations {
        let (mut cluster, events) = recording_cluster(Protocol::Odv, KeyedMap::new());
        keyed_write(&mut cluster, &[("warm", 0)]);
        events.lock().expect("journal poisoned").clear();
        let held = cluster.state_at(origin());
        // A batch of K writes is K operations and K versions; a read is
        // one operation and no version.
        let op = held.op + versions.max(1);
        let base = held.version;
        operate(&mut cluster);

        let events = events.lock().expect("journal poisoned");
        let to = |site| SiteId::new(site);
        assert_eq!(
            *events,
            vec![
                Event::StartSent { to: to(1) },
                Event::StartSent { to: to(2) },
                Event::Point {
                    op,
                    version: base + versions
                },
                Event::CommitSent {
                    op,
                    to: to(1),
                    polled_version: Some(base)
                },
                Event::CommitSent {
                    op,
                    to: to(2),
                    polled_version: Some(base)
                },
                Event::Release {
                    keep: SiteSet::EMPTY,
                    recipients: SiteSet::EMPTY
                },
            ],
            "{name}"
        );
    }
}

/// The rounds the clean-round journal above does not cover, pinned
/// message by message: a RECOVER at a stale site fetches its copy
/// between the `START`s and the commit point; a witness gets a `START`
/// and a `COMMIT` and never a copy request; an MCV write sends its
/// `START`s and then `COMMIT`s that name no polled version, with no
/// commit point and no release.
#[test]
fn recover_witness_and_mcv_rounds_send_the_pinned_messages_in_order() {
    let to = |site| SiteId::new(site);

    // S2 misses a write (P shrinks to {S0, S1} at ⟨2, 2⟩), comes back
    // and recovers: the copy comes from S0, the lowest current copy,
    // and the commit re-admits S2 at ⟨3, 2⟩.
    let (mut cluster, events) = recording_cluster(Protocol::Odv, 0u64);
    cluster.fail_site(to(2));
    cluster.write(origin(), 1).expect("write granted");
    cluster.repair_site(to(2));
    events.lock().expect("journal poisoned").clear();
    cluster.recover(to(2)).expect("recover granted");
    assert_eq!(
        *events.lock().expect("journal poisoned"),
        [
            Event::StartSent { to: to(0) },
            Event::StartSent { to: to(1) },
            Event::CopySent { to: to(0) },
            Event::Point { op: 3, version: 2 },
            Event::CommitSent {
                op: 3,
                to: to(0),
                polled_version: Some(2)
            },
            Event::CommitSent {
                op: 3,
                to: to(1),
                polled_version: Some(2)
            },
            Event::Release {
                keep: SiteSet::EMPTY,
                recipients: SiteSet::EMPTY
            },
        ],
        "recover at a stale site"
    );
    assert_eq!(cluster.value_at(to(2)), 1);

    // Two copies and a witness (S2): the witness votes and commits like
    // a copy, and no data moves to or from it.
    let (mut cluster, events) = recording(
        ClusterBuilder::new()
            .copies([0, 1])
            .witnesses([2])
            .protocol(Protocol::Odv),
        0u64,
    );
    cluster.write(origin(), 7).expect("write granted");
    assert_eq!(
        *events.lock().expect("journal poisoned"),
        [
            Event::StartSent { to: to(1) },
            Event::StartSent { to: to(2) },
            Event::Point { op: 2, version: 2 },
            Event::CommitSent {
                op: 2,
                to: to(1),
                polled_version: Some(1)
            },
            Event::CommitSent {
                op: 2,
                to: to(2),
                polled_version: Some(1)
            },
            Event::Release {
                keep: SiteSet::EMPTY,
                recipients: SiteSet::EMPTY
            },
        ],
        "a write beside a witness"
    );
    assert_eq!(cluster.value_at(to(1)), 7);
    assert_eq!(cluster.state_at(to(2)).version, 2);

    // MCV: Gifford's write keeps each copy's own operation number (1
    // here) and wedges nobody, so there is nothing to record before the
    // fanout and nothing to release after it.
    let (mut cluster, events) = recording_cluster(Protocol::Mcv, 0u64);
    cluster.write(origin(), 7).expect("write granted");
    assert_eq!(
        *events.lock().expect("journal poisoned"),
        [
            Event::StartSent { to: to(1) },
            Event::StartSent { to: to(2) },
            Event::CommitSent {
                op: 1,
                to: to(1),
                polled_version: None
            },
            Event::CommitSent {
                op: 1,
                to: to(2),
                polled_version: None
            },
        ],
        "an MCV write"
    );
}

/// Runs `operate` on `cluster` and returns what it returned with the
/// journal of that operation alone.
fn journaled<R>(
    cluster: &mut Cluster<u64, RecordingTransport>,
    events: &Journal,
    operate: impl FnOnce(&mut Cluster<u64, RecordingTransport>) -> R,
) -> (R, Vec<Event>) {
    events.lock().expect("journal poisoned").clear();
    let result = operate(cluster);
    let journal = events.lock().expect("journal poisoned").clone();
    (result, journal)
}

/// The MCV rounds the journal above does not cover, each pinned by its
/// messages, its counters and the last history entry. MCV wedges
/// nobody, so none of them has a commit point or a release; an entry
/// names op 0, the version served or written, and the copies that
/// answered.
#[test]
fn mcv_reads_refusals_lost_commits_updates_batches_and_recoveries_are_pinned() {
    let to = |site| SiteId::new(site);
    let start = |site| Event::StartSent { to: to(site) };
    let commit = |site| Event::CommitSent {
        op: 1,
        to: to(site),
        polled_version: None,
    };
    let entry = |kind, version| CommittedOp {
        kind,
        origin: origin(),
        op: 0,
        version,
        participants: SiteSet::first_n(3),
    };
    let stats = |reads_ok, writes_ok, writes_refused, recovers_ok| OpStats {
        reads_ok,
        writes_ok,
        writes_refused,
        recovers_ok,
        ..OpStats::default()
    };

    // A read at S1, current but not the lowest current copy: the copy
    // comes from S0, and nothing is committed.
    let (mut cluster, events) = recording_cluster(Protocol::Mcv, 5u64);
    let (read, journal) = journaled(&mut cluster, &events, |c| c.read(to(1)));
    assert_eq!(read, Ok(5));
    assert_eq!(
        journal,
        [start(0), start(2), Event::CopySent { to: to(0) }],
        "a read"
    );
    assert_eq!(cluster.stats(), stats(1, 0, 0, 0));
    assert_eq!(
        cluster.history().last(),
        Some(&CommittedOp {
            origin: to(1),
            ..entry(AccessKind::Read, 1)
        })
    );
    assert_eq!(cluster.state_at(to(1)).op, 1, "a read commits nothing");

    // Every STATE reply lost: the poll retries twice, then the write is
    // refused — STARTs only, and no release.
    let (mut cluster, events) = recording_cluster(Protocol::Mcv, 5u64);
    cluster.write(origin(), 6).expect("write granted");
    for peer in [1, 2] {
        cluster.transport_mut().inner.bus_mut().inject(FaultRule {
            class: Some(MessageClass::State),
            from: Some(to(peer)),
            to: Some(origin()),
            action: FaultAction::Drop,
            remaining: 16,
        });
    }
    let (refused, journal) = journaled(&mut cluster, &events, |c| c.write(origin(), 7));
    assert!(
        matches!(refused, Err(AccessError::Timeout { .. })),
        "{refused:?}"
    );
    assert_eq!(
        journal,
        [start(1), start(2), start(1), start(2), start(1), start(2)],
        "a refused write"
    );
    assert_eq!(cluster.stats(), stats(0, 1, 1, 0));
    assert_eq!(cluster.history().last(), Some(&entry(AccessKind::Write, 2)));

    // S2's COMMIT dropped on all three attempts: indeterminate, and
    // still no release.
    let (mut cluster, events) = recording_cluster(Protocol::Mcv, 5u64);
    cluster
        .transport_mut()
        .inner
        .bus_mut()
        .inject(FaultRule::once(MessageClass::Commit, to(2), FaultAction::Drop).times(3));
    let (lost, journal) = journaled(&mut cluster, &events, |c| c.write(origin(), 7));
    assert_eq!(
        lost,
        Err(AccessError::Indeterminate {
            kind: AccessKind::Write,
            origin: origin(),
            applied: SiteSet::from_indices([0, 1]),
            missing: SiteSet::from_indices([2]),
        })
    );
    assert_eq!(
        journal,
        [
            start(1),
            start(2),
            commit(1),
            commit(2),
            commit(2),
            commit(2)
        ],
        "a write whose COMMIT to S2 is lost"
    );
    assert_eq!(cluster.stats(), stats(0, 0, 1, 0));
    assert_eq!(cluster.history().last(), None);

    // An update is a quorum read, then a write: two polls.
    let (mut cluster, events) = recording_cluster(Protocol::Mcv, 5u64);
    let (updated, journal) = journaled(&mut cluster, &events, |c| {
        c.update(origin(), 1, |current, base| {
            assert_eq!(base, None, "no version is pinned");
            Some(current + 1)
        })
    });
    assert_eq!(updated, Ok(Some(entry(AccessKind::Write, 2))));
    assert_eq!(
        journal,
        [start(1), start(2), start(1), start(2), commit(1), commit(2)],
        "an update"
    );
    assert_eq!(cluster.stats(), stats(1, 1, 0, 0));
    assert_eq!(cluster.history().last(), Some(&entry(AccessKind::Write, 2)));
    assert_eq!(cluster.value_at(to(2)), 6);

    // A batch of three is three serial rounds, at versions 2, 3 and 4.
    let (mut cluster, events) = recording_cluster(Protocol::Mcv, 5u64);
    let (batch, journal) = journaled(&mut cluster, &events, |c| {
        c.write_batch(origin(), vec![6, 7, 8])
    });
    assert_eq!(
        batch,
        [2, 3, 4].map(|version| Ok::<_, AccessError>(entry(AccessKind::Write, version)))
    );
    assert_eq!(
        journal,
        [
            [start(1), start(2), commit(1), commit(2)],
            [start(1), start(2), commit(1), commit(2)],
            [start(1), start(2), commit(1), commit(2)],
        ]
        .concat(),
        "a batch of three"
    );
    assert_eq!(cluster.stats(), stats(0, 3, 0, 0));
    assert_eq!(cluster.history().last(), Some(&entry(AccessKind::Write, 4)));

    // RECOVER of a down site: granted, and nothing is sent.
    let (mut cluster, events) = recording_cluster(Protocol::Mcv, 5u64);
    cluster.write(origin(), 6).expect("write granted");
    cluster.fail_site(to(2));
    let (recovered, journal) = journaled(&mut cluster, &events, |c| c.recover(to(2)));
    assert_eq!(recovered, Ok(()));
    assert!(journal.is_empty(), "a recovery: {journal:?}");
    assert_eq!(cluster.stats(), stats(0, 1, 0, 1));
    assert_eq!(cluster.history().last(), Some(&entry(AccessKind::Write, 2)));
}

/// Under MCV no operation number ever moves and every partition set
/// stays all copies: whatever runs — reads, writes, updates, batches,
/// recoveries, at up or down sites, granted or refused — every copy
/// still holds o = 1 and P = every copy.
#[test]
fn mcv_never_moves_an_operation_number_or_a_partition_set() {
    let copies = SiteSet::first_n(4);
    let mut cluster: Cluster<u64> = ClusterBuilder::new()
        .copies(0..4)
        .protocol(Protocol::Mcv)
        .build_with_value(0);
    for step in 0..64usize {
        let at = SiteId::new(step % 4);
        match step % 7 {
            0 => cluster.fail_site(SiteId::new(step * 5 % 4)),
            1 => cluster.repair_site(SiteId::new(step * 3 % 4)),
            2 => {
                let _ = cluster.write(at, step as u64);
            }
            3 => {
                let _ = cluster.read(at);
            }
            4 => {
                let _ = cluster.update(at, 1, |value, _| Some(value + 1));
            }
            5 => {
                let _ = cluster.write_batch(at, vec![step as u64; 2]);
            }
            _ => {
                let _ = cluster.recover(at);
            }
        }
        for site in copies.iter() {
            let state = cluster.state_at(site);
            assert_eq!((state.op, state.partition), (1, copies), "step {step}");
        }
    }
    assert!(cluster.stats().writes_ok > 0);
    assert!(cluster.checker().violations().is_empty());
}

/// Who a release is sent to: every site the operation polled that can
/// still hold its vote. A stale copy that answered the poll but is no
/// participant of the commit is named; a participant whose `COMMIT` was
/// lost is kept wedged and *not* named; a refused plan names everyone
/// polled, heard or not.
#[test]
fn a_release_names_the_polled_sites_no_commit_released() {
    let releases = |events: &Journal| -> Vec<Event> {
        events
            .lock()
            .expect("journal poisoned")
            .iter()
            .filter(|event| matches!(event, Event::Release { .. }))
            .copied()
            .collect()
    };

    // S2 misses a write and comes back without RECOVER: it answers the
    // next poll (and votes) but the commit's participants are S0, S1.
    let (mut cluster, events) = recording_cluster(Protocol::Odv, 0u64);
    cluster.fail_site(SiteId::new(2));
    cluster.write(origin(), 1).expect("write granted");
    cluster.repair_site(SiteId::new(2));
    events.lock().expect("journal poisoned").clear();
    cluster.write(origin(), 2).expect("write granted");
    assert_eq!(
        cluster.history().last().expect("recorded").participants,
        SiteSet::from_indices([0, 1])
    );
    assert_eq!(
        releases(&events),
        [Event::Release {
            keep: SiteSet::EMPTY,
            recipients: SiteSet::from_indices([2])
        }]
    );
    assert!(cluster.pending_sites().is_empty());

    // S2's COMMIT is lost past the retry budget: it stays wedged (in
    // `keep`), and a release it must not act on is not sent to it.
    let (mut cluster, events) = recording_cluster(Protocol::Odv, 0u64);
    cluster
        .transport_mut()
        .inner
        .bus_mut()
        .inject(FaultRule::once(MessageClass::Commit, SiteId::new(2), FaultAction::Drop).times(16));
    let lost = cluster.write(origin(), 1);
    assert!(
        matches!(lost, Err(AccessError::Indeterminate { .. })),
        "{lost:?}"
    );
    assert_eq!(
        releases(&events),
        [Event::Release {
            keep: SiteSet::from_indices([2]),
            recipients: SiteSet::EMPTY
        }]
    );
    assert_eq!(cluster.pending_sites(), SiteSet::from_indices([2]));

    // Both peers vote, both replies are lost: the plan is refused with
    // two votes outstanding that the coordinator never heard of. The
    // release reaches both.
    let (mut cluster, events) = recording_cluster(Protocol::Odv, 0u64);
    for peer in [1, 2] {
        cluster.transport_mut().inner.bus_mut().inject(FaultRule {
            class: Some(MessageClass::State),
            from: Some(SiteId::new(peer)),
            to: Some(origin()),
            action: FaultAction::Drop,
            remaining: 16,
        });
    }
    let refused = cluster.write(origin(), 1);
    assert!(
        matches!(refused, Err(AccessError::Timeout { .. })),
        "{refused:?}"
    );
    assert_eq!(
        releases(&events),
        [Event::Release {
            keep: SiteSet::EMPTY,
            recipients: SiteSet::from_indices([1, 2])
        }]
    );
    assert!(cluster.pending_sites().is_empty());
}

/// A coordinator that missed a write (down while S1 wrote, repaired
/// without RECOVER) holds a stale copy. Its update fetches the current
/// one *inside the vote* — after every `START`, before the commit
/// point — builds on the version the participants voted with, and
/// sends each of them a `COMMIT` naming that version: a delta a
/// transport may ship. The coordinator itself is no participant and
/// stays as stale as it was.
#[test]
fn a_stale_coordinator_fetches_the_copy_inside_the_vote() {
    for protocol in [Protocol::Odv, Protocol::Ldv, Protocol::Dv] {
        let (mut cluster, events) = recording_cluster(protocol, KeyedMap::new());
        cluster.fail_site(origin());
        let wrote = cluster.write_batch(
            SiteId::new(1),
            vec![with_puts(&KeyedMap::new(), &[("missed", 1)])],
        );
        assert!(wrote.iter().all(Result::is_ok), "{wrote:?}");
        cluster.repair_site(origin());
        let stale = cluster.state_at(origin());
        let current = cluster.state_at(SiteId::new(1)).version;
        assert_eq!(stale.version + 1, current);
        events.lock().expect("journal poisoned").clear();

        let mut told = None;
        let committed = cluster
            .update(origin(), 1, |map, base| {
                told = base;
                assert_eq!(map.get("missed"), Some(&1), "built on the stale copy");
                Some(with_puts(map, &[("k", 2)]))
            })
            .expect("update granted")
            .expect("the build wrote");
        assert_eq!(told, Some(current));
        assert_eq!(committed.version, current + 1);
        assert_eq!(committed.participants, SiteSet::from_indices([1, 2]));

        let events = events.lock().expect("journal poisoned");
        let kinds: Vec<&str> = events
            .iter()
            .map(|event| match event {
                Event::StartSent { .. } => "start",
                Event::CopySent { .. } => "copy",
                Event::Point { .. } => "point",
                Event::CommitSent { polled_version, .. } => {
                    assert_eq!(*polled_version, Some(current), "{protocol:?}: {events:?}");
                    "commit"
                }
                Event::Release { keep, recipients } => {
                    assert!(keep.is_empty() && recipients.is_empty(), "{events:?}");
                    "release"
                }
            })
            .collect();
        assert_eq!(
            kinds,
            ["start", "start", "copy", "point", "commit", "commit", "release"],
            "{protocol:?}: {events:?}"
        );
        drop(events);

        assert_eq!(
            cluster.state_at(origin()),
            stale,
            "the coordinator did not take part"
        );
        for site in [1, 2] {
            let map = cluster.value_at(SiteId::new(site));
            assert_eq!((map.get("missed"), map.get("k")), (Some(&1), Some(&2)));
        }
        assert!(cluster.pending_sites().is_empty());
        assert!(cluster.checker().violations().is_empty());
    }
}

/// Under message faults an update is all-or-nothing and leaves no vote
/// behind that its outcome does not bind: a lost fanout is
/// `Indeterminate` with only the unreached participants still wedged;
/// a copy that cannot be fetched, and a build that declines, release
/// everybody and move nothing; duplicates change nothing at all.
#[test]
fn updates_under_drop_and_dup_faults_are_all_or_nothing_and_release_their_votes() {
    // Both peers' COMMITs lost past the retry budget.
    let mut cluster = keyed_cluster(Protocol::Odv);
    for peer in [1, 2] {
        cluster.inject_fault(
            FaultRule::once(MessageClass::Commit, SiteId::new(peer), FaultAction::Drop).times(16),
        );
    }
    let lost = cluster.update(origin(), 1, |map, _| Some(with_puts(map, &[("k", 1)])));
    match lost {
        Err(AccessError::Indeterminate {
            applied, missing, ..
        }) => {
            assert_eq!(applied, SiteSet::from_indices([0]));
            assert_eq!(missing, SiteSet::from_indices([1, 2]));
        }
        other => panic!("a lost fanout must be indeterminate, got {other:?}"),
    }
    assert_eq!(cluster.pending_sites(), SiteSet::from_indices([1, 2]));
    assert_eq!(cluster.stats().writes_refused, 1);
    assert!(cluster.checker().violations().is_empty());

    // A stale coordinator whose copy requests are all lost: the update
    // times out as a write, with nothing moved and nobody wedged.
    let mut cluster = keyed_cluster(Protocol::Odv);
    cluster.fail_site(origin());
    let wrote = cluster.write_batch(
        SiteId::new(1),
        vec![with_puts(&KeyedMap::new(), &[("missed", 1)])],
    );
    assert!(wrote.iter().all(Result::is_ok), "{wrote:?}");
    cluster.repair_site(origin());
    let before: Vec<_> = (0..3)
        .map(|site| cluster.state_at(SiteId::new(site)))
        .collect();
    cluster.inject_fault(
        FaultRule::once(MessageClass::CopyRequest, SiteId::new(1), FaultAction::Drop).times(16),
    );
    let starved = cluster.update(origin(), 1, |_, _| {
        panic!("no value was fetched to build on")
    });
    assert!(
        matches!(
            starved,
            Err(AccessError::Timeout {
                kind: dynvote_types::AccessKind::Write,
                ..
            })
        ),
        "{starved:?}"
    );
    // A build that declines: granted, nothing written.
    cluster.clear_message_faults();
    let declined = cluster.update(origin(), 1, |_, _| None);
    assert_eq!(declined, Ok(None));
    let after: Vec<_> = (0..3)
        .map(|site| cluster.state_at(SiteId::new(site)))
        .collect();
    assert_eq!(after, before);
    assert!(cluster.pending_sites().is_empty());
    assert_eq!(
        cluster.stats().writes_refused,
        1,
        "a declined build is no refusal"
    );

    // Duplicated STATE replies and COMMITs: one version up, once.
    let mut cluster = keyed_cluster(Protocol::Odv);
    cluster.inject_fault(FaultRule {
        class: Some(MessageClass::State),
        from: Some(SiteId::new(1)),
        to: Some(origin()),
        action: FaultAction::Duplicate,
        remaining: 4,
    });
    cluster.inject_fault(
        FaultRule::once(MessageClass::Commit, SiteId::new(2), FaultAction::Duplicate).times(4),
    );
    let base = cluster.state_at(origin()).version;
    keyed_write(&mut cluster, &[("k", 1)]);
    for site in 0..3 {
        assert_eq!(cluster.state_at(SiteId::new(site)).version, base + 1);
        assert_eq!(cluster.value_at(SiteId::new(site)).get("k"), Some(&1));
    }
    assert!(cluster.pending_sites().is_empty());
    assert!(cluster.checker().violations().is_empty());
}
