//! Batched-commit equivalence: `Cluster::write_batch` must be
//! observationally identical to the serial writes it amortizes.
//!
//! Six angles:
//!
//! * **serial equivalence** — a fault-free K-batch leaves every site
//!   with the same final `⟨o, v, P⟩`, the same committed-op history,
//!   the same checker digest, and the same readable value as K
//!   back-to-back `write` calls;
//! * **commit-point ordering** — a recording transport wrapped around
//!   the nemesis bus proves the batch's single commit point (where a
//!   durable transport fsyncs its ledger record) fires strictly
//!   *before* any `COMMIT` frame leaves the coordinator, and carries
//!   the batch's final state;
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
//!   against that version; MCV, which wedges nobody, names none.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use dynvote_core::state::ReplicaState;
use dynvote_replica::{
    BusTransport, Carried, Cluster, ClusterBuilder, FaultAction, FaultRule, LocalServe,
    MessageClass, MessageKind, Protocol, Transport, WireRequest,
};
use dynvote_types::{AccessError, SiteId, SiteSet};

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
        assert_eq!(
            batched.checker().digest(),
            serial.checker().digest(),
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
    /// `commit_point` — the durable-ledger hook.
    Point { op: u64, version: u64 },
    /// A `COMMIT` frame handed to the wire, with the version the
    /// cluster says its recipient voted with.
    CommitSent {
        op: u64,
        to: SiteId,
        polled_version: Option<u64>,
    },
}

/// Wraps the nemesis bus and journals the transport-level events the
/// WAL/ledger safety argument is about.
struct RecordingTransport {
    inner: BusTransport,
    events: Arc<Mutex<Vec<Event>>>,
}

impl<T> Transport<T> for RecordingTransport {
    fn carry(&mut self, request: WireRequest<'_, T>, serve: LocalServe<'_, T>) -> Carried<T> {
        if let MessageKind::Commit { op, .. } = request.message.kind {
            self.events
                .lock()
                .expect("journal poisoned")
                .push(Event::CommitSent {
                    op,
                    to: request.message.to,
                    polled_version: request.polled_version,
                });
        }
        self.inner.carry(request, serve)
    }

    fn commit_point(&mut self, ticket: u64, state: ReplicaState, value: Option<&T>) {
        self.events
            .lock()
            .expect("journal poisoned")
            .push(Event::Point {
                op: state.op,
                version: state.version,
            });
        Transport::<T>::commit_point(&mut self.inner, ticket, state, value);
    }

    fn release(&mut self, ticket: u64, keep: SiteSet) {
        Transport::<T>::release(&mut self.inner, ticket, keep);
    }
}

/// The ledger hook fires exactly once per batch, carries the batch's
/// *final* state, and strictly precedes every `COMMIT` frame — the
/// ordering that lets a crashed coordinator's successor answer vote
/// probes instead of forking the lineage (DESIGN §10–11).
#[test]
fn the_commit_point_precedes_the_commit_fanout_and_covers_the_batch() {
    let events = Arc::new(Mutex::new(Vec::new()));
    let transport = RecordingTransport {
        inner: BusTransport::new(),
        events: Arc::clone(&events),
    };
    let mut cluster = ClusterBuilder::new()
        .copies([0, 1, 2])
        .protocol(Protocol::Odv)
        .build_with_transport(transport, 0u64);

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

/// The store's keyed read-modify-write, in miniature: one quorum read
/// of the map, the puts applied in order, one write of the result.
fn keyed_write<X: Transport<KeyedMap>>(cluster: &mut Cluster<KeyedMap, X>, puts: &[(&str, u64)]) {
    let mut map = cluster.read(origin()).expect("keyed read granted");
    for (key, value) in puts {
        map.insert((*key).to_string(), *value);
    }
    let results = cluster.write_batch(origin(), vec![map]);
    assert!(results.iter().all(Result::is_ok), "{results:?}");
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
    let events = Arc::new(Mutex::new(Vec::new()));
    let transport = RecordingTransport {
        inner: BusTransport::new(),
        events: Arc::clone(&events),
    };
    let mut cluster = ClusterBuilder::new()
        .copies([0, 1, 2])
        .protocol(protocol)
        .build_with_transport(transport, 0u64);
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
