//! Per-layer probes: timed calls into each layer's public functions,
//! at the sizes the workload used. A probe reports the median time of
//! one call; every call (or every run of calls, for those too short to
//! time singly) is also a span named `<layer>.<fn>` in a traced run.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use dynvote_control::{decode_kv, encode_kv, ShardMap};
use dynvote_core::decision::{decide, Rule};
use dynvote_core::state::{ReplicaState, StateTable};
use dynvote_replica::wal::{SiteStore, WalRecord};
use dynvote_replica::{ClusterBuilder, Protocol};
use dynvote_store::probe::{OpLedger, LEDGER_FILE};
use dynvote_store::wire::Frame;
use dynvote_types::{SiteId, SiteSet};

use crate::report::WorkloadResult;
use crate::stats;
use crate::trace::Tracer;

/// Where a probe's spans hang.
pub struct Probe<'a> {
    pub tracer: &'a Tracer,
    pub parent: u64,
}

impl Probe<'_> {
    /// Median seconds per call of `call`, over `samples` samples of
    /// `calls_per_sample` calls each; `prepare` builds each call's
    /// input outside the timed region.
    pub fn time<I>(
        &self,
        name: &'static str,
        samples: usize,
        calls_per_sample: usize,
        mut prepare: impl FnMut() -> I,
        mut call: impl FnMut(I),
    ) -> f64 {
        let mut per_call = Vec::with_capacity(samples);
        for _ in 0..samples {
            let inputs: Vec<I> = (0..calls_per_sample).map(|_| prepare()).collect();
            let start = Instant::now();
            for input in inputs {
                call(input);
            }
            let end = Instant::now();
            self.tracer.span(name, self.parent, 0, start, end);
            per_call.push(end.duration_since(start).as_secs_f64() / calls_per_sample as f64);
        }
        stats::median(&per_call)
    }
}

/// A mid-history state table over `n` copies: the partition set has
/// shrunk once and one copy is stale, so the decision runs its
/// max-op and max-version scans (as `crates/bench/benches/decision.rs`).
fn mid_history(n: usize) -> (SiteSet, SiteSet, StateTable) {
    let copies = SiteSet::first_n(n);
    let mut states = StateTable::fresh(copies);
    let shrunk = copies.without(copies.max().expect("non-empty"));
    states.commit(shrunk, 7, 5, shrunk);
    let reachable = copies.without(copies.min().expect("non-empty"));
    (copies, reachable, states)
}

/// Algorithm 1 under ODV's rule, 3 and 8 copies. Runs on every
/// workload: the store, the checker and the simulator all decide.
pub fn core(probe: &Probe, out: &mut WorkloadResult) {
    let rule = Rule::lexicographic();
    for (n, metric) in [(3, "core.decide3_ns"), (8, "core.decide8_ns")] {
        let (copies, reachable, states) = mid_history(n);
        let secs = probe.time(
            "core.decide",
            30,
            10_000,
            || (),
            |()| {
                black_box(decide(black_box(reachable), copies, &states, &rule, None).is_granted());
            },
        );
        out.set(metric, secs * 1e9);
    }
}

/// The codecs and the in-memory cluster at the workload's sizes:
/// `kv.*`, `wire.*`, `map.*`, `cluster.bus_*`.
pub fn codecs_and_bus(
    probe: &Probe,
    map: &BTreeMap<String, Vec<u8>>,
    shard_map: &ShardMap,
    out: &mut WorkloadResult,
) {
    let image = encode_kv(map);
    let (key, value) = map.iter().next().expect("a loaded map");

    out.set("kv.image_bytes", image.len() as f64);
    let secs = probe.time(
        "kv.encode_kv",
        30,
        1,
        || (),
        |()| {
            black_box(encode_kv(black_box(map)));
        },
    );
    out.set("kv.encode_us", secs * 1e6);
    let secs = probe.time(
        "kv.decode_kv",
        30,
        1,
        || (),
        |()| {
            black_box(decode_kv(black_box(&image)));
        },
    );
    out.set("kv.decode_us", secs * 1e6);

    let put = Frame::PutKey {
        epoch: shard_map.epoch,
        shard: crate::fleet::SHARD,
        key: key.clone(),
        value: value.clone(),
    };
    let secs = probe.time(
        "wire.encode_tagged",
        30,
        1000,
        || (),
        |()| {
            black_box(black_box(&put).encode_tagged(7));
        },
    );
    out.set("wire.encode_putkey_ns", secs * 1e9);
    let put_bytes = put.encode_tagged(7);
    let secs = probe.time(
        "wire.decode",
        30,
        1000,
        || (),
        |()| {
            black_box(Frame::decode(black_box(&put_bytes[4..])).expect("own encoding"));
        },
    );
    out.set("wire.decode_putkey_ns", secs * 1e9);

    let state = ReplicaState {
        op: 9,
        version: 7,
        partition: SiteSet::first_n(3),
    };
    let commit = Frame::Commit {
        ticket: 1 << 48,
        from: SiteId::new(0),
        to: SiteId::new(1),
        state,
        value: Some(image.clone()),
    };
    let commit_bytes = commit.encode();
    out.set("wire.commit_frame_bytes", commit_bytes.len() as f64);
    let secs = probe.time(
        "wire.encode",
        30,
        1,
        || (),
        |()| {
            black_box(black_box(&commit).encode());
        },
    );
    out.set("wire.encode_commit_us", secs * 1e6);
    let secs = probe.time(
        "wire.decode",
        30,
        1,
        || (),
        |()| {
            black_box(Frame::decode(black_box(&commit_bytes[4..])).expect("own encoding"));
        },
    );
    out.set("wire.decode_commit_us", secs * 1e6);

    let secs = probe.time(
        "map.shard_of",
        30,
        10_000,
        || (),
        |()| {
            black_box(shard_map.shard_of(black_box(key.as_bytes())));
        },
    );
    out.set("map.shard_of_ns", secs * 1e9);

    // The protocol without sockets or disk: what a quorum round costs
    // in `replica::cluster` alone when the value is the shard image.
    let origin = SiteId::new(0);
    let mut cluster = ClusterBuilder::new()
        .copies(0..3)
        .protocol(Protocol::Odv)
        .build_with_value(image.clone());
    let delivered_before = cluster.bus().stats().delivered;
    let writes = 30;
    let secs = probe.time(
        "cluster.write_batch",
        writes,
        1,
        || vec![image.clone()],
        |values| {
            let results = cluster.write_batch(origin, values);
            assert!(results.iter().all(Result::is_ok), "bus write refused");
        },
    );
    out.set("cluster.bus_write_us", secs * 1e6);
    let delivered = cluster.bus().stats().delivered - delivered_before;
    out.set(
        "cluster.messages_per_write",
        delivered as f64 / writes as f64,
    );
    // 64 values of one key's size in one batch: the protocol cost a
    // batch amortizes, without the image.
    let secs = probe.time(
        "cluster.write_batch",
        30,
        1,
        || vec![value.clone(); 64],
        |values| {
            let results = cluster.write_batch(origin, values);
            assert!(results.iter().all(Result::is_ok), "bus batch refused");
        },
    );
    out.set("cluster.bus_write_batch64_us_per_op", secs * 1e6 / 64.0);
    cluster
        .write(origin, image.clone())
        .expect("bus write refused");
    let secs = probe.time(
        "cluster.read",
        30,
        1,
        || (),
        |()| {
            black_box(cluster.read(origin).expect("bus read refused"));
        },
    );
    out.set("cluster.bus_read_us", secs * 1e6);
}

/// Stable storage at the workload's image size, on `scratch` (a
/// directory on the same filesystem as the fleet's data): `wal.log_us`,
/// `wal.snapshot_us`, `wal.bytes_per_record`, `ledger.note_commit_us`,
/// `ledger.bytes_per_commit`. Every timed call ends in an fsync.
pub fn storage(probe: &Probe, image: &[u8], scratch: &Path, out: &mut WorkloadResult) {
    if scratch.exists() {
        std::fs::remove_dir_all(scratch).expect("clearing the probe directory");
    }
    std::fs::create_dir_all(scratch).expect("creating the probe directory");
    let mut state = ReplicaState {
        op: 1,
        version: 1,
        partition: SiteSet::first_n(3),
    };

    // Snapshots are timed on their own, so the log never takes one.
    let (mut store, _) = SiteStore::open(&scratch.join("wal"), 0).expect("opening the probe WAL");
    store
        .seed(state, None, Some(image.to_vec()))
        .expect("seeding the probe WAL");
    let (records_before, bytes_before) = (store.wal_records(), store.wal_bytes());
    let secs = probe.time(
        "wal.log",
        20,
        1,
        || {
            state.op += 1;
            state.version += 1;
            WalRecord::Commit {
                state,
                value: Some(image.to_vec()),
            }
        },
        |record| store.log(record).expect("probe WAL append"),
    );
    out.set("wal.log_us", secs * 1e6);
    let records = store.wal_records() - records_before;
    out.set(
        "wal.bytes_per_record",
        (store.wal_bytes() - bytes_before) as f64 / records as f64,
    );
    let secs = probe.time(
        "wal.snapshot_now",
        8,
        1,
        || (),
        |()| {
            store.snapshot_now().expect("probe snapshot");
        },
    );
    out.set("wal.snapshot_us", secs * 1e6);

    let ledger_dir = scratch.join("ledger");
    std::fs::create_dir_all(&ledger_dir).expect("creating the probe ledger directory");
    let mut ledger = OpLedger::open(&ledger_dir).expect("opening the probe ledger");
    let image = image.to_vec();
    let commits = 20;
    let mut ticket = 0u64;
    let secs = probe.time(
        "ledger.note_commit",
        commits,
        1,
        || {
            ticket += 1;
            ticket
        },
        |ticket| {
            ledger
                .note_commit(ticket, state, Some(&image))
                .expect("probe ledger append");
        },
    );
    out.set("ledger.note_commit_us", secs * 1e6);
    let file_bytes = std::fs::metadata(ledger_dir.join(LEDGER_FILE)).map_or(0, |m| m.len());
    out.set(
        "ledger.bytes_per_commit",
        file_bytes as f64 / commits as f64,
    );

    drop((store, ledger));
    std::fs::remove_dir_all(scratch).expect("deleting the probe directory");
}
