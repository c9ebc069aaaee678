//! The batch worker: the single consumer of a shard daemon's
//! data-operation queue. It drains what queued under the cluster lock,
//! serves it in runs — one quorum round per run of writes, one quorum
//! read per run of reads — and releases no reply before the WAL holds
//! every state change the batch made (DESIGN.md §12).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use dynvote_control::KvPuts;

use super::{durability_refuse, fmt_sites, refuse, sync_durable, Daemon, StoreCluster};
use crate::wire::Frame;

/// A client data operation, decoupled from the session that carried
/// it: the batch worker executes these in queue order. The group's
/// value is a KV map (`ShardValue` keeps it decoded): the batch worker
/// folds a run of puts into one read-modify-write decided by one quorum
/// round ([`keyed_write`]), and serves a run of gets from one quorum
/// read.
pub(super) enum DataOp {
    PutKey { key: String, value: Vec<u8> },
    GetKey { key: String },
}

/// One queued data operation plus the completion that writes its reply
/// to the session that submitted it.
pub(super) struct PendingData {
    pub(super) op: DataOp,
    pub(super) done: Box<dyn FnOnce(Frame) + Send>,
}

/// The largest number of queued operations one batch absorbs — bounds
/// the cluster-lock hold and the blast radius of a durability failure.
const BATCH_CAP: usize = 256;

/// The batch worker: single consumer of the data-operation queue.
/// Drains what queued, serves it in runs — consecutive puts become one
/// poll/commit quorum exchange ([`keyed_write`]), consecutive gets
/// coalesce into one quorum read — and releases a reply only once the
/// WAL holds the batch (DESIGN.md §12).
pub(super) fn batch_loop(
    daemon: &Arc<Daemon>,
    shutdown: &AtomicBool,
    queue: &mpsc::Receiver<PendingData>,
) {
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let first = match queue.recv_timeout(Duration::from_millis(100)) {
            Ok(item) => item,
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        };
        // Take the lock first, then drain: every operation that queued
        // while the previous batch held it joins this one.
        let cluster = daemon.cluster.lock().expect("cluster poisoned");
        // Checked *under* the cluster lock: a map install sets the flag
        // before capturing state under this same lock, so a batch that
        // reaches here after the capture must not commit — its writes
        // would be invisible to the successor daemon. The typed stale
        // answer sends the client back for the new map.
        let retired = daemon.retired.load(Ordering::SeqCst);
        if retired != 0 {
            drop(cluster);
            let mut stale = vec![first];
            while let Ok(item) = queue.try_recv() {
                stale.push(item);
            }
            for item in stale {
                (item.done)(Frame::StaleShardMap { epoch: retired });
            }
            return;
        }
        let mut cluster = cluster;
        let mut items = vec![first];
        while items.len() < BATCH_CAP {
            match queue.try_recv() {
                Ok(item) => items.push(item),
                Err(_) => break,
            }
        }
        daemon.batch_rounds.fetch_add(1, Ordering::Relaxed);
        daemon
            .batch_ops
            .fetch_add(items.len() as u64, Ordering::Relaxed);
        daemon
            .batch_max
            .fetch_max(items.len() as u64, Ordering::Relaxed);
        let replies = run_batch(daemon, &mut cluster, items);
        // The replies leave with the lock dropped: a client that has
        // stopped reading can hold this worker for a write timeout, but
        // not the shard — peer frames and `status` wait on that lock.
        drop(cluster);
        for (done, frame) in replies {
            done(frame);
        }
    }
}

/// A data operation's completion and the reply to hand it.
type StagedReply = (Box<dyn FnOnce(Frame) + Send>, Frame);

/// Serves one drained batch under the cluster lock and only then
/// returns the replies for the caller to release — the batched
/// generalisation of fsync-before-ack: no acknowledgement in the batch
/// leaves before the WAL holds every state change the batch made. Each
/// round's commit point logged the coordinator's own commit (fsync'd)
/// before the commit took effect; a closing [`sync_durable`] logs
/// whatever else moved.
fn run_batch(
    daemon: &Arc<Daemon>,
    cluster: &mut StoreCluster,
    items: Vec<PendingData>,
) -> Vec<StagedReply> {
    // (completion, reply, Some(op name) when the reply is a grant that
    // a failed fsync must downgrade to a durability refusal).
    type Staged = (Box<dyn FnOnce(Frame) + Send>, Frame, Option<&'static str>);
    let mut replies: Vec<Staged> = Vec::with_capacity(items.len());
    let mut wrote = false;
    // What the crash hook compares: a batch whose commit point was
    // logged moved the durable state.
    let durable = || daemon.store.lock().expect("site store poisoned").state();
    let before = daemon.crash_after_wal_append.then(durable);
    let mut iter = items.into_iter().peekable();
    while let Some(item) = iter.next() {
        match item.op {
            DataOp::PutKey { key, value } => {
                wrote = true;
                // Only the last put of a key in the run can ever be
                // observed, so only it is committed: the delta stays
                // no larger than the map it changes, however often a
                // deep pipeline rewrites the same keys.
                let mut last_puts = BTreeMap::from([(key, value)]);
                let mut dones = vec![item.done];
                while matches!(
                    iter.peek().map(|next| &next.op),
                    Some(DataOp::PutKey { .. })
                ) {
                    let next = iter.next().expect("peeked");
                    if let DataOp::PutKey { key, value } = next.op {
                        last_puts.insert(key, value);
                        dones.push(next.done);
                    }
                }
                let puts = KvPuts(last_puts.into_iter().collect());
                let staged = keyed_write(daemon, cluster, &puts, dones.len() as u64);
                for (done, (frame, granted)) in dones.into_iter().zip(staged) {
                    replies.push((done, frame, granted));
                }
            }
            DataOp::GetKey { key } => {
                let mut keys = vec![key];
                let mut dones = vec![item.done];
                while matches!(
                    iter.peek().map(|next| &next.op),
                    Some(DataOp::GetKey { .. })
                ) {
                    let next = iter.next().expect("peeked");
                    if let DataOp::GetKey { key } = next.op {
                        keys.push(key);
                        dones.push(next.done);
                    }
                }
                // One quorum read of the image serves the whole run;
                // each key resolves against it. A missing key is a
                // *refusal* (the read itself was granted — the quorum
                // ruled, the key just is not there).
                match cluster.read(daemon.local) {
                    Ok(image) => {
                        // The version of the value *served*, from the
                        // read's committed history entry — the local
                        // copy may still be stale when a repaired site
                        // reads before running RECOVER.
                        let version = cluster.history().last().map_or_else(
                            || cluster.state_at(daemon.local).version,
                            |op| op.version,
                        );
                        daemon
                            .log
                            .log_with(|| format!("GRANT keyed read ×{}: v={version}", keys.len()));
                        for (key, done) in keys.into_iter().zip(dones) {
                            let frame = match image.kv().get(&key) {
                                Some(value) => Frame::Value {
                                    version,
                                    value: value.to_vec(),
                                },
                                None => Frame::Refused {
                                    message: format!("key {key:?} not found"),
                                },
                            };
                            replies.push((done, frame, Some("read")));
                        }
                    }
                    Err(err) => {
                        let frame = refuse(daemon, "keyed read", &err);
                        for done in dones {
                            replies.push((done, frame.clone(), None));
                        }
                    }
                }
            }
        }
    }
    // Whatever the outcomes, the WAL must hold the local state before
    // any reply leaves; the commit points have logged the commits, so
    // this usually writes nothing.
    let synced = sync_durable(daemon, cluster);
    if wrote && synced.is_ok() && before.is_some_and(|before| durable() != before) {
        // Crash-test hook: the WAL holds the commit point, the client
        // never hears about it. The restart must serve it anyway —
        // fsync-before-ack, proven from outside.
        daemon
            .log
            .log("crash-after-wal-append: aborting before the ack");
        std::process::abort();
    }
    let fsync_failed = synced.err();
    replies
        .into_iter()
        .map(|(done, frame, granted)| match (&fsync_failed, granted) {
            (Some(error), Some(op)) => (done, durability_refuse(daemon, op, error)),
            _ => (done, frame),
        })
        .collect()
}

/// The read-modify-write behind a run of `requests` keyed puts, in ONE
/// quorum round ([`Cluster::update`]): the write's own poll wedges a
/// majority at the maximal version, the shard's KV map is taken at that
/// version — this site's resident copy when it is current, one copy
/// transfer inside the vote when it is not — the run's puts are applied
/// (the last put of each key), and the commit ships them as a *delta*
/// on the version every participant voted with. The run commits one
/// version per put, as serial puts would, and each put's reply names
/// its own ⟨o, v⟩. Atomic at whichever site runs it: no other update
/// can build on that version while the majority is wedged. (MCV wedges
/// nobody, pins no version and writes the whole image: there, two sites
/// updating at once can lose one of the updates — DESIGN.md §14.)
fn keyed_write(
    daemon: &Arc<Daemon>,
    cluster: &mut StoreCluster,
    puts: &KvPuts,
    requests: u64,
) -> Vec<(Frame, Option<&'static str>)> {
    let mut delta = None;
    let result = cluster.update(daemon.local, requests, |current, base| {
        let next = current.with_puts(puts, base);
        delta = next.delta().cloned();
        Some(next)
    });
    match result.map(|first| first.expect("the build always writes")) {
        Ok(first) => {
            daemon.log.log_with(|| {
                format!(
                    "GRANT keyed write ×{requests}: committed o={} v={}..{} P={{{}}} — one folded \
                     {} commit of {} key(s)",
                    first.op,
                    first.version,
                    first.version + requests - 1,
                    fmt_sites(first.participants),
                    if delta.is_some() { "delta" } else { "image" },
                    puts.0.len(),
                )
            });
            (0..requests)
                .map(|i| {
                    let op = first.later(i);
                    let detail = format!(
                        "committed o={} v={} P={{{}}}",
                        op.op,
                        op.version,
                        fmt_sites(op.participants)
                    );
                    (Frame::Done { detail }, Some("write"))
                })
                .collect()
        }
        Err(err) => vec![(refuse(daemon, "keyed write", &err), None); requests as usize],
    }
}
