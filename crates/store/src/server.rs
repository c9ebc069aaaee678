//! The `dynvote-stored` daemon: one site of a live voting cluster.
//!
//! A process is the sharded service: a shard map (one group on every
//! site unless `--shards` says otherwise) and, for each shard group
//! placed at this site, a per-shard daemon that owns exactly one
//! participant — built with [`ClusterBuilder::build_remote`], so the
//! [`Cluster`] holds only the local node and reaches every other site
//! through a [`TcpTransport`]. One TCP listener serves every frame
//! family, each routed once (`route`: correlation tag, then envelope,
//! then dispatch):
//!
//! * **peer frames** (inside a shard envelope) run the recipient side
//!   of Figures 1–3/5–7 via [`Cluster::serve_at`] — the *same* handler
//!   the in-memory transport's callback invokes, which is the whole
//!   point of the transport seam;
//! * **client data frames** — raw `put`/`get`/`recover` inside a shard
//!   envelope, keyed `putk`/`getk` routed by the map — run the
//!   coordinator side via [`Cluster::write_batch`]/`update`/`read`/
//!   `recover`;
//! * **control and admin frames** fetch or install the shard map,
//!   mutate the shared [`LinkRules`] to cut or heal links at runtime,
//!   and report status.
//!
//! This module boots the service and its per-shard daemons and owns the
//! durability seam and the shard-map install; `session` holds the
//! connection loop, routing and the reply rule, `batch` the batch
//! worker, `peer` the per-shard frame dispatch, `wedge` the wedge-probe
//! loop and `status` the two status bodies.
//!
//! Concurrency model: one `Mutex<Cluster>` per shard group guards all
//! of its protocol state.
//! A coordinated operation holds the lock across its network
//! exchanges; inbound peer frames wait on the same lock. Two daemons
//! coordinating at each other simultaneously therefore serve each
//! other only between operations — the socket read timeouts bound the
//! wait, the poll's bounded retry absorbs it, and the worst case is an
//! honest `Timeout` refusal, never a deadlock (see DESIGN.md §9).
//!
//! Sessions are persistent and pipelined (DESIGN.md §12): a client may
//! keep one connection open and send any number of
//! [`Frame::Tagged`]-wrapped data requests without waiting; a reply
//! carries its request's tag, or none, and replies come back in
//! completion order.
//! Client data operations do not run on the session thread — they
//! queue for the daemon's single *batch worker*, which drains the
//! queue under the cluster lock and serves runs of consecutive writes
//! through one poll/commit quorum exchange ([`Cluster::write_batch`];
//! keyed puts through [`Cluster::update`], which reads the shard map
//! under that same vote) and runs of reads through one quorum read,
//! and acknowledges nothing before the WAL holds every state change the
//! batch made; then it writes each session's replies, in queue order,
//! with one write. An untagged data frame goes through the same queue
//! and the same write; its session reads no further frame until the
//! reply is written, which is all "one at a time" is.
//!
//! Every grant and refusal is logged with the paper clause that fired,
//! so a partition experiment reads as a protocol trace.
//!
//! Every daemon is *durable* (DESIGN.md §10): every protocol event that
//! changes the local ⟨o, v, P⟩, data, or outstanding vote is appended
//! to a fsync'd write-ahead log under `--data-dir` **before** the
//! matching acknowledgement (state reply, commit ack, or client
//! `Done`) leaves the site. A coordinator's own commit is logged by its
//! transport at the commit point, one record that the vote-probe ledger
//! is rebuilt from too; everything else passes through `sync_durable`,
//! the seam every dispatch arm shares. A restart restores snapshot +
//! WAL and then retries the protocol-level RECOVER (Figures 3/7), as
//! its batch worker's first job, to catch up from the majority
//! partition.

use std::fs::File;
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use dynvote_control::{fold_image, ShardMap, ShardSpec};
use dynvote_core::state::ReplicaState;
use dynvote_replica::wal::{shard_dir, SiteStore, WalRecord, SNAPSHOT_FILE, WAL_FILE};
use dynvote_replica::{Cluster, ClusterBuilder};
use dynvote_types::{AccessError, SiteId, SiteSet};

use crate::config::Config;
use crate::probe::{epoch_floor, OpLedger, LEDGER_FILE};
use crate::tcp::{LinkRules, TcpTransport};
use crate::value::ShardValue;
use crate::wire::{Frame, UnavailableReason};

mod batch;
mod peer;
mod session;
mod status;
mod wedge;

use batch::{batch_loop, PendingData};
use session::accept_loop;
use wedge::wedge_probe_loop;

/// The epoch of the shard map a daemon boots with when its data
/// directory holds none.
pub const BOOT_EPOCH: u64 = 1;

/// The paper clause behind a refusal — every ABORT in Figures 1–3/5–7
/// traces back to one of these.
#[must_use]
pub fn refusal_clause(err: &AccessError) -> &'static str {
    match err {
        AccessError::NoQuorum { .. } => {
            "Algorithm 1, step 3: the reachable votes are not a strict majority of the partition set P_m"
        }
        AccessError::TieLost { .. } => {
            "Algorithm 1, tie-break: exactly half of P_m reachable, without its highest-ranked site"
        }
        AccessError::NoCurrentCopy { .. } => {
            "Figures 1/5: no current full copy among the reachable sites"
        }
        AccessError::OriginUnavailable { .. } => {
            "the requesting site belongs to no reachable group"
        }
        AccessError::Timeout { .. } => {
            "bounded retry exhausted: reachable sites stayed silent, so the coordinator cannot rule on the partition"
        }
        AccessError::Indeterminate { .. } => {
            "Figure 2, commit fan-out: the COMMIT did not close at every participant (partial commit)"
        }
        AccessError::Unrecorded { .. } => {
            "commit point: the coordinator's WAL could not record the decision, so nothing committed"
        }
    }
}

/// Comma-separated site indices — status/log-friendly [`SiteSet`].
fn fmt_sites(set: SiteSet) -> String {
    let mut out = String::new();
    for site in set.iter() {
        if !out.is_empty() {
            out.push(',');
        }
        out.push_str(&site.index().to_string());
    }
    if out.is_empty() {
        out.push('-');
    }
    out
}

struct Logger {
    site: usize,
    file: Option<Mutex<File>>,
    /// Drop the stderr copy (`--quiet`): under a load driver the
    /// terminal write, not the protocol, would dominate the profile.
    quiet: bool,
}

impl Logger {
    /// Whether a line goes anywhere at all — `--quiet` without a log
    /// file discards every one.
    fn enabled(&self) -> bool {
        !self.quiet || self.file.is_some()
    }

    /// [`Logger::log`] for the hot path: the line is built only when it
    /// will be written.
    fn log_with(&self, line: impl FnOnce() -> String) {
        if self.enabled() {
            self.log(&line());
        }
    }

    fn log(&self, line: &str) {
        if !self.enabled() {
            return;
        }
        let stamp = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis())
            .unwrap_or(0);
        let full = format!("[{stamp}] S{} {line}", self.site);
        if !self.quiet {
            eprintln!("{full}");
        }
        if let Some(file) = &self.file {
            if let Ok(mut file) = file.lock() {
                let _ = writeln!(file, "{full}");
            }
        }
    }
}

/// The cluster one daemon runs: its own participant, every peer behind
/// the TCP transport.
type StoreCluster = Cluster<ShardValue, TcpTransport>;

struct Daemon {
    cluster: Mutex<StoreCluster>,
    links: Arc<LinkRules>,
    local: SiteId,
    policy_name: &'static str,
    log: Arc<Logger>,
    /// Which shard group this daemon hosts. Outbound peer frames are
    /// wrapped in [`Frame::Shard`] so the receiving service routes them
    /// to its matching per-shard daemon.
    shard: u16,
    /// Non-zero once a shard-map install replaced this daemon: the map
    /// epoch that retired it. Checked under the cluster lock by every
    /// path that could still commit or touch the (now shared) durable
    /// directory — queued data operations answer `StaleShardMap` with
    /// this epoch, and the background loops exit. Shared with the
    /// transport, which stops logging commit points.
    retired: Arc<AtomicU64>,
    /// Durable storage, shared with the transport, which logs commit
    /// points and aborts.
    store: Arc<Mutex<SiteStore>>,
    /// Crash-test hook: abort after a client write's commit point is
    /// durable, before the ack (see `Config::crash_after_wal_append`).
    crash_after_wal_append: bool,
    /// Finished-operation ledger shared with the transport — answers
    /// `VOTE-PROBE` frames without touching the cluster lock.
    ledger: Arc<Mutex<OpLedger>>,
    /// The commit fence dead incarnations left behind: tickets of older
    /// epochs above it provably never reached a commit point.
    boot_fence: u64,
    /// This incarnation's boot epoch (16-bit, as salted into tickets).
    boot_epoch: u64,
    /// Peer client addresses, for the wedge-probe loop.
    peers: Vec<(SiteId, String)>,
    /// Wedges resolved by probing (released / late commits applied).
    probe_released: std::sync::atomic::AtomicU64,
    probe_commits: std::sync::atomic::AtomicU64,
    /// The data-operation queue feeding the batch worker; `None` only
    /// wakes it.
    batch: mpsc::Sender<Option<PendingData>>,
    /// Batch-worker counters for `status`: batches run, operations
    /// served through them, and the largest single batch.
    batch_rounds: AtomicU64,
    batch_ops: AtomicU64,
    batch_max: AtomicU64,
    /// Commit deltas this site applied to its copy and acknowledged.
    delta_installs: AtomicU64,
}

/// Folds the local participant's current protocol state into the
/// durable store: appends the WAL records that bring the store's
/// ⟨o, v, P⟩ + data + outstanding vote up to the node's, fsync'ing
/// each ([`ShardValue::install_record`] for the data). Call this
/// *before* letting any acknowledgement leave the site; on `Ok` the
/// acknowledged state survives a crash. A coordinator's own commits
/// need none of this: its transport logged each at its commit point.
///
/// Always called with the cluster lock held, so the comparison and the
/// append are atomic with respect to other operations.
fn sync_durable(daemon: &Daemon, cluster: &StoreCluster) -> std::io::Result<()> {
    if daemon.retired.load(Ordering::SeqCst) != 0 {
        // A shard-map install replaced this daemon and its successor
        // now owns the shard's data directory; writing here would
        // interleave two WAL writers. The install captured this
        // cluster's state under its lock *after* setting the flag, so
        // nothing acknowledged through the successor is lost.
        return Ok(());
    }
    let mut store = daemon.store.lock().expect("site store poisoned");
    let state = cluster.state_at(daemon.local);
    let pending = cluster.pending_at(daemon.local);
    let durable = store.state();
    if durable != state {
        let record = if cluster.copies().contains(daemon.local) {
            cluster
                .value_at(daemon.local)
                .install_record(state, durable.version)
        } else {
            WalRecord::Commit { state, value: None }
        };
        store.log(record)?;
    }
    if store.pending() != pending {
        let record = match pending {
            Some(ticket) => WalRecord::Vote { ticket },
            None => WalRecord::Release {
                ticket: store.pending().unwrap_or(0),
            },
        };
        store.log(record)?;
    }
    Ok(())
}

/// The service's stop flag and the threads [`ServiceHandle::stop`]
/// joins: the accept loop, the sessions, and each shard daemon's batch
/// worker and wedge probe, each with how to wake it. The stop unparks
/// every one of them too, which is all a thread that sleeps in
/// [`std::thread::park_timeout`] needs.
#[derive(Default)]
struct Stop {
    stopped: AtomicBool,
    threads: Mutex<Vec<(JoinHandle<()>, Wake)>>,
}

/// How the stop wakes a thread that waits on something of its own.
type Wake = Box<dyn Fn() + Send>;

impl Stop {
    fn is_set(&self) -> bool {
        self.stopped.load(Ordering::SeqCst)
    }

    /// Runs `body` on a thread named `name` that the stop joins, waking
    /// it with `wake` first.
    fn spawn(
        &self,
        name: String,
        wake: impl Fn() + Send + 'static,
        body: impl FnOnce() + Send + 'static,
    ) -> std::io::Result<()> {
        let thread = std::thread::Builder::new().name(name).spawn(body)?;
        let mut threads = self.threads.lock().expect("stop poisoned");
        // Finished threads leave here, so the registry holds the live
        // ones, not every session ever accepted.
        threads.retain(|(thread, _)| !thread.is_finished());
        threads.push((thread, Box::new(wake)));
        Ok(())
    }

    /// Wakes and joins every registered thread, and then any thread
    /// one of them started meanwhile (a session the accept loop took
    /// before the stop, a map install's successor).
    fn join_all(&self) {
        loop {
            let threads = std::mem::take(&mut *self.threads.lock().expect("stop poisoned"));
            if threads.is_empty() {
                return;
            }
            for (thread, wake) in &threads {
                thread.thread().unpark();
                wake();
            }
            // A thread that panicked has said so on stderr; the stop
            // still joins the rest.
            for (thread, _) in threads {
                let _ = thread.join();
            }
        }
    }
}

/// A running daemon: its bound address and a stop handle.
pub struct ServiceHandle {
    addr: SocketAddr,
    stop: Arc<Stop>,
}

impl ServiceHandle {
    /// The address the daemon is accepting on.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the daemon and joins every thread it started: the accept
    /// loop, each session (its socket shut down), and each shard
    /// daemon's batch worker and wedge probe. A thread in a quorum
    /// round or a probe finishes it first; none waits out an idle tick.
    /// Nothing of the stopped incarnation touches its data directory
    /// after this returns.
    pub fn stop(self) {
        self.stop.stopped.store(true, Ordering::SeqCst);
        self.stop.join_all();
    }
}

/// Starts a daemon on the address named in the config, retrying a busy
/// address for up to `config.bind_retry` — a daemon restarted right
/// after a `kill -9` can race the kernel's cleanup of the dead
/// process's sockets on the same port.
///
/// # Errors
///
/// Bad topology descriptions surface as `InvalidInput`; bind failures
/// pass through (after the retry window, for `AddrInUse`).
pub fn start(config: Config) -> std::io::Result<ServiceHandle> {
    let deadline = Instant::now() + config.bind_retry;
    let listener = loop {
        match TcpListener::bind(config.listen_addr()) {
            Ok(listener) => break listener,
            Err(error)
                if error.kind() == std::io::ErrorKind::AddrInUse && Instant::now() < deadline =>
            {
                std::thread::sleep(Duration::from_millis(100));
            }
            Err(error) => return Err(error),
        }
    };
    start_on(config, listener)
}

/// One `dynvote-stored` process: the shared fault fabric, the logger,
/// the shard map, and one slot per shard in it, each holding the
/// per-shard [`Daemon`] when the local site is in that shard's
/// placement.
struct Service {
    config: Config,
    links: Arc<LinkRules>,
    log: Arc<Logger>,
    /// `slots[k]` is shard `k`'s daemon — `None` when this site is not
    /// in its placement. A shard-map install takes the write lock to
    /// swap a slot; every per-frame route holds the read lock, so a
    /// swap waits out in-flight dispatches.
    slots: Vec<RwLock<Option<Arc<Daemon>>>>,
    /// The current shard map. Keyed operations carry the epoch they
    /// routed by; a mismatch answers `StaleShardMap{current}`.
    map: Mutex<ShardMap>,
    /// Shared with every daemon's background threads — successor
    /// daemons booted by a map install must observe the same stop.
    stop: Arc<Stop>,
}

/// Builds and starts shard `shard`'s [`Daemon`]: transport, durable
/// restore or seed under the shard's data directory, ticket salting,
/// and the two background threads. `override_state` installs captured
/// in-process state on top of whatever the disk held — the shard-map
/// install path hands the old incarnation's image to its successor
/// this way.
fn boot_daemon(
    config: &Config,
    links: &Arc<LinkRules>,
    log: &Arc<Logger>,
    stop: &Arc<Stop>,
    shard: u16,
    copies: Vec<usize>,
    override_state: Option<(ReplicaState, ShardValue, Option<u64>)>,
) -> std::io::Result<Arc<Daemon>> {
    let network = config
        .network()
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
    // Each shard group gets its own durable namespace under the base
    // data directory — independent voting groups, independent WALs.
    // The transport logs this incarnation's commit points and aborts
    // in it, and the vote-probe ledger is rebuilt from what dead
    // incarnations logged there.
    let dir = shard_dir(&config.data_dir, shard);
    let (store, restored) = SiteStore::open_with_fold(&dir, config.snapshot_every, fold_image)?;
    let store = Arc::new(Mutex::new(store));
    let transport = TcpTransport::new(
        config.local,
        shard,
        &config.peers,
        Arc::clone(links),
        config.timeouts,
        Arc::clone(&store),
        OpLedger::open(&dir)?,
    );
    let ledger = transport.ledger();
    let retired = transport.retired();
    // A group's replicated value is a KV map, empty at boot.
    let mut cluster = ClusterBuilder::new()
        .network(network)
        .copies(copies)
        .protocol(config.policy)
        .build_remote(config.local.index(), transport, ShardValue::default());

    // Restore snapshot + WAL replay into the local node, or seed a
    // fresh data directory with the boot state.
    let mut restored_from_disk = false;
    let mut disk = store.lock().expect("site store poisoned");
    if restored.snapshot_was_corrupt {
        log.log("durable restore: snapshot failed validation, moved aside; falling back");
    }
    if restored.used_previous_snapshot {
        log.log("durable restore: recovered from previous-generation snapshot + parked WAL");
    }
    match restored.wal_tail {
        dynvote_replica::WalTail::Clean => {}
        tail => log.log(&format!("durable restore: WAL tail repaired ({tail})")),
    }
    match restored.image {
        Some(image) => {
            log.log(&format!(
                "durable restore: o={} v={} P={{{}}} pending={} seq={} wal_replayed={}",
                image.state.op,
                image.state.version,
                fmt_sites(image.state.partition),
                image
                    .pending
                    .map_or_else(|| "-".to_string(), |t| t.to_string()),
                image.seq,
                restored.replayed,
            ));
            let value = image
                .value
                .map(|bytes| {
                    ShardValue::from_image(&bytes).ok_or_else(|| {
                        std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            format!(
                                "{} and {} hold an image that is not a canonical KV map",
                                dir.join(SNAPSHOT_FILE).display(),
                                dir.join(WAL_FILE).display()
                            ),
                        )
                    })
                })
                .transpose()?;
            cluster.install_durable_state(config.local, image.state, value, image.pending);
            restored_from_disk = true;
        }
        None => {
            let state = cluster.state_at(config.local);
            let value = cluster
                .copies()
                .contains(config.local)
                .then(|| cluster.value_at(config.local).to_image());
            disk.seed(state, cluster.pending_at(config.local), value)?;
            log.log(&format!(
                "durable boot: fresh data dir seeded at {}",
                dir.display()
            ));
        }
    }
    // A directory last served by a daemon that kept its commit points
    // in a ledger file of their own: fence this epoch durably, then
    // drop the file.
    let legacy_ledger = dir.join(LEDGER_FILE);
    if legacy_ledger.exists() {
        disk.fence()?;
        std::fs::remove_file(&legacy_ledger)?;
        File::open(&dir)?.sync_all()?;
    }
    if disk.fence_epoch() == disk.epoch() {
        log.log("durable restore: commit points may have been lost; dead epochs fenced");
    }
    // Salt the vote-ticket namespace with the boot epoch: a restarted
    // coordinator must never reissue a pre-crash ticket number, or a
    // site the old incarnation left wedged under it would mistake the
    // new operation for the old one and vote again. 16 bits of epoch
    // inside the site's 48-bit-shifted namespace bounds this to 65 535
    // restarts before wraparound.
    cluster.advance_ticket_past(epoch_floor(config.local, disk.epoch()));
    let boot_epoch = disk.epoch() & 0xFFFF;
    let boot_fence = disk
        .high_water()
        .max(epoch_floor(config.local, disk.fence_epoch()));
    drop(disk);

    let policy_name = cluster.protocol().name();
    let (batch_tx, batch_rx) = mpsc::channel();
    let daemon = Arc::new(Daemon {
        cluster: Mutex::new(cluster),
        links: Arc::clone(links),
        local: config.local,
        policy_name,
        log: Arc::clone(log),
        shard,
        retired,
        store,
        crash_after_wal_append: config.crash_after_wal_append,
        ledger,
        boot_fence,
        boot_epoch,
        peers: config.peers.clone(),
        probe_released: std::sync::atomic::AtomicU64::new(0),
        probe_commits: std::sync::atomic::AtomicU64::new(0),
        batch: batch_tx.clone(),
        batch_rounds: AtomicU64::new(0),
        batch_ops: AtomicU64::new(0),
        batch_max: AtomicU64::new(0),
        delta_installs: AtomicU64::new(0),
    });
    // A successor daemon inherits the retired incarnation's in-process
    // state — at least as fresh as the disk image restored above. A
    // handoff is not a restart: the state it installs is live, so there
    // is nothing to catch up on.
    let handoff = override_state.is_some();
    if let Some((state, value, pending)) = override_state {
        let mut cluster = daemon.cluster.lock().expect("cluster poisoned");
        cluster.install_durable_state(daemon.local, state, Some(value), pending);
        if let Err(error) = sync_durable(&daemon, &cluster) {
            log.log(&format!(
                "shard handoff: captured state not persisted: {error}"
            ));
        }
    }
    // The batch worker: the single consumer of the data-operation
    // queue. Every client put/get — raw or keyed, tagged or not —
    // funnels through it, which is what lets the daemon amortize one quorum
    // exchange and one fsync over a run of concurrent operations. A
    // site restarted from disk holds pre-crash state that may be stale:
    // the worker's first job is to catch up from the majority partition
    // (serving is already safe — quorum logic refuses what it must).
    let recover = (restored_from_disk && !handoff && !config.boot_recover.is_zero())
        .then_some(config.boot_recover);
    let (worker, stopping, wake) = (Arc::clone(&daemon), Arc::clone(stop), batch_tx);
    stop.spawn(
        format!("dynvote-batch-{}", config.local.index()),
        move || {
            let _ = wake.send(None);
        },
        move || batch_loop(&worker, &stopping, &batch_rx, recover),
    )?;
    // The wedge-probe loop: while this site holds an outstanding vote,
    // periodically ask the ticket's coordinator what became of it (see
    // `crate::probe`). Without it, a single lost RELEASE or COMMIT
    // frame wedges the site until an operator intervenes.
    if !config.peers.is_empty() {
        let (prober, stopping) = (Arc::clone(&daemon), Arc::clone(stop));
        stop.spawn(
            format!("dynvote-wedge-probe-{}", config.local.index()),
            || {},
            move || wedge_probe_loop(&prober, &stopping),
        )?;
    }
    Ok(daemon)
}

/// Builds the boot shard map: the persisted generation when the data
/// directory holds one, else epoch 1 over the peer list — `--shards`
/// groups placed by the placement policy, or without the flag one group
/// on every site.
///
/// A data directory with a log or snapshot at its root was written by a
/// daemon that kept its one group there. Seeding a fresh group beside
/// it would serve the boot value in place of acknowledged data, so that
/// is refused.
fn boot_shard_map(config: &Config) -> std::io::Result<ShardMap> {
    let base = &config.data_dir;
    std::fs::create_dir_all(base)?;
    for file in [WAL_FILE, SNAPSHOT_FILE] {
        if base.join(file).exists() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "{} holds {file} at its root, but a shard group's files live in its \
                     own directory: move the directory's files into {} to serve them",
                    base.display(),
                    shard_dir(base, 0).display()
                ),
            ));
        }
    }
    if let Some(map) = ShardMap::load(&map_path(config))? {
        return Ok(map);
    }
    let sites = config.peers.iter().map(|(id, _)| id.index());
    let shards = match config.shards {
        Some(shards) => config
            .shard_placement
            .build(shards, sites.max().map_or(0, |max| max + 1))
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?,
        None => vec![ShardSpec {
            placement: sites.collect(),
        }],
    };
    let map = ShardMap {
        epoch: BOOT_EPOCH,
        shards,
        sites: config
            .peers
            .iter()
            .map(|(id, addr)| (id.index(), addr.clone()))
            .collect(),
    };
    map.persist(&map_path(config))?;
    Ok(map)
}

/// Where the shard map persists.
fn map_path(config: &Config) -> PathBuf {
    config.data_dir.join("shardmap.bin")
}

/// Starts a daemon on an already-bound listener — tests bind port 0
/// everywhere first, learn the real addresses, then hand each daemon
/// its listener.
///
/// # Errors
///
/// Bad topology descriptions surface as `InvalidInput`.
pub fn start_on(config: Config, listener: TcpListener) -> std::io::Result<ServiceHandle> {
    // Validate the topology up front (every per-shard boot reuses it).
    config
        .network()
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
    let addr = listener.local_addr()?;
    let links = Arc::new(LinkRules::new());
    let log = Arc::new(Logger {
        site: config.local.index(),
        file: match &config.log {
            Some(path) => Some(Mutex::new(File::create(path)?)),
            None => None,
        },
        quiet: config.quiet,
    });
    let stop = Arc::new(Stop::default());
    let map = boot_shard_map(&config)?;
    let mut slots = Vec::with_capacity(map.shards.len());
    for (shard, spec) in map.shards.iter().enumerate() {
        let slot = if spec.placement.contains(&config.local.index()) {
            Some(boot_daemon(
                &config,
                &links,
                &log,
                &stop,
                shard as u16,
                spec.placement.clone(),
                None,
            )?)
        } else {
            None
        };
        slots.push(RwLock::new(slot));
    }
    log.log(&format!(
        "dynvote-stored up: policy={} listen={addr} peers={} map epoch {} with {} shards ({} \
         hosted here)",
        config.policy.name(),
        config.peers.len(),
        map.epoch,
        map.shards.len(),
        slots
            .iter()
            .filter(|s| s.read().expect("slot poisoned").is_some())
            .count(),
    ));
    let service = Arc::new(Service {
        links,
        log,
        slots,
        map: Mutex::new(map),
        config,
        stop: Arc::clone(&stop),
    });
    let idle = service.config.timeouts.read;
    stop.spawn(
        format!("dynvote-accept-{}", service.config.local.index()),
        move || {
            // Poke the accept loop awake.
            let _ = TcpStream::connect(addr);
        },
        move || accept_loop(&listener, &service, idle),
    )?;
    Ok(ServiceHandle { addr, stop })
}

/// Installs a new shard map (the rebalance commit point at one site).
///
/// The map must decode, checksum, and carry a *newer* epoch. For every
/// shard whose placement changed, the slot is rebuilt under its write
/// lock: set the old daemon's `retired` epoch, capture its ⟨o, v, P⟩ +
/// image under the cluster lock (so every commit that beat the capture
/// is in it, and every queued op that missed it answers
/// `StaleShardMap`), then boot the successor with the captured state —
/// or drop the slot to `None` when this site left the placement.
///
/// A site *joining* a placement boots fresh at ⟨0, 0, P₀⟩; the
/// rebalance driver then runs the protocol-level RECOVER at it, which
/// is the paper's own machinery for a copy that lost its state —
/// Algorithm 1 takes P_m from the max-`o` responder, so the fresh copy
/// neither serves nor distorts a quorum until the RECOVER completes.
fn install_shard_map(service: &Arc<Service>, bytes: &[u8]) -> Frame {
    let new = match ShardMap::decode(bytes) {
        Ok(map) => map,
        Err(error) => {
            return Frame::Refused {
                message: format!("shard map rejected: {error}"),
            }
        }
    };
    let mut map = service.map.lock().expect("shard map poisoned");
    if new.epoch <= map.epoch {
        return if new == *map {
            Frame::Done {
                detail: format!("shard map already at epoch {}", map.epoch),
            }
        } else {
            Frame::Refused {
                message: format!(
                    "shard map epoch {} is not newer than the installed epoch {}",
                    new.epoch, map.epoch
                ),
            }
        };
    }
    if new.shards.len() != map.shards.len() {
        return Frame::Refused {
            message: format!(
                "shard count change ({} -> {}) is not a rebalance; split/merge is out of scope",
                map.shards.len(),
                new.shards.len()
            ),
        };
    }
    let local = service.config.local.index();
    for (shard, (old_spec, new_spec)) in map.shards.iter().zip(&new.shards).enumerate() {
        if old_spec == new_spec {
            continue;
        }
        let hosted_after = new_spec.placement.contains(&local);
        let mut slot = service.slots[shard].write().expect("shard slot poisoned");
        let captured = slot.take().map(|old| {
            // Order matters: set the flag *before* taking the cluster
            // lock. A batch worker that wins the lock race commits
            // normally and the capture below includes it; one that
            // loses sees the flag and answers StaleShardMap. Either
            // way no acknowledged write misses the successor.
            old.retired.store(new.epoch, Ordering::SeqCst);
            let cluster = old.cluster.lock().expect("cluster poisoned");
            (
                cluster.state_at(old.local),
                cluster.value_at(old.local),
                cluster.pending_at(old.local),
            )
        });
        if hosted_after {
            match boot_daemon(
                &service.config,
                &service.links,
                &service.log,
                &service.stop,
                shard as u16,
                new_spec.placement.clone(),
                captured,
            ) {
                Ok(daemon) => *slot = Some(daemon),
                Err(error) => {
                    service.log.log(&format!(
                        "shard map install FAILED at shard {shard}: {error}"
                    ));
                    return Frame::Refused {
                        message: format!("shard {shard}: successor daemon failed to boot: {error}"),
                    };
                }
            }
        }
        service.log.log(&format!(
            "shard {shard}: placement {:?} -> {:?} at epoch {} ({})",
            old_spec.placement,
            new_spec.placement,
            new.epoch,
            if hosted_after { "hosting" } else { "released" },
        ));
    }
    // The map is installed once it is durable: a failed persist leaves
    // the old epoch in force, so the driver's retry redoes the install.
    if let Err(error) = new.persist(&map_path(&service.config)) {
        service.log.log(&format!(
            "shard map epoch {}: persist failed: {error}",
            new.epoch
        ));
        return Frame::Refused {
            message: format!("shard map epoch {} not persisted: {error}", new.epoch),
        };
    }
    *map = new.clone();
    service
        .log
        .log(&format!("shard map installed: epoch {}", new.epoch));
    Frame::Done {
        detail: format!("shard map installed: epoch {}", new.epoch),
    }
}

/// The typed cause behind a data-operation refusal — what a client (or
/// the fault-campaign workload) branches on without parsing prose.
#[must_use]
pub fn unavailable_reason(err: &AccessError) -> UnavailableReason {
    match err {
        AccessError::NoQuorum { .. } => UnavailableReason::NoQuorum,
        AccessError::TieLost { .. } => UnavailableReason::TieLost,
        AccessError::NoCurrentCopy { .. } => UnavailableReason::NoCurrentCopy,
        AccessError::OriginUnavailable { .. } => UnavailableReason::OriginDown,
        AccessError::Timeout { .. } => UnavailableReason::PeerSilence,
        AccessError::Indeterminate { .. } => UnavailableReason::Indeterminate,
        AccessError::Unrecorded { .. } => UnavailableReason::OriginDown,
    }
}

/// A data operation the quorum logic cannot serve answers promptly with
/// a typed [`Frame::Unavailable`] — graceful degradation, never a
/// stall: the client learns *why* (no quorum, tie lost, peers silent…)
/// and decides whether to retry elsewhere.
fn refuse(daemon: &Arc<Daemon>, op: &str, err: &AccessError) -> Frame {
    let clause = refusal_clause(err);
    daemon
        .log
        .log_with(|| format!("REFUSE {op}: {err} — {clause}"));
    Frame::Unavailable {
        reason: unavailable_reason(err),
        message: format!("{err} [{clause}]"),
    }
}

/// A granted operation whose durable record could not be fsync'd is
/// refused to the client — the site never acknowledges state its disk
/// does not hold. (The cluster-wide commit may still have landed at the
/// other participants; the refusal message says so.)
fn durability_refuse(daemon: &Arc<Daemon>, op: &str, error: &std::io::Error) -> Frame {
    daemon
        .log
        .log(&format!("REFUSE {op}: local WAL fsync failed: {error}"));
    Frame::Refused {
        message: format!("{op} not acknowledged: local WAL fsync failed ({error}); the operation may have committed at other sites"),
    }
}
