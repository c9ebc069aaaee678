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
//! then fsyncs once for the whole batch strictly before any
//! acknowledgement leaves. An untagged data frame goes through the
//! same queue and the same completion; its session reads no further
//! frame until the reply is written, which is all "one at a time" is.
//!
//! Every grant and refusal is logged with the paper clause that fired,
//! so a partition experiment reads as a protocol trace.
//!
//! With `--data-dir` the daemon is *durable* (DESIGN.md §10): every
//! protocol event that changes the local ⟨o, v, P⟩, data, or
//! outstanding vote is appended to a fsync'd write-ahead log **before**
//! the matching acknowledgement (state reply, commit ack, or client
//! `Done`) leaves the site — [`sync_durable`] is the single seam every
//! dispatch arm passes through. A restart restores snapshot + WAL and
//! then retries the protocol-level RECOVER (Figures 3/7) in the
//! background to catch up from the majority partition.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufRead as _, BufReader, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use dynvote_control::kv::MAX_KEY_LEN;
use dynvote_control::{fold_image, KvPuts, ShardMap, ShardSpec};
use dynvote_core::state::ReplicaState;
use dynvote_replica::wal::{shard_dir, SiteStore, WalRecord, SNAPSHOT_FILE, WAL_FILE};
use dynvote_replica::{Cluster, ClusterBuilder, MessageKind, Reply};
use dynvote_types::{AccessError, SiteId, SiteSet};

use crate::config::Config;
use crate::probe::{coordinator_of, epoch_of, CommitBody, CommitRecord, OpLedger, ProbeAnswer};
use crate::tcp::{LinkRules, TcpTransport};
use crate::value::{Delta, ShardValue};
use crate::wire::{read_frame, write_frame, Frame, UnavailableReason};

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

/// A client data operation, decoupled from the session that carried
/// it: the batch worker executes these in queue order.
///
/// The raw variants move the group's whole image, one version step per
/// put, at any hosting site. The keyed variants treat the image as a KV
/// map ([`ShardValue`] keeps it decoded): the batch worker folds a run
/// of keyed puts into one read-modify-write decided by one quorum
/// round — sound because the shard's *coordinator funnel* (only
/// `placement[0]` of the current epoch accepts keyed operations)
/// serializes every keyed mutation of the image through this one queue.
enum DataOp {
    Put(Vec<u8>),
    Get,
    PutKey { key: String, value: Vec<u8> },
    GetKey { key: String },
}

/// One queued data operation plus the completion that writes its reply
/// to the session that submitted it.
struct PendingData {
    op: DataOp,
    done: Box<dyn FnOnce(Frame) + Send>,
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
    /// this epoch, and the background loops exit.
    retired: AtomicU64,
    /// Durable storage — `None` runs the pre-durability in-memory mode.
    store: Option<Mutex<SiteStore>>,
    /// Crash-test hook: abort after a client write's WAL fsync, before
    /// the ack (see `Config::crash_after_wal_append`).
    crash_after_wal_append: bool,
    /// Finished-operation ledger shared with the transport — answers
    /// `VOTE-PROBE` frames without touching the cluster lock.
    ledger: Arc<Mutex<OpLedger>>,
    /// The commit fence a *dead* incarnation left behind: tickets of
    /// older epochs above it provably never started a commit fanout.
    /// `None` without durable storage (epochs are meaningless there).
    boot_fence: Option<u64>,
    /// This incarnation's boot epoch (16-bit, as salted into tickets).
    boot_epoch: Option<u64>,
    /// Peer client addresses, for the wedge-probe loop.
    peers: Vec<(SiteId, String)>,
    /// Wedges resolved by probing (released / late commits applied).
    probe_released: std::sync::atomic::AtomicU64,
    probe_commits: std::sync::atomic::AtomicU64,
    /// The data-operation queue feeding the batch worker.
    batch: mpsc::Sender<PendingData>,
    /// Batch-worker counters for `status`: batches run, operations
    /// served through them, and the largest single batch.
    batch_rounds: AtomicU64,
    batch_ops: AtomicU64,
    batch_max: AtomicU64,
}

/// Folds the local participant's current protocol state into the
/// durable store: appends the WAL records that bring the store's
/// ⟨o, v, P⟩ + data + outstanding vote up to the node's, fsync'ing
/// each. Call this *before* letting any acknowledgement leave the
/// site; on `Ok` the acknowledged state survives a crash.
///
/// The data is never compared. A copy's data changes only by a commit
/// (or a copy transfer) that changes its version number, so equal
/// versions mean the store already holds the data. When they differ,
/// `applied` says how the data got there: the delta the commits since
/// the last sync applied, which is logged as such when it starts at
/// the version the store holds — the whole image is written only when
/// no such delta exists (a full-image COMMIT, a raw write, a
/// recovery's copy, or a store left behind by a failed sync).
///
/// Always called with the cluster lock held, so the comparison and the
/// append are atomic with respect to other operations.
fn sync_durable(
    daemon: &Daemon,
    cluster: &StoreCluster,
    applied: Option<&Delta>,
) -> std::io::Result<bool> {
    let Some(store) = &daemon.store else {
        return Ok(false);
    };
    if daemon.retired.load(Ordering::SeqCst) != 0 {
        // A shard-map install replaced this daemon and its successor
        // now owns the shard's data directory; writing here would
        // interleave two WAL writers. The install captured this
        // cluster's state under its lock *after* setting the flag, so
        // nothing acknowledged through the successor is lost.
        return Ok(false);
    }
    let mut store = store.lock().expect("site store poisoned");
    let state = cluster.state_at(daemon.local);
    let pending = cluster.pending_at(daemon.local);
    let durable = store.state();
    let mut wrote = false;
    if durable != state {
        let same_data =
            durable.version == state.version || !cluster.copies().contains(daemon.local);
        let record = match applied {
            Some(delta) if !same_data && delta.base == durable.version => WalRecord::Delta {
                state,
                base: delta.base,
                delta: delta.puts.clone(),
            },
            _ => WalRecord::Commit {
                state,
                value: (!same_data).then(|| cluster.value_at(daemon.local).to_image()),
            },
        };
        store.log(record)?;
        wrote = true;
    }
    if store.pending() != pending {
        let record = match pending {
            Some(ticket) => WalRecord::Vote { ticket },
            None => WalRecord::Release {
                ticket: store.pending().unwrap_or(0),
            },
        };
        store.log(record)?;
        wrote = true;
    }
    Ok(wrote)
}

/// A running daemon: its bound address and a stop handle.
pub struct ServiceHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServiceHandle {
    /// The address the daemon is accepting on.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins the accept loop. Connection handler
    /// threads notice the flag at their next idle poll and exit.
    pub fn stop(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Poke the accept loop awake.
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
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
    /// Where the map persists (`<data-dir>/shardmap.bin`), if durable.
    map_path: Option<PathBuf>,
    /// Shared with every daemon's background threads — successor
    /// daemons booted by a map install must observe the same stop flag.
    shutdown: Arc<AtomicBool>,
}

/// Builds and starts shard `shard`'s [`Daemon`]: transport, durable
/// restore or seed under the shard's data directory, ticket salting,
/// and the three background threads. `override_state` installs captured
/// in-process state on top of whatever the disk held — the shard-map
/// install path hands the old incarnation's image to its successor
/// this way.
fn boot_daemon(
    config: &Config,
    links: &Arc<LinkRules>,
    log: &Arc<Logger>,
    shutdown: &Arc<AtomicBool>,
    shard: u16,
    copies: Vec<usize>,
    override_state: Option<(ReplicaState, ShardValue, Option<u64>)>,
) -> std::io::Result<Arc<Daemon>> {
    let network = config
        .network()
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
    let transport = TcpTransport::new(
        config.local,
        shard,
        &config.peers,
        Arc::clone(links),
        config.timeouts,
    );
    let ledger = transport.ledger();
    // Each shard group gets its own durable namespace under the base
    // data directory — independent voting groups, independent WALs.
    let data_dir: Option<PathBuf> = config
        .data_dir
        .as_ref()
        .map(|base| shard_dir(Path::new(base), shard));
    // The durable operation ledger: replay what every dead incarnation
    // recorded at its commit points (the vote-probe answers and the
    // high-water mark of the dead-epoch rule), then swap it into the
    // transport's shared handle so this incarnation's commit points
    // keep appending to it.
    let mut boot_fence = None;
    if let Some(dir) = &data_dir {
        std::fs::create_dir_all(dir)?;
        let durable = OpLedger::open(dir)?;
        boot_fence = Some(durable.high_water());
        *ledger.lock().expect("op ledger poisoned") = durable;
    }
    // A group's replicated value is its image: `--value`, or the empty
    // KV map's (empty) encoding.
    let initial = ShardValue::from_image(config.initial.clone());
    let mut cluster = ClusterBuilder::new()
        .network(network)
        .copies(copies)
        .protocol(config.policy)
        .build_remote(config.local.index(), transport, initial);

    // Durable boot: restore snapshot + WAL replay into the local node,
    // or seed a fresh data directory with the boot state.
    let mut restored_from_disk = false;
    let mut boot_epoch = None;
    let store = match &data_dir {
        Some(dir) => {
            let (mut store, restored) =
                SiteStore::open_with_fold(dir, config.snapshot_every, fold_image)?;
            if restored.snapshot_was_corrupt {
                log.log("durable restore: snapshot failed validation, moved aside; falling back");
            }
            if restored.used_previous_snapshot {
                log.log(
                    "durable restore: recovered from previous-generation snapshot + parked WAL",
                );
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
                    cluster.install_durable_state(
                        config.local,
                        image.state,
                        image.value.map(ShardValue::from_image),
                        image.pending,
                    );
                    restored_from_disk = true;
                }
                None => {
                    let state = cluster.state_at(config.local);
                    let value = cluster
                        .copies()
                        .contains(config.local)
                        .then(|| cluster.value_at(config.local).to_image());
                    store.seed(state, cluster.pending_at(config.local), value)?;
                    log.log(&format!(
                        "durable boot: fresh data dir seeded at {}",
                        dir.display()
                    ));
                }
            }
            // Salt the vote-ticket namespace with the boot epoch: a
            // restarted coordinator must never reissue a pre-crash
            // ticket number, or a site the old incarnation left wedged
            // under it would mistake the new operation for the old one
            // and vote again. 16 bits of epoch inside the site's
            // 48-bit-shifted namespace bounds this to 65 535 restarts
            // before wraparound.
            cluster.advance_ticket_past(
                ((config.local.index() as u64) << 48) | ((store.epoch() & 0xFFFF) << 32),
            );
            boot_epoch = Some(store.epoch() & 0xFFFF);
            Some(Mutex::new(store))
        }
        None => None,
    };

    let policy_name = cluster.protocol().name();
    let (batch_tx, batch_rx) = mpsc::channel();
    let daemon = Arc::new(Daemon {
        cluster: Mutex::new(cluster),
        links: Arc::clone(links),
        local: config.local,
        policy_name,
        log: Arc::clone(log),
        shard,
        retired: AtomicU64::new(0),
        store,
        crash_after_wal_append: config.crash_after_wal_append,
        ledger,
        boot_fence,
        boot_epoch,
        peers: config.peers.clone(),
        probe_released: std::sync::atomic::AtomicU64::new(0),
        probe_commits: std::sync::atomic::AtomicU64::new(0),
        batch: batch_tx,
        batch_rounds: AtomicU64::new(0),
        batch_ops: AtomicU64::new(0),
        batch_max: AtomicU64::new(0),
    });
    // A successor daemon inherits the retired incarnation's in-process
    // state — at least as fresh as the disk image restored above, and
    // the only copy in the in-memory mode.
    if let Some((state, value, pending)) = override_state {
        let mut cluster = daemon.cluster.lock().expect("cluster poisoned");
        cluster.install_durable_state(daemon.local, state, Some(value), pending);
        if let Err(error) = sync_durable(&daemon, &cluster, None) {
            log.log(&format!(
                "shard handoff: captured state not persisted: {error}"
            ));
        }
    }
    // The batch worker: the single consumer of the data-operation
    // queue. Every client put/get — raw or keyed, tagged or not —
    // funnels through it, which is what lets the daemon amortize one quorum
    // exchange and one fsync over a run of concurrent operations.
    {
        let batch_daemon = Arc::clone(&daemon);
        let batch_shutdown = Arc::clone(shutdown);
        let _ = std::thread::Builder::new()
            .name(format!("dynvote-batch-{}", config.local.index()))
            .spawn(move || batch_loop(&batch_daemon, &batch_shutdown, &batch_rx));
    }
    // A site restarted from disk holds pre-crash state that may be
    // stale; catch up from the majority partition in the background
    // (serving is already safe — quorum logic refuses what it must).
    if restored_from_disk && !config.boot_recover.is_zero() {
        let recover_daemon = Arc::clone(&daemon);
        let recover_shutdown = Arc::clone(shutdown);
        let window = config.boot_recover;
        let _ = std::thread::Builder::new()
            .name(format!("dynvote-boot-recover-{}", config.local.index()))
            .spawn(move || boot_recover(&recover_daemon, &recover_shutdown, window));
    }
    // The wedge-probe loop: while this site holds an outstanding vote,
    // periodically ask the ticket's coordinator what became of it (see
    // `crate::probe`). Without it, a single lost RELEASE or COMMIT
    // frame wedges the site until an operator intervenes.
    if !config.peers.is_empty() {
        let probe_daemon = Arc::clone(&daemon);
        let probe_shutdown = Arc::clone(shutdown);
        let _ = std::thread::Builder::new()
            .name(format!("dynvote-wedge-probe-{}", config.local.index()))
            .spawn(move || wedge_probe_loop(&probe_daemon, &probe_shutdown));
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
fn boot_shard_map(config: &Config) -> std::io::Result<(ShardMap, Option<PathBuf>)> {
    let map_path = config
        .data_dir
        .as_ref()
        .map(|base| Path::new(base).join("shardmap.bin"));
    if let (Some(base), Some(path)) = (&config.data_dir, &map_path) {
        let base = Path::new(base);
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
        if let Some(map) = ShardMap::load(path)? {
            return Ok((map, map_path));
        }
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
        epoch: 1,
        shards,
        sites: config
            .peers
            .iter()
            .map(|(id, addr)| (id.index(), addr.clone()))
            .collect(),
    };
    if let Some(path) = &map_path {
        map.persist(path)?;
    }
    Ok((map, map_path))
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
    let shutdown = Arc::new(AtomicBool::new(false));
    let (map, map_path) = boot_shard_map(&config)?;
    let mut slots = Vec::with_capacity(map.shards.len());
    for (shard, spec) in map.shards.iter().enumerate() {
        let slot = if spec.placement.contains(&config.local.index()) {
            Some(boot_daemon(
                &config,
                &links,
                &log,
                &shutdown,
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
        "dynvote-stored up: policy={} listen={addr} peers={} durable={} map epoch {} with {} \
         shards ({} hosted here)",
        config.policy.name(),
        config.peers.len(),
        config.data_dir.is_some(),
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
        map_path,
        config,
        shutdown: Arc::clone(&shutdown),
    });
    let accept_shutdown = Arc::clone(&shutdown);
    let idle = service.config.timeouts.read;
    let accept_thread = std::thread::Builder::new()
        .name(format!("dynvote-accept-{}", service.config.local.index()))
        .spawn(move || accept_loop(&listener, &service, &accept_shutdown, idle))?;
    Ok(ServiceHandle {
        addr,
        shutdown,
        accept_thread: Some(accept_thread),
    })
}

/// Retries the protocol-level RECOVER (Figures 3/7) until it is granted
/// or the boot window elapses — run in the background after a
/// restore-from-disk so a restarted site rejoins the majority partition
/// without an operator in the loop.
fn boot_recover(daemon: &Arc<Daemon>, shutdown: &AtomicBool, window: Duration) {
    let deadline = Instant::now() + window;
    let mut logged_refusal = false;
    loop {
        if shutdown.load(Ordering::SeqCst) || daemon.retired.load(Ordering::SeqCst) != 0 {
            return;
        }
        {
            let mut cluster = daemon.cluster.lock().expect("cluster poisoned");
            match cluster.recover(daemon.local) {
                Ok(()) => {
                    let state = cluster.state_at(daemon.local);
                    if let Err(error) = sync_durable(daemon, &cluster, None) {
                        daemon
                            .log
                            .log(&format!("boot RECOVER: durability failure: {error}"));
                    }
                    daemon.log.log(&format!(
                        "boot RECOVER: caught up — o={} v={} P={{{}}}",
                        state.op,
                        state.version,
                        fmt_sites(state.partition)
                    ));
                    return;
                }
                Err(err) if !logged_refusal => {
                    logged_refusal = true;
                    daemon
                        .log
                        .log(&format!("boot RECOVER: not yet — {err}; retrying"));
                }
                Err(_) => {}
            }
        }
        if Instant::now() >= deadline {
            daemon.log.log(
                "boot RECOVER: window elapsed; serving restored state (run `dynvote-ctl recover` once peers are reachable)",
            );
            return;
        }
        std::thread::sleep(Duration::from_millis(250));
    }
}

/// How often a wedged site probes its coordinator.
const WEDGE_PROBE_INTERVAL: Duration = Duration::from_millis(400);

/// Per-probe reply deadline (resolve + connect + exchange).
const WEDGE_PROBE_DEADLINE: Duration = Duration::from_millis(1500);

/// Whether `ticket` was issued by a dead incarnation of this daemon
/// *and* sits above the ledger high-water mark it left — the two facts
/// that together prove the ticket never reached a commit point, so
/// every vote for it is non-binding.
fn dead_and_unfenced(daemon: &Daemon, ticket: u64) -> bool {
    coordinator_of(ticket) == daemon.local.index()
        && match (daemon.boot_epoch, daemon.boot_fence) {
            (Some(epoch), Some(fence)) => epoch_of(ticket) < epoch && ticket > fence,
            _ => false,
        }
}

/// Persists and logs a wedge resolution (the cluster lock is held).
/// `applied` is the delta the resolving commit applied, if it did.
fn note_probe_resolution(
    daemon: &Daemon,
    cluster: &StoreCluster,
    ticket: u64,
    what: &str,
    applied: Option<&Delta>,
) {
    if let Err(error) = sync_durable(daemon, cluster, applied) {
        daemon.log.log(&format!(
            "wedge probe ticket={ticket}: durability failure: {error}"
        ));
    }
    daemon
        .log
        .log(&format!("wedge probe: ticket={ticket} {what}"));
}

/// What rode a [`Frame::Commit`].
fn commit_body(value: Option<Vec<u8>>) -> CommitBody {
    value.map_or(CommitBody::StateOnly, |bytes| {
        CommitBody::Image(bytes.into())
    })
}

/// A `COMMIT` installed at the local participant.
struct Installed {
    /// The delta it changed the local data by, if it did: what
    /// [`sync_durable`] may log in place of the image.
    applied: Option<Arc<Delta>>,
}

/// Installs a `COMMIT` — `state` plus what rode it, from a
/// [`Frame::Commit`], a [`Frame::CommitDelta`] or the ledger record
/// either is re-sent from — at the local participant (the cluster lock
/// is held). `None`: not installed, and the sender must hear nothing.
/// Otherwise sync, then acknowledge.
///
/// A delta is applied only to the data of the version it names: a copy
/// holding any other version refuses it — applying puts to a different
/// image would build an image no other copy has. A frame for a commit
/// the site already holds (a retry whose first acknowledgement was
/// lost, an answered probe) re-installs the state alone, which is what
/// releases the vote.
fn install_commit(
    daemon: &Daemon,
    cluster: &mut StoreCluster,
    to: SiteId,
    ticket: u64,
    state: ReplicaState,
    body: CommitBody,
) -> Option<Installed> {
    if to != daemon.local {
        return None;
    }
    let held = cluster.state_at(to);
    let mut applied = None;
    let value = if held == state || !cluster.copies().contains(to) {
        None
    } else {
        match body {
            CommitBody::StateOnly => None,
            CommitBody::Image(bytes) => Some(ShardValue::from_image(bytes)),
            CommitBody::Delta(delta) => {
                let next = (held.version == delta.base)
                    .then(|| cluster.value_at(to).with_delta(Arc::clone(&delta)))
                    .flatten();
                let Some(next) = next else {
                    daemon.log.log_with(|| {
                        format!(
                            "commit delta on v={} NOT applied: this copy holds v={}",
                            delta.base, held.version
                        )
                    });
                    return None;
                };
                applied = Some(delta);
                Some(next)
            }
        }
    };
    let kind = MessageKind::Commit {
        op: state.op,
        version: state.version,
        partition: state.partition,
    };
    match cluster.serve_at(to, &kind, value.as_ref(), ticket, false) {
        Some(Reply::Ack) => Some(Installed { applied }),
        _ => None,
    }
}

/// Resolves the local wedge on `ticket` with the commit that closed
/// it, if the site is still wedged on exactly that ticket.
fn resolve_by_commit(
    daemon: &Daemon,
    ticket: u64,
    state: ReplicaState,
    body: CommitBody,
    what: &str,
) {
    let mut cluster = daemon.cluster.lock().expect("cluster poisoned");
    // Re-check under the lock: only the exact wedge the probe was sent
    // for may be resolved by its reply.
    if cluster.pending_at(daemon.local) != Some(ticket) {
        return;
    }
    if let Some(installed) = install_commit(daemon, &mut cluster, daemon.local, ticket, state, body)
    {
        note_probe_resolution(daemon, &cluster, ticket, what, installed.applied.as_deref());
        daemon.probe_commits.fetch_add(1, Ordering::Relaxed);
    }
}

/// One raw frame exchange with a peer daemon under a hard deadline —
/// the probe loop speaks peer frames, which the client API's typed
/// outcomes do not carry.
fn probe_exchange(addr: &str, frame: &Frame, deadline: Duration) -> std::io::Result<Frame> {
    use std::net::ToSocketAddrs;
    let ends = Instant::now() + deadline;
    let left = || {
        let left = ends.saturating_duration_since(Instant::now());
        if left.is_zero() {
            Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "probe deadline",
            ))
        } else {
            Ok(left)
        }
    };
    let target = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::AddrNotAvailable, "no address"))?;
    let mut stream = TcpStream::connect_timeout(&target, left()?)?;
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(left()?))?;
    write_frame(&mut stream, frame)?;
    stream.set_read_timeout(Some(left()?))?;
    read_frame(&mut stream)
}

/// The wedge-probe loop: while this site holds an outstanding vote,
/// periodically asks the ticket's coordinator what became of it (see
/// `crate::probe` for the soundness argument). Without this pull path
/// a single lost `RELEASE` or `COMMIT` frame wedges the site forever.
fn wedge_probe_loop(daemon: &Arc<Daemon>, shutdown: &AtomicBool) {
    loop {
        std::thread::sleep(WEDGE_PROBE_INTERVAL);
        if shutdown.load(Ordering::SeqCst) || daemon.retired.load(Ordering::SeqCst) != 0 {
            return;
        }
        let pending = {
            let cluster = daemon.cluster.lock().expect("cluster poisoned");
            cluster.pending_at(daemon.local)
        };
        let Some(ticket) = pending else { continue };
        let coordinator = coordinator_of(ticket);
        if coordinator == daemon.local.index() {
            // Wedged on a ticket of a dead incarnation of *ourselves*
            // (the vote is durable; a crash between the commit point
            // and the local apply leaves it outstanding). The replayed
            // ledger or the high-water rule resolves it locally, no
            // network needed. The ledger guard is dropped before the
            // cluster lock is taken — the transport locks in the
            // opposite order.
            let answer = {
                daemon
                    .ledger
                    .lock()
                    .expect("op ledger poisoned")
                    .answer(ticket, daemon.local)
            };
            match answer {
                ProbeAnswer::Commit(record) => resolve_by_commit(
                    daemon,
                    ticket,
                    record.state,
                    record.body,
                    "own ledgered COMMIT applied",
                ),
                ProbeAnswer::Release(keep) if !keep.contains(daemon.local) => {
                    let mut cluster = daemon.cluster.lock().expect("cluster poisoned");
                    if cluster.pending_at(daemon.local) == Some(ticket) {
                        cluster.local_release(ticket, keep);
                        note_probe_resolution(
                            daemon,
                            &cluster,
                            ticket,
                            "self-released (own ledgered release)",
                            None,
                        );
                        daemon.probe_released.fetch_add(1, Ordering::Relaxed);
                    }
                }
                _ => {
                    if dead_and_unfenced(daemon, ticket) {
                        let mut cluster = daemon.cluster.lock().expect("cluster poisoned");
                        if cluster.pending_at(daemon.local) == Some(ticket) {
                            cluster.local_release(ticket, SiteSet::EMPTY);
                            note_probe_resolution(
                                daemon,
                                &cluster,
                                ticket,
                                "self-released (dead own epoch, above high water)",
                                None,
                            );
                            daemon.probe_released.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
            continue;
        }
        let Some((to, addr)) = daemon
            .peers
            .iter()
            .find(|(site, _)| site.index() == coordinator)
            .cloned()
        else {
            continue;
        };
        if daemon.links.is_blocked(to) {
            // The partition surface applies to probes too.
            continue;
        }
        // The probe must reach the peer's *matching* shard daemon (each
        // shard has its own operation ledger).
        let probe = Frame::VoteProbe {
            ticket,
            from: daemon.local,
            to,
        }
        .for_shard(daemon.shard);
        match probe_exchange(&addr, &probe, WEDGE_PROBE_DEADLINE) {
            Ok(Frame::Release {
                ticket: answered,
                keep,
                ..
            }) if answered == ticket && !keep.contains(daemon.local) => {
                let mut cluster = daemon.cluster.lock().expect("cluster poisoned");
                if cluster.pending_at(daemon.local) == Some(ticket) {
                    cluster.local_release(ticket, keep);
                    note_probe_resolution(
                        daemon,
                        &cluster,
                        ticket,
                        "released by coordinator",
                        None,
                    );
                    daemon.probe_released.fetch_add(1, Ordering::Relaxed);
                }
            }
            Ok(Frame::Commit {
                ticket: answered,
                state,
                value,
                ..
            }) if answered == ticket => resolve_by_commit(
                daemon,
                ticket,
                state,
                commit_body(value),
                "late COMMIT applied",
            ),
            Ok(Frame::CommitDelta {
                ticket: answered,
                state,
                base,
                puts,
                ..
            }) if answered == ticket => resolve_by_commit(
                daemon,
                ticket,
                state,
                CommitBody::Delta(Arc::new(Delta { base, puts })),
                "late COMMIT (delta) applied",
            ),
            _ => {}
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    service: &Arc<Service>,
    shutdown: &Arc<AtomicBool>,
    idle: Duration,
) {
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let service = Arc::clone(service);
        let shutdown = Arc::clone(shutdown);
        let _ = std::thread::Builder::new()
            .name("dynvote-conn".to_string())
            .spawn(move || handle_connection(&service, stream, &shutdown, idle));
    }
}

/// Waits until the reader holds at least one unread byte. `false`: the
/// peer closed, the socket failed, or the daemon is shutting down —
/// seen within one idle timeout, which is what each blocking fill waits
/// at most. Filling the buffer consumes nothing, so an idle tick never
/// leaves the frame decoder inside a frame it cannot finish.
fn wait_readable(reader: &mut BufReader<TcpStream>, shutdown: &AtomicBool) -> bool {
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return false;
        }
        match reader.fill_buf() {
            Ok([]) => return false, // clean close
            Ok(_) => return true,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return false,
        }
    }
}

fn handle_connection(
    service: &Arc<Service>,
    stream: TcpStream,
    shutdown: &AtomicBool,
    idle: Duration,
) {
    let _ = stream.set_read_timeout(Some(idle));
    let _ = stream.set_write_timeout(Some(idle));
    let _ = stream.set_nodelay(true);
    // Replies completed by the batch worker race replies written inline
    // by this thread, so every write goes through one locked writer.
    let writer = match stream.try_clone() {
        Ok(clone) => Arc::new(Mutex::new(clone)),
        Err(_) => return,
    };
    let mut reader = BufReader::with_capacity(64 * 1024, stream);
    loop {
        // One read brings in whatever the socket holds — a frame, part
        // of one, or many — and the decoder runs on the buffer until it
        // is drained.
        if reader.buffer().is_empty() && !wait_readable(&mut reader, shutdown) {
            return;
        }
        let frame = match read_frame(&mut reader) {
            Ok(frame) => frame,
            Err(e) => {
                if e.kind() == std::io::ErrorKind::InvalidData {
                    service
                        .log
                        .log(&format!("conn: malformed frame ({e}), closing"));
                }
                return;
            }
        };
        if !route(service, frame, &writer) {
            return;
        }
    }
}

/// Routes one frame, in one order: peel the correlation tag, then the
/// envelope, then dispatch. Returns `false` to close the session.
///
/// * **keyed client frames** (`PutKey`/`GetKey`) — epoch-checked
///   against the current map, coordinator-checked against the key's
///   shard placement, then queued on that shard daemon's batch worker;
/// * **`Shard{k, inner}` envelopes** — addressed to shard `k`'s
///   daemon: raw data operations (queued like the keyed ones), peer
///   protocol frames, per-shard RECOVER and status;
/// * **everything else** — the control plane (`GetShardMap`/
///   `InstallShardMap`) and fleet-wide admin (status, link rules),
///   served by the service.
///
/// One reply rule for all of them: a reply carries its request's tag,
/// or none ([`write_reply`]). Replies that do not wait on the batch
/// worker are written here, on the session's thread, so admin and
/// status stay snappy while the worker sits in a slow quorum round.
fn route(service: &Arc<Service>, frame: Frame, writer: &Arc<Mutex<TcpStream>>) -> bool {
    let (tag, frame) = match frame {
        Frame::Tagged { id, inner } => (Some(id), *inner),
        frame => (None, frame),
    };
    let routed = match frame {
        // The KV entry layout carries a key's length in 16 bits, and
        // keys come from clients.
        Frame::PutKey { key, .. } if key.len() > MAX_KEY_LEN => {
            Err(Dispatch::Reply(Frame::Refused {
                message: format!(
                    "key of {} bytes exceeds the {MAX_KEY_LEN}-byte limit",
                    key.len()
                ),
            }))
        }
        Frame::PutKey {
            epoch,
            shard,
            key,
            value,
        } => {
            keyed_route(service, epoch, shard).map(|daemon| (daemon, DataOp::PutKey { key, value }))
        }
        Frame::GetKey { epoch, shard, key } => {
            keyed_route(service, epoch, shard).map(|daemon| (daemon, DataOp::GetKey { key }))
        }
        Frame::Shard { shard, inner } => shard_frame(service, shard, *inner),
        frame => Err(service_dispatch(service, frame)),
    };
    match routed {
        Ok((daemon, op)) => enqueue_data(&daemon, op, writer, tag),
        Err(Dispatch::Reply(reply)) => write_reply(writer, tag, reply),
        Err(Dispatch::Silent) => true,
        Err(Dispatch::Close) => false,
    }
}

/// A frame's route: a data operation for a shard daemon's batch worker,
/// or what to do in its place.
type Routed = Result<(Arc<Daemon>, DataOp), Dispatch>;

/// Routes the inner frame of a `Shard{k, …}` envelope to shard `k`'s
/// daemon. The slot's read lock is held across the inline dispatch, so
/// a concurrent map install (which takes the write lock) waits out
/// every in-flight exchange before capturing the old daemon's state.
fn shard_frame(service: &Service, shard: u16, inner: Frame) -> Routed {
    let client = matches!(
        inner,
        Frame::Recover | Frame::Status | Frame::Put { .. } | Frame::Get
    );
    let Some(slot) = service.slots.get(shard as usize) else {
        return Err(if client {
            Dispatch::Reply(Frame::Refused {
                message: format!("shard {shard} out of range"),
            })
        } else {
            // A peer frame for a shard this fleet does not have:
            // protocol confusion, drop the session.
            Dispatch::Close
        });
    };
    let guard = slot.read().expect("shard slot poisoned");
    let Some(daemon) = &*guard else {
        return Err(if client {
            Dispatch::Reply(not_hosted(shard))
        } else {
            // Peer frames for an unhosted shard: stay silent, exactly
            // as a partitioned link would (the coordinator's bounded
            // retry absorbs it).
            Dispatch::Silent
        });
    };
    // Raw data ops move the whole image through this shard's batch
    // worker; the guard drops before the worker writes the reply.
    match inner {
        Frame::Put { value } => Ok((Arc::clone(daemon), DataOp::Put(value))),
        Frame::Get => Ok((Arc::clone(daemon), DataOp::Get)),
        inner => Err(dispatch(daemon, inner)),
    }
}

fn not_hosted(shard: u16) -> Frame {
    Frame::Unavailable {
        reason: UnavailableReason::OriginDown,
        message: format!("shard {shard} is not hosted at this site"),
    }
}

/// Checks a keyed operation's routing facts against the current map:
/// the client's epoch must match, the shard must exist, and this site
/// must be the shard's coordinator (the funnel that makes the batched
/// read-modify-write sound). Returns the shard's daemon, or the typed
/// answer to send instead.
fn keyed_route(service: &Service, epoch: u64, shard: u16) -> Result<Arc<Daemon>, Dispatch> {
    let local = service.config.local.index();
    {
        let map = service.map.lock().expect("shard map poisoned");
        if epoch != map.epoch {
            return Err(Dispatch::Reply(Frame::StaleShardMap { epoch: map.epoch }));
        }
        let Some(spec) = map.shards.get(shard as usize) else {
            return Err(Dispatch::Reply(Frame::Refused {
                message: format!(
                    "shard {shard} out of range ({} shards at epoch {})",
                    map.shards.len(),
                    map.epoch
                ),
            }));
        };
        if spec.coordinator() != local {
            return Err(Dispatch::Reply(Frame::Unavailable {
                reason: UnavailableReason::OriginDown,
                message: format!(
                    "site {local} is not the coordinator for shard {shard} at epoch {} (site {} is)",
                    map.epoch,
                    spec.coordinator()
                ),
            }));
        }
    }
    let guard = service.slots[shard as usize]
        .read()
        .expect("shard slot poisoned");
    guard
        .clone()
        .ok_or_else(|| Dispatch::Reply(not_hosted(shard)))
}

/// Serves the frames the service answers *as a service* — the control
/// plane (shard map fetch/install), fleet-wide admin, and the typed
/// refusals for data ops that name no shard.
fn service_dispatch(service: &Arc<Service>, frame: Frame) -> Dispatch {
    match frame {
        Frame::GetShardMap => {
            let map = service.map.lock().expect("shard map poisoned");
            Dispatch::Reply(Frame::ShardMapRep { map: map.encode() })
        }
        Frame::InstallShardMap { map } => Dispatch::Reply(install_shard_map(service, &map)),
        Frame::Status => Dispatch::Reply(Frame::Report {
            text: service_status_text(service),
        }),
        // The link rules are the *process's* fault surface, shared by
        // every shard transport — one deny cuts the site pair for all
        // shards, exactly like pulling the cable.
        Frame::Deny { site } => {
            service.links.block(site);
            service
                .log
                .log(&format!("link cut: S{} denied", site.index()));
            Dispatch::Reply(Frame::Done {
                detail: format!("link to site {} cut", site.index()),
            })
        }
        Frame::Allow { site } => {
            service.links.unblock(site);
            service
                .log
                .log(&format!("link restored: S{} allowed", site.index()));
            Dispatch::Reply(Frame::Done {
                detail: format!("link to site {} restored", site.index()),
            })
        }
        Frame::HealLinks => {
            service.links.clear();
            service.log.log("links healed: all rules dropped");
            Dispatch::Reply(Frame::Done {
                detail: "all links restored".to_string(),
            })
        }
        // Data ops that name no shard: a typed refusal telling the
        // client what to send.
        Frame::Put { .. } | Frame::Get | Frame::Recover => Dispatch::Reply(Frame::Refused {
            message: "address a shard: use putk/getk (keyed frames) or wrap the frame in a \
                      shard envelope (dynvote-ctl --shard K)"
                .to_string(),
        }),
        // Bare peer frames (no shard envelope) cannot be routed.
        _ => Dispatch::Close,
    }
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
                &service.shutdown,
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
    *map = new.clone();
    if let Some(path) = &service.map_path {
        if let Err(error) = new.persist(path) {
            service.log.log(&format!(
                "shard map epoch {}: persist failed: {error}",
                new.epoch
            ));
        }
    }
    service
        .log
        .log(&format!("shard map installed: epoch {}", new.epoch));
    Frame::Done {
        detail: format!("shard map installed: epoch {}", new.epoch),
    }
}

/// The service's `status` body: service-level shard fields (`shard.*`)
/// plus a per-hosted-shard state sample. Uses `try_lock` throughout —
/// `status` is the fleet's liveness probe and must answer even while a
/// shard sits in a slow quorum round.
fn service_status_text(service: &Service) -> String {
    let mut out = String::new();
    let mut line = |k: &str, v: String| {
        out.push_str(k);
        out.push('=');
        out.push_str(&v);
        out.push('\n');
    };
    line("site", service.config.local.index().to_string());
    line("policy", service.config.policy.name().to_string());
    let (epoch, specs) = {
        let map = service.map.lock().expect("shard map poisoned");
        (map.epoch, map.shards.clone())
    };
    line("shard.map_epoch", epoch.to_string());
    line("shard.count", specs.len().to_string());
    let local = service.config.local.index();
    let mut hosted = Vec::new();
    for (shard, spec) in specs.iter().enumerate() {
        if spec.placement.contains(&local) {
            hosted.push(shard.to_string());
        }
    }
    line(
        "shard.hosted",
        if hosted.is_empty() {
            "-".to_string()
        } else {
            hosted.join(",")
        },
    );
    for (shard, spec) in specs.iter().enumerate() {
        if !spec.placement.contains(&local) {
            continue;
        }
        let prefix = format!("shard.{shard}");
        line(
            &format!("{prefix}.role"),
            if spec.coordinator() == local {
                "coordinator".to_string()
            } else {
                "replica".to_string()
            },
        );
        let slot = service.slots[shard].read().expect("shard slot poisoned");
        if let Some(daemon) = &*slot {
            if let Ok(cluster) = daemon.cluster.try_lock() {
                let state = cluster.state_at(daemon.local);
                line(&format!("{prefix}.op"), state.op.to_string());
                line(&format!("{prefix}.version"), state.version.to_string());
                line(&format!("{prefix}.partition"), fmt_sites(state.partition));
            } else {
                line(&format!("{prefix}.busy"), "1".to_string());
            }
        }
    }
    line("links_blocked", fmt_sites(service.links.blocked()));
    line(
        "durability.enabled",
        service.config.data_dir.is_some().to_string(),
    );
    out
}

/// Writes one frame through a session's shared writer. A failed write
/// may have left part of a frame on the wire, after which nothing
/// written to the session could be decoded: the socket is shut down,
/// which fails every later write at once and ends the session's reader.
fn write_shared(writer: &Arc<Mutex<TcpStream>>, frame: &Frame) -> std::io::Result<()> {
    let mut guard = writer.lock().expect("session writer poisoned");
    let written = write_frame(&mut *guard, frame);
    if written.is_err() {
        let _ = guard.shutdown(std::net::Shutdown::Both);
    }
    written
}

/// The one reply rule: a reply carries its request's tag, or none.
/// `false` when the session is gone.
fn write_reply(writer: &Arc<Mutex<TcpStream>>, tag: Option<u64>, reply: Frame) -> bool {
    let frame = match tag {
        Some(id) => Frame::Tagged {
            id,
            inner: Box::new(reply),
        },
        None => reply,
    };
    write_shared(writer, &frame).is_ok()
}

/// Queues a data operation for `daemon`'s batch worker, with the
/// completion that writes its reply. `false` means the daemon is
/// shutting down (the queue is gone): close the session.
///
/// A tagged request returns at once — the session reads its next frame
/// while the worker runs. An untagged one has nothing to match a reply
/// to but its order, so its session waits here until the completion has
/// run (or was dropped with the worker).
fn enqueue_data(
    daemon: &Daemon,
    op: DataOp,
    writer: &Arc<Mutex<TcpStream>>,
    tag: Option<u64>,
) -> bool {
    let (answered, wait) = match tag {
        Some(_) => (None, None),
        None => {
            let (answered, wait) = mpsc::channel::<()>();
            (Some(answered), Some(wait))
        }
    };
    let writer = Arc::clone(writer);
    let done = Box::new(move |reply| {
        write_reply(&writer, tag, reply);
        drop(answered);
    });
    if daemon.batch.send(PendingData { op, done }).is_err() {
        return false;
    }
    if let Some(wait) = wait {
        // Nothing is ever sent: the wait ends when `answered` drops.
        let _ = wait.recv();
    }
    true
}

/// The largest number of queued operations one batch absorbs — bounds
/// the cluster-lock hold and the blast radius of a durability failure.
const BATCH_CAP: usize = 256;

/// The batch worker: single consumer of the data-operation queue.
/// Drains what queued, serves it in runs — consecutive writes become
/// one poll/commit quorum exchange ([`Cluster::write_batch`]),
/// consecutive reads coalesce into one quorum read — then fsyncs once
/// for the whole batch before releasing any reply (DESIGN.md §12).
fn batch_loop(daemon: &Arc<Daemon>, shutdown: &AtomicBool, queue: &mpsc::Receiver<PendingData>) {
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

/// The keyed deltas a batch applied to the local copy's data, kept
/// for as long as they account for *every* change to it since the
/// batch began — what lets the batch's one durable record be a delta.
struct AppliedDeltas {
    /// The local version when the batch began.
    base: u64,
    /// The version the deltas lead to; `None` once something other
    /// than a delta chained onto them changed the data.
    reaches: Option<u64>,
    /// The deltas' put lists, back to back.
    puts: Vec<u8>,
}

impl AppliedDeltas {
    fn starting_at(version: u64) -> Self {
        AppliedDeltas {
            base: version,
            reaches: Some(version),
            puts: Vec::new(),
        }
    }

    /// Records that one run of operations moved the local version from
    /// `before` to `after` — by `delta` alone, when there is one.
    fn note(&mut self, before: u64, after: u64, delta: Option<&Delta>) {
        if after == before {
            return;
        }
        match delta {
            Some(delta) if self.reaches == Some(before) && delta.base == before => {
                self.puts.extend_from_slice(&delta.puts);
                self.reaches = Some(after);
            }
            _ => self.reaches = None,
        }
    }

    fn into_delta(self) -> Option<Delta> {
        self.reaches
            .is_some_and(|reached| reached != self.base)
            .then_some(Delta {
                base: self.base,
                puts: self.puts,
            })
    }
}

const NOT_A_KV_MAP: &str = "shard image is not a KV map (corrupt replicated value)";

/// A data operation's completion and the reply to hand it.
type StagedReply = (Box<dyn FnOnce(Frame) + Send>, Frame);

/// Serves one drained batch under the cluster lock, syncs durably ONCE,
/// and only then returns the replies for the caller to release — the
/// batched generalisation of fsync-before-ack: no acknowledgement in
/// the batch leaves before the WAL holds every state change the batch
/// made.
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
    let mut applied = AppliedDeltas::starting_at(cluster.state_at(daemon.local).version);
    let mut iter = items.into_iter().peekable();
    while let Some(item) = iter.next() {
        match item.op {
            DataOp::Put(value) => {
                wrote = true;
                let mut values = vec![ShardValue::from_image(value)];
                let mut dones = vec![item.done];
                while matches!(iter.peek().map(|next| &next.op), Some(DataOp::Put(_))) {
                    let next = iter.next().expect("peeked");
                    if let DataOp::Put(value) = next.op {
                        values.push(ShardValue::from_image(value));
                        dones.push(next.done);
                    }
                }
                let before = cluster.state_at(daemon.local).version;
                let results = cluster.write_batch(daemon.local, values);
                applied.note(before, cluster.state_at(daemon.local).version, None);
                for (done, result) in dones.into_iter().zip(results) {
                    let staged = match result {
                        Ok(op) => {
                            let detail = format!(
                                "committed o={} v={} P={{{}}}",
                                op.op,
                                op.version,
                                fmt_sites(op.participants)
                            );
                            daemon.log.log_with(|| format!(
                                "GRANT write: {detail} — Algorithm 1: the group holds a strict majority of P_m"
                            ));
                            (Frame::Done { detail }, Some("write"))
                        }
                        Err(err) => (refuse(daemon, "write", &err), None),
                    };
                    replies.push((done, staged.0, staged.1));
                }
            }
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
                let staged = keyed_write(daemon, cluster, &puts, dones.len(), &mut applied);
                for done in dones {
                    replies.push((done, staged.0.clone(), staged.1));
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
                    Ok(image) => match image.kv() {
                        Some(kv) => {
                            let version = cluster.history().last().map_or_else(
                                || cluster.state_at(daemon.local).version,
                                |op| op.version,
                            );
                            daemon.log.log_with(|| {
                                format!("GRANT keyed read ×{}: v={version}", keys.len())
                            });
                            for (key, done) in keys.into_iter().zip(dones) {
                                let frame = match kv.get(&key) {
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
                        None => {
                            for done in dones {
                                replies.push((
                                    done,
                                    Frame::Refused {
                                        message: NOT_A_KV_MAP.to_string(),
                                    },
                                    None,
                                ));
                            }
                        }
                    },
                    Err(err) => {
                        let frame = refuse(daemon, "keyed read", &err);
                        for done in dones {
                            replies.push((done, frame.clone(), None));
                        }
                    }
                }
            }
            DataOp::Get => {
                let mut dones = vec![item.done];
                while matches!(iter.peek().map(|next| &next.op), Some(DataOp::Get)) {
                    dones.push(iter.next().expect("peeked").done);
                }
                // One quorum read serves the run: every waiter queued
                // before the round decided, so each is entitled to
                // exactly this answer.
                let (frame, granted) = match cluster.read(daemon.local) {
                    Ok(value) => {
                        // The version of the value *served*, from the
                        // read's committed history entry — the local
                        // copy may still be stale when a repaired site
                        // reads before running RECOVER.
                        let version = cluster.history().last().map_or_else(
                            || cluster.state_at(daemon.local).version,
                            |op| op.version,
                        );
                        daemon.log.log_with(|| format!(
                            "GRANT read ×{}: v={version} — Algorithm 1: the group holds a strict majority of P_m",
                            dones.len()
                        ));
                        (
                            Frame::Value {
                                version,
                                value: value.to_image(),
                            },
                            Some("read"),
                        )
                    }
                    Err(err) => (refuse(daemon, "read", &err), None),
                };
                for done in dones {
                    replies.push((done, frame.clone(), granted));
                }
            }
        }
    }
    // Persist regardless of the outcomes: even a refused operation may
    // have changed local state (a partial commit landed).
    let synced = sync_durable(daemon, cluster, applied.into_delta().as_ref());
    if wrote && daemon.crash_after_wal_append && matches!(synced, Ok(true)) {
        // Crash-test hook: the WAL holds the commit, the client never
        // hears about it. The restart must serve it anyway —
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

/// The coordinator-funnel read-modify-write behind a run of `requests`
/// keyed puts, in ONE quorum round ([`Cluster::update`]): the write's
/// own poll wedges a majority at the maximal version, the shard's KV
/// map is taken at that version — the coordinator's resident copy when
/// it is current, one copy transfer inside the vote when it is not —
/// the run's puts are applied (the last put of each key), and the
/// commit ships them as a *delta* on the version every participant
/// voted with. Sound because only this worker — at the shard's
/// coordinator of the current epoch — mutates the map. (MCV wedges
/// nobody, pins no version and writes the whole image.)
fn keyed_write(
    daemon: &Arc<Daemon>,
    cluster: &mut StoreCluster,
    puts: &KvPuts,
    requests: usize,
    applied: &mut AppliedDeltas,
) -> (Frame, Option<&'static str>) {
    let before = cluster.state_at(daemon.local).version;
    let mut delta = None;
    let result = cluster.update(daemon.local, |current, base| {
        let next = current.with_puts(puts, base)?;
        delta = next.delta().cloned();
        Some(next)
    });
    applied.note(
        before,
        cluster.state_at(daemon.local).version,
        delta.as_deref(),
    );
    match result {
        Ok(Some(op)) => {
            let detail = format!(
                "committed o={} v={} P={{{}}}",
                op.op,
                op.version,
                fmt_sites(op.participants)
            );
            daemon.log.log_with(|| {
                format!(
                    "GRANT keyed write ×{requests}: {detail} — one folded {} commit of {} key(s)",
                    if delta.is_some() { "delta" } else { "image" },
                    puts.0.len(),
                )
            });
            (Frame::Done { detail }, Some("write"))
        }
        Ok(None) => (
            Frame::Refused {
                message: NOT_A_KV_MAP.to_string(),
            },
            None,
        ),
        Err(err) => (refuse(daemon, "keyed write", &err), None),
    }
}

enum Dispatch {
    Reply(Frame),
    Silent,
    Close,
}

fn dispatch(daemon: &Arc<Daemon>, frame: Frame) -> Dispatch {
    match frame {
        // ---- peer frames: the recipient side of the protocol --------
        Frame::StartReq {
            ticket,
            from,
            to,
            mark_pending,
        } => {
            if daemon.links.is_blocked(from) {
                return Dispatch::Silent; // partitioned: the frame "never arrived"
            }
            let mut cluster = daemon.cluster.lock().expect("cluster poisoned");
            match cluster.serve_at(to, &MessageKind::StartRequest, None, ticket, mark_pending) {
                Some(Reply::State {
                    op,
                    version,
                    partition,
                }) => {
                    // The vote this reply casts may wedge the site; it
                    // must survive a crash, or the site could vote
                    // again in a conflicting operation. Fsync before
                    // the state reply leaves — abstain if the disk
                    // cannot hold the vote.
                    if let Err(error) = sync_durable(daemon, &cluster, None) {
                        daemon.log.log_with(|| {
                            format!(
                                "abstain: START from S{} ticket={ticket} — \
                                 durability failure: {error}",
                                from.index()
                            )
                        });
                        return Dispatch::Reply(Frame::Abstain {
                            ticket,
                            from: to,
                            to: from,
                        });
                    }
                    Dispatch::Reply(Frame::StateRep {
                        ticket,
                        from: to,
                        to: from,
                        state: ReplicaState {
                            op,
                            version,
                            partition,
                        },
                    })
                }
                _ => {
                    daemon.log.log_with(|| format!(
                        "abstain: START from S{} ticket={ticket} — outstanding vote wedges this site",
                        from.index()
                    ));
                    Dispatch::Reply(Frame::Abstain {
                        ticket,
                        from: to,
                        to: from,
                    })
                }
            }
        }
        Frame::Commit {
            ticket,
            from,
            to,
            state,
            value,
        } => serve_commit(daemon, ticket, from, to, state, commit_body(value)),
        Frame::CommitDelta {
            ticket,
            from,
            to,
            state,
            base,
            puts,
        } => serve_commit(
            daemon,
            ticket,
            from,
            to,
            state,
            CommitBody::Delta(Arc::new(Delta { base, puts })),
        ),
        Frame::CopyReq { ticket, from, to } => {
            if daemon.links.is_blocked(from) {
                return Dispatch::Silent;
            }
            let mut cluster = daemon.cluster.lock().expect("cluster poisoned");
            match cluster.serve_at(to, &MessageKind::CopyRequest, None, ticket, false) {
                Some(Reply::Copy { version, value }) => Dispatch::Reply(Frame::CopyRep {
                    ticket,
                    from: to,
                    to: from,
                    version,
                    value: value.to_image(),
                }),
                _ => Dispatch::Reply(Frame::Abstain {
                    ticket,
                    from: to,
                    to: from,
                }),
            }
        }
        Frame::VoteProbe { ticket, from, .. } => {
            if daemon.links.is_blocked(from) {
                // The simulated partition drops the probe: no reply,
                // the prober times out as it would across a real cut.
                return Dispatch::Close;
            }
            let answer = daemon
                .ledger
                .lock()
                .expect("op ledger poisoned")
                .answer(ticket, from);
            match answer {
                ProbeAnswer::Release(keep) => {
                    daemon.log.log(&format!(
                        "vote probe from S{}: ticket={ticket} finished — re-sent RELEASE",
                        from.index()
                    ));
                    Dispatch::Reply(Frame::Release {
                        ticket,
                        from: daemon.local,
                        keep,
                    })
                }
                ProbeAnswer::Commit(CommitRecord { state, body }) => {
                    daemon.log.log(&format!(
                        "vote probe from S{}: ticket={ticket} committed — re-sent COMMIT",
                        from.index()
                    ));
                    Dispatch::Reply(match body {
                        CommitBody::Delta(delta) => Frame::CommitDelta {
                            ticket,
                            from: daemon.local,
                            to: from,
                            state,
                            base: delta.base,
                            puts: delta.puts.clone(),
                        },
                        CommitBody::Image(image) => Frame::Commit {
                            ticket,
                            from: daemon.local,
                            to: from,
                            state,
                            value: Some(image.as_ref().clone()),
                        },
                        CommitBody::StateOnly => Frame::Commit {
                            ticket,
                            from: daemon.local,
                            to: from,
                            state,
                            value: None,
                        },
                    })
                }
                ProbeAnswer::Unknown => {
                    if dead_and_unfenced(daemon, ticket) {
                        daemon.log.log(&format!(
                            "vote probe from S{}: ticket={ticket} is a dead epoch's, above the fence — released",
                            from.index()
                        ));
                        Dispatch::Reply(Frame::Release {
                            ticket,
                            from: daemon.local,
                            keep: SiteSet::EMPTY,
                        })
                    } else {
                        // In flight, evicted, or a dead epoch at or
                        // below the fence: cannot soundly say.
                        Dispatch::Reply(Frame::Abstain {
                            ticket,
                            from: daemon.local,
                            to: from,
                        })
                    }
                }
            }
        }
        Frame::Release { ticket, from, keep } => {
            if !daemon.links.is_blocked(from) {
                let mut cluster = daemon.cluster.lock().expect("cluster poisoned");
                cluster.local_release(ticket, keep);
                // Best-effort: a release that fails to persist only
                // leaves the site wedged after a crash — the safe
                // direction (it abstains until a commit clears it).
                if let Err(error) = sync_durable(daemon, &cluster, None) {
                    daemon.log.log(&format!(
                        "release ticket={ticket}: durability failure: {error}"
                    ));
                }
            }
            Dispatch::Silent
        }

        // ---- client frames: the coordinator side --------------------
        // Put/Get never reach dispatch: `route` queues them for the
        // batch worker. Likewise the keyed, shard-map and link-rule
        // frames belong to the service, and no envelope survives
        // routing. Arriving here means one was sent *inside* a shard
        // envelope — confusion.
        Frame::Put { .. }
        | Frame::Get
        | Frame::Tagged { .. }
        | Frame::Shard { .. }
        | Frame::PutKey { .. }
        | Frame::GetKey { .. }
        | Frame::GetShardMap
        | Frame::InstallShardMap { .. }
        | Frame::Deny { .. }
        | Frame::Allow { .. }
        | Frame::HealLinks => Dispatch::Close,
        Frame::Recover => {
            let mut cluster = daemon.cluster.lock().expect("cluster poisoned");
            match cluster.recover(daemon.local) {
                Ok(()) => {
                    if let Err(error) = sync_durable(daemon, &cluster, None) {
                        return Dispatch::Reply(durability_refuse(daemon, "recover", &error));
                    }
                    let state = cluster.state_at(daemon.local);
                    let detail = format!(
                        "recovered: o={} v={} P={{{}}}",
                        state.op,
                        state.version,
                        fmt_sites(state.partition)
                    );
                    daemon.log.log(&format!(
                        "GRANT recover: {detail} — Figure 3/7: majority of P_m reachable, copy refreshed"
                    ));
                    Dispatch::Reply(Frame::Done { detail })
                }
                Err(err) => {
                    if let Err(error) = sync_durable(daemon, &cluster, None) {
                        daemon
                            .log
                            .log(&format!("recover refusal: durability failure: {error}"));
                    }
                    Dispatch::Reply(refuse(daemon, "recover", &err))
                }
            }
        }

        Frame::Status => {
            // `status` doubles as the liveness probe for every harness
            // (fleet boot, nemesis cooldown, smoke scripts). Under
            // faults a quorum round can hold the cluster lock for many
            // seconds of bounded peer timeouts, so blocking here would
            // starve the probe behind queued data operations and make
            // an alive daemon look dead. Spin briefly for the lock;
            // past that, answer `busy=1` — the prober learns the
            // process is up even when no state can be sampled.
            let give_up = Instant::now() + Duration::from_millis(1500);
            loop {
                match daemon.cluster.try_lock() {
                    Ok(cluster) => {
                        break Dispatch::Reply(Frame::Report {
                            text: status_text(daemon, &cluster),
                        });
                    }
                    Err(std::sync::TryLockError::Poisoned(error)) => {
                        panic!("cluster poisoned: {error}")
                    }
                    Err(std::sync::TryLockError::WouldBlock) => {
                        if Instant::now() >= give_up {
                            break Dispatch::Reply(Frame::Report {
                                text: format!("site={}\nbusy=1\n", daemon.local.index()),
                            });
                        }
                        std::thread::sleep(Duration::from_millis(10));
                    }
                }
            }
        }

        // A response frame arriving as a request is protocol confusion.
        Frame::StateRep { .. }
        | Frame::CommitAck { .. }
        | Frame::CopyRep { .. }
        | Frame::Abstain { .. }
        | Frame::Done { .. }
        | Frame::Value { .. }
        | Frame::Refused { .. }
        | Frame::Unavailable { .. }
        | Frame::Report { .. }
        | Frame::ShardMapRep { .. }
        | Frame::StaleShardMap { .. } => Dispatch::Close,
    }
}

/// The recipient side of a `COMMIT`, whole or delta: install it,
/// fsync it, acknowledge it — or stay silent, which the coordinator
/// counts as a missing acknowledgement.
fn serve_commit(
    daemon: &Arc<Daemon>,
    ticket: u64,
    from: SiteId,
    to: SiteId,
    state: ReplicaState,
    body: CommitBody,
) -> Dispatch {
    if daemon.links.is_blocked(from) {
        return Dispatch::Silent;
    }
    let mut cluster = daemon.cluster.lock().expect("cluster poisoned");
    let Some(installed) = install_commit(daemon, &mut cluster, to, ticket, state, body) else {
        return Dispatch::Silent;
    };
    // Fsync the installed commit before acknowledging it — an acked
    // commit must survive a crash. A durability failure stays silent:
    // the coordinator treats it as a missing ack (partial commit),
    // which is the honest outcome.
    if let Err(error) = sync_durable(daemon, &cluster, installed.applied.as_deref()) {
        daemon.log.log(&format!(
            "commit from S{} NOT acked — durability failure: {error}",
            from.index()
        ));
        return Dispatch::Silent;
    }
    daemon.log.log_with(|| {
        format!(
            "commit installed from S{}: o={} v={} P={{{}}}",
            from.index(),
            state.op,
            state.version,
            fmt_sites(state.partition)
        )
    });
    Dispatch::Reply(Frame::CommitAck {
        ticket,
        from: to,
        to: from,
    })
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

/// The `dynvote-ctl status` body: the paper's per-copy state
/// `⟨o_i, v_i, P_i⟩`, the operation counters, and per-link transport
/// health, one `key=value` per line.
fn status_text(daemon: &Arc<Daemon>, cluster: &StoreCluster) -> String {
    let state = cluster.state_at(daemon.local);
    let stats = cluster.stats();
    let pending = cluster.pending_sites().contains(daemon.local);
    let mut out = String::new();
    let mut line = |k: &str, v: String| {
        out.push_str(k);
        out.push('=');
        out.push_str(&v);
        out.push('\n');
    };
    line("site", daemon.local.index().to_string());
    line("shard", daemon.shard.to_string());
    line("policy", daemon.policy_name.to_string());
    line("op", state.op.to_string());
    line("version", state.version.to_string());
    line("partition", fmt_sites(state.partition));
    line("pending", pending.to_string());
    line(
        "value_len",
        cluster.value_at(daemon.local).image_len().to_string(),
    );
    line("reads_ok", stats.reads_ok.to_string());
    line("reads_refused", stats.reads_refused.to_string());
    line("writes_ok", stats.writes_ok.to_string());
    line("writes_refused", stats.writes_refused.to_string());
    line("recovers_ok", stats.recovers_ok.to_string());
    line("recovers_refused", stats.recovers_refused.to_string());
    line("links_blocked", fmt_sites(daemon.links.blocked()));
    line(
        "probe.released",
        daemon.probe_released.load(Ordering::Relaxed).to_string(),
    );
    line(
        "probe.commits",
        daemon.probe_commits.load(Ordering::Relaxed).to_string(),
    );
    line(
        "batch.rounds",
        daemon.batch_rounds.load(Ordering::Relaxed).to_string(),
    );
    line(
        "batch.ops",
        daemon.batch_ops.load(Ordering::Relaxed).to_string(),
    );
    line(
        "batch.max",
        daemon.batch_max.load(Ordering::Relaxed).to_string(),
    );
    match &daemon.store {
        Some(store) => {
            let store = store.lock().expect("site store poisoned");
            line("durability.enabled", "true".to_string());
            line("durability.snapshot_seq", store.snapshot_seq().to_string());
            line("durability.wal_records", store.wal_records().to_string());
            line("durability.wal_bytes", store.wal_bytes().to_string());
            line("durability.last_fsync", store.last_fsync().to_string());
        }
        None => line("durability.enabled", "false".to_string()),
    }
    for (site, peer) in cluster.transport().peer_stats() {
        let prefix = format!("peer.{}", site.index());
        line(&format!("{prefix}.connected"), peer.connected.to_string());
        line(
            &format!("{prefix}.blocked"),
            daemon.links.is_blocked(site).to_string(),
        );
        line(&format!("{prefix}.sends"), peer.sends.to_string());
        line(&format!("{prefix}.failures"), peer.failures.to_string());
        line(&format!("{prefix}.reconnects"), peer.reconnects.to_string());
        line(&format!("{prefix}.backoff_ms"), peer.backoff_ms.to_string());
    }
    out
}
