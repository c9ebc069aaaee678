//! Per-site durable storage: a write-ahead log under every commit.
//!
//! The paper's correctness argument assumes each copy's ⟨o_i, v_i, P_i⟩
//! lives on *stable storage* — a site that crashes and restarts still
//! holds everything it acknowledged before the crash. This module
//! supplies that storage for one site: a [`Wal`] of checksummed,
//! length-prefixed records fsync'd before any acknowledgement leaves
//! the site, folded into a running
//! [`DurableSiteState`] image that
//! periodically lands as an atomic snapshot (write-then-rename), after
//! which the log is truncated.
//!
//! Four record kinds cover the whole durable surface:
//!
//! * [`WalRecord::Commit`] — an absolute install of ⟨o, v, P⟩ (plus the
//!   data bytes when they changed). Replaying a commit twice is
//!   harmless, which is what makes the snapshot/truncate race safe: a
//!   crash between the snapshot rename and the log truncation leaves
//!   stale records behind, and replay skips any record whose sequence
//!   number the snapshot already covers.
//! * [`WalRecord::Delta`] — a commit whose write is recorded as a
//!   change against the data of version `base` instead of as the new
//!   data. Unlike a `Commit` it is *not* absolute: it only means
//!   something on top of the image it was logged on, so replay applies
//!   deltas strictly in log order and refuses a log whose deltas do not
//!   chain (see [`SiteStore::open_with_fold`]). The store never looks
//!   inside the change; a [`DeltaFold`] supplied at open turns "image +
//!   changes" back into an image when a snapshot needs one.
//! * [`WalRecord::Vote`] — the site answered a `START` and is wedged on
//!   an outstanding vote. Losing this across a crash could let the site
//!   vote in two conflicting operations, so it is fsync'd *before* the
//!   state reply leaves the site — outstanding votes are
//!   safety-critical state, not bookkeeping.
//! * [`WalRecord::Release`] — the outstanding vote resolved without a
//!   commit (the abort oracle spoke).
//!
//! Replay is torn-tail tolerant: a crash mid-append leaves a short or
//! checksum-broken tail, which [`Wal::open`] truncates back to the last
//! intact record and reports via [`WalTail`]. Corruption *before* the
//! tail also stops replay at the last good record — the log never
//! yields a record whose checksum does not match.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::hash::Hasher;
use std::io::{self, Read as _, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

use dynvote_core::wire::{put_state, put_u32, put_u64, put_u8, Reader};
use dynvote_core::Fnv64;

use crate::snapshot::{DurableSiteState, SnapshotLoad};

/// The write-ahead log's file name inside a site's data directory.
pub const WAL_FILE: &str = "wal.log";
/// The previous generation's log, kept until the next snapshot rotation
/// so a corrupt current snapshot can still be rebuilt from the previous
/// snapshot plus both logs.
pub const WAL_PREV_FILE: &str = "wal.prev.log";
/// The snapshot's file name inside a site's data directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";
/// The previous generation's snapshot, kept until the next rotation.
pub const SNAPSHOT_PREV_FILE: &str = "snapshot.prev.bin";
/// Where a corrupt snapshot is moved aside for forensics.
pub const SNAPSHOT_CORRUPT_FILE: &str = "snapshot.bin.corrupt";
/// Where a corrupt *previous* snapshot is moved aside for forensics.
pub const SNAPSHOT_PREV_CORRUPT_FILE: &str = "snapshot.prev.bin.corrupt";
/// The boot-epoch counter's file name inside a site's data directory.
pub const EPOCH_FILE: &str = "epoch.bin";

/// The durable namespace of one shard group under a site's base data
/// directory: `<base>/shard-<k>/`. Every shard hosted at a site gets
/// its own WAL, snapshot generation, boot-epoch counter, and operation
/// ledger — the groups vote independently, so their stable storage
/// must be independent too (one shard's snapshot/truncate cycle can
/// never tear another's log).
#[must_use]
pub fn shard_dir(base: &Path, shard: u16) -> PathBuf {
    base.join(format!("shard-{shard}"))
}

/// Upper bound on one record's body — matches the store's frame cap, so
/// any value that fit on the wire fits in the log, and a corrupted
/// length prefix cannot trigger a huge allocation.
const MAX_RECORD: usize = 16 * 1024 * 1024;

const KIND_COMMIT: u8 = 1;
const KIND_VOTE: u8 = 2;
const KIND_RELEASE: u8 = 3;
const KIND_DELTA: u8 = 4;

/// The checksum every durable artifact carries: the crate's fixed-key
/// FNV-1a over the record body (no per-process randomness — artifacts
/// written by one process must validate in the next).
#[must_use]
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// One durable event at a site, in protocol terms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalRecord {
    /// A commit landed: adopt this ⟨o, v, P⟩ outright, and — when
    /// `value` is `Some` — these data bytes. Clears any outstanding
    /// vote, exactly as a delivered commit does in the protocol.
    Commit {
        /// The committed consistency-control state.
        state: dynvote_core::state::ReplicaState,
        /// New data bytes, present only when the value changed
        /// (state-only commits from read absorption carry `None`).
        value: Option<Vec<u8>>,
    },
    /// A commit landed whose write is a change against the data this
    /// site held at version `base`: adopt ⟨o, v, P⟩, apply `delta` to
    /// the data. Clears any outstanding vote, like [`WalRecord::Commit`].
    Delta {
        /// The committed consistency-control state.
        state: dynvote_core::state::ReplicaState,
        /// The version of the data the change applies to — the version
        /// the image must hold when this record is logged or replayed.
        base: u64,
        /// The change, in the format the store's [`DeltaFold`] reads.
        delta: Vec<u8>,
    },
    /// The site answered a `START` for this operation ticket and is
    /// wedged until it learns the outcome.
    Vote {
        /// The operation ticket voted for.
        ticket: u64,
    },
    /// The outstanding vote for this ticket resolved without a commit.
    Release {
        /// The released operation ticket.
        ticket: u64,
    },
}

/// A [`WalRecord`] plus its log sequence number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalEntry {
    /// Monotone per-site sequence number; snapshots remember the last
    /// sequence they cover so stale log records are skipped on replay.
    pub seq: u64,
    /// The durable event.
    pub record: WalRecord,
}

/// How the log's tail looked on open.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalTail {
    /// Every byte parsed as an intact record.
    Clean,
    /// The final record was incomplete — the classic crash-mid-append
    /// shape. The dropped bytes never covered an acknowledged
    /// operation (acks follow fsync), so truncating them loses nothing.
    Torn {
        /// Bytes discarded from the tail.
        dropped_bytes: usize,
    },
    /// A record failed its checksum or decoded to garbage; replay
    /// stopped at the last good record and the rest was discarded.
    Corrupt {
        /// Bytes discarded from the first bad record onward.
        dropped_bytes: usize,
    },
}

impl fmt::Display for WalTail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalTail::Clean => f.write_str("clean"),
            WalTail::Torn { dropped_bytes } => {
                write!(f, "torn tail ({dropped_bytes} bytes dropped)")
            }
            WalTail::Corrupt { dropped_bytes } => {
                write!(f, "corrupt tail ({dropped_bytes} bytes dropped)")
            }
        }
    }
}

/// What [`Wal::open`] recovered from disk.
#[derive(Clone, Debug)]
pub struct WalReplay {
    /// Every intact record, in log order.
    pub entries: Vec<WalEntry>,
    /// How the tail looked (the file has already been truncated back to
    /// the last intact record when this is not [`WalTail::Clean`]).
    pub tail: WalTail,
}

/// An append-only, checksummed, fsync'd record log.
#[derive(Debug)]
pub struct Wal {
    file: File,
    records: u64,
    bytes: u64,
}

impl Wal {
    /// Opens (creating if absent) the log at `path`, replays every
    /// intact record, and repairs a torn or corrupt tail by truncating
    /// the file back to the last good record.
    ///
    /// # Errors
    ///
    /// Any I/O error opening, reading, or repairing the file.
    pub fn open(path: &Path) -> io::Result<(Wal, WalReplay)> {
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        let (entries, good_bytes, tail) = parse_log(&buf);
        if good_bytes < buf.len() as u64 {
            file.set_len(good_bytes)?;
            file.sync_data()?;
        }
        let records = entries.len() as u64;
        Ok((
            Wal {
                file,
                records,
                bytes: good_bytes,
            },
            WalReplay { entries, tail },
        ))
    }

    /// Appends one record and fsyncs it — on `Ok`, the record survives
    /// a crash. Callers acknowledge *after* this returns, never before.
    ///
    /// # Errors
    ///
    /// The write or the fsync failed; the on-disk tail may be torn, and
    /// the next [`Wal::open`] will repair it.
    pub fn append(&mut self, entry: &WalEntry) -> io::Result<()> {
        let encoded = encode_entry(entry);
        self.file.write_all(&encoded)?;
        self.file.sync_data()?;
        self.records += 1;
        self.bytes += encoded.len() as u64;
        Ok(())
    }

    /// Empties the log — called after a snapshot covering every logged
    /// record has durably landed.
    ///
    /// # Errors
    ///
    /// The truncation or its fsync failed.
    pub fn truncate(&mut self) -> io::Result<()> {
        self.file.set_len(0)?;
        self.file.sync_data()?;
        self.records = 0;
        self.bytes = 0;
        Ok(())
    }

    /// Records currently in the log.
    #[must_use]
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The log's current length in bytes.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

fn encode_entry(entry: &WalEntry) -> Vec<u8> {
    let mut body = Vec::with_capacity(64);
    put_u64(&mut body, entry.seq);
    match &entry.record {
        WalRecord::Commit { state, value } => {
            put_u8(&mut body, KIND_COMMIT);
            put_state(&mut body, state);
            match value {
                Some(bytes) => {
                    put_u8(&mut body, 1);
                    put_u32(
                        &mut body,
                        u32::try_from(bytes.len()).expect("value exceeds u32"),
                    );
                    body.extend_from_slice(bytes);
                }
                None => put_u8(&mut body, 0),
            }
        }
        WalRecord::Delta { state, base, delta } => {
            put_u8(&mut body, KIND_DELTA);
            put_state(&mut body, state);
            put_u64(&mut body, *base);
            put_u32(
                &mut body,
                u32::try_from(delta.len()).expect("delta exceeds u32"),
            );
            body.extend_from_slice(delta);
        }
        WalRecord::Vote { ticket } => {
            put_u8(&mut body, KIND_VOTE);
            put_u64(&mut body, *ticket);
        }
        WalRecord::Release { ticket } => {
            put_u8(&mut body, KIND_RELEASE);
            put_u64(&mut body, *ticket);
        }
    }
    let mut out = Vec::with_capacity(body.len() + 12);
    put_u32(
        &mut out,
        u32::try_from(body.len()).expect("record exceeds u32"),
    );
    let sum = checksum(&body);
    out.extend_from_slice(&body);
    put_u64(&mut out, sum);
    out
}

fn decode_body(body: &[u8]) -> Option<WalEntry> {
    let mut r = Reader::new(body);
    let seq = r.u64().ok()?;
    let record = match r.u8().ok()? {
        KIND_COMMIT => {
            let state = r.state().ok()?;
            let value = match r.u8().ok()? {
                0 => None,
                1 => {
                    let len = r.u32().ok()? as usize;
                    Some(r.bytes(len).ok()?.to_vec())
                }
                _ => return None,
            };
            WalRecord::Commit { state, value }
        }
        KIND_DELTA => {
            let state = r.state().ok()?;
            let base = r.u64().ok()?;
            let len = r.u32().ok()? as usize;
            WalRecord::Delta {
                state,
                base,
                delta: r.bytes(len).ok()?.to_vec(),
            }
        }
        KIND_VOTE => WalRecord::Vote {
            ticket: r.u64().ok()?,
        },
        KIND_RELEASE => WalRecord::Release {
            ticket: r.u64().ok()?,
        },
        _ => return None,
    };
    if !r.is_exhausted() {
        return None;
    }
    Some(WalEntry { seq, record })
}

/// Parses as many intact records as the buffer holds; returns the
/// entries, the byte offset of the first non-intact byte (the repair
/// point), and how the tail looked.
fn parse_log(buf: &[u8]) -> (Vec<WalEntry>, u64, WalTail) {
    let mut entries = Vec::new();
    let mut pos = 0usize;
    loop {
        let rest = &buf[pos..];
        if rest.is_empty() {
            return (entries, pos as u64, WalTail::Clean);
        }
        if rest.len() < 4 {
            return (
                entries,
                pos as u64,
                WalTail::Torn {
                    dropped_bytes: rest.len(),
                },
            );
        }
        let len = u32::from_be_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        if len > MAX_RECORD {
            return (
                entries,
                pos as u64,
                WalTail::Corrupt {
                    dropped_bytes: rest.len(),
                },
            );
        }
        let total = 4 + len + 8;
        if rest.len() < total {
            return (
                entries,
                pos as u64,
                WalTail::Torn {
                    dropped_bytes: rest.len(),
                },
            );
        }
        let body = &rest[4..4 + len];
        let sum = u64::from_be_bytes(rest[4 + len..total].try_into().expect("8 bytes"));
        let entry = if checksum(body) == sum {
            decode_body(body)
        } else {
            None
        };
        match entry {
            Some(entry) => entries.push(entry),
            None => {
                return (
                    entries,
                    pos as u64,
                    WalTail::Corrupt {
                        dropped_bytes: rest.len(),
                    },
                )
            }
        }
        pos += total;
    }
}

/// The last fsync's outcome, for operator status surfaces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncOutcome {
    /// No record has been appended yet this process lifetime.
    Never,
    /// The most recent append reached stable storage.
    Synced,
    /// The most recent append failed — the site must stop
    /// acknowledging until the disk recovers.
    Failed,
}

impl fmt::Display for FsyncOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FsyncOutcome::Never => "never",
            FsyncOutcome::Synced => "ok",
            FsyncOutcome::Failed => "failed",
        })
    }
}

/// Turns a full image plus the changes [`WalRecord::Delta`] records
/// logged on top of it (oldest first) back into one image. The store
/// treats both as opaque bytes; whoever logs deltas supplies the
/// function that understands them. `None` means the bytes do not parse
/// — the store reports that as corrupt data, never guesses.
pub type DeltaFold = fn(image: &[u8], deltas: &[Vec<u8>]) -> Option<Vec<u8>>;

/// The fold of a store opened without one: no delta is understood.
fn no_fold(_image: &[u8], _deltas: &[Vec<u8>]) -> Option<Vec<u8>> {
    None
}

fn invalid_data(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// What [`SiteStore::open`] found on disk.
#[derive(Clone, Debug)]
pub struct Restored {
    /// The restored image — `None` for a fresh data directory (no
    /// snapshot, no log records), in which case the caller seeds the
    /// store with the site's boot state via [`SiteStore::seed`].
    pub image: Option<DurableSiteState>,
    /// The snapshot file existed but failed validation and was moved
    /// aside to [`SNAPSHOT_CORRUPT_FILE`]; the image (if any) came from
    /// the previous-generation snapshot and/or log replay.
    pub snapshot_was_corrupt: bool,
    /// Recovery fell back to the previous-generation snapshot
    /// ([`SNAPSHOT_PREV_FILE`]) because the current one was missing or
    /// corrupt; the previous log was replayed on top of it first.
    pub used_previous_snapshot: bool,
    /// How the log's tail looked (already repaired).
    pub wal_tail: WalTail,
    /// Log records folded into the image (stale pre-snapshot records
    /// are skipped and not counted).
    pub replayed: u64,
}

/// One site's durable storage: snapshot + write-ahead log + the running
/// image they fold into.
///
/// The contract a daemon builds on: call [`SiteStore::log`] with the
/// protocol event *before* acknowledging it to anyone; on `Ok` the
/// event is on stable storage. Snapshots land automatically once the
/// log holds `snapshot_every` records and as many bytes as the image
/// (atomic write-then-rename, then log truncation) and can be forced
/// with [`SiteStore::snapshot_now`].
#[derive(Debug)]
pub struct SiteStore {
    dir: PathBuf,
    wal: Wal,
    /// ⟨o, v, P⟩, vote and sequence number are always current; `value`
    /// is the data as of the last full install, with `unfolded` still
    /// to be applied on top.
    image: DurableSiteState,
    /// Changes logged since `image.value` was last whole, oldest first.
    /// Folded in only when a whole image is needed (a snapshot, a
    /// caller asking for [`SiteStore::image`]), so logging a delta
    /// costs the delta, not the image.
    unfolded: Vec<Vec<u8>>,
    fold: DeltaFold,
    next_seq: u64,
    snapshot_every: u64,
    snapshot_seq: u64,
    last_fsync: FsyncOutcome,
    epoch: u64,
}

impl SiteStore {
    /// Opens (creating if needed) the durable store in `dir`: loads the
    /// snapshot if one validates (a corrupt one is moved aside), then
    /// folds in every intact log record the snapshot does not already
    /// cover. `snapshot_every` is the log's length in records before
    /// an automatic snapshot — deferred, for an image larger than that
    /// much log, until the log is as large as the image; `0` disables
    /// automatic snapshots.
    ///
    /// When the current snapshot is missing or corrupt, recovery chains
    /// back one generation: the previous snapshot
    /// ([`SNAPSHOT_PREV_FILE`]) plus the previous log
    /// ([`WAL_PREV_FILE`]) plus the current log rebuild the same image,
    /// because each rotation parks exactly the log that covers the gap
    /// between the two snapshots.
    ///
    /// # Errors
    ///
    /// Any I/O error other than a missing snapshot file. A corrupt
    /// snapshot or a torn/corrupt log tail is *not* an error — both are
    /// repaired and reported in [`Restored`].
    pub fn open(dir: &Path, snapshot_every: u64) -> io::Result<(SiteStore, Restored)> {
        SiteStore::open_with_fold(dir, snapshot_every, no_fold)
    }

    /// [`SiteStore::open`] for a store whose log may hold
    /// [`WalRecord::Delta`] records: `fold` is how their changes are
    /// applied to an image.
    ///
    /// Deltas replay strictly in log order, each on the image the
    /// records before it built, and each must find the image at the
    /// version it names as its base.
    ///
    /// # Errors
    ///
    /// As [`SiteStore::open`], plus `InvalidData` when a delta does not
    /// chain onto the image before it or `fold` rejects the bytes. That
    /// takes two injuries at once (a lost snapshot *and* a lost stretch
    /// of log), and the store refuses to come up holding ⟨o, v, P⟩ for
    /// data it cannot rebuild.
    pub fn open_with_fold(
        dir: &Path,
        snapshot_every: u64,
        fold: DeltaFold,
    ) -> io::Result<(SiteStore, Restored)> {
        std::fs::create_dir_all(dir)?;
        let snapshot_path = dir.join(SNAPSHOT_FILE);
        let mut snapshot_was_corrupt = false;
        let mut snapshot_image = None;
        match DurableSiteState::load(&snapshot_path)? {
            SnapshotLoad::Loaded(image) => snapshot_image = Some(image),
            SnapshotLoad::Missing => {}
            SnapshotLoad::Corrupt(_) => {
                snapshot_was_corrupt = true;
                let _ = std::fs::rename(&snapshot_path, dir.join(SNAPSHOT_CORRUPT_FILE));
            }
        }
        // Fall back one generation when the current snapshot is
        // unusable: the previous snapshot covers everything up to the
        // last rotation, and the previous log covers the gap from there
        // to the (lost) current snapshot.
        let mut used_previous_snapshot = false;
        let mut prev_entries: Vec<WalEntry> = Vec::new();
        if snapshot_image.is_none() {
            let prev_path = dir.join(SNAPSHOT_PREV_FILE);
            match DurableSiteState::load(&prev_path)? {
                SnapshotLoad::Loaded(image) => {
                    used_previous_snapshot = true;
                    snapshot_image = Some(image);
                }
                SnapshotLoad::Missing => {}
                SnapshotLoad::Corrupt(_) => {
                    let _ = std::fs::rename(&prev_path, dir.join(SNAPSHOT_PREV_CORRUPT_FILE));
                }
            }
            let prev_wal = dir.join(WAL_PREV_FILE);
            if prev_wal.exists() {
                let (_, prev_replay) = Wal::open(&prev_wal)?;
                prev_entries = prev_replay.entries;
            }
        }
        let snapshot_seq = snapshot_image.as_ref().map_or(0, |image| image.seq);
        let (wal, replay) = Wal::open(&dir.join(WAL_FILE))?;
        let had_snapshot = snapshot_image.is_some();
        let mut image = snapshot_image.unwrap_or_else(DurableSiteState::blank);
        let mut unfolded = Vec::new();
        let mut replayed = 0u64;
        for entry in prev_entries.iter().chain(&replay.entries) {
            // Skip records the snapshot already covers — the shape a
            // crash between snapshot rename and log truncation leaves.
            if entry.seq <= snapshot_seq {
                continue;
            }
            apply_entry(&mut image, &mut unfolded, entry).map_err(invalid_data)?;
            replayed += 1;
        }
        materialise(&mut image, &mut unfolded, fold)?;
        let restored = (had_snapshot || replayed > 0).then(|| image.clone());
        let next_seq = image.seq + 1;
        let epoch = bump_epoch(&dir.join(EPOCH_FILE))?;
        Ok((
            SiteStore {
                dir: dir.to_path_buf(),
                wal,
                image,
                unfolded,
                fold,
                next_seq,
                snapshot_every,
                snapshot_seq,
                last_fsync: FsyncOutcome::Never,
                epoch,
            },
            Restored {
                image: restored,
                snapshot_was_corrupt,
                used_previous_snapshot,
                wal_tail: replay.tail,
                replayed,
            },
        ))
    }

    /// Seeds a fresh store with the site's boot-time state and writes
    /// the initial snapshot, making the data directory self-contained
    /// from the first moment.
    ///
    /// # Errors
    ///
    /// Writing the initial snapshot failed.
    pub fn seed(
        &mut self,
        state: dynvote_core::state::ReplicaState,
        pending: Option<u64>,
        value: Option<Vec<u8>>,
    ) -> io::Result<()> {
        self.image = DurableSiteState {
            seq: self.next_seq - 1,
            state,
            pending,
            value,
        };
        self.unfolded.clear();
        self.snapshot_now()
    }

    /// Logs one durable event: appends it to the WAL, fsyncs, folds it
    /// into the running image, and — when the log has grown past
    /// `snapshot_every` records and past the size of the image —
    /// lands a snapshot and truncates the log. On `Ok`, the event
    /// survives a crash; acknowledge only then.
    ///
    /// # Errors
    ///
    /// The append/fsync (or a due snapshot) failed; the caller must not
    /// acknowledge the event, and status reports the failed fsync. A
    /// [`WalRecord::Delta`] whose base is not the image's version is
    /// refused as `InvalidInput` before anything is written.
    pub fn log(&mut self, record: WalRecord) -> io::Result<()> {
        if let WalRecord::Delta { base, .. } = &record {
            check_chain(&self.image, *base)
                .map_err(|why| io::Error::new(io::ErrorKind::InvalidInput, why))?;
        }
        let entry = WalEntry {
            seq: self.next_seq,
            record,
        };
        match self.wal.append(&entry) {
            Ok(()) => self.last_fsync = FsyncOutcome::Synced,
            Err(error) => {
                self.last_fsync = FsyncOutcome::Failed;
                return Err(error);
            }
        }
        self.next_seq += 1;
        apply_entry(&mut self.image, &mut self.unfolded, &entry).expect("chain checked above");
        if self.snapshot_due() {
            self.snapshot_now()?;
        }
        Ok(())
    }

    /// Whether the log has earned a snapshot: it holds `snapshot_every`
    /// records *and* at least as many bytes as the data the snapshot
    /// would rewrite. A snapshot costs one image of disk writes whatever
    /// the log holds, so it is paid once the log has grown by one image
    /// — which also bounds what a restart replays to the larger of
    /// `snapshot_every` records and one image's worth of log.
    fn snapshot_due(&self) -> bool {
        let image_bytes = self.image.value.as_ref().map_or(0, Vec::len) as u64;
        self.snapshot_every > 0
            && self.wal.records() >= self.snapshot_every
            && self.wal.bytes() >= image_bytes
    }

    /// Writes the current image as a snapshot and rotates generations:
    /// the old snapshot becomes [`SNAPSHOT_PREV_FILE`], the new image
    /// lands atomically as [`SNAPSHOT_FILE`], and the log it covers is
    /// parked as [`WAL_PREV_FILE`] (a fresh empty log takes its place).
    /// Keeping exactly one previous generation means a later corrupt
    /// *snapshot* is recoverable: previous snapshot + previous log +
    /// current log rebuild the same image.
    ///
    /// A crash at any point between the steps is safe: replay skips
    /// records a snapshot already covers, and every intermediate file
    /// layout chains back to a complete image.
    ///
    /// # Errors
    ///
    /// The snapshot write or a rename along the rotation failed.
    pub fn snapshot_now(&mut self) -> io::Result<()> {
        materialise(&mut self.image, &mut self.unfolded, self.fold)?;
        let snapshot_path = self.dir.join(SNAPSHOT_FILE);
        if snapshot_path.exists() {
            std::fs::rename(&snapshot_path, self.dir.join(SNAPSHOT_PREV_FILE))?;
        }
        self.image.write_atomic(&snapshot_path)?;
        self.snapshot_seq = self.image.seq;
        // Park the covered log and start a fresh one; the parked log is
        // what lets recovery bridge from the previous snapshot if the
        // one just written is later unreadable.
        let wal_path = self.dir.join(WAL_FILE);
        std::fs::rename(&wal_path, self.dir.join(WAL_PREV_FILE))?;
        let (fresh, _) = Wal::open(&wal_path)?;
        self.wal = fresh;
        std::fs::File::open(&self.dir)?.sync_all()?;
        Ok(())
    }

    /// The running durable image (snapshot state + folded log), with
    /// every logged delta folded into its data first.
    ///
    /// # Errors
    ///
    /// `InvalidData` when the store's [`DeltaFold`] rejects the image
    /// or a logged delta.
    pub fn image(&mut self) -> io::Result<&DurableSiteState> {
        materialise(&mut self.image, &mut self.unfolded, self.fold)?;
        Ok(&self.image)
    }

    /// The durable ⟨o, v, P⟩.
    #[must_use]
    pub fn state(&self) -> dynvote_core::state::ReplicaState {
        self.image.state
    }

    /// The durable outstanding vote, if any.
    #[must_use]
    pub fn pending(&self) -> Option<u64> {
        self.image.pending
    }

    /// The sequence number the on-disk snapshot covers.
    #[must_use]
    pub fn snapshot_seq(&self) -> u64 {
        self.snapshot_seq
    }

    /// Records currently in the log.
    #[must_use]
    pub fn wal_records(&self) -> u64 {
        self.wal.records()
    }

    /// The log's current length in bytes.
    #[must_use]
    pub fn wal_bytes(&self) -> u64 {
        self.wal.bytes()
    }

    /// The last fsync's outcome.
    #[must_use]
    pub fn last_fsync(&self) -> FsyncOutcome {
        self.last_fsync
    }

    /// The data directory this store lives in.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The boot epoch: how many times this data directory has been
    /// opened, persisted and fsync'd before [`SiteStore::open`]
    /// returns. A restarted daemon salts its vote-ticket namespace with
    /// this, so tickets issued before a crash are never reissued after
    /// it — a reissued ticket would look current to a site the old
    /// incarnation left wedged, silently lifting the wedge that guards
    /// against lineage forks.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// Reads, increments, and durably rewrites the boot-epoch counter
/// (write-then-rename, like the snapshot, so a crash mid-update leaves
/// the old epoch — which the next boot still increments past).
fn bump_epoch(path: &Path) -> io::Result<u64> {
    let epoch = match std::fs::read(path) {
        Ok(bytes) if bytes.len() == 8 => {
            u64::from_le_bytes(bytes.try_into().expect("length checked")) + 1
        }
        Ok(_) => 1, // torn or foreign contents: restart the count
        Err(error) if error.kind() == io::ErrorKind::NotFound => 1,
        Err(error) => return Err(error),
    };
    let tmp = path.with_file_name(format!("{EPOCH_FILE}.tmp"));
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(&epoch.to_le_bytes())?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(epoch)
}

/// Whether a delta against the data of version `base` applies to
/// `image` as it stands.
fn check_chain(image: &DurableSiteState, base: u64) -> Result<(), String> {
    if image.value.is_none() {
        return Err(format!(
            "delta on version {base} logged at a site that holds no data"
        ));
    }
    if image.state.version != base {
        return Err(format!(
            "delta on version {base} does not chain onto the image at version {} (seq {})",
            image.state.version, image.seq
        ));
    }
    Ok(())
}

/// Folds one log record into the image. A delta's change is queued on
/// `unfolded`, not applied: [`materialise`] does that for the whole
/// queue at once.
fn apply_entry(
    image: &mut DurableSiteState,
    unfolded: &mut Vec<Vec<u8>>,
    entry: &WalEntry,
) -> Result<(), String> {
    match &entry.record {
        WalRecord::Commit { state, value } => {
            image.state = *state;
            if let Some(bytes) = value {
                image.value = Some(bytes.clone());
                unfolded.clear();
            }
            // A delivered commit resolves the outstanding vote.
            image.pending = None;
        }
        WalRecord::Delta { state, base, delta } => {
            check_chain(image, *base)?;
            image.state = *state;
            unfolded.push(delta.clone());
            image.pending = None;
        }
        WalRecord::Vote { ticket } => image.pending = Some(*ticket),
        WalRecord::Release { .. } => image.pending = None,
    }
    image.seq = entry.seq;
    Ok(())
}

/// Applies the queued changes to the image's data, leaving it whole.
fn materialise(
    image: &mut DurableSiteState,
    unfolded: &mut Vec<Vec<u8>>,
    fold: DeltaFold,
) -> io::Result<()> {
    if unfolded.is_empty() {
        return Ok(());
    }
    let base = image
        .value
        .as_deref()
        .expect("deltas are only queued on an image that holds data");
    let folded = fold(base, unfolded).ok_or_else(|| {
        invalid_data(format!(
            "{} logged delta(s) do not apply to the image at seq {}",
            unfolded.len(),
            image.seq
        ))
    })?;
    image.value = Some(folded);
    unfolded.clear();
    Ok(())
}

/// Truncates `drop_bytes` off the end of the file at `path` — the
/// deterministic torn-write injector crash tests use to fabricate a
/// mid-append power cut.
///
/// # Errors
///
/// Opening or truncating the file failed.
pub fn inject_torn_tail(path: &Path, drop_bytes: u64) -> io::Result<()> {
    let file = OpenOptions::new().write(true).open(path)?;
    let len = file.metadata()?.len();
    file.set_len(len.saturating_sub(drop_bytes))
}

/// Flips every bit of the byte at `offset` in the file at `path` — the
/// deterministic corruption injector for checksum-detection tests.
///
/// # Errors
///
/// Opening, reading, or rewriting the byte failed (including an
/// `offset` past the end of the file).
pub fn inject_flip_byte(path: &Path, offset: u64) -> io::Result<()> {
    let mut file = OpenOptions::new().read(true).write(true).open(path)?;
    file.seek(SeekFrom::Start(offset))?;
    let mut byte = [0u8; 1];
    file.read_exact(&mut byte)?;
    byte[0] ^= 0xFF;
    file.seek(SeekFrom::Start(offset))?;
    file.write_all(&byte)?;
    file.sync_data()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynvote_core::state::ReplicaState;
    use dynvote_types::SiteSet;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "dynvote-wal-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn state(op: u64, version: u64) -> ReplicaState {
        ReplicaState {
            op,
            version,
            partition: SiteSet::from_indices([0, 1, 2]),
        }
    }

    fn commit(op: u64, version: u64, value: &[u8]) -> WalRecord {
        WalRecord::Commit {
            state: state(op, version),
            value: Some(value.to_vec()),
        }
    }

    #[test]
    fn wal_epoch_increments_every_open_and_survives_tampering() {
        let dir = scratch_dir("epoch");
        let (first, _) = SiteStore::open(&dir, 0).unwrap();
        assert_eq!(first.epoch(), 1);
        drop(first);
        let (second, _) = SiteStore::open(&dir, 0).unwrap();
        assert_eq!(second.epoch(), 2);
        drop(second);
        // A torn or foreign epoch file restarts the count rather than
        // failing the boot — the salt only needs to move, not be exact.
        std::fs::write(dir.join(EPOCH_FILE), b"junk").unwrap();
        let (third, _) = SiteStore::open(&dir, 0).unwrap();
        assert_eq!(third.epoch(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_append_replay_round_trip() {
        let dir = scratch_dir("round-trip");
        let path = dir.join(WAL_FILE);
        let mut expected = Vec::new();
        {
            let (mut wal, replay) = Wal::open(&path).unwrap();
            assert!(replay.entries.is_empty());
            assert_eq!(replay.tail, WalTail::Clean);
            for (seq, record) in [
                (1, commit(2, 2, b"v1")),
                (2, WalRecord::Vote { ticket: 77 }),
                (3, WalRecord::Release { ticket: 77 }),
                (
                    4,
                    WalRecord::Commit {
                        state: state(3, 2),
                        value: None,
                    },
                ),
                (
                    5,
                    WalRecord::Delta {
                        state: state(4, 3),
                        base: 2,
                        delta: b"change".to_vec(),
                    },
                ),
            ] {
                let entry = WalEntry { seq, record };
                wal.append(&entry).unwrap();
                expected.push(entry);
            }
            assert_eq!(wal.records(), 5);
        }
        let (wal, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.entries, expected);
        assert_eq!(replay.tail, WalTail::Clean);
        assert_eq!(wal.records(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_torn_tail_truncates_to_last_good_record() {
        let dir = scratch_dir("torn");
        let path = dir.join(WAL_FILE);
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            for seq in 1..=3 {
                wal.append(&WalEntry {
                    seq,
                    record: commit(seq + 1, seq + 1, b"value"),
                })
                .unwrap();
            }
        }
        // A crash mid-append: the final record loses its last 5 bytes.
        inject_torn_tail(&path, 5).unwrap();
        let torn_len = std::fs::metadata(&path).unwrap().len();
        let (wal, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.entries.len(), 2);
        assert_eq!(replay.entries.last().unwrap().seq, 2);
        assert!(matches!(replay.tail, WalTail::Torn { dropped_bytes } if dropped_bytes > 0));
        // The repair physically removed the torn bytes.
        assert!(std::fs::metadata(&path).unwrap().len() < torn_len);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), wal.bytes());
        // Appending after the repair continues cleanly.
        drop(wal);
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append(&WalEntry {
            seq: 3,
            record: commit(4, 4, b"retry"),
        })
        .unwrap();
        let (_, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.entries.len(), 3);
        assert_eq!(replay.tail, WalTail::Clean);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_corrupted_record_stops_replay_at_last_good() {
        let dir = scratch_dir("corrupt");
        let path = dir.join(WAL_FILE);
        let second_record_offset = {
            let (mut wal, _) = Wal::open(&path).unwrap();
            wal.append(&WalEntry {
                seq: 1,
                record: commit(2, 2, b"good"),
            })
            .unwrap();
            let offset = wal.bytes();
            wal.append(&WalEntry {
                seq: 2,
                record: commit(3, 3, b"doomed"),
            })
            .unwrap();
            wal.append(&WalEntry {
                seq: 3,
                record: commit(4, 4, b"shadowed"),
            })
            .unwrap();
            offset
        };
        // Flip a byte inside the *middle* record's body.
        inject_flip_byte(&path, second_record_offset + 6).unwrap();
        let (wal, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.entries.len(), 1, "replay stops at the corruption");
        assert_eq!(replay.entries[0].seq, 1);
        assert!(matches!(replay.tail, WalTail::Corrupt { dropped_bytes } if dropped_bytes > 0));
        assert_eq!(wal.records(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_site_store_snapshot_truncates_log_and_survives_reopen() {
        let dir = scratch_dir("store");
        let final_image;
        {
            let (mut store, restored) = SiteStore::open(&dir, 4).unwrap();
            assert!(restored.image.is_none(), "fresh directory");
            store.seed(state(1, 1), None, Some(b"v0".to_vec())).unwrap();
            for seq in 0..6u64 {
                store.log(commit(2 + seq, 2 + seq, b"payload")).unwrap();
            }
            // 6 records with snapshot_every=4: one auto-snapshot landed
            // at the 4th, leaving 2 in the log.
            assert_eq!(store.wal_records(), 2);
            assert_eq!(store.snapshot_seq(), 4);
            assert_eq!(store.last_fsync(), FsyncOutcome::Synced);
            final_image = store.image().unwrap().clone();
        }
        let (mut store, restored) = SiteStore::open(&dir, 4).unwrap();
        assert_eq!(restored.image.as_ref(), Some(&final_image));
        assert_eq!(restored.replayed, 2);
        assert!(!restored.snapshot_was_corrupt);
        assert_eq!(store.image().unwrap(), &final_image);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_stale_records_skipped_when_truncate_was_lost() {
        let dir = scratch_dir("stale");
        let (mut store, _) = SiteStore::open(&dir, 0).unwrap();
        store.seed(state(1, 1), None, Some(b"v0".to_vec())).unwrap();
        store.log(commit(2, 2, b"v1")).unwrap();
        store.log(commit(3, 3, b"v2")).unwrap();
        // Fabricate a crash *between* snapshot rename and log
        // truncation: snapshot the image, then restore the pre-snapshot
        // log bytes.
        let wal_bytes = std::fs::read(dir.join(WAL_FILE)).unwrap();
        store.snapshot_now().unwrap();
        assert_eq!(store.wal_records(), 0);
        drop(store);
        std::fs::write(dir.join(WAL_FILE), &wal_bytes).unwrap();
        let (store, restored) = SiteStore::open(&dir, 0).unwrap();
        assert_eq!(restored.replayed, 0, "stale records are skipped");
        let image = restored.image.unwrap();
        assert_eq!(image.state, state(3, 3));
        assert_eq!(image.value.as_deref(), Some(b"v2".as_slice()));
        // The stale records stay in the file (harmless — every reopen
        // skips them) until the next snapshot truncates the log.
        assert_eq!(store.wal_records(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_corrupt_snapshot_moved_aside_and_log_still_replays() {
        let dir = scratch_dir("bad-snap");
        {
            let (mut store, _) = SiteStore::open(&dir, 0).unwrap();
            store.seed(state(1, 1), None, Some(b"v0".to_vec())).unwrap();
            store.log(commit(2, 2, b"v1")).unwrap();
        }
        inject_flip_byte(&dir.join(SNAPSHOT_FILE), 12).unwrap();
        let (_, restored) = SiteStore::open(&dir, 0).unwrap();
        assert!(restored.snapshot_was_corrupt);
        assert!(dir.join(SNAPSHOT_CORRUPT_FILE).exists());
        // The log still carried the commit, so the image survives
        // (value included — the commit happened to carry bytes).
        let image = restored.image.unwrap();
        assert_eq!(image.state, state(2, 2));
        assert_eq!(image.value.as_deref(), Some(b"v1".as_slice()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_corrupt_snapshot_falls_back_to_previous_generation() {
        let dir = scratch_dir("prev-gen");
        let final_image;
        {
            let (mut store, _) = SiteStore::open(&dir, 0).unwrap();
            store.seed(state(1, 1), None, Some(b"v0".to_vec())).unwrap();
            store.log(commit(2, 2, b"v1")).unwrap();
            store.log(commit(3, 3, b"v2")).unwrap();
            // Rotation: snapshot(seq 2) becomes current, the two
            // commits are parked in the previous log.
            store.snapshot_now().unwrap();
            store.log(commit(4, 4, b"v3")).unwrap();
            final_image = store.image().unwrap().clone();
        }
        assert!(dir.join(SNAPSHOT_PREV_FILE).exists());
        assert!(dir.join(WAL_PREV_FILE).exists());
        // Corrupt the *current* snapshot AND tear the live log's tail
        // with appended garbage (the crash-mid-append shape): recovery
        // must chain previous snapshot -> previous log -> current log.
        inject_flip_byte(&dir.join(SNAPSHOT_FILE), 12).unwrap();
        let mut garbage = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join(WAL_FILE))
            .unwrap();
        garbage.write_all(&[0xA5; 3]).unwrap();
        drop(garbage);
        let (mut store, restored) = SiteStore::open(&dir, 0).unwrap();
        assert!(restored.snapshot_was_corrupt);
        assert!(restored.used_previous_snapshot);
        assert!(matches!(restored.wal_tail, WalTail::Torn { .. }));
        assert_eq!(restored.image.as_ref(), Some(&final_image));
        assert_eq!(store.image().unwrap(), &final_image);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_missing_current_snapshot_recovers_from_previous() {
        // The crash window between "rename current -> prev" and
        // "write new current": no current snapshot at all.
        let dir = scratch_dir("prev-missing-cur");
        let final_image;
        {
            let (mut store, _) = SiteStore::open(&dir, 0).unwrap();
            store.seed(state(1, 1), None, Some(b"v0".to_vec())).unwrap();
            store.log(commit(2, 2, b"v1")).unwrap();
            store.snapshot_now().unwrap();
            store.log(commit(3, 3, b"v2")).unwrap();
            final_image = store.image().unwrap().clone();
        }
        std::fs::rename(dir.join(SNAPSHOT_FILE), dir.join(SNAPSHOT_PREV_FILE)).unwrap();
        let (_, restored) = SiteStore::open(&dir, 0).unwrap();
        assert!(restored.used_previous_snapshot);
        assert!(!restored.snapshot_was_corrupt);
        assert_eq!(restored.image.as_ref(), Some(&final_image));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A toy change format for the store's own tests: the bytes to
    /// append to the image. (The store never looks inside a delta; the
    /// keyed store's real fold lives in `dynvote-control`.)
    fn append_fold(image: &[u8], deltas: &[Vec<u8>]) -> Option<Vec<u8>> {
        let mut out = image.to_vec();
        for delta in deltas {
            if delta.is_empty() {
                return None; // stands in for "does not parse"
            }
            out.extend_from_slice(delta);
        }
        Some(out)
    }

    fn delta(op: u64, base: u64, bytes: &[u8]) -> WalRecord {
        WalRecord::Delta {
            state: state(op, base + 1),
            base,
            delta: bytes.to_vec(),
        }
    }

    #[test]
    fn wal_delta_records_fold_in_log_order_across_reopen_and_snapshot() {
        let dir = scratch_dir("delta");
        let final_image;
        {
            let (mut store, _) = SiteStore::open_with_fold(&dir, 3, append_fold).unwrap();
            store.seed(state(1, 1), None, Some(b"v".to_vec())).unwrap();
            store.log(delta(2, 1, b"a")).unwrap();
            // A state-only commit between deltas keeps the chain.
            store
                .log(WalRecord::Commit {
                    state: state(3, 2),
                    value: None,
                })
                .unwrap();
            // The third record lands a snapshot of the folded image.
            store.log(delta(4, 2, b"b")).unwrap();
            assert_eq!(store.snapshot_seq(), 3);
            store.log(delta(5, 3, b"c")).unwrap();
            // A full commit replaces the data and whatever was queued.
            store.log(commit(6, 5, b"W")).unwrap();
            store.log(delta(7, 5, b"d")).unwrap();
            final_image = store.image().unwrap().clone();
            assert_eq!(final_image.value.as_deref(), Some(&b"Wd"[..]));
            assert_eq!(final_image.state, state(7, 6));
        }
        let (mut store, restored) = SiteStore::open_with_fold(&dir, 3, append_fold).unwrap();
        assert_eq!(restored.image.as_ref(), Some(&final_image));
        assert_eq!(store.image().unwrap(), &final_image);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Logs 64-byte deltas on an image of `image_len` bytes until the
    /// first automatic snapshot; returns how many records and bytes the
    /// log held when it landed.
    fn log_until_first_snapshot(tag: &str, image_len: usize) -> (u64, u64) {
        let dir = scratch_dir(tag);
        let (mut store, _) = SiteStore::open_with_fold(&dir, 64, append_fold).unwrap();
        store
            .seed(state(1, 1), None, Some(vec![7u8; image_len]))
            .unwrap();
        let seeded = store.snapshot_seq();
        store.log(delta(2, 1, &[9u8; 64])).unwrap();
        let record_bytes = store.wal_bytes();
        let mut landed = None;
        for step in 1..4096u64 {
            let held = (store.wal_records(), store.wal_bytes());
            store.log(delta(2 + step, 1 + step, &[9u8; 64])).unwrap();
            if store.snapshot_seq() != seeded {
                assert_eq!(store.wal_records(), 0, "the snapshot parks the log");
                landed = Some((held.0 + 1, held.1 + record_bytes));
                break;
            }
        }
        // The cadence changes when the image is rewritten, never what a
        // restart rebuilds.
        let image = store.image().unwrap().clone();
        drop(store);
        let (_, restored) = SiteStore::open_with_fold(&dir, 64, append_fold).unwrap();
        assert_eq!(restored.image, Some(image));
        std::fs::remove_dir_all(&dir).ok();
        landed.expect("4096 records outgrow either image")
    }

    #[test]
    fn wal_snapshot_waits_for_a_log_as_large_as_the_image() {
        // A small image: due at exactly `snapshot_every` records.
        let (records, _) = log_until_first_snapshot("cadence-small", 16);
        assert_eq!(records, 64);
        // A 100 KB image: rewriting it every 64 small records would
        // write fifteen times what the log holds. It lands with the
        // record that takes the log past the image's size, not before.
        let image_len = 100 * 1024;
        let (records, bytes) = log_until_first_snapshot("cadence-large", image_len);
        let record_bytes = bytes / records;
        assert!(records > 64, "{records} records");
        assert!(bytes >= image_len as u64, "{bytes} B of log");
        assert!(
            bytes - record_bytes < image_len as u64,
            "landed late: {bytes} B of log for a {image_len} B image"
        );
    }

    #[test]
    fn wal_delta_on_the_wrong_base_is_refused_before_it_is_written() {
        let dir = scratch_dir("delta-base");
        let (mut store, _) = SiteStore::open_with_fold(&dir, 0, append_fold).unwrap();
        store.seed(state(1, 1), None, Some(b"v".to_vec())).unwrap();
        let refused = store.log(delta(2, 7, b"x")).unwrap_err();
        assert_eq!(refused.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(store.wal_records(), 0, "nothing reached the log");
        // A witness holds no data for a delta to apply to.
        store.seed(state(1, 1), None, None).unwrap();
        assert!(store.log(delta(2, 1, b"x")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_delta_log_that_lost_its_image_refuses_to_open() {
        let dir = scratch_dir("delta-orphan");
        {
            let (mut store, _) = SiteStore::open_with_fold(&dir, 0, append_fold).unwrap();
            store.seed(state(1, 1), None, Some(b"v".to_vec())).unwrap();
            store.log(delta(2, 1, b"a")).unwrap();
        }
        // First generation, so there is no previous snapshot to fall
        // back to: the delta has nothing to apply to.
        std::fs::remove_file(dir.join(SNAPSHOT_FILE)).unwrap();
        let error = SiteStore::open_with_fold(&dir, 0, append_fold).unwrap_err();
        assert_eq!(error.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_delta_the_fold_rejects_fails_the_snapshot_not_the_process() {
        let dir = scratch_dir("delta-unfoldable");
        let (mut store, _) = SiteStore::open_with_fold(&dir, 0, append_fold).unwrap();
        store.seed(state(1, 1), None, Some(b"v".to_vec())).unwrap();
        store.log(delta(2, 1, b"")).unwrap();
        assert_eq!(
            store.snapshot_now().unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        // A store opened without a fold understands no delta at all.
        drop(store);
        assert!(SiteStore::open(&dir, 0).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_vote_then_release_round_trip_pending() {
        let dir = scratch_dir("pending");
        {
            let (mut store, _) = SiteStore::open(&dir, 0).unwrap();
            store.seed(state(1, 1), None, Some(b"v0".to_vec())).unwrap();
            store.log(WalRecord::Vote { ticket: 42 }).unwrap();
        }
        {
            let (mut store, restored) = SiteStore::open(&dir, 0).unwrap();
            assert_eq!(
                restored.image.unwrap().pending,
                Some(42),
                "outstanding votes survive the crash"
            );
            store.log(WalRecord::Release { ticket: 42 }).unwrap();
        }
        let (_, restored) = SiteStore::open(&dir, 0).unwrap();
        assert_eq!(restored.image.unwrap().pending, None);
        std::fs::remove_dir_all(&dir).ok();
    }
}
