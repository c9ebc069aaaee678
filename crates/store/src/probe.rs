//! Wedge resolution: the durable vote-probe ledger.
//!
//! A participant that answers a `START` with `mark_pending` holds an
//! *outstanding vote* — it abstains from every other operation until
//! the coordinator's `COMMIT` or `RELEASE` arrives. Both of those are
//! delivered best-effort: a `RELEASE` is fire-and-forget, and a
//! `COMMIT` whose retries run out simply leaves the participant in the
//! coordinator's `missing` set. On the in-memory transport that is
//! harmless (the model's operations are atomic), but on a real network
//! a lost resolution frame wedges the participant *forever* — live
//! fault campaigns reliably drive whole clusters into a state where
//! every site is wedged, every site abstains, and no RECOVER can ever
//! hear a reply.
//!
//! The escape is a pull path to complement the push: a wedged site
//! periodically sends a `VOTE-PROBE` for its pending ticket to the
//! coordinator that issued it (tickets encode the coordinator's site
//! index, so the target is always known). The coordinator answers from
//! the **ledger** ([`OpLedger`]): a file in the data directory,
//! appended at the *commit point* of every operation —
//! after the decision, strictly before the coordinator applies the
//! commit to its own replica and before any `COMMIT` frame leaves the
//! host — and replayed at boot, so the record survives a coordinator
//! crash.
//!
//! The answers, and why each direction is sound:
//!
//! * Ticket ledgered as **committed**, prober in the committed
//!   partition: re-send the `COMMIT` itself (state and value — or
//!   state and the keyed batch's puts, when that is what every
//!   participant was sent). The prober voted for exactly this operation, so this is
//!   the frame it lost; applying it twice is idempotent. A committed
//!   participant is **never** answered with a release — releasing a
//!   stale member of `P_new` would let it assemble a majority of
//!   `P_old` with other stale sites and fork the partition lineage.
//! * Ticket ledgered as **committed**, prober outside the committed
//!   partition: it voted but was excluded from `P_new` (it lacked the
//!   maximal version). Release it. The excluded sites are a strict
//!   minority of `P_old`, and any group they later join that could win
//!   a decision must contain a `P_new` member whose state dominates —
//!   so freeing their votes cannot fork the lineage.
//! * Ticket ledgered as **released** (the operation aborted): re-send
//!   the release — a decision the coordinator already made.
//! * Ticket from a **dead incarnation** of the coordinator, absent
//!   from the ledger and **above its high-water mark**: the ledger
//!   record is fsync'd before any effect of a commit exists, so an
//!   unledgered ticket provably never committed anywhere — every vote
//!   for it is non-binding and releasable. (Tickets are totally
//!   ordered across incarnations: the boot epoch is salted into bits
//!   32–47.)
//! * Anything else — in flight, or evicted from the bounded in-memory
//!   ring: abstain. The prober stays wedged, which is the safe
//!   direction.

use std::collections::{BTreeMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use dynvote_core::state::ReplicaState;
use dynvote_types::{SiteId, SiteSet};

use crate::value::Delta;

/// The durable operation ledger inside a site's data directory.
pub const LEDGER_FILE: &str = "ledger.log";

/// The coordinator site index encoded in a vote ticket (bits 48–63).
#[must_use]
pub fn coordinator_of(ticket: u64) -> usize {
    (ticket >> 48) as usize
}

/// The coordinator boot epoch encoded in a vote ticket (bits 32–47).
#[must_use]
pub fn epoch_of(ticket: u64) -> u64 {
    (ticket >> 32) & 0xFFFF
}

/// What rode a commit besides `⟨o, v, P⟩`. The ledger shares these
/// with whoever built them — it never copies an image.
#[derive(Clone, Debug)]
pub enum CommitBody {
    /// Nothing: a read's or a recovery's state-only commit.
    StateOnly,
    /// A write's whole value.
    Image(Arc<Vec<u8>>),
    /// A keyed write batch, as the puts every participant applied to
    /// the version it voted with. Recorded in this form only when all
    /// of them voted at the delta's base, so the re-sent frame applies
    /// wherever the lost one would have.
    Delta(Arc<Delta>),
}

/// The commit content recorded for one operation — what a kept
/// participant's lost `COMMIT` frame carried.
#[derive(Clone, Debug)]
pub struct CommitRecord {
    /// The committed `⟨o, v, P⟩`.
    pub state: ReplicaState,
    /// What rode the commit.
    pub body: CommitBody,
}

/// How a coordinator answers a vote probe for a ticket it has ledgered.
#[derive(Clone, Debug)]
pub enum ProbeAnswer {
    /// The vote is non-binding for the prober: re-send the release
    /// (with the set of sites that must still hold, so a kept site
    /// that somehow probes is still not freed).
    Release(SiteSet),
    /// The prober is a committed participant: re-send the commit.
    Commit(CommitRecord),
    /// Not in the ledger — in flight, evicted, or from a dead
    /// incarnation. The caller falls back to the high-water rule.
    Unknown,
}

enum LedgerEntry {
    /// The operation reached its commit point with this content.
    Committed(CommitRecord),
    /// The operation aborted; everyone outside `keep` may release.
    Released(SiteSet),
}

const TAG_COMMIT: u8 = 1;
const TAG_RELEASE: u8 = 2;
const TAG_COMMIT_DELTA: u8 = 3;
const TAG_HIGH_WATER: u8 = 4;

/// Records the file may hold before it is rewritten down to the
/// retained entries. Four times the default retention, so a record is
/// rewritten at most once for every three appended.
const COMPACT_AT: usize = 4096;

impl LedgerEntry {
    fn encode(&self, ticket: u64) -> Vec<u8> {
        let mut record = Vec::with_capacity(48);
        match self {
            LedgerEntry::Committed(commit) => {
                record.push(match commit.body {
                    CommitBody::Delta(_) => TAG_COMMIT_DELTA,
                    _ => TAG_COMMIT,
                });
                record.extend_from_slice(&ticket.to_le_bytes());
                record.extend_from_slice(&commit.state.op.to_le_bytes());
                record.extend_from_slice(&commit.state.version.to_le_bytes());
                record.extend_from_slice(&commit.state.partition.bits().to_le_bytes());
                let blob = match &commit.body {
                    CommitBody::StateOnly => {
                        record.push(0);
                        return record;
                    }
                    CommitBody::Image(bytes) => {
                        record.push(1);
                        bytes.as_slice()
                    }
                    CommitBody::Delta(delta) => {
                        record.extend_from_slice(&delta.base.to_le_bytes());
                        delta.puts.as_slice()
                    }
                };
                let len = u32::try_from(blob.len()).expect("ledgered payload fits a frame");
                record.extend_from_slice(&len.to_le_bytes());
                record.extend_from_slice(blob);
            }
            LedgerEntry::Released(keep) => {
                record.push(TAG_RELEASE);
                record.extend_from_slice(&ticket.to_le_bytes());
                record.extend_from_slice(&keep.bits().to_le_bytes());
            }
        }
        record
    }
}

/// The ledger's file and how many records it holds.
struct Disk {
    file: File,
    path: PathBuf,
    records: usize,
}

/// The operation ledger: bounded in memory (old entries are evicted
/// in ticket order, which is issue order), append-only on disk when
/// opened against a data directory — until the file holds
/// `COMPACT_AT` records, when it is rewritten down to the retained
/// entries. Commit records are fsync'd at the commit point; release
/// records are appended best-effort (losing one only costs liveness —
/// the prober stays wedged — never safety).
///
/// Dropping evicted records from the file is safe for the same reason
/// evicting them from memory is: an unknown ticket is answered with an
/// abstention, the safe direction. The one fact the dropped records
/// carried that still matters — how high committed tickets reached —
/// is written at the head of the rewritten file.
pub struct OpLedger {
    entries: BTreeMap<u64, LedgerEntry>,
    order: VecDeque<u64>,
    cap: usize,
    disk: Option<Disk>,
    high_water: u64,
}

impl Default for OpLedger {
    fn default() -> Self {
        OpLedger::new(1024)
    }
}

impl OpLedger {
    /// An in-memory ledger keeping at most `cap` tickets.
    #[must_use]
    pub fn new(cap: usize) -> Self {
        OpLedger {
            entries: BTreeMap::new(),
            order: VecDeque::new(),
            cap: cap.max(1),
            disk: None,
            high_water: 0,
        }
    }

    /// Opens (or creates) the durable ledger in `dir`, replaying every
    /// intact record a previous incarnation appended. Replay stops at
    /// the first truncated or unrecognised record — the torn tail a
    /// crash mid-append leaves behind — and cuts the file back to
    /// there, so this incarnation's records follow the last intact one.
    /// A file holding more records than the ledger retains is rewritten
    /// down to those; a file that does not is left as it is.
    ///
    /// # Errors
    ///
    /// File creation, the initial read, or a needed repair failed.
    pub fn open(dir: &Path) -> std::io::Result<OpLedger> {
        let path = dir.join(LEDGER_FILE);
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let mut ledger = OpLedger::default();
        let (records, intact) = ledger.replay(&bytes);
        if intact < bytes.len() {
            file.set_len(intact as u64)?;
            file.sync_data()?;
        }
        ledger.disk = Some(Disk {
            file,
            path,
            records,
        });
        if records > ledger.order.len() + 1 {
            ledger.compact()?;
        }
        Ok(ledger)
    }

    /// The highest ticket that ever reached its commit point here —
    /// replayed records included. Tickets above it provably never
    /// committed in any dead incarnation of this site.
    #[must_use]
    pub fn high_water(&self) -> u64 {
        self.high_water
    }

    fn insert(&mut self, ticket: u64, entry: LedgerEntry) {
        if !self.entries.contains_key(&ticket) {
            if self.order.len() >= self.cap {
                if let Some(old) = self.order.pop_front() {
                    self.entries.remove(&old);
                }
            }
            self.order.push_back(ticket);
        }
        self.entries.insert(ticket, entry);
    }

    /// Rewrites the file as: the high-water mark, then the retained
    /// entries in issue order. Write-temp-rename, so a crash leaves the
    /// old file or the new one.
    fn compact(&mut self) -> std::io::Result<()> {
        let Some(disk) = &mut self.disk else {
            return Ok(());
        };
        let mut image = vec![TAG_HIGH_WATER];
        image.extend_from_slice(&self.high_water.to_le_bytes());
        for ticket in &self.order {
            image.extend_from_slice(&self.entries[ticket].encode(*ticket));
        }
        let tmp = disk.path.with_extension("log.tmp");
        {
            let mut file = File::create(&tmp)?;
            file.write_all(&image)?;
            file.sync_all()?;
        }
        std::fs::rename(&tmp, &disk.path)?;
        if let Some(dir) = disk.path.parent() {
            File::open(dir)?.sync_all()?;
        }
        disk.file = OpenOptions::new().append(true).open(&disk.path)?;
        disk.records = self.order.len() + 1;
        Ok(())
    }

    /// Appends one entry's record to the file, if there is one; `sync`
    /// makes it durable before returning.
    fn append(&mut self, ticket: u64, entry: &LedgerEntry, sync: bool) -> std::io::Result<()> {
        let Some(disk) = &mut self.disk else {
            return Ok(());
        };
        disk.file.write_all(&entry.encode(ticket))?;
        if sync {
            disk.file.sync_data()?;
        }
        disk.records += 1;
        Ok(())
    }

    /// Records the commit content of `ticket` at its commit point and
    /// makes the record durable (fsync) before returning. The caller
    /// must invoke this before the commit has *any* effect — local
    /// apply included.
    ///
    /// # Errors
    ///
    /// The append or fsync failed. The commit must not proceed on an
    /// error: an unledgered committed ticket looks releasable to the
    /// next incarnation.
    pub fn note(
        &mut self,
        ticket: u64,
        state: ReplicaState,
        body: CommitBody,
    ) -> std::io::Result<()> {
        let entry = LedgerEntry::Committed(CommitRecord { state, body });
        self.append(ticket, &entry, true)?;
        self.insert(ticket, entry);
        self.high_water = self.high_water.max(ticket);
        if self.disk.as_ref().is_some_and(|d| d.records >= COMPACT_AT) {
            // The record above is already durable; a failed rewrite
            // only leaves the longer file in place.
            if let Err(error) = self.compact() {
                eprintln!("commit ledger compaction failed at ticket {ticket}: {error}");
            }
        }
        Ok(())
    }

    /// [`OpLedger::note`] for a caller holding a write's value as plain
    /// bytes (or none, for a state-only commit): the bytes are copied
    /// once, into the shared form the ledger keeps.
    ///
    /// # Errors
    ///
    /// As [`OpLedger::note`].
    pub fn note_commit(
        &mut self,
        ticket: u64,
        state: ReplicaState,
        value: Option<&Vec<u8>>,
    ) -> std::io::Result<()> {
        let body = match value {
            Some(bytes) => CommitBody::Image(Arc::new(bytes.clone())),
            None => CommitBody::StateOnly,
        };
        self.note(ticket, state, body)
    }

    /// Records that `ticket` was released with `keep` still bound —
    /// the moment the release is decided, whoever it is then sent to.
    /// Appended without fsync: a lost release record leaves the prober
    /// wedged (safe), never mis-freed. A ticket already ledgered as committed keeps
    /// its commit record — the post-commit release of the `missing`
    /// set must not downgrade kept participants to releasable.
    pub fn note_release(&mut self, ticket: u64, keep: SiteSet) {
        if matches!(self.entries.get(&ticket), Some(LedgerEntry::Committed(_))) {
            return;
        }
        let entry = LedgerEntry::Released(keep);
        let _ = self.append(ticket, &entry, false);
        self.insert(ticket, entry);
    }

    /// Answers a probe from `prober` about `ticket`.
    #[must_use]
    pub fn answer(&self, ticket: u64, prober: SiteId) -> ProbeAnswer {
        match self.entries.get(&ticket) {
            Some(LedgerEntry::Committed(record)) => {
                if record.state.partition.contains(prober) {
                    ProbeAnswer::Commit(record.clone())
                } else {
                    ProbeAnswer::Release(record.state.partition)
                }
            }
            Some(LedgerEntry::Released(keep)) => {
                if keep.contains(prober) {
                    ProbeAnswer::Unknown
                } else {
                    ProbeAnswer::Release(*keep)
                }
            }
            None => ProbeAnswer::Unknown,
        }
    }

    /// Folds every intact record of `bytes` into the ledger. Returns
    /// how many there were and where they end.
    fn replay(&mut self, bytes: &[u8]) -> (usize, usize) {
        let mut records = 0usize;
        let mut at = 0usize;
        while let Some(next) = self.replay_one(bytes, at) {
            records += 1;
            at = next;
        }
        (records, at)
    }

    /// Replays the record starting at `at`; `None` at the end of the
    /// bytes and at a truncated or unrecognised record.
    fn replay_one(&mut self, bytes: &[u8], at: usize) -> Option<usize> {
        let u64_at = |at: usize| {
            bytes
                .get(at..at + 8)
                .map(|s| u64::from_le_bytes(s.try_into().expect("8-byte slice")))
        };
        let blob_at = |at: usize| {
            let len = bytes
                .get(at..at + 4)
                .map(|s| u32::from_le_bytes(s.try_into().expect("4-byte slice")))?
                as usize;
            let body = bytes.get(at + 4..at + 4 + len)?;
            Some((body.to_vec(), at + 4 + len))
        };
        match *bytes.get(at)? {
            tag @ (TAG_COMMIT | TAG_COMMIT_DELTA) => {
                let ticket = u64_at(at + 1)?;
                let state = ReplicaState {
                    op: u64_at(at + 9)?,
                    version: u64_at(at + 17)?,
                    partition: SiteSet::from_bits(u64_at(at + 25)?),
                };
                let (body, next) = if tag == TAG_COMMIT_DELTA {
                    let base = u64_at(at + 33)?;
                    let (puts, next) = blob_at(at + 41)?;
                    (CommitBody::Delta(Arc::new(Delta { base, puts })), next)
                } else {
                    match *bytes.get(at + 33)? {
                        0 => (CommitBody::StateOnly, at + 34),
                        1 => {
                            let (image, next) = blob_at(at + 34)?;
                            (CommitBody::Image(Arc::new(image)), next)
                        }
                        _ => return None,
                    }
                };
                self.insert(ticket, LedgerEntry::Committed(CommitRecord { state, body }));
                self.high_water = self.high_water.max(ticket);
                Some(next)
            }
            TAG_RELEASE => {
                let ticket = u64_at(at + 1)?;
                let keep = u64_at(at + 9)?;
                if !matches!(self.entries.get(&ticket), Some(LedgerEntry::Committed(_))) {
                    self.insert(ticket, LedgerEntry::Released(SiteSet::from_bits(keep)));
                }
                Some(at + 17)
            }
            TAG_HIGH_WATER => {
                self.high_water = self.high_water.max(u64_at(at + 1)?);
                Some(at + 9)
            }
            // Unrecognised tag: a torn or corrupt tail. Everything
            // before it was intact; stop here.
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(op: u64, version: u64) -> ReplicaState {
        ReplicaState {
            op,
            version,
            partition: SiteSet::from_iter([0, 1, 2].map(SiteId::new)),
        }
    }

    #[test]
    fn ticket_fields_decode() {
        let ticket = (3u64 << 48) | (7u64 << 32) | 42;
        assert_eq!(coordinator_of(ticket), 3);
        assert_eq!(epoch_of(ticket), 7);
    }

    #[test]
    fn unledgered_tickets_answer_unknown() {
        let ledger = OpLedger::default();
        assert!(matches!(
            ledger.answer(9, SiteId::new(1)),
            ProbeAnswer::Unknown
        ));
    }

    #[test]
    fn committed_tickets_recommit_participants_and_release_the_rest() {
        let mut ledger = OpLedger::default();
        let value = vec![1u8, 2, 3];
        let committed = ReplicaState {
            op: 2,
            version: 5,
            partition: SiteSet::from_iter([0, 2].map(SiteId::new)),
        };
        ledger
            .note_commit(9, committed, Some(&value))
            .expect("in-memory note_commit");
        match ledger.answer(9, SiteId::new(2)) {
            ProbeAnswer::Commit(record) => {
                assert_eq!(record.state.op, 2);
                assert!(matches!(&record.body, CommitBody::Image(v) if **v == [1u8, 2, 3]));
            }
            other => panic!("expected commit, got {other:?}"),
        }
        // Excluded from P_new: released, never recommitted.
        match ledger.answer(9, SiteId::new(1)) {
            ProbeAnswer::Release(keep) => assert!(keep.contains(SiteId::new(2))),
            other => panic!("expected release, got {other:?}"),
        }
        assert!(matches!(
            ledger.answer(8, SiteId::new(1)),
            ProbeAnswer::Unknown
        ));
    }

    #[test]
    fn post_commit_release_does_not_downgrade_the_commit() {
        let mut ledger = OpLedger::default();
        ledger
            .note_commit(9, state(2, 5), None)
            .expect("in-memory note_commit");
        // The coordinator releases the missing set after the fanout;
        // a kept participant probing later must still get the commit.
        ledger.note_release(9, SiteSet::from_iter([SiteId::new(1)]));
        assert!(matches!(
            ledger.answer(9, SiteId::new(1)),
            ProbeAnswer::Commit(_)
        ));
    }

    #[test]
    fn refusals_ledger_as_releases() {
        let mut ledger = OpLedger::default();
        ledger.note_release(4, SiteSet::EMPTY);
        assert!(matches!(
            ledger.answer(4, SiteId::new(0)),
            ProbeAnswer::Release(keep) if keep.is_empty()
        ));
    }

    #[test]
    fn ledger_evicts_in_issue_order() {
        let mut ledger = OpLedger::new(2);
        ledger.note_release(1, SiteSet::EMPTY);
        ledger.note_release(2, SiteSet::EMPTY);
        ledger.note_release(3, SiteSet::EMPTY);
        assert!(matches!(
            ledger.answer(1, SiteId::new(0)),
            ProbeAnswer::Unknown
        ));
        assert!(matches!(
            ledger.answer(3, SiteId::new(0)),
            ProbeAnswer::Release(_)
        ));
    }

    #[test]
    fn durable_ledger_replays_across_reopen() {
        let dir = std::env::temp_dir().join(format!("dynvote-ledger-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let value = vec![9u8, 8];
        {
            let mut ledger = OpLedger::open(&dir).expect("open ledger");
            assert_eq!(ledger.high_water(), 0);
            ledger
                .note_commit(77, state(3, 2), Some(&value))
                .expect("durable note_commit");
            ledger.note_release(78, SiteSet::EMPTY);
            assert_eq!(ledger.high_water(), 77);
            let delta = Arc::new(Delta {
                base: 2,
                puts: b"puts".to_vec(),
            });
            ledger
                .note(79, state(4, 3), CommitBody::Delta(delta))
                .expect("durable delta record");
        }
        let reopened = OpLedger::open(&dir).expect("reopen ledger");
        assert_eq!(reopened.high_water(), 79);
        match reopened.answer(79, SiteId::new(2)) {
            ProbeAnswer::Commit(CommitRecord {
                state,
                body: CommitBody::Delta(delta),
            }) => {
                assert_eq!(state.version, 3);
                assert_eq!((delta.base, delta.puts.as_slice()), (2, &b"puts"[..]));
            }
            other => panic!("expected the replayed delta, got {other:?}"),
        }
        match reopened.answer(77, SiteId::new(1)) {
            ProbeAnswer::Commit(record) => {
                assert_eq!(record.state.version, 2);
                assert!(matches!(&record.body, CommitBody::Image(v) if **v == [9u8, 8]));
            }
            other => panic!("expected replayed commit, got {other:?}"),
        }
        assert!(matches!(
            reopened.answer(78, SiteId::new(0)),
            ProbeAnswer::Release(_)
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_keeps_the_intact_prefix() {
        let dir = std::env::temp_dir().join(format!("dynvote-ledger-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        {
            let mut ledger = OpLedger::open(&dir).expect("open ledger");
            ledger
                .note_commit(10, state(1, 1), None)
                .expect("durable note_commit");
        }
        // A crash mid-append: half a record of garbage at the tail.
        let mut file = OpenOptions::new()
            .append(true)
            .open(dir.join(LEDGER_FILE))
            .expect("append");
        file.write_all(&[TAG_COMMIT, 0xAA, 0xBB]).expect("tear");
        drop(file);
        let mut reopened = OpLedger::open(&dir).expect("reopen ledger");
        assert_eq!(reopened.high_water(), 10);
        assert!(matches!(
            reopened.answer(10, SiteId::new(0)),
            ProbeAnswer::Commit(_)
        ));
        // The torn bytes were cut off, so what this incarnation appends
        // follows the last intact record and the next replay reaches it.
        reopened
            .note_commit(11, state(2, 2), None)
            .expect("durable note_commit");
        drop(reopened);
        let again = OpLedger::open(&dir).expect("reopen ledger again");
        assert_eq!(again.high_water(), 11);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn ledger_len(dir: &Path) -> u64 {
        std::fs::metadata(dir.join(LEDGER_FILE))
            .expect("ledger file")
            .len()
    }

    #[test]
    fn the_file_is_rewritten_down_to_the_retained_entries() {
        let dir =
            std::env::temp_dir().join(format!("dynvote-ledger-compact-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let image = vec![7u8; 1000];
        let retained = OpLedger::default().cap;
        {
            let mut ledger = OpLedger::open(&dir).expect("open ledger");
            let mut longest = 0;
            for ticket in 1..=(COMPACT_AT as u64 + 10) {
                ledger
                    .note_commit(ticket, state(ticket, ticket), Some(&image))
                    .expect("durable note_commit");
                longest = longest.max(ledger_len(&dir));
            }
            // Past the record count the file shrank to the retained
            // entries (plus what was appended since), keeping the mark.
            assert!(longest >= (COMPACT_AT as u64 - 1) * 1000);
            assert!(ledger_len(&dir) < (retained as u64 + 12) * 1100);
            assert_eq!(ledger.high_water(), COMPACT_AT as u64 + 10);
        }
        // Evict every commit from memory with releases, then reopen
        // twice: the first open compacts (more records than retained),
        // and the mark survives with no commit record left to carry it.
        {
            let mut ledger = OpLedger::open(&dir).expect("reopen ledger");
            for ticket in 0..retained as u64 {
                ledger.note_release(10_000 + ticket, SiteSet::EMPTY);
            }
        }
        let before = ledger_len(&dir);
        let compacted = OpLedger::open(&dir).expect("reopen ledger");
        assert_eq!(compacted.high_water(), COMPACT_AT as u64 + 10);
        assert!(ledger_len(&dir) < before / 10, "releases only: 17 B each");
        assert!(matches!(
            compacted.answer(COMPACT_AT as u64 + 10, SiteId::new(0)),
            ProbeAnswer::Unknown
        ));
        drop(compacted);
        // A file that holds only what is retained is left alone.
        let settled = ledger_len(&dir);
        let reopened = OpLedger::open(&dir).expect("reopen ledger");
        assert_eq!(reopened.high_water(), COMPACT_AT as u64 + 10);
        assert_eq!(ledger_len(&dir), settled);
        std::fs::remove_dir_all(&dir).ok();
    }
}
