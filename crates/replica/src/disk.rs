//! The two ways bytes reach a site's disk durably: appended to a
//! preallocated, checksummed [`LogFile`], or replacing a whole file
//! atomically with [`replace_file`].
//!
//! The site WAL ([`crate::wal`]) writes through a [`LogFile`]. Records
//! are framed
//!
//! ```text
//! [u32 BE body_len] [body] [u64 BE FNV-1a(body)]
//! ```
//!
//! and written at a tracked *logical end*, into space that was filled
//! with zeros and `sync_all`'d before any record landed in it. An
//! ordinary append therefore never changes the file's size, so the
//! `fdatasync` that makes it durable writes back the record's pages and
//! no inode update. The space grows in steps — 16 KiB at first, each
//! step twice the one before, at most 1 MiB — and is zero-filled in
//! 4 KiB writes: one large zero write makes the kernel cache the region
//! as large folios, and every later `fdatasync` then writes back a whole
//! folio instead of the page the record touched.
//!
//! A zero length word marks the end of the log. Every append leaves room
//! for one after itself, so past the logical end there are either no
//! bytes or at least four zero bytes, and replay reads:
//!
//! * zeros from a record boundary to the end of the file — the clean end;
//! * one to three bytes at the end — a length word cut short, torn;
//! * a record that is short, fails its checksum or is rejected by its
//!   reader, where the zeros that reach the end of the file start inside
//!   it — a write cut short in zeroed space, torn;
//! * anything else bad, including non-zero bytes after a zero length
//!   word — corrupt.
//!
//! A torn or corrupt tail is cut back to the last intact record on open;
//! a clean zero tail is kept.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::hash::Hasher;
use std::io::{self, Read as _, Write as _};
use std::os::unix::fs::FileExt as _;
use std::path::Path;

use dynvote_core::wire::{put_u32, put_u64};
use dynvote_core::Fnv64;

/// Upper bound on one record's body — matches the store's frame cap, so
/// any value that fit on the wire fits in a log, and a corrupted length
/// word cannot trigger a huge allocation.
const MAX_RECORD: usize = 16 * 1024 * 1024;

/// The first growth of a log's allocation.
const FIRST_STEP: u64 = 16 * 1024;
/// The largest growth; steps double from [`FIRST_STEP`] up to this.
const MAX_STEP: u64 = 1024 * 1024;
/// The size of each zero-fill write (see the module docs for why it is
/// not one write per step).
const FILL_CHUNK: usize = 4 * 1024;
/// The zero length word that marks the end of the log.
const END_MARK: u64 = 4;

/// The checksum every durable artifact carries: the crate's fixed-key
/// FNV-1a over the record body (no per-process randomness — artifacts
/// written by one process must validate in the next).
#[must_use]
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// How a log's tail looked on open.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalTail {
    /// Every record was intact, up to the end of the file or to a run
    /// of zeros that reaches it.
    Clean,
    /// The final record was incomplete — the classic crash-mid-append
    /// shape. The dropped bytes never covered an acknowledged
    /// operation (acks follow fsync), so cutting them loses nothing.
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

/// An append-only log of checksummed records in preallocated space.
/// Every write names its offset (`pwrite`), so no file cursor is kept
/// or moved.
#[derive(Debug)]
pub struct LogFile {
    file: File,
    records: u64,
    /// Where the next record goes; everything from here to `allocated`
    /// is zeros.
    end: u64,
    /// The file's length: zero-filled and synced past `end`.
    allocated: u64,
    /// The next growth of `allocated`.
    step: u64,
}

impl LogFile {
    /// Opens (creating if absent) the log at `path` and hands every
    /// intact record's body, in order, to `decode`; replay stops at the
    /// first record it rejects, as at one that fails its checksum. A
    /// torn or corrupt tail is cut back to the last intact record.
    ///
    /// # Errors
    ///
    /// Any I/O error opening, reading, or repairing the file.
    pub fn open<T>(
        path: &Path,
        decode: impl FnMut(&[u8]) -> Option<T>,
    ) -> io::Result<(LogFile, Vec<T>, WalTail)> {
        LogFile::open_then(path, decode, |_| Ok(()))
    }

    /// [`LogFile::open`], calling `before_repair` with the tail before a
    /// torn or corrupt one is cut: whatever must be durable before that
    /// evidence is gone is written there. An error from it leaves the
    /// file as it was.
    ///
    /// # Errors
    ///
    /// As [`LogFile::open`], or `before_repair`'s error.
    pub fn open_then<T>(
        path: &Path,
        mut decode: impl FnMut(&[u8]) -> Option<T>,
        before_repair: impl FnOnce(WalTail) -> io::Result<()>,
    ) -> io::Result<(LogFile, Vec<T>, WalTail)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        let mut decoded = Vec::new();
        let (end, tail) = scan(&buf, |body| decode(body).map(|d| decoded.push(d)).is_some());
        before_repair(tail)?;
        let allocated = if tail == WalTail::Clean {
            buf.len() as u64
        } else {
            file.set_len(end)?;
            file.sync_data()?;
            end
        };
        let log = LogFile {
            file,
            records: decoded.len() as u64,
            end,
            allocated,
            step: FIRST_STEP,
        };
        Ok((log, decoded, tail))
    }

    /// Appends one record at the logical end, growing the allocation
    /// first when it does not fit; with `sync`, the record is on stable
    /// storage when this returns `Ok`.
    ///
    /// # Errors
    ///
    /// The growth, the write or the sync failed. The logical end does not
    /// move, so the next append overwrites whatever reached the file, and
    /// the next open repairs it.
    ///
    /// # Panics
    ///
    /// On an empty body: its zero length word would read as the end of
    /// the log.
    pub fn append(&mut self, body: &[u8], sync: bool) -> io::Result<()> {
        assert!(!body.is_empty(), "a log record has a body");
        let mut record = Vec::with_capacity(body.len() + 12);
        frame(&mut record, body);
        self.reserve(record.len() as u64)?;
        self.file.write_all_at(&record, self.end)?;
        if sync {
            self.file.sync_data()?;
        }
        self.records += 1;
        self.end += record.len() as u64;
        Ok(())
    }

    /// Makes room for `len` record bytes plus the end mark: zero-fills
    /// the next steps in [`FILL_CHUNK`] writes and syncs them, file size
    /// included, before any record lands there.
    fn reserve(&mut self, len: u64) -> io::Result<()> {
        let needed = self.end + len + END_MARK;
        if needed <= self.allocated {
            return Ok(());
        }
        let (mut allocated, mut step) = (self.allocated, self.step);
        while allocated < needed {
            allocated += step;
            step = (step * 2).min(MAX_STEP);
        }
        let zeros = [0u8; FILL_CHUNK];
        let mut at = self.allocated;
        while at < allocated {
            let chunk = (allocated - at).min(FILL_CHUNK as u64);
            self.file.write_all_at(&zeros[..chunk as usize], at)?;
            at += chunk;
        }
        self.file.sync_all()?;
        self.allocated = allocated;
        self.step = step;
        Ok(())
    }

    /// Records in the log.
    #[must_use]
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The log's logical length: the bytes its records take.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.end
    }
}

/// Appends `body` to `out` in the record framing.
fn frame(out: &mut Vec<u8>, body: &[u8]) {
    put_u32(out, u32::try_from(body.len()).expect("record exceeds u32"));
    out.extend_from_slice(body);
    put_u64(out, checksum(body));
}

/// Walks the records of `buf`, handing each intact body to `accept`
/// until it refuses one. Returns the logical end — the offset of the
/// first byte that is not an accepted record — and how the tail looked.
fn scan(buf: &[u8], mut accept: impl FnMut(&[u8]) -> bool) -> (u64, WalTail) {
    // The run of zeros that reaches the end of the file starts here.
    let zeros_from = buf.iter().rposition(|&b| b != 0).map_or(0, |last| last + 1);
    let mut pos = 0usize;
    loop {
        let rest = &buf[pos..];
        let dropped_bytes = rest.len();
        let tail = if rest.is_empty() {
            WalTail::Clean
        } else if rest.len() < 4 {
            WalTail::Torn { dropped_bytes }
        } else {
            let len = u32::from_be_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
            if len == 0 {
                if pos >= zeros_from {
                    WalTail::Clean
                } else {
                    WalTail::Corrupt { dropped_bytes }
                }
            } else if len > MAX_RECORD {
                WalTail::Corrupt { dropped_bytes }
            } else {
                let total = 4 + len + 8;
                let intact = rest.len() >= total && {
                    let body = &rest[4..4 + len];
                    let sum = u64::from_be_bytes(rest[4 + len..total].try_into().expect("8 bytes"));
                    checksum(body) == sum && accept(body)
                };
                if intact {
                    pos += total;
                    continue;
                }
                if pos + total > zeros_from {
                    WalTail::Torn { dropped_bytes }
                } else {
                    WalTail::Corrupt { dropped_bytes }
                }
            }
        };
        return (pos as u64, tail);
    }
}

/// The logical length of the log file at `path`: where its last intact
/// record ends.
///
/// # Errors
///
/// Reading the file failed.
pub fn logical_len(path: &Path) -> io::Result<u64> {
    Ok(scan(&std::fs::read(path)?, |_| true).0)
}

/// Every intact record of the log file at `path`, decoded, and how its
/// tail looks, without creating, repairing or otherwise writing the
/// file; no records and a clean tail when it does not exist.
///
/// # Errors
///
/// Reading the file failed.
pub fn read_records<T>(
    path: &Path,
    mut decode: impl FnMut(&[u8]) -> Option<T>,
) -> io::Result<(Vec<T>, WalTail)> {
    let buf = match std::fs::read(path) {
        Ok(buf) => buf,
        Err(error) if error.kind() == io::ErrorKind::NotFound => {
            return Ok((Vec::new(), WalTail::Clean))
        }
        Err(error) => return Err(error),
    };
    let mut decoded = Vec::new();
    let (_, tail) = scan(&buf, |body| decode(body).map(|d| decoded.push(d)).is_some());
    Ok((decoded, tail))
}

/// Replaces the file at `path` with `bytes` so that a crash leaves the
/// old contents or the new, never a mixture or nothing: write a
/// temporary file beside it, sync it, rename it over `path`, then sync
/// the directory so the rename itself is durable.
///
/// # Errors
///
/// Any step failed; `path` then still holds its old contents.
pub fn replace_file(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    let mut file = File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent().filter(|dir| !dir.as_os_str().is_empty()) {
        File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// Cuts the log file at `path` `drop_bytes` short of its logical end —
/// the deterministic torn-write injector crash tests use to fabricate a
/// mid-append power cut.
///
/// # Errors
///
/// Opening, reading or truncating the file failed.
pub fn inject_torn_tail(path: &Path, drop_bytes: u64) -> io::Result<()> {
    let end = logical_len(path)?;
    OpenOptions::new()
        .write(true)
        .open(path)?
        .set_len(end.saturating_sub(drop_bytes))
}

/// Writes `garbage` at the logical end of the log file at `path`, over
/// the zeros reserved there — bytes a crash mid-append could have left.
///
/// # Errors
///
/// Opening, reading or writing the file failed.
pub fn inject_garbage_tail(path: &Path, garbage: &[u8]) -> io::Result<()> {
    let end = logical_len(path)?;
    OpenOptions::new()
        .write(true)
        .open(path)?
        .write_all_at(garbage, end)
}

/// Flips every bit of the byte at `offset` in the file at `path` — the
/// deterministic corruption injector for checksum-detection tests.
///
/// # Errors
///
/// Opening, reading, or rewriting the byte failed (including an
/// `offset` past the end of the file).
pub fn inject_flip_byte(path: &Path, offset: u64) -> io::Result<()> {
    let file = OpenOptions::new().read(true).write(true).open(path)?;
    let mut byte = [0u8; 1];
    file.read_exact_at(&mut byte, offset)?;
    byte[0] ^= 0xFF;
    file.write_all_at(&byte, offset)?;
    file.sync_data()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_allocation_covers_the_log_and_grows_in_doubling_steps() {
        let dir = std::env::temp_dir().join(format!("dynvote-disk-steps-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log");
        let step = |n: u32| (FIRST_STEP << n.min(6)).min(MAX_STEP);
        assert_eq!(step(6), MAX_STEP, "six doublings reach the cap");
        let (mut log, _, _) = LogFile::open(&path, |_| Some(())).unwrap();
        assert_eq!(log.allocated, 0);
        let mut steps_taken = 0;
        let bodies = std::iter::repeat_n(200, 1500).chain([
            300 * 1024,
            3 * 1024 * 1024,
            100,
            2 * 1024 * 1024,
        ]);
        for len in bodies {
            let allocated = log.allocated;
            log.append(&vec![1u8; len], false).unwrap();
            let needed = log.bytes() + END_MARK;
            assert!(log.allocated >= needed);
            assert_eq!(std::fs::metadata(&path).unwrap().len(), log.allocated);
            // Any growth is the next steps in order, and stops at the
            // first that makes room.
            let mut grown = allocated;
            while grown < log.allocated {
                assert!(grown < needed, "grew past what the record needed");
                grown += step(steps_taken);
                steps_taken += 1;
            }
            assert_eq!(grown, log.allocated);
        }
        assert!(steps_taken > 7, "the steps reached the cap");
        let (reopened, records, tail) = LogFile::open(&path, |body| Some(body.len())).unwrap();
        assert_eq!(tail, WalTail::Clean);
        assert_eq!(records.len(), 1504);
        assert_eq!(reopened.bytes(), log.bytes());
        assert_eq!(reopened.allocated, log.allocated);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A record that would leave one to three bytes of reserve makes the
    /// allocation grow instead, so a clean log never ends in a zero run
    /// too short to be the end mark — the shape of a cut length word.
    #[test]
    fn a_record_that_would_fill_the_reserve_to_within_a_length_word_grows_it() {
        let dir = std::env::temp_dir().join(format!("dynvote-disk-mark-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for short in 1..=3 {
            let path = dir.join(format!("log-{short}"));
            let (mut log, _, _) = LogFile::open(&path, |_| Some(())).unwrap();
            log.append(&[1u8; 100], false).unwrap();
            let first = log.allocated;
            let body = (first - log.bytes() - 12 - short) as usize;
            log.append(&vec![2u8; body], false).unwrap();
            assert_eq!(log.bytes(), first - short);
            assert!(log.allocated > first, "the reserve grew");
            let (_, records, tail) = LogFile::open(&path, |_| Some(())).unwrap();
            assert_eq!((records.len(), tail), (2, WalTail::Clean));
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
