//! Stable storage: one site's durable image.
//!
//! The paper's model keeps each copy's `(o, v, P)` on stable storage —
//! a site that crashes and restarts still holds the state it last
//! committed. [`crate::Cluster::fail_site`]/[`crate::Cluster::repair_site`]
//! model per-site crashes in process; a [`DurableSiteState`] is what
//! one site writes to its own disk, and
//! [`crate::Cluster::install_durable_state`] is how a restarted site
//! comes up holding it. A *whole service* stopping and restarting
//! (deploys, migrations, disaster recovery) is N of those, one per
//! site — there is no second, whole-cluster format.
//!
//! The invariant monitor starts fresh after a restore (its ground truth
//! is process state, not protocol state) — the protocol itself needs no
//! such memory, which is rather the point of keeping `(o, v, P)`
//! durable.

use std::io::{self, Write as _};
use std::path::Path;

use dynvote_core::state::ReplicaState;
use dynvote_core::wire::{put_state, put_u32, put_u64, put_u8, Reader};
use dynvote_types::SiteSet;

/// Magic + version tag opening every on-disk site snapshot.
const SNAPSHOT_MAGIC: &[u8; 8] = b"DVSNAP01";

/// One *site's* durable image: the last WAL sequence folded in, the
/// consistency-control state ⟨o, v, P⟩, any outstanding vote, and — for
/// full copies — the data bytes.
///
/// What a single persistent daemon writes to its own disk: the
/// snapshot half of the [`crate::wal::SiteStore`] snapshot +
/// write-ahead-log pair. Values are raw bytes because that is what
/// crosses a disk boundary — the networked store already speaks
/// `Vec<u8>`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DurableSiteState {
    /// The WAL sequence number of the last record this image covers;
    /// replay skips log records at or below it.
    pub seq: u64,
    /// The consistency-control state ⟨o, v, P⟩.
    pub state: ReplicaState,
    /// The outstanding-vote ticket, when the site persisted while
    /// wedged on a vote whose outcome it had not yet seen.
    pub pending: Option<u64>,
    /// The data bytes — `None` for witnesses, which hold no data.
    pub value: Option<Vec<u8>>,
}

/// Outcome of [`DurableSiteState::load`].
#[derive(Clone, Debug)]
pub enum SnapshotLoad {
    /// No snapshot file on disk (a fresh data directory).
    Missing,
    /// The file exists but failed validation (the reason is carried);
    /// the caller falls back to WAL-only replay and should move the
    /// file aside for forensics.
    Corrupt(String),
    /// A validated image.
    Loaded(DurableSiteState),
}

impl DurableSiteState {
    /// The blank pre-history image log replay folds into when no
    /// snapshot exists: everything zero, no vote, no value.
    #[must_use]
    pub(crate) fn blank() -> Self {
        DurableSiteState {
            seq: 0,
            state: ReplicaState {
                op: 0,
                version: 0,
                partition: SiteSet::EMPTY,
            },
            pending: None,
            value: None,
        }
    }

    /// Encodes the image: magic, fixed-width fields, then a trailing
    /// FNV-1a checksum over everything before it (the same wire
    /// primitives and checksum the WAL records use).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.value.as_ref().map_or(0, Vec::len));
        out.extend_from_slice(SNAPSHOT_MAGIC);
        put_u64(&mut out, self.seq);
        put_state(&mut out, &self.state);
        match self.pending {
            Some(ticket) => {
                put_u8(&mut out, 1);
                put_u64(&mut out, ticket);
            }
            None => put_u8(&mut out, 0),
        }
        match &self.value {
            Some(bytes) => {
                put_u8(&mut out, 1);
                put_u32(
                    &mut out,
                    u32::try_from(bytes.len()).expect("value exceeds u32"),
                );
                out.extend_from_slice(bytes);
            }
            None => put_u8(&mut out, 0),
        }
        let sum = crate::wal::checksum(&out);
        put_u64(&mut out, sum);
        out
    }

    /// Decodes and validates an encoded image.
    ///
    /// # Errors
    ///
    /// A human-readable reason: short input, checksum mismatch, bad
    /// magic, or trailing bytes. Never panics on hostile input.
    pub fn decode(bytes: &[u8]) -> Result<Self, String> {
        if bytes.len() < SNAPSHOT_MAGIC.len() + 8 {
            return Err(format!("snapshot too short ({} bytes)", bytes.len()));
        }
        let (body, sum_bytes) = bytes.split_at(bytes.len() - 8);
        let sum = u64::from_be_bytes(sum_bytes.try_into().expect("8 bytes"));
        if crate::wal::checksum(body) != sum {
            return Err("snapshot checksum mismatch".to_string());
        }
        if &body[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
            return Err("bad snapshot magic".to_string());
        }
        let mut r = Reader::new(&body[SNAPSHOT_MAGIC.len()..]);
        let parse = |r: &mut Reader<'_>| -> Option<DurableSiteState> {
            let seq = r.u64().ok()?;
            let state = r.state().ok()?;
            let pending = match r.u8().ok()? {
                0 => None,
                1 => Some(r.u64().ok()?),
                _ => return None,
            };
            let value = match r.u8().ok()? {
                0 => None,
                1 => {
                    let len = r.u32().ok()? as usize;
                    Some(r.bytes(len).ok()?.to_vec())
                }
                _ => return None,
            };
            Some(DurableSiteState {
                seq,
                state,
                pending,
                value,
            })
        };
        let decoded = parse(&mut r).ok_or_else(|| "malformed snapshot body".to_string())?;
        if !r.is_exhausted() {
            return Err("trailing bytes in snapshot".to_string());
        }
        Ok(decoded)
    }

    /// Writes the image atomically: encode to `<path>.tmp`, fsync the
    /// file, rename over `path`, fsync the directory. A crash at any
    /// point leaves either the old snapshot or the new one — never a
    /// torn mixture.
    ///
    /// # Errors
    ///
    /// Any I/O error along the write/fsync/rename path.
    pub fn write_atomic(&self, path: &Path) -> io::Result<()> {
        let file_name = path.file_name().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "snapshot path has no file name",
            )
        })?;
        let mut tmp_name = file_name.to_os_string();
        tmp_name.push(".tmp");
        let tmp = path.with_file_name(tmp_name);
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(&self.encode())?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, path)?;
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::File::open(dir)?.sync_all()?;
            }
        }
        Ok(())
    }

    /// Loads and validates the snapshot at `path`.
    ///
    /// # Errors
    ///
    /// Only real I/O errors; a missing file is [`SnapshotLoad::Missing`]
    /// and a file that fails validation is [`SnapshotLoad::Corrupt`].
    pub fn load(path: &Path) -> io::Result<SnapshotLoad> {
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(error) if error.kind() == io::ErrorKind::NotFound => {
                return Ok(SnapshotLoad::Missing)
            }
            Err(error) => return Err(error),
        };
        Ok(match Self::decode(&bytes) {
            Ok(image) => SnapshotLoad::Loaded(image),
            Err(why) => SnapshotLoad::Corrupt(why),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::{DurableSiteState, SnapshotLoad};
    use crate::{Cluster, ClusterBuilder, Protocol};
    use dynvote_core::state::ReplicaState;
    use dynvote_types::{SiteId, SiteSet};

    /// A whole-service restart: every participant of `stopped` writes
    /// its own image — through the on-disk encoding — and a fresh
    /// cluster of the same placement comes up with each site holding
    /// exactly what it had persisted.
    fn restart(stopped: &Cluster<Vec<u8>>, fresh: ClusterBuilder) -> Cluster<Vec<u8>> {
        let mut revived = fresh.build_with_value(Vec::new());
        for site in stopped.participants().iter() {
            let image = DurableSiteState {
                seq: 0,
                state: stopped.state_at(site),
                pending: stopped.pending_at(site),
                value: stopped
                    .copies()
                    .contains(site)
                    .then(|| stopped.value_at(site)),
            };
            let image = DurableSiteState::decode(&image.encode()).expect("own encoding");
            revived.install_durable_state(site, image.state, image.value, image.pending);
        }
        revived
    }

    #[test]
    fn a_restarted_service_keeps_a_stale_copy_stale_until_it_recovers() {
        let placement = || {
            ClusterBuilder::new()
                .copies([0, 1, 2])
                .witnesses([3])
                .protocol(Protocol::Odv)
        };
        let mut cluster = placement().build_with_value(b"v1".to_vec());
        cluster.fail_site(SiteId::new(2));
        cluster.write(SiteId::new(0), b"v2".to_vec()).unwrap();
        cluster.write(SiteId::new(1), b"v3".to_vec()).unwrap();

        // Everyone starts up (a restart), holding their durable state —
        // the witness its ⟨o, v, P⟩ and no data.
        let mut revived = restart(&cluster, placement());
        assert_eq!(
            revived.state_at(SiteId::new(3)),
            cluster.state_at(SiteId::new(3))
        );
        assert_eq!(revived.read(SiteId::new(0)).unwrap(), b"v3");
        // The stale copy (S2 was down when the service stopped) is
        // still stale and still outside the partition set — exactly as
        // durable state requires — until it RECOVERs.
        assert_eq!(revived.value_at(SiteId::new(2)), b"v1");
        assert_eq!(
            revived.state_at(SiteId::new(2)).partition,
            SiteSet::first_n(4)
        );
        revived.recover(SiteId::new(2)).unwrap();
        assert_eq!(revived.value_at(SiteId::new(2)), b"v3");
        assert!(revived.checker().violations().is_empty());
    }

    #[test]
    fn a_restarted_service_continues_the_lineage() {
        let placement = || {
            ClusterBuilder::new()
                .copies([0, 1, 2])
                .protocol(Protocol::Ldv)
        };
        let mut cluster = placement().build_with_value(vec![0]);
        for i in 1..=5u8 {
            cluster.write(SiteId::new(0), vec![i]).unwrap();
        }
        let op_before = cluster.state_at(SiteId::new(0)).op;
        let mut revived = restart(&cluster, placement());
        revived.write(SiteId::new(1), vec![6]).unwrap();
        assert_eq!(revived.state_at(SiteId::new(1)).op, op_before + 1);
        assert_eq!(revived.read(SiteId::new(2)).unwrap(), vec![6]);
    }

    fn durable_fixture() -> DurableSiteState {
        DurableSiteState {
            seq: 9,
            state: ReplicaState {
                op: 4,
                version: 3,
                partition: SiteSet::from_indices([0, 2]),
            },
            pending: Some(0xBEEF),
            value: Some(b"payload".to_vec()),
        }
    }

    #[test]
    fn durable_site_state_round_trips() {
        let image = durable_fixture();
        assert_eq!(DurableSiteState::decode(&image.encode()).unwrap(), image);
        let witness = DurableSiteState {
            pending: None,
            value: None,
            ..image
        };
        assert_eq!(
            DurableSiteState::decode(&witness.encode()).unwrap(),
            witness
        );
    }

    #[test]
    fn durable_site_state_rejects_tampering() {
        let mut bytes = durable_fixture().encode();
        bytes[10] ^= 0x01;
        assert!(DurableSiteState::decode(&bytes).is_err());
        let short = &durable_fixture().encode()[..7];
        assert!(DurableSiteState::decode(short).is_err());
        let mut trailing = durable_fixture().encode();
        trailing.push(0);
        assert!(DurableSiteState::decode(&trailing).is_err());
    }

    #[test]
    fn durable_site_state_atomic_write_and_load() {
        let dir = std::env::temp_dir().join(format!("dynvote-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.bin");
        let image = durable_fixture();
        image.write_atomic(&path).unwrap();
        match DurableSiteState::load(&path).unwrap() {
            SnapshotLoad::Loaded(loaded) => assert_eq!(loaded, image),
            other => panic!("expected a loaded image, got {other:?}"),
        }
        assert!(matches!(
            DurableSiteState::load(&dir.join("missing.bin")).unwrap(),
            SnapshotLoad::Missing
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
