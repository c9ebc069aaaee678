//! The shard map: a versioned, checksummed assignment of key-hash
//! ranges onto shard groups, with the site addresses a client needs to
//! route by it.
//!
//! Keys hash with [`route_hash`] (FNV-1a plus a murmur-style
//! finalizer, 64-bit) and the hash space splits into
//! `shards.len()` *contiguous equal ranges*: shard `k` owns hashes in
//! `[k·2⁶⁴/N, (k+1)·2⁶⁴/N)`. Contiguous ranges (rather than `hash % N`)
//! keep the door open for range splits later without rehashing every
//! key's shard.
//!
//! The encoding is self-validating: a fixed magic, a version byte, the
//! payload, and a trailing FNV-1a checksum over everything before it.
//! [`ShardMap::decode`] rejects torn or corrupt bytes with a typed
//! [`MapError`]; [`ShardMap::persist`] writes via a temp file + rename
//! so a crash mid-write leaves the previous generation intact.

use std::io::Write as _;
use std::path::Path;

/// One shard's placement: which sites hold its copies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    /// Sites holding this shard's copies. `placement[0]` is the
    /// *coordinator* — the only site that accepts keyed client
    /// operations for the shard (the funnel that serializes
    /// read-modify-write on the shard's KV map).
    pub placement: Vec<usize>,
}

impl ShardSpec {
    /// The shard's coordinator site (the first placement entry).
    #[must_use]
    pub fn coordinator(&self) -> usize {
        self.placement[0]
    }
}

/// The versioned shard map (see the module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardMap {
    /// The map version. Every change — rebalance step, placement edit —
    /// bumps it; daemons refuse keyed operations carrying another epoch
    /// with a typed `StaleShardMap` answer.
    pub epoch: u64,
    /// Per-shard placements, indexed by shard id.
    pub shards: Vec<ShardSpec>,
    /// Every site's client address, so a router can reach any
    /// coordinator from one bootstrap address.
    pub sites: Vec<(usize, String)>,
}

/// Why shard-map bytes failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MapError {
    /// Too short, wrong magic, or an unknown format version.
    BadHeader,
    /// The payload ended before a field did, or a count was absurd.
    Truncated,
    /// The trailing checksum does not match the bytes.
    BadChecksum,
    /// A placement was empty or named an out-of-range site.
    BadPlacement,
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapError::BadHeader => write!(f, "bad shard-map header"),
            MapError::Truncated => write!(f, "truncated shard map"),
            MapError::BadChecksum => write!(f, "shard-map checksum mismatch"),
            MapError::BadPlacement => write!(f, "empty or out-of-range shard placement"),
        }
    }
}

impl std::error::Error for MapError {}

const MAGIC: &[u8; 4] = b"DVSM";
const FORMAT: u8 = 1;

/// FNV-1a, 64-bit — used for the map's trailing checksum.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The hash keys route by: FNV-1a plus a murmur-style finalizer.
///
/// Raw FNV-1a has poor high-bit avalanche on short keys (every
/// `key-N` string lands in the same top half of the hash space), and
/// [`ShardMap::shard_of`] partitions on the *high* bits. The fmix64
/// finalizer spreads every input bit across the whole word.
#[must_use]
pub fn route_hash(key: &[u8]) -> u64 {
    let mut hash = fnv1a(key);
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xff51_afd7_ed55_8ccd);
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    hash ^= hash >> 33;
    hash
}

fn put_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_be_bytes());
}

fn put_u16(out: &mut Vec<u8>, value: u16) {
    out.extend_from_slice(&value.to_be_bytes());
}

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], MapError> {
        let end = self.at.checked_add(n).ok_or(MapError::Truncated)?;
        if end > self.bytes.len() {
            return Err(MapError::Truncated);
        }
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u64(&mut self) -> Result<u64, MapError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn u16(&mut self) -> Result<u16, MapError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().expect("2")))
    }
}

impl ShardMap {
    /// The shard owning `key`: FNV-1a into contiguous equal hash
    /// ranges.
    #[must_use]
    pub fn shard_of(&self, key: &[u8]) -> u16 {
        let n = self.shards.len() as u128;
        let hash = u128::from(route_hash(key));
        // hash ∈ [0, 2⁶⁴); shard = ⌊hash·N / 2⁶⁴⌋ ∈ [0, N).
        ((hash * n) >> 64) as u16
    }

    /// The client address of `site`, if the map lists it.
    #[must_use]
    pub fn addr_of(&self, site: usize) -> Option<&str> {
        self.sites
            .iter()
            .find(|(s, _)| *s == site)
            .map(|(_, addr)| addr.as_str())
    }

    /// The coordinator address for `shard`.
    #[must_use]
    pub fn coordinator_addr(&self, shard: u16) -> Option<&str> {
        let spec = self.shards.get(shard as usize)?;
        self.addr_of(spec.coordinator())
    }

    /// Serializes the map: magic, format byte, payload, trailing
    /// FNV-1a checksum over everything before it.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(MAGIC);
        out.push(FORMAT);
        put_u64(&mut out, self.epoch);
        put_u16(&mut out, self.shards.len() as u16);
        for spec in &self.shards {
            put_u16(&mut out, spec.placement.len() as u16);
            for &site in &spec.placement {
                put_u16(&mut out, site as u16);
            }
        }
        put_u16(&mut out, self.sites.len() as u16);
        for (site, addr) in &self.sites {
            put_u16(&mut out, *site as u16);
            put_u16(&mut out, addr.len() as u16);
            out.extend_from_slice(addr.as_bytes());
        }
        let checksum = fnv1a(&out);
        put_u64(&mut out, checksum);
        out
    }

    /// Decodes and validates map bytes.
    ///
    /// # Errors
    ///
    /// [`MapError`] on any malformed, torn, or corrupt input; never
    /// panics, and no allocation is sized beyond the bytes present.
    pub fn decode(bytes: &[u8]) -> Result<ShardMap, MapError> {
        if bytes.len() < MAGIC.len() + 1 + 8 || &bytes[..4] != MAGIC || bytes[4] != FORMAT {
            return Err(MapError::BadHeader);
        }
        let body_len = bytes.len() - 8;
        let claimed = u64::from_be_bytes(bytes[body_len..].try_into().expect("8"));
        if fnv1a(&bytes[..body_len]) != claimed {
            return Err(MapError::BadChecksum);
        }
        let mut r = Reader {
            bytes: &bytes[..body_len],
            at: 5,
        };
        let epoch = r.u64()?;
        let shard_count = r.u16()? as usize;
        let mut shards = Vec::with_capacity(shard_count.min(1024));
        for _ in 0..shard_count {
            let width = r.u16()? as usize;
            let mut placement = Vec::with_capacity(width.min(64));
            for _ in 0..width {
                placement.push(r.u16()? as usize);
            }
            shards.push(ShardSpec { placement });
        }
        let site_count = r.u16()? as usize;
        let mut sites = Vec::with_capacity(site_count.min(1024));
        for _ in 0..site_count {
            let site = r.u16()? as usize;
            let len = r.u16()? as usize;
            let addr = String::from_utf8(r.take(len)?.to_vec()).map_err(|_| MapError::Truncated)?;
            sites.push((site, addr));
        }
        if r.at != body_len {
            return Err(MapError::Truncated);
        }
        let map = ShardMap {
            epoch,
            shards,
            sites,
        };
        map.validate()?;
        Ok(map)
    }

    /// Structural validation: at least one shard, no empty placement,
    /// every placed site within the `SiteSet` word (0..64).
    ///
    /// # Errors
    ///
    /// [`MapError::BadPlacement`].
    pub fn validate(&self) -> Result<(), MapError> {
        if self.shards.is_empty() {
            return Err(MapError::BadPlacement);
        }
        for spec in &self.shards {
            if spec.placement.is_empty() || spec.placement.iter().any(|&s| s >= 64) {
                return Err(MapError::BadPlacement);
            }
        }
        Ok(())
    }

    /// Persists the map atomically and durably: temp file in the same
    /// directory, fsync, rename over the target, then fsync the
    /// directory so the rename itself survives a crash.
    ///
    /// # Errors
    ///
    /// The underlying I/O error.
    pub fn persist(&self, path: &Path) -> std::io::Result<()> {
        let tmp = path.with_extension("tmp");
        {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(&self.encode())?;
            file.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        if let Some(dir) = path.parent().filter(|dir| !dir.as_os_str().is_empty()) {
            std::fs::File::open(dir)?.sync_all()?;
        }
        Ok(())
    }

    /// Loads a persisted map; `Ok(None)` when the file does not exist.
    ///
    /// # Errors
    ///
    /// I/O errors pass through; corrupt bytes surface as
    /// `InvalidData` wrapping the [`MapError`].
    pub fn load(path: &Path) -> std::io::Result<Option<ShardMap>> {
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        ShardMap::decode(&bytes)
            .map(Some)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ShardMap {
        ShardMap {
            epoch: 7,
            shards: vec![
                ShardSpec {
                    placement: vec![0, 1, 2],
                },
                ShardSpec {
                    placement: vec![1, 2, 3],
                },
            ],
            sites: vec![
                (0, "127.0.0.1:7100".to_string()),
                (1, "127.0.0.1:7101".to_string()),
                (2, "127.0.0.1:7102".to_string()),
                (3, "127.0.0.1:7103".to_string()),
            ],
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let map = sample();
        assert_eq!(ShardMap::decode(&map.encode()).unwrap(), map);
    }

    #[test]
    fn every_corruption_is_detected() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                ShardMap::decode(&bad).is_err(),
                "flipping byte {i} went undetected"
            );
        }
        for cut in 0..bytes.len() {
            assert!(ShardMap::decode(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn shard_of_covers_every_shard_and_is_stable() {
        let map = sample();
        let mut seen = [false; 2];
        for i in 0..256 {
            let key = format!("key-{i}");
            let shard = map.shard_of(key.as_bytes());
            assert!((shard as usize) < map.shards.len());
            assert_eq!(shard, map.shard_of(key.as_bytes()), "routing must be pure");
            seen[shard as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "256 keys never hit every shard");
    }

    #[test]
    fn persist_and_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("dynvote-map-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shardmap.bin");
        let map = sample();
        map.persist(&path).unwrap();
        assert_eq!(ShardMap::load(&path).unwrap(), Some(map));
        assert_eq!(ShardMap::load(&dir.join("absent.bin")).unwrap(), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_placements_are_rejected() {
        let mut map = sample();
        map.shards[0].placement.clear();
        assert_eq!(map.validate(), Err(MapError::BadPlacement));
        let mut map = sample();
        map.shards[1].placement.push(64);
        assert_eq!(map.validate(), Err(MapError::BadPlacement));
    }
}
