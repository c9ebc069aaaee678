//! Property tests for the two decoders a daemon feeds bytes from disk
//! and from the wire: the KV image (`KvMap::decode`, the only way an
//! image enters a daemon) and the shard map (`ShardMap::decode`).
//!
//! Neither may panic on any truncation or bit flip of a valid
//! encoding, and `KvMap::decode` accepts exactly the bytes
//! `KvMap::encode` produces: whatever it accepts re-encodes to the
//! same bytes.

use std::collections::BTreeMap;

use dynvote_control::{encode_kv, KvMap, ShardMap, ShardSpec};
use proptest::collection::vec;
use proptest::prelude::*;

fn entries() -> impl Strategy<Value = Vec<(String, Vec<u8>)>> {
    vec(
        (
            (0u16..200).prop_map(|k| format!("k{k}")),
            vec(any::<u8>(), 0..8),
        ),
        0..80,
    )
}

fn image(entries: Vec<(String, Vec<u8>)>) -> Vec<u8> {
    let map: BTreeMap<String, Vec<u8>> = entries.into_iter().collect();
    encode_kv(&map)
}

fn shard_map(epoch: u64, placements: Vec<Vec<u16>>, sites: Vec<(u16, Vec<u8>)>) -> ShardMap {
    ShardMap {
        epoch,
        shards: placements
            .into_iter()
            .map(|placement| ShardSpec {
                placement: placement
                    .into_iter()
                    .map(|site| usize::from(site % 64))
                    .collect(),
            })
            .collect(),
        sites: sites
            .into_iter()
            .map(|(site, addr)| {
                (
                    usize::from(site),
                    String::from_utf8_lossy(&addr).into_owned(),
                )
            })
            .collect(),
    }
}

/// Whatever `KvMap::decode` accepts is canonical: it encodes back to
/// the bytes it was decoded from.
fn accepted_is_canonical(bytes: &[u8]) -> bool {
    KvMap::decode(bytes).is_none_or(|map| map.encode() == bytes)
}

proptest! {
    /// Every image `encode` produces decodes, and back to itself.
    #[test]
    fn kv_images_decode_to_what_encodes_them(entries in entries()) {
        let bytes = image(entries);
        let map = KvMap::decode(&bytes);
        prop_assert!(map.is_some(), "an encoded image was refused");
        prop_assert_eq!(map.map(|map| map.encode()), Some(bytes));
    }

    /// Every strict prefix of an image is refused (a cut on an entry
    /// boundary leaves the count claiming more), without a panic.
    #[test]
    fn kv_truncations_are_refused(entries in entries()) {
        let bytes = image(entries);
        for cut in 0..bytes.len() {
            prop_assert!(KvMap::decode(&bytes[..cut]).is_none(), "prefix of {} bytes", cut);
        }
    }

    /// A flipped bit anywhere never panics, and whatever still decodes
    /// is canonical.
    #[test]
    fn kv_bit_flips_never_panic(entries in entries(), at in any::<u64>(), bit in 0u8..8) {
        let mut bytes = image(entries);
        let at = at as usize % bytes.len();
        bytes[at] ^= 1 << bit;
        prop_assert!(accepted_is_canonical(&bytes), "{:?}", bytes);
    }

    /// Arbitrary bytes never panic, and whatever decodes is canonical.
    #[test]
    fn kv_garbage_never_panics(bytes in vec(any::<u8>(), 0..96)) {
        prop_assert!(accepted_is_canonical(&bytes), "{:?}", bytes);
    }

    /// A shard map round-trips, every strict prefix is refused, and a
    /// flipped bit is refused without a panic.
    #[test]
    fn shard_map_truncations_and_flips_are_refused(
        epoch in any::<u64>(),
        placements in vec(vec(any::<u16>(), 1..5), 1..6),
        sites in vec((any::<u16>(), vec(any::<u8>(), 0..16)), 0..6),
        at in any::<u64>(),
        bit in 0u8..8,
    ) {
        let map = shard_map(epoch, placements, sites);
        let bytes = map.encode();
        prop_assert_eq!(ShardMap::decode(&bytes).as_ref(), Ok(&map));
        for cut in 0..bytes.len() {
            prop_assert!(ShardMap::decode(&bytes[..cut]).is_err(), "prefix of {} bytes", cut);
        }
        let mut flipped = bytes;
        let at = at as usize % flipped.len();
        flipped[at] ^= 1 << bit;
        prop_assert!(ShardMap::decode(&flipped).is_err(), "flip at byte {} accepted", at);
    }
}
