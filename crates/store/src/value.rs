//! The replicated value a daemon's cluster holds.
//!
//! The protocol layer (`dynvote-replica`) moves one opaque value per
//! copy: it clones it into a node on COMMIT, clones it out for a copy
//! reply, and hands it to the transport as a COMMIT's payload. A shard
//! group's value is a key → bytes map that a keyed batch changes by a
//! few puts — the paper's one file is one of its keys — so
//! [`ShardValue`] keeps the map *decoded and resident* ([`KvMap`],
//! whose clones share structure) and remembers the [`Delta`] that
//! produced it from its predecessor. Cloning is a few reference-count
//! bumps; the encoded image is produced only where the whole map
//! really moves (a copy reply, a COMMIT to a copy that is not at the
//! delta's base, a snapshot).

use std::sync::Arc;

use dynvote_control::{KvMap, KvPuts};
use dynvote_core::state::ReplicaState;
use dynvote_replica::wal::WalRecord;

/// A keyed write batch in the form it is shipped and logged: an
/// encoded [`KvPuts`] list and the version of the image it was built
/// on. A copy applies it only while it holds exactly that version.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delta {
    /// The version of the image the puts apply to.
    pub base: u64,
    /// The encoded put list.
    pub puts: Vec<u8>,
}

/// One version of a replicated value. See the module docs. The default
/// is the empty map, every group's value at boot.
#[derive(Clone, Debug, Default)]
pub struct ShardValue {
    map: KvMap,
    /// Set when this value was made by applying a put list to the
    /// value of version `delta.base`: what a transport may ship, and a
    /// durable layer may log, in place of the image.
    delta: Option<Arc<Delta>>,
}

impl ShardValue {
    /// A shard group's value, from its encoded image — off the wire or
    /// off the disk. The image must be canonical ([`KvMap::decode`]),
    /// so [`ShardValue::to_image`] gives back the bytes given; the one
    /// exception is the empty image, which is the empty map. `None`
    /// for anything else.
    #[must_use]
    pub fn from_image(bytes: &[u8]) -> Option<ShardValue> {
        let map = if bytes.is_empty() {
            KvMap::default()
        } else {
            KvMap::decode(bytes)?
        };
        Some(ShardValue { map, delta: None })
    }

    /// The encoded value: the whole map, as the paper moves its file.
    #[must_use]
    pub fn to_image(&self) -> Vec<u8> {
        self.map.encode()
    }

    /// Length of [`ShardValue::to_image`], without encoding.
    #[must_use]
    pub fn image_len(&self) -> usize {
        self.map.encoded_len()
    }

    /// The delta that made this value from its predecessor, if it was
    /// made that way.
    #[must_use]
    pub fn delta(&self) -> Option<&Arc<Delta>> {
        self.delta.as_ref()
    }

    /// The value as a key → bytes map.
    #[must_use]
    pub fn kv(&self) -> &KvMap {
        &self.map
    }

    /// The value this one becomes when `puts` are applied. With a
    /// `base` — the version this value is known to carry — the result
    /// remembers the puts as its [`Delta`]; without one it is just a
    /// new image.
    #[must_use]
    pub fn with_puts(&self, puts: &KvPuts, base: Option<u64>) -> ShardValue {
        let mut map = self.map.clone();
        map.apply(puts);
        ShardValue {
            map,
            delta: base.map(|base| {
                Arc::new(Delta {
                    base,
                    puts: puts.encode(),
                })
            }),
        }
    }

    /// The WAL record that brings a durable copy at `durable` version
    /// to `state` holding this value. The data is never compared: a
    /// copy's data changes only with its version, so the same version
    /// means the same data and the record is state-only. Otherwise the
    /// delta that made this value is logged when it applies to the
    /// durable version, and the whole image when it does not.
    #[must_use]
    pub fn install_record(&self, state: ReplicaState, durable: u64) -> WalRecord {
        if state.version == durable {
            return WalRecord::Commit { state, value: None };
        }
        match self.delta() {
            Some(delta) if delta.base == durable => WalRecord::Delta {
                state,
                base: delta.base,
                delta: delta.puts.clone(),
            },
            _ => WalRecord::Commit {
                state,
                value: Some(self.to_image()),
            },
        }
    }

    /// The receiving side of [`ShardValue::with_puts`]: applies a
    /// shipped delta. The caller has checked that this value is the
    /// one of version `delta.base`. `None` when the put list does not
    /// decode.
    #[must_use]
    pub fn with_delta(&self, delta: Arc<Delta>) -> Option<ShardValue> {
        let puts = KvPuts::decode(&delta.puts)?;
        let mut map = self.map.clone();
        map.apply(&puts);
        Some(ShardValue {
            map,
            delta: Some(delta),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynvote_control::encode_kv;
    use std::collections::BTreeMap;

    fn puts(entries: &[(&str, &[u8])]) -> KvPuts {
        KvPuts(
            entries
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_vec()))
                .collect(),
        )
    }

    #[test]
    fn canonical_images_come_back_byte_for_byte() {
        let mut map = BTreeMap::new();
        map.insert("a".to_string(), b"1".to_vec());
        for bytes in [encode_kv(&BTreeMap::new()), encode_kv(&map)] {
            let value = ShardValue::from_image(&bytes).expect("canonical");
            assert_eq!(value.to_image(), bytes);
            assert_eq!(value.image_len(), bytes.len());
        }
    }

    #[test]
    fn the_empty_image_is_the_empty_map_and_nothing_else_passes() {
        let empty = ShardValue::from_image(&[]).expect("the empty image");
        assert!(empty.kv().is_empty());
        assert_eq!(empty.to_image(), ShardValue::default().to_image());
        let mut unsorted = BTreeMap::new();
        unsorted.insert("b".to_string(), b"1".to_vec());
        let mut image = encode_kv(&unsorted);
        image.extend_from_slice(&[0, 1, b'a', 0, 0, 0, 0]);
        image[3] = 2;
        for bytes in [b"v0".to_vec(), b"not a kv image".to_vec(), image] {
            assert!(ShardValue::from_image(&bytes).is_none(), "{bytes:?}");
        }
    }

    #[test]
    fn both_sides_of_a_delta_build_the_same_image() {
        let boot = ShardValue::default();
        let batch = puts(&[("k", b"1"), ("j", b"2"), ("k", b"3")]);
        let next = boot.with_puts(&batch, Some(4));
        let delta = Arc::clone(next.delta().expect("made by a delta"));
        assert_eq!(delta.base, 4);
        let applied = boot.with_delta(delta).expect("own encoding");
        assert_eq!(applied.to_image(), next.to_image());
        assert_eq!(next.kv().get("k"), Some(&b"3"[..]));
        // The predecessor is untouched.
        assert!(boot.kv().is_empty());
        // Without a base the result is an image, not a delta.
        assert!(boot.with_puts(&batch, None).delta().is_none());
    }

    #[test]
    fn a_put_list_that_does_not_decode_is_not_applied() {
        let boot = ShardValue::default();
        assert!(boot
            .with_delta(Arc::new(Delta {
                base: 1,
                puts: vec![0xFF],
            }))
            .is_none());
    }
}
