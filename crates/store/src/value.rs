//! The replicated value a daemon's cluster holds.
//!
//! The protocol layer (`dynvote-replica`) moves one opaque value per
//! copy: it clones it into a node on COMMIT, clones it out for a copy
//! reply, and hands it to the transport as a COMMIT's payload. A shard
//! group's value is an image: usually a KV map that a keyed batch
//! changes by a few puts — so [`ShardValue`] keeps such an image
//! *decoded and resident* ([`KvMap`], whose clones share structure) and
//! remembers the [`Delta`] that produced it from its predecessor — and
//! otherwise whatever bytes a raw `put` (or `--value`) made it, kept
//! verbatim. Cloning is a few reference-count bumps either way; the
//! encoded image is produced only where the whole file really moves (a
//! copy reply, a COMMIT to a copy that is not at the delta's base, a
//! snapshot, a raw `get`).

use std::sync::Arc;

use dynvote_control::{decode_kv, KvMap, KvPuts};
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

#[derive(Clone, Debug)]
enum Content {
    /// Bytes kept verbatim: an image that is not in canonical form
    /// (the empty boot value, a raw `put` of anything else). Keyed
    /// operations decode it on demand.
    Bytes(Arc<Vec<u8>>),
    /// A canonical KV image, decoded.
    Kv(KvMap),
}

/// One version of a replicated value. See the module docs.
#[derive(Clone, Debug)]
pub struct ShardValue {
    content: Content,
    /// Set when this value was made by applying a put list to the
    /// value of version `delta.base`: what a transport may ship, and a
    /// durable layer may log, in place of the image.
    delta: Option<Arc<Delta>>,
}

impl ShardValue {
    /// A shard group's value, from its encoded image — off the wire,
    /// off the disk, or from a raw `put`. A canonical KV image is
    /// decoded once, here; anything else is kept verbatim, so
    /// [`ShardValue::to_image`] always returns the bytes given.
    #[must_use]
    pub fn from_image(bytes: impl Into<Arc<Vec<u8>>>) -> ShardValue {
        let bytes = bytes.into();
        ShardValue {
            content: match KvMap::decode(&bytes) {
                Some(map) => Content::Kv(map),
                None => Content::Bytes(bytes),
            },
            delta: None,
        }
    }

    /// The encoded value: the whole file, as the paper moves it.
    #[must_use]
    pub fn to_image(&self) -> Vec<u8> {
        match &self.content {
            Content::Bytes(bytes) => bytes.as_ref().clone(),
            Content::Kv(map) => map.encode(),
        }
    }

    /// [`ShardValue::to_image`] for holders that keep it: no copy when
    /// the value is held as bytes already.
    #[must_use]
    pub fn to_shared_image(&self) -> Arc<Vec<u8>> {
        match &self.content {
            Content::Bytes(bytes) => Arc::clone(bytes),
            Content::Kv(map) => Arc::new(map.encode()),
        }
    }

    /// Length of [`ShardValue::to_image`], without encoding.
    #[must_use]
    pub fn image_len(&self) -> usize {
        match &self.content {
            Content::Bytes(bytes) => bytes.len(),
            Content::Kv(map) => map.encoded_len(),
        }
    }

    /// The delta that made this value from its predecessor, if it was
    /// made that way.
    #[must_use]
    pub fn delta(&self) -> Option<&Arc<Delta>> {
        self.delta.as_ref()
    }

    /// The value as a key → bytes map; `None` when it is not a KV
    /// image. Free for a resident map, a full decode for verbatim
    /// bytes.
    #[must_use]
    pub fn kv(&self) -> Option<KvMap> {
        match &self.content {
            Content::Kv(map) => Some(map.clone()),
            Content::Bytes(bytes) => decode_kv(bytes).map(|map| KvMap::from(&map)),
        }
    }

    /// The value this one becomes when `puts` are applied. With a
    /// `base` — the version this value is known to carry — the result
    /// remembers the puts as its [`Delta`]; without one it is just a
    /// new image. `None` when this value is not a KV image.
    #[must_use]
    pub fn with_puts(&self, puts: &KvPuts, base: Option<u64>) -> Option<ShardValue> {
        let mut map = self.kv()?;
        map.apply(puts);
        Some(ShardValue {
            content: Content::Kv(map),
            delta: base.map(|base| {
                Arc::new(Delta {
                    base,
                    puts: puts.encode(),
                })
            }),
        })
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
    /// decode or this value is not a KV image.
    #[must_use]
    pub fn with_delta(&self, delta: Arc<Delta>) -> Option<ShardValue> {
        let puts = KvPuts::decode(&delta.puts)?;
        let mut map = self.kv()?;
        map.apply(&puts);
        Some(ShardValue {
            content: Content::Kv(map),
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
    fn images_come_back_byte_for_byte() {
        let mut map = BTreeMap::new();
        map.insert("a".to_string(), b"1".to_vec());
        let canonical = encode_kv(&map);
        for bytes in [Vec::new(), b"not a kv image".to_vec(), canonical] {
            let value = ShardValue::from_image(bytes.clone());
            assert_eq!(value.to_image(), bytes);
            assert_eq!(value.image_len(), bytes.len());
            assert_eq!(*value.to_shared_image(), bytes);
        }
    }

    #[test]
    fn both_sides_of_a_delta_build_the_same_image() {
        let boot = ShardValue::from_image(Vec::new());
        let batch = puts(&[("k", b"1"), ("j", b"2"), ("k", b"3")]);
        let next = boot.with_puts(&batch, Some(4)).expect("empty is a KV map");
        let delta = Arc::clone(next.delta().expect("made by a delta"));
        assert_eq!(delta.base, 4);
        let applied = boot.with_delta(delta).expect("own encoding");
        assert_eq!(applied.to_image(), next.to_image());
        assert_eq!(next.kv().unwrap().get("k"), Some(&b"3"[..]));
        // The predecessor is untouched.
        assert_eq!(boot.to_image(), Vec::<u8>::new());
        // Without a base the result is an image, not a delta.
        assert!(boot.with_puts(&batch, None).unwrap().delta().is_none());
    }

    #[test]
    fn values_that_are_not_kv_images_take_no_puts() {
        let junk = ShardValue::from_image(b"junk".to_vec());
        assert!(junk.kv().is_none());
        assert!(junk.with_puts(&puts(&[("k", b"v")]), Some(1)).is_none());
        let boot = ShardValue::from_image(Vec::new());
        assert!(boot
            .with_delta(Arc::new(Delta {
                base: 1,
                puts: vec![0xFF],
            }))
            .is_none());
    }
}
