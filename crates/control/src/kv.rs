//! Codec for the replicated value each shard group votes on.
//!
//! A shard's single replicated object is an ordered `key → bytes` map,
//! so one quorum round (one COMMIT, one fsync) can carry a whole batch
//! of keyed writes. The encoding is length-prefixed and *total*: every
//! byte is accounted for, and any truncation, trailing garbage, or
//! invalid UTF-8 key decodes to `None` rather than a partial map.
//!
//! Layout: `u32 entry count`, then per entry `u16 key len, key bytes
//! (UTF-8), u32 value len, value bytes`. All integers big-endian, to
//! match the wire protocol's dialect.
//!
//! Three types share that entry layout:
//!
//! * the *image* ([`encode_kv`] / [`decode_kv`]) — the whole map, what
//!   a snapshot, a copy reply and a full-image COMMIT carry;
//! * the *put list* ([`KvPuts`]) — a keyed write batch as a delta: the
//!   entries alone, in queue order, no count. A copy holding the image
//!   the list was built on applies it in place instead of receiving
//!   the image again;
//! * the *resident map* ([`KvMap`]) — the decoded image a daemon keeps
//!   in memory between batches. Cloning it is cheap and a clone shares
//!   every chunk a write did not touch, so the coordinator can hand the
//!   cluster "the old value" and "the new value" without copying the
//!   map.

use std::collections::BTreeMap;
use std::sync::Arc;

/// Encodes a KV map into the shard group's replicated value.
#[must_use]
pub fn encode_kv(map: &BTreeMap<String, Vec<u8>>) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + map.len() * 8);
    put_count(&mut out, map.len());
    for (key, value) in map {
        put_entry(&mut out, key, value);
    }
    out
}

/// Decodes a replicated value back into a KV map.
///
/// An empty input decodes to an empty map (a freshly-placed shard has
/// the empty value). Returns `None` on any malformed input.
#[must_use]
pub fn decode_kv(bytes: &[u8]) -> Option<BTreeMap<String, Vec<u8>>> {
    if bytes.is_empty() {
        return Some(BTreeMap::new());
    }
    let mut cursor = bytes;
    let count = read_u32(&mut cursor)?;
    let mut map = BTreeMap::new();
    for _ in 0..count {
        let (key, value) = read_entry(&mut cursor)?;
        map.insert(key.to_string(), value.to_vec());
    }
    cursor.is_empty().then_some(map)
}

/// The largest key the entry layout can carry (its `u16` length
/// prefix). Keys arrive from clients; check before encoding.
pub const MAX_KEY_LEN: usize = u16::MAX as usize;

fn put_count(out: &mut Vec<u8>, count: usize) {
    out.extend_from_slice(
        &u32::try_from(count)
            .expect("kv map entry count fits u32")
            .to_be_bytes(),
    );
}

fn put_entry(out: &mut Vec<u8>, key: &str, value: &[u8]) {
    let key_len = u16::try_from(key.len()).expect("kv key fits u16 length prefix");
    out.extend_from_slice(&key_len.to_be_bytes());
    out.extend_from_slice(key.as_bytes());
    let value_len = u32::try_from(value.len()).expect("kv value fits u32 length prefix");
    out.extend_from_slice(&value_len.to_be_bytes());
    out.extend_from_slice(value);
}

/// Bytes [`put_entry`] writes for one entry.
fn entry_len(key: &str, value: &[u8]) -> usize {
    2 + key.len() + 4 + value.len()
}

fn read_entry<'a>(cursor: &mut &'a [u8]) -> Option<(&'a str, &'a [u8])> {
    let key_len = read_u16(cursor)? as usize;
    let key = std::str::from_utf8(take(cursor, key_len)?).ok()?;
    let value_len = read_u32(cursor)? as usize;
    Some((key, take(cursor, value_len)?))
}

fn take<'a>(cursor: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if cursor.len() < n {
        return None;
    }
    let (head, tail) = cursor.split_at(n);
    *cursor = tail;
    Some(head)
}

fn read_u16(cursor: &mut &[u8]) -> Option<u16> {
    take(cursor, 2).map(|b| u16::from_be_bytes([b[0], b[1]]))
}

fn read_u32(cursor: &mut &[u8]) -> Option<u32> {
    take(cursor, 4).map(|b| u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
}

/// A keyed write batch as a delta: the puts in queue order, a later
/// put of the same key winning.
///
/// Encoded as the entries back to back with no count, so the encoding
/// of two lists one after the other is the encoding of their
/// concatenation — a durable record covering several batches is built
/// by appending bytes. Decoding is total, like the image's.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KvPuts(pub Vec<(String, Vec<u8>)>);

impl KvPuts {
    /// Encodes the list. Keys must fit [`MAX_KEY_LEN`].
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.0.iter().map(|(k, v)| entry_len(k, v)).sum());
        for (key, value) in &self.0 {
            put_entry(&mut out, key, value);
        }
        out
    }

    /// Decodes a list; `None` on truncation or an invalid UTF-8 key.
    #[must_use]
    pub fn decode(bytes: &[u8]) -> Option<KvPuts> {
        let mut cursor = bytes;
        let mut puts = Vec::new();
        while !cursor.is_empty() {
            let (key, value) = read_entry(&mut cursor)?;
            puts.push((key.to_string(), value.to_vec()));
        }
        Some(KvPuts(puts))
    }

    /// Applies the puts to a decoded image, in order.
    pub fn apply(&self, map: &mut BTreeMap<String, Vec<u8>>) {
        for (key, value) in &self.0 {
            map.insert(key.clone(), value.clone());
        }
    }
}

/// Applies encoded put lists to an encoded image, oldest first, and
/// re-encodes: what a durable store does when it turns "last full
/// image + the deltas logged since" back into one image. `None` when
/// the image or a list does not decode.
#[must_use]
pub fn fold_image(image: &[u8], deltas: &[Vec<u8>]) -> Option<Vec<u8>> {
    let mut map = decode_kv(image)?;
    for delta in deltas {
        KvPuts::decode(delta)?.apply(&mut map);
    }
    Some(encode_kv(&map))
}

type Entry = (Arc<str>, Arc<[u8]>);

/// Entries per chunk before it splits. A write clones the chunk it
/// lands in (reference-count bumps) and the chunk index; everything
/// else is shared with the previous version.
const CHUNK: usize = 64;

/// The resident decoded image: an ordered map whose clones share
/// structure.
///
/// Keys are kept in ascending order in chunks of at most [`CHUNK`]
/// entries. `clone` copies two counters and bumps one reference count;
/// an insert into a shared map copies the chunk index (one pointer per
/// chunk) and the one chunk it touches. [`KvMap::encode`] produces
/// exactly the bytes [`encode_kv`] produces for the same contents.
#[derive(Clone, Debug, Default)]
pub struct KvMap {
    /// Non-empty chunks; keys strictly ascending within and across.
    chunks: Arc<Vec<Arc<Vec<Entry>>>>,
    len: usize,
    /// Bytes of all entries as [`put_entry`] writes them.
    entry_bytes: usize,
}

impl KvMap {
    /// Number of keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map holds no key.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Length of [`KvMap::encode`]'s output, without producing it.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        4 + self.entry_bytes
    }

    /// The chunk that holds `key` if any chunk does.
    fn chunk_of(&self, key: &str) -> Option<usize> {
        self.chunks
            .partition_point(|chunk| &*chunk[0].0 <= key)
            .checked_sub(1)
    }

    /// The value stored under `key`.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&[u8]> {
        let chunk = &self.chunks[self.chunk_of(key)?];
        let at = chunk.binary_search_by(|(k, _)| (**k).cmp(key)).ok()?;
        Some(&chunk[at].1)
    }

    /// Stores `value` under `key`, replacing any previous value.
    pub fn insert(&mut self, key: &str, value: &[u8]) {
        let added = entry_len(key, value);
        // A key below every chunk's first key joins the first chunk.
        let index = self.chunk_of(key).unwrap_or(0);
        let chunks = Arc::make_mut(&mut self.chunks);
        if chunks.is_empty() {
            chunks.push(Arc::new(Vec::new()));
        }
        let chunk = Arc::make_mut(&mut chunks[index]);
        match chunk.binary_search_by(|(k, _)| (**k).cmp(key)) {
            Ok(at) => {
                self.entry_bytes -= entry_len(key, &chunk[at].1);
                chunk[at].1 = value.into();
            }
            Err(at) => {
                chunk.insert(at, (key.into(), value.into()));
                self.len += 1;
                if chunk.len() > CHUNK {
                    let upper = chunk.split_off(chunk.len() / 2);
                    chunks.insert(index + 1, Arc::new(upper));
                }
            }
        }
        self.entry_bytes += added;
    }

    /// Applies a put list in order.
    pub fn apply(&mut self, puts: &KvPuts) {
        for (key, value) in &puts.0 {
            self.insert(key, value);
        }
    }

    /// The entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[u8])> {
        self.chunks
            .iter()
            .flat_map(|chunk| chunk.iter())
            .map(|(k, v)| (&**k, &**v))
    }

    /// Encodes the map as an image — byte for byte what [`encode_kv`]
    /// gives for the same contents.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        put_count(&mut out, self.len);
        for (key, value) in self.iter() {
            put_entry(&mut out, key, value);
        }
        out
    }

    /// Decodes a *canonical* image: the bytes [`KvMap::encode`] would
    /// produce, keys strictly ascending. `None` for anything else —
    /// including the empty input and images [`decode_kv`] accepts with
    /// keys repeated or out of order — so that `decode(b)?.encode()`
    /// is always `b` again.
    #[must_use]
    pub fn decode(bytes: &[u8]) -> Option<KvMap> {
        let mut cursor = bytes;
        let count = read_u32(&mut cursor)? as usize;
        let mut entries: Vec<Entry> = Vec::new();
        for _ in 0..count {
            let (key, value) = read_entry(&mut cursor)?;
            if entries.last().is_some_and(|(last, _)| &**last >= key) {
                return None;
            }
            entries.push((key.into(), value.into()));
        }
        cursor.is_empty().then(|| KvMap::from_sorted(entries))
    }

    /// Builds the map from entries already in strictly ascending key
    /// order.
    fn from_sorted(entries: Vec<Entry>) -> KvMap {
        let len = entries.len();
        let entry_bytes = entries.iter().map(|(k, v)| entry_len(k, v)).sum();
        let chunks = entries
            .chunks(CHUNK)
            .map(|chunk| Arc::new(chunk.to_vec()))
            .collect();
        KvMap {
            chunks: Arc::new(chunks),
            len,
            entry_bytes,
        }
    }
}

impl From<&BTreeMap<String, Vec<u8>>> for KvMap {
    fn from(map: &BTreeMap<String, Vec<u8>>) -> Self {
        KvMap::from_sorted(
            map.iter()
                .map(|(k, v)| (k.as_str().into(), v.as_slice().into()))
                .collect(),
        )
    }
}

impl PartialEq for KvMap {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for KvMap {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> BTreeMap<String, Vec<u8>> {
        let mut map = BTreeMap::new();
        map.insert("alpha".to_string(), b"one".to_vec());
        map.insert("beta".to_string(), vec![0u8; 300]);
        map.insert(String::new(), Vec::new());
        map
    }

    #[test]
    fn round_trips() {
        let map = sample();
        assert_eq!(decode_kv(&encode_kv(&map)), Some(map));
        assert_eq!(decode_kv(&[]), Some(BTreeMap::new()));
        assert_eq!(
            decode_kv(&encode_kv(&BTreeMap::new())),
            Some(BTreeMap::new())
        );
    }

    #[test]
    fn truncation_and_trailing_garbage_are_rejected() {
        let encoded = encode_kv(&sample());
        for cut in 1..encoded.len() {
            assert_eq!(decode_kv(&encoded[..cut]), None, "truncated at {cut}");
            assert_eq!(KvMap::decode(&encoded[..cut]), None, "truncated at {cut}");
        }
        let mut padded = encoded;
        padded.push(0);
        assert_eq!(decode_kv(&padded), None);
        assert_eq!(KvMap::decode(&padded), None);
    }

    #[test]
    fn bogus_counts_do_not_panic() {
        // Claims 2^32-1 entries with no bodies.
        assert_eq!(decode_kv(&[0xFF, 0xFF, 0xFF, 0xFF]), None);
        assert_eq!(KvMap::decode(&[0xFF, 0xFF, 0xFF, 0xFF]), None);
    }

    #[test]
    fn put_list_codec_is_total_and_concatenates() {
        let first = KvPuts(vec![
            ("k".to_string(), b"1".to_vec()),
            (String::new(), Vec::new()),
        ]);
        let second = KvPuts(vec![("k".to_string(), b"2".to_vec())]);
        assert_eq!(KvPuts::decode(&first.encode()), Some(first.clone()));
        assert_eq!(KvPuts::decode(&[]), Some(KvPuts::default()));
        let encoded = first.encode();
        for cut in 1..encoded.len() {
            // A cut on an entry boundary is a shorter list; anywhere
            // else it is no list at all.
            if let Some(prefix) = KvPuts::decode(&encoded[..cut]) {
                assert_eq!(prefix.encode(), &encoded[..cut]);
            }
        }
        assert_eq!(KvPuts::decode(&[0, 1, 0xFF, 0, 0, 0, 0]), None, "bad UTF-8");
        let mut joined = first.encode();
        joined.extend_from_slice(&second.encode());
        let mut both = first.0.clone();
        both.extend(second.0.clone());
        assert_eq!(KvPuts::decode(&joined), Some(KvPuts(both)));
    }

    #[test]
    fn resident_map_accepts_only_canonical_images() {
        assert_eq!(KvMap::decode(&[]), None, "the empty value is not canonical");
        let mut unsorted = Vec::new();
        put_count(&mut unsorted, 2);
        put_entry(&mut unsorted, "b", b"1");
        put_entry(&mut unsorted, "a", b"2");
        assert!(decode_kv(&unsorted).is_some());
        assert_eq!(KvMap::decode(&unsorted), None);
        let mut repeated = Vec::new();
        put_count(&mut repeated, 2);
        put_entry(&mut repeated, "a", b"1");
        put_entry(&mut repeated, "a", b"2");
        assert_eq!(KvMap::decode(&repeated), None);
    }

    #[test]
    fn a_clone_is_untouched_by_later_inserts() {
        let mut map = KvMap::default();
        for i in 0..500 {
            map.insert(&format!("key{i:04}"), &[i as u8]);
        }
        let before = map.clone();
        let image = before.encode();
        map.insert("key0250", b"changed");
        map.insert("zzz", b"new");
        assert_eq!(before.encode(), image);
        assert_eq!(before.get("key0250"), Some(&[250u8][..]));
        assert_eq!(before.get("zzz"), None);
        assert_eq!(map.get("key0250"), Some(&b"changed"[..]));
        assert_eq!(map.len(), 501);
        assert_eq!(map.encoded_len(), map.encode().len());
    }

    fn entries() -> impl Strategy<Value = Vec<(String, Vec<u8>)>> {
        // Few distinct keys, so puts overwrite each other and the
        // image; enough of them to split chunks.
        proptest::collection::vec(
            (
                (0u16..400).prop_map(|k| format!("k{k}")),
                proptest::collection::vec(any::<u8>(), 0..12),
            ),
            0..300,
        )
    }

    proptest! {
        /// The delta path and the whole-image path cannot be told
        /// apart: applying a put list to the decoded image — as a
        /// `BTreeMap`, as the resident `KvMap`, or through
        /// `fold_image` on the bytes — re-encodes to exactly what
        /// folding the puts into the map and calling `encode_kv` gives.
        #[test]
        fn applying_a_delta_reencodes_like_fold_then_encode(
            base in entries(),
            puts in entries(),
        ) {
            let mut model: BTreeMap<String, Vec<u8>> = base.into_iter().collect();
            let image = encode_kv(&model);
            let puts = KvPuts(puts);

            let mut decoded = decode_kv(&image).expect("own encoding");
            puts.apply(&mut decoded);
            let mut resident = KvMap::decode(&image).expect("canonical image");
            prop_assert_eq!(resident.encode(), image.clone());
            resident.apply(&puts);
            let folded = fold_image(&image, &[puts.encode()]).expect("own encodings");

            for (key, value) in puts.0 {
                model.insert(key, value);
            }
            let expected = encode_kv(&model);
            prop_assert_eq!(encode_kv(&decoded), expected.clone());
            prop_assert_eq!(resident.encode(), expected.clone());
            prop_assert_eq!(resident.encoded_len(), expected.len());
            prop_assert_eq!(resident.len(), model.len());
            prop_assert_eq!(folded, expected);
            prop_assert_eq!(KvMap::from(&model), resident);
        }
    }
}
