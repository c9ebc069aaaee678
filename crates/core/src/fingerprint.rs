//! The record checksum.
//!
//! [`Fnv64`] is a fixed-key FNV-1a implementation of
//! [`std::hash::Hasher`]: the same bytes hash to the same 64 bits on
//! every run and every platform, which `std`'s randomly keyed default
//! hasher does not promise. It checksums WAL and snapshot records (and
//! the control plane's shard map runs the same loop), so its output is
//! part of an on-disk format and its byte-at-a-time loop must not
//! change. The model checker's state fingerprint is not this: it is a
//! word hash of its own in `dynvote-check`.

use std::hash::Hasher;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Fixed-key FNV-1a 64-bit [`Hasher`]: deterministic across processes,
/// platforms, and runs.
#[derive(Clone, Debug)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(FNV_OFFSET)
    }
}

impl Fnv64 {
    /// A fresh hasher at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Hasher for Fnv64 {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vector() {
        // FNV-1a of the empty input is the offset basis; pins the
        // constants against accidental edits.
        assert_eq!(Fnv64::new().finish(), 0xCBF2_9CE4_8422_2325);
        let mut h = Fnv64::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xAF63_DC4C_8601_EC8C);
    }
}
