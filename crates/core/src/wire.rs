//! Byte-level wire views of the protocol's control state.
//!
//! The policy state each site exchanges at access time — the operation
//! number `o_i`, the version number `v_i`, and the partition set `P_i`
//! of [`ReplicaState`] — is all a real transport ever needs to move, so
//! this module pins one canonical encoding for it: fixed-width
//! big-endian integers, with a `SiteSet` travelling as its raw 64-bit
//! membership mask. `dynvote-store` frames are built from these
//! primitives; keeping them here (next to the state they serialize)
//! means a change to [`ReplicaState`] breaks the codec at compile time
//! instead of on the wire.
//!
//! Decoding is *total*: every function returns [`WireError`] on short
//! input and never panics or over-reads, which is what lets the frame
//! decoder feed it untrusted bytes.

use core::fmt;

use dynvote_types::SiteSet;

use crate::state::ReplicaState;

/// Why a wire view failed to decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value did.
    Truncated,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => f.write_str("truncated wire value"),
        }
    }
}

impl std::error::Error for WireError {}

/// A bounds-checked forward-only reader over a byte slice.
#[derive(Clone, Copy, Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader starting at the beginning of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` when every byte has been consumed — frame decoders use
    /// this to reject trailing garbage.
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Reads `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] when fewer than `n` bytes remain.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] on empty input.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.bytes(1)?[0])
    }

    /// Reads a big-endian `u16`.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] when fewer than two bytes remain.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.bytes(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    /// Reads a big-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] when fewer than four bytes remain.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.bytes(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a big-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] when fewer than eight bytes remain.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.bytes(8)?;
        Ok(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a [`SiteSet`] (its raw membership mask).
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] when fewer than eight bytes remain.
    pub fn site_set(&mut self) -> Result<SiteSet, WireError> {
        Ok(SiteSet::from_bits(self.u64()?))
    }

    /// Reads a [`ReplicaState`] wire view (see [`put_state`]).
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] when fewer than 24 bytes remain.
    pub fn state(&mut self) -> Result<ReplicaState, WireError> {
        Ok(ReplicaState {
            op: self.u64()?,
            version: self.u64()?,
            partition: self.site_set()?,
        })
    }
}

/// Appends one byte.
pub fn put_u8(out: &mut Vec<u8>, value: u8) {
    out.push(value);
}

/// Appends a big-endian `u16`.
pub fn put_u16(out: &mut Vec<u8>, value: u16) {
    out.extend_from_slice(&value.to_be_bytes());
}

/// Appends a big-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_be_bytes());
}

/// Appends a big-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_be_bytes());
}

/// Appends a [`SiteSet`] as its raw membership mask.
fn put_site_set(out: &mut Vec<u8>, set: SiteSet) {
    put_u64(out, set.bits());
}

/// Appends a [`ReplicaState`]: `o_i`, `v_i`, `P_i` — 24 bytes, the
/// paper's complete per-copy consistency-control record.
pub fn put_state(out: &mut Vec<u8>, state: &ReplicaState) {
    put_u64(out, state.op);
    put_u64(out, state.version);
    put_site_set(out, state.partition);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_round_trips() {
        let state = ReplicaState {
            op: 7,
            version: 3,
            partition: SiteSet::from_indices([0, 2, 5]),
        };
        let mut buf = Vec::new();
        put_state(&mut buf, &state);
        assert_eq!(buf.len(), 24);
        let mut r = Reader::new(&buf);
        assert_eq!(r.state().unwrap(), state);
        assert!(r.is_exhausted());
    }

    #[test]
    fn integers_round_trip() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 0xAB);
        put_u16(&mut buf, 0xBEEF);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 1);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncated_reads_error_without_panicking() {
        let buf = [1u8, 2, 3];
        let mut r = Reader::new(&buf);
        assert_eq!(r.u32(), Err(WireError::Truncated));
        // A failed read consumes nothing.
        assert_eq!(r.remaining(), 3);
        assert_eq!(r.u16().unwrap(), 0x0102);
        assert_eq!(r.u64(), Err(WireError::Truncated));
        assert_eq!(r.u8().unwrap(), 3);
        assert!(r.is_exhausted());
        assert_eq!(r.u8(), Err(WireError::Truncated));
    }
}
