//! Object values: real bytes or synthetic sizes.
//!
//! Trace replays care about object *sizes*, not contents; storing real
//! payloads for hundreds of millions of accesses would dwarf the machine.
//! `Value::Synthetic` carries only a length — when such a value reaches
//! flash, deterministic filler bytes derived from the key are
//! materialized so the device sees real full-size writes. `Value::Real`
//! carries actual bytes for functional tests and examples.
//!
//! Synthetic bytes are a splitmix64 stream seeded from the key, written
//! one whole 64-bit word per 8 bytes: this runs under the shard lock on
//! every flash insert, so it must cost a store per word, not a copy call
//! per word. [`Value::matches`] checks flash read-backs against the same
//! stream without materializing a second copy.

use std::sync::Arc;

use crate::checksum::{mix64, word};
use crate::Key;

/// An object value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// Size-only value; bytes are derived from the key when needed.
    Synthetic(u32),
    /// Actual payload bytes.
    Real(Arc<[u8]>),
}

impl Value {
    /// Creates a real value from bytes.
    pub fn real(bytes: impl Into<Arc<[u8]>>) -> Self {
        Value::Real(bytes.into())
    }

    /// Creates a synthetic (size-only) value.
    pub fn synthetic(len: u32) -> Self {
        Value::Synthetic(len)
    }

    /// Logical length in bytes.
    pub fn len(&self) -> usize {
        match self {
            Value::Synthetic(n) => *n as usize,
            Value::Real(b) => b.len(),
        }
    }

    /// Whether the value is zero-length.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The shared payload buffer of a real value, `None` for synthetic
    /// ones. Cloning the returned `Arc` is the zero-copy way to hand a
    /// value across cache layers (DESIGN.md §5.3) — `Value::clone`
    /// itself only bumps this refcount, never copies bytes.
    pub fn as_real(&self) -> Option<&Arc<[u8]>> {
        match self {
            Value::Real(b) => Some(b),
            Value::Synthetic(_) => None,
        }
    }

    /// Writes the value's bytes into `out` (which must be `len()` long).
    ///
    /// Synthetic bytes are a deterministic function of `key` and
    /// position, so read-back verification is possible even for
    /// synthetic values when the backing store retains data: byte
    /// `8i + j` is byte `j` (little-endian) of the `i`-th splitmix64
    /// output seeded from the key. Each word is stored whole, and only
    /// the short tail (when `len() % 8 != 0`) is a partial copy.
    pub fn materialize(&self, key: Key, out: &mut [u8]) {
        debug_assert_eq!(out.len(), self.len());
        match self {
            Value::Real(b) => out.copy_from_slice(b),
            Value::Synthetic(_) => {
                let mut words = SyntheticWords::new(key);
                let mut chunks = out.chunks_exact_mut(8);
                for chunk in chunks.by_ref() {
                    chunk.copy_from_slice(&words.next_word().to_le_bytes());
                }
                let tail = chunks.into_remainder();
                if !tail.is_empty() {
                    tail.copy_from_slice(&words.next_word().to_le_bytes()[..tail.len()]);
                }
            }
        }
    }

    /// Whether `bytes` is exactly what [`Value::materialize`] would
    /// write for `key`. Synthetic values are compared word by word
    /// against the generator, so checking a flash read-back allocates
    /// nothing.
    pub fn matches(&self, key: Key, bytes: &[u8]) -> bool {
        if bytes.len() != self.len() {
            return false;
        }
        match self {
            Value::Real(b) => b[..] == *bytes,
            Value::Synthetic(_) => {
                let mut words = SyntheticWords::new(key);
                let mut chunks = bytes.chunks_exact(8);
                let body = chunks.by_ref().all(|chunk| word(chunk) == words.next_word());
                let tail = chunks.remainder();
                body && (tail.is_empty() || *tail == words.next_word().to_le_bytes()[..tail.len()])
            }
        }
    }

    /// Materializes into a fresh vector.
    pub fn to_bytes(&self, key: Key) -> Vec<u8> {
        let mut out = vec![0u8; self.len()];
        self.materialize(key, &mut out);
        out
    }
}

/// The synthetic payload's word stream: successive splitmix64 outputs
/// seeded from the key, one per 8 payload bytes.
struct SyntheticWords(u64);

impl SyntheticWords {
    fn new(key: Key) -> Self {
        SyntheticWords(key ^ 0x9E37_79B9_7F4A_7C15)
    }

    #[inline]
    fn next_word(&mut self) -> u64 {
        let w = mix64(self.0);
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        w
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// Reference generator: one variable-length copy per 8-byte chunk,
    /// written independently of the kernel, which must reproduce it
    /// byte for byte.
    fn reference_materialize(key: Key, out: &mut [u8]) {
        let mut x = key ^ 0x9E37_79B9_7F4A_7C15;
        for chunk in out.chunks_mut(8) {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let bytes = z.to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }

    fn reference_bytes(key: Key, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        reference_materialize(key, &mut out);
        out
    }

    const KEYS: [Key; 5] = [0, 1, 42, 0x9E37_79B9_7F4A_7C15, u64::MAX];

    #[test]
    fn synthetic_bytes_match_the_reference_at_every_short_length() {
        for key in KEYS {
            for len in 0..=300usize {
                let v = Value::synthetic(len as u32);
                assert_eq!(v.to_bytes(key), reference_bytes(key, len), "key {key} len {len}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn synthetic_bytes_match_the_reference(key in any::<u64>(), len in 0usize..70 * 1024) {
            let bytes = Value::synthetic(len as u32).to_bytes(key);
            prop_assert!(bytes == reference_bytes(key, len), "key {key} len {len}");
        }
    }

    #[test]
    fn matches_accepts_exact_bytes_and_rejects_one_flipped_byte() {
        for (key, len) in [(7u64, 100usize), (u64::MAX, 4096), (3, 13), (9, 8)] {
            let v = Value::synthetic(len as u32);
            let good = v.to_bytes(key);
            assert!(v.matches(key, &good));
            // Head, the first byte of the second word, and the last byte
            // (inside the tail when `len % 8 != 0`).
            for pos in [0, 8.min(len - 1), len - 1] {
                let mut bad = good.clone();
                bad[pos] ^= 0x40;
                assert!(!v.matches(key, &bad), "flip at {pos} of {len} accepted");
            }
            assert!(!v.matches(key ^ 1, &good), "another key's bytes accepted");
            assert!(!v.matches(key, &good[..len - 1]), "short read accepted");
        }
        assert!(Value::synthetic(0).matches(5, &[]));
        let real = Value::real(vec![1u8, 2, 3]);
        assert!(real.matches(0, &[1, 2, 3]));
        assert!(!real.matches(0, &[1, 2, 4]));
        assert!(!real.matches(0, &[1, 2]));
    }

    #[test]
    fn real_value_round_trips() {
        let v = Value::real(vec![1u8, 2, 3]);
        assert_eq!(v.len(), 3);
        assert_eq!(v.to_bytes(42), vec![1, 2, 3]);
    }

    #[test]
    fn synthetic_is_deterministic_per_key() {
        let v = Value::synthetic(100);
        assert_eq!(v.to_bytes(7), v.to_bytes(7));
        assert_ne!(v.to_bytes(7), v.to_bytes(8));
        assert_eq!(v.len(), 100);
    }

    #[test]
    fn synthetic_handles_non_multiple_of_eight() {
        let v = Value::synthetic(13);
        assert_eq!(v.to_bytes(1).len(), 13);
    }

    #[test]
    fn empty_values() {
        assert!(Value::synthetic(0).is_empty());
        assert!(Value::real(Vec::new()).is_empty());
    }

    #[test]
    fn as_real_exposes_the_shared_buffer_and_clone_is_zero_copy() {
        let v = Value::real(vec![1u8, 2, 3]);
        let c = v.clone();
        // Cloning a real value must share the allocation, not copy it.
        assert!(Arc::ptr_eq(v.as_real().unwrap(), c.as_real().unwrap()));
        assert!(Value::synthetic(3).as_real().is_none());
    }
}
