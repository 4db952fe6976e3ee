//! A fast hasher for maps keyed by the program's own small integers.
//!
//! The per-task maps of the orchestrator (request, task and tag ids,
//! `(node, node)` pairs, `(app, component)` pairs) and the address memo
//! of [`MetricsRegistry`](crate::MetricsRegistry) hash keys the program
//! made itself, never outside input. The default SipHash guards against
//! crafted collisions that cannot occur there and costs most of a
//! lookup, so these maps use [`WordHasher`] through the [`WordMap`] and
//! [`WordSet`] aliases instead.
//!
//! ```
//! use myrtus_obs::hash::WordMap;
//!
//! let mut m: WordMap<(u16, usize), u32> = WordMap::default();
//! m.insert((3, 1), 7);
//! assert_eq!(m.get(&(3, 1)), Some(&7));
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed by [`WordHasher`].
pub type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// A `HashSet` hashed by [`WordHasher`].
pub type WordSet<K> = HashSet<K, BuildHasherDefault<WordHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-rotate hasher over machine words: every integer write is
/// one rotate, xor and multiply, whatever its width.
///
/// A product's low bits depend only on the low bits of its inputs, and
/// the table picks buckets by the low bits of the hash, so
/// [`finish`](Hasher::finish) rotates the high bits down: keys that
/// differ only in their high bits (a packed `app | request | stage`
/// tag) still spread over the buckets.
#[derive(Debug, Default)]
pub struct WordHasher(u64);

impl WordHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for WordHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, word: u8) {
        self.add(u64::from(word));
    }

    #[inline]
    fn write_u16(&mut self, word: u16) {
        self.add(u64::from(word));
    }

    #[inline]
    fn write_u32(&mut self, word: u32) {
        self.add(u64::from(word));
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.add(word);
    }

    #[inline]
    fn write_usize(&mut self, word: usize) {
        self.add(word as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(key: impl Hash) -> u64 {
        BuildHasherDefault::<WordHasher>::default().hash_one(key)
    }

    /// One multiply-rotate step from `state`, spelled out.
    fn step(state: u64, word: u64) -> u64 {
        (state.rotate_left(5) ^ word).wrapping_mul(SEED)
    }

    #[test]
    fn a_pair_of_u32_hashes_to_a_pinned_value() {
        assert_eq!(hash_of((3u32, 7u32)), step(step(0, 3), 7).rotate_left(26));
        assert_eq!(hash_of((3u32, 7u32)), 0xdc4f_4437_b641_81d4);
        assert_ne!(hash_of((3u32, 7u32)), hash_of((7u32, 3u32)));
    }

    #[test]
    fn integer_writes_take_one_word_step() {
        for word in [0u64, 1, 0xdead_beef, u64::from(u32::MAX)] {
            let mut h = WordHasher::default();
            h.write_u32(word as u32);
            assert_eq!(h.0, step(0, word), "write_u32({word:#x})");
            let mut h = WordHasher::default();
            h.write_u64(word);
            assert_eq!(h.0, step(0, word), "write_u64({word:#x})");
        }
        let wide = u64::MAX - 1;
        let mut h = WordHasher::default();
        h.write_u64(wide);
        assert_eq!(h.0, step(0, wide));
        // A byte loop over the same value would take eight steps.
        let mut bytes = WordHasher::default();
        bytes.write(&wide.to_ne_bytes());
        assert_ne!(bytes.0, h.0);
    }

    #[test]
    fn keys_that_differ_only_in_high_bits_spread_over_low_bits() {
        // Packed tags: request in bits 16..48, stage 0 in the low bits.
        let low: WordSet<u64> = (0..64u64).map(|request| hash_of(request << 16) & 0xff).collect();
        assert!(low.len() > 32, "{} distinct low bytes of 64", low.len());
    }
}
