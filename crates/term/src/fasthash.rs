//! The engine's one hasher: seeded, multiplicative, and cheap.
//!
//! Every engine-internal hash map — duplicate checks, index buckets,
//! aggregate groups, transient join tables, the hash-consing table —
//! hashes through [`FastHasher`]. Each word written is folded into the
//! state with one 64×64→128-bit multiply whose halves are xored
//! together, so a machine integer costs one multiply where SipHash costs
//! a dozen rounds.
//!
//! The initial state is a per-process seed drawn once from the standard
//! library's randomly keyed [`RandomState`]. Facts arrive from untrusted
//! clients over the wire; without the seed the hash of a key would be a
//! public function and a client could choose keys that all land in one
//! bucket. Within one process every [`FastState`] carries the same seed,
//! so a hash computed once — a [`crate::Tuple`]'s cached hash, an index
//! key — agrees with every map it is later used in.
//!
//! The statistics sketches of `coral-stats` do not use this hasher: they
//! are persisted and must hash the same way after a reopen, which a
//! per-process seed would break.

use std::collections::hash_map::RandomState;
use std::collections::{hash_map, hash_set};
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// A `HashMap` hashing through [`FastState`].
#[allow(clippy::disallowed_types)]
pub type FastMap<K, V> = hash_map::HashMap<K, V, FastState>;

/// A `HashSet` hashing through [`FastState`].
#[allow(clippy::disallowed_types)]
pub type FastSet<T> = hash_set::HashSet<T, FastState>;

/// Odd multiplier (the fractional digits of π); the secret part of the
/// hash is the seed, not the multiplier.
const MUL: u64 = 0x243f_6a88_85a3_08d3;

/// The per-process seed, drawn on first use.
fn seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| RandomState::new().hash_one(0x5eed_u64))
}

/// Multiply into 128 bits and fold the halves together: every input bit
/// reaches both the low bits (bucket choice) and the high bits (the map's
/// control byte).
#[inline]
fn fold_mul(x: u64, y: u64) -> u64 {
    let p = (x as u128).wrapping_mul(y as u128);
    (p as u64) ^ ((p >> 64) as u64)
}

/// The hasher: one fold-multiply per word written.
#[derive(Clone, Copy)]
pub struct FastHasher(u64);

impl Default for FastHasher {
    #[inline]
    fn default() -> FastHasher {
        FastHasher(seed())
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.write_u64(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            // The length marks where the tail ends, so `[1]` and
            // `[1, 0]` differ.
            self.write_u64(u64::from_le_bytes(word) ^ ((rest.len() as u64) << 59));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = fold_mul(self.0 ^ v, MUL);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// Builds [`FastHasher`]s from the process seed, read once when the
/// state is made. Every instance in one process hashes alike.
#[derive(Clone, Copy, Debug)]
pub struct FastState {
    seed: u64,
}

impl Default for FastState {
    #[inline]
    fn default() -> FastState {
        FastState { seed: seed() }
    }
}

impl BuildHasher for FastState {
    type Hasher = FastHasher;

    #[inline]
    fn build_hasher(&self) -> FastHasher {
        FastHasher(self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    #[test]
    fn states_in_one_process_agree() {
        let key = ("edge", 17u64, -3i64);
        assert_eq!(
            FastState::default().hash_one(key),
            FastState::default().hash_one(key)
        );
    }

    #[test]
    fn byte_tails_are_length_delimited() {
        let h = |b: &[u8]| {
            let mut s = FastHasher::default();
            s.write(b);
            s.finish()
        };
        assert_ne!(h(&[1]), h(&[1, 0]));
        assert_ne!(h(&[]), h(&[0]));
        assert_ne!(h(&[0; 8]), h(&[0; 9]));
    }

    #[test]
    fn small_integers_spread_over_buckets() {
        // 4096 consecutive keys over 256 buckets chosen by the low bits:
        // a hash that left low bits unmixed would crowd a few buckets.
        let mut buckets = [0u32; 256];
        for k in 0u64..4096 {
            let mut s = FastHasher::default();
            k.hash(&mut s);
            buckets[(s.finish() & 255) as usize] += 1;
        }
        assert!(
            buckets.iter().all(|&n| (1..=48).contains(&n)),
            "{buckets:?}"
        );
    }
}
