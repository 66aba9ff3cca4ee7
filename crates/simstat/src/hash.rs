//! A fast non-cryptographic hasher for the replay and analysis hot
//! loops.
//!
//! The standard library's default hasher (SipHash-1-3) is keyed and
//! DoS-resistant — properties none of the workspace's internal maps
//! need, and whose cost shows up directly in the replay inner loop:
//! every block access hashes a file id/block pair, every open/close
//! hashes an open id, and every [`crate::Distribution::add`] hashes its
//! value. It lives here, at the bottom of the crate graph, so every
//! crate shares the one hasher; `fstrace` re-exports it as
//! `fstrace::hash`. This module implements an
//! FxHash-style multiplicative hasher (the build environment is
//! offline, so no external crate): per 8-byte word the state is
//! rotated, xored with the word, and multiplied by an odd constant —
//! three ALU ops, no table.
//!
//! Plain Fx leaves a trap for this workspace's key patterns: the
//! product's low bits depend only on the input's low bits, and fleet
//! traces stride ids by 2^40 per machine (DESIGN.md §14), which would
//! park every machine's ids in the same hash-table buckets. [`finish`]
//! therefore applies a xor-shift/multiply finalizer so high-order
//! entropy reaches the low bits the table indexes with.
//!
//! The state starts at a per-process key rather than zero. Served
//! analysis hashes values a client chose (open ids, sizes, gaps), and
//! with a fixed start those could be crafted offline, by inverting
//! [`finish`] and the one-word step, to share their low bits, turning
//! every insert into a probe of every earlier one. The key comes from
//! std's `RandomState` once per process; [`FastBuildHasher`] reads it
//! once per map and seeds each hasher's state with it, so the per-hash
//! work stays three ALU ops. It is not cryptographic: the key only
//! denies an attacker who cannot observe the process's hashes the
//! offline inversion.
//!
//! Use the [`FastMap`]/[`FastSet`] aliases; they are drop-in
//! `HashMap`/`HashSet` replacements. Iteration order differs from the
//! SipHash maps and, with the key, from one process to the next — as
//! with any `HashMap`, no consumer may depend on it (every iteration
//! in the workspace either only counts or folds, or sorts by a total
//! order before anything is printed), and the replay paths that
//! switched are covered by bit-identity tests against their pre-switch
//! behavior.
//!
//! [`finish`]: std::hash::Hasher::finish

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// The Fx multiplication constant: 2^64 / phi, forced odd, so the
/// multiply is a bijection on `u64`.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
/// Finalizer constant (from splitmix64's second round).
const FINAL: u64 = 0x94d0_49bb_1331_11eb;

/// An FxHash-style streaming hasher with a mixing finalizer, its state
/// seeded with the process key by [`FastBuildHasher`].
#[derive(Clone)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn word(&mut self, w: u64) {
        self.hash = (self.hash.rotate_left(5) ^ w).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // Xor-shift + multiply + xor-shift: spreads the product's
        // high-order entropy into the low bits a hash table indexes
        // with (see the module docs for why plain Fx is not enough).
        let mut h = self.hash;
        h ^= h >> 32;
        h = h.wrapping_mul(FINAL);
        h ^ (h >> 29)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Derived `Hash` impls for the id types hit the fixed-width
        // paths below; this slice path only serves compound or string
        // keys, so simple chunking is fine.
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // Fold the length in so "ab" + "" and "a" + "b" differ.
            self.word(u64::from_le_bytes(tail) ^ ((rest.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.word(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.word(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.word(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.word(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.word(n as u64);
        self.word((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.word(n as u64);
    }
}

/// `BuildHasher` for [`FastHasher`]: holds the process key, read once
/// when the map is made, and starts every hasher's state at it.
#[derive(Clone, Copy, Debug)]
pub struct FastBuildHasher {
    key: u64,
}

impl Default for FastBuildHasher {
    fn default() -> Self {
        static KEY: OnceLock<u64> = OnceLock::new();
        let key = *KEY.get_or_init(|| RandomState::new().hash_one(0u64));
        FastBuildHasher { key }
    }
}

impl BuildHasher for FastBuildHasher {
    type Hasher = FastHasher;

    #[inline]
    fn build_hasher(&self) -> FastHasher {
        FastHasher { hash: self.key }
    }
}

/// A `HashMap` keyed with [`FastHasher`] — the replay hot-loop map.
pub type FastMap<K, V> = HashMap<K, V, FastBuildHasher>;

/// A `HashSet` keyed with [`FastHasher`].
pub type FastSet<T> = HashSet<T, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        FastBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_and_distinct() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_ne!(hash_of(&42u64), hash_of(&43u64));
        assert_ne!(hash_of(&(1u64, 2u64)), hash_of(&(2u64, 1u64)));
    }

    #[test]
    fn slice_path_separates_boundaries() {
        assert_ne!(hash_of(&[1u8, 2, 3][..]), hash_of(&[1u8, 2, 3, 0][..]));
        assert_ne!(hash_of("ab"), hash_of("ba"));
    }

    /// The fleet id-stride pattern (DESIGN.md §14): ids spaced 2^40
    /// apart must not collapse into a handful of low-bit buckets.
    #[test]
    fn strided_keys_spread_across_low_bits() {
        let mut low12 = FastSet::default();
        for machine in 0..256u64 {
            low12.insert(hash_of(&(machine << 40)) & 0xFFF);
        }
        // 256 keys over 4096 buckets: perfect hashing collides rarely;
        // plain Fx would produce exactly 1 distinct value here.
        assert!(
            low12.len() > 200,
            "only {} distinct low-12 bits",
            low12.len()
        );
    }

    /// The multiplicative inverse of odd `a` modulo 2^64 (Newton).
    fn inverse(a: u64) -> u64 {
        let mut x = a;
        for _ in 0..6 {
            x = x.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(x)));
        }
        assert_eq!(a.wrapping_mul(x), 1);
        x
    }

    /// The inverse of `x ^ (x >> k)`.
    fn unshift(y: u64, k: u32) -> u64 {
        let mut x = y;
        for _ in 0..64 / k {
            x = y ^ (x >> k);
        }
        x
    }

    /// The `u64` whose hash from a zero state is `h`: `finish` and the
    /// one-word step undone.
    fn zero_state_preimage(h: u64) -> u64 {
        let state = unshift(unshift(h, 29).wrapping_mul(inverse(FINAL)), 32);
        state.wrapping_mul(inverse(SEED))
    }

    /// Keys crafted to share their low 16 hash bits under a zero state
    /// (every one in one probe chain) spread like random hashes once
    /// the state starts at the process key: 50,000 random hashes fill
    /// about 35,000 of the 65,536 low-16-bit values.
    #[test]
    fn keys_crafted_against_a_zero_state_spread_under_the_key() {
        let crafted: Vec<u64> = (1..=50_000u64)
            .map(|i| zero_state_preimage(i << 16))
            .collect();
        let zero_state = |k: u64| {
            let mut h = FastHasher { hash: 0 };
            h.write_u64(k);
            h.finish()
        };
        assert!(crafted.iter().all(|&k| zero_state(k) & 0xFFFF == 0));
        let build = FastBuildHasher::default();
        let low16: FastSet<u64> = crafted.iter().map(|k| build.hash_one(k) & 0xFFFF).collect();
        assert!(
            low16.len() >= 30_000,
            "crafted keys fill only {} low-16-bit values",
            low16.len()
        );
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut m: FastMap<u64, &str> = FastMap::default();
        m.insert(7, "seven");
        assert_eq!(m.get(&7), Some(&"seven"));
        let mut s: FastSet<(u32, u64)> = FastSet::default();
        assert!(s.insert((1, 2)) && !s.insert((1, 2)));
    }
}
