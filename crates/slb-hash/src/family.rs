//! Families of independently-seeded hash functions mapping keys to workers.
//!
//! The Greedy-d process of the paper routes a key by evaluating `d`
//! independent hash functions `F_1..F_d : K -> [n]` and picking the least
//! loaded candidate worker. [`HashFamily`] provides exactly that interface:
//! it owns `d_max` seeds (derived deterministically from one master seed) and
//! can evaluate any prefix of them for a key, so the same family serves keys
//! with different `d` (2 for the tail, more for the head) without rehashing.
//!
//! ## Digest-then-derive
//!
//! The family does *not* hash the key bytes once per function. It hashes the
//! key **once** into a 64-bit digest ([`KeyHash::digest`]) and derives the
//! `i`-th choice with a single SplitMix64 round over `digest ^ seed_i`. For a
//! string key this turns `d` full passes over the bytes into one pass plus
//! `d` integer mixes, which is what makes large `d` (D-Choices head keys)
//! affordable on the per-tuple hot path. Callers that route the same key
//! several times can compute the digest themselves and use the
//! `*_from_digest` variants to skip even the single key hash.

use crate::{bucket_of, splitmix::splitmix64, xxhash::xxhash64};

/// Seed used to produce the one-per-key digest that all family members
/// derive their choices from. Any fixed constant works; this one is arbitrary
/// but must never change, or every persisted routing decision would move.
pub const DIGEST_SEED: u64 = 0xD16E_57A1_5EED_0001;

/// Anything that can be routed by the partitioners: a key viewed as bytes.
///
/// Implemented for the common key representations used in stream processors
/// (strings, byte slices, and integer key identifiers as used by the
/// synthetic workloads).
pub trait KeyHash {
    /// Hashes the key with the given seed into a 64-bit digest.
    fn key_hash(&self, seed: u64) -> u64;

    /// The key's routing digest: one 64-bit hash from which every family
    /// member derives its choice. Hash the key once, derive `d` times.
    #[inline]
    fn digest(&self) -> u64 {
        self.key_hash(DIGEST_SEED)
    }
}

impl KeyHash for [u8] {
    #[inline]
    fn key_hash(&self, seed: u64) -> u64 {
        xxhash64(self, seed)
    }
}

impl KeyHash for &[u8] {
    #[inline]
    fn key_hash(&self, seed: u64) -> u64 {
        xxhash64(self, seed)
    }
}

impl KeyHash for str {
    #[inline]
    fn key_hash(&self, seed: u64) -> u64 {
        xxhash64(self.as_bytes(), seed)
    }
}

impl KeyHash for &str {
    #[inline]
    fn key_hash(&self, seed: u64) -> u64 {
        xxhash64(self.as_bytes(), seed)
    }
}

impl KeyHash for String {
    #[inline]
    fn key_hash(&self, seed: u64) -> u64 {
        xxhash64(self.as_bytes(), seed)
    }
}

impl KeyHash for u64 {
    /// Integer keys (e.g. key ranks from the synthetic generators) are mixed
    /// directly: two SplitMix64 rounds over `key ^ seed` give full avalanche
    /// without a byte-serialization round trip.
    #[inline]
    fn key_hash(&self, seed: u64) -> u64 {
        splitmix64(splitmix64(*self ^ 0x9E37_79B9_7F4A_7C15) ^ splitmix64(seed))
    }
}

impl KeyHash for u32 {
    #[inline]
    fn key_hash(&self, seed: u64) -> u64 {
        u64::from(*self).key_hash(seed)
    }
}

impl KeyHash for usize {
    #[inline]
    fn key_hash(&self, seed: u64) -> u64 {
        (*self as u64).key_hash(seed)
    }
}

/// A family of up to `d_max` independent hash functions onto `n` workers.
///
/// The functions are `F_i(k) = bucket(mix(digest(k) ^ seed_i), n)` where the
/// seeds are derived from the master seed with SplitMix64 and `mix` is one
/// SplitMix64 finalizer round, so distinct family members behave as
/// independent ideal hash functions for the purposes of the analysis in the
/// paper (Section IV and Appendix A) while the key bytes are only hashed
/// once per tuple.
#[derive(Debug, Clone)]
pub struct HashFamily {
    seeds: Vec<u64>,
    workers: usize,
}

/// Derives the `i`-th function's 64-bit value from a key digest: one
/// SplitMix64 finalizer round over `digest ^ seed_i`.
#[inline]
fn derive(digest: u64, seed: u64) -> u64 {
    splitmix64(digest ^ seed)
}

impl HashFamily {
    /// Creates a family of `d_max` functions mapping onto `workers` buckets.
    ///
    /// # Panics
    /// Panics if `workers == 0` or `d_max == 0`.
    pub fn new(master_seed: u64, d_max: usize, workers: usize) -> Self {
        assert!(workers > 0, "a hash family needs at least one worker");
        assert!(d_max > 0, "a hash family needs at least one function");
        let mut sm = crate::SplitMix64::new(master_seed);
        let seeds = (0..d_max).map(|_| sm.next_u64()).collect();
        Self { seeds, workers }
    }

    /// Number of functions available in this family.
    #[inline]
    pub fn len(&self) -> usize {
        self.seeds.len()
    }

    /// Returns true if the family holds no functions (never the case for a
    /// constructed family, but required for API completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.seeds.is_empty()
    }

    /// Number of workers (buckets) the family maps onto.
    #[inline]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Evaluates the `i`-th function on `key`.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn choice<K: KeyHash + ?Sized>(&self, key: &K, i: usize) -> usize {
        self.choice_from_digest(key.digest(), i)
    }

    /// Evaluates the `i`-th function on a precomputed key digest.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn choice_from_digest(&self, digest: u64, i: usize) -> usize {
        bucket_of(derive(digest, self.seeds[i]), self.workers)
    }

    /// Evaluates the first `d` functions on `key`, returning the candidate
    /// workers in function order (duplicates possible, as in the paper:
    /// hash collisions mean a key may effectively have fewer than `d`
    /// distinct choices).
    ///
    /// # Panics
    /// Panics if `d > self.len()` or `d == 0`.
    pub fn choices<K: KeyHash + ?Sized>(&self, key: &K, d: usize) -> Vec<usize> {
        assert!(
            d > 0 && d <= self.seeds.len(),
            "d={d} out of range 1..={}",
            self.seeds.len()
        );
        let digest = key.digest();
        self.seeds[..d]
            .iter()
            .map(|&s| bucket_of(derive(digest, s), self.workers))
            .collect()
    }

    /// Evaluates the first `d` functions, writing candidates into `out`
    /// (cleared first). Allocation-free variant of [`Self::choices`] for the
    /// per-tuple hot path: the key bytes are hashed once, then each choice
    /// costs one integer mix.
    #[inline]
    pub fn choices_into<K: KeyHash + ?Sized>(&self, key: &K, d: usize, out: &mut Vec<usize>) {
        self.choices_from_digest_into(key.digest(), d, out);
    }

    /// Evaluates the first `d` functions on a precomputed digest, writing
    /// candidates into `out` (cleared first).
    ///
    /// # Panics
    /// Panics if `d > self.len()` or `d == 0`.
    #[inline]
    pub fn choices_from_digest_into(&self, digest: u64, d: usize, out: &mut Vec<usize>) {
        assert!(
            d > 0 && d <= self.seeds.len(),
            "d={d} out of range 1..={}",
            self.seeds.len()
        );
        out.clear();
        for &s in &self.seeds[..d] {
            out.push(bucket_of(derive(digest, s), self.workers));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_choices_in_range() {
        let fam = HashFamily::new(7, 8, 13);
        for key in 0..1000u64 {
            for c in fam.choices(&key, 8) {
                assert!(c < 13);
            }
        }
    }

    #[test]
    fn family_is_deterministic_across_instances() {
        let a = HashFamily::new(42, 4, 10);
        let b = HashFamily::new(42, 4, 10);
        for key in ["alpha", "beta", "gamma", "$AAPL", "wiki/Main_Page"] {
            assert_eq!(a.choices(&key, 4), b.choices(&key, 4));
        }
    }

    #[test]
    fn different_master_seeds_give_different_functions() {
        let a = HashFamily::new(1, 2, 100);
        let b = HashFamily::new(2, 2, 100);
        let diffs = (0..1000u64)
            .filter(|k| a.choices(k, 2) != b.choices(k, 2))
            .count();
        assert!(diffs > 900, "only {diffs} keys routed differently");
    }

    #[test]
    fn functions_within_family_are_independent() {
        // Fraction of keys where F1(k) == F2(k) should be about 1/n.
        let n = 50;
        let fam = HashFamily::new(3, 2, n);
        let samples = 20_000u64;
        let collisions = (0..samples)
            .filter(|k| fam.choice(k, 0) == fam.choice(k, 1))
            .count();
        let rate = collisions as f64 / samples as f64;
        let expected = 1.0 / n as f64;
        assert!(
            (rate - expected).abs() < expected,
            "collision rate {rate} vs expected {expected}"
        );
    }

    #[test]
    fn choices_into_matches_choices() {
        let fam = HashFamily::new(11, 5, 17);
        let mut buf = Vec::new();
        for key in 0..100u64 {
            fam.choices_into(&key, 5, &mut buf);
            assert_eq!(buf, fam.choices(&key, 5));
        }
    }

    #[test]
    fn digest_variants_match_keyed_variants() {
        let fam = HashFamily::new(13, 6, 23);
        let mut buf = Vec::new();
        for key in ["alpha", "beta", "wiki/Main_Page", ""] {
            let digest = key.digest();
            assert_eq!(digest, key.key_hash(DIGEST_SEED));
            for i in 0..6 {
                assert_eq!(fam.choice(&key, i), fam.choice_from_digest(digest, i));
            }
            fam.choices_from_digest_into(digest, 6, &mut buf);
            assert_eq!(buf, fam.choices(&key, 6));
        }
    }

    #[test]
    fn derived_choices_stay_uniform_per_function() {
        // Each derived function must still spread keys evenly: the digest
        // indirection must not introduce bucket bias.
        let n = 16;
        let fam = HashFamily::new(9, 3, n);
        let samples = 48_000u64;
        for i in 0..3 {
            let mut counts = vec![0usize; n];
            for key in 0..samples {
                counts[fam.choice(&key, i)] += 1;
            }
            let expected = samples as f64 / n as f64;
            for (b, &c) in counts.iter().enumerate() {
                let dev = (c as f64 - expected).abs() / expected;
                assert!(dev < 0.10, "fn {i} bucket {b} deviates {dev:.3}");
            }
        }
    }

    #[test]
    fn string_and_str_hash_identically() {
        let fam = HashFamily::new(0, 2, 10);
        let s = String::from("hot-key");
        assert_eq!(fam.choices(&s, 2), fam.choices(&"hot-key", 2));
        assert_eq!(fam.choices(&s, 2), fam.choices("hot-key", 2));
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let _ = HashFamily::new(0, 2, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn too_many_choices_panics() {
        let fam = HashFamily::new(0, 2, 5);
        let _ = fam.choices(&1u64, 3);
    }
}
