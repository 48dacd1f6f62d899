//! Hashing substrate for the SLB (Scalable Load Balancing) library.
//!
//! The stream-partitioning algorithms reproduced from *"When Two Choices Are
//! not Enough: Balancing at Scale in Distributed Stream Processing"*
//! (Nasir et al., ICDE 2016) route every tuple by hashing its key with one or
//! more independent hash functions (the *Greedy-d* process uses `d` of them).
//! Production stream processors (Storm, Flink) rely on library hash functions
//! such as Murmur3 or Guava's hashing; this crate provides from-scratch,
//! dependency-free implementations of the same class of functions:
//!
//! * [`xxhash::xxhash64`] — fast 64-bit hash of a key's bytes; routing calls
//!   it through [`KeyHash`] for string and byte keys.
//! * [`splitmix::SplitMix64`] — integer mixer used to derive independent
//!   seeds and to hash already-numeric keys; [`FixedState`] packages it as
//!   the `BuildHasher` of the workspace's private integer-keyed maps.
//!
//! On top of the raw functions, [`family::HashFamily`] packages *d*
//! independently-seeded functions mapping arbitrary keys to a worker index in
//! `[0, n)`, which is exactly the interface the Greedy-d process needs. The
//! family hashes the key bytes once into a digest and derives each of the
//! `d` choices with a single SplitMix64 round ("digest-then-derive"), so the
//! marginal cost of an extra choice is a few integer instructions rather
//! than another pass over the key.
//!
//! All functions are deterministic given their seed, so experiments are
//! reproducible run-to-run.

pub mod family;
pub mod splitmix;
pub mod xxhash;

pub use family::{HashFamily, KeyHash, DIGEST_SEED};
pub use splitmix::{FixedHashMap, FixedHashSet, FixedHasher, FixedState, SplitMix64};

/// Maps a 64-bit hash onto `n` buckets with negligible modulo bias.
///
/// Uses the widening-multiply technique (Lemire's "fastrange"): the result is
/// `⌊hash · n / 2^64⌋`, which is uniform when `hash` is uniform and avoids the
/// slow hardware modulo.
#[inline]
pub fn bucket_of(hash: u64, n: usize) -> usize {
    debug_assert!(n > 0, "cannot bucket into zero buckets");
    (((hash as u128) * (n as u128)) >> 64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_of_is_in_range() {
        for n in [1usize, 2, 3, 5, 7, 80, 128, 1000] {
            for h in [0u64, 1, u64::MAX, u64::MAX / 2, 0xdead_beef_cafe_babe] {
                assert!(bucket_of(h, n) < n, "bucket_of({h}, {n}) out of range");
            }
        }
    }

    #[test]
    fn bucket_of_max_hash_maps_to_last_bucket() {
        assert_eq!(bucket_of(u64::MAX, 10), 9);
        assert_eq!(bucket_of(0, 10), 0);
    }

    #[test]
    fn bucket_of_single_bucket_always_zero() {
        for h in [0u64, 42, u64::MAX] {
            assert_eq!(bucket_of(h, 1), 0);
        }
    }

    #[test]
    fn bucket_of_is_roughly_uniform() {
        // Hash consecutive integers and check every bucket receives a share
        // close to the expected count.
        let n = 16;
        let samples = 64_000u64;
        let mut counts = vec![0usize; n];
        for i in 0..samples {
            let h = xxhash::xxhash64(&i.to_le_bytes(), 7);
            counts[bucket_of(h, n)] += 1;
        }
        let expected = samples as f64 / n as f64;
        for (b, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.10, "bucket {b} deviates {dev:.3} from uniform");
        }
    }
}
