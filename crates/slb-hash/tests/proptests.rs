//! Property-based tests for the hashing substrate.

use proptest::prelude::*;
use slb_hash::xxhash::xxhash64;
use slb_hash::{bucket_of, HashFamily};

proptest! {
    /// xxHash64 is a pure function of (bytes, seed).
    #[test]
    fn hashes_are_deterministic(bytes in proptest::collection::vec(any::<u8>(), 0..256), seed in any::<u64>()) {
        prop_assert_eq!(xxhash64(&bytes, seed), xxhash64(&bytes, seed));
    }

    /// Bucketing never exceeds the bucket count.
    #[test]
    fn bucket_always_in_range(hash in any::<u64>(), n in 1usize..10_000) {
        prop_assert!(bucket_of(hash, n) < n);
    }

    /// Appending a byte to the input changes the xxHash64 digest (no trivial
    /// extension collisions on random inputs).
    #[test]
    fn extension_changes_digest(bytes in proptest::collection::vec(any::<u8>(), 0..128), extra in any::<u8>()) {
        let mut longer = bytes.clone();
        longer.push(extra);
        prop_assert_ne!(xxhash64(&bytes, 0), xxhash64(&longer, 0));
    }

    /// A family's candidate lists are always within range, have the requested
    /// length, and are identical for identical (seed, key) pairs.
    #[test]
    fn family_candidates_well_formed(
        master in any::<u64>(),
        key in any::<u64>(),
        n in 1usize..500,
        d in 1usize..16,
    ) {
        let d_max = d.max(2);
        let fam = HashFamily::new(master, d_max, n);
        let cs = fam.choices(&key, d);
        prop_assert_eq!(cs.len(), d);
        prop_assert!(cs.iter().all(|&c| c < n));
        prop_assert_eq!(cs, HashFamily::new(master, d_max, n).choices(&key, d));
    }

    /// String keys and their byte representation route identically.
    #[test]
    fn str_and_bytes_agree(s in ".{0,64}", seed in any::<u64>()) {
        use slb_hash::KeyHash;
        prop_assert_eq!(s.as_str().key_hash(seed), s.as_bytes().key_hash(seed));
    }
}
