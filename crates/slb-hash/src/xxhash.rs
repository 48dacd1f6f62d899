//! xxHash64: a fast, high-quality non-cryptographic 64-bit hash.
//!
//! This is a from-scratch implementation of the public xxHash64 algorithm
//! (Yann Collet). It is the default routing hash in this library because it
//! is both very fast on short keys (the common case for stream routing keys
//! such as words, URLs or ticker symbols) and has excellent avalanche
//! behaviour, which matters for the uniformity assumptions in the paper's
//! analysis (ideal-hash-function collisions, Appendix A).

const PRIME64_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME64_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME64_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME64_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME64_5: u64 = 0x27D4_EB2F_1656_67C5;

#[inline(always)]
fn read_u64(bytes: &[u8], offset: usize) -> u64 {
    let mut buf = [0u8; 8];
    buf.copy_from_slice(&bytes[offset..offset + 8]);
    u64::from_le_bytes(buf)
}

#[inline(always)]
fn read_u32(bytes: &[u8], offset: usize) -> u32 {
    let mut buf = [0u8; 4];
    buf.copy_from_slice(&bytes[offset..offset + 4]);
    u32::from_le_bytes(buf)
}

#[inline(always)]
fn round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(PRIME64_2))
        .rotate_left(31)
        .wrapping_mul(PRIME64_1)
}

#[inline(always)]
fn merge_round(acc: u64, val: u64) -> u64 {
    let val = round(0, val);
    (acc ^ val).wrapping_mul(PRIME64_1).wrapping_add(PRIME64_4)
}

#[inline(always)]
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(PRIME64_2);
    h ^= h >> 29;
    h = h.wrapping_mul(PRIME64_3);
    h ^= h >> 32;
    h
}

/// Computes the xxHash64 digest of `bytes` under `seed`.
pub fn xxhash64(bytes: &[u8], seed: u64) -> u64 {
    let len = bytes.len();
    let mut h: u64;
    let mut offset = 0usize;

    if len >= 32 {
        let mut v1 = seed.wrapping_add(PRIME64_1).wrapping_add(PRIME64_2);
        let mut v2 = seed.wrapping_add(PRIME64_2);
        let mut v3 = seed;
        let mut v4 = seed.wrapping_sub(PRIME64_1);

        while offset + 32 <= len {
            v1 = round(v1, read_u64(bytes, offset));
            v2 = round(v2, read_u64(bytes, offset + 8));
            v3 = round(v3, read_u64(bytes, offset + 16));
            v4 = round(v4, read_u64(bytes, offset + 24));
            offset += 32;
        }

        h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        h = merge_round(h, v1);
        h = merge_round(h, v2);
        h = merge_round(h, v3);
        h = merge_round(h, v4);
    } else {
        h = seed.wrapping_add(PRIME64_5);
    }

    h = h.wrapping_add(len as u64);

    while offset + 8 <= len {
        h ^= round(0, read_u64(bytes, offset));
        h = h
            .rotate_left(27)
            .wrapping_mul(PRIME64_1)
            .wrapping_add(PRIME64_4);
        offset += 8;
    }

    if offset + 4 <= len {
        h ^= u64::from(read_u32(bytes, offset)).wrapping_mul(PRIME64_1);
        h = h
            .rotate_left(23)
            .wrapping_mul(PRIME64_2)
            .wrapping_add(PRIME64_3);
        offset += 4;
    }

    while offset < len {
        h ^= u64::from(bytes[offset]).wrapping_mul(PRIME64_5);
        h = h.rotate_left(11).wrapping_mul(PRIME64_1);
        offset += 1;
    }

    avalanche(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Reference digests from the canonical xxHash implementation.
    #[test]
    fn known_vectors_seed_zero() {
        assert_eq!(xxhash64(b"", 0), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxhash64(b"a", 0), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxhash64(b"abc", 0), 0x44BC_2CF5_AD77_0999);
    }

    #[test]
    fn known_vectors_nonzero_seed() {
        // Seed changes the digest entirely.
        assert_ne!(xxhash64(b"abc", 0), xxhash64(b"abc", 1));
        assert_ne!(xxhash64(b"", 0), xxhash64(b"", 1));
    }

    #[test]
    fn long_input_avalanche() {
        // The >=32-byte stripe path must keep full avalanche behaviour:
        // flipping a single input bit flips roughly half of the output bits.
        let mut base = vec![0u8; 96];
        for (i, b) in base.iter_mut().enumerate() {
            *b = i as u8;
        }
        let h0 = xxhash64(&base, 0);
        let mut total_flips = 0u32;
        let trials = 64;
        for t in 0..trials {
            let mut flipped = base.clone();
            flipped[t % base.len()] ^= 1 << (t % 8);
            total_flips += (h0 ^ xxhash64(&flipped, 0)).count_ones();
        }
        let avg = f64::from(total_flips) / trials as f64;
        assert!(
            (avg - 32.0).abs() < 8.0,
            "average flipped bits {avg} far from 32"
        );
    }

    #[test]
    fn deterministic_across_calls() {
        let data = b"the quick brown fox jumps over the lazy dog";
        assert_eq!(xxhash64(data, 42), xxhash64(data, 42));
    }

    #[test]
    fn handles_all_length_classes() {
        // Exercise every branch: <4, 4..8, 8..32, >=32 bytes, plus stragglers.
        let buf: Vec<u8> = (0..100u8).collect();
        let mut seen = std::collections::HashSet::new();
        for len in 0..buf.len() {
            assert!(
                seen.insert(xxhash64(&buf[..len], 3)),
                "collision at len {len}"
            );
        }
    }

    #[test]
    fn avalanche_flipping_one_bit_changes_many_output_bits() {
        let a = xxhash64(b"partition-key-000", 0);
        let b = xxhash64(b"partition-key-001", 0);
        let differing = (a ^ b).count_ones();
        assert!(differing > 16, "only {differing} bits differ");
    }
}
