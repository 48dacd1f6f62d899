//! Zipf distributions over a finite key space.
//!
//! The paper's synthetic workloads (the "ZF" datasets) draw keys from a Zipf
//! distribution with exponent `z ∈ {0.1 … 2.0}` over `|K| ∈ {10^4, 10^5,
//! 10^6}` keys. A key of rank `i` has probability `p_i ∝ i^{-z}`.
//!
//! This module provides:
//! * [`ZipfDistribution`] — exact probabilities, cumulative mass of prefixes
//!   (needed by the D-Choices solver and the head-cardinality analysis), and
//!   the generalized harmonic normalization constant.
//! * [`ZipfGenerator`] — a seeded sampler using an alias table (O(1) per
//!   draw) that also scrambles key identities so that rank order is not
//!   recoverable from the key identifier.
//! * [`fit_exponent_to_p1`] — fits `z` so that the most frequent key has a
//!   target relative frequency, used to build the WP/TW/CT-like stand-ins.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::alias::AliasTable;
use crate::message::KeyId;
use crate::KeyStream;

/// An exact finite-support Zipf distribution.
#[derive(Debug, Clone)]
pub struct ZipfDistribution {
    exponent: f64,
    /// `p[i]` is the probability of the key with rank `i + 1`.
    probabilities: Vec<f64>,
}

impl ZipfDistribution {
    /// Builds the distribution over `keys` ranks with the given `exponent`.
    ///
    /// # Panics
    /// Panics if `keys == 0` or the exponent is negative or non-finite.
    pub fn new(keys: usize, exponent: f64) -> Self {
        assert!(keys > 0, "Zipf distribution needs at least one key");
        assert!(
            exponent >= 0.0 && exponent.is_finite(),
            "exponent must be non-negative"
        );
        let mut probabilities: Vec<f64> = (1..=keys).map(|i| (i as f64).powf(-exponent)).collect();
        let norm: f64 = probabilities.iter().sum();
        for p in &mut probabilities {
            *p /= norm;
        }
        Self {
            exponent,
            probabilities,
        }
    }

    /// The exponent `z`.
    #[inline]
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// Number of keys in the support.
    #[inline]
    pub fn keys(&self) -> usize {
        self.probabilities.len()
    }

    /// Probability of the key with rank `rank` (1-based).
    ///
    /// # Panics
    /// Panics if `rank` is 0 or above the number of keys.
    #[inline]
    pub fn probability(&self, rank: usize) -> f64 {
        assert!(
            rank >= 1 && rank <= self.probabilities.len(),
            "rank {rank} out of range"
        );
        self.probabilities[rank - 1]
    }

    /// Probability of the most frequent key, `p1`.
    #[inline]
    pub fn p1(&self) -> f64 {
        self.probabilities[0]
    }

    /// The full probability vector in rank order.
    #[inline]
    pub fn probabilities(&self) -> &[f64] {
        &self.probabilities
    }

    /// Total probability mass of the `h` most frequent keys.
    pub fn head_mass(&self, h: usize) -> f64 {
        self.probabilities.iter().take(h).sum()
    }

    /// Number of keys whose probability is at least `threshold` — the
    /// cardinality of the head `H = {k : p_k ≥ θ}` (Figure 3).
    pub fn head_cardinality(&self, threshold: f64) -> usize {
        // Probabilities are sorted descending, so a partition point search
        // suffices.
        self.probabilities.partition_point(|&p| p >= threshold)
    }
}

/// Generalized harmonic number `H(keys, z) = Σ_{i=1..keys} i^{-z}`.
///
/// Exact summation is used for the first terms; beyond a cut-off the
/// remainder is approximated with the midpoint-rule integral
/// `∫ x^{-z} dx`, which is accurate to well below 10^-6 relative error for
/// the smooth integrand involved. This keeps the p1-fitting procedure fast
/// even for the paper-scale key spaces (31 million keys for the Twitter
/// dataset) where a term-by-term sum would be prohibitively slow.
pub fn generalized_harmonic(keys: usize, z: f64) -> f64 {
    const EXACT_CUTOFF: usize = 20_000;
    let exact_terms = keys.min(EXACT_CUTOFF);
    let mut sum: f64 = (1..=exact_terms).map(|i| (i as f64).powf(-z)).sum();
    if keys > exact_terms {
        let a = exact_terms as f64 + 0.5;
        let b = keys as f64 + 0.5;
        sum += if (z - 1.0).abs() < 1e-9 {
            (b / a).ln()
        } else {
            (b.powf(1.0 - z) - a.powf(1.0 - z)) / (1.0 - z)
        };
    }
    sum
}

/// Fits the Zipf exponent so that `p1` matches `target_p1` for a support of
/// `keys` keys, via bisection on the monotone map `z ↦ p1(z) = 1/H(keys, z)`.
///
/// Returns an error string when the target is unreachable (e.g. below the
/// uniform probability `1/keys`).
pub fn fit_exponent_to_p1(keys: usize, target_p1: f64) -> Result<f64, String> {
    if keys == 0 {
        return Err("key space must be non-empty".to_string());
    }
    let uniform = 1.0 / keys as f64;
    if target_p1 < uniform - 1e-12 {
        return Err(format!(
            "target p1 {target_p1} is below the uniform probability {uniform} for {keys} keys"
        ));
    }
    if target_p1 >= 1.0 {
        return Err("target p1 must be below 1".to_string());
    }
    let p1_of = |z: f64| 1.0 / generalized_harmonic(keys, z);
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    // Grow the bracket until p1(hi) exceeds the target (p1 is increasing in z).
    while p1_of(hi) < target_p1 {
        hi *= 2.0;
        if hi > 64.0 {
            return Err(format!(
                "target p1 {target_p1} not reachable for {keys} keys"
            ));
        }
    }
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if p1_of(mid) < target_p1 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(0.5 * (lo + hi))
}

/// A seeded Zipf sampler producing scrambled key identifiers.
///
/// Key identity scrambling: the key with rank `r` is reported as
/// `splitmix64(r ⊕ scramble_seed)`, a bijection, so that identifiers carry no
/// rank information. [`ZipfGenerator::rank_of`] / [`ZipfGenerator::key_of`]
/// convert between the two views (experiments need the rank view to split
/// head from tail when reporting, the router only ever sees identifiers).
///
/// The probability vector and the alias table are immutable once built and
/// shared behind `Arc`: a clone copies the RNG, the cursor and two pointers.
/// The engine's sources snapshot their stream by cloning at every window
/// close, so a clone must not cost the key space (24 bytes per key).
#[derive(Debug, Clone)]
pub struct ZipfGenerator {
    distribution: Arc<ZipfDistribution>,
    table: Arc<AliasTable>,
    rng: StdRng,
    scramble_seed: u64,
    produced: u64,
    limit: u64,
}

/// Salt folded into the seed to derive the identity-scramble key.
const SCRAMBLE_SALT: u64 = 0xC0FF_EE00_DEAD_BEEF;

impl ZipfGenerator {
    /// Creates an unbounded generator (use [`Self::with_limit`] to bound it).
    pub fn new(keys: usize, exponent: f64, seed: u64) -> Self {
        let distribution = Arc::new(ZipfDistribution::new(keys, exponent));
        let table = Arc::new(AliasTable::new(distribution.probabilities()));
        Self {
            distribution,
            table,
            rng: StdRng::seed_from_u64(seed),
            scramble_seed: seed ^ SCRAMBLE_SALT,
            produced: 0,
            limit: u64::MAX,
        }
    }

    /// Creates a generator that stops after `limit` messages.
    pub fn with_limit(keys: usize, exponent: f64, seed: u64, limit: u64) -> Self {
        let mut g = Self::new(keys, exponent, seed);
        g.limit = limit;
        g
    }

    /// Re-keys the identity scramble to that of a generator seeded with
    /// `seed`, leaving the sampling RNG untouched.
    ///
    /// By default the rank→identifier bijection is derived from the same
    /// seed as the sampler, so two generators with different seeds disagree
    /// on which `KeyId` names the rank-1 key. That is wrong for a
    /// multi-source topology: the paper's sources all draw from *one* key
    /// space, and both the grouping comparison (the hot key must be the same
    /// key everywhere) and downstream per-key aggregation (counts from
    /// different sources must collide on the same identifier) depend on it.
    /// Give every source an independent sampler seed but the same scramble
    /// seed to model that faithfully.
    pub fn scrambled_like(mut self, seed: u64) -> Self {
        self.scramble_seed = seed ^ SCRAMBLE_SALT;
        self
    }

    /// The underlying exact distribution.
    #[inline]
    pub fn distribution(&self) -> &ZipfDistribution {
        &self.distribution
    }

    /// Draws the next key identifier (does not respect the limit; use the
    /// [`KeyStream`] interface for bounded iteration).
    #[inline]
    pub fn next_key(&mut self) -> KeyId {
        let rank = self.table.sample(&mut self.rng) as u64 + 1;
        self.key_of(rank)
    }

    /// Key identifier for the key of the given 1-based rank.
    #[inline]
    pub fn key_of(&self, rank: u64) -> KeyId {
        slb_hash::splitmix::splitmix64(rank ^ self.scramble_seed)
    }

    /// Inverse of [`Self::key_of`] by exhaustive check against the rank
    /// space. Only intended for analysis/reporting on small key spaces; the
    /// simulator keeps its own rank map for large ones.
    pub fn rank_of(&self, key: KeyId) -> Option<u64> {
        (1..=self.distribution.keys() as u64).find(|&r| self.key_of(r) == key)
    }

    /// Whether `self` and `other` sample from the very same tables.
    #[cfg(test)]
    fn shares_tables_with(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.distribution, &other.distribution)
            && Arc::ptr_eq(&self.table, &other.table)
    }
}

impl KeyStream for ZipfGenerator {
    fn next_key(&mut self) -> Option<KeyId> {
        if self.produced >= self.limit {
            return None;
        }
        self.produced += 1;
        Some(ZipfGenerator::next_key(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probabilities_sum_to_one_and_are_sorted() {
        for z in [0.0, 0.5, 1.0, 2.0] {
            let d = ZipfDistribution::new(1000, z);
            let sum: f64 = d.probabilities().iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "z={z}: sum {sum}");
            for w in d.probabilities().windows(2) {
                assert!(w[0] >= w[1] - 1e-15, "z={z}: not descending");
            }
        }
    }

    #[test]
    fn zero_exponent_is_uniform() {
        let d = ZipfDistribution::new(100, 0.0);
        for rank in 1..=100 {
            assert!((d.probability(rank) - 0.01).abs() < 1e-12);
        }
    }

    #[test]
    fn high_skew_concentrates_mass_on_first_key() {
        // The paper notes that at z = 2.0 the most frequent key accounts for
        // roughly 60% of the stream.
        let d = ZipfDistribution::new(10_000, 2.0);
        assert!(d.p1() > 0.55 && d.p1() < 0.65, "p1 = {}", d.p1());
    }

    #[test]
    fn head_cardinality_matches_manual_count() {
        let d = ZipfDistribution::new(10_000, 1.0);
        let theta = 2.0 / 50.0; // 2/n with n = 50
        let manual = d.probabilities().iter().filter(|&&p| p >= theta).count();
        assert_eq!(d.head_cardinality(theta), manual);
        // Lower threshold includes more keys.
        assert!(d.head_cardinality(1.0 / (5.0 * 50.0)) >= manual);
    }

    #[test]
    fn head_mass_monotone_and_bounded() {
        let d = ZipfDistribution::new(500, 1.4);
        let mut last = 0.0;
        for h in 0..=500 {
            let m = d.head_mass(h);
            assert!(m >= last - 1e-15);
            assert!(m <= 1.0 + 1e-9);
            last = m;
        }
        assert!((d.head_mass(500) - 1.0).abs() < 1e-9);
        assert!(
            (d.head_mass(1000) - 1.0).abs() < 1e-9,
            "over-long prefix saturates"
        );
    }

    #[test]
    fn fit_exponent_recovers_known_p1() {
        for (keys, z) in [(10_000usize, 0.8), (2_900, 1.3), (100_000, 1.05)] {
            let target = ZipfDistribution::new(keys, z).p1();
            let fitted = fit_exponent_to_p1(keys, target).expect("fit must succeed");
            assert!(
                (fitted - z).abs() < 1e-3,
                "keys={keys} z={z} fitted={fitted}"
            );
        }
    }

    #[test]
    fn generalized_harmonic_matches_exact_sum() {
        for (keys, z) in [
            (100usize, 0.5),
            (50_000, 1.0),
            (80_000, 1.7),
            (120_000, 0.9),
        ] {
            let exact: f64 = (1..=keys).map(|i| (i as f64).powf(-z)).sum();
            let approx = generalized_harmonic(keys, z);
            let rel = ((approx - exact) / exact).abs();
            assert!(rel < 1e-6, "keys={keys} z={z}: relative error {rel}");
        }
    }

    #[test]
    fn fit_exponent_rejects_impossible_targets() {
        assert!(fit_exponent_to_p1(100, 0.001).is_err(), "below uniform");
        assert!(fit_exponent_to_p1(100, 1.0).is_err());
        assert!(fit_exponent_to_p1(0, 0.5).is_err());
    }

    #[test]
    fn generator_empirical_frequencies_match_distribution() {
        let keys = 200;
        let z = 1.2;
        let mut g = ZipfGenerator::new(keys, z, 99);
        let samples = 200_000u64;
        let mut counts = std::collections::HashMap::new();
        for _ in 0..samples {
            *counts.entry(g.next_key()).or_insert(0u64) += 1;
        }
        let d = ZipfDistribution::new(keys, z);
        // Check the three hottest keys' empirical frequencies.
        for rank in 1..=3u64 {
            let key = g.key_of(rank);
            let observed = *counts.get(&key).unwrap_or(&0) as f64 / samples as f64;
            let expected = d.probability(rank as usize);
            assert!(
                (observed - expected).abs() < 0.01,
                "rank {rank}: observed {observed}, expected {expected}"
            );
        }
    }

    #[test]
    fn generator_is_deterministic_per_seed() {
        let mut a = ZipfGenerator::new(1000, 1.5, 7);
        let mut b = ZipfGenerator::new(1000, 1.5, 7);
        for _ in 0..1000 {
            assert_eq!(a.next_key(), b.next_key());
        }
        let mut c = ZipfGenerator::new(1000, 1.5, 8);
        let same = (0..1000).filter(|_| a.next_key() == c.next_key()).count();
        assert!(same < 900, "different seeds should diverge");
    }

    #[test]
    fn key_scrambling_is_bijective_and_invertible() {
        let g = ZipfGenerator::new(500, 1.0, 3);
        let mut seen = std::collections::HashSet::new();
        for rank in 1..=500u64 {
            assert!(
                seen.insert(g.key_of(rank)),
                "duplicate key id for rank {rank}"
            );
        }
        assert_eq!(g.rank_of(g.key_of(42)), Some(42));
        assert_eq!(g.rank_of(0xdead_beef), None, "unknown key has no rank");
    }

    #[test]
    fn key_stream_respects_limit() {
        let mut g = ZipfGenerator::with_limit(100, 1.0, 5, 10);
        let mut n = 0;
        while KeyStream::next_key(&mut g).is_some() {
            n += 1;
        }
        assert_eq!(n, 10);
    }

    #[test]
    #[should_panic(expected = "at least one key")]
    fn zero_keys_panics() {
        let _ = ZipfDistribution::new(0, 1.0);
    }

    #[test]
    fn scrambled_like_unifies_identities_without_touching_sampling() {
        // Two differently-seeded generators disagree on identities by
        // default; re-keyed to the same scramble they agree rank-for-rank,
        // while their sampled rank sequences stay independent.
        let a = ZipfGenerator::new(100, 1.2, 10);
        let b = ZipfGenerator::new(100, 1.2, 11);
        assert_ne!(a.key_of(1), b.key_of(1));
        let a = a.scrambled_like(7);
        let b = b.scrambled_like(7);
        for rank in 1..=100 {
            assert_eq!(a.key_of(rank), b.key_of(rank), "rank {rank}");
        }
        // Identical sampler seeds still yield identical draws after
        // re-scrambling (the RNG is untouched).
        let mut x = ZipfGenerator::with_limit(100, 1.2, 10, 50).scrambled_like(7);
        let mut y = ZipfGenerator::with_limit(100, 1.2, 10, 50).scrambled_like(7);
        while let Some(k) = KeyStream::next_key(&mut x) {
            assert_eq!(Some(k), KeyStream::next_key(&mut y));
        }
    }

    #[test]
    fn mid_stream_clone_shares_the_tables_and_replays_the_identical_suffix() {
        // A positioned generator cloned mid-stream is a replay cursor: the
        // clone re-emits exactly the tuples the original goes on to emit.
        // Source-side replay in the engine's recovery protocol snapshots
        // streams by cloning at every window boundary, so exactly-once
        // delivery rests on this property — and the source's throughput on
        // the clone copying a cursor, not the key space.
        let mut original = ZipfGenerator::with_limit(500, 1.6, 13, 10_777).scrambled_like(3);
        for _ in 0..777 {
            KeyStream::next_key(&mut original).expect("stream not exhausted");
        }
        let mut replay = original.clone();
        assert!(replay.shares_tables_with(&original));
        assert!(
            !original.shares_tables_with(&ZipfGenerator::new(500, 1.6, 13)),
            "separately built generators own separate tables"
        );
        let mut compared = 0;
        while let Some(k) = KeyStream::next_key(&mut original) {
            assert_eq!(Some(k), KeyStream::next_key(&mut replay));
            compared += 1;
        }
        assert_eq!(compared, 10_000);
        assert_eq!(KeyStream::next_key(&mut replay), None);
    }
}
