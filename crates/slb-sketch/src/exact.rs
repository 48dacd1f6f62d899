//! Exact frequency counting, the ground truth used by tests and experiments.
//!
//! The simulator uses an [`ExactCounter`] to compute true key frequencies
//! when checking the accuracy of the streaming summaries and when running
//! the "distribution known a priori" analyses of Section IV-B (memory
//! overhead as a function of skew).

use std::collections::HashMap;
use std::hash::Hash;

use crate::FrequencyEstimator;

/// Exact per-key counts backed by a hash map.
#[derive(Debug, Clone, Default)]
pub struct ExactCounter<K: Eq + Hash + Clone> {
    counts: HashMap<K, u64>,
    total: u64,
}

impl<K: Eq + Hash + Clone> ExactCounter<K> {
    /// Creates an empty counter.
    pub fn new() -> Self {
        Self {
            counts: HashMap::new(),
            total: 0,
        }
    }

    /// Creates an empty counter with pre-allocated capacity for `keys` keys.
    pub fn with_capacity(keys: usize) -> Self {
        Self {
            counts: HashMap::with_capacity(keys),
            total: 0,
        }
    }

    /// Number of distinct keys observed.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// True if nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Iterates over `(key, count)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, u64)> + '_ {
        self.counts.iter().map(|(k, &c)| (k, c))
    }

    /// Returns the keys sorted by decreasing count (rank order, as the paper
    /// defines key ranks), ties broken arbitrarily but deterministically for
    /// a given map iteration order only after sorting by count.
    pub fn ranked(&self) -> Vec<(K, u64)> {
        let mut v: Vec<(K, u64)> = self.counts.iter().map(|(k, &c)| (k.clone(), c)).collect();
        v.sort_by_key(|&(_, count)| std::cmp::Reverse(count));
        v
    }

    /// The probability vector `p_1 ≥ p_2 ≥ …` of the observed empirical
    /// distribution (relative frequencies in rank order).
    pub fn probabilities(&self) -> Vec<f64> {
        if self.total == 0 {
            return Vec::new();
        }
        self.ranked()
            .into_iter()
            .map(|(_, c)| c as f64 / self.total as f64)
            .collect()
    }

    /// Relative frequency of the most frequent key (`p1`), or 0 when empty.
    pub fn p1(&self) -> f64 {
        self.ranked()
            .first()
            .map(|(_, c)| *c as f64 / self.total as f64)
            .unwrap_or(0.0)
    }
}

impl<K: Eq + Hash + Clone> FrequencyEstimator<K> for ExactCounter<K> {
    fn observe(&mut self, key: &K) {
        self.total += 1;
        *self.counts.entry(key.clone()).or_insert(0) += 1;
    }

    fn estimate(&self, key: &K) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    fn total(&self) -> u64 {
        self.total
    }

    fn heavy_hitters(&self, threshold: f64) -> Vec<(K, u64)> {
        let cut = (threshold * self.total as f64).ceil() as u64;
        let mut hh: Vec<(K, u64)> = self
            .counts
            .iter()
            .filter(|(_, &c)| c >= cut.max(1))
            .map(|(k, &c)| (k.clone(), c))
            .collect();
        hh.sort_by_key(|&(_, count)| std::cmp::Reverse(count));
        hh
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_ranks() {
        let mut ec = ExactCounter::new();
        for k in ["b", "a", "a", "c", "a", "b"] {
            ec.observe(&k);
        }
        assert_eq!(ec.estimate(&"a"), 3);
        assert_eq!(ec.estimate(&"b"), 2);
        assert_eq!(ec.estimate(&"c"), 1);
        assert_eq!(ec.estimate(&"z"), 0);
        assert_eq!(ec.distinct(), 3);
        assert_eq!(ec.total(), 6);
        let ranked = ec.ranked();
        assert_eq!(ranked[0].0, "a");
        assert_eq!(ranked[2].0, "c");
        assert!((ec.p1() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let mut ec = ExactCounter::new();
        for i in 0..100u64 {
            ec.observe(&(i % 7));
        }
        let sum: f64 = ec.probabilities().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        let probs = ec.probabilities();
        for w in probs.windows(2) {
            assert!(w[0] >= w[1], "probabilities not sorted descending");
        }
    }

    #[test]
    fn heavy_hitters_exact() {
        let mut ec = ExactCounter::new();
        for _ in 0..8 {
            ec.observe(&1u64);
        }
        ec.observe(&2u64);
        ec.observe(&3u64);
        let hh = ec.heavy_hitters(0.5);
        assert_eq!(hh, vec![(1u64, 8)]);
    }

    #[test]
    fn empty_counter_edge_cases() {
        let ec: ExactCounter<u64> = ExactCounter::new();
        assert!(ec.is_empty());
        assert_eq!(ec.p1(), 0.0);
        assert!(ec.probabilities().is_empty());
        assert!(ec.heavy_hitters(0.1).is_empty());
    }
}
