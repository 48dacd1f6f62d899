//! Heavy-hitter substrate for the SLB (Scalable Load Balancing) library.
//!
//! The D-Choices and W-Choices partitioners of Nasir et al. (ICDE 2016) need
//! to know, *online and per source*, which keys currently belong to the head
//! of the frequency distribution. The paper uses the SpaceSaving algorithm
//! (Metwally et al., ICDT 2005), one summary per source over the sub-stream
//! that source forwards. This crate provides:
//!
//! * [`SpaceSaving`] — the counter-based heavy-hitter algorithm over one
//!   sorted counter array (O(1) array writes per update).
//! * [`ExactCounter`] — exact frequencies (hash map), the ground truth for
//!   experiments and tests.
//!
//! All trackers implement [`FrequencyEstimator`], so the partitioners in
//! `slb-core` are generic over the tracking strategy.

pub mod exact;
pub mod space_saving;

pub use exact::ExactCounter;
pub use space_saving::{Counter, SpaceSaving};

use std::hash::Hash;

/// A streaming frequency estimator over keys of type `K`.
///
/// Implementations observe a stream of keys one at a time and can report
/// estimated frequencies and the current heavy hitters. The estimates come
/// with algorithm-specific guarantees documented on each implementation.
pub trait FrequencyEstimator<K: Eq + Hash + Clone> {
    /// Observes one occurrence of `key`.
    fn observe(&mut self, key: &K);

    /// Estimated number of occurrences of `key` seen so far.
    ///
    /// For SpaceSaving this is an upper bound on the true count; for
    /// [`ExactCounter`] it is the true count.
    fn estimate(&self, key: &K) -> u64;

    /// Total number of observations processed.
    fn total(&self) -> u64;

    /// Keys whose estimated relative frequency is at least `threshold`
    /// (a fraction in `[0, 1]`), together with their estimated counts,
    /// sorted by decreasing estimated count.
    fn heavy_hitters(&self, threshold: f64) -> Vec<(K, u64)>;

    /// Estimated relative frequency of `key` (`estimate / total`), or 0 if
    /// nothing has been observed yet.
    fn frequency(&self, key: &K) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.estimate(key) as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    #[test]
    fn frequency_is_zero_on_empty_estimator() {
        let ss: SpaceSaving<&str> = SpaceSaving::new(4);
        assert_eq!(ss.frequency(&"missing"), 0.0);
    }
}
