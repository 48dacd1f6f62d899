//! Online tracking of the head of the key distribution.
//!
//! The head `H = {k : p_k ≥ θ}` is the set of keys frequent enough that two
//! choices cannot balance them (Section III-A). Each source tracks the head
//! of its own sub-stream with a SpaceSaving summary; because the sources
//! receive statistically identical sub-streams (they are fed via shuffle
//! grouping), the local head converges to the global one without
//! coordination.
//!
//! [`HeadTracker`] wraps the summary and exposes exactly what the
//! partitioners need:
//! * membership tests ("is this key currently in the head?"),
//! * the estimated relative frequencies of the head keys in rank order, and
//! * the total estimated mass of the head (the solver needs the tail mass
//!   `1 − Σ_{k∈H} p_k`).

use std::hash::Hash;

use slb_sketch::{FrequencyEstimator, SpaceSaving};

/// A snapshot of the head of the distribution at some point in the stream.
#[derive(Debug, Clone, PartialEq)]
pub struct HeadSnapshot<K> {
    /// Head keys in decreasing frequency order.
    pub keys: Vec<K>,
    /// Estimated relative frequencies of those keys (same order).
    pub frequencies: Vec<f64>,
}

impl<K> HeadSnapshot<K> {
    /// Number of keys in the head.
    pub fn cardinality(&self) -> usize {
        self.keys.len()
    }

    /// Total estimated probability mass of the head.
    pub fn mass(&self) -> f64 {
        self.frequencies.iter().sum()
    }

    /// Estimated probability mass of the tail (everything not in the head).
    pub fn tail_mass(&self) -> f64 {
        (1.0 - self.mass()).max(0.0)
    }
}

/// Tracks the head of a key distribution online.
#[derive(Debug, Clone)]
pub struct HeadTracker<K: Eq + Hash + Clone> {
    sketch: SpaceSaving<K>,
    theta: f64,
    /// `⌈2/θ⌉`: the stream length below which no key is head.
    warmup: u64,
    /// `cut_of(sketch.total())`, carried from one observation to the next:
    /// the smallest estimate that clears θ at the current stream length.
    cut: u64,
    /// Bumped whenever an observed key's head membership changes.
    generation: u64,
}

impl<K: Eq + Hash + Clone> HeadTracker<K> {
    /// Creates a tracker with `capacity` SpaceSaving counters and threshold
    /// `theta` (a relative frequency in `(0, 1]`).
    ///
    /// # Panics
    /// Panics if `theta` is not in `(0, 1]` or `capacity == 0`.
    pub fn new(capacity: usize, theta: f64) -> Self {
        assert!(
            theta > 0.0 && theta <= 1.0,
            "theta must be in (0, 1], got {theta}"
        );
        Self {
            sketch: SpaceSaving::new(capacity),
            theta,
            warmup: (2.0 / theta).ceil() as u64,
            // `cut_of(0)`: the cut is never zero.
            cut: 1,
            generation: 0,
        }
    }

    /// The frequency threshold θ.
    #[inline]
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Total number of observations so far.
    #[inline]
    pub fn total(&self) -> u64 {
        self.sketch.total()
    }

    /// Observes one occurrence of `key` and reports whether the key is in
    /// the head *after* the update.
    ///
    /// Uses a single SpaceSaving probe: the sketch reports the key's
    /// estimate before and after the update, and the before/after head
    /// membership is two integer compares against the carried cut — this
    /// tuple's "after" cut is the next tuple's "before" cut, so the one
    /// float multiply per tuple is the one that advances it.
    pub fn observe(&mut self, key: &K) -> bool {
        let total_before = self.sketch.total();
        let (est_before, est_after) = self.sketch.observe_counts(key);
        let was_head = self.crosses_threshold(est_before, total_before);
        self.cut = self.cut_of(total_before + 1);
        let now_head = self.crosses_threshold(est_after, total_before + 1);
        if was_head != now_head {
            self.generation += 1;
        }
        now_head
    }

    /// The smallest estimated count that clears the threshold on a stream
    /// of `total` messages: `⌈θ · total⌉`, and never zero.
    #[inline]
    fn cut_of(&self, total: u64) -> u64 {
        ((self.theta * total as f64).ceil() as u64).max(1)
    }

    /// The head-membership predicate over an estimate and the stream length
    /// it was read at, which must be the length `self.cut` was computed
    /// for; shared by [`Self::is_head`] and the single-probe
    /// [`Self::observe`].
    #[inline]
    fn crosses_threshold(&self, estimate: u64, total: u64) -> bool {
        total >= self.warmup && estimate >= self.cut
    }

    /// True if `key` is currently estimated to be in the head.
    ///
    /// A key is in the head when its estimated count is at least
    /// `θ · total`. Until the stream has seen at least `2/θ` messages no key
    /// can qualify: on a shorter stream a single occurrence already clears
    /// the threshold, which would cause pointless replication at start-up.
    pub fn is_head(&self, key: &K) -> bool {
        self.crosses_threshold(self.sketch.estimate(key), self.sketch.total())
    }

    /// Monotone counter incremented every time head membership changes;
    /// partitioners use it to invalidate cached solver results.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The current head as a sorted snapshot.
    pub fn snapshot(&self) -> HeadSnapshot<K> {
        let total = self.sketch.total();
        if total < self.warmup {
            return HeadSnapshot {
                keys: Vec::new(),
                frequencies: Vec::new(),
            };
        }
        let hh = self.sketch.heavy_hitters(self.theta);
        let mut keys = Vec::with_capacity(hh.len());
        let mut frequencies = Vec::with_capacity(hh.len());
        for (k, c) in hh {
            keys.push(k);
            frequencies.push(c as f64 / total as f64);
        }
        HeadSnapshot { keys, frequencies }
    }

    /// Estimated relative frequency of `key`.
    pub fn frequency(&self, key: &K) -> f64 {
        self.sketch.frequency(key)
    }

    /// Read-only access to the underlying SpaceSaving summary (used by the
    /// distributed-merge audit paths and by tests).
    pub fn sketch(&self) -> &SpaceSaving<K> {
        &self.sketch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nothing_is_head_on_an_empty_or_tiny_stream() {
        let mut tracker: HeadTracker<u64> = HeadTracker::new(50, 0.1);
        assert!(!tracker.is_head(&1));
        // Fewer than 2/θ = 20 messages: still no head, even for a key that
        // makes up 100% of what has been seen.
        for _ in 0..15 {
            tracker.observe(&1);
        }
        assert!(!tracker.is_head(&1));
        assert_eq!(tracker.snapshot().cardinality(), 0);
    }

    #[test]
    fn hot_key_enters_head_and_cold_key_stays_out() {
        let mut tracker: HeadTracker<u64> = HeadTracker::new(100, 0.05);
        // Key 7 gets 30% of a 10k-message stream; keys 1000.. get the rest,
        // each well below 5%.
        let mut state = 1u64;
        for i in 0..10_000u64 {
            let key = if i % 10 < 3 {
                7
            } else {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                1_000 + state % 500
            };
            tracker.observe(&key);
        }
        assert!(tracker.is_head(&7));
        assert!(!tracker.is_head(&1_042));
        let snap = tracker.snapshot();
        assert!(snap.keys.contains(&7));
        assert!((tracker.frequency(&7) - 0.3).abs() < 0.05);
        assert!(snap.mass() < 1.0);
        assert!(snap.tail_mass() > 0.5);
    }

    #[test]
    fn snapshot_is_sorted_by_frequency() {
        let mut tracker: HeadTracker<u64> = HeadTracker::new(50, 0.01);
        for i in 0..10_000u64 {
            let key = match i % 10 {
                0..=4 => 1, // 50%
                5..=7 => 2, // 30%
                _ => 3,     // 20%
            };
            tracker.observe(&key);
        }
        let snap = tracker.snapshot();
        assert_eq!(snap.keys, vec![1, 2, 3]);
        for w in snap.frequencies.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert!((snap.mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn generation_bumps_when_membership_changes() {
        let mut tracker: HeadTracker<u64> = HeadTracker::new(50, 0.5);
        let g0 = tracker.generation();
        // Key 1 becomes a majority key -> head membership changes once it
        // crosses both the warm-up and the threshold.
        for _ in 0..10 {
            tracker.observe(&1);
        }
        assert!(tracker.is_head(&1));
        assert!(tracker.generation() > g0);
        // Flood with other keys until key 1 drops out of the head. Implicit
        // exits (the key is simply not observed any more) do not bump the
        // generation — consumers rely on their periodic refresh for that —
        // but membership itself must reflect the new reality.
        for i in 0..100u64 {
            tracker.observe(&(i % 10 + 2));
        }
        assert!(!tracker.is_head(&1));
    }

    #[test]
    fn observe_returns_current_membership() {
        let mut tracker: HeadTracker<u64> = HeadTracker::new(10, 0.4);
        let mut last = false;
        for _ in 0..10 {
            last = tracker.observe(&9);
        }
        assert!(
            last,
            "a key taking 100% of a warm stream must be in the head"
        );
    }

    #[test]
    #[should_panic(expected = "theta must be in")]
    fn invalid_theta_panics() {
        let _: HeadTracker<u64> = HeadTracker::new(10, 0.0);
    }
}
