//! The SpaceSaving heavy-hitter algorithm over one sorted counter array.
//!
//! SpaceSaving (Metwally, Agrawal, El Abbadi — ICDT 2005) monitors at most
//! `capacity` keys. When an unmonitored key arrives and the summary is full,
//! the key with the minimum counter is evicted and replaced by the new key,
//! which inherits the evicted count as its *error*. With `capacity = 1/φ`
//! counters the algorithm guarantees:
//!
//! * every key with true frequency `> φ·m` is monitored (no false negatives),
//! * for monitored keys, `true_count ≤ estimate ≤ true_count + error`, and
//!   `error ≤ m / capacity`.
//!
//! The counters live in one `Vec` kept in descending count order, with a
//! key → position index beside it. A counter only ever grows by one, so a hit
//! keeps the order by swapping the counter with the first slot of its run of
//! equal counts before incrementing it, and an eviction overwrites the first
//! slot of the minimum-count run in place: both are O(1) array writes after
//! the index probe (plus one binary search when a hit lands inside a run).

use std::cmp::Ordering;
use std::hash::Hash;

use slb_hash::{FixedHashMap, FixedState};

use crate::FrequencyEstimator;

/// A monitored key with its estimated count and maximum overestimation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counter<K> {
    /// The monitored key.
    pub key: K,
    /// Estimated occurrence count (an upper bound on the true count).
    pub count: u64,
    /// Maximum possible overestimation: `count - error` is a lower bound on
    /// the true count.
    pub error: u64,
}

/// Largest estimate first; among equal estimates, smallest error first.
fn by_count_then_error<K>(a: &Counter<K>, b: &Counter<K>) -> Ordering {
    b.count.cmp(&a.count).then(a.error.cmp(&b.error))
}

/// Position of the first slot whose count equals the last (smallest) one.
fn first_of_min_run<K>(slots: &[Counter<K>]) -> usize {
    let min = slots.last().map_or(0, |c| c.count);
    slots.partition_point(|c| c.count > min)
}

/// SpaceSaving summary over keys of type `K`.
///
/// See the module documentation for the guarantees. The summary is
/// deterministic: the same input stream always produces the same monitored
/// set and estimates. Among several minimum counters an eviction replaces
/// the one nearest the front of the array — the one that has sat at the
/// minimum count longest, unless a hit inside the run swapped it back. The
/// estimate an update returns, `min_count`, `total` and the multiset of
/// counts do not depend on that choice (a hit on a minimum counter and an
/// eviction both turn one `min` into `min + 1`); only [`Counter::error`] and
/// which minimum-count keys are monitored do.
#[derive(Debug, Clone)]
pub struct SpaceSaving<K: Eq + Hash + Clone> {
    capacity: usize,
    total: u64,
    /// Monitored counters in descending count order.
    slots: Vec<Counter<K>>,
    /// Key → position in `slots`. Fixed-hasher map: the keys are the
    /// stream's own (integer ids cost one SplitMix64 round, other types fall
    /// back to a byte-wise fold).
    index: FixedHashMap<K, usize>,
    /// First slot of the run of minimum-count counters (0 while empty): the
    /// next slot an eviction overwrites.
    min_run: usize,
}

impl<K: Eq + Hash + Clone> SpaceSaving<K> {
    /// Creates a summary monitoring at most `capacity` keys.
    ///
    /// To find all keys with relative frequency at least `φ`, use
    /// `capacity ≥ 1/φ` (see [`Self::with_threshold`]).
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "SpaceSaving capacity must be positive");
        Self {
            capacity,
            total: 0,
            slots: Vec::with_capacity(capacity),
            index: FixedHashMap::with_capacity_and_hasher(capacity, FixedState),
            min_run: 0,
        }
    }

    /// Creates a summary sized to detect every key with relative frequency at
    /// least `phi`, i.e. with `⌈1/phi⌉` counters.
    ///
    /// # Panics
    /// Panics if `phi` is not in `(0, 1]`.
    pub fn with_threshold(phi: f64) -> Self {
        assert!(phi > 0.0 && phi <= 1.0, "phi must be in (0, 1], got {phi}");
        Self::new((1.0 / phi).ceil() as usize)
    }

    /// Maximum number of keys this summary monitors.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of keys currently monitored.
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if no keys are monitored yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The smallest monitored count (0 if the summary is not yet full).
    ///
    /// This is the maximum error any *unmonitored* key's true count can have,
    /// and the count a newly inserted key inherits on eviction.
    pub fn min_count(&self) -> u64 {
        if self.slots.len() < self.capacity {
            0
        } else {
            self.slots[self.min_run].count
        }
    }

    /// Returns the monitored counter for `key`, if any.
    pub fn get(&self, key: &K) -> Option<Counter<K>> {
        self.index.get(key).map(|&pos| self.slots[pos].clone())
    }

    /// Iterates over all monitored counters in unspecified order.
    pub fn counters(&self) -> impl Iterator<Item = Counter<K>> + '_ {
        self.slots.iter().cloned()
    }

    /// Returns all monitored counters sorted by decreasing estimated count.
    pub fn sorted_counters(&self) -> Vec<Counter<K>> {
        let mut v = self.slots.clone();
        v.sort_by(by_count_then_error);
        v
    }

    /// Guaranteed (lower-bound) count for `key`: `count - error` if monitored,
    /// zero otherwise.
    pub fn guaranteed_count(&self, key: &K) -> u64 {
        self.index.get(key).map_or(0, |&pos| {
            let c = &self.slots[pos];
            c.count - c.error
        })
    }

    /// Moves the eviction cursor past a slot that just left the minimum run;
    /// when the run is used up, the new minimum's run is found again.
    fn advance_min_run(&mut self) {
        self.min_run += 1;
        if self.min_run == self.slots.len() {
            self.min_run = first_of_min_run(&self.slots);
        }
    }

    /// Observes one occurrence of `key` and returns the key's estimated
    /// count *before* and *after* the update, using a single index probe.
    ///
    /// The "before" estimate is what [`FrequencyEstimator::estimate`] would
    /// have returned just prior to this call (0 for an unmonitored key); the
    /// "after" estimate is what it returns now. Callers that need to detect
    /// threshold crossings (e.g. head-membership transitions) can do so from
    /// this single probe instead of bracketing `observe` with two extra
    /// `estimate` lookups.
    pub fn observe_counts(&mut self, key: &K) -> (u64, u64) {
        self.total += 1;
        if let Some(at) = self.index.get_mut(key) {
            let pos = *at;
            let count = self.slots[pos].count;
            // Increment at the first slot of the run of equal counts, so the
            // order holds. Head keys have distinct counts and never swap.
            let mut first = pos;
            if pos > 0 && self.slots[pos - 1].count == count {
                first = self.slots[..pos].partition_point(|c| c.count > count);
                *at = first;
                self.slots.swap(first, pos);
                let moved = self.index.get_mut(&self.slots[pos].key);
                *moved.expect("every slot's key is indexed") = pos;
            }
            self.slots[first].count += 1;
            if first == self.min_run {
                self.advance_min_run();
            }
            return (count, count + 1);
        }
        if self.slots.len() < self.capacity {
            // A first occurrence joins the minimum side of the array.
            if self.slots.last().map_or(true, |c| c.count > 1) {
                self.min_run = self.slots.len();
            }
            self.index.insert(key.clone(), self.slots.len());
            self.slots.push(Counter {
                key: key.clone(),
                count: 1,
                error: 0,
            });
            return (0, 1);
        }
        // Summary full: the new key takes over the slot at the cursor.
        let slot = &mut self.slots[self.min_run];
        let min = slot.count;
        self.index.remove(&slot.key);
        *slot = Counter {
            key: key.clone(),
            count: min + 1,
            error: min,
        };
        self.index.insert(key.clone(), self.min_run);
        self.advance_min_run();
        (0, min + 1)
    }
}

impl<K: Eq + Hash + Clone> FrequencyEstimator<K> for SpaceSaving<K> {
    fn observe(&mut self, key: &K) {
        let _ = self.observe_counts(key);
    }

    fn estimate(&self, key: &K) -> u64 {
        self.index.get(key).map_or(0, |&pos| self.slots[pos].count)
    }

    fn total(&self) -> u64 {
        self.total
    }

    fn heavy_hitters(&self, threshold: f64) -> Vec<(K, u64)> {
        let cut = ((threshold * self.total as f64).ceil() as u64).max(1);
        self.slots
            .iter()
            .take_while(|c| c.count >= cut)
            .map(|c| (c.key.clone(), c.count))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl<K: Eq + Hash + Clone> SpaceSaving<K> {
        /// The structural invariants every operation must leave in place.
        fn check(&self) {
            assert!(self.slots.len() <= self.capacity);
            assert_eq!(self.index.len(), self.slots.len());
            let descending = self.slots.windows(2).all(|w| w[0].count >= w[1].count);
            assert!(descending, "slots out of count order");
            for (pos, c) in self.slots.iter().enumerate() {
                assert!(self.index.get(&c.key) == Some(&pos), "index of slot {pos}");
            }
            assert_eq!(self.min_run, first_of_min_run(&self.slots), "cursor");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases_env(64))]

        /// After every update the array stays sorted, indexed and its cursor
        /// on the first minimum slot, and on every path (hit, insertion,
        /// eviction) `observe_counts` reports what bracketing the update with
        /// two `estimate` calls would.
        #[test]
        fn invariants_hold_after_every_operation(
            keys in proptest::collection::vec(
                prop_oneof![3 => 0u64..4, 2 => 4u64..30, 2 => 30u64..400],
                1..800,
            ),
            capacity in 1usize..40,
        ) {
            let mut ss = SpaceSaving::new(capacity);
            for &key in &keys {
                let before = ss.estimate(&key);
                let reported = ss.observe_counts(&key);
                prop_assert_eq!(reported, (before, ss.estimate(&key)));
                ss.check();
            }
        }
    }

    fn exact_counts(stream: &[u64]) -> std::collections::HashMap<u64, u64> {
        let mut m = std::collections::HashMap::new();
        for &k in stream {
            *m.entry(k).or_insert(0) += 1;
        }
        m
    }

    #[test]
    fn counts_exactly_when_under_capacity() {
        let mut ss = SpaceSaving::new(16);
        let stream = [1u64, 2, 1, 3, 1, 2, 4, 1];
        for k in &stream {
            ss.observe(k);
        }
        assert_eq!(ss.estimate(&1), 4);
        assert_eq!(ss.estimate(&2), 2);
        assert_eq!(ss.estimate(&3), 1);
        assert_eq!(ss.estimate(&4), 1);
        assert_eq!(ss.estimate(&99), 0);
        assert_eq!(ss.total(), 8);
        assert_eq!(ss.min_count(), 0, "not yet full");
        for c in ss.counters() {
            assert_eq!(c.error, 0, "no error while under capacity");
        }
    }

    #[test]
    fn eviction_inherits_min_count_as_error() {
        let mut ss = SpaceSaving::new(2);
        ss.observe(&"a");
        ss.observe(&"a");
        ss.observe(&"b");
        // Summary full with {a:2, b:1}; new key evicts b.
        ss.observe(&"c");
        let c = ss.get(&"c").expect("c must be monitored");
        assert_eq!(c.count, 2, "inherits min count 1, plus its own occurrence");
        assert_eq!(c.error, 1);
        assert!(ss.get(&"b").is_none(), "b was evicted");
        assert_eq!(ss.len(), 2);
    }

    #[test]
    fn estimate_is_always_upper_bound_and_error_bounded() {
        // Skewed synthetic stream, small capacity.
        let mut stream = Vec::new();
        let mut state = 88172645463325252u64;
        for i in 0..20_000u64 {
            // xorshift for variety plus guaranteed hot keys
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let k = if i % 3 == 0 { i % 5 } else { state % 500 };
            stream.push(k);
        }
        let truth = exact_counts(&stream);
        let capacity = 50;
        let mut ss = SpaceSaving::new(capacity);
        for k in &stream {
            ss.observe(k);
        }
        let m = stream.len() as u64;
        assert_eq!(ss.total(), m);
        for c in ss.counters() {
            let t = truth[&c.key];
            assert!(c.count >= t, "estimate {} < true {}", c.count, t);
            assert!(c.count - c.error <= t, "guaranteed count exceeds truth");
            assert!(c.error <= m / capacity as u64, "error above m/k bound");
        }
        // Every key with frequency > m/capacity must be monitored.
        for (k, &t) in &truth {
            if t > m / capacity as u64 {
                assert!(ss.get(k).is_some(), "frequent key {k} missing (count {t})");
            }
        }
    }

    #[test]
    fn heavy_hitters_sorted_and_thresholded() {
        // Total 100 observations. Threshold 0.2 → only "hot" and "warm".
        let mut ss: SpaceSaving<String> = SpaceSaving::new(10);
        for _ in 0..60 {
            ss.observe(&"hot".to_string());
        }
        for _ in 0..30 {
            ss.observe(&"warm".to_string());
        }
        for i in 0..10 {
            ss.observe(&format!("cold{i}"));
        }
        let hh = ss.heavy_hitters(0.2);
        assert_eq!(hh.len(), 2);
        assert_eq!(hh[0].0, "hot");
        assert_eq!(hh[1].0, "warm");
        assert!(hh[0].1 >= hh[1].1);
    }

    #[test]
    fn min_count_tracks_smallest_monitored_counter_when_full() {
        let mut ss = SpaceSaving::new(3);
        for (k, n) in [("a", 5), ("b", 3), ("c", 2)] {
            for _ in 0..n {
                ss.observe(&k);
            }
        }
        assert_eq!(ss.min_count(), 2);
        ss.observe(&"c");
        assert_eq!(ss.min_count(), 3);
    }

    #[test]
    fn with_threshold_sizes_capacity() {
        let ss: SpaceSaving<u64> = SpaceSaving::with_threshold(0.01);
        assert_eq!(ss.capacity(), 100);
        let ss: SpaceSaving<u64> = SpaceSaving::with_threshold(1.0);
        assert_eq!(ss.capacity(), 1);
    }

    #[test]
    fn sorted_counters_is_descending() {
        let mut ss = SpaceSaving::new(8);
        for i in 0..8u64 {
            for _ in 0..=i {
                ss.observe(&i);
            }
        }
        let sorted = ss.sorted_counters();
        for w in sorted.windows(2) {
            assert!(w[0].count >= w[1].count);
        }
        assert_eq!(sorted[0].key, 7);
    }

    #[test]
    fn guaranteed_count_is_zero_for_unmonitored() {
        let mut ss = SpaceSaving::new(2);
        ss.observe(&1u64);
        assert_eq!(ss.guaranteed_count(&2u64), 0);
        assert_eq!(ss.guaranteed_count(&1u64), 1);
    }

    #[test]
    fn single_counter_capacity_tracks_majority_candidate() {
        let mut ss = SpaceSaving::new(1);
        let stream = [1u64, 2, 1, 1, 3, 1, 1];
        for k in &stream {
            ss.observe(k);
        }
        // With one counter the monitored key after a majority-dominated
        // stream is the majority element.
        assert_eq!(ss.len(), 1);
        let c = ss.sorted_counters().remove(0);
        assert_eq!(c.key, 1);
        assert!(c.count >= 5);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _: SpaceSaving<u64> = SpaceSaving::new(0);
    }

    #[test]
    fn long_adversarial_cycle_does_not_break_structure() {
        // Round-robin over more keys than capacity continuously evicts;
        // the structure must stay consistent and total must be exact.
        let mut ss = SpaceSaving::new(4);
        for i in 0..10_000u64 {
            ss.observe(&(i % 9));
        }
        assert_eq!(ss.total(), 10_000);
        assert_eq!(ss.len(), 4);
        // All estimates bounded by total and at least total/9 (every key is
        // equally frequent, estimate must overcount).
        for c in ss.counters() {
            assert!(c.count <= 10_000);
            assert!(c.count >= 10_000 / 9, "estimate {} too small", c.count);
        }
    }
}
