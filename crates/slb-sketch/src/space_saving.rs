//! The SpaceSaving heavy-hitter algorithm with the Stream-Summary structure.
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
//! The Stream-Summary structure keeps counters grouped into buckets of equal
//! count, with buckets in increasing count order, so that both increments and
//! min-evictions run in O(1) amortized time. Buckets and counters live in
//! slab vectors and reference each other by index, keeping the structure
//! fully safe (no raw pointers) while avoiding per-update allocation.

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

const NIL: usize = usize::MAX;

/// Internal slab node holding one monitored key.
#[derive(Debug, Clone)]
struct Node<K> {
    key: K,
    count: u64,
    error: u64,
    /// Bucket this node currently belongs to.
    bucket: usize,
    /// Previous/next node within the same bucket (doubly linked).
    prev: usize,
    next: usize,
}

/// A bucket groups all counters that share the same count value.
#[derive(Debug, Clone)]
struct Bucket {
    count: u64,
    /// First node in this bucket's child list.
    head: usize,
    /// Neighbouring buckets in increasing-count order.
    prev: usize,
    next: usize,
}

/// SpaceSaving summary over keys of type `K`.
///
/// See the module documentation for the guarantees. The summary is
/// deterministic: the same input stream always produces the same monitored
/// set and estimates (ties on eviction are broken by bucket list order).
#[derive(Debug, Clone)]
pub struct SpaceSaving<K: Eq + Hash + Clone> {
    capacity: usize,
    total: u64,
    /// Key → slab node. Fixed-hasher map: the keys are the stream's own
    /// (integer ids cost one SplitMix64 round, other types fall back to a
    /// byte-wise fold); [`Self::counters`] promises no order.
    index: FixedHashMap<K, usize>,
    nodes: Vec<Node<K>>,
    buckets: Vec<Bucket>,
    /// Bucket with the smallest count (start of the bucket list), NIL if empty.
    min_bucket: usize,
    /// Free lists for slab reuse.
    free_nodes: Vec<usize>,
    free_buckets: Vec<usize>,
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
            index: FixedHashMap::with_capacity_and_hasher(capacity, FixedState),
            nodes: Vec::with_capacity(capacity),
            buckets: Vec::with_capacity(capacity.min(64)),
            min_bucket: NIL,
            free_nodes: Vec::new(),
            free_buckets: Vec::new(),
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

    /// Reconstructs a summary from an explicit counter list, e.g. the output
    /// of [`crate::merge::merge_space_saving`] or a by-key partition of
    /// another summary's counters. Keys must be distinct; counters with a
    /// zero count are skipped (a live summary never monitors a key it has
    /// not seen). If more than `capacity` counters are supplied, only the
    /// largest `capacity` estimates are kept (ties broken by smaller error),
    /// exactly like the merge truncation.
    ///
    /// `total` is the claimed length of the stream the counters summarize;
    /// it is carried into [`FrequencyEstimator::total`] unchanged so that
    /// totals stay additive across merge/shard round-trips.
    ///
    /// # Panics
    /// Panics if `capacity == 0` or a key appears twice.
    pub fn from_counters<I>(capacity: usize, total: u64, counters: I) -> Self
    where
        I: IntoIterator<Item = Counter<K>>,
    {
        let mut list: Vec<Counter<K>> = counters.into_iter().filter(|c| c.count > 0).collect();
        list.sort_by(|a, b| b.count.cmp(&a.count).then(a.error.cmp(&b.error)));
        list.truncate(capacity);
        // Insert in ascending count order so each counter's bucket is at (or
        // just past) the current tail of the bucket list: O(1) per counter.
        list.reverse();
        let mut ss = Self::new(capacity);
        ss.total = total;
        let mut tail = NIL;
        for c in list {
            let node = ss.alloc_node(c.key.clone(), c.count, c.error);
            let bucket = if tail != NIL && ss.buckets[tail].count == c.count {
                tail
            } else {
                ss.bucket_with_count_after(c.count, tail)
            };
            ss.attach_node(node, bucket);
            let previous = ss.index.insert(c.key, node);
            assert!(previous.is_none(), "duplicate key in from_counters");
            tail = bucket;
        }
        ss
    }

    /// Maximum number of keys this summary monitors.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of keys currently monitored.
    #[inline]
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True if no keys are monitored yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The smallest monitored count (0 if the summary is not yet full).
    ///
    /// This is the maximum error any *unmonitored* key's true count can have,
    /// and the count a newly inserted key inherits on eviction.
    pub fn min_count(&self) -> u64 {
        if self.index.len() < self.capacity || self.min_bucket == NIL {
            0
        } else {
            self.buckets[self.min_bucket].count
        }
    }

    /// Returns the monitored counter for `key`, if any.
    pub fn get(&self, key: &K) -> Option<Counter<K>> {
        self.index.get(key).map(|&i| {
            let n = &self.nodes[i];
            Counter {
                key: n.key.clone(),
                count: n.count,
                error: n.error,
            }
        })
    }

    /// Iterates over all monitored counters in unspecified order.
    pub fn counters(&self) -> impl Iterator<Item = Counter<K>> + '_ {
        self.index.values().map(move |&i| {
            let n = &self.nodes[i];
            Counter {
                key: n.key.clone(),
                count: n.count,
                error: n.error,
            }
        })
    }

    /// Returns all monitored counters sorted by decreasing estimated count.
    pub fn sorted_counters(&self) -> Vec<Counter<K>> {
        let mut v: Vec<Counter<K>> = self.counters().collect();
        v.sort_by(|a, b| b.count.cmp(&a.count).then(a.error.cmp(&b.error)));
        v
    }

    /// Guaranteed (lower-bound) count for `key`: `count - error` if monitored,
    /// zero otherwise.
    pub fn guaranteed_count(&self, key: &K) -> u64 {
        self.index
            .get(key)
            .map(|&i| self.nodes[i].count - self.nodes[i].error)
            .unwrap_or(0)
    }

    // ----- internal slab / linked-list plumbing -------------------------------

    fn alloc_bucket(&mut self, count: u64) -> usize {
        let b = Bucket {
            count,
            head: NIL,
            prev: NIL,
            next: NIL,
        };
        if let Some(i) = self.free_buckets.pop() {
            self.buckets[i] = b;
            i
        } else {
            self.buckets.push(b);
            self.buckets.len() - 1
        }
    }

    fn alloc_node(&mut self, key: K, count: u64, error: u64) -> usize {
        let n = Node {
            key,
            count,
            error,
            bucket: NIL,
            prev: NIL,
            next: NIL,
        };
        if let Some(i) = self.free_nodes.pop() {
            self.nodes[i] = n;
            i
        } else {
            self.nodes.push(n);
            self.nodes.len() - 1
        }
    }

    /// Unlinks `node` from its bucket's child list; frees the bucket if it
    /// becomes empty. Returns the bucket the node was in.
    fn detach_node(&mut self, node: usize) -> usize {
        let (bucket, prev, next) = {
            let n = &self.nodes[node];
            (n.bucket, n.prev, n.next)
        };
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.buckets[bucket].head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        }
        self.nodes[node].prev = NIL;
        self.nodes[node].next = NIL;
        self.nodes[node].bucket = NIL;
        if self.buckets[bucket].head == NIL {
            // Bucket now empty: splice it out of the bucket list.
            let (bprev, bnext) = (self.buckets[bucket].prev, self.buckets[bucket].next);
            if bprev != NIL {
                self.buckets[bprev].next = bnext;
            } else {
                self.min_bucket = bnext;
            }
            if bnext != NIL {
                self.buckets[bnext].prev = bprev;
            }
            self.free_buckets.push(bucket);
        }
        bucket
    }

    /// Pushes `node` onto the child list of `bucket`.
    fn attach_node(&mut self, node: usize, bucket: usize) {
        let old_head = self.buckets[bucket].head;
        self.nodes[node].bucket = bucket;
        self.nodes[node].prev = NIL;
        self.nodes[node].next = old_head;
        if old_head != NIL {
            self.nodes[old_head].prev = node;
        }
        self.buckets[bucket].head = node;
    }

    /// Finds or creates the bucket with exactly `count`, positioned right
    /// after `after` (which may be NIL, meaning "insert at the front").
    fn bucket_with_count_after(&mut self, count: u64, after: usize) -> usize {
        let next = if after == NIL {
            self.min_bucket
        } else {
            self.buckets[after].next
        };
        if next != NIL && self.buckets[next].count == count {
            return next;
        }
        let b = self.alloc_bucket(count);
        self.buckets[b].prev = after;
        self.buckets[b].next = next;
        if after == NIL {
            self.min_bucket = b;
        } else {
            self.buckets[after].next = b;
        }
        if next != NIL {
            self.buckets[next].prev = b;
        }
        b
    }

    /// Increments the counter stored at `node` by one, moving it to the
    /// appropriate bucket.
    fn increment_node(&mut self, node: usize) {
        let old_bucket = self.nodes[node].bucket;
        let new_count = self.nodes[node].count + 1;
        // Does the next-higher bucket already have the new count? We must
        // look *before* detaching, because detaching may free the old bucket.
        let next_bucket = self.buckets[old_bucket].next;
        let old_prev = self.buckets[old_bucket].prev;
        let old_count = self.buckets[old_bucket].count;
        debug_assert_eq!(old_count + 1, new_count);

        self.detach_node(node);
        self.nodes[node].count = new_count;

        // After detaching, the old bucket may have been freed. Work out the
        // anchor bucket that precedes the position for `new_count`.
        let anchor = if self.buckets_contains(old_bucket) {
            old_bucket
        } else {
            old_prev
        };
        let target = if next_bucket != NIL
            && self.buckets_contains(next_bucket)
            && self.buckets[next_bucket].count == new_count
        {
            next_bucket
        } else {
            self.bucket_with_count_after(new_count, anchor)
        };
        self.attach_node(node, target);
    }

    /// True if `bucket` is currently live (not on the free list).
    fn buckets_contains(&self, bucket: usize) -> bool {
        bucket != NIL && !self.free_buckets.contains(&bucket)
    }

    /// Evicts one node from the minimum bucket and returns (node index,
    /// evicted count). The node is detached and its key removed from the
    /// index, but the slab entry is reused by the caller.
    fn evict_min(&mut self) -> (usize, u64) {
        debug_assert!(self.min_bucket != NIL, "evict_min on empty summary");
        let node = self.buckets[self.min_bucket].head;
        let count = self.buckets[self.min_bucket].count;
        let key = self.nodes[node].key.clone();
        self.detach_node(node);
        self.index.remove(&key);
        (node, count)
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
        if let Some(&node) = self.index.get(key) {
            let before = self.nodes[node].count;
            self.increment_node(node);
            return (before, before + 1);
        }
        if self.index.len() < self.capacity {
            let node = self.alloc_node(key.clone(), 1, 0);
            let bucket = self.bucket_with_count_after(1, NIL);
            self.attach_node(node, bucket);
            self.index.insert(key.clone(), node);
            return (0, 1);
        }
        // Summary full: replace the minimum counter.
        let (node, min_count) = self.evict_min();
        self.nodes[node].key = key.clone();
        self.nodes[node].count = min_count;
        self.nodes[node].error = min_count;
        let bucket = self.bucket_with_count_after(min_count, NIL);
        debug_assert_eq!(self.buckets[bucket].count, min_count);
        self.attach_node(node, bucket);
        self.index.insert(key.clone(), node);
        self.increment_node(node);
        (0, min_count + 1)
    }
}

impl<K: Eq + Hash + Clone> FrequencyEstimator<K> for SpaceSaving<K> {
    fn observe(&mut self, key: &K) {
        let _ = self.observe_counts(key);
    }

    fn estimate(&self, key: &K) -> u64 {
        self.index
            .get(key)
            .map(|&i| self.nodes[i].count)
            .unwrap_or(0)
    }

    fn total(&self) -> u64 {
        self.total
    }

    fn heavy_hitters(&self, threshold: f64) -> Vec<(K, u64)> {
        let cut = (threshold * self.total as f64).ceil() as u64;
        let mut hh: Vec<(K, u64)> = self
            .counters()
            .filter(|c| c.count >= cut.max(1))
            .map(|c| (c.key, c.count))
            .collect();
        hh.sort_by_key(|&(_, count)| std::cmp::Reverse(count));
        hh
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn observe_counts_reports_before_and_after_estimates() {
        // Across every code path (monitored increment, insertion under
        // capacity, eviction), the pair must equal what bracketing the
        // update with two `estimate` calls would have reported.
        let mut ss = SpaceSaving::new(3);
        let mut reference = SpaceSaving::new(3);
        let stream = [1u64, 2, 1, 3, 4, 4, 5, 1, 6, 2, 7, 7, 7, 1];
        for k in &stream {
            let before = reference.estimate(k);
            reference.observe(k);
            let after = reference.estimate(k);
            assert_eq!(ss.observe_counts(k), (before, after), "key {k}");
        }
        assert_eq!(ss.total(), reference.total());
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
