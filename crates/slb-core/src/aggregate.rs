//! Windowed aggregation state: the operator downstream of key splitting.
//!
//! Key splitting (PKG, D-Choices, W-Choices) is only sound because the
//! paper's topology has a *second* stage: workers hold partial per-key state
//! for the keys routed to them, and a downstream aggregation operator merges
//! those partials into the final per-key result at the end of every window
//! (Section III of Nasir et al., ICDE 2016 — the classic two-phase
//! aggregation of a Storm word-count). This module defines the algebra that
//! the engine's aggregator stage needs from such state:
//!
//! * [`WindowAggregate`] — a factory of mergeable per-window partials with
//!   **associative and commutative** merge semantics and an [`empty`]
//!   identity, so that partials can be combined in whatever order the
//!   workers' windows happen to close.
//! * [`CountAggregate`] — exact per-key counts (the paper's word-count
//!   aggregator); merges are exact, which is what makes the differential
//!   test's bit-identical invariant possible.
//! * [`SumAggregate`] — a scalar per-window sum of tuple weights (the
//!   degenerate aggregate whose partial is one integer).
//! * [`TopKAggregate`] — per-window heavy hitters via SpaceSaving summaries,
//!   merged with the mergeable-summary path in `slb-sketch`
//!   ([`slb_sketch::merge::merge_space_saving`]).
//!
//! Partials can additionally be **sharded by key hash** ([`shard`]) so that
//! more than one aggregator thread can merge disjoint key slices of the same
//! window in parallel; merging all shards back together reproduces the
//! unsharded aggregate.
//!
//! [`empty`]: WindowAggregate::empty
//! [`shard`]: WindowAggregate::shard

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;

use slb_hash::{bucket_of, KeyHash};
use slb_sketch::merge::merge_space_saving;
use slb_sketch::space_saving::Counter;
use slb_sketch::{FrequencyEstimator, SpaceSaving};

/// Seed of the hash that assigns keys to aggregator shards. Distinct from
/// the routing digest seed so that shard assignment is independent of the
/// grouping scheme's worker choices.
pub const SHARD_SEED: u64 = 0x5ba9_9e6a_7e5e_ed01;

/// The aggregator shard that owns `key` when the key space is split across
/// `shards` disjoint slices.
///
/// # Panics
/// Panics (in debug builds) if `shards == 0`.
#[inline]
pub fn shard_of<K: KeyHash + ?Sized>(key: &K, shards: usize) -> usize {
    bucket_of(key.key_hash(SHARD_SEED), shards)
}

/// A windowed aggregation: a factory of per-window partial states that
/// workers fill tuple by tuple and the aggregator stage merges into the
/// final per-window result.
///
/// # Laws
///
/// Implementations must make `merge` associative and commutative with
/// [`empty`](Self::empty) as the identity, over partials built by any
/// sequence of [`observe`](Self::observe) calls:
///
/// * `merge(a, merge(b, c)) == merge(merge(a, b), c)` (associativity),
/// * `merge(a, b) == merge(b, a)` (commutativity),
/// * `merge(a, empty()) == a` (identity),
///
/// where `==` means "same aggregate content". For the exact aggregates
/// ([`CountAggregate`], [`SumAggregate`]) this is literal equality; for
/// [`TopKAggregate`] it is exact while the summaries stay below capacity and
/// weakens to the usual SpaceSaving upper-bound guarantees beyond it. The
/// `aggregate_props` property suite in this crate pins these laws down over
/// random partial splits.
///
/// Additionally, merging all partials returned by [`shard`](Self::shard)
/// must reproduce the input partial's aggregate content, and sharding must
/// depend only on the key (via [`shard_of`]) — never on observation order —
/// so that a sharded aggregator stage stays deterministic.
pub trait WindowAggregate<K>: Clone + Send + 'static {
    /// Mergeable per-window partial state.
    type Partial: Send + 'static;

    /// Short human-readable name ("count", "sum", "top-k").
    fn name(&self) -> &'static str;

    /// The identity partial: the state of a window that saw no tuples.
    fn empty(&self) -> Self::Partial;

    /// Folds one tuple with the given `weight` (the engine uses weight 1
    /// per tuple; weighted streams pass their multiplicity) into `partial`.
    ///
    /// Returns `false` only if `partial` already held `key` before this
    /// call, i.e. an earlier `observe` on this same partial was given it. A
    /// caller that tracks the keys it has ever seen (the worker's state-key
    /// set) records the key only on `true`: the worker queues it and files
    /// the queue into its whole-run set once per window close, so its
    /// per-tuple loop is this one call. An aggregate that cannot tell — no
    /// per-key structure, or one that forgets keys — returns `true`.
    fn observe(&self, partial: &mut Self::Partial, key: &K, weight: u64) -> bool;

    /// An empty partial with room for as many keys as `like` holds: how the
    /// worker opens a window sized by the one it just closed, instead of
    /// growing it from [`empty`](Self::empty) tuple by tuple. Same content
    /// as `empty()`, so it is a `merge` identity too. The default is
    /// `empty()`.
    fn with_room(&self, _like: &Self::Partial) -> Self::Partial {
        self.empty()
    }

    /// Merges `from` into `into`.
    fn merge(&self, into: &mut Self::Partial, from: Self::Partial);

    /// Splits `partial` into exactly `shards` partials with disjoint key
    /// ownership (slice `s` holds the keys with `shard_of(key, shards) ==
    /// s`), such that merging all slices reproduces `partial`. Aggregates
    /// without per-key structure put everything into shard 0.
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    fn shard(&self, partial: Self::Partial, shards: usize) -> Vec<Self::Partial>;
}

/// Exact per-key occurrence counts — the paper's streaming word count.
///
/// The partial is a plain hash map from key to count, so `merge` is exact
/// integer addition per key: the merged window is *bit-identical* to what a
/// single worker counting the whole window would produce, for any split of
/// the window across workers. This is the aggregate the differential
/// correctness suite runs, because it turns the key-splitting soundness
/// argument into an exact equality check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountAggregate;

impl<K> WindowAggregate<K> for CountAggregate
where
    K: KeyHash + Eq + Hash + Clone + Send + 'static,
{
    type Partial = HashMap<K, u64>;

    fn name(&self) -> &'static str {
        "count"
    }

    fn empty(&self) -> Self::Partial {
        HashMap::new()
    }

    /// Exact: `true` iff `key` is new to this partial.
    #[inline]
    fn observe(&self, partial: &mut Self::Partial, key: &K, weight: u64) -> bool {
        match partial.entry(key.clone()) {
            Entry::Occupied(mut held) => {
                *held.get_mut() += weight;
                false
            }
            Entry::Vacant(new) => {
                new.insert(weight);
                true
            }
        }
    }

    fn with_room(&self, like: &Self::Partial) -> Self::Partial {
        HashMap::with_capacity(like.len())
    }

    fn merge(&self, into: &mut Self::Partial, mut from: Self::Partial) {
        // The roomier map absorbs the other (the sum is symmetric): an
        // aggregator's first slice of a window is moved, not re-inserted,
        // and a presized map is never thrown away for an empty one.
        if into.capacity() < from.capacity() {
            std::mem::swap(into, &mut from);
        }
        // Saturating: `from` may be a peer's word (two shards claiming one
        // window), and a corrupt count must read absurd, not overflow.
        for (key, count) in from {
            let sum = into.entry(key).or_insert(0);
            *sum = sum.saturating_add(count);
        }
    }

    fn shard(&self, mut partial: Self::Partial, shards: usize) -> Vec<Self::Partial> {
        assert!(shards > 0, "need at least one shard");
        if shards == 1 {
            return vec![partial];
        }
        // Slice 0 is the input map itself, minus the keys other shards own;
        // the others are sized once for an even split plus a quarter of
        // slack: growing from empty rehashes every slice some eight times
        // per window close.
        let per_shard = partial.len() / shards + partial.len() / (4 * shards) + 1;
        let mut rest: Vec<Self::Partial> = (1..shards)
            .map(|_| HashMap::with_capacity(per_shard))
            .collect();
        partial.retain(|key, count| match shard_of(key, shards) {
            0 => true,
            s => {
                rest[s - 1].insert(key.clone(), *count);
                false
            }
        });
        std::iter::once(partial).chain(rest).collect()
    }
}

/// Scalar sum of tuple weights per window (with weight 1 everywhere this is
/// the window's tuple count). The partial is a single integer, so it also
/// exercises the degenerate "no per-key structure" corner of the trait: all
/// sharded mass lands on shard 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SumAggregate;

impl<K> WindowAggregate<K> for SumAggregate
where
    K: Send + 'static,
{
    type Partial = u64;

    fn name(&self) -> &'static str {
        "sum"
    }

    fn empty(&self) -> Self::Partial {
        0
    }

    /// Always `true`: a scalar holds no keys.
    #[inline]
    fn observe(&self, partial: &mut Self::Partial, _key: &K, weight: u64) -> bool {
        *partial += weight;
        true
    }

    fn merge(&self, into: &mut Self::Partial, from: Self::Partial) {
        *into = into.saturating_add(from);
    }

    fn shard(&self, partial: Self::Partial, shards: usize) -> Vec<Self::Partial> {
        assert!(shards > 0, "need at least one shard");
        let mut out = vec![0; shards];
        out[0] = partial;
        out
    }
}

/// Per-window heavy hitters: each partial is a SpaceSaving summary of the
/// window's sub-stream, merged with the Berinde counter-summary merge into
/// a live summary ([`merge_space_saving`]).
///
/// While every partial stays below `capacity` distinct keys the summaries
/// are exact and the merge laws hold with equality; beyond capacity the
/// merged estimates keep the SpaceSaving guarantees (upper bounds, additive
/// totals, additive error bounds) but equality weakens to them — see the
/// module docs of `slb_sketch::merge`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopKAggregate {
    /// Number of counters each summary keeps (`≥ 1/φ` to find every key
    /// with relative in-window frequency φ).
    pub capacity: usize,
}

impl TopKAggregate {
    /// A top-k aggregate with summaries of `capacity` counters.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TopKAggregate capacity must be positive");
        Self { capacity }
    }
}

impl<K> WindowAggregate<K> for TopKAggregate
where
    K: KeyHash + Eq + Hash + Clone + Send + 'static,
{
    type Partial = SpaceSaving<K>;

    fn name(&self) -> &'static str {
        "top-k"
    }

    fn empty(&self) -> Self::Partial {
        SpaceSaving::new(self.capacity)
    }

    /// Always `true`: a full summary evicts keys it was given, so it cannot
    /// answer for all of them.
    #[inline]
    fn observe(&self, partial: &mut Self::Partial, key: &K, weight: u64) -> bool {
        partial.observe_many(key, weight);
        true
    }

    fn merge(&self, into: &mut Self::Partial, from: Self::Partial) {
        *into = merge_space_saving(&[into, &from], self.capacity);
    }

    fn shard(&self, partial: Self::Partial, shards: usize) -> Vec<Self::Partial> {
        assert!(shards > 0, "need at least one shard");
        if shards == 1 {
            return vec![partial];
        }
        let mut slices: Vec<Vec<Counter<K>>> = (0..shards).map(|_| Vec::new()).collect();
        for c in partial.counters() {
            slices[shard_of(&c.key, shards)].push(c);
        }
        // Apportion the stream length by monitored mass; for a summary built
        // purely by observation (every worker partial) the counter counts sum
        // exactly to the total, so the split is exact and shard totals add
        // back up to the original. Any unmonitored remainder goes to shard 0.
        let sums: Vec<u64> = slices
            .iter()
            .map(|s| s.iter().map(|c| c.count).sum())
            .collect();
        let monitored: u64 = sums.iter().sum();
        let remainder = partial.total().saturating_sub(monitored);
        slices
            .into_iter()
            .zip(sums)
            .enumerate()
            .map(|(s, (counters, sum))| {
                let total = if s == 0 { sum + remainder } else { sum };
                SpaceSaving::from_counters(self.capacity, total, counters)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count_window(keys: &[u64]) -> HashMap<u64, u64> {
        let agg = CountAggregate;
        let mut p = WindowAggregate::<u64>::empty(&agg);
        for k in keys {
            agg.observe(&mut p, k, 1);
        }
        p
    }

    #[test]
    fn count_aggregate_counts_and_merges_exactly() {
        let agg = CountAggregate;
        let mut a = count_window(&[1, 2, 1, 3]);
        let b = count_window(&[1, 3, 3]);
        agg.merge(&mut a, b);
        assert_eq!(a[&1], 3);
        assert_eq!(a[&2], 1);
        assert_eq!(a[&3], 3);
    }

    #[test]
    fn count_shards_partition_keys_and_merge_back() {
        let agg = CountAggregate;
        let keys: Vec<u64> = (0..500).map(|i| i % 97).collect();
        let whole = count_window(&keys);
        for shards in [1usize, 2, 3, 7] {
            let slices = agg.shard(whole.clone(), shards);
            assert_eq!(slices.len(), shards);
            for (s, slice) in slices.iter().enumerate() {
                for key in slice.keys() {
                    assert_eq!(shard_of(key, shards), s, "key {key} in wrong shard");
                }
            }
            let mut back = WindowAggregate::<u64>::empty(&agg);
            for slice in slices {
                agg.merge(&mut back, slice);
            }
            assert_eq!(back, whole, "shard+merge must reproduce the partial");
        }
    }

    #[test]
    fn sum_aggregate_is_weight_arithmetic() {
        let agg = SumAggregate;
        let mut p = WindowAggregate::<u64>::empty(&agg);
        agg.observe(&mut p, &7u64, 1);
        agg.observe(&mut p, &9u64, 4);
        let mut q = WindowAggregate::<u64>::empty(&agg);
        agg.observe(&mut q, &7u64, 2);
        WindowAggregate::<u64>::merge(&agg, &mut p, q);
        assert_eq!(p, 7);
        let slices = WindowAggregate::<u64>::shard(&agg, p, 3);
        assert_eq!(slices, vec![7, 0, 0]);
    }

    #[test]
    fn top_k_merge_is_exact_below_capacity() {
        let agg = TopKAggregate::new(64);
        let mut a = agg.empty();
        let mut b = agg.empty();
        for k in [1u64, 1, 2, 5] {
            agg.observe(&mut a, &k, 1);
        }
        for k in [1u64, 5, 5] {
            agg.observe(&mut b, &k, 1);
        }
        agg.merge(&mut a, b);
        assert_eq!(a.total(), 7);
        assert_eq!(a.estimate(&1), 3);
        assert_eq!(a.estimate(&5), 3);
        assert_eq!(a.estimate(&2), 1);
    }

    #[test]
    fn top_k_shards_preserve_totals_and_estimates() {
        let agg = TopKAggregate::new(128);
        let mut p = agg.empty();
        for i in 0..1000u64 {
            agg.observe(&mut p, &(i % 50), 1);
        }
        let total = p.total();
        let slices = WindowAggregate::<u64>::shard(&agg, p.clone(), 4);
        assert_eq!(slices.iter().map(|s| s.total()).sum::<u64>(), total);
        let mut back = agg.empty();
        for s in slices {
            agg.merge(&mut back, s);
        }
        assert_eq!(back.total(), total);
        for key in 0..50u64 {
            assert_eq!(back.estimate(&key), p.estimate(&key), "key {key}");
        }
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for shards in [1usize, 2, 5, 16] {
            for key in 0..200u64 {
                let s = shard_of(&key, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(&key, shards), "must be deterministic");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let agg = CountAggregate;
        let _ = WindowAggregate::<u64>::shard(&agg, HashMap::new(), 0);
    }
}
