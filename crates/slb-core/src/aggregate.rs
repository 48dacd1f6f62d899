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
//!   aggregator), the one aggregate the engine runs; merges are exact, which
//!   is what makes the differential test's bit-identical invariant possible.
//!
//! Partials can additionally be **sharded by key hash** ([`shard`]): merging
//! all shards back together reproduces the unsharded aggregate. The engine
//! no longer shards by key — each window has one owning aggregator,
//! `window mod A`, to which every worker ships its partial whole — so the
//! law stays for the `aggregate_props` suite and for the benchmark's traced
//! replay, which still models a close as shard → merge.
//!
//! [`empty`]: WindowAggregate::empty
//! [`shard`]: WindowAggregate::shard

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;

use slb_hash::{bucket_of, KeyHash};

/// Seed of the hash that assigns keys to shards. Distinct from the routing
/// digest seed so that shard assignment is independent of the grouping
/// scheme's worker choices. No engine or net code uses it: the engine
/// splits the aggregator stage by window, not by key.
pub const SHARD_SEED: u64 = 0x5ba9_9e6a_7e5e_ed01;

/// The shard that owns `key` when the key space is split across `shards`
/// disjoint slices — the law [`WindowAggregate::shard`] keeps, not how the
/// engine places work (an aggregator owns windows, not keys).
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
/// where `==` means "same aggregate content" — for [`CountAggregate`],
/// literal equality of the per-key counts. The `aggregate_props` property
/// suite in this crate pins these laws down over random partial splits.
///
/// Additionally, merging all partials returned by [`shard`](Self::shard)
/// must reproduce the input partial's aggregate content, and sharding must
/// depend only on the key (via [`shard_of`]) — never on observation order —
/// so that a key-sharded merge stays deterministic.
pub trait WindowAggregate<K>: Clone + Send + 'static {
    /// Mergeable per-window partial state.
    type Partial: Send + 'static;

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
    /// per-tuple loop is this one call.
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
    /// s`), such that merging all slices reproduces `partial`. The engine
    /// does not call it (a worker ships a window's partial whole to the
    /// window's one aggregator); `aggregate_props` checks the law, and the
    /// benchmark's traced replay times it as `core.aggregate.shard`.
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
        // aggregator's first partial of a window is moved, not re-inserted,
        // and a presized map is never thrown away for an empty one.
        if into.capacity() < from.capacity() {
            std::mem::swap(into, &mut from);
        }
        // Saturating: `from` may be a peer's word, and a corrupt count must
        // read absurd, not overflow.
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
