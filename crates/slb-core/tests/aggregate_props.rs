//! Property tests for the [`WindowAggregate`] merge laws.
//!
//! The aggregator stage merges worker partials in whatever order windows
//! happen to close across threads and shards, so the engine's correctness
//! rests on the merge being associative and commutative with `empty()` as
//! identity, and on sharding being a lossless partition. These properties
//! are checked over random streams and random split points:
//!
//! * [`CountAggregate`] and [`SumAggregate`] are exact algebras — the laws
//!   hold with literal equality, always.
//! * [`TopKAggregate`] (SpaceSaving partials merged via
//!   `slb_sketch::merge::merge_space_saving`) is exact — and therefore
//!   obeys the laws with equality — while the summaries stay below
//!   capacity. Past capacity the equalities relax to the SpaceSaving
//!   guarantees (additive totals, upper-bound estimates), which are checked
//!   separately in the truncating-regime property.
//!
//! The worker opens a window with [`WindowAggregate::with_room`] and
//! [`CountAggregate`] merges into whichever map is roomier and shards by
//! keeping slice 0 in the input map, so the laws also run over presized
//! partials: `with_room` is an identity on either side, merge commutes
//! across sizes, and every slice holds exactly the keys `shard_of` gives it.
//!
//! One more contract rides here because the worker's per-tuple loop leans on
//! it: [`WindowAggregate::observe`] may return `false` only for a key this
//! partial was already given, and [`CountAggregate`] returns `false` for
//! every such key.
//!
//! Locally each property runs a modest number of cases; ci.sh raises the
//! count via `PROPTEST_CASES` (see `ProptestConfig::with_cases_env`).

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;

use slb_core::{shard_of, CountAggregate, SumAggregate, TopKAggregate, WindowAggregate};
use slb_sketch::{FrequencyEstimator, SpaceSaving};

/// Weighted tuple stream: keys from a small universe (so the top-k exact
/// regime is reachable with a modest capacity), weights derived from the
/// key so the shim's lack of tuple strategies costs nothing.
fn stream_strategy() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(
        prop_oneof![
            3 => 0u64..4,   // hot keys
            2 => 4u64..20,  // warm keys
            1 => 20u64..64, // tail
        ],
        0..400,
    )
}

fn weight_of(key: u64) -> u64 {
    key % 3 + 1
}

/// Builds one partial from a stream segment.
fn partial_from<A: WindowAggregate<u64>>(agg: &A, segment: &[u64]) -> A::Partial {
    observe_into(agg, agg.empty(), segment)
}

/// Folds a stream segment into `partial`.
fn observe_into<A: WindowAggregate<u64>>(
    agg: &A,
    mut partial: A::Partial,
    segment: &[u64],
) -> A::Partial {
    for &key in segment {
        agg.observe(&mut partial, &key, weight_of(key));
    }
    partial
}

/// Splits `stream` at two independent cut points into three segments.
fn split3(stream: &[u64], cut_a: usize, cut_b: usize) -> (&[u64], &[u64], &[u64]) {
    let (mut lo, mut hi) = (cut_a % (stream.len() + 1), cut_b % (stream.len() + 1));
    if lo > hi {
        std::mem::swap(&mut lo, &mut hi);
    }
    (&stream[..lo], &stream[lo..hi], &stream[hi..])
}

/// Checks the three merge laws plus the shard law for one aggregate, using
/// `canon` to project partials to a comparable fingerprint.
fn check_laws<A, C>(
    agg: &A,
    stream: &[u64],
    cut_a: usize,
    cut_b: usize,
    shards: usize,
    canon: impl Fn(&A::Partial) -> C,
) -> Result<(), proptest::test_runner::TestCaseError>
where
    A: WindowAggregate<u64>,
    C: PartialEq + std::fmt::Debug,
{
    let (sa, sb, sc) = split3(stream, cut_a, cut_b);
    let build = |segment: &[u64]| partial_from(agg, segment);

    // Associativity: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
    let mut left = build(sa);
    agg.merge(&mut left, build(sb));
    agg.merge(&mut left, build(sc));
    let mut right_tail = build(sb);
    agg.merge(&mut right_tail, build(sc));
    let mut right = build(sa);
    agg.merge(&mut right, right_tail);
    prop_assert_eq!(canon(&left), canon(&right), "associativity violated");

    // Commutativity: a ⊕ b == b ⊕ a.
    let mut ab = build(sa);
    agg.merge(&mut ab, build(sb));
    let mut ba = build(sb);
    agg.merge(&mut ba, build(sa));
    prop_assert_eq!(canon(&ab), canon(&ba), "commutativity violated");

    // Identity: a ⊕ empty == a == empty ⊕ a.
    let mut with_empty = build(sa);
    agg.merge(&mut with_empty, agg.empty());
    prop_assert_eq!(
        canon(&with_empty),
        canon(&build(sa)),
        "right identity violated"
    );
    let mut empty_with = agg.empty();
    agg.merge(&mut empty_with, build(sa));
    prop_assert_eq!(
        canon(&empty_with),
        canon(&build(sa)),
        "left identity violated"
    );

    // A presized empty partial is an identity too, on either side — for
    // `CountAggregate` the roomier map absorbs the other, so one side
    // swaps and the other does not.
    let whole = build(stream);
    let mut with_room = build(sa);
    agg.merge(&mut with_room, agg.with_room(&whole));
    prop_assert_eq!(
        canon(&with_room),
        canon(&build(sa)),
        "with_room is not a right identity"
    );
    let mut room_with = agg.with_room(&whole);
    agg.merge(&mut room_with, build(sa));
    prop_assert_eq!(
        canon(&room_with),
        canon(&build(sa)),
        "with_room is not a left identity"
    );

    // Commutativity when the two sides differ in size: `a` filled into a
    // partial with room for the whole stream, `b` grown from empty.
    let roomy_a = || observe_into(agg, agg.with_room(&whole), sa);
    let mut roomy_ab = roomy_a();
    agg.merge(&mut roomy_ab, build(sb));
    let mut b_roomy = build(sb);
    agg.merge(&mut b_roomy, roomy_a());
    prop_assert_eq!(
        canon(&roomy_ab),
        canon(&b_roomy),
        "commutativity violated across sizes"
    );
    prop_assert_eq!(canon(&roomy_ab), canon(&ab), "presizing changed a merge");

    // Shard partition: merging all shards reproduces the whole.
    let mut reassembled = agg.empty();
    for slice in agg.shard(build(stream), shards) {
        agg.merge(&mut reassembled, slice);
    }
    prop_assert_eq!(
        canon(&reassembled),
        canon(&whole),
        "shard+merge lost content"
    );
    Ok(())
}

/// Checks `observe`'s return value over one partial: `false` implies the key
/// was observed in this partial before, and for an `exact` aggregate `true`
/// implies it was not.
fn check_observe_return<A: WindowAggregate<u64>>(
    agg: &A,
    stream: &[u64],
    exact: bool,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let mut partial = agg.empty();
    let mut given = HashSet::new();
    for &key in stream {
        let new_to_partial = agg.observe(&mut partial, &key, weight_of(key));
        let first = given.insert(key);
        prop_assert!(
            new_to_partial || !first,
            "{}: observe returned false for key {} at its first arrival",
            agg.name(),
            key
        );
        if exact {
            prop_assert_eq!(new_to_partial, first, "{}: key {}", agg.name(), key);
        }
    }
    Ok(())
}

/// Canonical fingerprint of a SpaceSaving partial: total plus the counters
/// sorted by key (the structure's internal order is irrelevant).
fn summary_canon(ss: &SpaceSaving<u64>) -> (u64, Vec<(u64, u64, u64)>) {
    let mut counters: Vec<(u64, u64, u64)> =
        ss.counters().map(|c| (c.key, c.count, c.error)).collect();
    counters.sort_unstable();
    (ss.total(), counters)
}

fn exact_weighted_counts(stream: &[u64]) -> HashMap<u64, u64> {
    let mut counts = HashMap::new();
    for &key in stream {
        *counts.entry(key).or_insert(0) += weight_of(key);
    }
    counts
}

proptest! {
    // 64 cases locally; ci.sh raises this via PROPTEST_CASES.
    #![proptest_config(ProptestConfig::with_cases_env(64))]

    #[test]
    fn count_aggregate_obeys_the_merge_laws(
        stream in stream_strategy(),
        cut_a in any::<usize>(),
        cut_b in any::<usize>(),
        shards in 1usize..8,
    ) {
        let agg = CountAggregate;
        check_laws(&agg, &stream, cut_a, cut_b, shards, |p| {
            let mut entries: Vec<(u64, u64)> = p.iter().map(|(&k, &v)| (k, v)).collect();
            entries.sort_unstable();
            entries
        })?;
        // The merged whole is the exact weighted count of the stream.
        let whole = partial_from(&agg, &stream);
        prop_assert_eq!(&whole, &exact_weighted_counts(&stream));
        // Every slice — slice 0, the input map with the other shards' keys
        // taken out, included — holds exactly the keys `shard_of` gives it,
        // with their counts.
        let slices = agg.shard(whole.clone(), shards);
        prop_assert_eq!(slices.len(), shards);
        for (s, slice) in slices.iter().enumerate() {
            let owned = whole.iter().filter(|(key, _)| shard_of(*key, shards) == s);
            prop_assert_eq!(slice.len(), owned.clone().count(), "slice {}", s);
            for (key, count) in owned {
                prop_assert_eq!(slice.get(key), Some(count), "slice {} key {}", s, key);
            }
        }
    }

    #[test]
    fn sum_aggregate_obeys_the_merge_laws(
        stream in stream_strategy(),
        cut_a in any::<usize>(),
        cut_b in any::<usize>(),
        shards in 1usize..8,
    ) {
        let agg = SumAggregate;
        check_laws(&agg, &stream, cut_a, cut_b, shards, |p| *p)?;
        let whole = partial_from(&agg, &stream);
        let expected: u64 = stream.iter().map(|&k| weight_of(k)).sum();
        prop_assert_eq!(whole, expected);
    }

    #[test]
    fn top_k_obeys_the_merge_laws_below_capacity(
        stream in stream_strategy(),
        cut_a in any::<usize>(),
        cut_b in any::<usize>(),
        shards in 1usize..8,
    ) {
        // The key universe is 0..64 and the capacity 128, so no summary ever
        // evicts: the SpaceSaving algebra is exact and the laws must hold
        // with equality, through the slb-sketch merge path.
        let agg = TopKAggregate::new(128);
        check_laws(&agg, &stream, cut_a, cut_b, shards, summary_canon)?;
        // Exact regime means the summary IS the weighted count, error-free.
        let whole = partial_from(&agg, &stream);
        let truth = exact_weighted_counts(&stream);
        prop_assert_eq!(whole.len(), truth.len());
        for (key, count) in truth {
            prop_assert_eq!(whole.estimate(&key), count);
            prop_assert_eq!(whole.guaranteed_count(&key), count);
        }
    }

    #[test]
    fn top_k_keeps_summary_guarantees_past_capacity(
        stream in stream_strategy(),
        cut_a in any::<usize>(),
        cut_b in any::<usize>(),
        capacity in 1usize..12,
        shards in 1usize..5,
    ) {
        // Truncating regime: equality laws no longer apply, but the
        // SpaceSaving guarantees must survive merging and sharding in any
        // order — additive totals and upper-bound estimates.
        let agg = TopKAggregate::new(capacity);
        let (sa, sb, sc) = split3(&stream, cut_a, cut_b);
        let mut merged = partial_from(&agg, sb);
        agg.merge(&mut merged, partial_from(&agg, sa));
        agg.merge(&mut merged, partial_from(&agg, sc));
        let total_weight: u64 = stream.iter().map(|&k| weight_of(k)).sum();
        prop_assert_eq!(merged.total(), total_weight, "totals must stay additive");
        let truth = exact_weighted_counts(&stream);
        for c in merged.counters() {
            let t = truth.get(&c.key).copied().unwrap_or(0);
            prop_assert!(c.count >= t, "merged estimate {} below truth {}", c.count, t);
        }
        // Sharding apportions the total by monitored mass, with the
        // unmonitored remainder on shard 0: the shard totals sum back to the
        // original total unless truncation inflated the monitored mass past
        // it (possible after a lossy merge), in which case they sum to the
        // monitored mass — never less than either.
        let monitored: u64 = merged.counters().map(|c| c.count).sum();
        let slices = agg.shard(merged, shards);
        let reassembled_total: u64 = slices.iter().map(|s| s.total()).sum();
        prop_assert_eq!(reassembled_total, total_weight.max(monitored));
    }

    #[test]
    fn observe_returns_false_only_for_a_key_the_partial_already_holds(
        stream in stream_strategy(),
        capacity in 1usize..12,
    ) {
        check_observe_return(&CountAggregate, &stream, true)?;
        check_observe_return(&SumAggregate, &stream, false)?;
        // Small capacities evict: the summary forgets keys it was given.
        check_observe_return(&TopKAggregate::new(capacity), &stream, false)?;
    }
}
