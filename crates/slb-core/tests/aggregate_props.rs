//! Property tests for the [`WindowAggregate`] merge laws.
//!
//! The aggregator stage merges worker partials in whatever order windows
//! happen to close across threads and shards, so the engine's correctness
//! rests on the merge being associative and commutative with `empty()` as
//! identity, and on sharding being a lossless partition. These properties
//! are checked for [`CountAggregate`], an exact algebra — the laws hold with
//! literal equality — over random streams and random split points.
//!
//! The worker opens a window with [`WindowAggregate::with_room`] and
//! [`CountAggregate`] merges into whichever map is roomier and shards by
//! keeping slice 0 in the input map, so the laws also run over presized
//! partials: `with_room` is an identity on either side, merge commutes
//! across sizes, and every slice holds exactly the keys `shard_of` gives it.
//!
//! One more contract rides here because the worker's per-tuple loop leans on
//! it: [`WindowAggregate::observe`] returns `false` exactly for a key this
//! partial was already given.
//!
//! Locally each property runs a modest number of cases; ci.sh raises the
//! count via `PROPTEST_CASES` (see `ProptestConfig::with_cases_env`).

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;

use slb_core::{shard_of, CountAggregate, WindowAggregate};

/// Weighted tuple stream: keys from a small universe (so segments share
/// keys), weights derived from the key so the shim's lack of tuple
/// strategies costs nothing.
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

const AGG: CountAggregate = CountAggregate;

/// Builds one partial from a stream segment.
fn partial_from(segment: &[u64]) -> HashMap<u64, u64> {
    observe_into(AGG.empty(), segment)
}

/// Folds a stream segment into `partial`.
fn observe_into(mut partial: HashMap<u64, u64>, segment: &[u64]) -> HashMap<u64, u64> {
    for &key in segment {
        AGG.observe(&mut partial, &key, weight_of(key));
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

/// Checks the three merge laws plus the shard law.
fn check_laws(
    stream: &[u64],
    cut_a: usize,
    cut_b: usize,
    shards: usize,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let (sa, sb, sc) = split3(stream, cut_a, cut_b);
    let build = partial_from;

    // Associativity: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
    let mut left = build(sa);
    AGG.merge(&mut left, build(sb));
    AGG.merge(&mut left, build(sc));
    let mut right_tail = build(sb);
    AGG.merge(&mut right_tail, build(sc));
    let mut right = build(sa);
    AGG.merge(&mut right, right_tail);
    prop_assert_eq!(&left, &right, "associativity violated");

    // Commutativity: a ⊕ b == b ⊕ a.
    let mut ab = build(sa);
    AGG.merge(&mut ab, build(sb));
    let mut ba = build(sb);
    AGG.merge(&mut ba, build(sa));
    prop_assert_eq!(&ab, &ba, "commutativity violated");

    // Identity: a ⊕ empty == a == empty ⊕ a.
    let mut with_empty = build(sa);
    AGG.merge(&mut with_empty, AGG.empty());
    prop_assert_eq!(&with_empty, &build(sa), "right identity violated");
    let mut empty_with = AGG.empty();
    AGG.merge(&mut empty_with, build(sa));
    prop_assert_eq!(&empty_with, &build(sa), "left identity violated");

    // A presized empty partial is an identity too, on either side — the
    // roomier map absorbs the other, so one side swaps and the other does
    // not.
    let whole = build(stream);
    let mut with_room = build(sa);
    AGG.merge(&mut with_room, AGG.with_room(&whole));
    prop_assert_eq!(&with_room, &build(sa), "with_room is not a right identity");
    let mut room_with = AGG.with_room(&whole);
    AGG.merge(&mut room_with, build(sa));
    prop_assert_eq!(&room_with, &build(sa), "with_room is not a left identity");

    // Commutativity when the two sides differ in size: `a` filled into a
    // partial with room for the whole stream, `b` grown from empty.
    let roomy_a = || observe_into(AGG.with_room(&whole), sa);
    let mut roomy_ab = roomy_a();
    AGG.merge(&mut roomy_ab, build(sb));
    let mut b_roomy = build(sb);
    AGG.merge(&mut b_roomy, roomy_a());
    prop_assert_eq!(&roomy_ab, &b_roomy, "commutativity violated across sizes");
    prop_assert_eq!(&roomy_ab, &ab, "presizing changed a merge");

    // Shard partition: merging all shards reproduces the whole.
    let mut reassembled = AGG.empty();
    for slice in AGG.shard(build(stream), shards) {
        AGG.merge(&mut reassembled, slice);
    }
    prop_assert_eq!(&reassembled, &whole, "shard+merge lost content");
    Ok(())
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
        check_laws(&stream, cut_a, cut_b, shards)?;
        // The merged whole is the exact weighted count of the stream.
        let whole = partial_from(&stream);
        prop_assert_eq!(&whole, &exact_weighted_counts(&stream));
        // Every slice — slice 0, the input map with the other shards' keys
        // taken out, included — holds exactly the keys `shard_of` gives it,
        // with their counts.
        let slices = AGG.shard(whole.clone(), shards);
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
    fn observe_returns_false_only_for_a_key_the_partial_already_holds(
        stream in stream_strategy(),
    ) {
        // `true` exactly at a key's first arrival.
        let mut partial = AGG.empty();
        let mut given = HashSet::new();
        for &key in &stream {
            let new_to_partial = AGG.observe(&mut partial, &key, weight_of(key));
            prop_assert_eq!(new_to_partial, given.insert(key), "key {}", key);
        }
    }
}
