//! Property-based tests for the heavy-hitter substrate.
//!
//! These check the published guarantees of each summary on arbitrary streams
//! rather than hand-picked ones:
//! * SpaceSaving: estimates are upper bounds, errors bounded by m/k, and
//!   every φ-heavy key is monitored for k ≥ 1/φ; every result that does
//!   not hang on the eviction tie-break equals a naive reference's (a flat
//!   list and linear scans).
//! * ExactCounter: equals a plain hash-map count.

use proptest::prelude::*;
use std::collections::HashMap;

use slb_sketch::{ExactCounter, FrequencyEstimator, SpaceSaving};

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

/// SpaceSaving as the paper states it, with no structure to maintain:
/// `(key, count)` pairs in arrival order, a linear scan for the key and for
/// a minimum (the first one found; see the property for what that decides).
struct NaiveSpaceSaving {
    capacity: usize,
    counters: Vec<(u64, u64)>,
}

impl NaiveSpaceSaving {
    fn observe_counts(&mut self, key: u64) -> (u64, u64) {
        if let Some(c) = self.counters.iter_mut().find(|c| c.0 == key) {
            c.1 += 1;
            return (c.1 - 1, c.1);
        }
        if self.counters.len() < self.capacity {
            self.counters.push((key, 1));
            return (0, 1);
        }
        let min = self.counters.iter_mut().min_by_key(|c| c.1).unwrap();
        *min = (key, min.1 + 1);
        (0, min.1)
    }

    fn min_count(&self) -> u64 {
        if self.counters.len() < self.capacity {
            return 0;
        }
        self.counters.iter().map(|c| c.1).min().unwrap_or(0)
    }

    fn counts_descending(&self) -> Vec<u64> {
        let mut counts: Vec<u64> = self.counters.iter().map(|c| c.1).collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        counts
    }
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
    fn space_saving_matches_the_naive_reference(stream in stream_strategy(), capacity in 1usize..200) {
        let mut ss = SpaceSaving::new(capacity);
        let mut naive = NaiveSpaceSaving { capacity, counters: Vec::new() };
        for (seen, &k) in stream.iter().enumerate() {
            let min = naive.min_count();
            let (before, after) = ss.observe_counts(&k);
            let (naive_before, naive_after) = naive.observe_counts(k);
            prop_assert_eq!(after, naive_after, "key {} at {}", k, seen);
            // Which of several minimum counters survives an eviction is the
            // one thing a tie-break decides: such a key reads `min` where it
            // is still monitored and 0 where it is not.
            let tie = before.min(naive_before) == 0 && before.max(naive_before) == min;
            prop_assert!(before == naive_before || tie, "key {} at {}", k, seen);
            prop_assert_eq!(ss.total(), seen as u64 + 1);
            prop_assert_eq!(ss.min_count(), naive.min_count());
            prop_assert_eq!(ss.len(), naive.counters.len());
            let counts: Vec<u64> = ss.sorted_counters().iter().map(|c| c.count).collect();
            prop_assert_eq!(counts, naive.counts_descending());
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
}
