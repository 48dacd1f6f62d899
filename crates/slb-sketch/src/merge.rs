//! Merging per-source summaries into a global heavy-hitter view.
//!
//! In the paper each source runs its own SpaceSaving instance over the
//! sub-stream it forwards (Section III-A and \[12\]). When a global view is
//! needed — e.g. to audit the sources' combined head, or in a deployment
//! where a coordinator periodically reconciles summaries — the per-source
//! summaries must be merged without losing the error guarantees.
//!
//! The merge implemented here follows the standard counter-summary merge
//! (Berinde et al., ACM TODS 2010): for every key in the union of the two
//! monitored sets, the merged estimate is the sum of the per-summary
//! estimates, where a summary that does not monitor the key contributes its
//! `min_count` as the (upper-bound) estimate and the same amount as error.
//! The merged counters are then truncated back to the target capacity by
//! keeping the largest estimates ([`SpaceSaving::from_counters`]). The
//! resulting error bound is the sum of the inputs' bounds, which preserves
//! heavy-hitter completeness for thresholds above the combined bound.

use std::collections::HashMap;
use std::hash::Hash;

use crate::space_saving::{Counter, SpaceSaving};
use crate::FrequencyEstimator;

/// Merges any number of SpaceSaving summaries (none gives an empty one) into
/// a live summary of at most `capacity` counters, which can keep observing
/// or be merged again; the windowed top-k aggregate folds worker partials
/// pairwise with it. Totals are additive, estimates remain upper bounds on
/// the combined stream's true counts, and while every input is below
/// capacity (no evictions, no truncation) the merge is exact and therefore
/// associative and commutative — the regime the merge-law property tests pin.
/// Every sum saturates: a summary may be a decoded partial, i.e. a peer's
/// word, and absurd counts must merge into absurd counts, not overflow.
///
/// # Panics
/// Panics if `capacity == 0`.
pub fn merge_space_saving<K: Eq + Hash + Clone>(
    summaries: &[&SpaceSaving<K>],
    capacity: usize,
) -> SpaceSaving<K> {
    let total = summaries
        .iter()
        .fold(0u64, |sum, s| sum.saturating_add(s.total()));
    // Union of monitored keys with summed estimates and errors.
    let mut merged: HashMap<K, (u64, u64)> = HashMap::new();
    for s in summaries {
        for c in s.counters() {
            let e = merged.entry(c.key).or_insert((0, 0));
            e.0 = e.0.saturating_add(c.count);
            e.1 = e.1.saturating_add(c.error);
        }
    }
    // Keys absent from a summary get that summary's min_count as estimate and
    // error contribution.
    for s in summaries {
        let min = s.min_count();
        if min == 0 {
            continue;
        }
        for (key, e) in merged.iter_mut() {
            if s.get(key).is_none() {
                e.0 = e.0.saturating_add(min);
                e.1 = e.1.saturating_add(min);
            }
        }
    }
    let counters = merged
        .into_iter()
        .map(|(key, (count, error))| Counter { key, count, error });
    SpaceSaving::from_counters(capacity, total, counters)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary_from(stream: &[u64], capacity: usize) -> SpaceSaving<u64> {
        let mut ss = SpaceSaving::new(capacity);
        for k in stream {
            ss.observe(k);
        }
        ss
    }

    #[test]
    fn merge_of_disjoint_streams_sums_totals() {
        let a = summary_from(&[1, 1, 1, 2], 8);
        let b = summary_from(&[3, 3, 4], 8);
        let m = merge_space_saving(&[&a, &b], 8);
        assert_eq!(m.total(), 7);
        assert_eq!(m.estimate(&1), 3);
        assert_eq!(m.estimate(&3), 2);
        assert_eq!(m.estimate(&4), 1);
    }

    #[test]
    fn merge_overlapping_streams_adds_counts() {
        let a = summary_from(&[7, 7, 8], 8);
        let b = summary_from(&[7, 8, 8, 8], 8);
        let m = merge_space_saving(&[&a, &b], 8);
        assert_eq!(m.estimate(&7), 3);
        assert_eq!(m.estimate(&8), 4);
    }

    #[test]
    fn merged_estimates_remain_upper_bounds() {
        // Two skewed sub-streams over an overlapping key set, small capacity
        // so evictions happen; merged estimates must still dominate the truth.
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut streams: Vec<Vec<u64>> = vec![Vec::new(), Vec::new()];
        let mut state = 99u64;
        for i in 0..40_000u64 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let k = if i % 2 == 0 { i % 6 } else { state % 400 };
            *truth.entry(k).or_insert(0) += 1;
            streams[(i % 2) as usize].push(k);
        }
        let cap = 40;
        let a = summary_from(&streams[0], cap);
        let b = summary_from(&streams[1], cap);
        let m = merge_space_saving(&[&a, &b], cap);
        for c in m.counters() {
            let t = truth.get(&c.key).copied().unwrap_or(0);
            assert!(
                c.count >= t,
                "merged estimate {} below truth {} for {}",
                c.count,
                t,
                c.key
            );
        }
        // Completeness: keys above the combined error bound survive the merge.
        let combined_bound =
            streams[0].len() as u64 / cap as u64 + streams[1].len() as u64 / cap as u64;
        for (k, &t) in &truth {
            if t > combined_bound {
                assert!(m.estimate(k) > 0, "hot key {k} lost in merge (count {t})");
            }
        }
    }

    #[test]
    fn merge_respects_capacity_and_ordering() {
        let a = summary_from(
            &(0..100u64)
                .flat_map(|k| vec![k; (k % 10 + 1) as usize])
                .collect::<Vec<_>>(),
            50,
        );
        let b = summary_from(&(50..150u64).collect::<Vec<_>>(), 50);
        let m = merge_space_saving(&[&a, &b], 20);
        assert!(m.len() <= 20);
        for w in m.sorted_counters().windows(2) {
            assert!(w[0].count >= w[1].count);
        }
    }

    /// Counters as a hostile (or corrupt) peer's partial could carry them:
    /// every sum in the merge — estimates, errors, the absent-key
    /// `min_count` contribution, the totals — saturates instead of
    /// overflowing (which panics in a debug build).
    #[test]
    fn merge_of_counts_near_u64_max_saturates() {
        let max = u64::MAX;
        let counter = |key, count, error| Counter { key, count, error };
        // Both at capacity, so each contributes its min_count to the keys
        // only the other monitors.
        let a =
            SpaceSaving::from_counters(2, max, [counter(1u64, max - 1, max - 2), counter(2, 9, 4)]);
        let b = SpaceSaving::from_counters(2, max - 5, [counter(1u64, 7, max), counter(3, max, 3)]);
        assert_eq!((a.min_count(), b.min_count()), (9, 7));
        let m = merge_space_saving(&[&a, &b], 4);
        assert_eq!(m.total(), max);
        let get = |key| m.get(&key).map(|c| (c.count, c.error));
        assert_eq!(get(1), Some((max, max)));
        assert_eq!(get(2), Some((9 + 7, 4 + 7)));
        assert_eq!(get(3), Some((max, 3 + 9)));
    }

    #[test]
    fn merge_of_nothing_is_empty() {
        let m: SpaceSaving<u64> = merge_space_saving(&[], 10);
        assert_eq!(m.total(), 0);
        assert!(m.is_empty());
        assert!(m.heavy_hitters(0.1).is_empty());
    }

    #[test]
    fn merged_summary_is_live_and_keeps_observing() {
        let a = summary_from(&[1, 1, 2, 3], 8);
        let b = summary_from(&[1, 4, 4], 8);
        let mut m = merge_space_saving(&[&a, &b], 8);
        assert_eq!(m.total(), 7);
        assert_eq!(m.estimate(&1), 3);
        assert_eq!(m.estimate(&4), 2);
        // The merge result is a live summary: it can keep counting.
        m.observe(&4);
        m.observe(&4);
        assert_eq!(m.estimate(&4), 4);
        assert_eq!(m.total(), 9);
    }

    #[test]
    fn merged_summary_truncates_to_capacity_keeping_largest() {
        let a = summary_from(
            &(0..20u64)
                .flat_map(|k| vec![k; k as usize + 1])
                .collect::<Vec<_>>(),
            32,
        );
        let b = summary_from(&[19u64; 5], 32);
        let m = merge_space_saving(&[&a, &b], 4);
        assert_eq!(m.len(), 4);
        assert_eq!(m.estimate(&19), 25);
        assert_eq!(m.estimate(&0), 0, "smallest counter truncated away");
        // Full at capacity: min_count reports the smallest surviving counter.
        assert!(m.min_count() >= 17);
    }

    #[test]
    fn from_counters_round_trips_a_summary() {
        let a = summary_from(&[5, 5, 5, 9, 9, 2], 8);
        let rebuilt = SpaceSaving::from_counters(8, a.total(), a.counters());
        assert_eq!(rebuilt.total(), a.total());
        assert_eq!(rebuilt.len(), a.len());
        for c in a.counters() {
            let r = rebuilt.get(&c.key).expect("key survives round trip");
            assert_eq!((r.count, r.error), (c.count, c.error));
        }
        assert_eq!(rebuilt.sorted_counters(), a.sorted_counters());
    }

    #[test]
    fn merged_heavy_hitters_thresholded_on_combined_total() {
        let a = summary_from(&vec![1u64; 90], 4);
        let b = summary_from(&[2u64; 10], 4);
        let m = merge_space_saving(&[&a, &b], 4);
        let hh = m.heavy_hitters(0.5);
        assert_eq!(hh.len(), 1);
        assert_eq!(hh[0].0, 1);
    }
}
