//! Property suite for the histogram merge laws and quantile guarantees.
//!
//! The laws that make per-worker histograms safely mergeable into
//! cluster-wide rollups, pinned over random value multisets:
//!
//! 1. **Union** — `merge(a, b)` equals recording the union of both
//!    recordings into one histogram.
//! 2. **Commutativity / associativity** — merge order and grouping never
//!    change the result (with the empty histogram as identity).
//! 3. **Quantile monotonicity** — `quantile(p)` is non-decreasing in `p`.
//! 4. **Error bound** — every quantile under-reports the exact
//!    nearest-rank value by less than 2⁻⁴ relative error, and `count`,
//!    `sum`, `min`, `max` are exact.
//!
//! ci.sh re-runs this suite at PROPTEST_CASES=256.

use proptest::prelude::*;

use slb_telemetry::{bucket_floor, bucket_index, LogHistogram, NUM_BUCKETS};

fn hist_of(values: &[u64]) -> LogHistogram {
    let mut hist = LogHistogram::new();
    for &v in values {
        hist.record(v);
    }
    hist
}

proptest! {
    // 64 cases locally; ci.sh raises this via PROPTEST_CASES.
    #![proptest_config(ProptestConfig::with_cases_env(64))]

    #[test]
    fn merge_is_union(
        a in proptest::collection::vec(any::<u64>(), 0..200),
        b in proptest::collection::vec(any::<u64>(), 0..200),
    ) {
        let mut merged = hist_of(&a);
        merged.merge(&hist_of(&b));
        let union: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
        prop_assert_eq!(merged, hist_of(&union));
    }

    #[test]
    fn merge_commutes_and_associates(
        a in proptest::collection::vec(any::<u64>(), 0..120),
        b in proptest::collection::vec(any::<u64>(), 0..120),
        c in proptest::collection::vec(any::<u64>(), 0..120),
    ) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));
        // Commutativity.
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(&ab, &ba);
        // Associativity.
        let mut ab_c = ab;
        ab_c.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut a_bc = ha.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc);
        // Identity.
        let mut with_empty = ha.clone();
        with_empty.merge(&LogHistogram::new());
        prop_assert_eq!(&with_empty, &ha);
    }

    #[test]
    fn quantiles_are_monotone_in_p(
        values in proptest::collection::vec(any::<u64>(), 1..300),
        cuts in proptest::collection::vec(0.0f64..1.0, 2..12),
    ) {
        let hist = hist_of(&values);
        let mut ps = cuts.clone();
        ps.sort_by(|x, y| x.partial_cmp(y).expect("no NaN in 0..=1"));
        let mut last = 0u64;
        for p in ps {
            let q = hist.quantile(p);
            prop_assert!(q >= last, "quantile regressed at p={}: {} < {}", p, q, last);
            last = q;
        }
    }

    #[test]
    fn quantiles_underreport_within_the_bound(
        values in proptest::collection::vec(any::<u64>(), 1..400),
        p in 0.0f64..1.0,
    ) {
        let hist = hist_of(&values);
        let mut sorted = values.clone();
        sorted.sort_unstable();
        // The exact nearest-rank value, matching LatencySummary's
        // convention.
        let rank = (((sorted.len() - 1) as f64) * p).round() as usize;
        let exact = sorted[rank];
        let got = hist.quantile(p);
        prop_assert!(got <= exact, "quantile must never over-report: {} > {}", got, exact);
        // Under-report bounded by one bucket width: exact < got·(1+2⁻⁴),
        // with +1 absorbing the integer floor for tiny values.
        prop_assert!(
            (exact as f64) < (got as f64) * (1.0 + 1.0 / 16.0) + 1.0,
            "p{}: reported {} vs exact {} exceeds the 6.25% bound", p, got, exact
        );
        // Scalars are exact regardless of bucketing.
        prop_assert_eq!(hist.count(), values.len() as u64);
        prop_assert_eq!(hist.sum(), values.iter().map(|&v| v as u128).sum::<u128>());
        prop_assert_eq!(hist.min(), *sorted.first().expect("non-empty"));
        prop_assert_eq!(hist.max(), *sorted.last().expect("non-empty"));
    }

    #[test]
    fn bucket_floor_is_a_fixed_point(index in 0usize..NUM_BUCKETS) {
        // Re-recording a histogram's representative values must land in
        // identical buckets — the wire round-trip depends on it.
        prop_assert_eq!(bucket_index(bucket_floor(index)), index);
    }

    #[test]
    fn bucket_index_is_monotone_and_floor_bounds(value in any::<u64>()) {
        let index = bucket_index(value);
        prop_assert!(index < NUM_BUCKETS);
        prop_assert!(bucket_floor(index) <= value);
        if index + 1 < NUM_BUCKETS {
            prop_assert!(value < bucket_floor(index + 1));
        }
    }

    #[test]
    fn sparse_parts_round_trip(
        values in proptest::collection::vec(any::<u64>(), 0..200),
    ) {
        let hist = hist_of(&values);
        let parts = hist.nonzero_buckets();
        let back = LogHistogram::from_parts(&parts, hist.count(), hist.sum(), hist.min(), hist.max());
        prop_assert_eq!(back, Ok(hist));
    }
}
