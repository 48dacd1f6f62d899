//! The latency summary against the raw samples it no longer keeps.
//!
//! [`LatencySummary::by_worker`] sees only histograms. For random
//! per-phase × per-worker sample multisets this suite computes every
//! statistic from the raw vectors — the reference lives here, as
//! `slb-telemetry`'s `histogram_props` does it — and requires:
//!
//! * `samples`, `mean_us`, `max_us` and `max_avg_us` (the largest mean any
//!   one worker has over all its phases) **equal** the exact values;
//! * each percentile `q̂` brackets the exact nearest-rank value `q` of the
//!   sorted samples: `q̂ ≤ q < q̂·(1 + 2⁻⁴) + 1`.
//!
//! ci.sh re-runs this suite at PROPTEST_CASES=256.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use slb_engine::LatencySummary;
use slb_telemetry::LogHistogram;

fn mean(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().map(|&v| v as u128).sum::<u128>() as f64 / samples.len() as f64
}

/// Checks one summary against the raw samples of the same matrix.
fn check(raw: &[Vec<Vec<u64>>]) -> Result<(), TestCaseError> {
    let hist_of = |cell: &Vec<u64>| {
        let mut hist = LogHistogram::new();
        for &v in cell {
            hist.record(v);
        }
        hist
    };
    let matrix: Vec<Vec<LogHistogram>> = raw
        .iter()
        .map(|row| row.iter().map(hist_of).collect())
        .collect();
    let summary = LatencySummary::by_worker(&matrix);

    let mut all: Vec<u64> = raw.iter().flatten().flatten().copied().collect();
    all.sort_unstable();
    let workers = raw.iter().map(Vec::len).max().unwrap_or(0);
    let max_avg = (0..workers)
        .map(|w| {
            let own: Vec<u64> = raw.iter().flat_map(|row| &row[w]).copied().collect();
            mean(&own)
        })
        .fold(0.0, f64::max);
    prop_assert_eq!(summary.samples, all.len() as u64);
    prop_assert_eq!(summary.mean_us, mean(&all));
    prop_assert_eq!(summary.max_avg_us, max_avg);
    prop_assert_eq!(summary.max_us, all.last().copied().unwrap_or(0));
    if all.is_empty() {
        prop_assert_eq!(summary, LatencySummary::default());
        return Ok(());
    }
    for (p, reported) in [
        (0.50, summary.p50_us),
        (0.95, summary.p95_us),
        (0.99, summary.p99_us),
    ] {
        let exact = all[((all.len() - 1) as f64 * p).round() as usize];
        prop_assert!(
            reported <= exact,
            "p{}: {} over-reports {}",
            p,
            reported,
            exact
        );
        // In integers: exact < reported · 17/16 + 1, over all of u64.
        prop_assert!(
            (exact as u128) * 16 < (reported as u128) * 17 + 16,
            "p{}: {} is more than 2⁻⁴ under {}",
            p,
            reported,
            exact
        );
    }
    Ok(())
}

proptest! {
    // 64 cases locally; ci.sh raises this via PROPTEST_CASES.
    #![proptest_config(ProptestConfig::with_cases_env(64))]

    #[test]
    fn summary_matches_the_raw_samples(
        cells in proptest::collection::vec(proptest::collection::vec(0u64..3_000_000, 0..60), 1..16),
        workers in 1usize..5,
        wide in proptest::collection::vec(any::<u64>(), 0..4),
    ) {
        // Lay the cells out phase-major over `workers` columns (the last
        // phase padded with empty cells); a few values from all of `u64`
        // join the first cell.
        let mut cells = cells.clone();
        cells[0].extend(&wide);
        cells.resize(cells.len().div_ceil(workers) * workers, Vec::new());
        let raw: Vec<Vec<Vec<u64>>> = cells.chunks(workers).map(<[_]>::to_vec).collect();
        check(&raw)?;
        // A phase's own summary is the one-row matrix.
        for phase in &raw {
            check(std::slice::from_ref(phase))?;
        }
    }
}
