//! Medians and quartiles, computed the way the driver computes them.

use crate::catalog::Better;

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the default "exclusive" method). With fewer than two samples
/// both equal the single value.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len();
    if len < 2 {
        return (sorted[0], sorted[0]);
    }
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// What one run reports for a metric from its repetitions: the decile on
/// the metric's better side, placed as the driver's method places quantiles
/// (position `(n + 1) / 10` from the better end) but never past the best
/// repetition.
///
/// On the shared two-core machines the benchmark runs on, whatever else the
/// host is doing only ever slows a repetition down, for seconds at a time
/// and at times for most of a run, while the undisturbed speed is a sharp
/// ceiling. Over twenty 20 s runs per saturated workload, the spread between
/// runs (quartile distance over median) was 7.9-11.0 % for the median of a
/// run's ~20 repetitions, 4.4-8.6 % for the better quartile and 3.6-6.9 %
/// for the better decile. A change that slows every repetition moves every
/// quantile alike.
pub fn better_decile(values: &[f64], better: Better) -> f64 {
    assert!(!values.is_empty(), "decile of no samples");
    let mut best_first = values.to_vec();
    best_first.sort_by(f64::total_cmp);
    if better == Better::Higher {
        best_first.reverse();
    }
    let position = (best_first.len() + 1) as f64 / 10.0;
    if position <= 1.0 {
        return best_first[0];
    }
    // `position < len` whenever it is above 1, so both neighbours exist.
    let below = position.floor() as usize;
    let (a, b) = (best_first[below - 1], best_first[below]);
    a + (b - a) * (position - below as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 8.25));
        assert_eq!(median(&values), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn better_decile_sits_on_the_better_side() {
        // statistics.quantiles(range(1, 20), n=10)[0] == 2.0, [-1] == 18.0
        let values: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(better_decile(&values, Better::Lower), 2.0);
        assert_eq!(better_decile(&values, Better::Higher), 18.0);
        // statistics.quantiles(range(1, 11), n=10)[0] == 1.1
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((better_decile(&values, Better::Lower) - 1.1).abs() < 1e-12);
        // Too few repetitions for a decile: the best one, not past it.
        assert_eq!(better_decile(&[3.0, 1.0, 2.0], Better::Lower), 1.0);
        assert_eq!(better_decile(&[7.0], Better::Higher), 7.0);
    }
}
