//! Latency summaries and the per-stage, per-phase metrics built on them.
//!
//! The paper reports, per grouping scheme, the maximum of the per-worker
//! average latencies together with the 50th, 95th and 99th percentiles
//! across all workers (Figure 14). Workers record each tuple's end-to-end
//! latency (emit time at the source to completion time at the worker),
//! aggregators each partial's close→merge latency; the summaries are
//! computed after the run.
//!
//! # One recorder
//!
//! A latency distribution is a [`LogHistogram`] — in a stage's report, on
//! the wire, in a metrics snapshot and in [`crate::EngineResult`]: exact
//! `count`, `sum`, `min` and `max`, and log₂-linear buckets with 16
//! sub-buckets per octave, 7.6 KiB however long the run. No raw sample is
//! kept. So `samples`, `mean_us`, `max_avg_us` and `max_us` are exact, and
//! a percentile is the floor of the bucket holding its nearest rank: it
//! **under-reports by strictly less than 2⁻⁴ = 6.25 %** (exact below 16 µs),
//! on the same grid for every scheme, so orderings and ratios between
//! schemes are unaffected. `slb-telemetry`'s `histogram_props` pins the
//! bound; `tests/latency_props.rs` pins this module against raw samples.

use slb_telemetry::{LogHistogram, RecoveryMetrics};

/// Summary statistics over all recorded latencies.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencySummary {
    /// Number of samples.
    pub samples: u64,
    /// Mean latency, microseconds.
    pub mean_us: f64,
    /// Maximum of the per-worker mean latencies, microseconds.
    pub max_avg_us: f64,
    /// Median latency, microseconds.
    pub p50_us: u64,
    /// 95th percentile latency, microseconds.
    pub p95_us: u64,
    /// 99th percentile latency, microseconds.
    pub p99_us: u64,
    /// Maximum observed latency, microseconds.
    pub max_us: u64,
}

impl LatencySummary {
    /// Summarizes a phase-major matrix of histograms
    /// (`phase_major[phase][worker]`): every statistic is over all of them
    /// merged, except `max_avg_us` — the paper's "max avg" — which is the
    /// largest mean any one worker has over its phases merged. One phase's
    /// summary is the one-row matrix `&phase_major[p..=p]`.
    pub fn by_worker(phase_major: &[Vec<LogHistogram>]) -> Self {
        let workers = phase_major.iter().map(Vec::len).max().unwrap_or(0);
        let mut all = LogHistogram::new();
        let mut max_avg_us = 0.0f64;
        for worker in 0..workers {
            let mut merged = LogHistogram::new();
            for hist in phase_major.iter().filter_map(|row| row.get(worker)) {
                merged.merge(hist);
            }
            max_avg_us = max_avg_us.max(merged.mean());
            all.merge(&merged);
        }
        Self {
            samples: all.count(),
            mean_us: all.mean(),
            max_avg_us,
            p50_us: all.quantile(0.50),
            p95_us: all.quantile(0.95),
            p99_us: all.quantile(0.99),
            max_us: all.max(),
        }
    }
}

/// Throughput and latency of one topology stage.
///
/// The unit of `items` differs per stage: the worker stage counts tuples,
/// the aggregator stage counts partial-window messages (one per closed
/// window per worker per shard), because that is what each stage's threads
/// actually receive and process.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageMetrics {
    /// Items processed by the stage over the whole run.
    pub items: u64,
    /// Items per second of wall-clock run time.
    pub items_per_sec: f64,
    /// Latency distribution of the stage's items (worker stage: source emit
    /// → worker completion; aggregator stage: worker window close →
    /// aggregator merge).
    pub latency: LatencySummary,
    /// Fault-recovery accounting for the stage. All zero in a fault-free
    /// run — the determinism suite pins that.
    pub recovery: RecoveryMetrics,
}

impl StageMetrics {
    /// Builds stage metrics from raw counts and the run's elapsed seconds.
    pub fn new(items: u64, elapsed_secs: f64, latency: LatencySummary) -> Self {
        Self {
            items,
            items_per_sec: if elapsed_secs > 0.0 {
                items as f64 / elapsed_secs
            } else {
                0.0
            },
            latency,
            recovery: RecoveryMetrics::default(),
        }
    }

    /// Same as [`Self::new`] with explicit recovery counters.
    pub fn with_recovery(
        items: u64,
        elapsed_secs: f64,
        latency: LatencySummary,
        recovery: RecoveryMetrics,
    ) -> Self {
        Self {
            recovery,
            ..Self::new(items, elapsed_secs, latency)
        }
    }
}

/// Measurements of one phase of a (possibly multi-phase) engine run.
///
/// A plain [`crate::EngineConfig`] run is the one-phase special case: it
/// reports exactly one `PhaseMetrics` covering the whole run. A scenario run
/// reports one entry per [`slb_workloads::ScenarioPhase`], each evaluated
/// over the phase's *active* worker set — the meaningful imbalance when the
/// cluster resizes mid-run.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseMetrics {
    /// Phase index within the run.
    pub phase: usize,
    /// Active workers during the phase.
    pub workers: usize,
    /// Global index of the phase's first window.
    pub start_window: u64,
    /// Number of windows the phase covers (per source).
    pub windows: u64,
    /// Per-worker processed-tuple counts over the active worker set.
    pub worker_counts: Vec<u64>,
    /// Imbalance of `worker_counts` (the paper's `I` over active workers).
    pub imbalance: f64,
    /// Tuples, throughput over the phase's observed span, and the phase's
    /// end-to-end latency distribution.
    pub stage: StageMetrics,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist_of(values: &[u64]) -> LogHistogram {
        let mut hist = LogHistogram::new();
        for &v in values {
            hist.record(v);
        }
        hist
    }

    #[test]
    fn mean_and_percentiles_of_known_samples() {
        let values: Vec<u64> = (1..=100).collect();
        let s = LatencySummary::by_worker(&[vec![hist_of(&values)]]);
        assert_eq!(s.samples, 100);
        assert!((s.mean_us - 50.5).abs() < 1e-9);
        assert!((s.max_avg_us - 50.5).abs() < 1e-9);
        // Nearest rank round(99·p) of 1..=100 is 51, 95, 99: reported as
        // the floors of their buckets (width 2 from 32, 4 from 64).
        assert_eq!(s.p50_us, 50);
        assert_eq!(s.p95_us, 92);
        assert_eq!(s.p99_us, 96);
        assert_eq!(s.max_us, 100);
    }

    #[test]
    fn record_many_matches_repeated_record() {
        let mut a = LogHistogram::new();
        a.record_n(7, 5);
        a.record_n(3, 0);
        assert_eq!(a, hist_of(&[7; 5]));
        assert_eq!(a.count(), 5);
    }

    #[test]
    fn summarize_reports_max_of_worker_means() {
        let s = LatencySummary::by_worker(&[vec![hist_of(&[100; 10]), hist_of(&[10_000; 10])]]);
        assert!((s.max_avg_us - 10_000.0).abs() < 1e-9);
        assert!((s.mean_us - 5_050.0).abs() < 1e-9);
        assert_eq!(s.samples, 20);
    }

    #[test]
    fn empty_histograms_summarize_to_zeros() {
        let empty = LogHistogram::new;
        for matrix in [
            vec![],
            vec![vec![]],
            vec![vec![empty(), empty()], vec![empty()]],
        ] {
            assert_eq!(
                LatencySummary::by_worker(&matrix),
                LatencySummary::default()
            );
        }
    }

    #[test]
    fn summarize_by_worker_matches_merged_per_worker_summarize() {
        // Phase-major matrix: 3 phases × 2 workers with distinct sample runs.
        let phase_major = vec![
            vec![hist_of(&[10, 20]), hist_of(&[1_000])],
            vec![hist_of(&[]), hist_of(&[2_000, 3_000])],
            vec![hist_of(&[30]), hist_of(&[4_000])],
        ];
        // Reference: merge each worker's phases by hand, then summarize.
        let merged = vec![
            hist_of(&[10, 20, 30]),
            hist_of(&[1_000, 2_000, 3_000, 4_000]),
        ];
        let s = LatencySummary::by_worker(&phase_major);
        assert_eq!(s, LatencySummary::by_worker(&[merged]));
        assert!((s.max_avg_us - 2_500.0).abs() < 1e-9);
        // A phase is summarized over its own row: worker means 15 and 1 000.
        let first = LatencySummary::by_worker(&phase_major[..1]);
        assert_eq!(first.samples, 3);
        assert!((first.max_avg_us - 1_000.0).abs() < 1e-9);
        // A worker that reported fewer phases than the others is short a
        // histogram, not out of bounds.
        let ragged = vec![vec![hist_of(&[10]), hist_of(&[50])], vec![hist_of(&[30])]];
        assert!((LatencySummary::by_worker(&ragged).max_avg_us - 50.0).abs() < 1e-9);
    }

    #[test]
    fn single_sample_summary() {
        let s = LatencySummary::by_worker(&[vec![hist_of(&[42])]]);
        assert_eq!(s.p50_us, 42);
        assert_eq!(s.p99_us, 42);
        assert_eq!(s.max_us, 42);
        assert!((s.mean_us - 42.0).abs() < 1e-12);
    }
}
