//! One timed run of one workload: repetitions for `--seconds`, each with its
//! own set-up and a correctness check outside the timed region. A run's
//! end-to-end metrics are the decile of the per-repetition values on each
//! metric's better side (see [`better_decile`] for why not the median).

use std::time::{Duration, Instant};

use slb_engine::{diff_windows, EngineResult};
use slb_telemetry::{bucket_floor, LogHistogram, NUM_BUCKETS};

use crate::catalog::{Metric, END_TO_END, PER_LAYER};
use crate::json::Value;
use crate::stats::better_decile;
use crate::trace;
use crate::workloads::{Job, Size, Windows, Workload};

/// Fewest repetitions behind a run's values, however short `--seconds` is.
const MIN_REPS: usize = 3;

/// A run stops starting repetitions here even if `MIN_REPS` is not reached:
/// the driver allows 180 s per run.
const HARD_STOP: Duration = Duration::from_secs(120);

/// What a run reports: the driver's result line, plus the raw samples for
/// `result.json`.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// First divergence from the reference, when there is one.
    pub mismatch: Option<String>,
    /// `(metric, value)` in catalogue order.
    pub metrics: Vec<(&'static Metric, f64)>,
    /// Per-repetition samples behind each metric, same order.
    pub samples: Vec<Vec<f64>>,
}

/// CPU time this process has used so far, all threads, nanoseconds.
///
/// `/proc/self/stat` reports the same quantity in 10 ms ticks, which is
/// 1–2 % of a repetition; the clock the kernel keeps behind it is exact.
pub fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit fields
    // on every 64-bit Linux target, the only platform the benchmark runs
    // on), and the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set of this process so far (`VmHWM`), megabytes.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status reads");
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// One engine run with the wall and process CPU time the call took.
pub struct TimedRun {
    pub result: EngineResult,
    pub windows: Windows,
    /// Tuples processed per second of the whole call, input to complete
    /// result: thread start-up, socket set-up and result assembly count,
    /// which `EngineResult.elapsed_secs` leaves out in part.
    pub throughput_tps: f64,
    pub cpu_ns_per_tuple: f64,
}

pub fn timed_run(workload: &Workload, job: &Job) -> TimedRun {
    let cpu_before = process_cpu_ns();
    let started = Instant::now();
    let run = job.run(workload.backend);
    let wall = started.elapsed().as_secs_f64();
    let cpu = process_cpu_ns() - cpu_before;
    let tuples = run.result.processed.max(1) as f64;
    TimedRun {
        throughput_tps: tuples / wall,
        cpu_ns_per_tuple: cpu as f64 / tuples,
        result: run.result,
        windows: run.windows,
    }
}

/// The `p` quantile of a latency histogram in microseconds, interpolated
/// inside the bucket that holds it. `LogHistogram::quantile` reports the
/// bucket's floor, one of sixteen values per octave; a run's latency would
/// then read exactly the same on most runs and jump by 6 % on the others.
pub fn histogram_quantile(hist: &LogHistogram, p: f64) -> f64 {
    let rank = hist.count() as f64 * p;
    let mut below = 0.0;
    for (index, count) in hist.nonzero_buckets() {
        let count = count as f64;
        if below + count >= rank {
            let index = index as usize;
            let floor = bucket_floor(index) as f64;
            let next = bucket_floor((index + 1).min(NUM_BUCKETS - 1)) as f64;
            return floor + (next - floor) * (rank - below) / count;
        }
        below += count;
    }
    hist.max() as f64
}

/// Hottest worker's tuple count over the mean: `1 + workers × I(m)`. Unlike
/// the paper's `I(m)` it is never 0, so a relative bound applies to it.
pub fn max_load_ratio(result: &EngineResult) -> f64 {
    let max = result.worker_counts.iter().copied().max().unwrap_or(0) as f64;
    let mean = result.processed as f64 / result.worker_counts.len().max(1) as f64;
    max / mean
}

/// Checks a run against the reference: `(attempted, failed)` counted in
/// windows compared plus tuples sent.
fn check(run: &TimedRun, reference: &Windows, tuples: u64) -> (u64, u64) {
    let mut ids: Vec<_> = run.windows.keys().chain(reference.keys()).collect();
    ids.sort_unstable();
    ids.dedup();
    let differing = ids
        .iter()
        .filter(|id| run.windows.get(id) != reference.get(id))
        .count() as u64;
    let unprocessed = tuples.abs_diff(run.result.processed);
    (ids.len() as u64 + tuples, differing + unprocessed)
}

/// Runs `workload` at `seed` for `seconds` and reports the end-to-end
/// metrics. `quick` runs one smoke-size repetition instead.
pub fn run_end_to_end(workload: &Workload, seed: u64, seconds: u64, quick: bool) -> Outcome {
    let budget = Duration::from_secs(seconds);
    let min_reps = if quick { 1 } else { MIN_REPS };
    let started = Instant::now();
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
    let mut peak_rss = 0.0;
    let mut reference: Option<Windows> = None;
    let mut attempted = 0;
    let mut failed = 0;
    let mut mismatch = None;
    let mut reps = 0;
    while reps < min_reps || (!quick && started.elapsed() < budget) {
        if started.elapsed() > HARD_STOP {
            break;
        }
        // Set-up, as a later change could move work into it: resolve the
        // configuration and run the quarter-size warm-up that fills caches,
        // faults in the allocator's arenas and binds the sockets' ports.
        let setup_started = Instant::now();
        let job = workload.job(seed, quick, Size::Full);
        drop(
            workload
                .job(seed, quick, Size::Warmup)
                .run(workload.backend),
        );
        let setup_s = setup_started.elapsed().as_secs_f64();

        let run = timed_run(workload, &job);
        if reps == 0 {
            // Before the reference exists, so the peak is the system's own.
            peak_rss = peak_rss_mb();
        }
        let reference = reference.get_or_insert_with(|| job.reference());
        let (a, f) = check(&run, reference, job.tuples());
        attempted += a;
        failed += f;
        if f > 0 && mismatch.is_none() {
            mismatch = Some(diff_windows(&run.windows, reference).unwrap_or_else(|| {
                format!(
                    "{} of {} tuples processed",
                    run.result.processed,
                    job.tuples()
                )
            }));
        }
        let r = &run.result;
        for (slot, metric) in samples.iter_mut().zip(END_TO_END) {
            slot.push(match metric.name {
                "setup_s" => setup_s,
                "throughput_tps" => run.throughput_tps,
                "cpu_ns_per_tuple" => run.cpu_ns_per_tuple,
                "latency_p50_us" => histogram_quantile(&r.latency_histogram, 0.5),
                "max_load_ratio" => max_load_ratio(r),
                "state_replicas" => r.total_state_replicas() as f64,
                "peak_rss_mb" => peak_rss,
                "windows_finalized" => r.windows as f64,
                other => unreachable!("end-to-end metric {other} has no source"),
            });
        }
        reps += 1;
    }
    let metrics = END_TO_END
        .iter()
        .zip(&samples)
        .map(|(metric, values)| (metric, better_decile(values, metric.better)))
        .collect();
    Outcome {
        attempted,
        failed,
        mismatch,
        metrics,
        samples,
    }
}

/// The traced run of `workload` at `seed`: engine runs for about half of
/// `seconds` (their output checked like any other run), then the layer
/// replay. Returns the per-layer metrics and the span file's content.
pub fn run_traced(workload: &Workload, seed: u64, seconds: u64, quick: bool) -> (Outcome, Value) {
    let budget = Duration::from_secs(seconds) / 2;
    let min_runs = if quick { 1 } else { 2 };
    let started = Instant::now();
    let job = workload.job(seed, quick, Size::Full);
    drop(
        workload
            .job(seed, quick, Size::Warmup)
            .run(workload.backend),
    );
    let mut runs = Vec::new();
    while runs.len() < min_runs || (!quick && started.elapsed() < budget) {
        runs.push(timed_run(workload, &job));
    }
    let reference = job.reference();
    let mut attempted = 0;
    let mut failed = 0;
    let mut mismatch = None;
    for run in &runs {
        let (a, f) = check(run, &reference, job.tuples());
        attempted += a;
        failed += f;
        if f > 0 && mismatch.is_none() {
            mismatch = diff_windows(&run.windows, &reference);
        }
    }
    drop(reference);
    let traced = trace::trace(workload, &job, &runs);
    let metrics: Vec<(&'static Metric, f64)> = PER_LAYER
        .iter()
        .map(|metric| {
            let value = traced
                .metrics
                .iter()
                .find(|(name, _)| *name == metric.name)
                .unwrap_or_else(|| panic!("the traced run produced no {}", metric.name));
            (metric, value.1)
        })
        .collect();
    let samples = metrics.iter().map(|(_, value)| vec![*value]).collect();
    let outcome = Outcome {
        attempted,
        failed,
        mismatch,
        metrics,
        samples,
    };
    (outcome, traced.spans)
}
