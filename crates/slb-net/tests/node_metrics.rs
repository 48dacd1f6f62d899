//! End-to-end live-metrics test for `slb-node orchestrate --metrics-dir`.
//!
//! One supervised run with periodic snapshots enabled, then three layers of
//! assertions over `metrics.jsonl` (see docs/OBSERVABILITY.md); a run
//! without `--fault-tolerant` streams its periodic snapshots too:
//!
//! 1. **Stream shape** — every line is a JSON object; periodic
//!    (`"final":false`) snapshots actually arrive at the configured
//!    cadence; every stage instance ships exactly one final snapshot; the
//!    cluster rollup is the last line.
//! 2. **Rollup consistency** — the rollup in the file is the same snapshot
//!    the report prints as `cluster_metrics ...`, field for field, and its
//!    hop record is the sum of the report's three `transport <role>` lines.
//! 3. **Semantic cross-check** — rollup counters tie back to the run
//!    report's own numbers: `latency_count` is every worker tuple plus
//!    every finalized window (the two latency populations), and
//!    `checkpoints` is one durable save per worker per window.

use std::path::PathBuf;
use std::process::Command;

fn node_exe() -> &'static str {
    env!("CARGO_BIN_EXE_slb-node")
}

/// Pulls the integer that follows `prefix` out of a report line.
fn parse_counter(stdout: &str, prefix: &str) -> u64 {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix(prefix))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse::<u64>().ok())
        .unwrap_or_else(|| panic!("missing `{prefix}` report line in:\n{stdout}"))
}

/// Pulls `word=N` out of a space-separated report line body.
fn parse_field(line: &str, field: &str) -> u64 {
    line.split_whitespace()
        .find_map(|w| w.strip_prefix(&format!("{field}=")))
        .and_then(|n| n.parse::<u64>().ok())
        .unwrap_or_else(|| panic!("missing `{field}=` in report line: {line}"))
}

/// Pulls `"key":N` out of one JSONL line (the hand-rolled encoder never
/// nests objects, so a plain scan is exact).
fn json_u64(line: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let at = line
        .find(&needle)
        .unwrap_or_else(|| panic!("missing `{needle}` in JSONL line: {line}"));
    line[at + needle.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("`{needle}` not followed by an integer in: {line}"))
}

/// Runs the suite's one cluster — ~400 ms of pure service time across 3
/// workers, `--verify`, `--metrics-dir`, supervised if `fault_tolerant` —
/// with periodic snapshots every `interval_ms`, and returns the report and
/// the metrics stream of a run that succeeded and matched the exact
/// reference.
fn run_with_metrics_every(
    interval_ms: u64,
    fault_tolerant: bool,
) -> (String, std::io::Result<String>) {
    let seed = std::env::var("SLB_TEST_SEED").unwrap_or_else(|_| "42".into());
    let spec = format!(
        "# metrics golden: supervised run with a live metrics stream\n\
         mode engine\n\
         scheme PKG\n\
         sources 2\n\
         workers 3\n\
         keys 500\n\
         skew 1.6\n\
         messages 24576\n\
         service_time_us 50\n\
         queue_capacity 256\n\
         seed {seed}\n\
         batch_size 64\n\
         window_size 256\n\
         aggregators 2\n"
    );
    let tag = format!("{}-{interval_ms}-{fault_tolerant}", std::process::id());
    let spec_path = std::env::temp_dir().join(format!("slb-node-metrics-{tag}.spec"));
    std::fs::write(&spec_path, &spec).expect("write spec file");
    let dir: PathBuf = std::env::temp_dir().join(format!("slb-node-metrics-dir-{tag}"));
    let mut orchestrate = Command::new(node_exe());
    orchestrate
        .arg("orchestrate")
        .arg("--spec")
        .arg(&spec_path)
        .arg("--verify")
        .arg("--metrics-dir")
        .arg(&dir)
        .arg("--metrics-interval-ms")
        .arg(interval_ms.to_string());
    if fault_tolerant {
        orchestrate.arg("--fault-tolerant");
    }
    let output = orchestrate.output().expect("spawn slb-node orchestrate");
    let _ = std::fs::remove_file(&spec_path);
    let jsonl = std::fs::read_to_string(dir.join("metrics.jsonl"));
    let _ = std::fs::remove_dir_all(&dir);
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "orchestrate failed\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stdout.contains("exact-reference=MATCH"),
        "metrics collection must not perturb the counts\n{stdout}\n{stderr}"
    );
    (stdout, jsonl)
}

/// A metrics interval far longer than the run must cost nothing: the timer
/// is one entry in each node's control loop, and the end of the stage wakes
/// that loop at once — nobody sits out the interval before reporting.
#[test]
fn a_long_metrics_interval_does_not_delay_the_run() {
    let started = std::time::Instant::now();
    let (_, jsonl) = run_with_metrics_every(30_000, true);
    let elapsed = started.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(10),
        "a ~0.5 s run took {elapsed:?} under a 30 s metrics interval"
    );
    let jsonl = jsonl.expect("orchestrate must write metrics.jsonl under --metrics-dir");
    let periodic = jsonl.lines().filter(|l| l.contains("\"final\":false"));
    assert_eq!(periodic.count(), 0, "no tick was due\n{jsonl}");
    assert_eq!(
        jsonl.lines().count(),
        8,
        "seven finals and the rollup\n{jsonl}"
    );
}

/// Periodic snapshots come from every node's control loop, which every run
/// has: `--fault-tolerant` adds durability and respawn, not telemetry.
#[test]
fn a_run_without_fault_tolerance_streams_periodic_metrics_too() {
    let (_, jsonl) = run_with_metrics_every(20, false);
    let jsonl = jsonl.expect("orchestrate must write metrics.jsonl under --metrics-dir");
    let periodic = jsonl.lines().filter(|l| l.contains("\"final\":false"));
    let periodic = periodic.count();
    assert!(
        periodic >= 3,
        "expected several periodic snapshots at a 20 ms cadence over a \
         ~400 ms run, got {periodic}\n{jsonl}"
    );
    let finals = jsonl.lines().filter(|l| l.contains("\"final\":true"));
    assert_eq!(finals.count(), 8, "seven finals and the rollup\n{jsonl}");
}

#[test]
fn orchestrate_streams_metrics_jsonl_with_consistent_rollup() {
    // Sampled every 25 ms: periodic snapshots are guaranteed several times
    // over.
    let (stdout, jsonl) = run_with_metrics_every(25, true);
    let jsonl = jsonl.expect("orchestrate must write metrics.jsonl under --metrics-dir");
    let lines: Vec<&str> = jsonl.lines().collect();
    assert!(!lines.is_empty(), "metrics.jsonl is empty");
    for line in &lines {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "metrics.jsonl line is not a JSON object: {line}"
        );
    }

    // 1. Stream shape.
    let periodic = lines
        .iter()
        .filter(|l| l.contains("\"final\":false"))
        .count();
    assert!(
        periodic >= 3,
        "expected several periodic snapshots at a 25 ms cadence over a \
         ~400 ms run, got {periodic}\n{jsonl}"
    );
    // One final snapshot per stage instance (2 sources + 3 workers +
    // 2 aggregators), plus the cluster rollup.
    let finals: Vec<&&str> = lines
        .iter()
        .filter(|l| l.contains("\"final\":true"))
        .collect();
    assert_eq!(
        finals.len(),
        8,
        "expected one final snapshot per node plus the rollup\n{jsonl}"
    );
    let rollup = *lines.last().expect("non-empty");
    assert!(
        rollup.contains("\"stage\":\"cluster\""),
        "the cluster rollup must be the last JSONL line, got: {rollup}"
    );

    // 2. The file's rollup and the report's `cluster_metrics` line are the
    // same snapshot.
    let cluster_line = stdout
        .lines()
        .find(|l| l.starts_with("cluster_metrics "))
        .unwrap_or_else(|| panic!("missing cluster_metrics report line\n{stdout}"));
    for field in [
        "windows_closed",
        "checkpoints",
        "batches_sent",
        "tuples_sent",
        "queue_depth_hwm",
        "latency_count",
    ] {
        assert_eq!(
            json_u64(rollup, field),
            parse_field(cluster_line, field),
            "rollup `{field}` diverged between metrics.jsonl and the report"
        );
    }

    // ... and its hop record is the run report's: the rollup folds the same
    // stage reports `assemble_result` merged into `EngineResult.transport`,
    // by the same `HopStats::merge`.
    let roles: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("transport "))
        .collect();
    assert_eq!(roles.len(), 3, "one transport line per role\n{stdout}");
    for field in ["tuples_sent", "tuples_received", "send_stall_us"] {
        let summed: u64 = roles.iter().map(|l| parse_field(l, field)).sum();
        assert_eq!(
            json_u64(rollup, field),
            summed,
            "rollup `{field}` is not the sum over the report's three roles\n{stdout}"
        );
    }

    // 3. Rollup counters tie back to the run's own report and to the
    // per-node finals: the rollup must be exactly the fold of the final
    // snapshots (counters sum), its latency population must cover at least
    // every worker tuple (the aggregators add their close→merge samples on
    // top), and checkpointing saves once per worker per window.
    let processed = parse_counter(&stdout, "scheme=PKG processed=");
    let windows = parse_field(stdout.lines().next().expect("report line"), "windows");
    for field in ["items", "windows_closed", "checkpoints", "latency_count"] {
        let summed: u64 = finals
            .iter()
            .filter(|l| !l.contains("\"stage\":\"cluster\""))
            .map(|l| json_u64(l, field))
            .sum();
        assert_eq!(
            json_u64(rollup, field),
            summed,
            "rollup `{field}` is not the fold of the per-node finals\n{jsonl}"
        );
    }
    assert!(
        json_u64(rollup, "latency_count") >= processed,
        "rollup latency_count must cover at least every worker tuple\n{rollup}"
    );
    assert_eq!(
        json_u64(rollup, "checkpoints"),
        3 * windows,
        "every worker must checkpoint every window\n{rollup}"
    );
    assert_eq!(
        json_u64(rollup, "restores"),
        0,
        "a fault-free run must not restore\n{rollup}"
    );
    // The latency histogram travels with the rollup: quantiles are
    // derivable (present exactly when latency_count > 0).
    assert!(
        rollup.contains("\"latency_p99_us\":"),
        "rollup with samples must carry derived percentiles\n{rollup}"
    );
}
