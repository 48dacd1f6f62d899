//! `bench_compare`'s verdicts, on stub executables that print fixed result
//! lines in `slb-benchmark`'s format. No test runs the real benchmark.

use std::collections::HashMap;
use std::os::unix::fs::PermissionsExt;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use slb_benchmark::json::Value;

/// A fresh temporary directory of its own for each test.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench-compare-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temporary dir");
    dir
}

/// Writes an executable stub that ignores its workload and prints one noise
/// line, then a result line. Its timing metrics are `slow` times worse than
/// the baseline (throughput divided, CPU and latency multiplied), and a
/// further 1.4 times worse on odd seeds when `spread` is set; `correct` goes
/// into the result as given.
fn stub(dir: &Path, name: &str, slow: f64, spread: bool, correct: bool) -> String {
    let result = |factor: f64| {
        let metrics = [
            ("setup_s", 0.05),
            ("throughput_tps", 1e7 / factor),
            ("cpu_ns_per_tuple", 200.0 * factor),
            ("latency_p50_us", 500.0 * factor),
            ("max_load_ratio", 1.0),
            ("state_replicas", 1000.0),
            ("peak_rss_mb", 70.0),
            ("windows_finalized", 160.0),
        ];
        let metrics: Vec<String> = metrics
            .iter()
            .map(|(name, value)| format!("\"{name}\": {{\"value\": {value}, \"unit\": \"x\"}}"))
            .collect();
        let metrics = metrics.join(", ");
        format!("{{\"correct\": {correct}, \"attempted\": 100, \"failed\": 0, \"metrics\": {{{metrics}}}}}")
    };
    let odd = if spread { slow * 1.4 } else { slow };
    let script = format!(
        "#!/bin/sh\n\
         echo 'a line that is not the result'\n\
         if [ $(($4 % 2)) -eq 1 ]; then echo '{}'; else echo '{}'; fi\n",
        result(odd),
        result(slow)
    );
    let path = dir.join(name);
    std::fs::write(&path, script).expect("write stub");
    std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o755)).expect("chmod stub");
    path.to_string_lossy().into_owned()
}

/// Runs `bench_compare` over the repo's `BENCHMARK.json` cut down to its
/// `route_hot` workload, written into `dir`.
fn bench_compare(dir: &Path, args: &[&str]) -> Output {
    let repo = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(repo).expect("read BENCHMARK.json");
    let Value::Obj(mut fields) = Value::parse(&text).expect("BENCHMARK.json parses") else {
        panic!("BENCHMARK.json is not an object");
    };
    for (key, value) in &mut fields {
        if key == "workloads" {
            *value = Value::Arr(vec![Value::obj([("name", Value::str("route_hot"))])]);
        }
    }
    let benchmark = dir.join("BENCHMARK.json");
    std::fs::write(&benchmark, Value::Obj(fields).to_string()).expect("write BENCHMARK.json");
    Command::new(env!("CARGO_BIN_EXE_bench_compare"))
        .arg("--benchmark")
        .arg(&benchmark)
        .args(["--seconds", "1"])
        .args(args)
        .output()
        .expect("spawn bench_compare")
}

/// The verdict column of every `route_hot` row, by metric.
fn verdicts(output: &Output) -> HashMap<String, String> {
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "bench_compare failed\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let rows: HashMap<String, String> = stdout
        .lines()
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .filter(|row| row.first() == Some(&"route_hot"))
        .map(|row| (row[1].to_string(), row[6].to_string()))
        .collect();
    assert_eq!(rows.len(), 8, "one row per end-to-end metric\n{stdout}");
    rows
}

#[test]
fn an_a_a_comparison_reads_neutral() {
    let dir = fresh_dir("aa");
    let same = stub(&dir, "same", 1.0, false, true);
    let rows = verdicts(&bench_compare(
        &dir,
        &["--parent", &same, "--change", &same, "--pairs", "4"],
    ));
    assert!(rows.values().all(|v| v == "neutral"), "{rows:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_change_ten_percent_slower_reads_regress() {
    let dir = fresh_dir("slow");
    let parent = stub(&dir, "parent", 1.0, false, true);
    let change = stub(&dir, "change", 1.1, false, true);
    let rows = verdicts(&bench_compare(
        &dir,
        &["--parent", &parent, "--change", &change, "--pairs", "4"],
    ));
    for metric in ["throughput_tps", "cpu_ns_per_tuple", "latency_p50_us"] {
        assert_eq!(rows[metric], "regress", "{metric}: {rows:?}");
    }
    assert_eq!(rows["peak_rss_mb"], "neutral");
    // The same stubs the other way round.
    let rows = verdicts(&bench_compare(
        &dir,
        &["--parent", &change, "--change", &parent, "--pairs", "4"],
    ));
    assert_eq!(rows["cpu_ns_per_tuple"], "gain", "{rows:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_parent_with_a_forty_percent_spread_reads_unresolved() {
    let dir = fresh_dir("spread");
    let noisy = stub(&dir, "noisy", 1.0, true, true);
    let rows = verdicts(&bench_compare(
        &dir,
        &["--parent", &noisy, "--change", &noisy, "--pairs", "4"],
    ));
    for metric in ["throughput_tps", "cpu_ns_per_tuple", "latency_p50_us"] {
        assert_eq!(rows[metric], "unresolved", "{metric}: {rows:?}");
    }
    assert_eq!(rows["windows_finalized"], "neutral");
    // The same noisy parent against a change every run of which is faster
    // than every parent run: the spread no longer leaves it open.
    let fast = stub(&dir, "fast", 0.5, false, true);
    let rows = verdicts(&bench_compare(
        &dir,
        &["--parent", &noisy, "--change", &fast, "--pairs", "4"],
    ));
    for metric in ["throughput_tps", "cpu_ns_per_tuple", "latency_p50_us"] {
        assert_eq!(rows[metric], "gain", "{metric}: {rows:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--anchor` adds the change ÷ anchor column, and `--history` appends one
/// row that carries it with the ratios and the verdicts.
#[test]
fn an_anchored_comparison_appends_a_stamped_history_row() {
    let dir = fresh_dir("history");
    let same = stub(&dir, "same", 1.0, false, true);
    let anchor = stub(&dir, "anchor", 1.25, false, true);
    let history = dir.join("history.jsonl");
    let history_arg = history.to_string_lossy().into_owned();
    let args = [
        "--parent",
        &same,
        "--change",
        &same,
        "--anchor",
        &anchor,
        "--pairs",
        "3",
        "--history",
        &history_arg,
        "--commit",
        "abc1234",
    ];
    verdicts(&bench_compare(&dir, &args));
    let text = std::fs::read_to_string(&history).expect("history written");
    assert_eq!(text.lines().count(), 1);
    let row = Value::parse(text.trim()).expect("history row is JSON");
    assert_eq!(row.get("commit").and_then(Value::as_str), Some("abc1234"));
    assert_eq!(row.get("all_runs_correct"), Some(&Value::Bool(true)));
    let cpu = row
        .get("workloads")
        .and_then(|w| w.get("route_hot"))
        .and_then(|w| w.get("cpu_ns_per_tuple"));
    let cpu = cpu.expect("a cpu row");
    assert_eq!(cpu.get("verdict").and_then(Value::as_str), Some("neutral"));
    assert_eq!(cpu.get("ratio").and_then(Value::as_f64), Some(1.0));
    let anchor_ratio = cpu
        .get("anchor_ratio")
        .and_then(Value::as_f64)
        .expect("anchor ratio");
    assert!((anchor_ratio - 0.8).abs() < 1e-6, "{anchor_ratio}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_incorrect_run_fails_the_comparison_and_a_bad_flag_is_refused() {
    let dir = fresh_dir("incorrect");
    let good = stub(&dir, "good", 1.0, false, true);
    let wrong = stub(&dir, "wrong", 1.0, false, false);
    let output = bench_compare(
        &dir,
        &["--parent", &good, "--change", &wrong, "--pairs", "1"],
    );
    assert_eq!(output.status.code(), Some(1));
    let output = bench_compare(
        &dir,
        &["--parent", &good, "--change", &good, "--pears", "1"],
    );
    assert_eq!(output.status.code(), Some(2));
    let output = bench_compare(&dir, &["--parent", &good]);
    assert_eq!(output.status.code(), Some(2));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `stub` of the baseline that first runs `prelude`.
fn stub_after(dir: &Path, name: &str, prelude: &str) -> String {
    let path = stub(dir, name, 1.0, false, true);
    let script = std::fs::read_to_string(&path).expect("read stub");
    let script = script.replacen("#!/bin/sh\n", &format!("#!/bin/sh\n{prelude}"), 1);
    std::fs::write(&path, script).expect("write stub");
    path
}

/// Runs `exe` as both sides for three pairs and returns the `user_s` it read
/// for every run: from the stdout table (the median per side), from each
/// `--raw` line, and from the history row (the median per side).
fn user_seconds(dir: &Path, exe: &str) -> Vec<f64> {
    let raw = PathBuf::from(format!("{exe}.raw.jsonl"));
    let history = PathBuf::from(format!("{exe}.history.jsonl"));
    let (raw_arg, history_arg) = (raw.to_string_lossy(), history.to_string_lossy());
    let args = [
        "--parent",
        exe,
        "--change",
        exe,
        "--pairs",
        "3",
        "--raw",
        &raw_arg,
        "--history",
        &history_arg,
        "--commit",
        "cpu",
    ];
    let output = bench_compare(dir, &args);
    verdicts(&output);
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut seconds: Vec<f64> = stdout
        .lines()
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .filter(|row| matches!(row.first(), Some(&"parent" | &"change")) && row[1] == "route_hot")
        .map(|row| row[2].parse().expect("user_s is a number"))
        .collect();
    assert_eq!(seconds.len(), 2, "one cpu line per side\n{stdout}");
    let raw = std::fs::read_to_string(&raw).expect("raw written");
    for line in raw.lines() {
        let run = Value::parse(line).expect("raw line is JSON");
        assert!(run.get("sys_s").and_then(Value::as_f64).is_some(), "{line}");
        seconds.push(run.get("user_s").and_then(Value::as_f64).expect("user_s"));
    }
    assert_eq!(seconds.len(), 2 + 6, "one raw line per run");
    let row = std::fs::read_to_string(&history).expect("history written");
    let row = Value::parse(row.trim()).expect("history row is JSON");
    let user = row
        .get("cpu")
        .and_then(|cpu| cpu.get("route_hot"))
        .and_then(|w| w.get("user_s"))
        .expect("a user_s entry");
    assert!(user.get("ratio").and_then(Value::as_f64).is_some());
    for side in ["parent", "change"] {
        seconds.push(user.get(side).and_then(Value::as_f64).expect("a side"));
    }
    seconds
}

/// Each run's CPU is its own child's: a stub that spins for 0.3 s of CPU
/// reads at least 0.1 s of `user`, one that only sleeps under 0.05 s.
#[test]
fn each_run_records_its_childs_user_and_sys_seconds() {
    let dir = fresh_dir("cpu");
    // `times` in the shell itself, not in a subshell, reports its own CPU.
    let busy = stub_after(
        &dir,
        "busy",
        "while :; do\n\
         i=0; while [ $i -lt 1000 ]; do i=$((i + 1)); done\n\
         times > \"$0.times\"; read user rest < \"$0.times\"\n\
         case $user in 0m0.[0-2]*) ;; *) break ;; esac\n\
         done\n",
    );
    let seconds = user_seconds(&dir, &busy);
    assert!(seconds.iter().all(|&s| s >= 0.1), "{seconds:?}");
    let sleepy = stub_after(&dir, "sleepy", "sleep 0.3\n");
    let seconds = user_seconds(&dir, &sleepy);
    assert!(seconds.iter().all(|&s| s < 0.05), "{seconds:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
