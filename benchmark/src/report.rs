//! The report: rounds of single-workload runs as child processes, every
//! metric with median, quartiles and sample count, `out/result.json`, and
//! the `--aa` comparison of two sets of rounds on the same binary.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use crate::catalog::{Metric, END_TO_END, PER_LAYER};
use crate::json::Value;
use crate::stats::{median, quartiles};
use crate::workloads::{Workload, WORKLOADS};

/// Children per workload behind every end-to-end median.
const ROUNDS: usize = 5;

/// Seconds each child measures for when `--seconds` is not given: five
/// rounds of four workloads plus the traced runs end in about two minutes.
const CHILD_SECONDS: u64 = 4;

pub struct Options {
    pub seed: u64,
    pub seconds: Option<u64>,
    pub trace: bool,
    pub aa: bool,
    pub quick: bool,
    pub extra: Vec<&'static Workload>,
}

/// Where result and trace files go: `out/` beside the benchmark's manifest.
pub fn out_dir() -> PathBuf {
    manifest_dir().join("out")
}

/// `cargo run` exports the manifest directory it was pointed at, which stays
/// right when a built tree is moved; the compile-time value covers a binary
/// started by hand.
fn manifest_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(manifest_dir())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// What a result or trace file must say about where it came from.
pub fn stamp(seed: u64) -> Value {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|model| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Value::obj([
        (
            "git_rev",
            Value::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        (
            "nproc",
            Value::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("cpu_model", Value::str(cpu_model)),
        ("rustc", Value::str(command_line("rustc", &["--version"]))),
        ("seed", Value::Num(seed as f64)),
    ])
}

/// One child's parsed result line.
struct Child {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

fn run_child(workload: &Workload, options: &Options, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name])
        .args(["--seed", &options.seed.to_string()])
        .args([
            "--seconds",
            &options.seconds.unwrap_or(CHILD_SECONDS).to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if options.quick {
        command.arg("--quick");
    }
    let output = command
        .output()
        .map_err(|e| format!("spawning the {} run: {e}", workload.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("the {} run printed no result line", workload.name))?;
    let value = Value::parse(line).map_err(|e| format!("{} result line: {e}", workload.name))?;
    let number = |key: &str| {
        value
            .get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{} result line lacks {key}", workload.name))
    };
    let metrics = value
        .get("metrics")
        .and_then(Value::as_obj)
        .ok_or_else(|| format!("{} result line lacks metrics", workload.name))?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(Child {
        attempted: number("attempted")? as u64,
        failed: number("failed")? as u64,
        metrics,
    })
}

/// All children of one workload in one set of rounds.
#[derive(Default)]
struct Collected {
    attempted: u64,
    failed: u64,
    /// Per end-to-end metric (catalogue order): one value per child.
    end_to_end: Vec<Vec<f64>>,
    /// Per per-layer metric (catalogue order): the traced child's value.
    per_layer: Vec<Option<f64>>,
}

/// Runs one full set: `rounds` × workloads in round-robin order, so machine
/// drift spreads over all workloads, then one traced child per workload.
fn run_set(workloads: &[&'static Workload], options: &Options) -> Result<Vec<Collected>, String> {
    let rounds = if options.quick { 1 } else { ROUNDS };
    let mut collected: Vec<Collected> = workloads
        .iter()
        .map(|_| Collected {
            end_to_end: vec![Vec::new(); END_TO_END.len()],
            per_layer: vec![None; PER_LAYER.len()],
            ..Collected::default()
        })
        .collect();
    for round in 0..rounds {
        for (workload, slot) in workloads.iter().zip(&mut collected) {
            eprintln!("round {}/{rounds}: {}", round + 1, workload.name);
            let child = run_child(workload, options, false)?;
            slot.attempted += child.attempted;
            slot.failed += child.failed;
            for (metric, values) in END_TO_END.iter().zip(&mut slot.end_to_end) {
                let value = child.metrics.iter().find(|(name, _)| name == metric.name);
                values.extend(value.map(|(_, v)| *v));
            }
        }
    }
    if options.trace {
        for (workload, slot) in workloads.iter().zip(&mut collected) {
            eprintln!("traced run: {}", workload.name);
            let child = run_child(workload, options, true)?;
            slot.attempted += child.attempted;
            slot.failed += child.failed;
            for (metric, value) in PER_LAYER.iter().zip(&mut slot.per_layer) {
                *value = child
                    .metrics
                    .iter()
                    .find(|(name, _)| name == metric.name)
                    .map(|(_, v)| *v);
            }
        }
    }
    Ok(collected)
}

fn metric_header(metric: &Metric) -> Vec<(&'static str, Value)> {
    let mut fields = vec![
        ("unit", Value::str(metric.unit)),
        ("better", Value::str(metric.better.as_str())),
        ("source", Value::str(metric.source)),
    ];
    if let Some(bound) = metric.bound {
        fields.push(("bound", Value::Num(bound)));
    }
    fields
}

fn print_row(workload: &Workload, metric: &Metric, mid: f64, q1: f64, q3: f64, n: usize) {
    println!(
        "{:<14} {:<40} {:<6} {:<7} {:>6} {:>14.6} {:>14.6} {:>14.6} {:>3}",
        workload.name,
        metric.name,
        metric.unit,
        metric.better.as_str(),
        metric.bound.map_or(String::new(), |b| b.to_string()),
        mid,
        q1,
        q3,
        n
    );
}

/// Prints the table and builds the `workloads` object of `result.json`.
/// Returns the names of metrics a workload failed to report.
fn summarize(
    workloads: &[&'static Workload],
    collected: &[Collected],
    trace: bool,
) -> (Value, Vec<String>) {
    let mut missing = Vec::new();
    let mut entries = Vec::new();
    println!(
        "{:<14} {:<40} {:<6} {:<7} {:>6} {:>14} {:>14} {:>14} {:>3}",
        "workload", "metric", "unit", "better", "bound", "median", "q1", "q3", "n"
    );
    for (workload, slot) in workloads.iter().zip(collected) {
        let mut end_to_end = Vec::new();
        for (metric, values) in END_TO_END.iter().zip(&slot.end_to_end) {
            if values.is_empty() {
                missing.push(format!("{}: {}", workload.name, metric.name));
                continue;
            }
            let (q1, q3) = quartiles(values);
            let mid = median(values);
            print_row(workload, metric, mid, q1, q3, values.len());
            let mut fields = metric_header(metric);
            fields.extend([
                ("median", Value::Num(mid)),
                ("q1", Value::Num(q1)),
                ("q3", Value::Num(q3)),
                ("n", Value::Num(values.len() as f64)),
                ("samples", Value::nums(values.iter().copied())),
            ]);
            end_to_end.push((metric.name, Value::obj(fields)));
        }
        let mut per_layer = Vec::new();
        for (metric, value) in PER_LAYER.iter().zip(&slot.per_layer) {
            let Some(value) = value else {
                if trace {
                    missing.push(format!("{}: {}", workload.name, metric.name));
                }
                continue;
            };
            // One traced run per workload: its value is median and both
            // quartiles of a sample of one.
            print_row(workload, metric, *value, *value, *value, 1);
            let mut fields = metric_header(metric);
            fields.extend([("median", Value::Num(*value)), ("n", Value::Num(1.0))]);
            per_layer.push((metric.name, Value::obj(fields)));
        }
        entries.push((
            workload.name,
            Value::obj([
                ("why", Value::str(workload.why)),
                ("gating", Value::Bool(workload.gating)),
                ("attempted", Value::Num(slot.attempted as f64)),
                ("failed", Value::Num(slot.failed as f64)),
                (
                    "failed_share",
                    Value::Num(slot.failed as f64 / slot.attempted.max(1) as f64),
                ),
                ("end_to_end", Value::obj(end_to_end)),
                ("per_layer", Value::obj(per_layer)),
            ]),
        ));
    }
    (Value::obj(entries), missing)
}

/// Compares two sets of rounds of the same binary: per gating workload ×
/// end-to-end metric, the gap between the two medians as a share of the
/// first, next to the bound. Returns the rows and how many gaps exceed it.
fn compare_sets(
    workloads: &[&'static Workload],
    first: &[Collected],
    second: &[Collected],
) -> (Value, usize) {
    let mut rows = Vec::new();
    let mut over = 0;
    println!(
        "\nA/A: two sets of rounds on the same binary\n{:<14} {:<20} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "median A", "median B", "gap", "bound"
    );
    for ((workload, a), b) in workloads.iter().zip(first).zip(second) {
        if !workload.gating {
            continue;
        }
        for (i, metric) in END_TO_END.iter().enumerate() {
            let (ma, mb) = (median(&a.end_to_end[i]), median(&b.end_to_end[i]));
            let gap = (mb - ma).abs() / ma.abs();
            let bound = metric.bound.expect("end-to-end metrics carry a bound");
            let verdict = if gap > bound { "OVER" } else { "" };
            over += usize::from(gap > bound);
            println!(
                "{:<14} {:<20} {:>14.6} {:>14.6} {:>7.2}% {:>5.1}% {verdict}",
                workload.name,
                metric.name,
                ma,
                mb,
                gap * 100.0,
                bound * 100.0
            );
            rows.push(Value::obj([
                ("workload", Value::str(workload.name)),
                ("metric", Value::str(metric.name)),
                ("median_a", Value::Num(ma)),
                ("median_b", Value::Num(mb)),
                ("gap", Value::Num(gap)),
                ("bound", Value::Num(bound)),
            ]));
        }
    }
    (Value::Arr(rows), over)
}

pub fn run(options: &Options) -> ExitCode {
    let workloads: Vec<&'static Workload> = WORKLOADS
        .iter()
        .chain(options.extra.iter().copied())
        .collect();
    let first = match run_set(&workloads, options) {
        Ok(collected) => collected,
        Err(message) => {
            eprintln!("slb-benchmark: {message}");
            return ExitCode::FAILURE;
        }
    };
    let (summary, missing) = summarize(&workloads, &first, options.trace);
    let mut document = vec![
        ("stamp", stamp(options.seed)),
        (
            "mode",
            Value::str(if options.quick { "quick" } else { "full" }),
        ),
        ("workloads", summary),
    ];
    let mut failed = false;
    for name in &missing {
        eprintln!("slb-benchmark: missing metric {name}");
        failed = true;
    }
    for (workload, slot) in workloads.iter().zip(&first) {
        if workload.gating && slot.failed > 0 {
            eprintln!(
                "slb-benchmark: {}: failed_share {} ({} of {})",
                workload.name,
                slot.failed as f64 / slot.attempted as f64,
                slot.failed,
                slot.attempted
            );
            failed = true;
        }
    }
    if options.aa {
        match run_set(&workloads, options) {
            Ok(second) => {
                let (rows, over) = compare_sets(&workloads, &first, &second);
                document.push(("aa", rows));
                if over > 0 {
                    eprintln!("slb-benchmark: {over} A/A gaps exceed their bound");
                    failed = true;
                }
            }
            Err(message) => {
                eprintln!("slb-benchmark: {message}");
                failed = true;
            }
        }
    }
    let file = out_dir().join(if options.quick {
        "result_quick.json"
    } else {
        "result.json"
    });
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&file, Value::obj(document).pretty()));
    match written {
        Ok(()) => println!("\nwrote {}", file.display()),
        Err(e) => {
            eprintln!("slb-benchmark: writing {}: {e}", file.display());
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
