//! `bench_compare`: one command that compares two (or three) built
//! `slb-benchmark` executables on the repo benchmark's own workloads and
//! bounds.
//!
//! ```text
//! bench_compare --parent <exe> --change <exe> [--anchor <exe>]
//!               [--pairs 10] [--seconds 25] [--seed-base 6001]
//!               [--benchmark BENCHMARK.json]
//!               [--history <file.jsonl> --commit <label>] [--raw <file.jsonl>]
//! ```
//!
//! Each pair runs every workload once per executable, all on the pair's
//! seed (`--seed-base` + pair), as
//! `<exe> --workload <w> --seed <n> --seconds <s> --trace 0`, and reads the
//! result JSON the executable prints as its last stdout line. The order of
//! the executables rotates per pair and per workload, so no side always runs
//! first. For every workload × end-to-end metric of `BENCHMARK.json` it
//! prints, over the pairs, with the benchmark's own medians and quartiles
//! (`slb_benchmark::stats`, Python's exclusive method):
//!
//! * `ratio` — the median of the per-pair ratios change ÷ parent;
//! * `won` — the pairs in which the change is strictly better;
//! * `spread` — the parent's quartile distance over its median;
//! * `gap` — the change's median minus the parent's, over the parent's;
//! * `verdict` — `unresolved` when there are fewer than three pairs, or when
//!   `spread` exceeds the metric's bound (the parent's own runs disagree by
//!   more than the bound) unless every change run is better than every
//!   parent run; else `gain` when the
//!   change wins at least 9 pairs in 10 and `gap` is wider than `spread` in
//!   the change's favour, `regress` when it loses 9 in 10 with `gap` wider
//!   than `spread` against it — or when `gap` is past the bound against it —
//!   and `neutral` otherwise;
//! * `anchor` — with `--anchor`, the median of the ratios change ÷ anchor.
//!
//! Each run's `user` and `sys` CPU seconds are the change in this process's
//! own `cutime` / `cstime` (`/proc/self/stat`) around reaping its child. A
//! second table prints their medians per workload and side, and on the
//! change's line the median of the per-pair ratios change ÷ parent.
//!
//! `--history` appends one stamped row (commit label, box, date, ratios,
//! verdicts, CPU seconds) to a JSON-lines file; `--raw` appends every run's
//! result line with its CPU seconds and whether it was `ok`.
//! A run whose last stdout line is no result (it does not parse, or lacks a
//! metric) is a failed run: its raw line holds that line as a string, its
//! pair leaves that workload's summaries (`won` counts the pairs kept), and
//! the set goes on.
//! The exit code is 1 when any run failed, printed a result that is not
//! `correct`, or reported failed operations; 2 on a usage error.

use std::fs::OpenOptions;
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{SystemTime, UNIX_EPOCH};

use slb_benchmark::json::Value;
use slb_benchmark::stats::{median, quartiles};

const USAGE: &str = "usage: bench_compare --parent <exe> --change <exe> [--anchor <exe>] \
[--pairs N] [--seconds S] [--seed-base N] [--benchmark PATH] \
[--history PATH --commit LABEL] [--raw PATH]";

/// The sides of a comparison, in the order of their executables.
const SIDES: [&str; 3] = ["parent", "change", "anchor"];

struct Args {
    exes: Vec<String>,
    pairs: u64,
    seconds: u64,
    seed_base: u64,
    benchmark: PathBuf,
    history: Option<(PathBuf, String)>,
    raw: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let (mut parent, mut change, mut anchor) = (None, None, None);
    let (mut history, mut commit) = (None, None);
    let mut args = Args {
        exes: Vec::new(),
        pairs: 10,
        seconds: 25,
        seed_base: 6001,
        benchmark: PathBuf::from("BENCHMARK.json"),
        history: None,
        raw: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--parent" => parent = Some(value()?),
            "--change" => change = Some(value()?),
            "--anchor" => anchor = Some(value()?),
            "--pairs" => args.pairs = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?,
            "--seed-base" => args.seed_base = number(value()?)?,
            "--benchmark" => args.benchmark = PathBuf::from(value()?),
            "--history" => history = Some(PathBuf::from(value()?)),
            "--commit" => commit = Some(value()?),
            "--raw" => args.raw = Some(PathBuf::from(value()?)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let (Some(parent), Some(change)) = (parent, change) else {
        return Err("--parent and --change are required".to_string());
    };
    if args.pairs == 0 {
        return Err("--pairs must be at least 1".to_string());
    }
    args.exes = [Some(parent), Some(change), anchor]
        .into_iter()
        .flatten()
        .collect();
    args.history = match (history, commit) {
        (Some(path), Some(commit)) => Some((path, commit)),
        (None, None) => None,
        _ => return Err("--history and --commit go together".to_string()),
    };
    Ok(args)
}

/// One end-to-end metric of `BENCHMARK.json`.
struct Metric {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

/// The workload names and end-to-end metrics `BENCHMARK.json` declares.
fn read_benchmark(path: &PathBuf) -> Result<(Vec<String>, Vec<Metric>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let field = |v: &Value, key: &str| -> Result<Value, String> {
        v.get(key)
            .cloned()
            .ok_or(format!("{}: no {key}", path.display()))
    };
    let items = |v: Value| v.as_arr().map(<[Value]>::to_vec).unwrap_or_default();
    let workloads = items(field(&doc, "workloads")?)
        .iter()
        .map(|w| Ok(field(w, "name")?.as_str().unwrap_or_default().to_string()))
        .collect::<Result<_, String>>()?;
    let metrics = items(field(&doc, "end_to_end")?)
        .iter()
        .map(|m| {
            Ok(Metric {
                name: field(m, "name")?.as_str().unwrap_or_default().to_string(),
                lower_is_better: field(m, "better")?.as_str() == Some("lower"),
                bound: field(m, "bound")?
                    .as_f64()
                    .ok_or("a bound is not a number")?,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok((workloads, metrics))
}

/// One run's result: whether it was correct and without failed operations,
/// the value of every metric, in `metrics` order (or why its result line
/// gave none), and the child's CPU.
struct Run {
    ok: bool,
    values: Result<Vec<f64>, String>,
    cpu: [f64; 2],
}

/// The CPU kinds a run records, in `Run::cpu` order.
const CPU: [&str; 2] = ["user_s", "sys_s"];

/// The `user` and `sys` clock ticks (1/100 s) of this process's reaped
/// children so far: fields 16 and 17 of `/proc/self/stat`, counted after the
/// parenthesised command name, which may itself hold spaces.
fn children_ticks() -> [u64; 2] {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after_name = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after_name.split_whitespace().collect();
    let ticks = |field: usize| fields.get(field - 3).and_then(|v| v.parse().ok());
    [ticks(16).unwrap_or(0), ticks(17).unwrap_or(0)]
}

/// The metric values of a result line, in `metrics` order, and whether it
/// reads `correct` with no failed operations.
fn read_result(line: &str, metrics: &[Metric]) -> Result<(Vec<f64>, bool), String> {
    let result = Value::parse(line).map_err(|e| format!("{e} in {line:?}"))?;
    let values = metrics
        .iter()
        .map(|m| {
            let value = result
                .get("metrics")
                .and_then(|all| all.get(&m.name))
                .and_then(|v| v.get("value"));
            value
                .and_then(Value::as_f64)
                .ok_or(format!("no {}", m.name))
        })
        .collect::<Result<_, String>>()?;
    let correct = result.get("correct") == Some(&Value::Bool(true));
    let failed = result.get("failed").and_then(Value::as_f64).unwrap_or(1.0);
    Ok((values, correct && failed == 0.0))
}

fn run_once(
    exe: &str,
    workload: &str,
    seed: u64,
    seconds: u64,
    metrics: &[Metric],
) -> Result<(Run, String), String> {
    let args = [
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
        "--trace",
        "0",
    ];
    let before = children_ticks();
    let output = Command::new(exe)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .map_err(|e| format!("{exe}: {e}"))?;
    let after = children_ticks();
    let cpu = [0, 1].map(|k| after[k].saturating_sub(before[k]) as f64 / 100.0);
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or_default()
        .to_string();
    let read = read_result(&line, metrics);
    let ok = output.status.success() && read.as_ref().is_ok_and(|&(_, good)| good);
    let values = read.map(|(values, _)| values);
    Ok((Run { ok, values, cpu }, line))
}

fn ratio(value: f64, of: f64) -> f64 {
    match (value, of) {
        (v, o) if v == o => 1.0,
        (v, o) => v / o,
    }
}

/// One workload × metric, summarised over the pairs.
struct Row {
    ratio: f64,
    won: usize,
    spread: f64,
    gap: f64,
    verdict: &'static str,
    anchor: Option<f64>,
}

fn summarise(metric: &Metric, runs: &[Vec<f64>]) -> Row {
    let (parent, change) = (&runs[0], &runs[1]);
    let pairs = parent.len();
    let ratios: Vec<f64> = change
        .iter()
        .zip(parent)
        .map(|(&c, &p)| ratio(c, p))
        .collect();
    let better = |c: f64, p: f64| if metric.lower_is_better { c < p } else { c > p };
    let won = change
        .iter()
        .zip(parent)
        .filter(|(&c, &p)| better(c, p))
        .count();
    let lost = change
        .iter()
        .zip(parent)
        .filter(|(&c, &p)| better(p, c))
        .count();
    let parent_median = median(parent);
    let scale = if parent_median == 0.0 {
        1.0
    } else {
        parent_median.abs()
    };
    let (q1, q3) = quartiles(parent);
    let spread = (q3 - q1) / scale;
    let gap = (median(change) - parent_median) / scale;
    // Positive when the change's median is the better one.
    let gain = if metric.lower_is_better { -gap } else { gap };
    // A spread wider than the bound leaves the comparison open, unless the
    // two sides do not overlap at all.
    let dominates = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    let verdict = if pairs < 3 || (spread > metric.bound && !dominates) {
        "unresolved"
    } else if won * 10 >= pairs * 9 && gain > spread {
        "gain"
    } else if (lost * 10 >= pairs * 9 && -gain > spread) || -gain > metric.bound {
        "regress"
    } else {
        "neutral"
    };
    let anchor = runs.get(2).map(|anchor| {
        let ratios: Vec<f64> = change
            .iter()
            .zip(anchor)
            .map(|(&c, &a)| ratio(c, a))
            .collect();
        median(&ratios)
    });
    Row {
        ratio: median(&ratios),
        won,
        spread,
        gap,
        verdict,
        anchor,
    }
}

/// What the comparison ran on: the CPU model and the usable cores.
fn box_label() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .and_then(|r| r.split(':').nth(1))
        })
        .map_or("unknown cpu", str::trim);
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!("{model}, {cores} cores")
}

fn append_line(path: &PathBuf, line: &str) -> Result<(), String> {
    let mut file = OpenOptions::new().create(true).append(true).open(path);
    let file = file
        .as_mut()
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(file, "{line}").map_err(|e| format!("{}: {e}", path.display()))
}

fn compare(args: &Args) -> Result<bool, String> {
    let (workloads, metrics) = read_benchmark(&args.benchmark)?;
    let sides = args.exes.len();
    // values[workload][side][metric][pair], cpu[workload][side][kind][pair]
    let mut values = vec![vec![vec![Vec::new(); metrics.len()]; sides]; workloads.len()];
    let mut cpu = vec![vec![vec![Vec::new(); CPU.len()]; sides]; workloads.len()];
    let mut all_ok = true;
    for pair in 0..args.pairs {
        let seed = args.seed_base + pair;
        for (w, workload) in workloads.iter().enumerate() {
            // A pair in which some side's result line gave no values leaves
            // this workload's summaries.
            let mut pair_runs = vec![None; sides];
            for turn in 0..sides {
                let side = (turn + pair as usize + w) % sides;
                let (run, line) =
                    run_once(&args.exes[side], workload, seed, args.seconds, &metrics)?;
                let error = run.values.as_ref().err();
                eprintln!(
                    "pair {} {workload} {}: ok={}{}",
                    pair + 1,
                    SIDES[side],
                    run.ok,
                    error.map_or(String::new(), |e| format!(" ({e})"))
                );
                all_ok &= run.ok;
                if let Some(raw) = &args.raw {
                    // A line that is no result is kept as a string.
                    let result = match error {
                        None => line,
                        Some(_) => Value::str(line).to_string(),
                    };
                    let row = format!(
                        "{{\"pair\":{},\"seed\":{seed},\"workload\":\"{workload}\",\"side\":\"{}\",\"user_s\":{},\"sys_s\":{},\"ok\":{},\"result\":{result}}}",
                        pair + 1,
                        SIDES[side],
                        Value::Num(run.cpu[0]),
                        Value::Num(run.cpu[1]),
                        run.ok
                    );
                    append_line(raw, &row)?;
                }
                pair_runs[side] = run.values.ok().map(|values| (values, run.cpu));
            }
            let Some(runs) = pair_runs.into_iter().collect::<Option<Vec<_>>>() else {
                continue;
            };
            for (side, (run_values, run_cpu)) in runs.into_iter().enumerate() {
                for (m, value) in run_values.into_iter().enumerate() {
                    values[w][side][m].push(value);
                }
                for (k, seconds) in run_cpu.into_iter().enumerate() {
                    cpu[w][side][k].push(seconds);
                }
            }
        }
    }
    // A workload with no pair left is not summarised.
    let (workloads, (values, cpu)): (Vec<String>, (Vec<_>, Vec<_>)) = workloads
        .into_iter()
        .zip(values.into_iter().zip(cpu))
        .filter(|(_, (by_side, _))| !by_side[0][0].is_empty())
        .unzip();

    let anchor_column = if sides == 3 { "anchor" } else { "" };
    println!(
        "{:<14} {:<18} {:>8} {:>6} {:>7} {:>8} {:>10} {:>7}",
        "workload", "metric", "ratio", "won", "spread", "gap", "verdict", anchor_column
    );
    let mut recorded = Vec::new();
    for (w, workload) in workloads.iter().enumerate() {
        let mut fields = Vec::new();
        for (m, metric) in metrics.iter().enumerate() {
            let runs: Vec<Vec<f64>> = (0..sides).map(|side| values[w][side][m].clone()).collect();
            let row = summarise(metric, &runs);
            let anchor = row.anchor.map_or(String::new(), |a| format!("{a:.3}"));
            println!(
                "{:<14} {:<18} {:>8.3} {:>6} {:>7.3} {:>8.3} {:>10} {:>7}",
                workload,
                metric.name,
                row.ratio,
                format!("{}/{}", row.won, runs[0].len()),
                row.spread,
                row.gap,
                row.verdict,
                anchor
            );
            let mut summary = vec![
                ("ratio", Value::Num(row.ratio)),
                ("won", Value::Num(row.won as f64)),
                ("spread", Value::Num(row.spread)),
                ("gap", Value::Num(row.gap)),
                ("verdict", Value::str(row.verdict)),
            ];
            if let Some(anchor) = row.anchor {
                summary.push(("anchor_ratio", Value::Num(anchor)));
            }
            fields.push((metric.name.clone(), Value::obj(summary)));
        }
        recorded.push((workload.clone(), Value::obj(fields)));
    }
    let cpu_recorded = print_cpu(&workloads, &cpu);
    if let Some((path, commit)) = &args.history {
        let unix = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        let row = Value::obj([
            ("commit", Value::str(commit)),
            ("box", Value::str(box_label())),
            ("unix_time", Value::Num(unix as f64)),
            ("pairs", Value::Num(args.pairs as f64)),
            ("seconds", Value::Num(args.seconds as f64)),
            ("seed_base", Value::Num(args.seed_base as f64)),
            ("anchored", Value::Bool(sides == 3)),
            ("all_runs_correct", Value::Bool(all_ok)),
            ("workloads", Value::obj(recorded)),
            ("cpu", cpu_recorded),
        ]);
        append_line(path, &row.to_string())?;
    }
    if !all_ok {
        eprintln!("bench_compare: a run failed, was not correct, or reported failed operations");
    }
    Ok(all_ok)
}

/// Prints the children's CPU seconds per workload and side, the median over
/// the pairs, with the median of the per-pair ratios change ÷ parent on the
/// change's line, and returns them as the history row's `cpu` field.
fn print_cpu(workloads: &[String], cpu: &[Vec<Vec<Vec<f64>>>]) -> Value {
    println!(
        "\n{:<8} {:<14} {:>8} {:>8} {:>12} {:>12}",
        "side", "workload", CPU[0], CPU[1], "user÷parent", "sys÷parent"
    );
    let mut recorded = Vec::new();
    for (w, workload) in workloads.iter().enumerate() {
        let sides = &cpu[w];
        let ratios: Vec<f64> = (0..CPU.len())
            .map(|k| {
                let pairs: Vec<f64> = sides[1][k]
                    .iter()
                    .zip(&sides[0][k])
                    .map(|(&c, &p)| ratio(c, p))
                    .collect();
                median(&pairs)
            })
            .collect();
        // medians[side][kind]
        let medians: Vec<Vec<f64>> = sides
            .iter()
            .map(|runs| runs.iter().map(|r| median(r)).collect())
            .collect();
        for (side, m) in medians.iter().enumerate() {
            let shown = if side == 1 {
                format!(" {:>12.3} {:>12.3}", ratios[0], ratios[1])
            } else {
                String::new()
            };
            println!(
                "{:<8} {:<14} {:>8.2} {:>8.2}{shown}",
                SIDES[side], workload, m[0], m[1]
            );
        }
        let kinds = (0..CPU.len()).map(|k| {
            let mut fields: Vec<(&str, Value)> = medians
                .iter()
                .enumerate()
                .map(|(side, m)| (SIDES[side], Value::Num(m[k])))
                .collect();
            fields.push(("ratio", Value::Num(ratios[k])));
            (CPU[k], Value::obj(fields))
        });
        recorded.push((workload.clone(), Value::obj(kinds)));
    }
    Value::obj(recorded)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("bench_compare: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match compare(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("bench_compare: {message}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu() -> Metric {
        Metric {
            name: "cpu_ns_per_tuple".to_string(),
            lower_is_better: true,
            bound: 0.25,
        }
    }

    /// `spread` takes the quartiles as Python's `statistics.quantiles(n=4)`
    /// does, like the benchmark: (2.75, 8.25) for 1..10 and (1, 3) for
    /// [3, 1, 2], each over a median of 5.5 and 2.
    #[test]
    fn spread_uses_the_benchmarks_exclusive_quartiles() {
        let parent: Vec<f64> = (1..=10).map(f64::from).collect();
        let row = summarise(&cpu(), &[parent.clone(), parent]);
        assert_eq!(row.spread, (8.25 - 2.75) / 5.5);
        let row = summarise(&cpu(), &[vec![3.0, 1.0, 2.0], vec![3.0, 1.0, 2.0]]);
        assert_eq!(row.spread, 1.0);
    }

    /// A spread past the bound is `unresolved`, unless every change run is
    /// better than every parent run.
    #[test]
    fn a_wide_spread_is_unresolved_unless_the_sides_do_not_overlap() {
        let parent = vec![100.0, 140.0, 100.0, 140.0];
        let overlapping = vec![90.0, 120.0, 90.0, 120.0];
        let row = summarise(&cpu(), &[parent.clone(), overlapping]);
        assert!(row.spread > 0.25);
        assert_eq!(row.verdict, "unresolved");
        let row = summarise(&cpu(), &[parent, vec![60.0, 61.0, 60.0, 61.0]]);
        assert_eq!(row.verdict, "gain");
    }
}
