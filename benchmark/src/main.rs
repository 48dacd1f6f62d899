//! The repo benchmark. See `README.md` beside `Cargo.toml`.
//!
//! Two ways in:
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` — one run of
//!   one workload, the form the driver of `BENCHMARK.json` calls. The last
//!   line of standard output is the result object.
//! * no `--workload` — the report: rounds of such runs as child processes,
//!   every metric with median, quartiles and sample count, written to
//!   `out/result.json`. `--aa`, `--quick` and `--extra` modify it.

use std::process::ExitCode;

use slb_benchmark::json::Value;
use slb_benchmark::{measure, report, workloads};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: Option<bool>,
    aa: bool,
    quick: bool,
    extra: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: None,
        trace: None,
        aa: false,
        quick: false,
        extra: Vec::new(),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = Some(
                    value("a number")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--aa" => args.aa = true,
            "--quick" => args.quick = true,
            "--extra" => args.extra.push(value("a workload name")?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// The driver's result line for one run.
fn result_line(outcome: &measure::Outcome) -> Value {
    Value::obj([
        ("correct", Value::Bool(outcome.failed == 0)),
        ("attempted", Value::Num(outcome.attempted as f64)),
        ("failed", Value::Num(outcome.failed as f64)),
        (
            "metrics",
            Value::obj(outcome.metrics.iter().map(|(metric, value)| {
                (
                    metric.name,
                    Value::obj([
                        ("value", Value::Num(*value)),
                        ("unit", Value::str(metric.unit)),
                    ]),
                )
            })),
        ),
    ])
}

/// The per-repetition values behind a run's medians, for standard error.
fn sample_line(outcome: &measure::Outcome) -> Value {
    Value::obj(
        outcome
            .metrics
            .iter()
            .zip(&outcome.samples)
            .map(|((metric, _), values)| (metric.name, Value::nums(values.iter().copied()))),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("slb-benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    let Some(name) = &args.workload else {
        let mut extra = Vec::new();
        for name in &args.extra {
            match workloads::EXTRAS.iter().find(|w| w.name == name) {
                Some(workload) => extra.push(workload),
                None => {
                    eprintln!("slb-benchmark: unknown extra workload {name}");
                    return ExitCode::from(2);
                }
            }
        }
        return report::run(&report::Options {
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace.unwrap_or(true),
            aa: args.aa,
            quick: args.quick,
            extra,
        });
    };
    let Some(workload) = workloads::find(name) else {
        eprintln!("slb-benchmark: unknown workload {name}");
        return ExitCode::from(2);
    };
    let seconds = args.seconds.unwrap_or(10);
    let outcome = if args.trace.unwrap_or(false) {
        let (outcome, spans) = measure::run_traced(workload, args.seed, seconds, args.quick);
        let file = report::out_dir().join(format!("trace_{name}.json"));
        let document = Value::obj([
            ("stamp", report::stamp(args.seed)),
            ("workload", Value::str(workload.name)),
            ("trace", spans),
        ]);
        let written = std::fs::create_dir_all(report::out_dir())
            .and_then(|()| std::fs::write(&file, document.pretty()));
        if let Err(e) = written {
            eprintln!("slb-benchmark: writing {}: {e}", file.display());
            return ExitCode::FAILURE;
        }
        outcome
    } else {
        measure::run_end_to_end(workload, args.seed, seconds, args.quick)
    };
    if let Some(mismatch) = &outcome.mismatch {
        eprintln!("slb-benchmark: {name}: output differs from the reference: {mismatch}");
    }
    eprintln!("samples: {}", sample_line(&outcome));
    println!("{}", result_line(&outcome));
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
