//! `slb-node` — one process of a distributed SLB topology, or the
//! orchestrator that runs a whole cluster.
//!
//! ```text
//! slb-node orchestrate --spec cluster.spec [--verify] [--fault-tolerant]
//!                      [--respawn-budget N] [--ckpt-dir DIR]
//!                      [--kill-worker W@MS] [--crash-worker W@N]
//!                      [--metrics-dir DIR] [--metrics-interval-ms MS]
//! slb-node source     --index N --control HOST:PORT
//! slb-node worker     --index N --control HOST:PORT
//!                      [--ckpt-dir DIR [--rejoin]] [--crash-after-closes N]
//! slb-node aggregator --index N --control HOST:PORT
//! ```
//!
//! Every role mode also takes `--metrics-interval-ms MS`.
//!
//! Each mode takes the flags its usage line shows and nothing else: an
//! unknown or repeated flag, or a value flag without its value, exits 2.
//!
//! `orchestrate` parses the text cluster spec (see `docs/DISTRIBUTED.md`),
//! spawns one child process per source/worker/aggregator (re-invoking this
//! same binary in a role mode), wires the sockets through the control
//! plane, runs the configured `EngineConfig`/`ScenarioConfig` to
//! completion, and prints the merged result. With `--verify` it also
//! replays the run's single-threaded exact reference and reports
//! `exact-reference=MATCH` (exit 0) or `MISMATCH` (exit 1).
//!
//! Every run's nodes speak one protocol: workers stream heartbeats, sources
//! hold their connections for replay until the orchestrator's `Release`.
//! `--fault-tolerant` decides two things only: workers persist durable
//! checkpoints (under `--ckpt-dir`, or a temp directory), and a worker death
//! is answered by a respawn-with-rejoin — exclusion once the respawn budget
//! runs out — instead of failing the run (see `docs/FAULTS.md`).
//! `--kill-worker W@MS` is the built-in fault injector: it SIGKILLs worker
//! `W` roughly `MS` milliseconds after `Start`, which is how the process-kill
//! test suite exercises the whole recovery path end to end.
//! `--crash-worker W@N` is its deterministic sibling: worker `W` aborts
//! itself at its `N`-th window finalization, after shipping that window's
//! partials but before the durable save — the exact interleaving of the
//! tail-window re-ship race, so the recovery counters have a single
//! predictable value. Either
//! injector naming a worker the spec does not have exits 2 before spawning
//! anything: a fault that cannot fire would leave a healthy run looking
//! like a recovered one.
//!
//! With `--metrics-dir DIR` the orchestrator appends every node's
//! [`MetricsSnapshot`](slb_telemetry::MetricsSnapshot) to
//! `DIR/metrics.jsonl` (one JSON object per line, cluster rollup last);
//! `--metrics-interval-ms MS` additionally makes every stage stream
//! periodic snapshots at that cadence (see `docs/OBSERVABILITY.md`).
//!
//! Diagnostics go to stderr through the `SLB_LOG` leveled logger
//! (`error|warn|info|debug`, default `info`); stdout stays reserved for the
//! machine-readable run report.
//!
//! The role modes are not meant to be typed by hand — the orchestrator
//! spawns them — but nothing stops a future launcher (or a human with three
//! terminals) from wiring a cluster manually.

use std::path::PathBuf;
use std::process::exit;
use std::time::Duration;

use slb_net::cluster::{ClusterSpec, NodeRole};
use slb_net::node::{
    exact_reference, orchestrate_with, run_node_with, NodeOptions, OrchestrateOptions,
};
use slb_telemetry::log;

const USAGE: &str = "usage: slb-node orchestrate --spec FILE [--verify] [--fault-tolerant]
                [--respawn-budget N] [--ckpt-dir DIR] [--kill-worker W@MS]
                [--crash-worker W@N] [--metrics-dir DIR]
                [--metrics-interval-ms MS]
       slb-node (source|worker|aggregator) --index N --control HOST:PORT
                [--rejoin] [--ckpt-dir DIR] [--crash-after-closes N]
                [--metrics-interval-ms MS]";

fn fail(message: &str) -> ! {
    log::error("slb-node", message);
    eprintln!("{USAGE}");
    exit(2);
}

fn main() {
    // Resolve `SLB_LOG` first so a malformed level fails at startup, not at
    // the first diagnostic mid-run.
    log::init();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(mode) = args.first() else {
        fail("missing mode");
    };
    match mode.as_str() {
        "--help" | "-h" => println!("{USAGE}"),
        "orchestrate" => run_orchestrate(&args[1..]),
        role => match role.parse::<NodeRole>() {
            Ok(role) => run_role(role, &args[1..]),
            Err(_) => fail(&format!("unknown mode: {role}")),
        },
    }
}

/// The flags one mode was given, checked against that mode's two
/// space-separated lists: an unknown or repeated flag, or a value flag whose
/// value is missing or is itself a `--` word, exits 2 naming the flag.
struct Flags<'a>(Vec<(&'a str, Option<&'a str>)>);

impl<'a> Flags<'a> {
    fn parse(args: &'a [String], switches: &str, valued: &str) -> Self {
        let mut flags = Flags(Vec::new());
        let mut words = args.iter().map(String::as_str);
        while let Some(flag) = words.next() {
            let value = if switches.split(' ').any(|s| s == flag) {
                None
            } else if valued.split(' ').any(|v| v == flag) {
                match words.next() {
                    Some(value) if !value.starts_with("--") => Some(value),
                    _ => fail(&format!("{flag} needs a value")),
                }
            } else {
                fail(&format!("unknown argument: {flag}"))
            };
            if flags.has(flag) {
                fail(&format!("{flag} given twice"));
            }
            flags.0.push((flag, value));
        }
        flags
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|&(given, _)| given == flag)
    }

    fn value(&self, flag: &str) -> Option<&'a str> {
        self.0.iter().find(|&&(given, _)| given == flag)?.1
    }
}

/// Parses `--metrics-interval-ms MS`, the one way to ask for periodic
/// snapshots; `0`, like leaving it out, means final snapshots only.
fn parse_metrics_interval(flags: &Flags) -> Option<Duration> {
    flags
        .value("--metrics-interval-ms")
        .and_then(|v| match v.parse::<u64>() {
            Ok(0) => None,
            Ok(ms) => Some(Duration::from_millis(ms)),
            Err(_) => fail("--metrics-interval-ms needs an integer number of milliseconds"),
        })
}

fn run_role(role: NodeRole, args: &[String]) {
    let flags = Flags::parse(
        args,
        "--rejoin",
        "--index --control --ckpt-dir --crash-after-closes --metrics-interval-ms",
    );
    let Some(index) = flags.value("--index").and_then(|v| v.parse::<usize>().ok()) else {
        fail("role modes need --index N");
    };
    let Some(control) = flags.value("--control") else {
        fail("role modes need --control HOST:PORT");
    };
    let options = NodeOptions {
        rejoin: flags.has("--rejoin"),
        ckpt_dir: flags.value("--ckpt-dir").map(PathBuf::from),
        // Closes are counted from 1, so 0 would never fire.
        crash_after_closes: flags
            .value("--crash-after-closes")
            .map(|v| match v.parse() {
                Ok(closes) if closes > 0 => closes,
                _ => fail("--crash-after-closes needs a positive integer"),
            }),
        metrics_interval: parse_metrics_interval(&flags),
    };
    if let Err(message) = run_node_with(role, index, control, &options) {
        log::error("slb-node", &format!("{} {index}: {message}", role.name()));
        exit(1);
    }
}

/// Parses `--kill-worker W@MS` / `--crash-worker W@N` into `(worker, u64)`.
fn parse_worker_at(value: &str) -> Option<(usize, u64)> {
    let (worker, delay) = value.split_once('@')?;
    Some((worker.parse().ok()?, delay.parse().ok()?))
}

fn run_orchestrate(args: &[String]) {
    let flags = Flags::parse(
        args,
        "--verify --fault-tolerant",
        "--spec --respawn-budget --ckpt-dir --kill-worker --crash-worker --metrics-dir \
         --metrics-interval-ms",
    );
    let Some(spec_path) = flags.value("--spec") else {
        fail("orchestrate needs --spec FILE");
    };
    let verify = flags.has("--verify");
    let mut options = OrchestrateOptions {
        fault_tolerant: flags.has("--fault-tolerant"),
        ckpt_dir: flags.value("--ckpt-dir").map(PathBuf::from),
        metrics_dir: flags.value("--metrics-dir").map(PathBuf::from),
        metrics_interval: parse_metrics_interval(&flags),
        ..OrchestrateOptions::default()
    };
    if let Some(budget) = flags.value("--respawn-budget") {
        match budget.parse::<u32>() {
            Ok(budget) => options.respawn_budget = budget,
            Err(_) => fail("--respawn-budget needs a non-negative integer"),
        }
    }
    if let Some(kill) = flags.value("--kill-worker") {
        match parse_worker_at(kill) {
            Some(plan) => options.kill_worker = Some(plan),
            None => fail("--kill-worker needs W@MS (worker index @ delay in ms)"),
        }
    }
    if let Some(crash) = flags.value("--crash-worker") {
        match parse_worker_at(crash) {
            Some((_, 0)) | None => {
                fail("--crash-worker needs W@N (worker index @ 1-based window close count)")
            }
            Some(plan) => options.crash_worker = Some(plan),
        }
    }
    if (options.kill_worker.is_some()
        || options.crash_worker.is_some()
        || options.ckpt_dir.is_some())
        && !options.fault_tolerant
    {
        fail("--kill-worker, --crash-worker, and --ckpt-dir require --fault-tolerant");
    }
    let text = match std::fs::read_to_string(spec_path) {
        Ok(text) => text,
        Err(e) => fail(&format!("reading {spec_path}: {e}")),
    };
    let spec = match ClusterSpec::parse(&text) {
        Ok(spec) => spec,
        Err(e) => fail(&format!("parsing {spec_path}: {e}")),
    };
    let plan = match spec.stage_plan() {
        Ok(plan) => plan,
        Err(e) => fail(&format!("resolving {spec_path}: {e}")),
    };
    let workers = plan.spawned_workers;
    for (flag, fault) in [
        ("--kill-worker", options.kill_worker),
        ("--crash-worker", options.crash_worker),
    ] {
        if let Some((worker, _)) = fault.filter(|&(worker, _)| worker >= workers) {
            fail(&format!("{flag} names worker {worker} of {workers}"));
        }
    }
    let node_exe = match std::env::current_exe() {
        Ok(path) => path,
        Err(e) => fail(&format!("locating own binary: {e}")),
    };
    log::info(
        "slb-node",
        &format!(
            "orchestrate: {} sources, {} workers, {} aggregators over TCP loopback{}",
            plan.sources,
            plan.spawned_workers,
            plan.aggregators,
            if options.fault_tolerant {
                " (supervised)"
            } else {
                ""
            }
        ),
    );
    let outcome = match orchestrate_with(&spec, &node_exe, &options) {
        Ok(outcome) => outcome,
        Err(message) => {
            log::error("slb-node", &format!("orchestrate: {message}"));
            exit(1);
        }
    };
    let r = &outcome.result;
    println!(
        "scheme={} processed={} sent={} windows={} elapsed={:.3}s throughput={:.0} ev/s",
        r.scheme, r.processed, outcome.sent_total, r.windows, r.elapsed_secs, r.throughput_eps
    );
    println!(
        "imbalance={:.4} p50={}us p99={}us worker_counts={:?}",
        r.imbalance, r.latency.p50_us, r.latency.p99_us, r.worker_counts
    );
    for phase in &r.phases {
        println!(
            "phase {}: workers={} tuples={} imbalance={:.4}",
            phase.phase, phase.workers, phase.stage.items, phase.imbalance
        );
    }
    let wr = &r.worker_stage.recovery;
    println!(
        "worker_recovery restores={} replayed_items={} duplicates_dropped={} \
         replay_requests={} transport_errors={}",
        wr.restores,
        wr.replayed_items,
        wr.duplicates_dropped,
        wr.replay_requests,
        wr.transport_errors
    );
    let ar = &r.aggregator_stage.recovery;
    println!(
        "aggregator_recovery duplicates_dropped={} transport_errors={}",
        ar.duplicates_dropped, ar.transport_errors
    );
    // The hop record prints itself (`name=value` per scalar): per role as the
    // run report merged it, then as the rollup of the nodes' final snapshots.
    let hops = &r.transport;
    println!("transport source {}", hops.source);
    println!("transport worker {}", hops.worker);
    println!("transport aggregator {}", hops.aggregator);
    if let Some(metrics) = &outcome.metrics {
        println!(
            "cluster_metrics windows_closed={} checkpoints={} {} latency_count={}",
            metrics.windows_closed,
            metrics.checkpoints,
            metrics.transport,
            metrics.latency.count()
        );
    }
    if let Some(dir) = &options.metrics_dir {
        log::info(
            "slb-node",
            &format!(
                "metrics stream written to {}",
                dir.join("metrics.jsonl").display()
            ),
        );
    }
    if !outcome.degraded.is_empty() {
        println!("degraded workers={:?}", outcome.degraded);
    }
    if verify {
        let reference = exact_reference(&spec);
        match slb_engine::diff_windows(&outcome.windows, &reference) {
            None => println!("exact-reference=MATCH ({} windows)", reference.len()),
            Some(first_divergence) => {
                println!("exact-reference=MISMATCH ({first_divergence})");
                exit(1);
            }
        }
    }
}
