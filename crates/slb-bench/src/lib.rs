//! Experiment harness for the SLB reproduction.
//!
//! One binary, `expt`, regenerates every table and figure of the paper's
//! evaluation section: `expt <name> [--scale smoke|laptop|paper] [--seed N]`
//! runs the experiment [`EXPERIMENTS`] lists under `name` and prints its
//! rows to stdout.
//!
//! * `--scale smoke|laptop|paper` — how big to run (default `smoke`, which
//!   finishes in seconds and is what the integration tests and the recorded
//!   `EXPERIMENTS.md` runs use unless stated otherwise).
//! * `--seed <u64>` — RNG/hash seed (default `0x5EED0001`).
//!
//! Each experiment computes its cells in its own function (`datasets`,
//! `analysis`, `simulation`, `engine`, `scenarios`) and hands them straight
//! to its table; `slb-simulator` supplies only the replay engine.
//! Every table goes through one `Table` (`table.rs`), which prints each row and,
//! when the binary is given a JSON directory (`SLB_BENCH_JSON_DIR`),
//! mirrors the same cells to `EXPT_<table>.json`.

mod analysis;
mod datasets;
mod engine;
mod scenarios;
mod simulation;
mod table;

use std::path::PathBuf;

use slb_core::{find_optimal_choices, HeadThreshold};
use slb_engine::EngineConfig;
use slb_workloads::datasets::Scale;
use slb_workloads::zipf::ZipfDistribution;

/// How big to run an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentScale {
    /// Tiny runs for CI / integration tests (seconds).
    Smoke,
    /// Laptop-scale runs preserving the paper's qualitative results (minutes).
    Laptop,
    /// The paper's full parameters (hours).
    Paper,
}

impl ExperimentScale {
    /// Number of messages for a synthetic (ZF) run at this scale.
    pub fn zipf_messages(&self) -> u64 {
        match self {
            ExperimentScale::Smoke => 200_000,
            ExperimentScale::Laptop => 2_000_000,
            ExperimentScale::Paper => 10_000_000,
        }
    }

    /// The dataset scale to use for real-world-like workloads.
    pub fn dataset_scale(&self) -> Scale {
        match self {
            ExperimentScale::Smoke => Scale::Smoke,
            ExperimentScale::Laptop => Scale::Laptop,
            ExperimentScale::Paper => Scale::Paper,
        }
    }

    /// Skew exponents to sweep at this scale (the paper sweeps 0.1…2.0).
    pub fn skew_sweep(&self) -> Vec<f64> {
        match self {
            ExperimentScale::Smoke => vec![0.4, 1.2, 2.0],
            _ => (1..=20).map(|i| i as f64 * 0.1).collect(),
        }
    }
}

/// The seed every experiment runs with unless `--seed` says otherwise (any
/// fixed value works: each setting is one deterministic run, and
/// `ablation_sensitivity` shows the run-to-run spread across seeds).
pub const DEFAULT_SEED: u64 = 0x5EED_0001;

/// The imbalance tolerance ε of the analysis figures (4, 5, 6 and 9), as
/// in the paper.
const EPSILON: f64 = 1e-4;

/// The key space of the Zipf figures 3–9, |K| = 10⁴, as in the paper.
const KEYS: usize = 10_000;

/// Parsed command-line options shared by every experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentOptions {
    /// Requested run size.
    pub scale: ExperimentScale,
    /// Seed for workloads and hash functions.
    pub seed: u64,
    /// Where each table's `emit` writes `EXPT_<table>.json`; `None`
    /// writes nothing.
    pub json_dir: Option<PathBuf>,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        Self {
            scale: ExperimentScale::Smoke,
            seed: DEFAULT_SEED,
            json_dir: None,
        }
    }
}

/// One experiment: what it prints, given the options.
pub type Experiment = fn(&ExperimentOptions);

/// Every experiment `expt` runs, by name, in the paper's order.
pub const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("table1_datasets", datasets::table1_datasets),
    ("fig01_wp_scale", datasets::fig01_wp_scale),
    ("fig03_head_cardinality", analysis::fig03_head_cardinality),
    ("fig04_d_fraction", analysis::fig04_d_fraction),
    ("fig05_memory_vs_pkg", analysis::fig05_memory_vs_pkg),
    ("fig06_memory_vs_sg", analysis::fig06_memory_vs_sg),
    ("fig07_threshold_sweep", simulation::fig07_threshold_sweep),
    ("fig08_head_tail_load", simulation::fig08_head_tail_load),
    ("fig09_d_vs_optimal", simulation::fig09_d_vs_optimal),
    ("fig10_zipf_grid", simulation::fig10_zipf_grid),
    ("fig11_realworld", datasets::fig11_realworld),
    ("fig12_time_series", datasets::fig12_time_series),
    ("fig13_14", engine::fig13_14),
    ("fig15_aggregation_cost", engine::fig15_aggregation_cost),
    ("ablation_sensitivity", simulation::ablation_sensitivity),
    ("scenarios_drift", scenarios::scenarios_drift),
    ("scenarios_hetero", scenarios::scenarios_hetero),
    ("scenarios_scaleout", scenarios::scenarios_scaleout),
    ("elasticity", scenarios::elasticity),
];

/// The experiment registered under `name`.
pub fn experiment(name: &str) -> Option<Experiment> {
    EXPERIMENTS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, f)| f)
}

/// Usage text, with every registered name.
pub fn usage() -> String {
    let mut text =
        "usage: expt <name> [--scale smoke|laptop|paper] [--seed N]\nexperiments:".to_string();
    for (name, _) in EXPERIMENTS {
        text.push_str("\n  ");
        text.push_str(name);
    }
    text
}

/// Outcome of parsing experiment flags: either options to run with, or a
/// request to show usage and exit successfully.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParsedArgs {
    /// Run the experiment with these options.
    Run(ExperimentOptions),
    /// `--help`/`-h` was passed; print [`usage`] to stdout and exit 0.
    Help,
}

/// Parses `--scale` and `--seed` from an iterator of command-line arguments
/// (those after the experiment name). Unknown flags are rejected with an
/// error message so typos do not silently fall back to defaults.
pub fn parse_options<I: IntoIterator<Item = String>>(args: I) -> Result<ParsedArgs, String> {
    let mut options = ExperimentOptions::default();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--scale" => {
                let value = iter.next().ok_or("--scale requires a value")?;
                options.scale = match value.as_str() {
                    "smoke" => ExperimentScale::Smoke,
                    "laptop" => ExperimentScale::Laptop,
                    "paper" => ExperimentScale::Paper,
                    other => return Err(format!("unknown scale: {other}")),
                };
            }
            "--seed" => {
                let value = iter.next().ok_or("--seed requires a value")?;
                options.seed = value
                    .parse()
                    .map_err(|_| format!("invalid seed: {value}"))?;
            }
            "--help" | "-h" => return Ok(ParsedArgs::Help),
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(ParsedArgs::Run(options))
}

/// Prints a named experiment header so that harness output is self-labelled
/// when several experiments are run back-to-back and tee'd into one file.
fn print_header(experiment: &str, description: &str, options: &ExperimentOptions) {
    println!("== {experiment} ==");
    println!("# {description}");
    println!("# scale={:?} seed={:#x}", options.scale, options.seed);
}

/// The head of `dist` for `workers` workers at the default threshold
/// θ = 1/(5n), from the exact distribution: how many keys it holds, and the
/// d FINDOPTIMALCHOICES gives them.
fn zipf_head(dist: &ZipfDistribution, workers: usize) -> (usize, usize) {
    let theta = HeadThreshold::DEFAULT.frequency(workers);
    let cardinality = dist.head_cardinality(theta);
    let head = &dist.probabilities()[..cardinality];
    let tail_mass = 1.0 - head.iter().sum::<f64>();
    let d = find_optimal_choices(head, tail_mass, workers, EPSILON).effective_d(workers);
    (cardinality, d)
}

/// The mini-DSPE configuration at the requested scale, for `skew`.
fn engine_config(options: &ExperimentOptions, skew: f64) -> EngineConfig {
    let kind = slb_core::PartitionerKind::Pkg;
    match options.scale {
        ExperimentScale::Smoke => EngineConfig::smoke(kind, skew),
        ExperimentScale::Laptop => EngineConfig::laptop(kind, skew),
        ExperimentScale::Paper => EngineConfig::paper(kind, skew),
    }
    .with_seed(options.seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn run(list: &[&str]) -> ExperimentOptions {
        match parse_options(args(list)).unwrap() {
            ParsedArgs::Run(o) => o,
            ParsedArgs::Help => panic!("unexpected help request for {list:?}"),
        }
    }

    #[test]
    fn defaults_when_no_flags() {
        let o = run(&[]);
        assert_eq!(o.scale, ExperimentScale::Smoke);
        assert_eq!(o.seed, DEFAULT_SEED);
        assert_eq!(o.json_dir, None);
    }

    #[test]
    fn parses_scale_and_seed() {
        let o = run(&["--scale", "laptop", "--seed", "123"]);
        assert_eq!(o.scale, ExperimentScale::Laptop);
        assert_eq!(o.seed, 123);
        let o = run(&["--scale", "paper"]);
        assert_eq!(o.scale, ExperimentScale::Paper);
    }

    #[test]
    fn rejects_unknown_flags_and_values() {
        assert!(parse_options(args(&["--scale", "huge"])).is_err());
        assert!(parse_options(args(&["--frobnicate"])).is_err());
        assert!(parse_options(args(&["--seed", "abc"])).is_err());
        assert!(parse_options(args(&["--seed"])).is_err());
    }

    #[test]
    fn help_is_a_success_not_an_error() {
        assert_eq!(parse_options(args(&["--help"])).unwrap(), ParsedArgs::Help);
        assert_eq!(parse_options(args(&["-h"])).unwrap(), ParsedArgs::Help);
    }

    #[test]
    fn the_registry_names_each_experiment_once_and_usage_lists_them() {
        let usage = usage();
        for (i, (name, _)) in EXPERIMENTS.iter().enumerate() {
            assert!(experiment(name).is_some());
            assert!(usage.lines().any(|l| l.trim() == *name), "{name}");
            assert!(EXPERIMENTS[..i].iter().all(|(n, _)| n != name), "{name}");
        }
        assert!(experiment("fig13_throughput").is_none());
    }
}
