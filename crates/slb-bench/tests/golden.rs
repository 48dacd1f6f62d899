//! Golden smoke tests for the experiment binaries.
//!
//! `ci.sh` used to be the only thing running the `expt_*` binaries, and it
//! only checked exit codes. These tests run every binary at `--scale smoke`
//! inside `cargo test` and additionally assert the *scheme-ordering
//! invariants* the paper's figures rest on — the orderings that are
//! deterministic at a fixed seed (imbalance and replica counts come from
//! deterministic routing; wall-clock throughput and latency orderings are
//! noisy on loaded machines and are deliberately not asserted).
//!
//! The binaries are invoked through `CARGO_BIN_EXE_*`, so cargo builds them
//! as part of the test target and no nested cargo lock is taken.

use std::collections::HashMap;
use std::process::Command;

/// Runs one experiment binary at smoke scale and returns its stdout.
fn run_smoke(exe: &str) -> String {
    let output = Command::new(exe)
        .args(["--scale", "smoke"])
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {exe}: {e}"));
    assert!(
        output.status.success(),
        "{exe} exited with {:?}\nstdout:\n{}\nstderr:\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );
    let stdout = String::from_utf8(output.stdout).expect("experiment output is UTF-8");
    assert!(
        stdout.starts_with("== "),
        "{exe}: missing the experiment header, got:\n{stdout}"
    );
    assert!(
        stdout.lines().count() >= 4,
        "{exe}: suspiciously short output:\n{stdout}"
    );
    stdout
}

/// Basic golden check for binaries whose output has no deterministic
/// ordering to pin (latency/throughput tables, dataset listings).
macro_rules! golden_smoke {
    ($($name:ident),+ $(,)?) => {$(
        #[test]
        fn $name() {
            let _ = run_smoke(env!(concat!("CARGO_BIN_EXE_", stringify!($name))));
        }
    )+};
}

golden_smoke!(
    expt_table1_datasets,
    expt_fig01_wp_scale,
    expt_fig03_head_cardinality,
    expt_fig04_d_fraction,
    expt_fig06_memory_vs_sg,
    expt_fig07_threshold_sweep,
    expt_fig08_head_tail_load,
    expt_fig09_d_vs_optimal,
    expt_fig11_realworld,
    expt_fig12_time_series,
    expt_fig14_latency,
    expt_ablation_sensitivity,
);

/// Parses whitespace-separated data rows that follow the header line
/// starting with `header`, returning one Vec of columns per row (rows end
/// at the first `#`-prefixed footer line).
fn table_rows_after(stdout: &str, header: &str) -> Vec<Vec<String>> {
    stdout
        .lines()
        .skip_while(|l| !l.trim_start().starts_with(header))
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('#'))
        .filter(|l| !l.trim().is_empty())
        .map(|l| l.split_whitespace().map(str::to_string).collect())
        .collect()
}

/// Most experiment tables lead with a `scheme` column.
fn table_rows(stdout: &str) -> Vec<Vec<String>> {
    table_rows_after(stdout, "scheme")
}

#[test]
fn expt_fig13_throughput_preserves_imbalance_ordering() {
    let stdout = run_smoke(env!("CARGO_BIN_EXE_expt_fig13_throughput"));
    // Columns: scheme skew throughput imbalance elapsed.
    let mut imbalance: HashMap<(String, String), f64> = HashMap::new();
    for row in table_rows(&stdout) {
        assert_eq!(row.len(), 5, "unexpected fig13 row: {row:?}");
        let value: f64 = row[3].parse().expect("imbalance parses");
        assert!(value >= 0.0);
        let throughput: f64 = row[2].parse().expect("throughput parses");
        assert!(throughput > 0.0, "zero throughput in {row:?}");
        imbalance.insert((row[0].clone(), row[1].clone()), value);
    }
    let get = |scheme: &str, skew: &str| {
        *imbalance
            .get(&(scheme.to_string(), skew.to_string()))
            .unwrap_or_else(|| panic!("missing {scheme} at z={skew}"))
    };
    // The paper's ordering at extreme skew: key splitting beats key
    // grouping, and the head-aware schemes do not lose to plain PKG.
    assert!(
        get("PKG", "2.0") <= get("KG", "2.0"),
        "PKG should balance better than KG at z=2.0"
    );
    assert!(
        get("W-C", "2.0") <= get("PKG", "2.0") + 1e-9,
        "W-C should not lose to PKG at z=2.0"
    );
    assert!(
        get("D-C", "2.0") <= get("KG", "2.0"),
        "D-C should balance better than KG at z=2.0"
    );
}

#[test]
fn expt_fig10_zipf_grid_w_choices_wins_the_hardest_cell() {
    let stdout = run_smoke(env!("CARGO_BIN_EXE_expt_fig10_zipf_grid"));
    // Columns: scheme keys workers skew I(m) mean-I(t), in sci notation.
    let rows = table_rows(&stdout);
    assert!(!rows.is_empty(), "fig10 table empty");
    let imbalance = |scheme: &str, workers: &str, skew: &str| -> f64 {
        rows.iter()
            .find(|r| r[0] == scheme && r[2] == workers && r[3] == skew)
            .unwrap_or_else(|| panic!("missing {scheme} n={workers} z={skew}"))[4]
            .parse()
            .expect("sci-notation imbalance parses")
    };
    // Hardest smoke-scale cell: n=50, z=2.0. W-C must not lose to PKG, and
    // the head-aware schemes must stay sane (finite, non-negative).
    let wc = imbalance("W-C", "50", "2.0");
    let pkg = imbalance("PKG", "50", "2.0");
    assert!(
        wc <= pkg + 1e-12,
        "W-C {wc} vs PKG {pkg} at the hardest cell"
    );
    for r in &rows {
        let value: f64 = r[4].parse().expect("imbalance parses");
        assert!(value.is_finite() && value >= 0.0, "bad imbalance in {r:?}");
    }
}

#[test]
fn expt_fig05_memory_overhead_is_bounded_and_ordered() {
    let stdout = run_smoke(env!("CARGO_BIN_EXE_expt_fig05_memory_vs_pkg"));
    // Columns: skew workers scheme vs-PKG-%. This table's header starts
    // with `skew`, not `scheme`.
    let rows = table_rows_after(&stdout, "skew");
    assert!(!rows.is_empty(), "fig05 table empty");
    for row in &rows {
        assert_eq!(row.len(), 4, "unexpected fig05 row: {row:?}");
        let pct: f64 = row[3].parse().expect("overhead parses");
        // The paper reports worst cases around 25-30%; anything beyond 100%
        // would mean the replica model broke.
        assert!(
            (-100.0..=100.0).contains(&pct),
            "memory overhead {pct}% out of the plausible band in {row:?}"
        );
    }
}

/// Shared checker for the scenario bins' tables: collects imbalance by
/// `(scheme, phase)` from a table whose first two columns are scheme and
/// phase, with the imbalance in `column` (sci notation).
fn scenario_imbalances(stdout: &str, column: usize) -> HashMap<(String, String), f64> {
    let mut out = HashMap::new();
    for row in table_rows(stdout) {
        let value: f64 = row[column].parse().expect("sci-notation imbalance parses");
        assert!(
            value.is_finite() && value >= 0.0,
            "bad imbalance in {row:?}"
        );
        out.insert((row[0].clone(), row[1].clone()), value);
    }
    out
}

fn lookup(map: &HashMap<(String, String), f64>, scheme: &str, phase: &str) -> f64 {
    *map.get(&(scheme.to_string(), phase.to_string()))
        .unwrap_or_else(|| panic!("missing {scheme} phase {phase}"))
}

#[test]
fn expt_scenarios_drift_orders_schemes_per_phase() {
    let stdout = run_smoke(env!("CARGO_BIN_EXE_expt_scenarios_drift"));
    // Columns: scheme phase skew drift workers imbalance.
    let imb = scenario_imbalances(&stdout, 5);
    // Skewed phases (0: static z=2.0, 2: drifting z=1.4): key splitting
    // beats key grouping, and the head-aware schemes do not lose to PKG.
    for phase in ["0", "2"] {
        let kg = lookup(&imb, "KG", phase);
        assert!(
            lookup(&imb, "PKG", phase) <= kg,
            "PKG vs KG in phase {phase}"
        );
        assert!(
            lookup(&imb, "D-C", phase) <= kg,
            "D-C vs KG in phase {phase}"
        );
        assert!(
            lookup(&imb, "W-C", phase) <= lookup(&imb, "PKG", phase) + 1e-9,
            "W-C vs PKG in phase {phase}"
        );
    }
    // Uniform phase: every scheme converges to near-perfect balance.
    let uniform: Vec<f64> = ["KG", "PKG", "D-C", "W-C", "RR", "SG"]
        .iter()
        .map(|s| lookup(&imb, s, "1"))
        .collect();
    for (i, v) in uniform.iter().enumerate() {
        assert!(*v < 0.05, "scheme #{i} did not converge under uniform: {v}");
    }
    let spread = uniform.iter().cloned().fold(f64::MIN, f64::max)
        - uniform.iter().cloned().fold(f64::MAX, f64::min);
    assert!(spread < 0.05, "uniform-phase spread {spread}");
}

#[test]
fn expt_scenarios_hetero_surfaces_slow_workers_in_the_weighted_metric() {
    let stdout = run_smoke(env!("CARGO_BIN_EXE_expt_scenarios_hetero"));
    // Columns: scheme phase skew speeds imbalance weighted-I.
    let plain = scenario_imbalances(&stdout, 4);
    let weighted = scenario_imbalances(&stdout, 5);
    // Skewed phases order as the paper predicts on routed counts.
    for phase in ["0", "1"] {
        let kg = lookup(&plain, "KG", phase);
        assert!(
            lookup(&plain, "PKG", phase) <= kg,
            "PKG vs KG in phase {phase}"
        );
        assert!(
            lookup(&plain, "W-C", phase) <= lookup(&plain, "PKG", phase) + 1e-9,
            "W-C vs PKG in phase {phase}"
        );
    }
    // SG balances counts perfectly, so the 2×-slow worker of phase 1 can
    // only appear in the weighted metric.
    let sg_plain = lookup(&plain, "SG", "1");
    let sg_weighted = lookup(&weighted, "SG", "1");
    assert!(sg_plain < 0.01, "SG routed imbalance {sg_plain}");
    assert!(
        sg_weighted > sg_plain + 0.05,
        "weighted {sg_weighted} must expose the slow worker over plain {sg_plain}"
    );
    // Homogeneous phase: the two metrics agree for every scheme.
    for scheme in ["KG", "PKG", "D-C", "W-C", "RR", "SG"] {
        let p = lookup(&plain, scheme, "0");
        let w = lookup(&weighted, scheme, "0");
        assert!(
            (p - w).abs() < 1e-9,
            "{scheme}: homogeneous metrics diverged"
        );
    }
}

#[test]
fn expt_scenarios_scaleout_keeps_orderings_and_matches_the_exact_reference() {
    let stdout = run_smoke(env!("CARGO_BIN_EXE_expt_scenarios_scaleout"));
    // Columns: scheme phase skew workers imbalance weighted-I.
    let imb = scenario_imbalances(&stdout, 4);
    // Skewed phases — including phase 2, which runs on the scaled-out
    // worker set — order as the paper predicts.
    for phase in ["0", "2"] {
        let kg = lookup(&imb, "KG", phase);
        assert!(
            lookup(&imb, "PKG", phase) <= kg,
            "PKG vs KG in phase {phase}"
        );
        assert!(
            lookup(&imb, "D-C", phase) <= kg,
            "D-C vs KG in phase {phase}"
        );
        assert!(
            lookup(&imb, "W-C", phase) <= lookup(&imb, "PKG", phase) + 1e-9,
            "W-C vs PKG in phase {phase}"
        );
    }
    // Scale-in onto the uniform tail: everything converges.
    for scheme in ["KG", "PKG", "D-C", "W-C", "RR", "SG"] {
        let v = lookup(&imb, scheme, "3");
        assert!(v < 0.05, "{scheme} did not converge after scale-in: {v}");
    }
    // The threaded engine's merged windowed counts matched the exact
    // single-threaded reference across the resizes.
    assert!(
        stdout.contains("exact-reference=MATCH"),
        "engine run diverged from the exact reference:\n{stdout}"
    );
}

#[test]
fn expt_elasticity_controller_acts_where_it_can() {
    let stdout = run_smoke(env!("CARGO_BIN_EXE_expt_elasticity"));
    // Columns: scheme static_imb online_imb out in retune workers.
    let mut retunes = Vec::new();
    for line in stdout.lines().skip(4) {
        let cols: Vec<&str> = line.split_whitespace().collect();
        if cols.len() != 7 || line.starts_with('#') {
            continue;
        }
        let scheme = cols[0];
        let outs: u64 = cols[3]
            .parse()
            .unwrap_or_else(|_| panic!("bad row: {line}"));
        let retune: u64 = cols[5].parse().expect("retune column");
        let used: u64 = cols[6].parse().expect("workers column");
        // Only D-Choices exposes a head snapshot, so only it can retune.
        if scheme != "D-C" {
            assert_eq!(retune, 0, "{scheme} retuned without a head snapshot");
        }
        retunes.push((scheme.to_string(), outs, retune));
        assert!(
            (1..=8).contains(&used),
            "{scheme}: {used} used workers escaped the controller's universe"
        );
    }
    assert_eq!(retunes.len(), 6, "expected one row per scheme:\n{stdout}");
    let dc = retunes
        .iter()
        .find(|(s, _, _)| s == "D-C")
        .expect("D-C row");
    // The drift preset must actually exercise both levers for D-Choices.
    assert!(dc.1 > 0, "no scale-out under drift pressure:\n{stdout}");
    assert!(dc.2 > 0, "no retune across drift epochs:\n{stdout}");
}

#[test]
fn expt_fig15_aggregation_accounting_is_exact() {
    let stdout = run_smoke(env!("CARGO_BIN_EXE_expt_fig15_aggregation_cost"));
    // Columns: scheme window aggs tuples/s windows partials p50 p99.
    let rows = table_rows(&stdout);
    assert!(!rows.is_empty(), "fig15 table empty");
    // The binary runs the smoke engine topology; read its worker count
    // rather than hardcoding it.
    let workers =
        slb_engine::EngineConfig::smoke(slb_core::PartitionerKind::Pkg, 2.0).workers as u64;
    for row in &rows {
        assert_eq!(row.len(), 8, "unexpected fig15 row: {row:?}");
        let aggregators: u64 = row[2].parse().expect("aggregators parse");
        assert!(aggregators >= 1, "no aggregator in {row:?}");
        let windows: u64 = row[4].parse().expect("windows parse");
        let partials: u64 = row[5].parse().expect("partials parse");
        assert!(windows > 0, "no windows finalized in {row:?}");
        assert_eq!(
            partials,
            windows * workers,
            "every worker must ship one partial per window, to its one owner: {row:?}"
        );
        let throughput: f64 = row[3].parse().expect("throughput parses");
        assert!(throughput > 0.0);
    }
}

#[test]
fn expt_binaries_emit_json_via_the_env_hook() {
    // The SLB_BENCH_JSON_DIR hook must mirror a binary's printed rows into
    // EXPT_<experiment>.json. One cheap solver-only binary stands in for
    // the fleet — every binary goes through the same `json::Table::emit`.
    let dir = std::env::temp_dir().join(format!("slb-golden-json-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create json dir");
    let output = Command::new(env!("CARGO_BIN_EXE_expt_fig04_d_fraction"))
        .args(["--scale", "smoke"])
        .env("SLB_BENCH_JSON_DIR", &dir)
        .output()
        .expect("spawn expt_fig04_d_fraction");
    assert!(output.status.success());
    let body =
        std::fs::read_to_string(dir.join("EXPT_fig04_d_fraction.json")).expect("JSON file written");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        body.starts_with("{\"experiment\":\"fig04_d_fraction\""),
        "unexpected JSON head: {body}"
    );
    assert!(
        body.contains("\"columns\":[\"skew\",\"workers\",\"d\",\"fraction\"]"),
        "missing column list: {body}"
    );
    // Row objects are keyed by column name; the printed table is non-empty.
    assert!(body.contains("\"rows\":[{\"skew\":"), "no rows: {body}");

    // The JSON mirror is additive: the human-readable table still prints.
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("d/n"), "table still printed:\n{stdout}");
}
