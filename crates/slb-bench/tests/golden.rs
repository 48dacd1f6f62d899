//! Golden smoke tests for the experiments.
//!
//! These tests run every experiment of the `expt` binary at `--scale smoke`
//! inside `cargo test` and additionally assert the *scheme-ordering
//! invariants* the paper's figures rest on — the orderings that are
//! deterministic at a fixed seed (imbalance and replica counts come from
//! deterministic routing; wall-clock throughput and latency orderings are
//! noisy on loaded machines and are deliberately not asserted).
//!
//! The binary is invoked through `CARGO_BIN_EXE_expt`, so cargo builds it
//! as part of the test target and no nested cargo lock is taken.

use std::collections::HashMap;
use std::path::Path;
use std::process::Command;

use slb_benchmark::json::Value;

/// Runs one experiment at smoke scale and returns its stdout.
fn run_smoke(name: &str) -> String {
    expt_smoke(name, None)
}

/// Runs one experiment at smoke scale, mirroring its tables into
/// `json_dir` if one is given, and returns its stdout.
fn expt_smoke(name: &str, json_dir: Option<&Path>) -> String {
    let mut expt = Command::new(env!("CARGO_BIN_EXE_expt"));
    expt.args([name, "--scale", "smoke"]);
    if let Some(dir) = json_dir {
        expt.env("SLB_BENCH_JSON_DIR", dir);
    }
    let output = expt
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn expt {name}: {e}"));
    assert!(
        output.status.success(),
        "expt {name} exited with {:?}\nstdout:\n{}\nstderr:\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );
    let stdout = String::from_utf8(output.stdout).expect("experiment output is UTF-8");
    assert!(
        stdout.starts_with("== "),
        "{name}: missing the experiment header, got:\n{stdout}"
    );
    assert!(
        stdout.lines().count() >= 4,
        "{name}: suspiciously short output:\n{stdout}"
    );
    stdout
}

/// Basic golden check for experiments whose output has no deterministic
/// ordering to pin (dataset listings, solver-only sweeps).
macro_rules! golden_smoke {
    ($($name:ident),+ $(,)?) => {$(
        #[test]
        fn $name() {
            let _ = run_smoke(stringify!($name));
        }
    )+};
}

golden_smoke!(
    table1_datasets,
    fig07_threshold_sweep,
    fig09_d_vs_optimal,
    fig11_realworld,
    ablation_sensitivity,
);

/// The rows of the table the experiment `name` emits under its own name,
/// as recorded (full precision), from a smoke run with a JSON directory.
fn smoke_table(name: &str) -> Vec<Value> {
    let dir = std::env::temp_dir().join(format!("slb-golden-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create json dir");
    let _ = expt_smoke(name, Some(&dir));
    let body = std::fs::read_to_string(dir.join(format!("EXPT_{name}.json")));
    let _ = std::fs::remove_dir_all(&dir);
    let body = body.unwrap_or_else(|e| panic!("{name}: no JSON table: {e}"));
    let document = Value::parse(&body).unwrap_or_else(|e| panic!("{e}: {body}"));
    let rows = document.get("rows").and_then(Value::as_arr);
    rows.expect("a row list").to_vec()
}

/// A numeric cell of a recorded row.
fn num(row: &Value, column: &str) -> f64 {
    row.get(column)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("no number in column {column}: {row}"))
}

/// A text cell of a recorded row.
fn label<'a>(row: &'a Value, column: &str) -> &'a str {
    row.get(column)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("no text in column {column}: {row}"))
}

/// Figure 1's motivating claim: on WP at 50 and 100 workers, W-Choices
/// balances strictly better than PKG.
#[test]
fn fig01_wp_scale_w_choices_beats_pkg_at_scale() {
    let rows = smoke_table("fig01_wp_scale");
    assert_eq!(rows.len(), 3 * 5, "3 schemes × 5 worker counts");
    let imbalance = |scheme: &str, workers: f64| {
        let row = rows
            .iter()
            .find(|r| label(r, "scheme") == scheme && num(r, "workers") == workers);
        num(
            row.unwrap_or_else(|| panic!("no {scheme} at n={workers}")),
            "imbalance",
        )
    };
    for workers in [50.0, 100.0] {
        let (pkg, wc) = (imbalance("PKG", workers), imbalance("W-C", workers));
        assert!(
            wc < pkg,
            "W-C ({wc}) must beat PKG ({pkg}) on WP at n={workers}"
        );
    }
}

/// Figure 3: the head holds a handful of keys — never more than 5n, and
/// no more than ~70 at high skew — and the lower threshold 1/(5n) never
/// admits fewer keys than 2/n.
#[test]
fn fig03_head_cardinality_is_small_and_ordered_by_threshold() {
    let rows = smoke_table("fig03_head_cardinality");
    assert_eq!(
        rows.len(),
        2 * 2 * 3,
        "2 thresholds × 2 worker counts × 3 skews"
    );
    for pair in rows.chunks(2) {
        let (low, high) = (&pair[0], &pair[1]);
        assert_eq!(label(low, "threshold"), "1/(5n)");
        assert_eq!(label(high, "threshold"), "2/n");
        assert!(
            num(low, "cardinality") >= num(high, "cardinality"),
            "{low} {high}"
        );
    }
    for row in &rows {
        let cardinality = num(row, "cardinality");
        assert!(cardinality <= 5.0 * num(row, "workers"), "{row}");
        if num(row, "skew") >= 1.9 {
            assert!(cardinality <= 70.0, "{row}");
        }
    }
}

/// Figure 4: d/n is the solver's d over n, in (0, 1], and shrinks with
/// scale — at every skew, n = 100 needs no larger a fraction than n = 10.
#[test]
fn fig04_d_fraction_is_a_fraction_that_shrinks_with_scale() {
    let rows = smoke_table("fig04_d_fraction");
    assert_eq!(rows.len(), 4 * 3, "4 worker counts × 3 skews");
    for row in &rows {
        let fraction = num(row, "fraction");
        assert!(fraction > 0.0 && fraction <= 1.0, "{row}");
        assert_eq!(num(row, "d") / num(row, "workers"), fraction, "{row}");
    }
    for skew in [0.4, 1.2, 2.0] {
        let fraction = |workers: f64| {
            let row = rows
                .iter()
                .find(|r| num(r, "skew") == skew && num(r, "workers") == workers);
            num(row.expect("every skew at every worker count"), "fraction")
        };
        let (f10, f100) = (fraction(10.0), fraction(100.0));
        assert!(
            f100 <= f10 + 1e-9,
            "z={skew}: d/n at n=100 ({f100}) over n=10 ({f10})"
        );
    }
}

/// Every table whose header line starts with `header`: the whitespace-split
/// data rows under each header, up to the next `#`-prefixed line (a footer
/// or section title) or the next header.
fn tables_after(stdout: &str, header: &str) -> Vec<Vec<Vec<String>>> {
    let mut tables = Vec::new();
    let mut current: Option<Vec<Vec<String>>> = None;
    for line in stdout.lines().map(str::trim_start) {
        if line.starts_with(header) || line.starts_with('#') {
            tables.extend(current.take());
            if line.starts_with(header) {
                current = Some(Vec::new());
            }
        } else if let Some(rows) = current.as_mut().filter(|_| !line.is_empty()) {
            rows.push(line.split_whitespace().map(str::to_string).collect());
        }
    }
    tables.extend(current);
    tables
}

/// The data rows of the first table whose header starts with `header`.
fn table_rows_after(stdout: &str, header: &str) -> Vec<Vec<String>> {
    let mut tables = tables_after(stdout, header);
    assert!(
        !tables.is_empty(),
        "no table headed {header:?} in:\n{stdout}"
    );
    tables.swap_remove(0)
}

/// Most experiment tables lead with a `scheme` column.
fn table_rows(stdout: &str) -> Vec<Vec<String>> {
    table_rows_after(stdout, "scheme")
}

/// Figures 13 and 14 print from one set of engine runs: two tables, one
/// row per (scheme, skew) run each, in the same order.
#[test]
fn fig13_14_preserves_imbalance_ordering_over_one_set_of_runs() {
    let stdout = run_smoke("fig13_14");
    let tables = tables_after(&stdout, "scheme");
    assert_eq!(
        tables.len(),
        2,
        "expected the throughput and latency tables:\n{stdout}"
    );
    let (throughput, latency) = (&tables[0], &tables[1]);
    // Columns: scheme skew throughput imbalance elapsed.
    let mut imbalance: HashMap<(String, String), f64> = HashMap::new();
    for row in throughput {
        assert_eq!(row.len(), 5, "unexpected fig13 row: {row:?}");
        let value: f64 = row[3].parse().expect("imbalance parses");
        assert!(value >= 0.0);
        let throughput: f64 = row[2].parse().expect("throughput parses");
        assert!(throughput > 0.0, "zero throughput in {row:?}");
        imbalance.insert((row[0].clone(), row[1].clone()), value);
    }
    assert_eq!(throughput.len(), 15, "5 schemes × 3 skews:\n{stdout}");
    // Columns: scheme skew max-avg p50 p95 p99, in µs.
    for row in latency {
        assert_eq!(row.len(), 6, "unexpected fig14 row: {row:?}");
        for cell in &row[2..] {
            let us: f64 = cell.parse().expect("latency parses");
            assert!(us > 0.0, "zero latency in {row:?}");
        }
    }
    let runs = |table: &[Vec<String>]| -> Vec<(String, String)> {
        table.iter().map(|r| (r[0].clone(), r[1].clone())).collect()
    };
    assert_eq!(
        runs(throughput),
        runs(latency),
        "the two figures must list the same runs in the same order"
    );
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
fn fig10_zipf_grid_w_choices_wins_the_hardest_cell() {
    let stdout = run_smoke("fig10_zipf_grid");
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
    // Every combination: 1 key space × 2 worker counts × 3 skews × 4 schemes.
    assert_eq!(rows.len(), 2 * 3 * 4, "fig10 grid incomplete:\n{stdout}");
}

/// Figure 12: every (dataset, scheme, workers) series is there, sampled at
/// (nearly) each of its 20 checkpoints, in stream order.
#[test]
fn fig12_time_series_has_every_series_at_every_checkpoint() {
    let rows = smoke_table("fig12_time_series");
    let mut series: HashMap<(String, String, u64), Vec<f64>> = HashMap::new();
    for row in &rows {
        let (dataset, scheme) = (label(row, "dataset"), label(row, "scheme"));
        let key = (
            dataset.to_string(),
            scheme.to_string(),
            num(row, "workers") as u64,
        );
        series.entry(key).or_default().push(num(row, "messages"));
    }
    for dataset in ["WP", "TW", "CT"] {
        for scheme in ["PKG", "D-C", "W-C"] {
            for workers in [5, 50] {
                let key = (dataset.to_string(), scheme.to_string(), workers);
                let points = series.get(&key);
                let points = points.unwrap_or_else(|| panic!("no series {key:?}"));
                assert!(points.len() >= 19, "{key:?}: {} points", points.len());
                assert!(
                    points.windows(2).all(|w| w[0] < w[1]),
                    "{key:?}: {points:?}"
                );
            }
        }
    }
    assert_eq!(series.len(), 3 * 3 * 2, "no series beyond the grid");
}

/// Figure 5: the head-aware schemes never need less memory than PKG, at
/// most 100% more, and D-C never more than W-C at the same setting.
#[test]
fn fig05_memory_overhead_is_bounded_and_ordered() {
    let rows = smoke_table("fig05_memory_vs_pkg");
    assert_eq!(
        rows.len(),
        2 * 2 * 3,
        "2 schemes × 2 worker counts × 3 skews"
    );
    for row in &rows {
        let pct = num(row, "vs_pkg_pct");
        // The paper reports worst cases around 25-30%; anything beyond 100%
        // would mean the replica model broke.
        assert!(
            (-1e-9..=100.0).contains(&pct),
            "memory overhead {pct}% out of the plausible band in {row}"
        );
    }
    for pair in rows.chunks(2) {
        let (dc, wc) = (&pair[0], &pair[1]);
        assert_eq!((label(dc, "scheme"), label(wc, "scheme")), ("D-C", "W-C"));
        let (dc_pct, wc_pct) = (num(dc, "vs_pkg_pct"), num(wc, "vs_pkg_pct"));
        assert!(dc_pct <= wc_pct + 1e-9, "D-C {dc} over W-C {wc}");
    }
}

/// Figure 6: against shuffle grouping, both head-aware schemes save memory.
#[test]
fn fig06_memory_is_saved_against_shuffle_grouping() {
    let rows = smoke_table("fig06_memory_vs_sg");
    assert_eq!(
        rows.len(),
        2 * 2 * 3,
        "2 schemes × 2 worker counts × 3 skews"
    );
    for row in &rows {
        assert!(num(row, "vs_sg_pct") <= 1e-9, "{row}");
    }
}

/// Figure 8: each scheme's workers carry the whole stream between them,
/// under z = 2.0 the head carries most of it, and two processes record the
/// same values, to the last bit, at the same seed.
#[test]
fn fig08_head_tail_shares_add_up_and_reproduce() {
    let rows = smoke_table("fig08_head_tail_load");
    assert_eq!(rows.len(), 3 * 5, "3 schemes × 5 workers");
    let share = |scheme: &str, column: &str| -> f64 {
        let rows = rows.iter().filter(|r| label(r, "scheme") == scheme);
        rows.map(|r| num(r, column)).sum()
    };
    for scheme in ["PKG", "W-C", "RR"] {
        let total = share(scheme, "head_pct") + share(scheme, "tail_pct");
        assert!((total - 100.0).abs() < 1e-6, "{scheme}: {total}");
    }
    let head = share("W-C", "head_pct");
    assert!(head > 50.0, "W-C head share {head}");
    let again = smoke_table("fig08_head_tail_load");
    assert_eq!(rows, again, "fig08 is not reproducible at full precision");
}

/// Shared checker for the scenario experiments' tables: collects imbalance by
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
fn scenarios_drift_orders_schemes_per_phase() {
    let stdout = run_smoke("scenarios_drift");
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
fn scenarios_hetero_surfaces_slow_workers_in_the_weighted_metric() {
    let stdout = run_smoke("scenarios_hetero");
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
fn scenarios_scaleout_keeps_orderings_and_matches_the_exact_reference() {
    let stdout = run_smoke("scenarios_scaleout");
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
fn elasticity_controller_acts_where_it_can() {
    let stdout = run_smoke("elasticity");
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
fn fig15_aggregation_accounting_is_exact() {
    let stdout = run_smoke("fig15_aggregation_cost");
    // Columns: scheme window aggs tuples/s windows partials p50 p99.
    let rows = table_rows(&stdout);
    assert!(!rows.is_empty(), "fig15 table empty");
    // The experiment runs the smoke engine topology; read its worker count
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
fn tables_are_mirrored_to_json_via_the_env_hook() {
    // The SLB_BENCH_JSON_DIR hook must mirror an experiment's printed rows
    // into EXPT_<table>.json. One cheap solver-only experiment stands in for
    // the rest — every table goes through the same `Table::emit`.
    let dir = std::env::temp_dir().join(format!("slb-golden-json-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create json dir");
    let stdout = expt_smoke("fig04_d_fraction", Some(&dir));
    let body =
        std::fs::read_to_string(dir.join("EXPT_fig04_d_fraction.json")).expect("JSON file written");
    let _ = std::fs::remove_dir_all(&dir);
    let document = Value::parse(&body).unwrap_or_else(|e| panic!("{e}: {body}"));
    assert_eq!(
        document.get("experiment").and_then(Value::as_str),
        Some("fig04_d_fraction")
    );
    let columns: Vec<&str> = document
        .get("columns")
        .and_then(Value::as_arr)
        .expect("a column list")
        .iter()
        .map(|c| c.as_str().expect("column names are strings"))
        .collect();
    assert_eq!(columns, ["skew", "workers", "d", "fraction"]);
    // Row objects are keyed by column name, every column in every row.
    let rows = document.get("rows").and_then(Value::as_arr).expect("rows");
    assert!(!rows.is_empty(), "no rows: {body}");
    for row in rows {
        let keys: Vec<&str> = row
            .as_obj()
            .expect("a row is an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, columns, "row {row}");
    }

    // The JSON mirror is additive: the human-readable table still prints,
    // one line per recorded row.
    assert_eq!(
        table_rows_after(&stdout, "skew").len(),
        rows.len(),
        "{stdout}"
    );
}

#[test]
fn help_lists_every_experiment_and_an_unknown_name_exits_2_with_the_list() {
    let expt = || Command::new(env!("CARGO_BIN_EXE_expt"));
    let help = expt().arg("--help").output().expect("spawn expt --help");
    assert!(help.status.success());
    let refused = expt().arg("fig13_throughput").output().expect("spawn expt");
    assert_eq!(refused.status.code(), Some(2));
    let no_name = expt().output().expect("spawn expt");
    assert_eq!(no_name.status.code(), Some(2));
    let bad_flag = expt()
        .args(["fig04_d_fraction", "--sclae", "smoke"])
        .output();
    assert_eq!(bad_flag.expect("spawn expt").status.code(), Some(2));
    let (listed, stderr) = (
        String::from_utf8_lossy(&help.stdout),
        String::from_utf8_lossy(&refused.stderr),
    );
    for (name, _) in slb_bench::EXPERIMENTS {
        assert!(
            listed.lines().any(|l| l.trim() == *name),
            "{name}:\n{listed}"
        );
        assert!(
            stderr.lines().any(|l| l.trim() == *name),
            "{name}:\n{stderr}"
        );
    }
}
