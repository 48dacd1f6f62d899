//! `docs/BENCH_history.jsonl`, the one record of every measured change: each
//! row is a `bench_compare --history` row over the workloads and end-to-end
//! metrics `BENCHMARK.json` declares.

use slb_benchmark::json::Value;

const VERDICTS: [&str; 4] = ["gain", "neutral", "regress", "unresolved"];

fn read(path: &str) -> String {
    let path = format!("{}/../../{path}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The `name` of every entry of `BENCHMARK.json`'s `list`.
fn declared(benchmark: &Value, list: &str) -> Vec<String> {
    let entries = benchmark
        .get(list)
        .and_then(Value::as_arr)
        .unwrap_or_default();
    let names: Vec<String> = entries
        .iter()
        .filter_map(|e| e.get("name").and_then(Value::as_str))
        .map(str::to_string)
        .collect();
    assert!(!names.is_empty(), "BENCHMARK.json declares no {list}");
    names
}

/// Checks one row and returns the problems found in it.
fn problems(row: &str, workloads: &[String], metrics: &[String]) -> Vec<String> {
    let row = match Value::parse(row) {
        Ok(row) => row,
        Err(e) => return vec![format!("does not parse: {e}")],
    };
    let mut found = Vec::new();
    if row.get("commit").and_then(Value::as_str).is_none() {
        found.push("no commit label".to_string());
    }
    if !row
        .get("pairs")
        .and_then(Value::as_f64)
        .is_some_and(|p| p >= 1.0)
    {
        found.push("no pair count".to_string());
    }
    // The children's CPU seconds, in the rows measured since the comparer
    // records them.
    let cpu = row.get("cpu").and_then(Value::as_obj).unwrap_or_default();
    for (workload, _) in cpu {
        if !workloads.contains(workload) {
            found.push(format!("cpu: undeclared workload {workload}"));
        }
    }
    let Some(measured) = row.get("workloads").and_then(Value::as_obj) else {
        found.push("no workloads".to_string());
        return found;
    };
    for (workload, rows) in measured {
        if !workloads.contains(workload) {
            found.push(format!("undeclared workload {workload}"));
        }
        for (metric, summary) in rows.as_obj().unwrap_or_default() {
            if !metrics.contains(metric) {
                found.push(format!("{workload}: undeclared metric {metric}"));
            }
            let verdict = summary.get("verdict").and_then(Value::as_str);
            if !verdict.is_some_and(|v| VERDICTS.contains(&v)) {
                found.push(format!("{workload} {metric}: verdict {verdict:?}"));
            }
        }
    }
    found
}

#[test]
fn every_history_row_names_declared_workloads_metrics_and_verdicts() {
    let benchmark = Value::parse(&read("BENCHMARK.json")).expect("BENCHMARK.json parses");
    let workloads = declared(&benchmark, "workloads");
    let metrics = declared(&benchmark, "end_to_end");
    let history = read("docs/BENCH_history.jsonl");
    let mut rows = 0;
    for (n, row) in history.lines().enumerate() {
        let found = problems(row, &workloads, &metrics);
        assert!(found.is_empty(), "row {}: {found:?}", n + 1);
        rows += 1;
    }
    assert!(rows > 0, "docs/BENCH_history.jsonl holds no row");
}
