//! The `--quick` report must carry exactly the workload and metric names
//! that `BENCHMARK.json` promises the driver, with the same unit, direction
//! and bound.

use std::path::Path;
use std::process::Command;

use slb_benchmark::json::Value;

fn names(list: Option<&Value>) -> Vec<String> {
    let mut names: Vec<String> = list
        .and_then(Value::as_arr)
        .expect("a list in BENCHMARK.json")
        .iter()
        .map(|entry| {
            let name = entry.get("name").and_then(Value::as_str).expect("a name");
            assert!(
                !name.is_empty()
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name:?} does not match [A-Za-z0-9_.-]+"
            );
            name.to_string()
        })
        .collect();
    names.sort();
    names
}

/// Every metric of `list` must appear in `reported` with the same unit,
/// direction and (for end-to-end metrics) bound.
fn assert_same_header(list: Option<&Value>, reported: Option<&Value>, workload: &str) {
    for entry in list.and_then(Value::as_arr).expect("a list") {
        let name = entry.get("name").and_then(Value::as_str).expect("a name");
        let metric = reported.and_then(|r| r.get(name));
        for field in ["unit", "better", "bound"] {
            assert_eq!(
                metric.and_then(|m| m.get(field)),
                entry.get(field),
                "{workload}: {name}: {field}"
            );
        }
    }
}

fn keys(object: Option<&Value>) -> Vec<String> {
    let mut keys: Vec<String> = object
        .and_then(Value::as_obj)
        .expect("an object in the result file")
        .iter()
        .map(|(key, _)| key.clone())
        .collect();
    keys.sort();
    keys
}

#[test]
fn quick_report_names_match_benchmark_json() {
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let contract = std::fs::read_to_string(manifest_dir.join("../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repo root");
    let contract = Value::parse(&contract).expect("BENCHMARK.json parses");

    let report = Command::new(env!("CARGO_BIN_EXE_slb-benchmark"))
        .args(["--quick", "--seed", "7"])
        .output()
        .expect("the benchmark binary runs");
    assert!(
        report.status.success(),
        "the quick report exits 0; it said: {}",
        String::from_utf8_lossy(&report.stderr)
    );

    let result = std::fs::read_to_string(manifest_dir.join("out/result_quick.json"))
        .expect("the quick report writes out/result_quick.json");
    let result = Value::parse(&result).expect("result_quick.json parses");
    let stamp = result.get("stamp").expect("a stamp");
    for field in ["git_rev", "nproc", "cpu_model", "rustc", "seed"] {
        assert!(stamp.get(field).is_some(), "stamp lacks {field}");
    }

    let workloads = result.get("workloads");
    assert_eq!(keys(workloads), names(contract.get("workloads")));
    for (name, workload) in workloads.and_then(Value::as_obj).expect("workloads") {
        assert_eq!(
            keys(workload.get("end_to_end")),
            names(contract.get("end_to_end")),
            "{name}: end-to-end metric names"
        );
        assert_eq!(
            keys(workload.get("per_layer")),
            names(contract.get("per_layer")),
            "{name}: per-layer metric names"
        );
        assert_same_header(contract.get("end_to_end"), workload.get("end_to_end"), name);
        assert_same_header(contract.get("per_layer"), workload.get("per_layer"), name);
        assert_eq!(
            workload.get("failed").and_then(Value::as_f64),
            Some(0.0),
            "{name}: failed"
        );
    }
}
