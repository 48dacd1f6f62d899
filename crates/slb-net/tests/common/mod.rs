//! Helpers shared by the slb-net integration suites. Each suite compiles
//! this module on its own and uses only some of it.
#![allow(dead_code)]

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;

use slb_engine::{diff_windows, WindowId};
use slb_workloads::KeyId;

/// The built `slb-node` binary.
pub fn node_exe() -> &'static str {
    env!("CARGO_BIN_EXE_slb-node")
}

/// Pulls the integer that follows `prefix` out of a report line.
pub fn parse_counter(stdout: &str, prefix: &str) -> u64 {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix(prefix))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse::<u64>().ok())
        .unwrap_or_else(|| panic!("missing `{prefix}` report line in:\n{stdout}"))
}

/// Writes `spec` to a unique temp file and returns its path.
pub fn write_spec(name: &str, spec: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("slb-node-{name}-{}.spec", std::process::id()));
    std::fs::write(&path, spec).expect("write spec file");
    path
}

/// Equality with a readable failure: a mismatch panics with the first
/// divergent window and key instead of dumping two whole maps.
#[track_caller]
pub fn assert_windows_match(
    got: &BTreeMap<WindowId, HashMap<KeyId, u64>>,
    expected: &BTreeMap<WindowId, HashMap<KeyId, u64>>,
    context: &str,
) {
    if let Some(first_divergence) = diff_windows(got, expected) {
        panic!("{context}: {first_divergence}");
    }
}
