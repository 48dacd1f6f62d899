//! Process-kill fault tests for `slb-node`: real SIGKILL, real respawn.
//!
//! These are the process-level analogue of the engine's fault-injection
//! suite. Each test runs `slb-node orchestrate --fault-tolerant` with the
//! built-in `--kill-worker W@MS` injector, which SIGKILLs a live worker
//! process mid-run, and asserts the supervisor's recovery contract:
//!
//! * **Respawn path** — the worker is respawned, restores from its durable
//!   on-disk checkpoint, rejoins over the control plane, sources replay
//!   from its cursors, and the merged windowed counts are *bit-identical*
//!   to the single-threaded exact reference (`exact-reference=MATCH`) with
//!   zero duplicate partials reaching the aggregators.
//! * **Exact duplicate accounting** — the deterministic `--crash-worker W@N`
//!   injector aborts between shipping a window and saving its checkpoint,
//!   so the re-shipped tail window is guaranteed: `duplicates_dropped` must
//!   equal `aggregators` exactly, with exactly one restore. A single-source
//!   variant (where record sizes, hence rebase points, repeat exactly) runs
//!   at two adjacent closes, so one of its respawns provably restores from a
//!   base record *plus deltas* (two bases are never written back to back).
//! * **Degrade path** — with a zero respawn budget the worker is excluded,
//!   the survivors rescale it out at a window boundary, and the run
//!   terminates with a degraded report instead of hanging.
//! * **No silent no-op** — an injector naming a worker the spec does not
//!   have, a flag the mode does not take, a value flag without its value,
//!   a repeated flag and `--crash-after-closes 0` are refused (exit 2)
//!   before any node is spawned.
//!
//! The run is sized so the kill is guaranteed to land mid-run: with
//! `service_time_us 50` the worker stage has a busy floor of hundreds of
//! milliseconds, far past the kill delay.

use std::path::PathBuf;
use std::process::Command;

fn node_exe() -> &'static str {
    env!("CARGO_BIN_EXE_slb-node")
}

/// Pulls the integer that follows `prefix` out of a report line.
fn parse_counter(stdout: &str, prefix: &str) -> u64 {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix(prefix))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse::<u64>().ok())
        .unwrap_or_else(|| panic!("missing `{prefix}` report line in:\n{stdout}"))
}

fn seed() -> String {
    std::env::var("SLB_TEST_SEED").unwrap_or_else(|_| "42".into())
}

/// Writes `spec` to a unique temp file and returns its path.
fn write_spec(name: &str, spec: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("slb-node-{name}-{}.spec", std::process::id()));
    std::fs::write(&path, spec).expect("write spec file");
    path
}

/// A unique checkpoint directory per test, removed afterwards.
fn ckpt_dir(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("slb-node-ckpt-{}-{name}", std::process::id()));
    path
}

#[test]
fn killed_worker_respawns_from_checkpoint_and_counts_match_exactly() {
    // ~820 ms of pure service time spread over 3 workers: the kill at
    // 250 ms is deep mid-run, with dozens of checkpointed windows behind
    // it and dozens of windows left to replay and process. 20 000 keys at
    // a mild skew keep new keys arriving all run long, so by then each
    // worker's base record is tens of kilobytes against deltas of one or
    // two: the log is rebased every dozen-odd closes and the respawn
    // restores from a base plus whatever deltas followed it.
    let spec = format!(
        "# fault golden: SIGKILL worker 1 mid-run, respawn, replay, verify\n\
         mode engine\n\
         scheme PKG\n\
         sources 2\n\
         workers 3\n\
         keys 20000\n\
         skew 0.8\n\
         messages 49152\n\
         service_time_us 50\n\
         queue_capacity 256\n\
         seed {}\n\
         batch_size 64\n\
         window_size 256\n\
         aggregators 2\n",
        seed()
    );
    let path = write_spec("fault-respawn", &spec);
    let dir = ckpt_dir("respawn");
    let output = Command::new(node_exe())
        .arg("orchestrate")
        .arg("--spec")
        .arg(&path)
        .arg("--verify")
        .arg("--fault-tolerant")
        .arg("--respawn-budget")
        .arg("1")
        .arg("--ckpt-dir")
        .arg(&dir)
        .arg("--kill-worker")
        .arg("1@250")
        .output()
        .expect("spawn slb-node orchestrate");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir_all(&dir);
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "supervised orchestrate failed\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stdout.contains("exact-reference=MATCH"),
        "counts diverged from the reference after a worker kill\n{stdout}\n{stderr}"
    );
    // Exactly-once across the process boundary: replayed tuples are
    // deduplicated at the worker, so at most the *tail* window — shipped
    // but not yet checkpointed when the SIGKILL landed — may reach the
    // aggregators twice, and their (worker, window) dedup drops it. The
    // store saves window W's checkpoint before window W+1 ships, so each
    // restore re-ships at most that one tail window: `aggregators`
    // partials per restore. Anything above means worker-side dedup failed
    // and tuples were re-counted.
    let dropped = parse_counter(&stdout, "aggregator_recovery duplicates_dropped=");
    let restores = parse_counter(&stdout, "worker_recovery restores=");
    assert!(
        dropped <= restores * 2,
        "more than one tail window per restore reached the aggregators twice \
         (duplicates_dropped={dropped}, restores={restores}, aggregators=2)\n{stdout}"
    );
    assert!(
        restores >= 1,
        "the kill landed but no restore was reported\n{stdout}"
    );
    assert!(
        !stdout.contains("degraded workers="),
        "a budgeted respawn must not degrade the run\n{stdout}"
    );
}

/// Pulls `(close, deltas)` out of the respawned worker's
/// `restored close C from base generation G + D deltas` log line.
fn parse_restore_line(stderr: &str) -> (u64, u64) {
    let line = stderr
        .lines()
        .find(|l| l.contains("restored close "))
        .unwrap_or_else(|| panic!("no restore line in the respawned worker's log:\n{stderr}"));
    let number_after = |marker: &str| -> u64 {
        line.split(marker)
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("malformed restore line: {line}"))
    };
    (number_after("restored close "), number_after(" + "))
}

/// Runs the deterministic `--crash-worker 1@crash_at` cluster with
/// `sources` sources, asserts the exact tail-window accounting, and returns
/// how many delta records the respawned worker restored through.
///
/// `--crash-worker 1@N` makes worker 1 abort at its N-th window
/// finalization, after shipping that window's partials but *before* the
/// durable save — the worst interleaving of the tail-window re-ship race,
/// pinned to a fixed point instead of a wall-clock kill. The restored
/// worker replays exactly that window and re-ships it, so the aggregators
/// must drop exactly `aggregators` duplicate partials — no more (dedup
/// works), no fewer (the race really happened).
fn crash_after_ship_restores_exactly(sources: usize, crash_at: u64) -> u64 {
    let spec = format!(
        "# fault golden: deterministic abort between ship and save\n\
         mode engine\n\
         scheme PKG\n\
         sources {sources}\n\
         workers 3\n\
         keys 500\n\
         skew 1.6\n\
         messages 24576\n\
         service_time_us 50\n\
         queue_capacity 256\n\
         seed {}\n\
         batch_size 64\n\
         window_size 256\n\
         aggregators 2\n",
        seed()
    );
    let name = format!("crash-exact-{sources}-{crash_at}");
    let path = write_spec(&name, &spec);
    let dir = ckpt_dir(&name);
    let output = Command::new(node_exe())
        .arg("orchestrate")
        .arg("--spec")
        .arg(&path)
        .arg("--verify")
        .arg("--fault-tolerant")
        .arg("--respawn-budget")
        .arg("1")
        .arg("--ckpt-dir")
        .arg(&dir)
        .arg("--crash-worker")
        .arg(format!("1@{crash_at}"))
        // The restore line parsed below is logged at `info`.
        .env("SLB_LOG", "info")
        .output()
        .expect("spawn slb-node orchestrate");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir_all(&dir);
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "supervised orchestrate failed\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stdout.contains("exact-reference=MATCH"),
        "counts diverged from the reference after the injected crash\n{stdout}\n{stderr}"
    );
    let restores = parse_counter(&stdout, "worker_recovery restores=");
    assert_eq!(
        restores, 1,
        "the injected crash must cause exactly one restore\n{stdout}"
    );
    let dropped = parse_counter(&stdout, "aggregator_recovery duplicates_dropped=");
    assert_eq!(
        dropped, 2,
        "crash-after-ship-before-save must re-ship exactly the tail window \
         (one duplicate partial per aggregator)\n{stdout}"
    );
    assert!(
        !stdout.contains("degraded workers="),
        "a budgeted respawn must not degrade the run\n{stdout}"
    );
    let (close, deltas) = parse_restore_line(&stderr);
    assert_eq!(
        close,
        crash_at - 1,
        "the respawn must restore the last close whose save completed\n{stderr}"
    );
    deltas
}

#[test]
fn deterministic_crash_after_ship_yields_exactly_one_reshipped_tail_window() {
    crash_after_ship_restores_exactly(2, 10);
}

/// The same crash where the respawn provably restores from a base record
/// *plus deltas*. With a single source a worker sees one FIFO stream, so
/// what each close writes — and therefore which closes rebase — is the same
/// in every run of a seed; and a base is never followed directly by another
/// (there are no delta bytes to outweigh it yet). So of the restores at
/// closes 9 and 10, at least one goes through a delta.
#[test]
fn deterministic_crash_restores_through_deltas_at_one_of_two_adjacent_closes() {
    let deltas_restored =
        [10u64, 11].map(|crash_at| crash_after_ship_restores_exactly(1, crash_at));
    assert!(
        deltas_restored.iter().any(|&deltas| deltas >= 1),
        "adjacent closes cannot both be bare bases, yet neither respawn restored \
         through a delta: {deltas_restored:?}"
    );
}

/// A fault injector aimed past the last worker never fires, so the run would
/// finish healthy and a fault test built on it would pass without testing
/// anything: the CLI refuses it before spawning a node.
#[test]
fn a_fault_naming_no_worker_is_refused() {
    let spec = "mode engine\nscheme PKG\nsources 1\nworkers 3\nkeys 500\nskew 1.6\n\
                messages 4096\nservice_time_us 0\nqueue_capacity 256\nseed 1\n\
                batch_size 64\nwindow_size 256\naggregators 1\n";
    let path = write_spec("fault-out-of-range", spec);
    for (flag, value) in [("--kill-worker", "9@100"), ("--crash-worker", "3@3")] {
        let output = Command::new(node_exe())
            .args(["orchestrate", "--spec"])
            .arg(&path)
            .args(["--fault-tolerant", flag, value])
            .output()
            .expect("spawn slb-node orchestrate");
        let stdout = String::from_utf8_lossy(&output.stdout);
        let stderr = String::from_utf8_lossy(&output.stderr);
        let worker = value.split('@').next().unwrap_or_default();
        let message = format!("{flag} names worker {worker} of 3");
        assert_eq!(output.status.code(), Some(2), "{flag} {value}\n{stderr}");
        assert!(stderr.contains(&message), "{flag} {value}\n{stderr}");
        assert!(
            !stdout.contains("scheme="),
            "{flag} {value} ran a cluster\n{stdout}"
        );
    }
    let _ = std::fs::remove_file(&path);
}

/// A flag the mode does not know, or one it cannot use, is refused before
/// anything runs: a misspelt `--verify` would otherwise run the cluster,
/// skip the check and exit 0, and `--crash-after-closes 0` could never fire.
#[test]
fn a_flag_the_mode_does_not_take_is_refused() {
    let spec = "mode engine\nscheme PKG\nsources 1\nworkers 3\nkeys 500\nskew 1.6\n\
                messages 4096\nservice_time_us 0\nqueue_capacity 256\nseed 1\n\
                batch_size 64\nwindow_size 256\naggregators 1\n";
    let path = write_spec("flag-refused", spec);
    let spec = path.to_str().expect("utf-8 temp path");
    let worker = ["worker", "--index", "0", "--control", "127.0.0.1:9"];
    let cases: [(Vec<&str>, &str); 6] = [
        (
            vec!["orchestrate", "--spec", spec, "--verfy"],
            "unknown argument: --verfy",
        ),
        (
            vec!["orchestrate", "--spec", spec, "--respawn-budget"],
            "--respawn-budget needs a value",
        ),
        (
            vec!["orchestrate", "--spec", "--verify"],
            "--spec needs a value",
        ),
        (
            vec!["orchestrate", "--spec", spec, "--verify", "--verify"],
            "--verify given twice",
        ),
        (
            [&worker[..], &["--crash-after-closes", "0"]].concat(),
            "--crash-after-closes needs a positive integer",
        ),
        (
            [&worker[..], &["--kill-worker", "0@1"]].concat(),
            "unknown argument: --kill-worker",
        ),
    ];
    for (args, message) in cases {
        let output = Command::new(node_exe())
            .args(&args)
            .output()
            .expect("spawn slb-node");
        let stdout = String::from_utf8_lossy(&output.stdout);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}\n{stderr}");
        assert!(
            stderr.contains(message),
            "{args:?}: want {message:?}\n{stderr}"
        );
        assert!(
            !stdout.contains("scheme="),
            "{args:?} ran a cluster\n{stdout}"
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn exhausted_respawn_budget_degrades_instead_of_hanging() {
    let spec = format!(
        "# fault golden: SIGKILL worker 1 with a zero respawn budget\n\
         mode engine\n\
         scheme PKG\n\
         sources 2\n\
         workers 3\n\
         keys 500\n\
         skew 1.6\n\
         messages 24576\n\
         service_time_us 50\n\
         queue_capacity 256\n\
         seed {}\n\
         batch_size 64\n\
         window_size 256\n\
         aggregators 2\n",
        seed()
    );
    let path = write_spec("fault-degrade", &spec);
    let dir = ckpt_dir("degrade");
    // No --verify: excluding a worker forfeits its unshipped tuples by
    // design, so the merged counts legitimately differ from the reference.
    let output = Command::new(node_exe())
        .arg("orchestrate")
        .arg("--spec")
        .arg(&path)
        .arg("--fault-tolerant")
        .arg("--respawn-budget")
        .arg("0")
        .arg("--ckpt-dir")
        .arg(&dir)
        .arg("--kill-worker")
        .arg("1@150")
        .output()
        .expect("spawn slb-node orchestrate");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir_all(&dir);
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "degraded run must terminate with a report, not an error\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stdout.contains("degraded workers=[1]"),
        "expected worker 1 to be reported as degraded\n{stdout}\n{stderr}"
    );
    assert!(
        stdout.contains("scheme="),
        "expected a full result report despite the exclusion\n{stdout}"
    );
}
