//! Golden end-to-end tests for `slb-node`: real processes, real sockets.
//!
//! Each test writes a cluster spec, runs `slb-node orchestrate --spec ...
//! --verify`, and asserts the orchestrator (1) completes, (2) reports the
//! expected tuple totals, and (3) prints `exact-reference=MATCH` — i.e. the
//! merged windowed counts of the multi-process run are bit-identical to the
//! single-threaded exact reference. This is the acceptance check that the
//! topology survives crossing process boundaries.
//!
//! The orchestrator, the S+W+A child processes, the control plane, the data
//! plane, the report merge, and the verification all run exactly as a user
//! would invoke them (`CARGO_BIN_EXE_slb-node` is the built binary).

mod common;

use std::path::PathBuf;
use std::process::Command;

use common::{node_exe, write_spec};

fn run_orchestrate(spec_path: &PathBuf) -> (String, String, bool) {
    let output = Command::new(node_exe())
        .arg("orchestrate")
        .arg("--spec")
        .arg(spec_path)
        .arg("--verify")
        .output()
        .expect("spawn slb-node orchestrate");
    (
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
        output.status.success(),
    )
}

#[test]
fn engine_run_over_processes_matches_exact_reference() {
    let seed = std::env::var("SLB_TEST_SEED").unwrap_or_else(|_| "42".into());
    let spec = format!(
        "# golden: single-phase engine run across 2+3+2 processes\n\
         mode engine\n\
         scheme PKG\n\
         sources 2\n\
         workers 3\n\
         keys 500\n\
         skew 1.6\n\
         messages 12000\n\
         service_time_us 0\n\
         queue_capacity 256\n\
         seed {seed}\n\
         batch_size 64\n\
         window_size 1024\n\
         aggregators 2\n"
    );
    let path = write_spec("engine", &spec);
    let (stdout, stderr, ok) = run_orchestrate(&path);
    let _ = std::fs::remove_file(&path);
    assert!(
        ok,
        "orchestrate failed\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stdout.contains("processed=12000"),
        "expected every tuple processed\n{stdout}"
    );
    assert!(
        stdout.contains("sent=12000"),
        "expected every tuple sent\n{stdout}"
    );
    assert!(
        stdout.contains("exact-reference=MATCH"),
        "multi-process counts diverged from the reference\n{stdout}\n{stderr}"
    );
}

#[test]
fn scenario_run_over_processes_matches_exact_reference() {
    let seed = std::env::var("SLB_TEST_SEED").unwrap_or_else(|_| "7".into());
    // Drift, scale-out (3 → 4 workers), heterogeneity, and a bursty
    // scale-in phase — the full scenario machinery across processes.
    let spec = format!(
        "mode scenario\n\
         scheme D-C\n\
         name golden\n\
         sources 2\n\
         window_size 256\n\
         seed {seed}\n\
         service_time_us 0\n\
         queue_capacity 256\n\
         batch_size 64\n\
         aggregators 2\n\
         phase windows=2 keys=400 skew=1.8 workers=3\n\
         phase windows=2 keys=400 skew=1.2 workers=4 drift_epochs=2 speed=2,1,1,1\n\
         phase windows=1 keys=200 skew=0 workers=2 burst_tuples=96 pause_us=5\n"
    );
    let path = write_spec("scenario", &spec);
    let (stdout, stderr, ok) = run_orchestrate(&path);
    let _ = std::fs::remove_file(&path);
    assert!(
        ok,
        "orchestrate failed\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    // 2 sources × 5 windows × 256 tuples.
    assert!(
        stdout.contains("processed=2560"),
        "expected every tuple processed\n{stdout}"
    );
    assert!(
        stdout.contains("phase 2:"),
        "expected per-phase metrics for all 3 phases\n{stdout}"
    );
    assert!(
        stdout.contains("exact-reference=MATCH"),
        "multi-process scenario counts diverged from the reference\n{stdout}\n{stderr}"
    );
}

#[test]
fn orchestrate_rejects_a_bad_spec() {
    let path = write_spec("bad", "mode engine\nscheme PKG\n");
    let output = Command::new(node_exe())
        .arg("orchestrate")
        .arg("--spec")
        .arg(&path)
        .output()
        .expect("spawn slb-node orchestrate");
    let _ = std::fs::remove_file(&path);
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("missing field"),
        "expected a parse error, got:\n{stderr}"
    );
}

#[test]
fn orchestrate_rejects_a_structurally_invalid_spec_without_panicking() {
    // Every line parses; the run it describes has no workers. This used to
    // get past the parser and die with a backtrace in `stage_plan`.
    let path = write_spec(
        "zero-workers",
        "mode engine\nscheme PKG\nsources 2\nworkers 0\nkeys 500\nskew 1.6\n\
         messages 12000\nservice_time_us 0\nqueue_capacity 256\nseed 1\n\
         batch_size 64\nwindow_size 1024\naggregators 2\n",
    );
    let output = Command::new(node_exe())
        .arg("orchestrate")
        .arg("--spec")
        .arg(&path)
        .output()
        .expect("spawn slb-node orchestrate");
    let _ = std::fs::remove_file(&path);
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    let errors: Vec<&str> = stderr.lines().filter(|l| l.contains("parsing ")).collect();
    assert_eq!(errors.len(), 1, "expected one `parsing …:` line:\n{stderr}");
    assert!(
        errors[0].contains("need at least one worker"),
        "expected the broken rule, got:\n{stderr}"
    );
    assert!(!stderr.contains("panicked at"), "must not panic:\n{stderr}");
}

#[test]
fn node_cli_rejects_unknown_modes() {
    let output = Command::new(node_exe())
        .arg("conduct")
        .output()
        .expect("spawn slb-node");
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("unknown mode"));
}

#[test]
fn latency_reaches_the_orchestrator_as_the_workers_recorded_it() {
    // Long enough that every worker records past 65,536 tuples, where
    // reports used to carry bucket floors and the orchestrator rebuilt the
    // mean, minimum and maximum from those.
    use slb_net::cluster::{ClusterSpec, RunSpec};
    let cfg = slb_engine::EngineConfig::smoke(slb_core::PartitionerKind::ShuffleGrouping, 1.0)
        .with_messages(400_000)
        .with_service_time_us(0);
    let in_process = slb_engine::Topology::new(cfg.clone()).run();
    let spec = ClusterSpec {
        run: RunSpec::Engine(cfg),
    };
    let outcome = slb_net::node::orchestrate(&spec, std::path::Path::new(node_exe()))
        .expect("a healthy cluster");
    let result = &outcome.result;
    assert_eq!(result.processed, 400_000);
    assert!(result.worker_counts.iter().all(|&n| n > 65_536));
    assert_eq!(result.latency.samples, result.processed);
    assert_eq!(result.latency.samples, in_process.latency.samples);
    let recorded = &result.latency_histogram;
    assert_eq!(recorded.count(), result.latency.samples);
    assert_eq!(result.latency.mean_us, recorded.mean());
    assert_eq!(result.latency.max_us, recorded.max());
    // The final metrics snapshots carry the same distributions by another
    // route (worker tuples plus aggregator merges): the exact scalars agree.
    let rollup = outcome.metrics.expect("every stage ships a final snapshot");
    let merges = result.aggregator_stage.latency;
    assert_eq!(rollup.latency.count(), recorded.count() + merges.samples);
    assert_eq!(rollup.latency.max(), recorded.max().max(merges.max_us));
    let merge_sum = (merges.mean_us * merges.samples as f64).round() as u128;
    assert_eq!(rollup.latency.sum(), recorded.sum() + merge_sum);
}

#[test]
fn orchestrate_fails_fast_when_children_exit_without_hello() {
    // Spawning `true` as the node binary makes every child exit immediately
    // without ever connecting to the control plane; the orchestrator must
    // turn that into an error instead of blocking in accept forever.
    use slb_net::cluster::{ClusterSpec, RunSpec};
    use slb_net::node::orchestrate;
    let spec = ClusterSpec {
        run: RunSpec::Engine(
            slb_engine::EngineConfig::smoke(slb_core::PartitionerKind::Pkg, 1.4)
                .with_messages(4_000)
                .with_service_time_us(0),
        ),
    };
    let started = std::time::Instant::now();
    let err = orchestrate(&spec, std::path::Path::new("true"))
        .err()
        .expect("dead children must fail the run");
    assert!(
        err.contains("exited prematurely"),
        "unexpected error: {err}"
    );
    assert!(
        started.elapsed() < std::time::Duration::from_secs(30),
        "fast-fail took {:?}",
        started.elapsed()
    );
}

#[test]
fn orchestrate_refuses_a_spec_its_text_form_cannot_carry() {
    // Nodes run what they parse out of the `Start` frame's text, so a name
    // that text cannot carry must stop the run before anything is spawned
    // (with `true` as the node binary a spawned cluster fails differently).
    use slb_net::cluster::{ClusterSpec, RunSpec};
    use slb_workloads::{Scenario, ScenarioPhase};
    let scenario = Scenario::new("two\nlines", 1, 64, 1).phase(ScenarioPhase::new(1, 10, 1.0, 1));
    let spec = ClusterSpec {
        run: RunSpec::Scenario(slb_engine::ScenarioConfig::new(
            slb_core::PartitionerKind::Pkg,
            scenario,
        )),
    };
    let err = slb_net::node::orchestrate(&spec, std::path::Path::new("true"))
        .err()
        .expect("an unshippable spec must not run");
    assert!(err.contains("does not survive its text form"), "{err}");
}

/// A run whose every source has an empty sub-stream (one message over two
/// sources: 0 windows) ends and matches, with and without
/// `--fault-tolerant`: a worker with no window to finalize reports at
/// once instead of waiting for an EOF that only follows the `Release`.
#[test]
fn an_empty_stream_ends_and_matches_with_and_without_fault_tolerance() {
    use std::process::Stdio;
    use std::time::{Duration, Instant};
    let spec = "mode engine\n\
         scheme PKG\n\
         sources 2\n\
         workers 3\n\
         keys 500\n\
         skew 1.6\n\
         messages 1\n\
         service_time_us 0\n\
         queue_capacity 256\n\
         seed 1\n\
         batch_size 64\n\
         window_size 1024\n\
         aggregators 2\n";
    let path = write_spec("empty", spec);
    let ckpt_dir = std::env::temp_dir().join(format!("slb-node-empty-{}", std::process::id()));
    for fault_tolerant in [false, true] {
        let mut orchestrate = Command::new(node_exe());
        orchestrate.arg("orchestrate").arg("--spec").arg(&path);
        orchestrate.arg("--verify");
        if fault_tolerant {
            orchestrate
                .arg("--fault-tolerant")
                .arg("--ckpt-dir")
                .arg(&ckpt_dir);
        }
        let mut child = orchestrate
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn slb-node orchestrate");
        let deadline = Instant::now() + Duration::from_secs(20);
        while child.try_wait().expect("poll orchestrate").is_none() {
            if Instant::now() >= deadline {
                let _ = child.kill();
                let _ = child.wait();
                panic!("an empty run (fault-tolerant: {fault_tolerant}) was still running");
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let output = child.wait_with_output().expect("collect orchestrate");
        let stdout = String::from_utf8_lossy(&output.stdout);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            output.status.success() && stdout.contains("exact-reference=MATCH (0 windows)"),
            "fault-tolerant: {fault_tolerant}\nstdout:\n{stdout}\nstderr:\n{stderr}"
        );
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir_all(&ckpt_dir);
}

/// Every node runs one protocol, so no role mode asks which kind of run it
/// is in: `--fault-tolerant` is an unknown flag there (exit 2), and a
/// `--rejoin` worker, which restores from its checkpoint log, refuses to
/// start without `--ckpt-dir` (exit 1, before it dials anyone).
#[test]
fn role_modes_take_no_fault_tolerance_switch_and_a_rejoin_needs_its_log() {
    let node = ["--index", "0", "--control", "127.0.0.1:9"];
    for role in ["source", "worker", "aggregator"] {
        let output = Command::new(node_exe())
            .arg(role)
            .args(node)
            .arg("--fault-tolerant")
            .output()
            .expect("spawn slb-node");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{role}\n{stderr}");
        assert!(
            stderr.contains("unknown argument: --fault-tolerant"),
            "{stderr}"
        );
    }
    let output = Command::new(node_exe())
        .arg("worker")
        .args(node)
        .arg("--rejoin")
        .output()
        .expect("spawn slb-node");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("--ckpt-dir"), "{stderr}");
}
