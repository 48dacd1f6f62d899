//! Fault-injection differential suite: exactly-once under kills and losses,
//! on every backend.
//!
//! The recovery machinery's contract is stronger than "no data loss": after
//! any scheduled worker kill or connection drop, the merged per-window
//! per-key counts must be **bit-identical** to the single-threaded exact
//! reference — exactly-once, not at-least-once. This suite executes the
//! same deterministic `FaultPlan`s over the in-process backend, the
//! lock-free SPSC ring backend, and TCP loopback sockets, and
//! asserts:
//!
//! * merged windows equal the exact reference (and each other) after every
//!   fault, for every grouping scheme, skew, and seed;
//! * a worker killed mid-window restores from its checkpoint (`restores`
//!   counts the scheduled kills) and replays the windows in flight — the
//!   aggregators never see a duplicate partial (`duplicates_dropped == 0`),
//!   which is the "closed windows are never reprocessed" guarantee;
//! * a dropped connection is healed by sequence-gap detection and bounded
//!   replay (`replay_requests > 0`, `replayed_items > 0`, no restore);
//! * the same `FaultPlan` run twice produces byte-identical windowed
//!   counts, and `FaultPlan::none()` is indistinguishable from a plain run —
//!   on TCP exactly as in process (the in-process halves of those
//!   regressions live in `slb-engine`'s unit tests).
//!
//! Fault points are derived from the seed via splitmix64, so the matrix
//! varies with `SLB_TEST_SEED` but every individual run is reproducible.
//! Recovery *counters* other than `restores` are interleaving-dependent
//! diagnostics (how much replay a gap needed depends on timing); the suite
//! asserts signs and exact state, never exact replay volumes.

use std::collections::{BTreeMap, HashMap};

use slb_core::{CountAggregate, PartitionerKind};
use slb_engine::{
    diff_windows, exact_scenario_windowed_counts, exact_windowed_counts, EngineConfig, FaultEvent,
    FaultPlan, InProc, ScenarioConfig, Spsc, Topology, WindowId,
};
use slb_net::tcp::TcpTransport;
use slb_telemetry::{stage, trace_kind};
use slb_workloads::{Arrival, KeyId, Scenario, ScenarioPhase};

/// Equality with a readable failure: a mismatch panics with the first
/// divergent window and key instead of dumping two whole maps.
#[track_caller]
fn assert_windows_match(
    got: &BTreeMap<WindowId, HashMap<KeyId, u64>>,
    expected: &BTreeMap<WindowId, HashMap<KeyId, u64>>,
    context: &str,
) {
    if let Some(first_divergence) = diff_windows(got, expected) {
        panic!("{context}: {first_divergence}");
    }
}

/// Seeds to exercise: `SLB_TEST_SEED` alone when set (how `ci.sh` sweeps
/// its {1, 42, 1337} matrix), a built-in pair otherwise.
fn seeds() -> Vec<u64> {
    match std::env::var("SLB_TEST_SEED") {
        Ok(value) => {
            let seed: u64 = value
                .parse()
                .unwrap_or_else(|_| panic!("SLB_TEST_SEED must be a u64, got {value:?}"));
            vec![seed]
        }
        Err(_) => vec![19, 71],
    }
}

/// splitmix64: derives independent, reproducible fault parameters from the
/// run seed without any external RNG.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Small-but-threaded, like the cross-backend suite: zero service time,
/// several windows per worker, many frames per socket.
fn fault_config(kind: PartitionerKind, skew: f64, seed: u64) -> EngineConfig {
    EngineConfig::smoke(kind, skew)
        .with_seed(seed)
        .with_messages(16_000)
        .with_service_time_us(0)
        .with_window_size(512)
        .with_batch_size(64)
}

/// A seed-derived plan mixing one mid-run kill with one connection drop.
/// Routing is deterministic, so a clean run's per-worker counts tell us
/// exactly how many tuples each worker will process; the kill targets a
/// seed-picked worker among those with enough traffic and fires between
/// 25% and 50% of that worker's total — always inside the run, with work
/// left after the restore, even for schemes (KG at high skew) that leave
/// some workers nearly idle.
fn derived_faults(cfg: &EngineConfig, seed: u64) -> FaultPlan {
    let counts = Topology::new(cfg.clone()).run().worker_counts;
    let busiest = *counts.iter().max().expect("at least one worker");
    let candidates: Vec<usize> = (0..counts.len())
        .filter(|&w| counts[w] >= busiest / 2)
        .collect();
    let mut state = seed ^ 0xfa_417_1a7; // decorrelate from the stream seed
    let kill_worker = candidates[(splitmix64(&mut state) % candidates.len() as u64) as usize];
    let quarter = (counts[kill_worker] / 4).max(1);
    let kill_after = quarter + splitmix64(&mut state) % quarter;
    let drop_source = (splitmix64(&mut state) % cfg.sources as u64) as usize;
    let drop_worker = (splitmix64(&mut state) % cfg.workers as u64) as usize;
    let drop_after = 1 + splitmix64(&mut state) % 6;
    let lose = 1 + splitmix64(&mut state) % 3;
    FaultPlan::none()
        .kill_worker(kill_worker, kill_after)
        .drop_connection(drop_source, drop_worker, drop_after, lose)
}

fn assert_faulted_run_is_exact(cfg: &EngineConfig, faults: &FaultPlan) {
    let reference = exact_windowed_counts(cfg);
    let inproc =
        Topology::new(cfg.clone()).run_windowed_faulted_on(CountAggregate, &InProc, faults);
    let spsc = Topology::new(cfg.clone()).run_windowed_faulted_on(CountAggregate, &Spsc, faults);
    let tcp = Topology::new(cfg.clone()).run_windowed_faulted_on(
        CountAggregate,
        &TcpTransport::loopback(),
        faults,
    );
    let label = format!("{} z={} seed={}", cfg.kind.symbol(), cfg.skew, cfg.seed);
    for (name, run) in [("InProc", &inproc), ("SPSC", &spsc), ("TCP", &tcp)] {
        assert_windows_match(
            &run.windows,
            &reference,
            &format!("{label} [{name}]: faulted windows diverged from the exact reference"),
        );
        let scheduled_kills = faults
            .events()
            .iter()
            .filter(|e| matches!(e, FaultEvent::KillWorker { .. }))
            .count() as u64;
        let recovery = &run.result.worker_stage.recovery;
        assert_eq!(
            recovery.restores, scheduled_kills,
            "{label} [{name}]: every scheduled kill must restore from checkpoint"
        );
        // Exactly-once at the merge: recovery never re-finalizes a closed
        // window, so no aggregator ever drops a duplicate partial.
        assert_eq!(
            run.result.aggregator_stage.recovery.duplicates_dropped, 0,
            "{label} [{name}]: a closed window was reprocessed after recovery"
        );
    }
    // Routing is decided at the sources and replay re-runs the identical
    // routing, so faults must not move per-worker counts — on any backend,
    // relative to the others.
    for run in [&spsc, &tcp] {
        assert_eq!(
            run.result.worker_counts, inproc.result.worker_counts,
            "{label}: per-worker counts diverged across backends under faults"
        );
        assert_eq!(run.result.processed, inproc.result.processed);
    }
}

/// One test per scheme so failures name the scheme and the matrix runs in
/// parallel under the default test harness.
macro_rules! scheme_fault_matrix {
    ($name:ident, $kind:expr) => {
        #[test]
        fn $name() {
            for seed in seeds() {
                for skew in [0.0, 1.8] {
                    let cfg = fault_config($kind, skew, seed);
                    let faults = derived_faults(&cfg, seed);
                    assert_faulted_run_is_exact(&cfg, &faults);
                }
            }
        }
    };
}

scheme_fault_matrix!(faults_are_exactly_once_kg, PartitionerKind::KeyGrouping);
scheme_fault_matrix!(faults_are_exactly_once_sg, PartitionerKind::ShuffleGrouping);
scheme_fault_matrix!(faults_are_exactly_once_pkg, PartitionerKind::Pkg);
scheme_fault_matrix!(faults_are_exactly_once_dc, PartitionerKind::DChoices);
scheme_fault_matrix!(faults_are_exactly_once_wc, PartitionerKind::WChoices);
scheme_fault_matrix!(faults_are_exactly_once_rr, PartitionerKind::RoundRobin);

/// The ISSUE's acceptance criterion, verbatim: a worker killed mid-window
/// recovers via checkpoint + bounded replay without reprocessing closed
/// windows, on both backends. Kill point 700 is mid-window-1 of 512-tuple
/// windows, so the restored worker has a checkpointed closed window behind
/// it and the windows in flight to replay.
#[test]
fn worker_killed_mid_window_recovers_on_both_backends() {
    for seed in seeds() {
        let cfg = fault_config(PartitionerKind::Pkg, 1.4, seed);
        let reference = exact_windowed_counts(&cfg);
        let faults = FaultPlan::none().kill_worker(0, 700).kill_worker(2, 1_900);
        for (name, run) in [
            (
                "InProc",
                Topology::new(cfg.clone()).run_windowed_faulted_on(
                    CountAggregate,
                    &InProc,
                    &faults,
                ),
            ),
            (
                "SPSC",
                Topology::new(cfg.clone()).run_windowed_faulted_on(CountAggregate, &Spsc, &faults),
            ),
            (
                "TCP",
                Topology::new(cfg.clone()).run_windowed_faulted_on(
                    CountAggregate,
                    &TcpTransport::loopback(),
                    &faults,
                ),
            ),
        ] {
            assert_windows_match(
                &run.windows,
                &reference,
                &format!("seed={seed} [{name}]: kills changed the merged windows"),
            );
            let recovery = &run.result.worker_stage.recovery;
            assert_eq!(recovery.restores, 2, "[{name}] both kills must fire");
            assert!(
                recovery.replay_requests > 0,
                "[{name}] recovery must request replay from the sources"
            );
            assert_eq!(
                run.result.aggregator_stage.recovery.duplicates_dropped, 0,
                "[{name}] a closed window was re-finalized after restore"
            );
            // The replayed open-window tuples add latency samples on top of
            // the processed count; without faults these are equal.
            assert!(run.result.latency.samples >= run.result.processed);
        }
    }
}

/// Large state, late kills: every worker ends up holding tens of thousands
/// of keys, so by the time the kills land its checkpoint log has been
/// rebased several times and the restore has to fold a base *and* the
/// deltas after it — the path a small-state run (whose log is rewritten
/// every couple of closes) barely touches.
///
/// Why the log looks like that at the kill, whatever the interleaving:
/// a new base is only written once the deltas since the last one outweigh
/// it, so a base holds at most about twice the keys of the one before and
/// reaching ≥ 20 000 keys from a first base of a few hundred takes at least
/// five rebases; and a base is never followed directly by another (there
/// are no delta bytes to outweigh it yet), so of the two kills per worker
/// below — one window apart, late in the run — only one can find a bare
/// base, unless the worker got a whole window ahead of a close. Shuffle
/// grouping gives every worker exactly 256 tuples per window (2 sources ×
/// 512 / 4 workers), which is what places the kills. The restored key sets
/// are checked against a run that never crashed.
#[test]
fn late_kills_on_large_state_restore_from_base_plus_deltas_on_every_backend() {
    for seed in seeds() {
        let cfg = EngineConfig {
            keys: 60_000,
            ..EngineConfig::smoke(PartitionerKind::ShuffleGrouping, 0.6)
                .with_seed(seed)
                .with_messages(409_600)
                .with_service_time_us(0)
                .with_window_size(512)
                .with_batch_size(64)
        };
        let per_worker = cfg.messages / cfg.workers as u64;
        let per_window = 2 * cfg.window_size / cfg.workers as u64;
        // 80 % in, mid-window; then the same offset one window later.
        let first = per_worker / 5 * 4 + per_window / 2;
        let faults = FaultPlan::none()
            .kill_worker(1, first)
            .kill_worker(1, first + per_window)
            .kill_worker(3, first + 7 * per_window)
            .kill_worker(3, first + 8 * per_window);
        let reference = exact_windowed_counts(&cfg);
        let unfaulted = Topology::new(cfg.clone()).run_windowed(CountAggregate);
        let inproc =
            Topology::new(cfg.clone()).run_windowed_faulted_on(CountAggregate, &InProc, &faults);
        let spsc =
            Topology::new(cfg.clone()).run_windowed_faulted_on(CountAggregate, &Spsc, &faults);
        let tcp = Topology::new(cfg.clone()).run_windowed_faulted_on(
            CountAggregate,
            &TcpTransport::loopback(),
            &faults,
        );
        for (name, run) in [("InProc", &inproc), ("SPSC", &spsc), ("TCP", &tcp)] {
            assert_windows_match(
                &run.windows,
                &reference,
                &format!("seed={seed} [{name}]: late kills on large state changed the windows"),
            );
            let smallest = *run
                .result
                .worker_state_keys
                .iter()
                .min()
                .expect("at least one worker");
            assert!(
                smallest >= 20_000,
                "[{name}] the run must build large worker state, smallest is {smallest} keys"
            );
            assert_eq!(
                run.result.worker_state_keys, unfaulted.result.worker_state_keys,
                "[{name}] a restore lost or invented state keys"
            );
            let recovery = &run.result.worker_stage.recovery;
            assert_eq!(recovery.restores, 4, "[{name}] every kill must restore");
            assert!(recovery.replay_requests > 0, "[{name}]");
            assert_eq!(
                run.result.aggregator_stage.recovery.duplicates_dropped, 0,
                "[{name}] a closed window was re-finalized after restore"
            );
        }
    }
}

/// Connection drops are healed by gap detection + bounded replay: no
/// restore happens, yet the merged windows stay exact.
#[test]
fn connection_drops_recover_on_both_backends() {
    for seed in seeds() {
        let cfg = fault_config(PartitionerKind::ShuffleGrouping, 1.2, seed);
        let reference = exact_windowed_counts(&cfg);
        let faults = FaultPlan::none()
            .drop_connection(0, 1, 3, 2)
            .drop_connection(1, 3, 5, 1);
        for (name, run) in [
            (
                "InProc",
                Topology::new(cfg.clone()).run_windowed_faulted_on(
                    CountAggregate,
                    &InProc,
                    &faults,
                ),
            ),
            (
                "SPSC",
                Topology::new(cfg.clone()).run_windowed_faulted_on(CountAggregate, &Spsc, &faults),
            ),
            (
                "TCP",
                Topology::new(cfg.clone()).run_windowed_faulted_on(
                    CountAggregate,
                    &TcpTransport::loopback(),
                    &faults,
                ),
            ),
        ] {
            assert_windows_match(
                &run.windows,
                &reference,
                &format!("seed={seed} [{name}]: losses changed the merged windows"),
            );
            let recovery = &run.result.worker_stage.recovery;
            assert!(
                recovery.replay_requests > 0,
                "[{name}] gap must request replay"
            );
            assert!(
                recovery.replayed_items > 0,
                "[{name}] replay must redeliver"
            );
            assert_eq!(recovery.restores, 0, "[{name}] no worker was killed");
        }
    }
}

/// Determinism regression, TCP half: the same `FaultPlan` under the same
/// seed produces byte-identical windowed counts across runs.
#[test]
fn same_fault_plan_twice_is_byte_identical_on_tcp() {
    let seed = seeds()[0];
    let cfg = fault_config(PartitionerKind::DChoices, 1.6, seed);
    let faults = derived_faults(&cfg, seed);
    let a = Topology::new(cfg.clone()).run_windowed_faulted_on(
        CountAggregate,
        &TcpTransport::loopback(),
        &faults,
    );
    let b = Topology::new(cfg).run_windowed_faulted_on(
        CountAggregate,
        &TcpTransport::loopback(),
        &faults,
    );
    assert_windows_match(
        &a.windows,
        &b.windows,
        "same plan, same seed, different counts",
    );
    assert_eq!(a.result.worker_counts, b.result.worker_counts);
    assert_eq!(a.result.worker_state_keys, b.result.worker_state_keys);
}

/// Determinism regression, TCP half: an empty `FaultPlan` is
/// indistinguishable from a plain run — the checkpoint/sequence machinery
/// is always on and never changes results.
#[test]
fn no_fault_plan_matches_plain_run_on_tcp() {
    let seed = seeds()[0];
    let cfg = fault_config(PartitionerKind::WChoices, 1.8, seed);
    let plain =
        Topology::new(cfg.clone()).run_windowed_on(CountAggregate, &TcpTransport::loopback());
    let faulted = Topology::new(cfg).run_windowed_faulted_on(
        CountAggregate,
        &TcpTransport::loopback(),
        &FaultPlan::none(),
    );
    assert_windows_match(
        &faulted.windows,
        &plain.windows,
        "empty plan changed counts",
    );
    assert_eq!(plain.result.worker_counts, faulted.result.worker_counts);
    assert!(faulted.result.worker_stage.recovery.is_quiet());
    assert_eq!(
        faulted.result.aggregator_stage.recovery.duplicates_dropped,
        0
    );
}

/// Scenario runs — drift, scale-out, heterogeneity, bursts — survive kills
/// and drops with windows bit-identical to the scenario reference.
#[test]
fn scenario_faults_are_exactly_once_on_both_backends() {
    for seed in seeds() {
        let scenario = Scenario::new("fault-diff", 2, 256, seed)
            .phase(ScenarioPhase::new(2, 400, 1.8, 3))
            .phase(
                ScenarioPhase::new(2, 400, 1.2, 5)
                    .with_drift_epochs(2)
                    .with_worker_speed(vec![2.0, 1.0, 1.0, 1.0, 1.0]),
            )
            .phase(
                ScenarioPhase::new(1, 200, 0.0, 2).with_arrival(Arrival::Bursty {
                    burst_tuples: 96,
                    pause_us: 5,
                }),
            );
        let reference = exact_scenario_windowed_counts(&scenario);
        // Worker 0 is active in every phase; 150 tuples is mid-phase-1.
        let faults = FaultPlan::none()
            .kill_worker(0, 150)
            .drop_connection(1, 1, 2, 1);
        for kind in [PartitionerKind::Pkg, PartitionerKind::WChoices] {
            let cfg = ScenarioConfig::new(kind, scenario.clone()).with_batch_size(64);
            let inproc = cfg.run_windowed_faulted_on(CountAggregate, &InProc, &faults);
            let spsc = cfg.run_windowed_faulted_on(CountAggregate, &Spsc, &faults);
            let tcp =
                cfg.run_windowed_faulted_on(CountAggregate, &TcpTransport::loopback(), &faults);
            let label = format!("{} seed={seed}", kind.symbol());
            for (name, run) in [("InProc", &inproc), ("SPSC", &spsc), ("TCP", &tcp)] {
                assert_windows_match(
                    &run.windows,
                    &reference,
                    &format!("{label} [{name}]: scenario faults changed the windows"),
                );
                assert_eq!(run.result.worker_stage.recovery.restores, 1, "[{name}]");
                assert_eq!(run.result.aggregator_stage.recovery.duplicates_dropped, 0);
            }
            for run in [&spsc, &tcp] {
                assert_eq!(
                    run.result.worker_counts, inproc.result.worker_counts,
                    "{label}: scenario per-worker counts diverged under faults"
                );
            }
        }
    }
}

/// Kills while two or more windows are in flight. A restore starts from the
/// finalized prefix with no window open, and the sources' replay from its
/// cursors rebuilds every window that was in flight, so each kill replays
/// at least the tuples it found past the last finalized window. Shuffle
/// grouping gives worker 1 exactly 256 tuples a window, so a kill that
/// finds more than that past the restored count had two windows or more in
/// flight. Whether a given kill does depends on how far one source ran
/// ahead of the other at the worker; with queues 32 batches deep most do,
/// and of fifteen kills per run some do on every backend.
#[test]
fn kills_with_windows_in_flight_replay_them_on_every_backend() {
    for seed in seeds() {
        let cfg = fault_config(PartitionerKind::ShuffleGrouping, 0.6, seed)
            .with_messages(65_536)
            .with_queue_capacity(2_048);
        let per_window = 2 * cfg.window_size / cfg.workers as u64;
        // Mid-window, every fourth window of 64.
        let kills: Vec<u64> = (1..16)
            .map(|i| (4 * i) * per_window + per_window / 2)
            .collect();
        let faults = kills
            .iter()
            .fold(FaultPlan::none(), |plan, &at| plan.kill_worker(1, at));
        let reference = exact_windowed_counts(&cfg);
        let unfaulted = Topology::new(cfg.clone()).run_windowed(CountAggregate);
        for (name, run) in [
            (
                "InProc",
                Topology::new(cfg.clone()).run_windowed_faulted_on(
                    CountAggregate,
                    &InProc,
                    &faults,
                ),
            ),
            (
                "SPSC",
                Topology::new(cfg.clone()).run_windowed_faulted_on(CountAggregate, &Spsc, &faults),
            ),
            (
                "TCP",
                Topology::new(cfg.clone()).run_windowed_faulted_on(
                    CountAggregate,
                    &TcpTransport::loopback(),
                    &faults,
                ),
            ),
        ] {
            let label = format!("seed={seed} [{name}]");
            assert_windows_match(
                &run.windows,
                &reference,
                &format!("{label}: kills with windows in flight changed the windows"),
            );
            assert_eq!(
                run.result.worker_state_keys, unfaulted.result.worker_state_keys,
                "{label}: a restore lost or invented state keys"
            );
            // What each restore came back to: the finalized tuples.
            let restored: Vec<u64> = run
                .result
                .trace
                .iter()
                .filter(|e| e.stage == stage::WORKER && e.instance == 1)
                .filter(|e| e.kind == trace_kind::CHECKPOINT_RESTORE)
                .map(|e| e.a)
                .collect();
            assert_eq!(restored.len(), kills.len(), "{label}: every kill restores");
            let in_flight: Vec<u64> = kills.iter().zip(&restored).map(|(k, r)| k - r).collect();
            assert!(
                in_flight.iter().any(|&tuples| tuples > per_window),
                "{label}: no kill found two windows in flight: {in_flight:?}"
            );
            let recovery = &run.result.worker_stage.recovery;
            assert_eq!(recovery.restores, kills.len() as u64, "{label}");
            assert!(
                recovery.replayed_items >= in_flight.iter().sum::<u64>(),
                "{label}: the replay must rebuild every window in flight"
            );
            assert_eq!(
                run.result.aggregator_stage.recovery.duplicates_dropped, 0,
                "{label}: a closed window was re-finalized after restore"
            );
        }
    }
}
