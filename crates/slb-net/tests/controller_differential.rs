//! Closed-loop elasticity differential suite: the controller adapts, the
//! counts stay exact, and the decisions are deterministic everywhere.
//!
//! The elasticity controller re-solves `d` online and activates/deactivates
//! workers at window boundaries. Its contract has three parts, each pinned
//! here as an exact equality rather than a statistical bound:
//!
//! * **(a) Exactness under adaptation** — for every grouping scheme and
//!   seed, a controlled run's merged per-window per-key counts are
//!   bit-identical to the single-threaded exact reference on the in-process
//!   backend, the lock-free SPSC backend, and TCP loopback. Scaling
//!   and retuning move *routing*, never window contents.
//! * **(b) The controller earns its keep** — on the drift-heavy scenario,
//!   a pure-`d`-adaptation controller (min = max = workers) ends the run
//!   with imbalance no worse than every static-`d` configuration it is
//!   measured against.
//! * **(c) Decision determinism** — the merged decision log is identical
//!   across reruns, batch sizes, and backends, and equals the analytic
//!   replay (`slb_simulator::simulate_scenario_controlled`) event for
//!   event. The controller consumes only per-window per-slot counts and
//!   its own partitioner's head snapshot — pure functions of the source
//!   stream — so nothing about transport or timing can move a decision.
//!
//! The fault-interaction half injects worker kills and connection drops
//! into controlled runs — including a kill aimed at the same window as the
//! first scale decision — and asserts exactly-once still holds *and* the
//! decision log is byte-identical to the fault-free run.
//!
//! Seeds: the suite runs a built-in seed pair by default; setting
//! `SLB_TEST_SEED` (a single u64) replaces the pair with that seed, which
//! is how `ci.sh` sweeps its {1, 42, 1337} matrix.

mod common;

use slb_core::{ControllerConfig, CountAggregate, PartitionerKind, SolverMode};
use slb_engine::{exact_scenario_windowed_counts, FaultPlan, InProc, ScenarioConfig, Spsc};
use slb_net::tcp::TcpTransport;
use slb_simulator::simulate_scenario_controlled;
use slb_workloads::Scenario;

use common::assert_windows_match;

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

/// The drift-heavy workload the controller is built for: constant
/// configured workers, high skew, repeated head churn.
fn drift_scenario(seed: u64) -> Scenario {
    Scenario::drift(2, 256, 4, seed)
}

/// A controller that has to use both levers: capacity 60 is below even the
/// perfectly balanced per-worker share of a 256-tuple window on 4 workers
/// (64), so activation fires regardless of how well a retune spreads the
/// head, and settles once the active set is wide enough (256 / 5 ≈ 51).
fn elastic_controller() -> ControllerConfig {
    ControllerConfig::new(2, 8, 60)
}

fn controlled_config(kind: PartitionerKind, seed: u64) -> ScenarioConfig {
    ScenarioConfig::new(kind, drift_scenario(seed))
        .with_batch_size(64)
        .with_controller(elastic_controller())
}

/// Criteria (a) and (c) for one scheme and seed: exactness under adaptation
/// on all three backends, and one decision log shared by every backend and
/// the analytic replay.
fn assert_controlled_run_is_exact_everywhere(kind: PartitionerKind, seed: u64) {
    let scenario = drift_scenario(seed);
    let reference = exact_scenario_windowed_counts(&scenario);
    let cfg = controlled_config(kind, seed);
    let inproc = cfg.run_windowed_on(CountAggregate, &InProc);
    let spsc = cfg.run_windowed_on(CountAggregate, &Spsc);
    let tcp = cfg.run_windowed_on(CountAggregate, &TcpTransport::loopback());
    let label = format!("{} seed={seed}", kind.symbol());
    assert!(
        inproc.result.controller.enabled,
        "{label}: controller metrics missing from a controlled run"
    );
    for (name, run) in [("InProc", &inproc), ("SPSC", &spsc), ("TCP", &tcp)] {
        // (a) Adaptation never changes window contents.
        assert_windows_match(
            &run.windows,
            &reference,
            &format!("{label} [{name}]: controlled windows diverged from the exact reference"),
        );
    }
    for (name, run) in [("SPSC", &spsc), ("TCP", &tcp)] {
        // (c) One decision log, whatever carries the tuples.
        assert_eq!(
            run.result.controller, inproc.result.controller,
            "{label}: {name} controller decisions diverged from InProc"
        );
        assert_eq!(
            run.result.worker_counts, inproc.result.worker_counts,
            "{label}: {name} per-worker counts diverged under control"
        );
        assert_eq!(run.result.processed, inproc.result.processed);
    }
    // (c) The engine's decisions equal the analytic replay's, event for
    // event, and so does the routing they caused.
    let sim = simulate_scenario_controlled(kind, &scenario, &elastic_controller());
    assert_eq!(
        inproc.result.controller, sim.controller,
        "{label}: engine decision log diverged from the analytic replay"
    );
    assert_eq!(
        inproc.result.worker_counts, sim.worker_counts,
        "{label}: engine per-worker counts diverged from the analytic replay"
    );
    assert_eq!(inproc.result.processed, sim.tuples);
}

/// One test per scheme so failures name the scheme and the matrix runs in
/// parallel under the default test harness.
macro_rules! scheme_controller_differential {
    ($name:ident, $kind:expr) => {
        #[test]
        fn $name() {
            for seed in seeds() {
                assert_controlled_run_is_exact_everywhere($kind, seed);
            }
        }
    };
}

scheme_controller_differential!(controlled_exact_kg, PartitionerKind::KeyGrouping);
scheme_controller_differential!(controlled_exact_sg, PartitionerKind::ShuffleGrouping);
scheme_controller_differential!(controlled_exact_pkg, PartitionerKind::Pkg);
scheme_controller_differential!(controlled_exact_dc, PartitionerKind::DChoices);
scheme_controller_differential!(controlled_exact_wc, PartitionerKind::WChoices);
scheme_controller_differential!(controlled_exact_rr, PartitionerKind::RoundRobin);

/// Criterion (b): on the drift scenario, a pure-`d`-adaptation controller
/// (worker count pinned to the scenario's, so the comparison is
/// apples-to-apples) ends the run at least as balanced as every static-`d`
/// baseline.
#[test]
fn controller_beats_or_matches_every_static_d_on_drift() {
    for seed in seeds() {
        let scenario = drift_scenario(seed);
        let workers = scenario.max_workers();
        // min = max pins the worker count: only the retune lever remains.
        let controller = ControllerConfig::new(workers, workers, u64::MAX);
        let controlled = ScenarioConfig::new(PartitionerKind::DChoices, scenario.clone())
            .with_batch_size(64)
            .with_controller(controller)
            .run_windowed_on(CountAggregate, &InProc);
        assert!(
            !controlled.result.controller.events.is_empty(),
            "seed={seed}: drift never moved the solver optimum — the \
             scenario is not exercising the controller"
        );
        for d in [2usize, 3, 4] {
            let fixed = ScenarioConfig::new(PartitionerKind::DChoices, scenario.clone())
                .with_batch_size(64)
                .with_solver(SolverMode::Fixed(d))
                .run_windowed_on(CountAggregate, &InProc);
            assert!(
                controlled.result.imbalance <= fixed.result.imbalance + 1e-9,
                "seed={seed}: controller imbalance {} worse than static d={d} at {}",
                controlled.result.imbalance,
                fixed.result.imbalance
            );
        }
    }
}

/// Criterion (c), knob half: batch size shapes framing and timing, never a
/// decision; and the same config twice produces the same log.
#[test]
fn controller_decisions_are_batch_size_and_rerun_invariant() {
    let seed = seeds()[0];
    let base = controlled_config(PartitionerKind::DChoices, seed);
    let first = base.run_windowed_on(CountAggregate, &InProc);
    assert!(!first.result.controller.events.is_empty());
    let rerun = base.run_windowed_on(CountAggregate, &InProc);
    assert_eq!(
        rerun.result.controller, first.result.controller,
        "same config, same seed, different decisions"
    );
    for batch_size in [16usize, 256, 1_000] {
        let run = base
            .clone()
            .with_batch_size(batch_size)
            .run_windowed_on(CountAggregate, &InProc);
        assert_eq!(
            run.result.controller, first.result.controller,
            "batch_size={batch_size} moved a controller decision"
        );
        assert_eq!(run.result.worker_counts, first.result.worker_counts);
    }
}

/// The controller must actually use both of its levers on this workload:
/// worker activation beyond the scenario's constant count, and at least one
/// online retune of `d`.
#[test]
fn controller_exercises_both_levers_on_drift() {
    use slb_core::ControllerAction;
    let seed = seeds()[0];
    let run =
        controlled_config(PartitionerKind::DChoices, seed).run_windowed_on(CountAggregate, &InProc);
    let events = &run.result.controller.events;
    assert!(
        events
            .iter()
            .any(|e| e.action == ControllerAction::ScaleOut),
        "no scale-out in {events:?}"
    );
    assert!(
        events.iter().any(|e| e.action == ControllerAction::Retune),
        "no retune in {events:?}"
    );
    let workers = drift_scenario(seed).max_workers();
    assert!(
        run.result.worker_counts[workers..].iter().any(|&c| c > 0),
        "activated workers beyond the scenario's {workers} received no load"
    );
}

/// Fault interaction: kills and drops during a controlled run. Exactly-once
/// must hold (windows equal the exact reference, no duplicate partials) and
/// — because recovery replays the source's own deterministic decision
/// sequence — the decision log must be byte-identical to the fault-free
/// run's. The first kill is aimed at the window of the first scale
/// decision, the regime where rescale and restore interleave.
#[test]
fn faults_during_controlled_runs_stay_exactly_once() {
    for seed in seeds() {
        let scenario = drift_scenario(seed);
        let reference = exact_scenario_windowed_counts(&scenario);
        let cfg = controlled_config(PartitionerKind::DChoices, seed);
        let clean = cfg.run_windowed_on(CountAggregate, &InProc);
        let events = &clean.result.controller.events;
        assert!(!events.is_empty(), "seed={seed}: nothing to interact with");
        // Aim the kill inside the window of the first decision: worker 0 is
        // active from window 0, and its per-window share is roughly its
        // total divided by the run's windows.
        let first_decision_window = events[0].window;
        let per_window = clean.result.worker_counts[0] / scenario.total_windows();
        let kill_after =
            (per_window * first_decision_window.saturating_sub(1) + per_window / 2).max(1);
        let faults = FaultPlan::none()
            .kill_worker(0, kill_after)
            .drop_connection(1, 1, 3, 2);
        for (name, run) in [
            (
                "InProc",
                cfg.run_windowed_faulted_on(CountAggregate, &InProc, &faults),
            ),
            (
                "SPSC",
                cfg.run_windowed_faulted_on(CountAggregate, &Spsc, &faults),
            ),
            (
                "TCP",
                cfg.run_windowed_faulted_on(CountAggregate, &TcpTransport::loopback(), &faults),
            ),
        ] {
            assert_windows_match(
                &run.windows,
                &reference,
                &format!("seed={seed} [{name}]: faults under control changed the windows"),
            );
            assert_eq!(
                run.result.worker_stage.recovery.restores, 1,
                "seed={seed} [{name}]: the scheduled kill must restore"
            );
            assert_eq!(
                run.result.aggregator_stage.recovery.duplicates_dropped, 0,
                "seed={seed} [{name}]: a closed window was reprocessed"
            );
            assert_eq!(
                run.result.controller, clean.result.controller,
                "seed={seed} [{name}]: recovery changed a controller decision"
            );
            assert_eq!(
                run.result.worker_counts, clean.result.worker_counts,
                "seed={seed} [{name}]: faults moved routing under control"
            );
        }
    }
}
