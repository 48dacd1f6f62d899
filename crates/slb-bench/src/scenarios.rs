//! The scenario studies beyond the paper: drifting skew, heterogeneous
//! workers, mid-run resizes, and the closed-loop elasticity controller.

use slb_core::{ControllerAction, ControllerConfig, CountAggregate, PartitionerKind};
use slb_engine::{exact_scenario_windowed_counts, ScenarioConfig};
use slb_simulator::{simulate_scenario, simulate_scenario_controlled};
use slb_workloads::{Scenario, ScenarioPhase};

use crate::table::{fixed, int, sci, text, Table};
use crate::{print_header, ExperimentOptions, ExperimentScale};

/// Scenario study: grouping schemes under *drifting* skew.
///
/// The paper motivates D-Choices/W-Choices with workloads whose hot keys
/// churn (the cashtag dataset's concept drift), but its synthetic evaluation
/// holds the distribution fixed. This experiment replays a three-phase
/// scenario — heavy skew, a uniform cool-down, then moderate skew with
/// in-phase drift — through the analytic simulator for all six schemes and
/// reports the per-phase imbalance. Expected shape: the head-aware schemes
/// and PKG beat KG wherever a head exists (phases 0 and 2, drift or not,
/// because the SpaceSaving tracker re-learns the churned head within each
/// epoch), while under the uniform phase every scheme converges to
/// near-perfect balance.
pub fn scenarios_drift(o: &ExperimentOptions) {
    print_header(
        "Scenario: drift",
        "Per-phase imbalance under drifting skew (hot, uniform, drifting phases)",
        o,
    );
    // Window counts are multiples of 3 so the drifting phase's 3 epochs
    // divide its tuple budget evenly (a `Scenario::validate` requirement).
    let (windows, window_size) = match o.scale {
        ExperimentScale::Smoke => (3, 4_096),
        ExperimentScale::Laptop => (9, 8_192),
        ExperimentScale::Paper => (15, 16_384),
    };
    let (workers, keys) = (20, 10_000);
    let scenario = Scenario::new("drift", 4, window_size, o.seed)
        .phase(ScenarioPhase::new(windows, keys, 2.0, workers))
        .phase(ScenarioPhase::new(windows, keys, 0.0, workers))
        .phase(ScenarioPhase::new(windows, keys, 1.4, workers).with_drift_epochs(3));
    let mut table = Table::new(
        "scenarios_drift",
        &[
            text("scheme", 8),
            int("phase", 6),
            fixed("skew", 6, 1),
            int("drift_epochs", 8),
            int("workers", 8),
            sci("imbalance", 14),
        ],
    );
    for kind in PartitionerKind::ALL {
        let result = simulate_scenario(kind, &scenario);
        for outcome in &result.phases {
            let spec = &scenario.phases[outcome.phase];
            table.row(&[
                &result.scheme,
                &outcome.phase,
                &spec.skew,
                &spec.drift_epochs,
                &outcome.workers,
                &outcome.imbalance,
            ]);
        }
    }
    table.emit(o.json_dir.as_deref());
    println!(
        "# phases: 0 = static z=2.0, 1 = uniform, 2 = z=1.4 with 3 drift epochs; \
         {} tuples per phase",
        scenario.phase_tuples_per_source(0) * scenario.sources as u64
    );
}

/// Scenario study: heterogeneous worker speeds.
///
/// The paper's cluster is homogeneous; real deployments are not. This
/// experiment replays a scenario whose phases differ only in the per-worker
/// service-speed multipliers and reports, per scheme and phase, both the
/// routed-count imbalance and the *work-weighted* imbalance (counts × speed
/// multiplier). A count-balanced scheme routing into a cluster with one
/// 2×-slow worker is work-imbalanced by construction — the slow worker is
/// the saturation bottleneck — which is exactly what the weighted column
/// surfaces while the plain column hides it.
pub fn scenarios_hetero(o: &ExperimentOptions) {
    print_header(
        "Scenario: heterogeneity",
        "Routed vs work-weighted imbalance with slow workers",
        o,
    );
    let (windows, window_size) = match o.scale {
        ExperimentScale::Smoke => (2, 4_096),
        ExperimentScale::Laptop => (8, 8_192),
        ExperimentScale::Paper => (16, 16_384),
    };
    let (workers, keys) = (8, 10_000);
    // One worker 2× slower; then half the cluster 1.5× slower.
    let one_slow = (0..workers).map(|w| if w == 0 { 2.0 } else { 1.0 });
    let half_slow = (0..workers).map(|w| if w < workers / 2 { 1.5 } else { 1.0 });
    let scenario = Scenario::new("hetero", 4, window_size, o.seed)
        .phase(ScenarioPhase::new(windows, keys, 1.4, workers))
        .phase(
            ScenarioPhase::new(windows, keys, 1.4, workers).with_worker_speed(one_slow.collect()),
        )
        .phase(
            ScenarioPhase::new(windows, keys, 0.0, workers).with_worker_speed(half_slow.collect()),
        );
    let mut table = Table::new(
        "scenarios_hetero",
        &[
            text("scheme", 8),
            int("phase", 6),
            fixed("skew", 6, 1),
            text("speeds", 10),
            sci("imbalance", 14),
            sci("weighted_imbalance", 18),
        ],
    );
    for kind in PartitionerKind::ALL {
        let result = simulate_scenario(kind, &scenario);
        for outcome in &result.phases {
            let label = ["uniform", "1x2.0", "4x1.5"][outcome.phase.min(2)];
            table.row(&[
                &result.scheme,
                &outcome.phase,
                &scenario.phases[outcome.phase].skew,
                &label,
                &outcome.imbalance,
                &outcome.weighted_imbalance,
            ]);
        }
    }
    table.emit(o.json_dir.as_deref());
    println!(
        "# phases: 0 = homogeneous z=1.4, 1 = worker 0 at 2x service time, \
         2 = uniform keys with half the cluster at 1.5x"
    );
}

/// Scenario study: mid-run scale-out and scale-in, end to end.
///
/// Replays the canonical stress scenario (drifting skew, a 2×-slow worker,
/// a burst phase, scale-out to 2n workers and back) two ways:
///
/// 1. through the analytic simulator for all six schemes, reporting the
///    per-phase imbalance over each phase's *active* worker set, and
/// 2. through the threaded engine for one scheme, verifying that the merged
///    windowed counts are bit-identical to the single-threaded exact
///    reference and printing the per-phase stage metrics (tuples,
///    throughput, latency percentiles) the scenario engine emits.
///
/// Expected shape: the head-aware schemes keep the imbalance low through
/// every resize, KG degrades wherever skew exists, and the engine's
/// `exact-reference=MATCH` line certifies that scale-out never loses or
/// duplicates a tuple.
pub fn scenarios_scaleout(o: &ExperimentOptions) {
    print_header(
        "Scenario: scale-out",
        "Per-phase imbalance across cluster resizes + engine exactness check",
        o,
    );
    let (window_size, workers) = match o.scale {
        ExperimentScale::Smoke => (1_024, 5),
        ExperimentScale::Laptop => (4_096, 20),
        ExperimentScale::Paper => (16_384, 40),
    };
    let scenario = Scenario::stress(4, window_size, workers, o.seed);
    let mut table = Table::new(
        "scenarios_scaleout",
        &[
            text("scheme", 8),
            int("phase", 6),
            fixed("skew", 6, 1),
            int("workers", 8),
            sci("imbalance", 14),
            sci("weighted_imbalance", 18),
        ],
    );
    for kind in PartitionerKind::ALL {
        let result = simulate_scenario(kind, &scenario);
        for outcome in &result.phases {
            table.row(&[
                &result.scheme,
                &outcome.phase,
                &scenario.phases[outcome.phase].skew,
                &outcome.workers,
                &outcome.imbalance,
                &outcome.weighted_imbalance,
            ]);
        }
    }
    table.emit(o.json_dir.as_deref());

    // Engine end-to-end: same spec, threaded execution, exactness pinned
    // against the single-threaded reference.
    let kind = PartitionerKind::WChoices;
    let run = ScenarioConfig::new(kind, scenario.clone()).run_windowed(CountAggregate);
    let matches = run.windows == exact_scenario_windowed_counts(&scenario);
    let r = &run.result;
    println!(
        "# engine: scheme={} processed={} windows={} exact-reference={}",
        r.scheme,
        r.processed,
        r.windows,
        if matches { "MATCH" } else { "DIVERGED" }
    );
    println!("# engine per-phase stage metrics:");
    let mut table = Table::new(
        "scenarios_scaleout_engine",
        &[
            text("scheme", 8),
            int("phase", 6),
            int("workers", 8),
            int("tuples", 12),
            fixed("tuples_per_sec", 14, 0),
            int("p50_us", 12),
            int("p99_us", 12),
        ],
    );
    for p in &r.phases {
        let stage = &p.stage;
        let latency = &stage.latency;
        table.row(&[
            &r.scheme,
            &p.phase,
            &p.workers,
            &stage.items,
            &stage.items_per_sec,
            &latency.p50_us,
            &latency.p99_us,
        ]);
    }
    table.emit(o.json_dir.as_deref());
    if !matches {
        eprintln!("scale-out run diverged from the exact reference");
        std::process::exit(1);
    }
}

/// Closed-loop elasticity study: the online controller versus static `d`.
///
/// The paper chooses the number of choices `d` offline from the analytical
/// bound and never revisits it; ROADMAP item 3 closes the loop at runtime.
/// This experiment replays the drift-heavy scenario preset through the
/// analytic simulator twice per scheme — once with the elasticity
/// controller (online `d` re-solving plus worker activation inside
/// `[min, max]` bounds) and once without — and reports what the controller
/// did and what it bought.
///
/// Expected shape: for D-Choices the controller both retunes (as each
/// drift epoch churns the head) and activates workers while windows run
/// hot; the head-blind schemes can only scale workers (no head snapshot to
/// re-solve). The two imbalance columns are over different worker
/// universes — the static run's constant count versus the controller's
/// spawned universe, where partially-used activated slots raise the
/// statistic — so compare *within* a column across schemes, not across the
/// columns. The apples-to-apples beat-static claim is asserted by the
/// `controller_differential` suite, which pins the worker count and lets
/// only the `d` lever move.
pub fn elasticity(o: &ExperimentOptions) {
    print_header(
        "Elasticity: closed-loop controller",
        "Controller (online d re-solve + scale-out) vs static runs on the drift preset",
        o,
    );
    let (window_size, workers) = match o.scale {
        ExperimentScale::Smoke => (512, 4),
        ExperimentScale::Laptop => (4_096, 8),
        ExperimentScale::Paper => (16_384, 16),
    };
    let sources = 2;
    let scenario = Scenario::drift(sources, window_size, workers, o.seed);
    // Capacity below the balanced per-worker share of one window keeps
    // scale-out pressure on until the active set widens; the bounds leave
    // room to halve or double the scenario's constant worker count.
    let controller = ControllerConfig::new(
        (workers / 2).max(2),
        workers * 2,
        (window_size / workers as u64).max(1),
    );
    let mut table = Table::new(
        "elasticity",
        &[
            text("scheme", 8),
            sci("static_imbalance", 16),
            sci("controlled_imbalance", 20),
            int("scale_outs", 10),
            int("scale_ins", 9),
            int("retunes", 7),
            int("final_workers", 13),
        ],
    );
    for kind in PartitionerKind::ALL {
        let fixed = simulate_scenario(kind, &scenario);
        let controlled = simulate_scenario_controlled(kind, &scenario, &controller);
        let events = &controlled.controller.events;
        let count = |action| events.iter().filter(|e| e.action == action).count();
        // Workers that actually absorbed load under control — the spawned
        // universe minus the slots the controller never activated.
        let used = controlled.worker_counts.iter().filter(|&&c| c > 0).count();
        let static_final = fixed.phases.last().expect("scenario has phases").imbalance;
        table.row(&[
            &controlled.scheme,
            &static_final,
            &controlled.imbalance,
            &count(ControllerAction::ScaleOut),
            &count(ControllerAction::ScaleIn),
            &count(ControllerAction::Retune),
            &used,
        ]);
    }
    table.emit(o.json_dir.as_deref());
    println!(
        "# drift preset: {} sources, {}-tuple windows, {} workers (controller bounds \
         [{}, {}], capacity {}); controlled_imbalance is over the controller's spawned universe",
        sources,
        window_size,
        workers,
        controller.min_workers,
        controller.max_workers,
        controller.worker_capacity
    );
}
