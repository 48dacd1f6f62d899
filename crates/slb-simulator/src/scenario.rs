//! Analytic replay of multi-phase scenarios.
//!
//! [`simulate_scenario`] replays the *same* [`Scenario`] spec the threaded
//! engine executes — same per-source per-phase streams, same partitioner
//! regeneration rule at phase boundaries — but single-threaded and without
//! queues or service times, so it measures pure routing behaviour: per-phase
//! per-worker counts, the paper's imbalance metric evaluated over each
//! phase's active worker set, and a *work-weighted* imbalance that accounts
//! for heterogeneous worker speeds (a slow worker is overloaded sooner, so
//! its routed share is scaled by its service-time multiplier).
//!
//! Because both executors construct streams through
//! [`Scenario::phase_stream`] and build every phase's partitioners with
//! [`slb_core::build_partitioner`] under identical configurations, the
//! simulator's per-phase counts are *exactly* — not statistically — equal to
//! the engine's (`slb-engine/tests/scenario_differential.rs` pins this).

use slb_core::{
    build_partitioner, imbalance_fractions, ControllerConfig, ControllerMetrics,
    ElasticityController, PartitionConfig, PartitionerKind, PerWindowLoads, PhaseLoadMatrix,
    SolverMode,
};
use slb_workloads::{KeyId, KeyStream, Scenario};

/// Routing outcome of one scenario phase.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioPhaseOutcome {
    /// Phase index.
    pub phase: usize,
    /// Active workers during the phase.
    pub workers: usize,
    /// Tuples routed during the phase (all sources).
    pub tuples: u64,
    /// Per-worker routed counts over the active worker set.
    pub worker_counts: Vec<u64>,
    /// The paper's imbalance `I` over the active worker set.
    pub imbalance: f64,
    /// Imbalance of *work* rather than tuples: each worker's routed share is
    /// scaled by its service-time multiplier before comparing. Equals
    /// `imbalance` for homogeneous phases.
    pub weighted_imbalance: f64,
}

/// Routing outcome of a whole scenario under one grouping scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSimResult {
    /// Scheme symbol (KG, SG, PKG, D-C, W-C, RR).
    pub scheme: String,
    /// Scenario name.
    pub scenario: String,
    /// Total tuples routed.
    pub tuples: u64,
    /// One outcome per phase, in order.
    pub phases: Vec<ScenarioPhaseOutcome>,
}

/// Replays `scenario` under `kind` and returns the per-phase routing
/// outcomes.
///
/// # Panics
/// Panics if the scenario is invalid.
pub fn simulate_scenario(kind: PartitionerKind, scenario: &Scenario) -> ScenarioSimResult {
    if let Err(message) = scenario.validate() {
        panic!("invalid scenario: {message}");
    }
    let n_phases = scenario.phases.len();
    let mut matrix = PhaseLoadMatrix::new(n_phases, scenario.max_workers());
    // One fresh partitioner per source and phase, built for the phase's
    // worker count — the exact rule the engine's source threads follow, so
    // routing decisions match tuple for tuple.
    for (p, phase) in scenario.phases.iter().enumerate() {
        let partition = PartitionConfig::new(phase.workers).with_seed(scenario.seed);
        for source in 0..scenario.sources {
            let mut part = build_partitioner::<KeyId>(kind, &partition);
            let mut stream = scenario.phase_stream(p, source);
            while let Some(key) = stream.next_key() {
                let worker = part.route(&key);
                matrix.add(p, worker, 1);
            }
        }
    }
    let phases = scenario
        .phases
        .iter()
        .enumerate()
        .map(|(p, phase)| {
            let active = phase.workers;
            debug_assert!(
                matrix.phase_counts(p)[active..].iter().all(|&c| c == 0),
                "phase {p} routed messages beyond its {active} active workers"
            );
            let worker_counts = matrix.phase_counts(p)[..active].to_vec();
            let tuples = matrix.phase_total(p);
            let weighted_imbalance = weighted_imbalance(&worker_counts, |w| phase.speed_of(w));
            ScenarioPhaseOutcome {
                phase: p,
                workers: active,
                tuples,
                imbalance: matrix.phase_imbalance(p, active),
                weighted_imbalance,
                worker_counts,
            }
        })
        .collect();
    ScenarioSimResult {
        scheme: kind.symbol().to_string(),
        scenario: scenario.name.clone(),
        tuples: matrix.total(),
        phases,
    }
}

/// Routing outcome of a scenario replayed under an elasticity controller.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlledSimResult {
    /// Scheme symbol (KG, SG, PKG, D-C, W-C, RR).
    pub scheme: String,
    /// Scenario name.
    pub scenario: String,
    /// Total tuples routed.
    pub tuples: u64,
    /// Per-worker routed counts over the spawned worker universe
    /// (`max(scenario.max_workers(), controller.max_workers)`).
    pub worker_counts: Vec<u64>,
    /// The paper's imbalance `I` over the spawned worker universe — the
    /// same statistic `EngineResult::imbalance` reports for controlled
    /// engine runs.
    pub imbalance: f64,
    /// All controller decisions, canonically merged across sources.
    pub controller: ControllerMetrics,
}

/// Replays `scenario` under `kind` with the elasticity controller enabled —
/// the analytic mirror of the engine's controlled scenario runs.
///
/// Each source gets its own [`ElasticityController`] stepped at every
/// window boundary with the same two signals the engine feeds it: the
/// closing window's per-slot routed counts ([`PerWindowLoads`]) and the
/// partitioner's own head snapshot. Because both signals are pure functions
/// of the source's stream prefix, the decision log and the routed counts
/// are *exactly* equal to the engine's
/// (`slb-net/tests/controller_differential.rs` pins this across backends).
///
/// # Panics
/// Panics if the scenario or the controller config is invalid.
pub fn simulate_scenario_controlled(
    kind: PartitionerKind,
    scenario: &Scenario,
    controller: &ControllerConfig,
) -> ControlledSimResult {
    if let Err(message) = scenario.validate() {
        panic!("invalid scenario: {message}");
    }
    controller.validate();
    let spawned = scenario.max_workers().max(controller.max_workers);
    let mut counts = vec![0u64; spawned];
    let mut events = Vec::new();
    // Sources are independent: each carries its own controller and
    // partitioner across all phases, exactly like one engine source thread.
    for source in 0..scenario.sources {
        let mut ctrl = ElasticityController::new(
            controller.clone(),
            source as u32,
            scenario.phases[0].workers,
        );
        let mut window_loads = PerWindowLoads::new(spawned);
        let build = |workers: usize| {
            let config = PartitionConfig::new(workers)
                .with_seed(scenario.seed)
                .with_solver(SolverMode::External);
            build_partitioner::<KeyId>(kind, &config)
        };
        for (p, phase) in scenario.phases.iter().enumerate() {
            // The controller owns the active count: phase worker counts are
            // advisory only (they seeded the controller's initial count).
            // Every phase starts from a fresh partitioner; at the first one
            // the controller's `d` view already is the fresh default.
            let mut active = ctrl.active_workers();
            let mut part = build(active);
            ctrl.note_partitioner_rebuilt();
            let mut stream = scenario.phase_stream(p, source);
            for _window in 0..phase.windows {
                for _ in 0..scenario.window_size {
                    let key = stream.next_key().expect("stream covers every window");
                    let slot = part.route(&key);
                    counts[slot] += 1;
                    window_loads.record(slot);
                }
                // The engine's window-boundary controller step, verbatim:
                // observe, then either rebuild or retune — never both.
                let window_total = window_loads.total();
                let window_max = window_loads.max_count();
                window_loads.finish_window(active);
                if let Some(new_active) = ctrl.observe_window(window_total, window_max) {
                    active = new_active;
                    part = build(active);
                } else if let Some(snapshot) = part.head_snapshot() {
                    if let Some(decision) = ctrl.retune(&snapshot.frequencies, snapshot.tail_mass())
                    {
                        part.apply_choices(decision);
                    }
                }
            }
            assert!(
                stream.next_key().is_none(),
                "phase stream outlived its windows"
            );
        }
        events.extend(ctrl.take_events());
    }
    ControlledSimResult {
        scheme: kind.symbol().to_string(),
        scenario: scenario.name.clone(),
        tuples: counts.iter().sum(),
        imbalance: slb_core::imbalance(&counts),
        worker_counts: counts,
        controller: ControllerMetrics::merged(events),
    }
}

/// Replays the scenario under every scheme in `schemes`, in order.
pub fn compare_scenario_schemes(
    scenario: &Scenario,
    schemes: &[PartitionerKind],
) -> Vec<ScenarioSimResult> {
    schemes
        .iter()
        .map(|&kind| simulate_scenario(kind, scenario))
        .collect()
}

/// Imbalance of per-worker *work*: routed counts scaled by each worker's
/// service-time multiplier, normalized to shares. A count-balanced phase
/// with one 2× slower worker shows positive weighted imbalance — the slow
/// worker is the bottleneck the paper's saturation argument cares about.
fn weighted_imbalance(counts: &[u64], speed_of: impl Fn(usize) -> f64) -> f64 {
    let work: Vec<f64> = counts
        .iter()
        .enumerate()
        .map(|(w, &c)| c as f64 * speed_of(w))
        .collect();
    let total: f64 = work.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    let shares: Vec<f64> = work.iter().map(|w| w / total).collect();
    imbalance_fractions(&shares)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slb_workloads::ScenarioPhase;

    fn scenario(seed: u64) -> Scenario {
        Scenario::new("sim-unit", 3, 128, seed)
            .phase(ScenarioPhase::new(2, 500, 2.0, 4))
            .phase(
                ScenarioPhase::new(2, 500, 1.0, 8)
                    .with_worker_speed(vec![3.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]),
            )
            .phase(ScenarioPhase::new(1, 300, 0.0, 2))
    }

    #[test]
    fn every_tuple_is_routed_exactly_once() {
        let s = scenario(9);
        let result = simulate_scenario(PartitionerKind::Pkg, &s);
        assert_eq!(result.tuples, s.total_tuples());
        assert_eq!(result.phases.len(), 3);
        for (p, outcome) in result.phases.iter().enumerate() {
            assert_eq!(outcome.phase, p);
            assert_eq!(outcome.workers, s.phases[p].workers);
            assert_eq!(
                outcome.tuples,
                s.phase_tuples_per_source(p) * s.sources as u64
            );
            assert_eq!(outcome.worker_counts.iter().sum::<u64>(), outcome.tuples);
        }
    }

    #[test]
    fn replay_is_deterministic() {
        let s = scenario(4);
        let a = simulate_scenario(PartitionerKind::DChoices, &s);
        let b = simulate_scenario(PartitionerKind::DChoices, &s);
        assert_eq!(a, b);
    }

    #[test]
    fn weighted_imbalance_flags_slow_workers() {
        // Perfectly count-balanced, but worker 0 is 3× slower: weighted
        // imbalance must be positive while plain imbalance is zero.
        let counts = [100u64, 100, 100, 100];
        let plain = weighted_imbalance(&counts, |_| 1.0);
        assert!(plain.abs() < 1e-12);
        let skewed = weighted_imbalance(&counts, |w| if w == 0 { 3.0 } else { 1.0 });
        assert!(skewed > 0.2, "weighted imbalance {skewed}");
    }

    #[test]
    fn heterogeneous_phase_reports_higher_weighted_imbalance_for_sg() {
        // Shuffle grouping balances counts; the 3×-slow worker in phase 1
        // must surface only in the weighted metric.
        let s = scenario(7);
        let result = simulate_scenario(PartitionerKind::ShuffleGrouping, &s);
        let hetero = &result.phases[1];
        assert!(
            hetero.imbalance < 0.01,
            "SG count imbalance {}",
            hetero.imbalance
        );
        assert!(
            hetero.weighted_imbalance > hetero.imbalance + 0.1,
            "weighted {} vs plain {}",
            hetero.weighted_imbalance,
            hetero.imbalance
        );
    }

    #[test]
    fn skewed_phase_orders_schemes_as_the_paper_predicts() {
        let s = scenario(42);
        let kg = simulate_scenario(PartitionerKind::KeyGrouping, &s);
        let wc = simulate_scenario(PartitionerKind::WChoices, &s);
        // Phase 0 is z=2.0 on 4 workers: KG must be far worse than W-C.
        assert!(kg.phases[0].imbalance > wc.phases[0].imbalance);
        // Phase 2 is uniform: every scheme is close to balanced.
        assert!(kg.phases[2].imbalance < 0.1);
        assert!(wc.phases[2].imbalance < 0.1);
    }

    #[test]
    fn compare_returns_results_in_scheme_order() {
        let s = scenario(1);
        let results =
            compare_scenario_schemes(&s, &[PartitionerKind::KeyGrouping, PartitionerKind::Pkg]);
        assert_eq!(results[0].scheme, "KG");
        assert_eq!(results[1].scheme, "PKG");
    }

    #[test]
    #[should_panic(expected = "invalid scenario")]
    fn invalid_scenario_panics() {
        let s = Scenario::new("empty", 1, 64, 0);
        let _ = simulate_scenario(PartitionerKind::Pkg, &s);
    }

    #[test]
    fn controlled_replay_is_deterministic_and_conserves_tuples() {
        let s = Scenario::drift(2, 128, 4, 11);
        let cfg = ControllerConfig::new(2, 8, 60);
        let a = simulate_scenario_controlled(PartitionerKind::DChoices, &s, &cfg);
        let b = simulate_scenario_controlled(PartitionerKind::DChoices, &s, &cfg);
        assert_eq!(a, b);
        assert_eq!(a.tuples, s.total_tuples());
        // The spawned universe covers the controller's reach.
        assert_eq!(a.worker_counts.len(), 8);
        assert_eq!(a.worker_counts.iter().sum::<u64>(), a.tuples);
        assert!(a.controller.enabled);
        for e in &a.controller.events {
            assert!(
                (2..=8).contains(&(e.workers as usize)),
                "decision outside bounds: {e:?}"
            );
        }
    }

    #[test]
    fn controlled_replay_scales_out_under_pressure() {
        // Capacity 30 on 128-tuple windows: even perfectly balanced load on
        // 4 workers (32 each) exceeds capacity, so the controller must
        // activate workers beyond the scenario's constant 4.
        let s = Scenario::drift(1, 128, 4, 3);
        let cfg = ControllerConfig::new(2, 8, 30);
        let r = simulate_scenario_controlled(PartitionerKind::DChoices, &s, &cfg);
        assert!(
            r.controller.events.iter().any(|e| e.workers as usize > 4),
            "no scale-out happened: {:?}",
            r.controller.events
        );
        assert!(
            r.worker_counts[4..].iter().any(|&c| c > 0),
            "activated workers received no load"
        );
    }

    #[test]
    fn controller_events_only_for_tunable_schemes() {
        // PKG has no tunable d and no head snapshot: with a capacity no
        // window can exceed, the controller stays silent end to end.
        let s = Scenario::drift(1, 64, 4, 5);
        let cfg = ControllerConfig::new(4, 4, u64::MAX);
        let r = simulate_scenario_controlled(PartitionerKind::Pkg, &s, &cfg);
        assert!(r.controller.enabled);
        assert!(r.controller.events.is_empty());
    }
}
