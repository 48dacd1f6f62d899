//! Determinism suite: thread interleaving, transport batching, and the
//! aggregator count never leak into the engine's aggregates.
//!
//! The engine is heavily threaded (sources, workers, aggregators all
//! race on bounded channels), so the *timing* numbers of two identical runs
//! differ — but every aggregate that feeds the paper's figures must not:
//! per-worker tuple counts, per-worker state footprints, imbalance, window
//! counts, and the merged per-window aggregates are pure functions of the
//! `EngineConfig`. These tests re-run identical and transport-varied
//! configurations and demand exact equality on that deterministic subset.

use slb_core::{CountAggregate, PartitionerKind};
use slb_engine::{EngineConfig, EngineResult, Topology};

/// The deterministic projection of an [`EngineResult`]: everything except
/// wall-clock-derived measurements (elapsed, throughput, latency).
fn deterministic_view(r: &EngineResult) -> impl PartialEq + std::fmt::Debug {
    (
        r.scheme.clone(),
        r.processed,
        r.worker_counts.clone(),
        r.worker_state_keys.clone(),
        r.imbalance.to_bits(),
        r.windows,
        r.window_size,
        r.aggregators,
        r.worker_stage.items,
        r.aggregator_stage.items,
    )
}

fn config(kind: PartitionerKind, skew: f64) -> EngineConfig {
    EngineConfig::smoke(kind, skew)
        .with_messages(16_000)
        .with_service_time_us(0)
        .with_window_size(640)
        .with_seed(1337)
}

#[test]
fn identical_configs_yield_identical_aggregates() {
    for kind in PartitionerKind::ALL {
        let cfg = config(kind, 1.6);
        let first = Topology::new(cfg.clone()).run_windowed(CountAggregate);
        let second = Topology::new(cfg).run_windowed(CountAggregate);
        assert_eq!(
            deterministic_view(&first.result),
            deterministic_view(&second.result),
            "{kind:?}: rerun changed deterministic aggregates"
        );
        assert_eq!(
            first.windows, second.windows,
            "{kind:?}: rerun changed merged windowed output"
        );
    }
}

#[test]
fn batch_size_one_and_256_yield_identical_aggregates() {
    for kind in [
        PartitionerKind::Pkg,
        PartitionerKind::DChoices,
        PartitionerKind::WChoices,
        PartitionerKind::RoundRobin,
    ] {
        let base = config(kind, 2.0);
        let scalar = Topology::new(base.clone().with_batch_size(1)).run_windowed(CountAggregate);
        let batched = Topology::new(base.with_batch_size(256)).run_windowed(CountAggregate);
        assert_eq!(
            deterministic_view(&scalar.result),
            deterministic_view(&batched.result),
            "{kind:?}: transport batch size leaked into aggregates"
        );
        assert_eq!(
            scalar.windows, batched.windows,
            "{kind:?}: transport batch size leaked into windowed output"
        );
    }
}

#[test]
fn aggregator_count_never_changes_the_merged_output() {
    let base = config(PartitionerKind::Pkg, 1.4);
    let reference = Topology::new(base.clone().with_aggregators(1)).run_windowed(CountAggregate);
    for aggregators in [2usize, 3, 7] {
        let spread =
            Topology::new(base.clone().with_aggregators(aggregators)).run_windowed(CountAggregate);
        assert_eq!(
            reference.windows, spread.windows,
            "{aggregators} aggregators changed the merged windows"
        );
        // Each window has one owner, so the aggregator count does not change
        // how many partial messages flow either…
        assert_eq!(
            spread.result.aggregator_stage.items,
            spread.result.windows * base.workers as u64
        );
        // …but never the routing-side aggregates.
        assert_eq!(reference.result.worker_counts, spread.result.worker_counts);
    }
}

#[test]
fn seeds_do_change_the_workload() {
    // Guard against a vacuous suite: determinism must come from fixed seeds,
    // not from the engine ignoring them.
    let a = Topology::new(config(PartitionerKind::Pkg, 1.4).with_seed(1)).run();
    let b = Topology::new(config(PartitionerKind::Pkg, 1.4).with_seed(2)).run();
    assert_ne!(
        a.worker_counts, b.worker_counts,
        "different seeds should produce different routed workloads"
    );
}
