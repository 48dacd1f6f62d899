//! Cross-crate integration tests: exercise the facade crate end-to-end and
//! assert the paper's qualitative results at small (CI-friendly) scale.

use slb::core::{
    build_partitioner, find_optimal_choices, imbalance, ChoicesDecision, PartitionConfig,
    PartitionerKind,
};
use slb::engine::{EngineConfig, Topology};
use slb::simulator::{SimulationConfig, Simulator};
use slb::sketch::{FrequencyEstimator, SpaceSaving};
use slb::workloads::datasets::{Dataset, Scale, SyntheticDataset};
use slb::workloads::zipf::{ZipfDistribution, ZipfGenerator};

/// The motivating claim (Figure 1): at 50+ workers on a Wikipedia-like
/// workload, PKG's imbalance is orders of magnitude above W-Choices' and
/// clearly above D-Choices'.
#[test]
fn two_choices_are_not_enough_at_scale() {
    let dataset = SyntheticDataset::wikipedia_like(Scale::Smoke, 5);
    let run = |kind: PartitionerKind| {
        let mut stream = dataset.stream();
        Simulator::run(SimulationConfig::new(kind, 50), stream.as_mut()).imbalance
    };
    let pkg = run(PartitionerKind::Pkg);
    let dc = run(PartitionerKind::DChoices);
    let wc = run(PartitionerKind::WChoices);
    assert!(pkg > 5.0 * wc, "PKG {pkg} should be far above W-C {wc}");
    assert!(dc < pkg, "D-C {dc} should beat PKG {pkg}");
}

/// At small scale (5 workers) all schemes, including PKG, keep the imbalance
/// low on the Wikipedia-like workload — the other half of Figure 1.
#[test]
fn pkg_is_fine_at_small_scale() {
    let dataset = SyntheticDataset::wikipedia_like(Scale::Smoke, 6);
    let mut stream = dataset.stream();
    let pkg = Simulator::run(
        SimulationConfig::new(PartitionerKind::Pkg, 5),
        stream.as_mut(),
    );
    assert!(
        pkg.imbalance < 0.01,
        "PKG imbalance at n=5 is {}",
        pkg.imbalance
    );
}

/// The D-Choices solver reproduces the introduction's example: under Zipf
/// z = 2.0 the hottest key is ~60% of the stream, so for any deployment
/// larger than 3 workers two choices cannot balance the load and the solver
/// must ask for (substantially) more.
#[test]
fn solver_reacts_to_the_sixty_percent_key() {
    let dist = ZipfDistribution::new(10_000, 2.0);
    assert!(dist.p1() > 0.55);
    for workers in [10usize, 50, 100] {
        let theta = 1.0 / (5.0 * workers as f64);
        let head: Vec<f64> = dist
            .probabilities()
            .iter()
            .copied()
            .take_while(|&p| p >= theta)
            .collect();
        let tail = 1.0 - head.iter().sum::<f64>();
        let d = find_optimal_choices(&head, tail, workers, 1e-4).effective_d(workers);
        assert!(
            d as f64 >= 0.5 * workers as f64,
            "n={workers}: d={d} too small for a 60% hot key"
        );
    }
}

/// Cross-substrate agreement: the SpaceSaving estimate of the hottest key's
/// frequency matches the generator's exact distribution closely.
#[test]
fn sketch_tracks_the_generator() {
    let keys = 1_000;
    let z = 1.5;
    let mut gen = ZipfGenerator::new(keys, z, 9);
    let mut sketch = SpaceSaving::new(200);
    let messages = 200_000u64;
    for _ in 0..messages {
        sketch.observe(&gen.next_key());
    }
    let hottest = gen.key_of(1);
    let estimated = sketch.frequency(&hottest);
    let exact = gen.distribution().p1();
    assert!(
        (estimated - exact).abs() < 0.02,
        "estimated p1 {estimated} vs exact {exact}"
    );
}

/// The facade's boxed partitioners, the simulator and the engine all agree
/// on the basic invariant: every message lands on a valid worker and the
/// totals add up.
#[test]
fn facade_simulator_and_engine_agree_on_accounting() {
    // Facade-level routing.
    let cfg = PartitionConfig::new(16).with_seed(1);
    let mut p = build_partitioner::<u64>(PartitionerKind::DChoices, &cfg);
    for i in 0..10_000u64 {
        assert!(p.route(&(i % 97)) < 16);
    }
    assert_eq!(p.local_loads().total(), 10_000);

    // Simulator-level accounting.
    let mut stream = ZipfGenerator::with_limit(500, 1.0, 2, 20_000);
    let sim = Simulator::run(
        SimulationConfig::new(PartitionerKind::DChoices, 16),
        &mut stream,
    );
    assert_eq!(sim.messages, 20_000);
    assert_eq!(sim.worker_loads.iter().sum::<u64>(), 20_000);

    // Engine-level accounting.
    let result = Topology::new(EngineConfig::smoke(PartitionerKind::DChoices, 1.4)).run();
    assert_eq!(result.processed, result.worker_counts.iter().sum::<u64>());
    assert_eq!(result.latency.samples, result.processed);
}

/// The engine reproduces the Figure 13/14 ordering at smoke scale under
/// extreme skew: the head-aware schemes do not lose to key grouping on
/// balance, and shuffle grouping replicates the most state.
#[test]
fn engine_orders_schemes_as_the_paper_does() {
    let base = EngineConfig::smoke(PartitionerKind::Pkg, 2.0);
    let kg = Topology::new(EngineConfig {
        kind: PartitionerKind::KeyGrouping,
        ..base.clone()
    })
    .run();
    let wc = Topology::new(EngineConfig {
        kind: PartitionerKind::WChoices,
        ..base.clone()
    })
    .run();
    let sg = Topology::new(EngineConfig {
        kind: PartitionerKind::ShuffleGrouping,
        ..base
    })
    .run();
    assert!(
        wc.imbalance <= kg.imbalance,
        "W-C {} vs KG {}",
        wc.imbalance,
        kg.imbalance
    );
    assert!(wc.total_state_replicas() <= sg.total_state_replicas());
    assert!(kg.total_state_replicas() <= wc.total_state_replicas());
}

/// Concept drift (the cashtag dataset) is harder: the same scheme shows
/// higher imbalance on CT-like data than on the stationary WP-like data at
/// the same scale, yet W-Choices still keeps it workable.
#[test]
fn drift_makes_balancing_harder_but_not_impossible() {
    let ct = SyntheticDataset::cashtag_like(Scale::Smoke, 3);
    let wp = SyntheticDataset::wikipedia_like(Scale::Smoke, 3);
    let imb = |ds: &SyntheticDataset, kind| {
        let mut stream = ds.stream();
        Simulator::run(SimulationConfig::new(kind, 50), stream.as_mut()).imbalance
    };
    let ct_wc = imb(&ct, PartitionerKind::WChoices);
    let ct_pkg = imb(&ct, PartitionerKind::Pkg);
    assert!(ct_wc <= ct_pkg, "W-C should not lose to PKG on CT");
    // Sanity rather than strict ordering (smoke-scale CT is small): both
    // datasets stay clearly below the catastrophic KG-style imbalance.
    let wp_wc = imb(&wp, PartitionerKind::WChoices);
    assert!(ct_wc < 0.1 && wp_wc < 0.1);
}

/// The solver switches to W-Choices semantics when asked to balance an
/// impossible head on a big cluster, and that decision is what the
/// HeadAware partitioner exposes.
#[test]
fn switch_to_w_choices_is_reachable_through_the_public_api() {
    let decision = find_optimal_choices(&[0.95], 0.05, 100, 1e-6);
    assert_eq!(decision, ChoicesDecision::SwitchToW);
    assert_eq!(decision.effective_d(100), 100);
}

/// Deterministic reproducibility across the whole stack: the same seeds give
/// identical simulation results.
#[test]
fn full_stack_determinism() {
    let run = || {
        let mut stream = ZipfGenerator::with_limit(2_000, 1.7, 31, 30_000);
        Simulator::run(
            SimulationConfig::new(PartitionerKind::DChoices, 25),
            &mut stream,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.worker_loads, b.worker_loads);
    assert_eq!(a.imbalance, b.imbalance);
    assert!(imbalance(&a.worker_loads) >= 0.0);
}
