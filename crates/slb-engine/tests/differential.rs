//! Differential correctness suite: the key-splitting soundness invariant.
//!
//! The paper's central claim is only sound end to end if the downstream
//! aggregation stage exactly undoes the scattering that key splitting
//! introduces: whatever the grouping scheme (KG, SG, PKG, D-C, W-C, RR),
//! however skewed the workload, and however the run is batched, threaded and
//! sharded, the merged per-window per-key counts must be **bit-identical**
//! to what a single worker counting the whole stream would produce.
//!
//! This suite runs the full threaded engine for every scheme × skew × seed
//! combination and compares the merged windowed output against the
//! single-threaded exact reference ([`exact_windowed_counts`]). Any
//! divergence — a lost tuple, a double count, a window boundary that moved
//! with thread interleaving — fails the equality, not a statistical bound.
//!
//! Seeds: the suite runs a built-in seed pair by default; setting
//! `SLB_TEST_SEED` (a single u64) replaces the pair with that seed, which is
//! how `ci.sh` sweeps its seed matrix without re-paying for the defaults.

use std::collections::HashMap;

use slb_core::{CountAggregate, PartitionerKind};
use slb_engine::{exact_windowed_counts, EngineConfig, Topology, WindowId};
use slb_workloads::KeyId;

/// Seeds to exercise: `SLB_TEST_SEED` alone when set (so the CI matrix pays
/// for exactly one new seed per sweep iteration — the built-in pair already
/// ran in the plain workspace invocation), the built-in pair otherwise.
/// The pair is deliberately disjoint from ci.sh's {1, 42, 1337} matrix.
fn seeds() -> Vec<u64> {
    match std::env::var("SLB_TEST_SEED") {
        Ok(value) => {
            let seed: u64 = value
                .parse()
                .unwrap_or_else(|_| panic!("SLB_TEST_SEED must be a u64, got {value:?}"));
            vec![seed]
        }
        Err(_) => vec![7, 23],
    }
}

/// A small-but-threaded configuration: multiple sources and workers, zero
/// service time (the differential check is about counting, not queueing),
/// and a window size that produces several windows including a partial one.
fn differential_config(kind: PartitionerKind, skew: f64, seed: u64) -> EngineConfig {
    EngineConfig::smoke(kind, skew)
        .with_seed(seed)
        .with_messages(24_000)
        .with_service_time_us(0)
        .with_window_size(512)
}

fn assert_merged_equals_reference(cfg: &EngineConfig) {
    let reference = exact_windowed_counts(cfg);
    let run = Topology::new(cfg.clone()).run_windowed(CountAggregate);
    let merged: Vec<(WindowId, HashMap<KeyId, u64>)> = run.windows.into_iter().collect();
    let expected: Vec<(WindowId, HashMap<KeyId, u64>)> = reference.into_iter().collect();
    assert_eq!(
        merged.len(),
        expected.len(),
        "{} z={} seed={}: window count diverged",
        cfg.kind.symbol(),
        cfg.skew,
        cfg.seed
    );
    for ((window, counts), (ref_window, ref_counts)) in merged.iter().zip(&expected) {
        assert_eq!(window, ref_window);
        assert_eq!(
            counts,
            ref_counts,
            "{} z={} seed={} window {}: merged counts diverged from the exact reference",
            cfg.kind.symbol(),
            cfg.skew,
            cfg.seed,
            window
        );
    }
}

/// The full matrix: every scheme × skew × seed. One test per scheme so
/// failures name the scheme and the matrix runs on all test threads.
fn run_scheme(kind: PartitionerKind) {
    for skew in [0.0, 1.4, 2.0] {
        for seed in seeds() {
            assert_merged_equals_reference(&differential_config(kind, skew, seed));
        }
    }
}

#[test]
fn key_grouping_merged_counts_match_exact_reference() {
    run_scheme(PartitionerKind::KeyGrouping);
}

#[test]
fn shuffle_grouping_merged_counts_match_exact_reference() {
    run_scheme(PartitionerKind::ShuffleGrouping);
}

#[test]
fn pkg_merged_counts_match_exact_reference() {
    run_scheme(PartitionerKind::Pkg);
}

#[test]
fn d_choices_merged_counts_match_exact_reference() {
    run_scheme(PartitionerKind::DChoices);
}

#[test]
fn w_choices_merged_counts_match_exact_reference() {
    run_scheme(PartitionerKind::WChoices);
}

#[test]
fn round_robin_merged_counts_match_exact_reference() {
    run_scheme(PartitionerKind::RoundRobin);
}

/// The invariant is insensitive to every transport/parallelism knob: batch
/// size (including tuple-at-a-time), aggregator count, worker count,
/// and window sizes that do not divide the stream evenly.
#[test]
fn invariant_holds_across_transport_and_sharding_knobs() {
    let seed = seeds()[seeds().len() - 1];
    let base = differential_config(PartitionerKind::Pkg, 1.4, seed);
    for batch_size in [1usize, 3, 256] {
        assert_merged_equals_reference(&base.clone().with_batch_size(batch_size));
    }
    for aggregators in [1usize, 3, 5] {
        assert_merged_equals_reference(&base.clone().with_aggregators(aggregators));
    }
    // Extreme window sizes (every tuple its own window; one giant window)
    // punctuate far more often, so run them on a shorter stream.
    for window_size in [1u64, 7, 999, 100_000] {
        assert_merged_equals_reference(
            &base
                .clone()
                .with_messages(6_000)
                .with_window_size(window_size),
        );
    }
    let mut wide = base.clone();
    wide.workers = 11;
    wide.sources = 3;
    assert_merged_equals_reference(&wide);
}
