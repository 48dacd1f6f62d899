//! Cross-backend differential suite: `Spsc` ≡ `Tcp` ≡ `InProc` ≡ exact
//! reference.
//!
//! The transport abstraction's contract is that routing, windowing, and
//! aggregation are transport-blind. This suite turns that into an equality
//! check: for every grouping scheme and seed, the same
//! `EngineConfig`/`ScenarioConfig` runs once over the in-process crossbeam
//! backend, once over the lock-free SPSC ring backend, and once over
//! TCP loopback sockets, and the merged per-window per-key counts must be
//! **bit-identical** — to each other and to the single-threaded exact
//! reference. Any framing bug, lost frame, reordered punctuation,
//! mis-recycled batch buffer, or mis-decoded partial fails an exact
//! equality, not a statistical bound.
//!
//! Seeds: the suite runs a built-in seed pair by default; setting
//! `SLB_TEST_SEED` (a single u64) replaces the pair with that seed, which is
//! how `ci.sh` sweeps its seed matrix without re-paying for the defaults.

mod common;

use std::collections::HashMap;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use slb_core::{CountAggregate, PartitionerKind};
use slb_engine::{
    exact_scenario_windowed_counts, exact_windowed_counts, run_aggregator_stage, EngineConfig,
    InProc, ScenarioConfig, Spsc, Topology, Transport,
};
use slb_net::tcp::TcpTransport;
use slb_telemetry::HopTelemetry;
use slb_workloads::{Arrival, KeyId, Scenario, ScenarioPhase};

use common::assert_windows_match;

/// Seeds to exercise: `SLB_TEST_SEED` alone when set, the built-in pair
/// otherwise (deliberately disjoint from ci.sh's {1, 42, 1337} matrix).
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

/// Small-but-threaded: several sources and workers, zero service time, a
/// window size yielding several windows including a partial one, and a
/// batch size small enough that many frames cross each socket.
fn differential_config(kind: PartitionerKind, skew: f64, seed: u64) -> EngineConfig {
    EngineConfig::smoke(kind, skew)
        .with_seed(seed)
        .with_messages(16_000)
        .with_service_time_us(0)
        .with_window_size(512)
        .with_batch_size(64)
}

fn assert_backends_agree(cfg: &EngineConfig) {
    let reference = exact_windowed_counts(cfg);
    let inproc = Topology::new(cfg.clone()).run_windowed_on(CountAggregate, &InProc);
    let spsc = Topology::new(cfg.clone()).run_windowed_on(CountAggregate, &Spsc);
    let tcp = Topology::new(cfg.clone()).run_windowed_on(CountAggregate, &TcpTransport::loopback());
    let label = format!("{} z={} seed={}", cfg.kind.symbol(), cfg.skew, cfg.seed);
    for (windows, backend) in [(&spsc.windows, "SPSC"), (&tcp.windows, "TCP")] {
        assert_windows_match(
            windows,
            &inproc.windows,
            &format!("{label}: {backend} merged windows diverged from InProc"),
        );
        assert_windows_match(
            windows,
            &reference,
            &format!("{label}: {backend} merged windows diverged from the exact reference"),
        );
    }
    // The transport also must not change *routing*: per-worker counts and
    // state footprints are decided at the sources, before any transport.
    for (result, backend) in [(&spsc.result, "SPSC"), (&tcp.result, "TCP")] {
        assert_eq!(
            result.worker_counts, inproc.result.worker_counts,
            "{label}: {backend} per-worker counts diverged across backends"
        );
        assert_eq!(
            result.worker_state_keys, inproc.result.worker_state_keys,
            "{label}: {backend} per-worker state diverged across backends"
        );
        assert_eq!(result.processed, inproc.result.processed);
        assert_eq!(result.latency.samples, result.processed);
        assert_eq!(result.latency_histogram.count(), result.latency.samples);
    }
    // Hop telemetry is always collected, on every backend: each hop's
    // counters saw exactly the run's traffic.
    for (result, backend) in [
        (&inproc.result, "InProc"),
        (&spsc.result, "SPSC"),
        (&tcp.result, "TCP"),
    ] {
        let hops = &result.transport;
        assert_eq!(
            hops.source.tuples_sent, result.processed,
            "{label}: {backend} source hop counters"
        );
        assert_eq!(
            hops.worker.tuples_received, result.processed,
            "{label}: {backend} worker hop counters"
        );
        assert_eq!(
            hops.aggregator.batches_received, result.aggregator_stage.items,
            "{label}: {backend} aggregator hop counters"
        );
    }
}

/// One test per scheme so failures name the scheme and the matrix runs in
/// parallel under the default test harness.
macro_rules! scheme_differential {
    ($name:ident, $kind:expr) => {
        #[test]
        fn $name() {
            for seed in seeds() {
                for skew in [0.0, 1.8] {
                    assert_backends_agree(&differential_config($kind, skew, seed));
                }
            }
        }
    };
}

scheme_differential!(tcp_matches_inproc_kg, PartitionerKind::KeyGrouping);
scheme_differential!(tcp_matches_inproc_sg, PartitionerKind::ShuffleGrouping);
scheme_differential!(tcp_matches_inproc_pkg, PartitionerKind::Pkg);
scheme_differential!(tcp_matches_inproc_dc, PartitionerKind::DChoices);
scheme_differential!(tcp_matches_inproc_wc, PartitionerKind::WChoices);
scheme_differential!(tcp_matches_inproc_rr, PartitionerKind::RoundRobin);

/// A compact scenario exercising the distributed-relevant machinery: drift,
/// scale-out, heterogeneity, and sub-batch bursts.
fn differential_scenario(seed: u64) -> Scenario {
    Scenario::new("net-diff", 2, 256, seed)
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
        )
}

#[test]
fn tcp_matches_inproc_and_reference_on_scenarios() {
    for seed in seeds() {
        let scenario = differential_scenario(seed);
        let reference = exact_scenario_windowed_counts(&scenario);
        for kind in PartitionerKind::ALL {
            let cfg = ScenarioConfig::new(kind, scenario.clone()).with_batch_size(64);
            let inproc = cfg.run_windowed_on(CountAggregate, &InProc);
            let spsc = cfg.run_windowed_on(CountAggregate, &Spsc);
            let tcp = cfg.run_windowed_on(CountAggregate, &TcpTransport::loopback());
            let label = format!("{} seed={seed}", kind.symbol());
            for (run, backend) in [(&spsc, "SPSC"), (&tcp, "TCP")] {
                assert_windows_match(
                    &run.windows,
                    &inproc.windows,
                    &format!("{label}: {backend} scenario windows diverged across backends"),
                );
                assert_windows_match(
                    &run.windows,
                    &reference,
                    &format!(
                        "{label}: {backend} scenario windows diverged from the exact reference"
                    ),
                );
                assert_eq!(
                    run.result.worker_counts, inproc.result.worker_counts,
                    "{label}: {backend} scenario per-worker counts diverged"
                );
                for (a, b) in run.result.phases.iter().zip(&inproc.result.phases) {
                    assert_eq!(
                        a.worker_counts, b.worker_counts,
                        "{label}: {backend} phase counts"
                    );
                }
            }
        }
    }
}

#[test]
fn tcp_and_spsc_are_knob_insensitive_like_inproc() {
    // Queue capacity and batch size shape timing (and, on SPSC, ring
    // sizing), never counts — on every backend exactly as in process.
    let seed = seeds()[0];
    let base = differential_config(PartitionerKind::Pkg, 1.6, seed);
    let reference = exact_windowed_counts(&base);
    for (queue_capacity, batch_size) in [(64usize, 16usize), (1_024, 256), (32, 1_000)] {
        let cfg = base
            .clone()
            .with_queue_capacity(queue_capacity)
            .with_batch_size(batch_size);
        let spsc = Topology::new(cfg.clone()).run_windowed_on(CountAggregate, &Spsc);
        let tcp = Topology::new(cfg).run_windowed_on(CountAggregate, &TcpTransport::loopback());
        for (run, backend) in [(&spsc, "SPSC"), (&tcp, "TCP")] {
            assert_windows_match(
                &run.windows,
                &reference,
                &format!(
                    "{backend} queue={queue_capacity} batch={batch_size}: \
                     counts moved with transport knobs"
                ),
            );
        }
    }
}

/// Aggregator `index` of `cfg`'s plan, run over `transport` with its data
/// channel held open and nothing sent: it must return within ten seconds.
fn idle_aggregator_returns<T>(cfg: &EngineConfig, transport: &T, index: usize, backend: &str)
where
    T: Transport<HashMap<KeyId, u64>>,
    T::PartialRx: Send + 'static,
{
    let plan = cfg.stage_plan();
    let (senders, receivers) = transport.partial_channels(plan.aggregators, 8);
    let receiver = receivers.into_iter().nth(index).expect("the plan has it");
    let (done, report) = mpsc::channel();
    thread::spawn(move || {
        let (_, exclusions) = mpsc::channel();
        let hop = HopTelemetry::default();
        let _ = done.send(run_aggregator_stage(
            &plan,
            index,
            &CountAggregate,
            &receiver,
            &exclusions,
            &hop,
        ));
    });
    let report = report.recv_timeout(Duration::from_secs(10));
    let report = report.unwrap_or_else(|_| panic!("{backend}: idle aggregator {index} waited"));
    assert!(
        report.finalized.is_empty() && report.merged == 0,
        "{backend}"
    );
    drop(senders);
}

/// More aggregators than windows: an aggregator that owns no window returns
/// at once on either backend, and the run still reads the exact reference.
#[test]
fn an_aggregator_that_owns_no_window_returns_at_once() {
    let cfg = differential_config(PartitionerKind::Pkg, 1.4, seeds()[0])
        .with_messages(2 * 3 * 512)
        .with_aggregators(5);
    assert_eq!(cfg.stage_plan().total_windows(), 3);
    idle_aggregator_returns(&cfg, &Spsc, 4, "SPSC");
    idle_aggregator_returns(&cfg, &TcpTransport::loopback(), 4, "TCP");
    let reference = exact_windowed_counts(&cfg);
    let spsc = Topology::new(cfg.clone()).run_windowed_on(CountAggregate, &Spsc);
    let tcp = Topology::new(cfg).run_windowed_on(CountAggregate, &TcpTransport::loopback());
    for (run, backend) in [(&spsc, "SPSC"), (&tcp, "TCP")] {
        assert_windows_match(&run.windows, &reference, backend);
        assert_eq!(run.result.aggregator_stage.items, 3 * 4, "{backend}");
    }
}

#[test]
fn tcp_and_spsc_support_multiple_aggregator_shards() {
    let seed = seeds()[0];
    let base = differential_config(PartitionerKind::DChoices, 2.0, seed);
    let reference = exact_windowed_counts(&base);
    for aggregators in [1usize, 3] {
        let cfg = base.clone().with_aggregators(aggregators);
        let spsc = Topology::new(cfg.clone()).run_windowed_on(CountAggregate, &Spsc);
        let tcp = Topology::new(cfg).run_windowed_on(CountAggregate, &TcpTransport::loopback());
        for (run, backend) in [(&spsc, "SPSC"), (&tcp, "TCP")] {
            assert_windows_match(
                &run.windows,
                &reference,
                &format!("{backend} aggregators={aggregators}"),
            );
        }
    }
}
