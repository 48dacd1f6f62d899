//! The benchmark's workloads: what each one runs, and why it exists.
//!
//! Every workload is a closed-loop batch job: the sources live inside the
//! engine and block on back-pressure, the input size is fixed, and the
//! program sees only the stream generated from `--seed`. Common knobs: 2
//! sources, 8 workers, 2 aggregators, batch 256, queue 1024 tuples, window
//! 4096, `CountAggregate`.

use std::collections::{BTreeMap, HashMap};

use slb_core::{CountAggregate, PartitionerKind};
use slb_engine::{
    exact_scenario_windowed_counts, exact_windowed_counts, EngineConfig, ScenarioConfig, Spsc,
    Topology, WindowId, WindowedRun,
};
use slb_net::TcpTransport;
use slb_workloads::{Arrival, KeyId, Scenario, ScenarioPhase};

pub const SOURCES: usize = 2;
pub const WORKERS: usize = 8;
pub const AGGREGATORS: usize = 2;
pub const BATCH: usize = 256;
pub const QUEUE: usize = 1024;
pub const WINDOW: u64 = 4096;

/// Merged per-window counts, the output every workload is checked on.
pub type Windows = BTreeMap<WindowId, HashMap<KeyId, u64>>;

/// Which transport a workload runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    Spsc,
    Tcp,
}

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json` and the README.
    pub why: &'static str,
    pub backend: Backend,
    kind: PartitionerKind,
    skew: f64,
    keys: usize,
    /// Windows per source in one measured repetition.
    windows: u64,
    window_size: u64,
    /// `Some` makes the job a paced one-phase scenario.
    paced: Option<Paced>,
    /// Counted toward the exit code and `--aa`; `false` for `--extra` runs.
    pub gating: bool,
}

#[derive(Debug, Clone, Copy)]
struct Paced {
    service_us: u64,
    burst_tuples: u64,
    pause_us: u64,
}

/// The four gating workloads, in round-robin order.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "route_hot",
        why: "D-Choices on Zipf 1.4 over 100k keys, zero service, Spsc: head tracking and candidate choice dominate",
        backend: Backend::Spsc,
        kind: PartitionerKind::DChoices,
        skew: 1.4,
        keys: 100_000,
        windows: 640,
        window_size: WINDOW,
        paced: None,
        gating: true,
    },
    Workload {
        name: "state_cold",
        why: "Shuffle grouping on Zipf 0.6 over 100k keys, Spsc: routing is free, worker state, checkpoints and merge dominate",
        backend: Backend::Spsc,
        kind: PartitionerKind::ShuffleGrouping,
        skew: 0.6,
        keys: 100_000,
        windows: 160,
        window_size: WINDOW,
        paced: None,
        gating: true,
    },
    Workload {
        name: "tcp_hop",
        why: "route_hot's routing and stream over loopback TCP: frame codec, write syscalls and reader threads dominate",
        backend: Backend::Tcp,
        kind: PartitionerKind::DChoices,
        skew: 1.4,
        keys: 100_000,
        windows: 480,
        window_size: WINDOW,
        paced: None,
        gating: true,
    },
    Workload {
        name: "paced_latency",
        why: "D-Choices under a paced 128k tuples/s load with 10 us service: routing quality shows as latency and load ratio",
        backend: Backend::Spsc,
        kind: PartitionerKind::DChoices,
        skew: 1.4,
        keys: 10_000,
        windows: 20,
        window_size: WINDOW,
        paced: Some(Paced {
            service_us: 10,
            burst_tuples: 256,
            pause_us: 4_000,
        }),
        gating: true,
    },
];

/// Runnable with `--extra window_churn`, never gating: with windows of 512
/// tuples the same binary lands on either of two throughput levels (see the
/// README), so no bound can hold. Kept as the measuring stick for the change
/// that fixes the barrier stall.
pub const EXTRAS: &[Workload] = &[Workload {
    name: "window_churn",
    why: "route_hot with 512-tuple windows: bimodal on every backend, excluded from gating",
    backend: Backend::Spsc,
    kind: PartitionerKind::DChoices,
    skew: 1.4,
    keys: 100_000,
    windows: 5_120,
    window_size: 512,
    paced: None,
    gating: false,
}];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().chain(EXTRAS).find(|w| w.name == name)
}

/// How much of a repetition to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// One measured repetition.
    Full,
    /// The warm-up before it: a quarter of the windows.
    Warmup,
}

/// A resolved job: one engine configuration ready to run.
#[derive(Debug, Clone)]
pub enum Job {
    Static(EngineConfig),
    Scenario(ScenarioConfig),
}

impl Workload {
    /// The job for this workload at `seed`. `quick` divides the input by 16
    /// (smoke sizes); `size` selects the measured run or its warm-up.
    pub fn job(&self, seed: u64, quick: bool, size: Size) -> Job {
        let mut windows = self.windows;
        if quick {
            windows = (windows / 16).max(4);
        }
        if size == Size::Warmup {
            windows = (windows / 4).max(1);
        }
        match self.paced {
            None => Job::Static(EngineConfig {
                kind: self.kind,
                sources: SOURCES,
                workers: WORKERS,
                keys: self.keys,
                skew: self.skew,
                messages: windows * self.window_size * SOURCES as u64,
                service_time_us: 0,
                queue_capacity: QUEUE,
                seed,
                batch_size: BATCH,
                window_size: self.window_size,
                aggregators: AGGREGATORS,
                ..EngineConfig::laptop(self.kind, self.skew)
            }),
            Some(paced) => {
                let phase = ScenarioPhase::new(windows, self.keys, self.skew, WORKERS)
                    .with_arrival(Arrival::Bursty {
                        burst_tuples: paced.burst_tuples,
                        pause_us: paced.pause_us,
                    });
                let scenario =
                    Scenario::single_phase(self.name, SOURCES, self.window_size, seed, phase);
                Job::Scenario(
                    ScenarioConfig::new(self.kind, scenario)
                        .with_service_time_us(paced.service_us)
                        .with_queue_capacity(QUEUE)
                        .with_batch_size(BATCH)
                        .with_aggregators(AGGREGATORS),
                )
            }
        }
    }

    /// Configured worker busy time per tuple, nanoseconds.
    pub fn service_ns(&self) -> f64 {
        self.paced.map_or(0.0, |p| p.service_us as f64 * 1e3)
    }

    /// The pause schedule's ideal duration of one repetition of `tuples`
    /// per source, seconds; `None` when the workload is unpaced.
    pub fn paced_ideal_secs(&self, tuples_per_source: u64) -> Option<f64> {
        self.paced
            .map(|p| (tuples_per_source / p.burst_tuples) as f64 * p.pause_us as f64 / 1e6)
    }
}

impl Job {
    /// Tuples the sources emit in total.
    pub fn tuples(&self) -> u64 {
        match self {
            Job::Static(cfg) => cfg.messages / cfg.sources as u64 * cfg.sources as u64,
            Job::Scenario(cfg) => cfg.scenario.total_tuples(),
        }
    }

    pub fn kind(&self) -> PartitionerKind {
        match self {
            Job::Static(cfg) => cfg.kind,
            Job::Scenario(cfg) => cfg.kind,
        }
    }

    pub fn seed(&self) -> u64 {
        match self {
            Job::Static(cfg) => cfg.seed,
            Job::Scenario(cfg) => cfg.scenario.seed,
        }
    }

    pub fn window_size(&self) -> u64 {
        match self {
            Job::Static(cfg) => cfg.window_size,
            Job::Scenario(cfg) => cfg.scenario.window_size,
        }
    }

    /// One source's key stream, exactly as the engine's source builds it.
    pub fn source_stream(&self, source: usize) -> Box<dyn slb_workloads::KeyStream> {
        match self {
            Job::Static(cfg) => Box::new(slb_engine::windows::source_stream(cfg, source)),
            Job::Scenario(cfg) => Box::new(cfg.scenario.phase_stream(0, source)),
        }
    }

    /// Runs the job through the engine's public entry point.
    pub fn run(&self, backend: Backend) -> WindowedRun<HashMap<KeyId, u64>> {
        match (self, backend) {
            (Job::Static(cfg), Backend::Spsc) => {
                Topology::new(cfg.clone()).run_windowed_on(CountAggregate, &Spsc)
            }
            (Job::Static(cfg), Backend::Tcp) => Topology::new(cfg.clone())
                .run_windowed_on(CountAggregate, &TcpTransport::loopback()),
            (Job::Scenario(cfg), Backend::Spsc) => cfg.run_windowed_on(CountAggregate, &Spsc),
            (Job::Scenario(cfg), Backend::Tcp) => {
                cfg.run_windowed_on(CountAggregate, &TcpTransport::loopback())
            }
        }
    }

    /// The single-threaded exact reference the output must equal.
    pub fn reference(&self) -> Windows {
        match self {
            Job::Static(cfg) => exact_windowed_counts(cfg),
            Job::Scenario(cfg) => exact_scenario_windowed_counts(&cfg.scenario),
        }
    }
}
