//! The source → worker → aggregator topology and its phased runner.
//!
//! A [`Topology`] mirrors the paper's Storm application, now with all three
//! operators: a set of source threads generates a keyed stream and routes
//! every tuple through the grouping scheme under study; a set of worker
//! threads consumes the tuples from bounded input queues, performs a fixed
//! amount of CPU work per tuple (the first aggregation phase), and
//! accumulates per-key *partial* window state; a set of aggregator threads —
//! sharded by key hash — merges the workers' partials into the final
//! per-window result. Sources block when a worker's queue is full, which is
//! exactly the back-pressure behaviour that makes the most loaded worker the
//! throughput bottleneck; the aggregator stage is the reason key splitting
//! (PKG, D-Choices, W-Choices) is *sound*: it re-unifies the per-key state
//! the splitting scattered across workers.
//!
//! ## Pluggable transport
//!
//! The run loop is generic over a [`Transport`], the factory of the
//! channels tuples and partials travel through (see [`crate::transport`]).
//! The default is [`InProc`] — bounded crossbeam channels, the engine's
//! original plumbing — and `slb-net` provides a TCP backend that carries the
//! same hops over loopback sockets and across process boundaries. Each stage
//! of the topology is exposed as a standalone function
//! ([`run_source_stage`], [`run_worker_stage`], [`run_aggregator_stage`]) so
//! a multi-process deployment can run exactly the code this in-process
//! runner threads together; [`assemble_result`] merges the stages' reports
//! into an [`EngineResult`] on either side.
//!
//! ## Phased execution
//!
//! The run loop is phased: internally every run is a sequence of *phases*,
//! each fixing the key distribution, arrival pattern, active worker count,
//! and per-worker service-time multipliers. A plain [`EngineConfig`] run is
//! the one-phase special case; a [`ScenarioConfig`] run executes a
//! [`Scenario`] with as many phases as the spec declares. At each phase
//! boundary every source regenerates its partitioner for the phase's worker
//! count ([`slb_core::Partitioner::rescale`]) and switches to the phase's
//! key stream. Worker threads are spawned for the *maximum* worker count up
//! front; phases activate a prefix of them, and inactive workers merely
//! relay window punctuation, so the aggregation invariant ("every worker
//! contributes one partial per window") is preserved across scale-out and
//! scale-in. Phases are aligned to window boundaries by construction (see
//! `slb-workloads::scenario`), so no window ever mixes two routing regimes.
//!
//! ## Batched transport
//!
//! Tuples move through the channels in [`EngineConfig::batch_size`]-sized
//! chunks, not one at a time. Sources route a buffer of keys with one
//! `route_batch` call, append each key to its destination worker's pending
//! batch, and ship the batch when it fills; each batch carries a single
//! emit timestamp, taken when its first tuple was buffered so that recorded
//! latency includes batch-fill wait. Workers drain whole runs of batches
//! under one lock acquisition via the channel's `recv_batch` path and
//! record one latency value per batch (latency is therefore quantized to
//! batch granularity, and conservatively so — per-tuple wait is never
//! understated).
//! Routing decisions are bit-for-bit identical to the tuple-at-a-time path
//! (see the `batch_equivalence` property tests in `slb-core`), so the
//! grouping-scheme comparison is unchanged while the per-tuple transport
//! cost (two Mutex+Condvar round-trips and two `Instant::now()` calls per
//! tuple) drops by roughly the batch size.
//!
//! ## Windows and punctuation
//!
//! Tuples are windowed by count per source sub-stream (see
//! [`crate::windows`]): the tuple at source position `i` belongs to window
//! `i / window_size`. A source never lets a transported batch span a window
//! boundary; when it finishes a window it flushes its in-flight batches and
//! broadcasts a close marker for that window to every worker. A worker that
//! has collected the marker from all sources finalizes its partial for the
//! window, splits it by key hash into one slice per aggregator shard
//! ([`WindowAggregate::shard`]), and ships the slices downstream — also in
//! batches, with one timestamp per partial, so the hot path stays
//! allocation-free. Aggregators merge slices as they arrive and declare a
//! window final once every worker has contributed, counting merges and
//! recording close→merge latency as the second stage's metrics.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use slb_core::{
    build_partitioner, merge_ascending, CheckpointView, ControllerAction, ControllerConfig,
    ControllerEvent, ControllerMetrics, CountAggregate, ElasticityController, FixedHashSet,
    OpenWindowView, PartitionConfig, Partitioner, PartitionerKind, PerWindowLoads, PhaseLoadMatrix,
    SolverMode, WindowAggregate, WirePartial, WorkerCheckpoint,
};
use slb_telemetry::{
    sort_canonical, trace_kind, trace_stage, HopStats, HopTelemetry, LogHistogram, TraceBuf,
    TraceEvent,
};
use slb_workloads::{Arrival, KeyId, KeyStream, Scenario};

use crate::fault::{CheckpointRecord, CheckpointStore, ConnectionDrop, FaultPlan};
use crate::latency::{LatencySummary, LatencyTracker, PhaseMetrics, RecoveryMetrics, StageMetrics};
use crate::transport::{
    capacity_in_batches, feedback_channel_capacity, partial_channel_capacity, FeedbackReceiver,
    FeedbackSender, InProc, PartialReceiver, PartialSender, PartialWindow, RecvError,
    ReplayRequest, SourceMessage, StageRole, Transport, TupleBatch, TupleReceiver, TupleSender,
};
use crate::windows::{window_of, WindowId, WindowedRun};

/// Window-boundary snapshots a source keeps for bounded replay. A
/// recovering worker's checkpoint cursor lags the source's emission frontier
/// by at most the worker queue's depth, which a handful of window-boundary
/// snapshots comfortably covers; requests older than the ring fall back to
/// the origin snapshot (replay from the beginning of the stream).
const REPLAY_SNAPSHOT_RING: usize = 8;

/// Configuration of one single-phase engine run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Grouping scheme under study.
    pub kind: PartitionerKind,
    /// Number of source threads (the paper uses 48).
    pub sources: usize,
    /// Number of worker threads (the paper uses 80).
    pub workers: usize,
    /// Number of distinct keys in the synthetic workload (paper: 10⁴).
    pub keys: usize,
    /// Zipf exponent of the workload (paper: 1.4, 1.7, 2.0).
    pub skew: f64,
    /// Total number of messages across all sources (paper: 2×10⁶).
    pub messages: u64,
    /// Emulated CPU time per tuple at the worker, in microseconds
    /// (the paper uses 1000 µs = 1 ms; the default here is smaller so the
    /// full figure suite runs in minutes).
    pub service_time_us: u64,
    /// Capacity of each worker's input queue, in tuples. Every transport
    /// backend derives its buffering from this one knob (see
    /// [`capacity_in_batches`]).
    pub queue_capacity: usize,
    /// Seed for the workload and the hash functions.
    pub seed: u64,
    /// Number of tuples carried per channel message. Batch 1 reproduces the
    /// original tuple-at-a-time transport; the default of 256 amortizes the
    /// channel synchronization and timestamping cost across the batch.
    /// Clamped to `queue_capacity` when resolving the plan so a small
    /// queue bound is honored (a batch larger than the queue could never
    /// be accepted by the bounded channel).
    pub batch_size: usize,
    /// Tuples per window in each source sub-stream (window boundaries are
    /// deterministic: tuple `i` of a source belongs to window
    /// `i / window_size`).
    pub window_size: u64,
    /// Number of aggregator threads; the key space is sharded across them
    /// by key hash so the merge stage scales past one thread.
    pub aggregators: usize,
    /// How head-aware schemes choose `d` (see [`SolverMode`]); `Fixed(d)`
    /// gives the static-`d` baselines the elasticity controller is measured
    /// against. Forced to `External` when a controller is attached.
    pub solver: SolverMode,
    /// Optional elasticity controller stepped at every window boundary
    /// (see [`ControllerConfig`] and docs/ELASTICITY.md). When set, the
    /// controller owns the active worker count within
    /// `[min_workers, max_workers]` and `workers` is only the starting
    /// point; workers are spawned up to `max_workers`.
    pub controller: Option<ControllerConfig>,
}

/// Default number of tuples per transported batch.
pub const DEFAULT_BATCH_SIZE: usize = 256;

/// Default number of tuples per window in each source sub-stream.
pub const DEFAULT_WINDOW_SIZE: u64 = 4_096;

/// Default number of aggregator shards.
pub const DEFAULT_AGGREGATORS: usize = 2;

/// Default capacity of each worker's input queue, in tuples.
pub const DEFAULT_QUEUE_CAPACITY: usize = 1_024;

impl EngineConfig {
    /// A laptop-friendly configuration for the given scheme and skew:
    /// 4 sources, 8 workers, 10⁴ keys, 200k messages, 50 µs service time.
    pub fn laptop(kind: PartitionerKind, skew: f64) -> Self {
        Self {
            kind,
            sources: 4,
            workers: 8,
            keys: 10_000,
            skew,
            messages: 200_000,
            service_time_us: 50,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            seed: 42,
            batch_size: DEFAULT_BATCH_SIZE,
            window_size: DEFAULT_WINDOW_SIZE,
            aggregators: DEFAULT_AGGREGATORS,
            solver: SolverMode::Online,
            controller: None,
        }
    }

    /// The paper's full-scale parameters (Figures 13–14): 48 sources,
    /// 80 workers, 10⁴ keys, 2×10⁶ messages, 1 ms of work per tuple.
    pub fn paper(kind: PartitionerKind, skew: f64) -> Self {
        Self {
            kind,
            sources: 48,
            workers: 80,
            keys: 10_000,
            skew,
            messages: 2_000_000,
            service_time_us: 1_000,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            seed: 42,
            batch_size: DEFAULT_BATCH_SIZE,
            window_size: 16_384,
            aggregators: 4,
            solver: SolverMode::Online,
            controller: None,
        }
    }

    /// A tiny smoke-test configuration (a couple of seconds). The service
    /// time is chosen so that the workers — not the sources — are the
    /// bottleneck, as in the paper's saturated-cluster setup; otherwise the
    /// grouping scheme would have no effect on throughput or latency.
    pub fn smoke(kind: PartitionerKind, skew: f64) -> Self {
        Self {
            kind,
            sources: 2,
            workers: 4,
            keys: 1_000,
            skew,
            messages: 20_000,
            service_time_us: 25,
            queue_capacity: 128,
            seed: 42,
            batch_size: DEFAULT_BATCH_SIZE,
            window_size: 2_048,
            aggregators: DEFAULT_AGGREGATORS,
            solver: SolverMode::Online,
            controller: None,
        }
    }

    /// Overrides the number of messages.
    pub fn with_messages(mut self, messages: u64) -> Self {
        self.messages = messages;
        self
    }

    /// Overrides the per-tuple service time (microseconds).
    pub fn with_service_time_us(mut self, us: u64) -> Self {
        self.service_time_us = us;
        self
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the transport batch size (tuples per channel message).
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Overrides the per-worker queue capacity (tuples).
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Overrides the window size (tuples per window per source sub-stream).
    pub fn with_window_size(mut self, window_size: u64) -> Self {
        self.window_size = window_size;
        self
    }

    /// Overrides the number of aggregator shards.
    pub fn with_aggregators(mut self, aggregators: usize) -> Self {
        self.aggregators = aggregators;
        self
    }

    /// Overrides the solver mode of head-aware schemes; `Fixed(d)` is the
    /// static-`d` baseline the controller is compared against.
    pub fn with_solver(mut self, solver: SolverMode) -> Self {
        self.solver = solver;
        self
    }

    /// Pins head-aware schemes to a constant `d` (sugar for
    /// [`Self::with_solver`] with [`SolverMode::Fixed`]).
    pub fn with_fixed_d(self, d: usize) -> Self {
        self.with_solver(SolverMode::Fixed(d))
    }

    /// Attaches an elasticity controller: it is stepped at every window
    /// boundary of every source and owns the active worker count for the
    /// whole run (workers are spawned up to `controller.max_workers`). The
    /// solver mode becomes [`SolverMode::External`] so the controller is
    /// the single adaptation authority.
    pub fn with_controller(mut self, controller: ControllerConfig) -> Self {
        controller.validate();
        self.controller = Some(controller);
        self
    }

    /// Asserts the structural invariants every run entry point relies on.
    ///
    /// # Panics
    /// Panics if any structural parameter is zero.
    pub fn validate(&self) {
        assert!(self.sources > 0, "need at least one source");
        assert!(self.workers > 0, "need at least one worker");
        assert!(self.keys > 0, "need at least one key");
        assert!(self.queue_capacity > 0, "queues need capacity");
        assert!(self.batch_size > 0, "batches need at least one tuple");
        assert!(self.window_size > 0, "windows need at least one tuple");
        assert!(self.aggregators > 0, "need at least one aggregator");
        if let Some(controller) = &self.controller {
            controller.validate();
        }
    }

    /// Resolves this configuration into the one-phase [`StagePlan`] every
    /// execution backend (threads or processes) runs.
    ///
    /// # Panics
    /// Panics if [`Self::validate`] does.
    pub fn stage_plan(&self) -> StagePlan {
        self.validate();
        let batch_size = effective_batch_size(self.batch_size, self.queue_capacity);
        let per_source = self.messages / self.sources as u64;
        // With a controller attached the spawned universe must cover every
        // worker the controller may ever activate.
        let spawned = match &self.controller {
            Some(c) => self.workers.max(c.max_workers),
            None => self.workers,
        };
        let phase = PhasePlan {
            tuples_per_source: per_source,
            start_window: 0,
            // 0 for a degenerate messages < sources config, matching the
            // run's actual (empty) window set.
            windows: per_source.div_ceil(self.window_size),
            workers: self.workers,
            service: Arc::new(vec![Duration::from_micros(self.service_time_us); spawned]),
            arrival: Arrival::Steady,
        };
        StagePlan {
            kind: self.kind,
            seed: self.seed,
            skew: self.skew,
            sources: self.sources,
            spawned_workers: spawned,
            window_size: self.window_size,
            batch_size,
            queue_capacity: self.queue_capacity,
            aggregators: self.aggregators,
            phase_starts: Arc::new(vec![0]),
            phases: Arc::new(vec![phase]),
            faults: Arc::new(FaultPlan::none()),
            checkpointing: true,
            telemetry: true,
            solver: resolved_solver(self.solver, self.controller.as_ref()),
            controller: self.controller.clone(),
        }
    }
}

/// The solver mode a plan's partitioners actually run with: `External`
/// whenever a controller is attached (it is the single adaptation
/// authority), the configured mode otherwise.
fn resolved_solver(solver: SolverMode, controller: Option<&ControllerConfig>) -> SolverMode {
    if controller.is_some() {
        SolverMode::External
    } else {
        solver
    }
}

/// Configuration of a multi-phase scenario run: the [`Scenario`] supplies
/// the workload, phase lengths, worker counts, and speed multipliers; this
/// struct adds the engine-side knobs (base service time, transport, shards).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Grouping scheme under study.
    pub kind: PartitionerKind,
    /// The multi-phase workload and cluster description.
    pub scenario: Scenario,
    /// Base emulated CPU time per tuple, microseconds; each phase's
    /// per-worker multipliers scale it ([`slb_workloads::ScenarioPhase::worker_speed`]).
    pub service_time_us: u64,
    /// Capacity of each worker's input queue, in tuples.
    pub queue_capacity: usize,
    /// Tuples per transported channel message (clamped to `queue_capacity`
    /// when resolving the plan, like [`EngineConfig::batch_size`]).
    pub batch_size: usize,
    /// Number of aggregator shards.
    pub aggregators: usize,
    /// How head-aware schemes choose `d` (see [`SolverMode`]). Forced to
    /// `External` when a controller is attached.
    pub solver: SolverMode,
    /// Optional elasticity controller (see [`EngineConfig::controller`]).
    /// When set, the scenario phases' worker counts are advisory — the
    /// first phase seeds the controller's starting point and the controller
    /// owns the active count from there.
    pub controller: Option<ControllerConfig>,
}

impl ScenarioConfig {
    /// Creates a scenario run configuration with default engine knobs and
    /// zero base service time (pure routing/transport; set a service time to
    /// study saturation behaviour).
    pub fn new(kind: PartitionerKind, scenario: Scenario) -> Self {
        Self {
            kind,
            scenario,
            service_time_us: 0,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            batch_size: DEFAULT_BATCH_SIZE,
            aggregators: DEFAULT_AGGREGATORS,
            solver: SolverMode::Online,
            controller: None,
        }
    }

    /// Overrides the grouping scheme.
    pub fn with_kind(mut self, kind: PartitionerKind) -> Self {
        self.kind = kind;
        self
    }

    /// Overrides the base per-tuple service time (microseconds).
    pub fn with_service_time_us(mut self, us: u64) -> Self {
        self.service_time_us = us;
        self
    }

    /// Overrides the per-worker queue capacity (tuples).
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Overrides the transport batch size.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Overrides the number of aggregator shards.
    pub fn with_aggregators(mut self, aggregators: usize) -> Self {
        self.aggregators = aggregators;
        self
    }

    /// Overrides the solver mode of head-aware schemes; `Fixed(d)` is the
    /// static-`d` baseline the controller is compared against.
    pub fn with_solver(mut self, solver: SolverMode) -> Self {
        self.solver = solver;
        self
    }

    /// Pins head-aware schemes to a constant `d` (sugar for
    /// [`Self::with_solver`] with [`SolverMode::Fixed`]).
    pub fn with_fixed_d(self, d: usize) -> Self {
        self.with_solver(SolverMode::Fixed(d))
    }

    /// Attaches an elasticity controller (see
    /// [`EngineConfig::with_controller`]).
    pub fn with_controller(mut self, controller: ControllerConfig) -> Self {
        controller.validate();
        self.controller = Some(controller);
        self
    }

    /// Resolves this configuration into the multi-phase [`StagePlan`] every
    /// execution backend runs.
    ///
    /// # Panics
    /// Panics if the scenario or the engine knobs are invalid.
    pub fn stage_plan(&self) -> StagePlan {
        if let Err(message) = self.scenario.validate() {
            panic!("invalid scenario: {message}");
        }
        assert!(self.queue_capacity > 0, "queues need capacity");
        assert!(self.batch_size > 0, "batches need at least one tuple");
        assert!(self.aggregators > 0, "need at least one aggregator");
        let batch_size = effective_batch_size(self.batch_size, self.queue_capacity);
        let scenario = &self.scenario;
        let base_us = self.service_time_us;
        let spawned = match &self.controller {
            Some(c) => scenario.max_workers().max(c.max_workers),
            None => scenario.max_workers(),
        };
        let phases: Vec<PhasePlan> = scenario
            .phases
            .iter()
            .enumerate()
            .map(|(p, phase)| PhasePlan {
                tuples_per_source: scenario.phase_tuples_per_source(p),
                start_window: scenario.phase_start_window(p),
                windows: phase.windows,
                workers: phase.workers,
                service: Arc::new(
                    (0..spawned)
                        .map(|w| Duration::from_secs_f64(base_us as f64 * phase.speed_of(w) / 1e6))
                        .collect(),
                ),
                arrival: phase.arrival,
            })
            .collect();
        StagePlan {
            kind: self.kind,
            seed: scenario.seed,
            skew: scenario.phases[0].skew,
            sources: scenario.sources,
            spawned_workers: spawned,
            window_size: scenario.window_size,
            batch_size,
            queue_capacity: self.queue_capacity,
            aggregators: self.aggregators,
            phase_starts: Arc::new(phases.iter().map(|p| p.start_window).collect()),
            phases: Arc::new(phases),
            faults: Arc::new(FaultPlan::none()),
            checkpointing: true,
            telemetry: true,
            solver: resolved_solver(self.solver, self.controller.as_ref()),
            controller: self.controller.clone(),
        }
    }

    /// Runs the scenario with the default windowed count aggregation,
    /// discarding the per-window counts.
    ///
    /// # Panics
    /// Panics if the scenario or the engine knobs are invalid.
    pub fn run(&self) -> EngineResult {
        self.run_windowed(CountAggregate).result
    }

    /// Runs the scenario under the given windowed aggregation on the
    /// in-process transport and returns the measurements together with the
    /// merged per-window aggregates.
    ///
    /// # Panics
    /// Panics if the scenario or the engine knobs are invalid.
    pub fn run_windowed<A>(&self, aggregate: A) -> WindowedRun<A::Partial>
    where
        A: WindowAggregate<KeyId>,
        A::Partial: WirePartial,
    {
        self.run_windowed_on(aggregate, &InProc)
    }

    /// Runs the scenario under the given windowed aggregation over the given
    /// [`Transport`] backend.
    ///
    /// # Panics
    /// Panics if the scenario or the engine knobs are invalid.
    pub fn run_windowed_on<A, T>(&self, aggregate: A, transport: &T) -> WindowedRun<A::Partial>
    where
        A: WindowAggregate<KeyId>,
        A::Partial: WirePartial,
        T: Transport<A::Partial>,
    {
        self.run_windowed_faulted_on(aggregate, transport, &FaultPlan::none())
    }

    /// Runs the scenario with the given [`FaultPlan`] injected: workers
    /// crash and connections lose messages at the plan's deterministic
    /// offsets, and the checkpoint/replay recovery protocol restores the
    /// run. The merged windowed aggregates must come out identical to a
    /// fault-free run (the `fault_injection` suite pins this).
    ///
    /// # Panics
    /// Panics if the scenario, the engine knobs, or the fault plan are
    /// invalid.
    pub fn run_windowed_faulted_on<A, T>(
        &self,
        aggregate: A,
        transport: &T,
        faults: &FaultPlan,
    ) -> WindowedRun<A::Partial>
    where
        A: WindowAggregate<KeyId>,
        A::Partial: WirePartial,
        T: Transport<A::Partial>,
    {
        let mut plan = self.stage_plan();
        if let Err(message) = faults.validate(plan.sources, plan.spawned_workers) {
            panic!("invalid fault plan: {message}");
        }
        plan.faults = Arc::new(faults.clone());
        let scenario = self.scenario.clone();
        let streams =
            Arc::new(move |phase: usize, source: usize| scenario.phase_stream(phase, source));
        run_plan(&plan, streams, aggregate, transport)
    }
}

/// Outcome of one engine run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineResult {
    /// Scheme symbol.
    pub scheme: String,
    /// Zipf exponent of the workload (first phase's, for scenario runs).
    pub skew: f64,
    /// Messages processed (across all workers).
    pub processed: u64,
    /// Wall-clock duration of the run in seconds.
    pub elapsed_secs: f64,
    /// Throughput in events per second.
    pub throughput_eps: f64,
    /// End-to-end latency summary (source emit → worker completion).
    pub latency: LatencySummary,
    /// Per-worker processed-message counts over the spawned worker universe
    /// (for imbalance auditing).
    pub worker_counts: Vec<u64>,
    /// Per-worker number of distinct keys held in state (memory footprint).
    pub worker_state_keys: Vec<u64>,
    /// Imbalance of the processed counts over the spawned universe. For
    /// multi-phase runs with worker-count changes, prefer the per-phase
    /// imbalance in [`Self::phases`], which is evaluated over each phase's
    /// active worker set.
    pub imbalance: f64,
    /// Tuples per window per source sub-stream in this run.
    pub window_size: u64,
    /// Number of aggregator shards in this run.
    pub aggregators: usize,
    /// Number of windows finalized by the aggregator stage.
    pub windows: u64,
    /// Per-phase measurements; exactly one entry for plain
    /// [`EngineConfig`] runs.
    pub phases: Vec<PhaseMetrics>,
    /// Worker-stage metrics: tuples through the workers' queues (same data
    /// as `processed`/`throughput_eps`/`latency`, packaged per stage).
    pub worker_stage: StageMetrics,
    /// Aggregator-stage metrics: partial-window messages merged, and the
    /// worker-close → aggregator-merge latency distribution.
    pub aggregator_stage: StageMetrics,
    /// Elasticity-controller decisions, merged across sources and sorted by
    /// `(source, window)`; `enabled == false` (and no events) when no
    /// controller was attached.
    pub controller: ControllerMetrics,
    /// The run's merged logical trace, in the canonical
    /// `(stage, instance, seq)` order (see [`sort_canonical`]): every
    /// window close, checkpoint save/restore, replay, rescale, and
    /// controller decision across all stage instances. Empty when the plan
    /// disables telemetry. Deterministic for a fixed config and seed —
    /// bit-identical across transport backends, reruns, and batch sizes on
    /// fault-free runs (docs/OBSERVABILITY.md states the argument).
    pub trace: Vec<TraceEvent>,
    /// Per-hop transport counters, merged across the instances of each
    /// stage. Wall-clock shaped (stall/wait times, high-water marks), so —
    /// unlike [`Self::trace`] — NOT deterministic across runs.
    pub transport: TransportStats,
    /// The telemetry-layer view of [`Self::latency`]: the merged end-to-end
    /// latency histogram across every worker's trackers — the exact
    /// distribution a remote node's `MetricsSnapshot` carries, so quantiles
    /// derived from it are what a live cluster dashboard would show
    /// (under-reporting the exact percentiles by < 6.25%;
    /// `expt_observability` measures this against [`Self::latency`]).
    pub latency_histogram: LogHistogram,
}

impl EngineResult {
    /// Total distinct `(key, worker)` state replicas across workers.
    pub fn total_state_replicas(&self) -> u64 {
        self.worker_state_keys.iter().sum()
    }
}

/// The run's transport counters, one [`HopStats`] per stage: what each
/// stage saw on its own send/receive seams (source→worker sends, worker
/// receive + worker→aggregator sends, aggregator receives).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TransportStats {
    /// Merged over all source instances (send side of source→worker).
    pub source: HopStats,
    /// Merged over all workers (receive side of source→worker plus send
    /// side of worker→aggregator).
    pub worker: HopStats,
    /// Merged over all aggregator shards (receive side of
    /// worker→aggregator).
    pub aggregator: HopStats,
}

/// One phase of a run plan, fully resolved for execution.
#[derive(Debug, Clone)]
pub struct PhasePlan {
    /// Tuples each source emits during the phase.
    pub tuples_per_source: u64,
    /// Global index of the phase's first window.
    pub start_window: WindowId,
    /// Windows the phase covers per source.
    pub windows: u64,
    /// Active workers during the phase.
    pub workers: usize,
    /// Resolved per-worker service time (base × multiplier), indexed over
    /// the spawned worker universe.
    pub service: Arc<Vec<Duration>>,
    /// Arrival pacing within the phase.
    pub arrival: Arrival,
}

/// The fully resolved execution plan shared by every stage of a run — the
/// pure-data part (the key streams travel separately, as a factory, so the
/// per-tuple hot path stays monomorphized over each caller's concrete
/// stream type; a boxed `dyn KeyStream` costs a measurable ~10% of
/// zero-service throughput).
///
/// A `StagePlan` is cheap to clone (the phase tables are shared `Arc`s) and
/// is a pure function of the originating [`EngineConfig`] or
/// [`ScenarioConfig`], so every process of a distributed run can resolve the
/// same plan locally from the same config.
#[derive(Debug, Clone)]
pub struct StagePlan {
    /// Grouping scheme under study.
    pub kind: PartitionerKind,
    /// Seed for the workload and the hash functions.
    pub seed: u64,
    /// Zipf exponent reported in the result (first phase's, for scenarios).
    pub skew: f64,
    /// Number of sources.
    pub sources: usize,
    /// Workers spawned up front (phases activate a prefix).
    pub spawned_workers: usize,
    /// Tuples per window per source sub-stream.
    pub window_size: u64,
    /// Tuples per transported channel message.
    pub batch_size: usize,
    /// Capacity of each worker's input queue, in tuples.
    pub queue_capacity: usize,
    /// Number of aggregator shards.
    pub aggregators: usize,
    /// Start-window table, indexed by phase (for window → phase lookup).
    pub phase_starts: Arc<Vec<WindowId>>,
    /// One resolved plan per phase.
    pub phases: Arc<Vec<PhasePlan>>,
    /// Deterministic fault schedule for the run (empty for plain runs).
    /// Never serialized: fault plans travel beside a config, not inside it,
    /// so the wire `RunSpec` of a distributed run stays unchanged.
    pub faults: Arc<FaultPlan>,
    /// Whether workers persist a checkpoint at every window finalization.
    /// Always `true` for every public run entry point — recovery depends on
    /// it — and only disabled by the perf smoke's A/B measurement of the
    /// checkpoint path's cost ([`Topology::run_windowed_without_checkpoints`]).
    pub checkpointing: bool,
    /// Whether the stages collect telemetry: per-hop transport counters
    /// ([`HopStats`] in the reports) and the logical trace stream. Always
    /// `true` for every public run entry point — telemetry is designed to
    /// be cheap enough to leave on — and only disabled by the perf smoke's
    /// A/B measurement of its cost
    /// ([`Topology::run_windowed_without_telemetry`]).
    pub telemetry: bool,
    /// Solver mode every source passes into its partitioner's
    /// [`PartitionConfig`]; `External` whenever `controller` is set.
    pub solver: SolverMode,
    /// Elasticity controller stepped by every source at its window
    /// boundaries; `None` runs exactly the pre-controller engine.
    pub controller: Option<ControllerConfig>,
}

impl StagePlan {
    /// Total windows every worker must finalize over the whole run.
    pub fn total_windows(&self) -> u64 {
        self.phases.iter().map(|p| p.windows).sum()
    }
}

/// The batch size a plan actually runs with: the configured size clamped to
/// the configured queue capacity. [`capacity_in_batches`] floors at two
/// batches so senders can double-buffer, which means a batch larger than the
/// queue would silently buffer `2 × batch_size` tuples — up to 64× a small
/// requested bound. Clamping the batch instead keeps worst-case buffering at
/// `2 × queue_capacity` while leaving every configuration with
/// `batch_size <= queue_capacity` (including all defaults) bit-for-bit
/// unchanged.
fn effective_batch_size(batch_size: usize, queue_capacity: usize) -> usize {
    batch_size.min(queue_capacity)
}

/// The send side of one source: per-worker sequence counters, the
/// connection-drop schedule, and the sent-tuple count. Every message to a
/// worker — batch or close marker — consumes the next sequence number on
/// that (source, worker) connection, *including* messages a
/// [`ConnectionDrop`] fault then discards: the receiver observes the gap
/// and recovers by requesting replay.
struct SourceSendState<'a, Tx: TupleSender> {
    senders: &'a [Tx],
    source: usize,
    next_seq: Vec<u64>,
    /// `(drop spec, batches lost so far)`; close markers are never dropped,
    /// so a window's close always survives and gap detection precedes
    /// finalization.
    drops: Vec<(ConnectionDrop, u64)>,
    sent: u64,
    /// Workers the supervisor excluded after an exhausted respawn budget.
    /// Their sequence cursors still advance — the cursor space stays
    /// uniform for snapshots and replay — but no frame is handed to the
    /// dead endpoint's sender.
    excluded: Vec<bool>,
    /// Per-hop transport telemetry, updated once per sent message (never
    /// per tuple); `None` when the plan disabled telemetry.
    hop: Option<&'a HopTelemetry>,
}

impl<'a, Tx: TupleSender> SourceSendState<'a, Tx> {
    fn new(
        senders: &'a [Tx],
        source: usize,
        faults: &FaultPlan,
        hop: Option<&'a HopTelemetry>,
    ) -> Self {
        Self {
            senders,
            source,
            next_seq: vec![0; senders.len()],
            drops: faults
                .drops_from(source)
                .into_iter()
                .map(|d| (d, 0))
                .collect(),
            sent: 0,
            excluded: vec![false; senders.len()],
            hop,
        }
    }

    /// True when the drop schedule says to lose the batch numbered `seq` on
    /// the connection to `worker` (and charges it against the schedule).
    fn loses(&mut self, worker: usize, seq: u64) -> bool {
        for (spec, lost) in self.drops.iter_mut() {
            if spec.worker == worker && *lost < spec.lose && seq >= spec.after_messages {
                *lost += 1;
                return true;
            }
        }
        false
    }

    fn send_batch(
        &mut self,
        worker: usize,
        keys: Vec<KeyId>,
        window: WindowId,
        emitted_at: Instant,
    ) {
        // `sent` counts at routing time even when the fault schedule then
        // discards the frame: replay re-sends are never counted, so the
        // run-level `sent == processed` invariant survives fault injection.
        self.sent += keys.len() as u64;
        let seq = self.next_seq[worker];
        self.next_seq[worker] += 1;
        if self.loses(worker, seq) || self.excluded[worker] {
            return;
        }
        // Telemetry rides the per-batch path only: a handful of Relaxed
        // counter bumps and one occupancy sample per shipped batch, zero
        // work per tuple.
        let timed = self.hop.map(|h| {
            h.batches_sent.add(1);
            h.tuples_sent.add(keys.len() as u64);
            h.batch_occupancy.record(keys.len() as u64);
            if let Some((occupied, capacity)) = self.senders[worker].queue_depth_hint() {
                h.ring_occupancy_hwm.record(occupied as u64);
                h.ring_capacity.set(capacity as u64);
            }
            (h, Instant::now())
        });
        self.senders[worker]
            .send(SourceMessage::Batch(TupleBatch {
                keys,
                window,
                source: self.source,
                seq,
                emitted_at,
            }))
            .expect("worker queue closed prematurely");
        if let Some((h, before)) = timed {
            h.send_stall_us.add(before.elapsed().as_micros() as u64);
        }
    }

    fn send_close(&mut self, worker: usize, window: WindowId) {
        let seq = self.next_seq[worker];
        self.next_seq[worker] += 1;
        if self.excluded[worker] {
            return;
        }
        let timed = self.hop.map(|h| (h, Instant::now()));
        self.senders[worker]
            .send(SourceMessage::CloseWindow {
                window,
                source: self.source,
                seq,
            })
            .expect("worker queue closed prematurely");
        if let Some((h, before)) = timed {
            h.send_stall_us.add(before.elapsed().as_micros() as u64);
        }
    }

    fn broadcast_close(&mut self, window: WindowId) {
        for worker in 0..self.senders.len() {
            self.send_close(worker, window);
        }
    }

    /// A buffer for the next batch to `worker`: a spent one off the
    /// transport's recycling return path when available (cleared, capacity
    /// intact), else a fresh allocation. On backends with a return path
    /// (the SPSC transport) this makes the steady-state source loop
    /// allocation-free — the same buffers shuttle source → worker → source
    /// for the whole run.
    fn batch_buf(&self, worker: usize, batch_size: usize) -> Vec<KeyId> {
        match self.senders[worker].take_recycled() {
            Some(mut keys) => {
                keys.clear();
                keys
            }
            None => Vec::with_capacity(batch_size),
        }
    }
}

/// Ships every non-empty pending batch for the given window downstream.
fn flush_pending<Tx: TupleSender>(
    state: &mut SourceSendState<'_, Tx>,
    pending: &mut [Vec<KeyId>],
    pending_since: &[Instant],
    window: WindowId,
    batch_size: usize,
) {
    for worker in 0..pending.len() {
        if pending[worker].is_empty() {
            continue;
        }
        let keys = std::mem::replace(&mut pending[worker], state.batch_buf(worker, batch_size));
        state.send_batch(worker, keys, window, pending_since[worker]);
    }
}

/// Everything a source must remember to re-emit its stream from a window
/// boundary: the positioned key stream, the routing state, and the stream
/// and sequence cursors at the boundary. Pending per-worker buffers are
/// always empty at a boundary (the window was just flushed), so they need
/// no snapshotting.
struct SourceSnapshot<S> {
    phase_idx: usize,
    stream: S,
    partitioner: Box<dyn Partitioner<KeyId>>,
    local_idx: u64,
    emitted_in_phase: u64,
    next_seq: Vec<u64>,
    /// Exclusion flags at the boundary, so replay maps routed slots to the
    /// same actual worker indices the live loop used.
    excluded: Vec<bool>,
    /// Controller state at the boundary (post-step, like the partitioner),
    /// so replay re-derives the identical adaptation decisions. The
    /// per-window load buffer is *not* snapshotted: boundaries always leave
    /// it zeroed, so replay starts from a fresh one.
    controller: Option<ElasticityController>,
}

/// What a source stage returns: the sent-tuple count and, when an
/// elasticity controller ran, its drained decision log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SourceStageReport {
    /// Tuples sent (replay re-sends are never counted).
    pub sent: u64,
    /// The controller's decision log, in window order; empty without a
    /// controller.
    pub controller_events: Vec<ControllerEvent>,
    /// The deterministic logical trace of this source (window closes,
    /// rescales, controller decisions, replay serves); empty when the plan
    /// disables telemetry.
    pub trace: Vec<TraceEvent>,
    /// Transport counters for the source→worker hop; all-zero when the plan
    /// disables telemetry.
    pub transport: HopStats,
}

/// The partitioner configuration a source builds/rescales with for
/// `active` routed slots: the plan's seed and solver mode, paper defaults
/// otherwise.
fn partition_config(plan: &StagePlan, active: usize) -> PartitionConfig {
    PartitionConfig::new(active)
        .with_seed(plan.seed)
        .with_solver(plan.solver)
}

/// The actual worker indices a source routes to in a phase: the phase's
/// active prefix minus every supervisor-excluded worker. The partitioner is
/// (re)built for `active.len()` slots and a routed slot `r` addresses
/// `active[r]`; with nothing excluded this is the identity over the phase's
/// workers, so plain runs route bit-identically to earlier versions.
fn active_workers(phase_workers: usize, excluded: &[bool]) -> Vec<usize> {
    (0..phase_workers).filter(|&w| !excluded[w]).collect()
}

/// The phase that `window` belongs to, via the phase start-window table.
#[inline]
fn phase_of(starts: &[WindowId], window: WindowId) -> usize {
    starts.partition_point(|&s| s <= window) - 1
}

/// The runnable topology (one-phase [`EngineConfig`] front-end; see
/// [`ScenarioConfig`] for multi-phase runs).
pub struct Topology {
    config: EngineConfig,
}

impl Topology {
    /// Creates a topology from a configuration.
    ///
    /// # Panics
    /// Panics if any structural parameter is zero
    /// ([`EngineConfig::validate`]).
    pub fn new(config: EngineConfig) -> Self {
        config.validate();
        Self { config }
    }

    /// Runs the topology to completion with the default windowed count
    /// aggregation and returns the measurements (the per-window counts are
    /// computed and then discarded; use [`Self::run_windowed`] to keep them).
    pub fn run(&self) -> EngineResult {
        self.run_windowed(CountAggregate).result
    }

    /// Runs the topology to completion under the given windowed aggregation
    /// on the in-process transport and returns the measurements together
    /// with the final merged per-window aggregates.
    pub fn run_windowed<A>(&self, aggregate: A) -> WindowedRun<A::Partial>
    where
        A: WindowAggregate<KeyId>,
        A::Partial: WirePartial,
    {
        self.run_windowed_on(aggregate, &InProc)
    }

    /// Runs the topology to completion under the given windowed aggregation
    /// over the given [`Transport`] backend.
    pub fn run_windowed_on<A, T>(&self, aggregate: A, transport: &T) -> WindowedRun<A::Partial>
    where
        A: WindowAggregate<KeyId>,
        A::Partial: WirePartial,
        T: Transport<A::Partial>,
    {
        self.run_windowed_faulted_on(aggregate, transport, &FaultPlan::none())
    }

    /// Runs the topology with the given [`FaultPlan`] injected: workers
    /// crash and connections lose messages at the plan's deterministic
    /// offsets, and the checkpoint/replay recovery protocol restores the
    /// run. The merged windowed aggregates must come out identical to a
    /// fault-free run (the `fault_injection` suite pins this).
    ///
    /// # Panics
    /// Panics if the fault plan names a source or worker outside the
    /// topology.
    pub fn run_windowed_faulted_on<A, T>(
        &self,
        aggregate: A,
        transport: &T,
        faults: &FaultPlan,
    ) -> WindowedRun<A::Partial>
    where
        A: WindowAggregate<KeyId>,
        A::Partial: WirePartial,
        T: Transport<A::Partial>,
    {
        let mut plan = self.config.stage_plan();
        if let Err(message) = faults.validate(plan.sources, plan.spawned_workers) {
            panic!("invalid fault plan: {message}");
        }
        plan.faults = Arc::new(faults.clone());
        let cfg = self.config.clone();
        let streams = Arc::new(move |_phase: usize, source: usize| {
            crate::windows::source_stream(&cfg, source)
        });
        run_plan(&plan, streams, aggregate, transport)
    }

    /// Runs the topology with per-window checkpoint persistence disabled —
    /// the *measurement baseline* for the checkpoint path's cost, used by
    /// the CI perf smoke to assert that fault-free runs pay less than a
    /// fixed overhead budget for always-on checkpointing. Results are
    /// bit-identical to [`Self::run_windowed_on`]; only the durable writes
    /// are skipped. No faults can be injected here: recovery depends on the
    /// checkpoints this entry point elides.
    pub fn run_windowed_without_checkpoints<A, T>(
        &self,
        aggregate: A,
        transport: &T,
    ) -> WindowedRun<A::Partial>
    where
        A: WindowAggregate<KeyId>,
        A::Partial: WirePartial,
        T: Transport<A::Partial>,
    {
        let mut plan = self.config.stage_plan();
        plan.checkpointing = false;
        let cfg = self.config.clone();
        let streams = Arc::new(move |_phase: usize, source: usize| {
            crate::windows::source_stream(&cfg, source)
        });
        run_plan(&plan, streams, aggregate, transport)
    }

    /// Runs the topology with telemetry collection disabled — the
    /// *measurement baseline* for the telemetry layer's cost, used by the
    /// CI perf smoke to assert that the per-batch counters and trace pushes
    /// stay within a fixed overhead budget. Results are bit-identical to
    /// [`Self::run_windowed`]; only the counters, histograms, and trace
    /// stream come back empty.
    pub fn run_windowed_without_telemetry<A>(&self, aggregate: A) -> WindowedRun<A::Partial>
    where
        A: WindowAggregate<KeyId>,
        A::Partial: WirePartial,
    {
        let mut plan = self.config.stage_plan();
        plan.telemetry = false;
        let cfg = self.config.clone();
        let streams = Arc::new(move |_phase: usize, source: usize| {
            crate::windows::source_stream(&cfg, source)
        });
        run_plan(&plan, streams, aggregate, &InProc)
    }
}

/// Everything one source contributes to a run, without a recovery channel:
/// generates and routes its sub-stream phase by phase, ships batches and
/// punctuation through `senders` (one per spawned worker), and returns its
/// [`SourceStageReport`] (sent-tuple count plus any controller decisions).
/// See [`run_source_stage_recoverable`] for the feedback-connected variant
/// the in-process runner uses.
///
/// `stream_for_phase(p)` must yield *this source's* key stream for phase
/// `p`; the engine and `slb-node` both construct it from the shared config
/// so every backend emits the identical stream.
///
/// # Panics
/// Panics if a send fails (a worker endpoint disappeared mid-run), or if
/// the plan schedules connection drops for this source (loss cannot be
/// recovered without a feedback channel).
pub fn run_source_stage<S, Tx>(
    plan: &StagePlan,
    source_idx: usize,
    stream_for_phase: impl FnMut(usize) -> S,
    senders: &[Tx],
) -> SourceStageReport
where
    S: KeyStream + Clone,
    Tx: TupleSender,
{
    run_source_stage_recoverable(
        plan,
        source_idx,
        stream_for_phase,
        senders,
        None::<crossbeam_channel::Receiver<ReplayRequest>>,
    )
}

/// [`run_source_stage`] plus the recovery protocol: the source keeps a ring
/// of window-boundary snapshots (positioned stream + routing state), polls `feedback` for
/// [`ReplayRequest`]s between chunks, serves them by re-emitting the
/// requested suffix from the newest covering snapshot, and — after its own
/// emission completes — keeps serving until every worker has dropped its
/// feedback sender (the signal that all windows finalized everywhere).
///
/// Replay re-runs the *identical* generation, routing, and batching from a
/// cloned stream and cloned routing state, so every re-sent frame is
/// bit-for-bit the frame originally sent (same keys, same window, same
/// sequence number); only the emit timestamp is fresh. Injected connection
/// drops apply to first-time sends only, never to replay.
///
/// # Panics
/// Panics if a send fails (a worker endpoint disappeared mid-run).
pub fn run_source_stage_recoverable<S, Tx, Frx>(
    plan: &StagePlan,
    source_idx: usize,
    stream_for_phase: impl FnMut(usize) -> S,
    senders: &[Tx],
    feedback: Option<Frx>,
) -> SourceStageReport
where
    S: KeyStream + Clone,
    Tx: TupleSender,
    Frx: FeedbackReceiver,
{
    run_source_stage_inner(plan, source_idx, stream_for_phase, senders, feedback, None)
}

/// A supervisor directive delivered to a running source stage, for
/// process-level fault tolerance (see docs/FAULTS.md). The orchestrator
/// translates control-plane frames into these events; the source handles
/// them on its own emission thread, between chunks, so replay and live
/// frames never interleave out of order on one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceControlEvent {
    /// A worker process respawned: swap in its fresh connection (the
    /// `reattach` hook), then replay this source's history to it from
    /// `from_seq` — the worker's restored per-source cursor.
    Rejoin {
        /// The respawned worker.
        worker: usize,
        /// This source's cursor from the worker's durable checkpoint.
        from_seq: u64,
    },
    /// A worker exhausted its respawn budget: stop routing to it from the
    /// next window boundary on (the only point where routing state may
    /// change; see [`Partitioner::rescale`]).
    Exclude {
        /// The permanently failed worker.
        worker: usize,
    },
    /// Every live worker and aggregator has reported; no further replay
    /// can be requested and the stage may return.
    Release,
}

/// The supervised source's control-plane hookup: the event queue and the
/// reattach hook that swaps a respawned worker's connection, plus the
/// deferred-exclusion and release state the event loop accumulates.
struct Supervision<'a> {
    events: &'a crossbeam_channel::Receiver<SourceControlEvent>,
    reattach: &'a mut dyn FnMut(usize),
    pending_exclusions: Vec<usize>,
    released: bool,
}

/// [`run_source_stage`] plus the supervisor protocol of the process-level
/// fault-tolerant runner: the source keeps the same window-boundary
/// snapshot ring as [`run_source_stage_recoverable`], but replay is driven
/// by [`SourceControlEvent`]s from the orchestrator's control plane instead
/// of a worker → source feedback channel (a respawned worker cannot keep a
/// feedback socket across its own death — its restored cursors travel in
/// the `Rejoin` control frame instead).
///
/// `reattach(worker)` must swap the sender for `worker` to the respawned
/// process's fresh data connection; it is called on this thread, before the
/// replay that follows it, so replayed frames always precede later live
/// frames. After emission the stage blocks on the event queue until
/// `Release` (or the queue closing) instead of waiting for feedback senders
/// to drop.
///
/// Returns the number of tuples sent (replay re-sends are not counted, and
/// tuples routed to an excluded worker count as sent — the degradation
/// report, not the sent count, carries the loss).
///
/// `live`, when given, is a shared [`HopTelemetry`] the stage updates in
/// place so a metrics ticker on another thread can snapshot it mid-run;
/// without it the stage keeps a private one (plan-gated) and only the final
/// report carries the numbers.
pub fn run_source_stage_supervised<S, Tx>(
    plan: &StagePlan,
    source_idx: usize,
    stream_for_phase: impl FnMut(usize) -> S,
    senders: &[Tx],
    events: &crossbeam_channel::Receiver<SourceControlEvent>,
    mut reattach: impl FnMut(usize),
    live: Option<Arc<HopTelemetry>>,
) -> SourceStageReport
where
    S: KeyStream + Clone,
    Tx: TupleSender,
{
    run_source_stage_inner_with_live(
        plan,
        source_idx,
        stream_for_phase,
        senders,
        None::<crossbeam_channel::Receiver<ReplayRequest>>,
        Some(Supervision {
            events,
            reattach: &mut reattach,
            pending_exclusions: Vec::new(),
            released: false,
        }),
        live,
    )
}

fn run_source_stage_inner<S, Tx, Frx>(
    plan: &StagePlan,
    source_idx: usize,
    stream_for_phase: impl FnMut(usize) -> S,
    senders: &[Tx],
    feedback: Option<Frx>,
    supervision: Option<Supervision<'_>>,
) -> SourceStageReport
where
    S: KeyStream + Clone,
    Tx: TupleSender,
    Frx: FeedbackReceiver,
{
    run_source_stage_inner_with_live(
        plan,
        source_idx,
        stream_for_phase,
        senders,
        feedback,
        supervision,
        None,
    )
}

fn run_source_stage_inner_with_live<S, Tx, Frx>(
    plan: &StagePlan,
    source_idx: usize,
    mut stream_for_phase: impl FnMut(usize) -> S,
    senders: &[Tx],
    feedback: Option<Frx>,
    mut supervision: Option<Supervision<'_>>,
    live: Option<Arc<HopTelemetry>>,
) -> SourceStageReport
where
    S: KeyStream + Clone,
    Tx: TupleSender,
    Frx: FeedbackReceiver,
{
    assert!(
        feedback.is_some() || plan.faults.drops_from(source_idx).is_empty(),
        "connection-drop faults require a recovery feedback channel"
    );
    // Snapshots serve replay over the feedback channel (in-process
    // recovery) or over supervisor Rejoin events (process-level recovery).
    let keep_snapshots = feedback.is_some() || supervision.is_some();
    let batch_size = plan.batch_size;
    let window_size = plan.window_size;
    // Hop telemetry: share the caller's live handle when given (so a
    // metrics ticker can snapshot mid-run), else keep a private plan-gated
    // one. `hop == None` means telemetry is off and the hot path pays
    // nothing beyond a branch per batch.
    let local_hop = (live.is_none() && plan.telemetry).then(HopTelemetry::default);
    let hop = live.as_deref().or(local_hop.as_ref());
    let mut trace = TraceBuf::new(trace_stage::SOURCE, source_idx as u32, plan.telemetry);
    let mut send = SourceSendState::new(senders, source_idx, &plan.faults, hop);
    // The elasticity controller and its zero-allocation per-window load
    // buffer (both `None` without a controller — the hot loop then runs
    // exactly the pre-controller engine). The first phase's worker count
    // seeds the controller; from there it owns the active count.
    let mut controller = plan.controller.as_ref().map(|cfg| {
        ElasticityController::new(cfg.clone(), source_idx as u32, plan.phases[0].workers)
    });
    let mut window_loads = plan
        .controller
        .as_ref()
        .map(|_| PerWindowLoads::new(senders.len()));
    let mut partitioner: Option<Box<dyn Partitioner<KeyId>>> = None;
    let mut keybuf: Vec<KeyId> = Vec::with_capacity(batch_size);
    let mut routebuf: Vec<usize> = Vec::with_capacity(batch_size);
    let mut pending: Vec<Vec<KeyId>> = (0..senders.len())
        .map(|_| Vec::with_capacity(batch_size))
        .collect();
    // The batch's emit stamp is taken when its FIRST tuple is
    // buffered, not when the batch ships: a tuple's recorded
    // latency must include the time it waits for its batch to
    // fill, otherwise the slowest-filling destinations (exactly
    // the under-loaded workers of a skewed run) would report the
    // smallest latencies. First-push stamping over-approximates
    // for later tuples in the batch; it never understates.
    let mut pending_since: Vec<Instant> = vec![Instant::now(); senders.len()];
    let mut local_idx = 0u64;
    let mut snapshots: VecDeque<SourceSnapshot<S>> = VecDeque::new();
    'phases: for (phase_idx, phase) in plan.phases.iter().enumerate() {
        // Phase boundary: regenerate the routing state for the
        // phase's worker count. Build on first use, rescale in
        // place afterwards — bit-for-bit equivalent to a fresh
        // build (see slb-core's rescale_props suite).
        //
        // Supervisor exclusions shrink the routed set: the partitioner
        // spans only the ACTIVE workers and `active` maps its slots back
        // to actual worker indices. Until an exclusion happens that map
        // is the identity, so unsupervised runs are bit-for-bit
        // unchanged.
        // With a controller, phase worker counts are advisory past phase 0:
        // the controller's active count carries across phase boundaries.
        let phase_active = match controller.as_ref() {
            Some(ctrl) => ctrl.active_workers(),
            None => phase.workers,
        };
        let mut active = active_workers(phase_active, &send.excluded);
        assert!(
            !active.is_empty(),
            "every worker excluded; nothing to route to"
        );
        let partition = partition_config(plan, active.len());
        match partitioner.as_mut() {
            None => partitioner = Some(build_partitioner::<KeyId>(plan.kind, &partition)),
            Some(part) => {
                part.rescale(&partition);
                if let Some(ctrl) = controller.as_mut() {
                    ctrl.note_partitioner_rebuilt();
                }
                trace.push(
                    trace_kind::RESCALE,
                    window_of(local_idx, window_size),
                    active.len() as u64,
                    phase_idx as u64,
                );
            }
        }
        let mut stream = stream_for_phase(phase_idx);
        if keep_snapshots {
            // Phase-start snapshot; for phase 0 this is the origin
            // snapshot every replay can fall back to.
            push_snapshot(
                &mut snapshots,
                SourceSnapshot {
                    phase_idx,
                    stream: stream.clone(),
                    partitioner: partitioner
                        .as_ref()
                        .expect("partitioner built above")
                        .clone(),
                    local_idx,
                    emitted_in_phase: 0,
                    next_seq: send.next_seq.clone(),
                    excluded: send.excluded.clone(),
                    controller: controller.clone(),
                },
            );
        }
        let mut emitted = 0u64;
        while emitted < phase.tuples_per_source {
            // Serve replay requests between chunks so a recovering
            // worker never waits on a source that is still emitting
            // (and so the bounded feedback queue keeps draining).
            if let Some(fb) = feedback.as_ref() {
                serve_pending_replays(
                    fb,
                    plan,
                    &mut stream_for_phase,
                    senders,
                    &snapshots,
                    source_idx,
                    &send.next_seq,
                    &mut trace,
                );
            }
            // Same idea for the supervisor protocol: a respawned
            // worker's Rejoin is served (reattach + replay) between
            // chunks, on this thread, so every replayed frame precedes
            // any later live frame on the fresh connection.
            if let Some(sup) = supervision.as_mut() {
                serve_supervision_events(
                    sup,
                    plan,
                    &mut stream_for_phase,
                    senders,
                    &snapshots,
                    source_idx,
                    &send.next_seq,
                    &mut trace,
                );
            }
            // Cap the buffer at the window's (and phase's)
            // remaining tuples so a routed batch never spans a
            // boundary; in a bursty phase, also at the burst's
            // remaining tuples so every burst boundary is observed
            // even when bursts are smaller than the batch size.
            let mut take = (batch_size as u64)
                .min(window_size - local_idx % window_size)
                .min(phase.tuples_per_source - emitted);
            if let Arrival::Bursty { burst_tuples, .. } = phase.arrival {
                take = take.min(burst_tuples - emitted % burst_tuples);
            }
            let take = take as usize;
            keybuf.clear();
            while keybuf.len() < take {
                match stream.next_key() {
                    Some(key) => keybuf.push(key),
                    None => break,
                }
            }
            if keybuf.is_empty() {
                // Stream dried up early (possible only for the
                // one-phase path, whose stream bounds the budget).
                break 'phases;
            }
            let window = window_of(local_idx, window_size);
            partitioner
                .as_mut()
                .expect("partitioner built above")
                .route_batch(&keybuf, &mut routebuf);
            // Controller signal: per-window counts by routed *slot* (slots
            // are the active prefix, so the imbalance view is contiguous).
            if let Some(wl) = window_loads.as_mut() {
                for &route in &routebuf {
                    wl.record(route);
                }
            }
            for (&key, &route) in keybuf.iter().zip(&routebuf) {
                let worker = active[route];
                if pending[worker].is_empty() {
                    pending_since[worker] = Instant::now();
                }
                pending[worker].push(key);
                if pending[worker].len() == batch_size {
                    let keys =
                        std::mem::replace(&mut pending[worker], send.batch_buf(worker, batch_size));
                    // A send only fails if the receiver is gone, which
                    // cannot happen before all senders are dropped;
                    // treat it as fatal.
                    send.send_batch(worker, keys, window, pending_since[worker]);
                }
            }
            let chunk = keybuf.len() as u64;
            local_idx += chunk;
            emitted += chunk;
            if local_idx % window_size == 0 {
                // Window complete: everything buffered belongs to it,
                // so flush first, then broadcast the close marker.
                flush_pending(&mut send, &mut pending, &pending_since, window, batch_size);
                send.broadcast_close(window);
                trace.push(trace_kind::WINDOW_CLOSE, window, 0, 0);
                // Apply deferred exclusions now that the window is
                // sealed: mark the dead workers, shrink the active
                // map, and rescale the partitioner — the same
                // split-minimising move a planned scale-in uses — so
                // the next window never routes to them.
                if let Some(sup) = supervision.as_mut() {
                    if !sup.pending_exclusions.is_empty() {
                        for &worker in &sup.pending_exclusions {
                            send.excluded[worker] = true;
                        }
                        sup.pending_exclusions.clear();
                        let count = match controller.as_ref() {
                            Some(ctrl) => ctrl.active_workers(),
                            None => phase.workers,
                        };
                        active = active_workers(count, &send.excluded);
                        assert!(
                            !active.is_empty(),
                            "every worker excluded; nothing to route to"
                        );
                        partitioner
                            .as_mut()
                            .expect("partitioner built above")
                            .rescale(&partition_config(plan, active.len()));
                        if let Some(ctrl) = controller.as_mut() {
                            ctrl.note_partitioner_rebuilt();
                        }
                        trace.push(trace_kind::RESCALE, window, active.len() as u64, 0);
                    }
                }
                // Elasticity-controller step: feed it the closing window's
                // per-slot loads; a scale decision rebuilds the routing
                // state for the new active count (the same split-minimising
                // move a planned scale-out uses), otherwise the head
                // snapshot drives an online d re-solve. Runs before the
                // boundary snapshot so replay resumes from post-decision
                // state and re-derives the identical future.
                if let Some(ctrl) = controller.as_mut() {
                    let wl = window_loads.as_mut().expect("window loads with controller");
                    let window_total = wl.total();
                    let window_max = wl.max_count();
                    wl.finish_window(active.len());
                    if let Some(new_active) = ctrl.observe_window(window_total, window_max) {
                        active = active_workers(new_active, &send.excluded);
                        assert!(
                            !active.is_empty(),
                            "every worker excluded; nothing to route to"
                        );
                        partitioner
                            .as_mut()
                            .expect("partitioner built above")
                            .rescale(&partition_config(plan, active.len()));
                    } else {
                        let part = partitioner.as_mut().expect("partitioner built above");
                        if let Some(snapshot) = part.head_snapshot() {
                            if let Some(decision) =
                                ctrl.retune(&snapshot.frequencies, snapshot.tail_mass())
                            {
                                part.apply_choices(decision);
                            }
                        }
                    }
                }
                if keep_snapshots {
                    // Boundary snapshot: pending buffers are empty
                    // (just flushed), so the stream/routing/sequence
                    // cursors fully describe the send state. Taken
                    // AFTER exclusions apply, so a replay covering
                    // this point routes exactly as the live loop will.
                    push_snapshot(
                        &mut snapshots,
                        SourceSnapshot {
                            phase_idx,
                            stream: stream.clone(),
                            partitioner: partitioner
                                .as_ref()
                                .expect("partitioner built above")
                                .clone(),
                            local_idx,
                            emitted_in_phase: emitted,
                            next_seq: send.next_seq.clone(),
                            excluded: send.excluded.clone(),
                            controller: controller.clone(),
                        },
                    );
                }
            }
            // Burst pacing: chunks never span a burst boundary (the
            // `take` cap above), so exactly one pause fires per
            // completed burst. Before sleeping, flush the partial
            // batches buffered so far: their latency stamp is the
            // *first* tuple's arrival, so letting them sit through the
            // pause (and however many pauses it takes to fill them)
            // would charge the whole wait to every tuple in the batch
            // and blow up tail latency at trickle rates. A burst
            // boundary is a deterministic point in the tuple sequence,
            // so replay re-derives the identical flush (and the
            // identical batch boundaries/seqs) with no wall-clock
            // input. Routing and counts are untouched.
            if let Arrival::Bursty {
                burst_tuples,
                pause_us,
            } = phase.arrival
            {
                if pause_us > 0 && emitted % burst_tuples == 0 && emitted < phase.tuples_per_source
                {
                    flush_pending(&mut send, &mut pending, &pending_since, window, batch_size);
                    thread::sleep(Duration::from_micros(pause_us));
                }
            }
        }
    }
    // End of stream: flush and close the final partial window
    // (full windows were already closed at their boundary; phases
    // always end on a boundary, so this fires only when the
    // one-phase path's message count does not divide evenly).
    if local_idx % window_size != 0 {
        let window = window_of(local_idx, window_size);
        flush_pending(&mut send, &mut pending, &pending_since, window, batch_size);
        send.broadcast_close(window);
        trace.push(trace_kind::WINDOW_CLOSE, window, 0, 0);
    }
    // Post-emission replay service: block until every worker has
    // finalized its last window and dropped its feedback sender. The
    // source keeps its tuple senders alive through this loop, so a worker
    // recovering late can still be fed.
    if let Some(fb) = feedback {
        while let Ok(request) = fb.recv() {
            replay_to_worker(
                plan,
                &mut stream_for_phase,
                senders,
                &snapshots,
                source_idx,
                request,
                &send.next_seq,
                &mut trace,
            );
        }
    }
    // Supervised analogue: block on the control-event queue until the
    // orchestrator's Release (every live worker and aggregator has
    // reported) or the queue closing. A worker respawning after this
    // source finished emitting still gets its reattach + replay here.
    if let Some(sup) = supervision.as_mut() {
        while !sup.released {
            match sup.events.recv() {
                Ok(SourceControlEvent::Rejoin { worker, from_seq }) => {
                    (sup.reattach)(worker);
                    replay_to_worker(
                        plan,
                        &mut stream_for_phase,
                        senders,
                        &snapshots,
                        source_idx,
                        ReplayRequest { worker, from_seq },
                        &send.next_seq,
                        &mut trace,
                    );
                }
                Ok(SourceControlEvent::Exclude { .. }) => {}
                Ok(SourceControlEvent::Release) | Err(_) => break,
            }
        }
    }
    // Controller decisions become trace events here, after the loop, from
    // the drained decision log: the log is already deterministic (window
    // order), so the trace inherits that without instrumenting controller
    // internals.
    let controller_events = controller
        .as_mut()
        .map(|c| c.take_events())
        .unwrap_or_default();
    for event in &controller_events {
        let kind = match event.action {
            ControllerAction::ScaleOut => trace_kind::CTRL_SCALE_OUT,
            ControllerAction::ScaleIn => trace_kind::CTRL_SCALE_IN,
            ControllerAction::Retune => trace_kind::CTRL_RETUNE,
        };
        trace.push(
            kind,
            event.window,
            u64::from(event.workers),
            u64::from(event.d),
        );
    }
    SourceStageReport {
        sent: send.sent,
        controller_events,
        trace: trace.into_events(),
        transport: hop.map(HopTelemetry::snapshot).unwrap_or_default(),
    }
}

/// Drains every queued supervisor event without blocking. `Rejoin` swaps
/// in the respawned worker's fresh connection (the reattach hook) and then
/// replays this source's history from the worker's restored cursor;
/// `Exclude` is deferred to the next window boundary — the only point
/// where routing state may change; `Release` ends the post-emission wait.
#[allow(clippy::too_many_arguments)]
fn serve_supervision_events<S, Tx>(
    sup: &mut Supervision<'_>,
    plan: &StagePlan,
    stream_for_phase: &mut impl FnMut(usize) -> S,
    senders: &[Tx],
    snapshots: &VecDeque<SourceSnapshot<S>>,
    source: usize,
    live_next_seq: &[u64],
    trace: &mut TraceBuf,
) where
    S: KeyStream + Clone,
    Tx: TupleSender,
{
    while let Ok(event) = sup.events.try_recv() {
        match event {
            SourceControlEvent::Rejoin { worker, from_seq } => {
                (sup.reattach)(worker);
                replay_to_worker(
                    plan,
                    stream_for_phase,
                    senders,
                    snapshots,
                    source,
                    ReplayRequest { worker, from_seq },
                    live_next_seq,
                    trace,
                );
            }
            SourceControlEvent::Exclude { worker } => sup.pending_exclusions.push(worker),
            SourceControlEvent::Release => sup.released = true,
        }
    }
}

/// Pushes a snapshot onto the replay ring, evicting the *second*-oldest
/// entry when full: index 0 — the origin snapshot — is always retained so
/// any `from_seq`, however old, has a covering snapshot.
fn push_snapshot<S>(snapshots: &mut VecDeque<SourceSnapshot<S>>, snapshot: SourceSnapshot<S>) {
    if snapshots.len() == REPLAY_SNAPSHOT_RING {
        snapshots.remove(1);
    }
    snapshots.push_back(snapshot);
}

/// Drains every queued replay request without blocking and serves each one.
#[allow(clippy::too_many_arguments)]
fn serve_pending_replays<S, Tx>(
    feedback: &impl FeedbackReceiver,
    plan: &StagePlan,
    stream_for_phase: &mut impl FnMut(usize) -> S,
    senders: &[Tx],
    snapshots: &VecDeque<SourceSnapshot<S>>,
    source: usize,
    live_next_seq: &[u64],
    trace: &mut TraceBuf,
) where
    S: KeyStream + Clone,
    Tx: TupleSender,
{
    while let Ok(Some(request)) = feedback.try_recv() {
        replay_to_worker(
            plan,
            stream_for_phase,
            senders,
            snapshots,
            source,
            request,
            live_next_seq,
            trace,
        );
    }
}

/// Re-sends every message this source has already addressed to
/// `request.worker` with `seq >= request.from_seq`, by re-running the
/// emission loop from the newest snapshot whose cursor for that worker is
/// at or before the requested position.
///
/// This mirrors the chunking, routing, and batching of
/// [`run_source_stage_recoverable`] exactly — same stream, same routing
/// state, same per-worker batch fill, same burst-boundary flushes — so
/// replayed frames carry the same keys, window, and sequence numbers as the
/// originals. Differences are deliberate: sends to other workers are
/// suppressed (their state is not rewound), the burst *sleep* is skipped
/// (timing only — but the burst chunk cap and the boundary flush ARE
/// mirrored, because the flush changes batch boundaries and therefore
/// sequence numbers), fault drops are not re-applied, and nothing is added
/// to the sent-tuple count. Replay stops as soon as the re-driven sequence
/// cursor catches up with the live one: everything past it is the live
/// loop's future, not replayable history.
#[allow(clippy::too_many_arguments)]
fn replay_to_worker<S, Tx>(
    plan: &StagePlan,
    stream_for_phase: &mut impl FnMut(usize) -> S,
    senders: &[Tx],
    snapshots: &VecDeque<SourceSnapshot<S>>,
    source: usize,
    request: ReplayRequest,
    live_next_seq: &[u64],
    trace: &mut TraceBuf,
) where
    S: KeyStream + Clone,
    Tx: TupleSender,
{
    let target = request.worker;
    let upto = live_next_seq[target];
    if request.from_seq >= upto {
        // Nothing sent past the requested cursor yet; the live loop will
        // produce those messages in order.
        return;
    }
    trace.push(trace_kind::REPLAY_SERVE, 0, target as u64, request.from_seq);
    let snap = snapshots
        .iter()
        .rev()
        .find(|s| s.next_seq[target] <= request.from_seq)
        .expect("origin snapshot covers sequence zero");
    let mut partitioner = snap.partitioner.clone();
    // Controller mirroring: replay re-steps a clone of the snapshot's
    // controller at every window boundary with the identical per-slot
    // signal (the full key buffer is routed below, not just the target's
    // share), so every adaptation decision — rescale or retune — replays
    // bit-identically. The clone's event log is discarded with the clone;
    // only the live loop's log is ever reported.
    let mut controller = snap.controller.clone();
    let mut window_loads = controller
        .as_ref()
        .map(|_| PerWindowLoads::new(senders.len()));
    // Routed slots map through the snapshot's exclusion set, exactly as
    // the live loop's did at that point — the identity map until a
    // supervisor exclusion happened. (A replay spanning an exclusion
    // boundary would route the post-boundary stretch with the
    // pre-boundary map; that cannot arise here because exclusion is
    // permanent death — an excluded worker never rejoins to request one.)
    let snap_active = match controller.as_ref() {
        Some(ctrl) => ctrl.active_workers(),
        None => plan.phases[snap.phase_idx].workers,
    };
    let mut active = active_workers(snap_active, &snap.excluded);
    let mut replay_seq = snap.next_seq[target];
    let batch_size = plan.batch_size;
    let window_size = plan.window_size;
    let mut local_idx = snap.local_idx;
    let mut keybuf: Vec<KeyId> = Vec::with_capacity(batch_size);
    let mut routebuf: Vec<usize> = Vec::with_capacity(batch_size);
    let mut pending: Vec<KeyId> = Vec::with_capacity(batch_size);
    let deliver_batch = |replay_seq: &mut u64, keys: Vec<KeyId>, window: WindowId| {
        let seq = *replay_seq;
        *replay_seq += 1;
        if seq >= request.from_seq {
            senders[target]
                .send(SourceMessage::Batch(TupleBatch {
                    keys,
                    window,
                    source,
                    seq,
                    emitted_at: Instant::now(),
                }))
                .expect("worker queue closed prematurely");
        }
    };
    let deliver_close = |replay_seq: &mut u64, window: WindowId| {
        let seq = *replay_seq;
        *replay_seq += 1;
        if seq >= request.from_seq {
            senders[target]
                .send(SourceMessage::CloseWindow {
                    window,
                    source,
                    seq,
                })
                .expect("worker queue closed prematurely");
        }
    };
    let mut resumed = false;
    'phases: for (phase_idx, phase) in plan.phases.iter().enumerate().skip(snap.phase_idx) {
        let (mut stream, mut emitted) = if !resumed {
            resumed = true;
            (snap.stream.clone(), snap.emitted_in_phase)
        } else {
            // Crossing a phase boundary inside the replay: rescale the
            // cloned routing state and open a fresh phase stream, exactly
            // as the live loop did.
            let count = match controller.as_ref() {
                Some(ctrl) => ctrl.active_workers(),
                None => phase.workers,
            };
            active = active_workers(count, &snap.excluded);
            partitioner.rescale(&partition_config(plan, active.len()));
            if let Some(ctrl) = controller.as_mut() {
                ctrl.note_partitioner_rebuilt();
            }
            (stream_for_phase(phase_idx), 0u64)
        };
        while emitted < phase.tuples_per_source {
            if replay_seq >= upto {
                return;
            }
            let mut take = (batch_size as u64)
                .min(window_size - local_idx % window_size)
                .min(phase.tuples_per_source - emitted);
            if let Arrival::Bursty { burst_tuples, .. } = phase.arrival {
                take = take.min(burst_tuples - emitted % burst_tuples);
            }
            let take = take as usize;
            keybuf.clear();
            while keybuf.len() < take {
                match stream.next_key() {
                    Some(key) => keybuf.push(key),
                    None => break,
                }
            }
            if keybuf.is_empty() {
                break 'phases;
            }
            let window = window_of(local_idx, window_size);
            partitioner.route_batch(&keybuf, &mut routebuf);
            if let Some(wl) = window_loads.as_mut() {
                for &route in &routebuf {
                    wl.record(route);
                }
            }
            for (&key, &route) in keybuf.iter().zip(&routebuf) {
                if active[route] != target {
                    continue;
                }
                pending.push(key);
                if pending.len() == batch_size {
                    let keys = std::mem::replace(&mut pending, Vec::with_capacity(batch_size));
                    deliver_batch(&mut replay_seq, keys, window);
                }
            }
            let chunk = keybuf.len() as u64;
            local_idx += chunk;
            emitted += chunk;
            if local_idx % window_size == 0 {
                if !pending.is_empty() {
                    let keys = std::mem::replace(&mut pending, Vec::with_capacity(batch_size));
                    deliver_batch(&mut replay_seq, keys, window);
                }
                deliver_close(&mut replay_seq, window);
                // Controller step, mirroring the live loop's boundary
                // exactly (same signal, same order), so the cloned routing
                // state takes the same rescale/retune path.
                if let Some(ctrl) = controller.as_mut() {
                    let wl = window_loads.as_mut().expect("window loads with controller");
                    let window_total = wl.total();
                    let window_max = wl.max_count();
                    wl.finish_window(active.len());
                    if let Some(new_active) = ctrl.observe_window(window_total, window_max) {
                        active = active_workers(new_active, &snap.excluded);
                        partitioner.rescale(&partition_config(plan, active.len()));
                    } else if let Some(snapshot) = partitioner.head_snapshot() {
                        if let Some(decision) =
                            ctrl.retune(&snapshot.frequencies, snapshot.tail_mass())
                        {
                            partitioner.apply_choices(decision);
                        }
                    }
                }
            }
            // Burst-boundary flush, mirroring the live loop (sans sleep):
            // the flush consumes a sequence number whenever the target's
            // buffer is non-empty, so skipping it here would desync every
            // seq after the first mid-window burst boundary.
            if let Arrival::Bursty {
                burst_tuples,
                pause_us,
            } = phase.arrival
            {
                if pause_us > 0
                    && emitted % burst_tuples == 0
                    && emitted < phase.tuples_per_source
                    && !pending.is_empty()
                {
                    let keys = std::mem::replace(&mut pending, Vec::with_capacity(batch_size));
                    deliver_batch(&mut replay_seq, keys, window);
                }
            }
        }
    }
    // Trailing partial window, mirroring the live loop's end-of-stream
    // flush (reached only when replay extends to the very end of the run).
    if replay_seq < upto && local_idx % window_size != 0 {
        let window = window_of(local_idx, window_size);
        if !pending.is_empty() {
            let keys = std::mem::replace(&mut pending, Vec::with_capacity(batch_size));
            deliver_batch(&mut replay_seq, keys, window);
        }
        deliver_close(&mut replay_seq, window);
    }
}

/// What one worker reports after draining its input channel: counts,
/// state footprint, per-phase latency trackers, and per-phase activity
/// spans as `(first, last)` microseconds since the run epoch (an
/// `Instant`-free representation, so reports can cross process boundaries).
#[derive(Debug, Clone, Default)]
pub struct WorkerStageReport {
    /// Tuples processed.
    pub processed: u64,
    /// Tuples processed per phase.
    pub phase_counts: Vec<u64>,
    /// Per-phase latency samples.
    pub phase_latencies: Vec<LatencyTracker>,
    /// Distinct keys this worker ever held state for.
    pub state_keys: u64,
    /// Windows this worker finalized (must equal the run's window count).
    pub windows_closed: u64,
    /// Per-phase `(first, last)` batch-completion instants, µs since epoch.
    pub phase_spans: Vec<Option<(u64, u64)>>,
    /// Recovery activity: restores, replayed tuples, dedup drops, replay
    /// requests. All zero on a fault-free run.
    pub recovery: RecoveryMetrics,
    /// Checkpoints this worker saved (one per window finalization,
    /// including re-finalizations after a restore).
    pub checkpoints: u64,
    /// Bytes of every checkpoint record this worker saved, bases and deltas
    /// together. Which closes write a base depends on how much of the next
    /// window was already open, so this is a cost diagnostic, not part of
    /// the deterministic result; it is not carried on the wire.
    pub checkpoint_bytes: u64,
    /// The deterministic logical trace of this worker (window closes,
    /// checkpoint saves/restores, replay requests); empty when the plan
    /// disables telemetry.
    pub trace: Vec<TraceEvent>,
    /// Transport counters for this worker's receive side plus its
    /// worker→aggregator sends; all-zero when the plan disables telemetry.
    pub transport: HopStats,
}

/// Everything one worker contributes to a run, without a recovery channel:
/// drains whole runs of batches from `receiver`, spins for the phase's
/// per-worker service time, accumulates per-window partial aggregates, and
/// — once every source's close marker for a window has arrived — shards the
/// window's partial and ships the slices through `partial_senders` (one per
/// aggregator). Checkpoints are still taken at every window finalization
/// (the durability cost is part of the engine, not of fault injection), but
/// no crash can be simulated and no replay requested. See
/// [`run_worker_stage_recoverable`] for the feedback-connected variant.
///
/// `epoch` anchors the report's span timestamps; pass the instant the run
/// started (the same epoch on every node of a distributed run).
///
/// # Panics
/// Panics if a partial send fails (an aggregator endpoint disappeared), or
/// if the plan schedules a kill for this worker (a crash cannot be
/// recovered without a feedback channel).
pub fn run_worker_stage<A, Rx, Tx>(
    plan: &StagePlan,
    worker_idx: usize,
    epoch: Instant,
    aggregate: &A,
    receiver: Rx,
    partial_senders: &[Tx],
) -> WorkerStageReport
where
    A: WindowAggregate<KeyId>,
    A::Partial: WirePartial,
    Rx: TupleReceiver,
    Tx: PartialSender<A::Partial>,
{
    run_worker_stage_recoverable(
        plan,
        worker_idx,
        epoch,
        aggregate,
        receiver,
        partial_senders,
        Vec::<crossbeam_channel::Sender<ReplayRequest>>::new(),
    )
}

/// Every piece of volatile worker state a checkpoint covers — what a crash
/// loses and a restore rebuilds. Timing diagnostics and recovery counters
/// live outside it: they describe the wall clock and the recovery itself,
/// not the recovered state.
struct WorkerState<P> {
    processed: u64,
    windows_closed: u64,
    phase_counts: Vec<u64>,
    /// Per-source sequence cursor: the next message expected from each.
    expected_seq: Vec<u64>,
    /// Distinct keys this worker has ever held state for (the
    /// memory-footprint metric); the per-key counts themselves live in the
    /// window partials.
    keys: FixedHashSet<KeyId>,
    /// `keys` as of the last base record this state wrote (or was restored
    /// from), ascending: what the next base merges the newer keys into, so
    /// that no close ever sorts the whole set.
    base_keys: Vec<KeyId>,
    /// The keys first seen since `base_keys`. `[..delta_from]` already
    /// went out in delta records, one ascending run per record; the rest is
    /// fresh — in arrival order, and all the next delta has to say about
    /// the key set.
    since_base: Vec<KeyId>,
    delta_from: usize,
    open: HashMap<WindowId, P>,
    closes: HashMap<WindowId, usize>,
}

impl<P: WirePartial> WorkerState<P> {
    fn new(n_phases: usize, sources: usize) -> Self {
        Self {
            processed: 0,
            windows_closed: 0,
            phase_counts: vec![0; n_phases],
            expected_seq: vec![0; sources],
            keys: FixedHashSet::default(),
            base_keys: Vec::new(),
            since_base: Vec::new(),
            delta_from: 0,
            open: HashMap::new(),
            closes: HashMap::new(),
        }
    }

    /// Rebuilds the state from a restored checkpoint (a log's base with its
    /// deltas applied, see [`WorkerCheckpoint::restore`]). Shared by the
    /// simulated-crash restore (same process) and the respawn restore (new
    /// process, log read from disk).
    fn restore(checkpoint: &WorkerCheckpoint, n_phases: usize, sources: usize) -> Self {
        let mut phase_counts = checkpoint.phase_counts.clone();
        phase_counts.resize(n_phases, 0);
        let mut expected_seq = checkpoint.next_seq.clone();
        expected_seq.resize(sources, 0);
        let open = checkpoint
            .open
            .iter()
            .filter_map(|w| {
                w.partial.as_ref().map(|blob| {
                    let partial = P::decode_partial(&mut blob.as_slice())
                        .expect("a worker's own checkpoint decodes");
                    (w.window, partial)
                })
            })
            .collect();
        let closes = checkpoint
            .open
            .iter()
            .filter(|w| w.closes_seen > 0)
            .map(|w| (w.window, w.closes_seen as usize))
            .collect();
        Self {
            processed: checkpoint.processed,
            windows_closed: checkpoint.windows_closed,
            phase_counts,
            expected_seq,
            keys: checkpoint.state_keys.iter().copied().collect(),
            base_keys: checkpoint.state_keys.clone(),
            since_base: Vec::new(),
            delta_from: 0,
            open,
            closes,
        }
    }

    /// Writes the checkpoint record for the close that just finalized into
    /// `store`, encoded straight from this state: a delta (counters,
    /// cursors, the fresh keys, the open windows) unless the store wants a
    /// base, which carries every key instead. Either way the record is a
    /// pure function of the per-source message prefixes recorded in
    /// `expected_seq`, which is what makes restore + bounded replay land
    /// the worker in exactly the state it lost.
    fn save_checkpoint<'s>(
        &mut self,
        worker: usize,
        store: &'s mut CheckpointStore,
    ) -> CheckpointRecord<'s> {
        let mut windows: Vec<WindowId> = self
            .open
            .keys()
            .chain(self.closes.keys())
            .copied()
            .collect();
        windows.sort_unstable();
        windows.dedup();
        let open = windows.iter().map(|&window| OpenWindowView {
            window,
            closes_seen: self.closes.get(&window).copied().unwrap_or(0) as u64,
            partial: self.open.get(&window),
        });
        let base = store.wants_base();
        self.since_base[self.delta_from..].sort_unstable();
        let keys: &[KeyId] = if base {
            // `since_base` is a handful of ascending runs, which the
            // (run-adaptive) stable sort merges rather than re-sorts.
            self.since_base.sort();
            merge_ascending(&mut self.base_keys, &self.since_base);
            self.since_base.clear();
            &self.base_keys
        } else {
            &self.since_base[self.delta_from..]
        };
        self.delta_from = self.since_base.len();
        let view = CheckpointView {
            worker: worker as u64,
            windows_closed: self.windows_closed,
            processed: self.processed,
            phase_counts: &self.phase_counts,
            next_seq: &self.expected_seq,
            keys,
        };
        if base {
            store.save_base(|out| view.encode_base(open, out))
        } else {
            store.append_delta(|out| view.encode_delta(open, out))
        }
    }
}

/// [`run_worker_stage`] plus the recovery protocol. Three mechanisms stack
/// to make processing exactly-once under the plan's injected faults:
///
/// 1. **Sequence dedup.** Every message carries its per-(source, worker)
///    sequence number. A message below the expected cursor is a replay
///    overlap — dropped; above it is a gap — the worker sends one
///    [`ReplayRequest`] per missing cursor position and drops until the
///    expected message arrives; exactly at it — processed, cursor advances.
/// 2. **Per-window checkpoints.** At every window finalization the worker
///    appends one record to its checkpoint log: a delta sized by the
///    window, or — when the deltas outweigh the last one — a new base
///    ([`WorkerCheckpoint`]).
/// 3. **Crash + restore.** At a [`FaultPlan`] kill point the worker
///    discards *all* volatile state, rebuilds it from its checkpoint log (or
///    starts empty if it never took one), and asks every source to replay
///    from the checkpoint's cursors. Closed windows are never reprocessed —
///    their tuples sit below the checkpoint cursors — so aggregators see
///    each (worker, window) partial at most once per finalization.
///
/// After finalizing the plan's last window the worker drops its feedback
/// senders (letting sources finish their replay-service loops) and keeps
/// draining to EOF, shedding stragglers as duplicates.
///
/// # Panics
/// Panics if a partial send fails, or if recovery is needed (gap observed,
/// kill scheduled) and `feedback_senders` is empty.
#[allow(clippy::too_many_arguments)]
pub fn run_worker_stage_recoverable<A, Rx, Tx, Ftx>(
    plan: &StagePlan,
    worker_idx: usize,
    epoch: Instant,
    aggregate: &A,
    receiver: Rx,
    partial_senders: &[Tx],
    feedback_senders: Vec<Ftx>,
) -> WorkerStageReport
where
    A: WindowAggregate<KeyId>,
    A::Partial: WirePartial,
    Rx: TupleReceiver,
    Tx: PartialSender<A::Partial>,
    Ftx: FeedbackSender,
{
    run_worker_stage_inner(
        plan,
        worker_idx,
        epoch,
        aggregate,
        receiver,
        partial_senders,
        feedback_senders,
        None,
        None,
        false,
        None,
    )
}

/// [`run_worker_stage`] for the process-level fault-tolerant runner. Two
/// differences from the in-process recoverable variant:
///
/// - The worker may *start* from a durable checkpoint (`initial`, restored
///   from the on-disk [`slb_core::DurableCheckpointStore`] log by the
///   respawned process), and every record it saves is mirrored to `persist`
///   (the durable store's `save` for a base, `append` for a delta) right
///   after the in-memory save. A fresh process always begins with a base.
/// - There is no feedback channel: replay is requested on the worker's
///   behalf by the orchestrator — the `Rejoin` control frame carries the
///   restored cursors to every source. Consequently the stage *returns* as
///   soon as the plan's last window finalizes instead of draining to EOF,
///   because its tuple sockets stay open until the orchestrator's Release
///   (sources hold them for potential replay to OTHER respawned workers).
///
/// # Panics
/// Panics if a partial send fails, or on a sequence gap (with no feedback
/// channel a gap is unrecoverable from inside the stage; the supervised
/// source protocol guarantees gap-free delivery on each connection).
///
/// `live`, when given, is a shared [`HopTelemetry`] the stage updates in
/// place so a metrics ticker on another thread can snapshot it mid-run;
/// without it the stage keeps a private one (plan-gated).
#[allow(clippy::too_many_arguments)]
pub fn run_worker_stage_durable<A, Rx, Tx>(
    plan: &StagePlan,
    worker_idx: usize,
    epoch: Instant,
    aggregate: &A,
    receiver: Rx,
    partial_senders: &[Tx],
    initial: Option<&WorkerCheckpoint>,
    persist: &mut dyn FnMut(CheckpointRecord<'_>),
    live: Option<Arc<HopTelemetry>>,
) -> WorkerStageReport
where
    A: WindowAggregate<KeyId>,
    A::Partial: WirePartial,
    Rx: TupleReceiver,
    Tx: PartialSender<A::Partial>,
{
    run_worker_stage_inner(
        plan,
        worker_idx,
        epoch,
        aggregate,
        receiver,
        partial_senders,
        Vec::<crossbeam_channel::Sender<ReplayRequest>>::new(),
        initial,
        Some(persist),
        true,
        live,
    )
}

/// The durable worker's checkpoint-persist hook: called with the record
/// just saved at every window-finalization boundary.
type PersistFn<'a> = &'a mut dyn FnMut(CheckpointRecord<'_>);

#[allow(clippy::too_many_arguments)]
fn run_worker_stage_inner<A, Rx, Tx, Ftx>(
    plan: &StagePlan,
    worker_idx: usize,
    epoch: Instant,
    aggregate: &A,
    receiver: Rx,
    partial_senders: &[Tx],
    mut feedback_senders: Vec<Ftx>,
    initial: Option<&WorkerCheckpoint>,
    mut persist: Option<PersistFn<'_>>,
    exit_at_last_window: bool,
    live: Option<Arc<HopTelemetry>>,
) -> WorkerStageReport
where
    A: WindowAggregate<KeyId>,
    A::Partial: WirePartial,
    Rx: TupleReceiver,
    Tx: PartialSender<A::Partial>,
    Ftx: FeedbackSender,
{
    let n_phases = plan.phases.len();
    let sources = plan.sources;
    let aggregators = plan.aggregators;
    let total_windows = plan.total_windows();
    // Stands in for this worker's durable medium (local disk, replicated
    // log): a simulated crash discards `state` below and restores only
    // from these bytes.
    let mut store = CheckpointStore::new();
    let mut kill_points: VecDeque<u64> = plan.faults.kill_points(worker_idx).into();
    assert!(
        kill_points.is_empty() || !feedback_senders.is_empty(),
        "kill-worker faults require a recovery feedback channel"
    );
    let mut state: WorkerState<A::Partial> = WorkerState::new(n_phases, sources);
    let mut phase_latencies: Vec<LatencyTracker> = (0..n_phases)
        .map(|_| LatencyTracker::with_capacity(1_024))
        .collect();
    // First/last batch-completion instants per phase, for the
    // per-phase throughput span. Timing diagnostics survive a simulated
    // crash (they describe the wall clock, not the recovered state).
    let mut phase_spans: Vec<Option<(u64, u64)>> = vec![None; n_phases];
    // One past the highest sequence number ever observed per source; feeds
    // only the replayed-items diagnostic (a delivery behind the frontier
    // is a replay), never a recovery decision, so it survives crashes.
    let mut frontier = vec![0u64; sources];
    // The cursor a replay request is outstanding for, per source; cleared
    // when the expected message arrives, so each gap asks exactly once.
    let mut pending_request: Vec<Option<u64>> = vec![None; sources];
    let mut recovery = RecoveryMetrics::default();
    let mut checkpoints = 0u64;
    // Hop telemetry and the logical trace; see the source stage for the
    // live-vs-private convention. All per-message, never per-tuple.
    let local_hop = (live.is_none() && plan.telemetry).then(HopTelemetry::default);
    let hop = live.as_deref().or(local_hop.as_ref());
    let mut trace = TraceBuf::new(trace_stage::WORKER, worker_idx as u32, plan.telemetry);
    if let Some(checkpoint) = initial {
        // Respawn restore: this process starts where its predecessor's
        // last durable checkpoint left off. The replay that fills the
        // gap was already requested on our behalf (the Rejoin frame
        // carried these cursors to every source).
        recovery.restores += 1;
        recovery.replay_requests += sources as u64;
        state = WorkerState::restore(checkpoint, n_phases, sources);
        trace.push(
            trace_kind::CHECKPOINT_RESTORE,
            state.windows_closed,
            state.processed,
            0,
        );
    }
    if total_windows == 0 {
        // Degenerate empty run: no window will ever finalize, so release
        // the sources' replay-service loops immediately.
        feedback_senders.clear();
    }
    let mut drained: Vec<SourceMessage> = Vec::new();
    'recv: loop {
        let wait = hop.map(|h| (h, Instant::now()));
        let received = receiver.recv_batch(&mut drained);
        if let Some((h, before)) = wait {
            h.recv_wait_us.add(before.elapsed().as_micros() as u64);
        }
        match received {
            Ok(_) => {}
            Err(RecvError::Transport(_)) => {
                // A reader thread hit a malformed frame or a failed
                // read. Survivable: the erroring connection is done,
                // but the queue itself (and any other connection
                // feeding it) lives on — count it and keep draining.
                recovery.transport_errors += 1;
                continue;
            }
            Err(RecvError::Closed) => break,
        }
        if let Some(h) = hop {
            h.queue_depth_hwm.record(drained.len() as u64);
        }
        for message in drained.drain(..) {
            let (src, seq) = message.source_seq();
            frontier[src] = frontier[src].max(seq + 1);
            if seq < state.expected_seq[src] {
                // Replay overlap (or a frame re-sent past our progress):
                // already state.processed, drop it.
                recovery.duplicates_dropped += 1;
                continue;
            }
            if seq > state.expected_seq[src] {
                // Gap: a frame was lost ahead of us. Ask the source to
                // replay from the missing cursor (once per cursor value)
                // and shed everything until it arrives — FIFO per sender
                // means the replayed run will precede any newer frames.
                if pending_request[src] != Some(state.expected_seq[src]) {
                    assert!(
                        !feedback_senders.is_empty(),
                        "sequence gap from source {src} without a recovery feedback channel"
                    );
                    feedback_senders[src]
                        .send(ReplayRequest {
                            worker: worker_idx,
                            from_seq: state.expected_seq[src],
                        })
                        .expect("feedback channel closed prematurely");
                    trace.push(
                        trace_kind::REPLAY_REQUEST,
                        0,
                        src as u64,
                        state.expected_seq[src],
                    );
                    pending_request[src] = Some(state.expected_seq[src]);
                    recovery.replay_requests += 1;
                }
                recovery.duplicates_dropped += 1;
                continue;
            }
            state.expected_seq[src] += 1;
            pending_request[src] = None;
            let is_replay = seq + 1 < frontier[src];
            match message {
                SourceMessage::Batch(batch) => {
                    let n = batch.keys.len() as u64;
                    if let Some(h) = hop {
                        h.batches_received.add(1);
                        h.tuples_received.add(n);
                        h.batch_occupancy.record(n);
                    }
                    let phase = phase_of(&plan.phase_starts, batch.window);
                    let service = plan.phases[phase].service[worker_idx];
                    // Emulate the aggregation work with one
                    // busy-wait for the whole batch (n tuples'
                    // worth of service time): sleeping is far too
                    // coarse at microsecond granularity, and a
                    // per-tuple deadline would put two
                    // `Instant::now()` calls back on the per-tuple
                    // path.
                    if !service.is_zero() {
                        let until = Instant::now() + service * n as u32;
                        while Instant::now() < until {
                            std::hint::spin_loop();
                        }
                    }
                    let partial = state
                        .open
                        .entry(batch.window)
                        .or_insert_with(|| aggregate.empty());
                    for key in &batch.keys {
                        if state.keys.insert(*key) {
                            state.since_base.push(*key);
                        }
                        aggregate.observe(partial, key, 1);
                    }
                    if is_replay {
                        recovery.replayed_items += n;
                    }
                    let done = Instant::now();
                    let batch_latency_us = done.duration_since(batch.emitted_at).as_micros() as u64;
                    phase_latencies[phase].record_many_us(batch_latency_us, n);
                    state.phase_counts[phase] += n;
                    state.processed += n;
                    let done_us = done.saturating_duration_since(epoch).as_micros() as u64;
                    let span = phase_spans[phase].get_or_insert((done_us, done_us));
                    span.1 = done_us;
                    // Injected crash: trips once when lifetime state.processed
                    // tuples reach the threshold. Consumed before the
                    // restore so the rewound counter cannot re-trip it.
                    while kill_points.front().is_some_and(|&at| state.processed >= at) {
                        kill_points.pop_front();
                        recovery.restores += 1;
                        // -- crash -- everything in `state` is lost.
                        let checkpoint = store.restore().unwrap_or_default();
                        // -- restart -- restore from the checkpoint alone.
                        state = WorkerState::restore(&checkpoint, n_phases, sources);
                        trace.push(
                            trace_kind::CHECKPOINT_RESTORE,
                            state.windows_closed,
                            state.processed,
                            0,
                        );
                        for (src, sender) in feedback_senders.iter().enumerate() {
                            sender
                                .send(ReplayRequest {
                                    worker: worker_idx,
                                    from_seq: state.expected_seq[src],
                                })
                                .expect("feedback channel closed prematurely");
                            trace.push(
                                trace_kind::REPLAY_REQUEST,
                                0,
                                src as u64,
                                state.expected_seq[src],
                            );
                            pending_request[src] = Some(state.expected_seq[src]);
                            recovery.replay_requests += 1;
                        }
                    }
                    // The batch is consumed; hand its buffer back to the
                    // sources on transports with a recycling return path
                    // (a no-op everywhere else).
                    receiver.recycle(batch.keys);
                }
                SourceMessage::CloseWindow { window, .. } => {
                    let seen = state.closes.entry(window).or_insert(0);
                    *seen += 1;
                    if *seen < sources {
                        continue;
                    }
                    // Channels are FIFO per source and sequence dedup
                    // admits each marker once, so with all sources'
                    // markers in hand this worker holds every tuple of
                    // the window that was routed to it: finalize and
                    // ship the shard slices.
                    state.closes.remove(&window);
                    let partial = state
                        .open
                        .remove(&window)
                        .unwrap_or_else(|| aggregate.empty());
                    let closed_at = Instant::now();
                    let timed = hop.map(|h| (h, Instant::now()));
                    for (shard, slice) in aggregate
                        .shard(partial, aggregators)
                        .into_iter()
                        .enumerate()
                    {
                        partial_senders[shard]
                            .send(PartialWindow {
                                window,
                                worker: worker_idx,
                                partial: slice,
                                closed_at,
                            })
                            .expect("aggregator queue closed prematurely");
                    }
                    if let Some((h, before)) = timed {
                        h.send_stall_us.add(before.elapsed().as_micros() as u64);
                        h.batches_sent.add(aggregators as u64);
                        h.tuples_sent.add(aggregators as u64);
                    }
                    state.windows_closed += 1;
                    trace.push(trace_kind::WINDOW_CLOSE, window, state.windows_closed, 0);
                    // Checkpoint at the finalization boundary: shipping
                    // the partials and persisting the cursor that covers
                    // them happen back to back, so a later restore never
                    // re-finalizes this window.
                    if plan.checkpointing {
                        let record = state.save_checkpoint(worker_idx, &mut store);
                        // Mirror to the durable medium: the hook runs
                        // back to back with shipping the partials, so a
                        // respawn restoring these bytes never
                        // re-finalizes this window.
                        if let Some(hook) = persist.as_mut() {
                            hook(record);
                        }
                        checkpoints += 1;
                        // One event per close whichever kind the record
                        // was: which state.closes rebase depends on how much of
                        // the next window was already state.open, and the trace
                        // is interleaving-free.
                        trace.push(trace_kind::CHECKPOINT_SAVE, window, state.windows_closed, 0);
                    }
                    if state.windows_closed == total_windows {
                        // Last window done: release the sources' replay
                        // service, then keep draining to EOF (anything
                        // still in flight is a replay overlap) — unless
                        // this is the durable runner, whose sockets stay
                        // state.open until the orchestrator's Release: return
                        // instead of waiting for an EOF that only
                        // arrives after the release.
                        feedback_senders.clear();
                        if exit_at_last_window {
                            break 'recv;
                        }
                    }
                }
            }
        }
    }
    debug_assert!(
        state.open.is_empty() && state.closes.is_empty(),
        "all windows must be closed by end of stream"
    );
    WorkerStageReport {
        processed: state.processed,
        phase_counts: state.phase_counts,
        phase_latencies,
        state_keys: state.keys.len() as u64,
        windows_closed: state.windows_closed,
        phase_spans,
        recovery,
        checkpoints,
        checkpoint_bytes: store.bytes_saved(),
        trace: trace.into_events(),
        transport: hop.map(HopTelemetry::snapshot).unwrap_or_default(),
    }
}

/// What one aggregator reports: the windows it finalized, the close→merge
/// latency distribution, how many partial messages it merged, and how many
/// it dropped as duplicates.
pub struct AggregatorStageReport<P> {
    /// Final merged aggregate per window this shard owned.
    pub finalized: BTreeMap<WindowId, P>,
    /// Close→merge latency samples.
    pub latencies: LatencyTracker,
    /// Partial-window messages merged (each counted at most once per
    /// distinct `(worker, window)`).
    pub merged: u64,
    /// Partial-window messages dropped because their `(worker, window)` had
    /// already contributed — a recovered worker re-shipping a partial. Zero
    /// on a fault-free run, and zero even under kill faults (checkpoints at
    /// finalization mean closed windows are never re-finalized); the dedup
    /// is the aggregator's own exactly-once guarantee regardless.
    pub duplicates_dropped: u64,
    /// Transport-level receive errors survived (a reader thread reporting
    /// a malformed frame or failed read instead of a clean EOF — e.g. a
    /// SIGKILLed worker's connection tearing mid-frame).
    pub transport_errors: u64,
    /// The deterministic logical trace of this shard (one `WINDOW_CLOSE`
    /// per finalized window, in finalization order); empty when telemetry
    /// is disabled.
    pub trace: Vec<TraceEvent>,
    /// Transport counters for this shard's receive side; all-zero when
    /// telemetry is disabled.
    pub transport: HopStats,
}

/// Everything one aggregator contributes to a run: merges partial-window
/// slices from `receiver` as they arrive; a window is final once every one
/// of the `spawned_workers` workers has contributed its slice.
/// Contributions are counted by *distinct* worker — a duplicate
/// `(worker, window)` partial (a recovered worker re-shipping) is dropped,
/// never double-merged.
///
/// `shard` is this aggregator's index (it keys the trace); `telemetry`
/// gates both the trace and the hop counters.
pub fn run_aggregator_stage<A, Rx>(
    spawned_workers: usize,
    aggregate: &A,
    receiver: Rx,
    shard: usize,
    telemetry: bool,
) -> AggregatorStageReport<A::Partial>
where
    A: WindowAggregate<KeyId>,
    Rx: PartialReceiver<A::Partial>,
{
    run_aggregator_stage_inner(
        spawned_workers,
        None,
        aggregate,
        receiver,
        None,
        shard,
        telemetry,
        None,
    )
}

/// [`run_aggregator_stage`] plus the supervisor protocol of the
/// process-level fault-tolerant runner:
///
/// - An `Exclude` on the `exclusions` channel drops a permanently dead
///   worker from every finalization quorum — windows already waiting only
///   on it finalize immediately, and later windows no longer expect it.
///   (Graceful degradation: window counts lose the dead worker's share,
///   but the run *terminates* with a report instead of hanging.)
/// - The stage returns as soon as `total_windows` windows have finalized,
///   instead of draining to EOF: under a respawn the data queue's senders
///   (the listener accepting reconnections) outlive the stage on purpose.
///
/// `live`, when given, is a shared [`HopTelemetry`] the stage updates in
/// place so a metrics ticker on another thread can snapshot it mid-run.
#[allow(clippy::too_many_arguments)]
pub fn run_aggregator_stage_supervised<A, Rx>(
    spawned_workers: usize,
    total_windows: u64,
    aggregate: &A,
    receiver: Rx,
    exclusions: &crossbeam_channel::Receiver<usize>,
    shard: usize,
    telemetry: bool,
    live: Option<Arc<HopTelemetry>>,
) -> AggregatorStageReport<A::Partial>
where
    A: WindowAggregate<KeyId>,
    Rx: PartialReceiver<A::Partial>,
{
    run_aggregator_stage_inner(
        spawned_workers,
        Some(total_windows),
        aggregate,
        receiver,
        Some(exclusions),
        shard,
        telemetry,
        live,
    )
}

#[allow(clippy::too_many_arguments)]
fn run_aggregator_stage_inner<A, Rx>(
    spawned_workers: usize,
    total_windows: Option<u64>,
    aggregate: &A,
    receiver: Rx,
    exclusions: Option<&crossbeam_channel::Receiver<usize>>,
    shard: usize,
    telemetry: bool,
    live: Option<Arc<HopTelemetry>>,
) -> AggregatorStageReport<A::Partial>
where
    A: WindowAggregate<KeyId>,
    Rx: PartialReceiver<A::Partial>,
{
    // Hop telemetry and the logical trace; see the source stage for the
    // live-vs-private convention.
    let local_hop = (live.is_none() && telemetry).then(HopTelemetry::default);
    let hop = live.as_deref().or(local_hop.as_ref());
    let mut trace = TraceBuf::new(trace_stage::AGGREGATOR, shard as u32, telemetry);
    let mut latencies = LatencyTracker::with_capacity(256);
    let mut merged = 0u64;
    let mut duplicates_dropped = 0u64;
    let mut transport_errors = 0u64;
    // Supervisor-excluded workers: no longer part of any quorum.
    let mut excluded = vec![false; spawned_workers];
    let mut excluded_any = false;
    // Per open window: the merged partial, which workers contributed, and
    // the distinct-contributor count.
    #[allow(clippy::type_complexity)]
    let mut open: HashMap<WindowId, (A::Partial, Vec<bool>, usize)> = HashMap::new();
    let mut finalized: BTreeMap<WindowId, A::Partial> = BTreeMap::new();
    let mut drained: Vec<PartialWindow<A::Partial>> = Vec::new();
    let all_done = |finalized: &BTreeMap<WindowId, A::Partial>| {
        total_windows.is_some_and(|t| finalized.len() as u64 >= t)
    };
    'recv: while !all_done(&finalized) {
        // Serve supervisor exclusions between receive rounds (the shim's
        // channels have no select, so the data queue is polled with its
        // own blocking receive and exclusions are drained non-blockingly;
        // the orchestrator follows every Exclude broadcast with data-side
        // progress — at minimum the queue closing — so this never
        // deadlocks).
        if let Some(rx) = exclusions {
            let mut changed = false;
            while let Ok(worker) = rx.try_recv() {
                if worker < spawned_workers && !excluded[worker] {
                    excluded[worker] = true;
                    excluded_any = true;
                    changed = true;
                }
            }
            if changed {
                finalize_quorate_windows(
                    &mut open,
                    &mut finalized,
                    &excluded,
                    spawned_workers,
                    &mut trace,
                );
                if all_done(&finalized) {
                    break 'recv;
                }
            }
        }
        let wait = hop.map(|h| (h, Instant::now()));
        let received = receiver.recv_batch(&mut drained);
        if let Some((h, before)) = wait {
            h.recv_wait_us.add(before.elapsed().as_micros() as u64);
        }
        match received {
            Ok(_) => {}
            Err(RecvError::Transport(_)) => {
                // One connection tore mid-frame (e.g. its worker was
                // SIGKILLed); the queue and every other connection
                // feeding it live on. Count and keep draining.
                transport_errors += 1;
                continue;
            }
            Err(RecvError::Closed) => break,
        }
        if let Some(h) = hop {
            // Each drained element is one partial-window message.
            let n = drained.len() as u64;
            h.batches_received.add(n);
            h.tuples_received.add(n);
            h.queue_depth_hwm.record(n);
            h.batch_occupancy.record(n);
        }
        for pw in drained.drain(..) {
            if finalized.contains_key(&pw.window) {
                // Every worker already contributed; a straggler can only
                // be a re-shipped duplicate (or, under degradation, a
                // dead worker's late partial outrun by its exclusion).
                duplicates_dropped += 1;
                continue;
            }
            if excluded[pw.worker] {
                // A late partial from a worker already dropped from the
                // quorum: merging it now would double-count against the
                // exclusion-finalized windows, so shed it.
                duplicates_dropped += 1;
                continue;
            }
            let slot = open
                .entry(pw.window)
                .or_insert_with(|| (aggregate.empty(), vec![false; spawned_workers], 0));
            if slot.1[pw.worker] {
                duplicates_dropped += 1;
                continue;
            }
            slot.1[pw.worker] = true;
            slot.2 += 1;
            latencies.record_us(pw.closed_at.elapsed().as_micros() as u64);
            merged += 1;
            aggregate.merge(&mut slot.0, pw.partial);
            let complete = if excluded_any {
                (0..spawned_workers).all(|w| excluded[w] || slot.1[w])
            } else {
                slot.2 == spawned_workers
            };
            if complete {
                let (partial, _, _) = open.remove(&pw.window).expect("window is open");
                finalized.insert(pw.window, partial);
                trace.push(trace_kind::WINDOW_CLOSE, pw.window, 0, 0);
                if all_done(&finalized) {
                    break 'recv;
                }
            }
        }
    }
    // The data queue may close (or the window budget fill) with an
    // Exclude still queued; apply it so windows waiting only on the dead
    // worker still finalize and the caller terminates with a report.
    if let Some(rx) = exclusions {
        while let Ok(worker) = rx.try_recv() {
            if worker < spawned_workers {
                excluded[worker] = true;
            }
        }
        finalize_quorate_windows(
            &mut open,
            &mut finalized,
            &excluded,
            spawned_workers,
            &mut trace,
        );
    }
    debug_assert!(
        open.is_empty(),
        "every window must receive a partial from every (live) worker"
    );
    AggregatorStageReport {
        finalized,
        latencies,
        merged,
        duplicates_dropped,
        transport_errors,
        trace: trace.into_events(),
        transport: hop.map(HopTelemetry::snapshot).unwrap_or_default(),
    }
}

/// Moves every open window whose quorum is now satisfied — every worker
/// either contributed or is excluded — into the finalized map, in window
/// order (the candidate set comes off a `HashMap`, whose iteration order
/// is arbitrary — sorting keeps the trace deterministic).
fn finalize_quorate_windows<P>(
    open: &mut HashMap<WindowId, (P, Vec<bool>, usize)>,
    finalized: &mut BTreeMap<WindowId, P>,
    excluded: &[bool],
    spawned_workers: usize,
    trace: &mut TraceBuf,
) {
    let mut ready: Vec<WindowId> = open
        .iter()
        .filter(|(_, slot)| (0..spawned_workers).all(|w| excluded[w] || slot.1[w]))
        .map(|(&window, _)| window)
        .collect();
    ready.sort_unstable();
    for window in ready {
        let (partial, _, _) = open.remove(&window).expect("window is open");
        finalized.insert(window, partial);
        trace.push(trace_kind::WINDOW_CLOSE, window, 0, 0);
    }
}

/// Merges the stage reports of one run — however its stages were deployed,
/// threads in one process or processes on a network — into the final
/// [`EngineResult`] and merged window map.
///
/// `worker_reports` must be indexed by worker; aggregator reports may come
/// in any order (their window sets are disjoint by sharding, and the merge
/// is associative and commutative anyway). `source_reports` carry the sent
/// counts, the per-source elasticity decision logs
/// ([`ControllerMetrics::merged`] sorts them into the canonical
/// (source, window) order), and the sources' trace/transport shares; the
/// run's merged trace is sorted canonically and the per-stage transport
/// counters are summed here.
pub fn assemble_result<A>(
    plan: &StagePlan,
    aggregate: &A,
    source_reports: Vec<SourceStageReport>,
    worker_reports: Vec<WorkerStageReport>,
    aggregator_reports: Vec<AggregatorStageReport<A::Partial>>,
    elapsed_secs: f64,
) -> WindowedRun<A::Partial>
where
    A: WindowAggregate<KeyId>,
{
    let n_phases = plan.phases.len();
    let mut controller_events = Vec::new();
    let mut trace: Vec<TraceEvent> = Vec::new();
    let mut transport = TransportStats::default();
    for report in source_reports {
        controller_events.extend(report.controller_events);
        trace.extend(report.trace);
        transport.source.merge(&report.transport);
    }
    let mut processed = 0u64;
    let mut worker_counts = Vec::with_capacity(plan.spawned_workers);
    let mut worker_state_keys = Vec::with_capacity(plan.spawned_workers);
    let mut worker_windows_closed = Vec::with_capacity(plan.spawned_workers);
    let mut phase_matrix = PhaseLoadMatrix::new(n_phases, plan.spawned_workers);
    let mut phase_latencies: Vec<Vec<LatencyTracker>> = (0..n_phases).map(|_| Vec::new()).collect();
    let mut phase_spans: Vec<Option<(u64, u64)>> = vec![None; n_phases];
    let mut worker_recovery = RecoveryMetrics::default();
    for (w, report) in worker_reports.into_iter().enumerate() {
        processed += report.processed;
        worker_counts.push(report.processed);
        worker_state_keys.push(report.state_keys);
        worker_windows_closed.push(report.windows_closed);
        worker_recovery = worker_recovery.merged(report.recovery);
        trace.extend(report.trace);
        transport.worker.merge(&report.transport);
        for (p, tracker) in report.phase_latencies.into_iter().enumerate() {
            phase_matrix.add(p, w, report.phase_counts[p]);
            phase_latencies[p].push(tracker);
        }
        for (p, span) in report.phase_spans.into_iter().enumerate() {
            if let Some((first, last)) = span {
                let merged_span = phase_spans[p].get_or_insert((first, last));
                merged_span.0 = merged_span.0.min(first);
                merged_span.1 = merged_span.1.max(last);
            }
        }
    }

    let mut windows: BTreeMap<WindowId, A::Partial> = BTreeMap::new();
    let mut aggregator_latencies = Vec::with_capacity(plan.aggregators);
    let mut partials_merged = 0u64;
    let mut partials_deduped = 0u64;
    let mut partials_transport_errors = 0u64;
    for report in aggregator_reports {
        partials_merged += report.merged;
        partials_deduped += report.duplicates_dropped;
        partials_transport_errors += report.transport_errors;
        trace.extend(report.trace);
        transport.aggregator.merge(&report.transport);
        aggregator_latencies.push(report.latencies);
        for (window, partial) in report.finalized {
            match windows.entry(window) {
                Entry::Vacant(slot) => {
                    slot.insert(partial);
                }
                Entry::Occupied(mut slot) => aggregate.merge(slot.get_mut(), partial),
            }
        }
    }
    // `<=`, not `==`: a worker excluded mid-run after exhausting its
    // respawn budget legitimately closes fewer windows than the run has
    // (its report is synthesized empty); no worker can ever close MORE.
    debug_assert!(
        worker_windows_closed
            .iter()
            .all(|&w| w <= windows.len() as u64),
        "no worker closes more windows than the run has"
    );

    // Grouped by worker across phases, so the "max avg" statistic keeps the
    // paper's per-worker semantics without copying every sample.
    let latency = LatencyTracker::summarize_by_worker(&phase_latencies);
    let mut latency_histogram = LogHistogram::new();
    for tracker in phase_latencies.iter().flatten() {
        latency_histogram.merge(tracker.histogram());
    }
    let throughput_eps = if elapsed_secs > 0.0 {
        processed as f64 / elapsed_secs
    } else {
        0.0
    };
    let phases_out: Vec<PhaseMetrics> = plan
        .phases
        .iter()
        .enumerate()
        .map(|(p, phase)| {
            let span_secs = phase_spans[p]
                .map(|(first, last)| last.saturating_sub(first) as f64 / 1e6)
                .unwrap_or(0.0);
            // With an elasticity controller the phase's configured worker
            // count is only the starting point — the controller may have
            // activated workers beyond it mid-phase — so the per-phase view
            // covers the whole spawned universe instead.
            let phase_width = if plan.controller.is_some() {
                plan.spawned_workers
            } else {
                phase.workers
            };
            PhaseMetrics {
                phase: p,
                workers: phase_width,
                start_window: phase.start_window,
                windows: phase.windows,
                worker_counts: phase_matrix.phase_counts(p)[..phase_width].to_vec(),
                imbalance: phase_matrix.phase_imbalance(p, phase_width),
                stage: StageMetrics::new(
                    phase_matrix.phase_total(p),
                    span_secs,
                    LatencyTracker::summarize(&phase_latencies[p]),
                ),
            }
        })
        .collect();
    let result = EngineResult {
        scheme: plan.kind.symbol().to_string(),
        skew: plan.skew,
        processed,
        elapsed_secs,
        throughput_eps,
        latency,
        imbalance: slb_core::imbalance(&worker_counts),
        worker_counts,
        worker_state_keys,
        window_size: plan.window_size,
        aggregators: plan.aggregators,
        windows: windows.len() as u64,
        phases: phases_out,
        worker_stage: StageMetrics::with_recovery(
            processed,
            elapsed_secs,
            latency,
            worker_recovery,
        ),
        aggregator_stage: StageMetrics::with_recovery(
            partials_merged,
            elapsed_secs,
            LatencyTracker::summarize(&aggregator_latencies),
            RecoveryMetrics {
                duplicates_dropped: partials_deduped,
                transport_errors: partials_transport_errors,
                ..RecoveryMetrics::default()
            },
        ),
        controller: ControllerMetrics::merged(controller_events),
        trace: {
            sort_canonical(&mut trace);
            trace
        },
        transport,
        latency_histogram,
    };
    WindowedRun { result, windows }
}

/// Executes a resolved plan over the given transport: the engine's single
/// in-process run loop, shared by the one-phase and scenario paths. Spawns
/// one thread per stage instance, each running the corresponding public
/// stage function, and assembles their reports.
fn run_plan<A, F, S, T>(
    plan: &StagePlan,
    streams: Arc<F>,
    aggregate: A,
    transport: &T,
) -> WindowedRun<A::Partial>
where
    A: WindowAggregate<KeyId>,
    A::Partial: WirePartial,
    F: Fn(usize, usize) -> S + Send + Sync + 'static,
    S: KeyStream + Clone + Send,
    T: Transport<A::Partial>,
{
    // The queue capacity is configured in tuples; the channels carry
    // batches, so convert through the one shared helper.
    let capacity_batches = capacity_in_batches(plan.queue_capacity, plan.batch_size);
    let (senders, receivers) = transport.tuple_channels(plan.spawned_workers, capacity_batches);
    let (partial_senders, partial_receivers) = transport.partial_channels(
        plan.aggregators,
        partial_channel_capacity(plan.spawned_workers),
    );
    let (feedback_senders, feedback_receivers) = transport.feedback_channels(
        plan.sources,
        feedback_channel_capacity(plan.spawned_workers),
    );
    // Transports that care about cache affinity (the SPSC backend) hand
    // back a deterministic thread → core map; each stage thread applies
    // its own pin, best-effort, as the first thing it does.
    let pinning = transport.core_pinning(plan.sources, plan.spawned_workers, plan.aggregators);

    let start = Instant::now();

    let mut aggregator_handles = Vec::with_capacity(plan.aggregators);
    for (agg_idx, receiver) in partial_receivers.into_iter().enumerate() {
        let aggregate = aggregate.clone();
        let workers = plan.spawned_workers;
        let telemetry = plan.telemetry;
        aggregator_handles.push(thread::spawn(move || {
            if let Some(p) = pinning {
                p.pin_current_thread(StageRole::Aggregator, agg_idx);
            }
            run_aggregator_stage(workers, &aggregate, receiver, agg_idx, telemetry)
        }));
    }

    let mut worker_handles = Vec::with_capacity(plan.spawned_workers);
    for (worker_idx, receiver) in receivers.into_iter().enumerate() {
        let plan = plan.clone();
        let aggregate = aggregate.clone();
        let partial_senders = partial_senders.clone();
        let feedback_senders = feedback_senders.clone();
        worker_handles.push(thread::spawn(move || {
            if let Some(p) = pinning {
                p.pin_current_thread(StageRole::Worker, worker_idx);
            }
            run_worker_stage_recoverable(
                &plan,
                worker_idx,
                start,
                &aggregate,
                receiver,
                &partial_senders,
                feedback_senders,
            )
        }));
    }
    // The workers hold their own clones of the partial and feedback
    // senders.
    drop(partial_senders);
    drop(feedback_senders);

    let mut source_handles = Vec::with_capacity(plan.sources);
    for (source_idx, feedback) in feedback_receivers.into_iter().enumerate() {
        let plan = plan.clone();
        let senders = senders.clone();
        let streams = streams.clone();
        source_handles.push(thread::spawn(move || {
            if let Some(p) = pinning {
                p.pin_current_thread(StageRole::Source, source_idx);
            }
            run_source_stage_recoverable(
                &plan,
                source_idx,
                |phase| (streams)(phase, source_idx),
                &senders,
                Some(feedback),
            )
        }));
    }
    // Drop the topology's own copies so workers terminate when sources do.
    drop(senders);

    let source_reports: Vec<SourceStageReport> = source_handles
        .into_iter()
        .map(|h| h.join().expect("source thread panicked"))
        .collect();
    let sent_total: u64 = source_reports.iter().map(|r| r.sent).sum();
    let worker_reports: Vec<WorkerStageReport> = worker_handles
        .into_iter()
        .map(|h| h.join().expect("worker thread panicked"))
        .collect();
    let aggregator_reports: Vec<AggregatorStageReport<A::Partial>> = aggregator_handles
        .into_iter()
        .map(|h| h.join().expect("aggregator thread panicked"))
        .collect();
    let elapsed = start.elapsed().as_secs_f64();

    let processed: u64 = worker_reports.iter().map(|r| r.processed).sum();
    debug_assert_eq!(sent_total, processed, "every sent tuple must be processed");

    assemble_result(
        plan,
        &aggregate,
        source_reports,
        worker_reports,
        aggregator_reports,
        elapsed,
    )
}

/// Runs one engine experiment per grouping scheme in `schemes`, all on the
/// same workload, and returns the results in the same order.
pub fn compare_schemes(base: &EngineConfig, schemes: &[PartitionerKind]) -> Vec<EngineResult> {
    schemes
        .iter()
        .map(|&kind| {
            let mut cfg = base.clone();
            cfg.kind = kind;
            Topology::new(cfg).run()
        })
        .collect()
}

/// Runs one scenario per grouping scheme in `schemes`, all on the same
/// scenario spec, and returns the results in the same order.
pub fn compare_schemes_scenario(
    base: &ScenarioConfig,
    schemes: &[PartitionerKind],
) -> Vec<EngineResult> {
    schemes
        .iter()
        .map(|&kind| base.clone().with_kind(kind).run())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use slb_core::{SumAggregate, TopKAggregate};
    use slb_sketch::FrequencyEstimator;
    use slb_workloads::ScenarioPhase;

    /// [`CountAggregate`]'s partial type, spelled once for the supervised
    /// stage tests that wire transports by hand.
    type CountPartial = std::collections::HashMap<KeyId, u64>;

    #[test]
    fn stage_plan_clamps_batch_size_to_queue_capacity() {
        // A queue bound below the batch size must win: batch 256 against a
        // queue of 8 used to buffer 2 × 256 tuples (the two-batch floor of
        // `capacity_in_batches`), 64× the requested bound.
        let plan = EngineConfig::smoke(PartitionerKind::Pkg, 1.4)
            .with_queue_capacity(8)
            .stage_plan();
        assert_eq!(plan.batch_size, 8);
        assert_eq!(capacity_in_batches(plan.queue_capacity, plan.batch_size), 2);
        // A roomy queue leaves the configured batch size alone.
        let plan = EngineConfig::smoke(PartitionerKind::Pkg, 1.4)
            .with_queue_capacity(1024)
            .stage_plan();
        assert_eq!(plan.batch_size, DEFAULT_BATCH_SIZE);
        // Equality is a no-op, not an off-by-one.
        let plan = EngineConfig::smoke(PartitionerKind::Pkg, 1.4)
            .with_batch_size(64)
            .with_queue_capacity(64)
            .stage_plan();
        assert_eq!(plan.batch_size, 64);
    }

    #[test]
    fn trace_is_deterministic_across_reruns_and_empty_when_disabled() {
        let topo = Topology::new(EngineConfig::smoke(PartitionerKind::Pkg, 1.2));
        let first = topo.run_windowed(CountAggregate).result;
        let second = topo.run_windowed(CountAggregate).result;
        assert!(!first.trace.is_empty());
        assert_eq!(first.trace, second.trace);
        // Every stage contributed: sources and aggregators log one
        // WINDOW_CLOSE per window, workers log one close + one checkpoint.
        for stage in [
            trace_stage::SOURCE,
            trace_stage::WORKER,
            trace_stage::AGGREGATOR,
        ] {
            assert!(
                first.trace.iter().any(|e| e.stage == stage),
                "stage {stage} missing from trace"
            );
        }
        // Transport counters saw the run's traffic.
        assert_eq!(first.transport.source.tuples_sent, first.processed);
        assert_eq!(first.transport.worker.tuples_received, first.processed);
        let off = topo.run_windowed_without_telemetry(CountAggregate).result;
        assert!(off.trace.is_empty());
        assert_eq!(off.transport, TransportStats::default());
        // Telemetry never changes the computation itself.
        assert_eq!(off.processed, first.processed);
        assert_eq!(off.worker_counts, first.worker_counts);
    }

    #[test]
    fn scenario_stage_plan_clamps_batch_size_to_queue_capacity() {
        let scenario = Scenario::new("clamp", 2, 128, 7).phase(ScenarioPhase::new(1, 100, 1.0, 2));
        let mut cfg = ScenarioConfig::new(PartitionerKind::Pkg, scenario);
        cfg.batch_size = 1000;
        cfg.queue_capacity = 32;
        assert_eq!(cfg.stage_plan().batch_size, 32);
    }

    #[test]
    fn clamped_batch_size_preserves_merged_windows() {
        // Shrinking the effective batch reshapes transport framing only:
        // merged window contents must be bit-identical to the default run.
        let base = EngineConfig::smoke(PartitionerKind::Pkg, 1.4).with_service_time_us(0);
        let small_queue =
            Topology::new(base.clone().with_queue_capacity(8)).run_windowed(CountAggregate);
        let default_queue = Topology::new(base).run_windowed(CountAggregate);
        assert_eq!(small_queue.windows, default_queue.windows);
        assert_eq!(small_queue.result.processed, default_queue.result.processed);
    }

    #[test]
    fn smoke_run_processes_every_message() {
        let cfg = EngineConfig::smoke(PartitionerKind::Pkg, 1.4);
        let result = Topology::new(cfg.clone()).run();
        assert_eq!(
            result.processed,
            (cfg.messages / cfg.sources as u64) * cfg.sources as u64
        );
        assert_eq!(result.worker_counts.len(), cfg.workers);
        assert!(result.throughput_eps > 0.0);
        assert!(result.latency.samples > 0);
        assert_eq!(result.latency.samples, result.processed);
        assert_eq!(result.scheme, "PKG");
        // The aggregation stage ran: every window finalized, one partial per
        // worker per shard per window merged.
        let per_source = cfg.messages / cfg.sources as u64;
        assert_eq!(result.windows, per_source.div_ceil(cfg.window_size));
        assert_eq!(
            result.aggregator_stage.items,
            result.windows * (cfg.workers * cfg.aggregators) as u64
        );
        assert!(result.aggregator_stage.latency.samples > 0);
        assert_eq!(result.worker_stage.items, result.processed);
    }

    #[test]
    fn single_phase_run_reports_one_phase_covering_the_whole_run() {
        let cfg = EngineConfig::smoke(PartitionerKind::DChoices, 1.6).with_service_time_us(0);
        let result = Topology::new(cfg.clone()).run();
        assert_eq!(result.phases.len(), 1);
        let phase = &result.phases[0];
        assert_eq!(phase.phase, 0);
        assert_eq!(phase.workers, cfg.workers);
        assert_eq!(phase.start_window, 0);
        assert_eq!(phase.stage.items, result.processed);
        assert_eq!(phase.worker_counts, result.worker_counts);
        assert!((phase.imbalance - result.imbalance).abs() < 1e-12);
        assert_eq!(phase.stage.latency.samples, result.latency.samples);
    }

    #[test]
    fn key_grouping_keeps_state_compact_but_unbalanced() {
        // Under heavy skew, KG holds each key on exactly one worker (minimal
        // state) but its processed-count imbalance is large compared to SG.
        let kg = Topology::new(EngineConfig::smoke(PartitionerKind::KeyGrouping, 2.0)).run();
        let sg = Topology::new(EngineConfig::smoke(PartitionerKind::ShuffleGrouping, 2.0)).run();
        assert!(kg.imbalance > sg.imbalance);
        assert!(kg.total_state_replicas() <= sg.total_state_replicas());
    }

    #[test]
    fn w_choices_balances_better_than_pkg_under_extreme_skew() {
        let pkg = Topology::new(EngineConfig::smoke(PartitionerKind::Pkg, 2.0)).run();
        let wc = Topology::new(EngineConfig::smoke(PartitionerKind::WChoices, 2.0)).run();
        assert!(
            wc.imbalance <= pkg.imbalance + 1e-9,
            "W-C imbalance {} vs PKG {}",
            wc.imbalance,
            pkg.imbalance
        );
    }

    #[test]
    fn compare_schemes_returns_one_result_per_scheme() {
        let base = EngineConfig::smoke(PartitionerKind::Pkg, 1.4).with_messages(4_000);
        let results = compare_schemes(
            &base,
            &[
                PartitionerKind::KeyGrouping,
                PartitionerKind::ShuffleGrouping,
            ],
        );
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].scheme, "KG");
        assert_eq!(results[1].scheme, "SG");
    }

    #[test]
    fn zero_service_time_is_supported() {
        let cfg = EngineConfig::smoke(PartitionerKind::ShuffleGrouping, 1.0)
            .with_messages(8_000)
            .with_service_time_us(0);
        let r = Topology::new(cfg).run();
        assert_eq!(r.processed, 8_000);
    }

    #[test]
    fn partial_final_batches_are_flushed() {
        // A message count that is not a multiple of the batch size (and a
        // batch size larger than some workers' share) must still deliver
        // every tuple, with samples matching processed.
        for batch in [1usize, 3, 7, 256, 100_000] {
            let cfg = EngineConfig::smoke(PartitionerKind::Pkg, 1.4)
                .with_messages(10_001)
                .with_service_time_us(0)
                .with_batch_size(batch);
            let sources = cfg.sources as u64;
            let r = Topology::new(cfg).run();
            assert_eq!(r.processed, (10_001 / sources) * sources, "batch={batch}");
            assert_eq!(r.latency.samples, r.processed, "batch={batch}");
        }
    }

    #[test]
    fn batch_size_does_not_change_routing_decisions() {
        // The transport batch size is invisible to the grouping scheme: the
        // per-worker tuple counts and per-worker state footprints must be
        // identical whether tuples travel one at a time or 256 at a time.
        for kind in [
            PartitionerKind::Pkg,
            PartitionerKind::DChoices,
            PartitionerKind::ShuffleGrouping,
        ] {
            let base = EngineConfig::smoke(kind, 1.8)
                .with_messages(12_000)
                .with_service_time_us(0);
            let scalar = Topology::new(base.clone().with_batch_size(1)).run();
            let batched = Topology::new(base.with_batch_size(256)).run();
            assert_eq!(
                scalar.worker_counts, batched.worker_counts,
                "{kind:?} per-worker counts changed with batch size"
            );
            assert_eq!(
                scalar.worker_state_keys, batched.worker_state_keys,
                "{kind:?} per-worker state changed with batch size"
            );
        }
    }

    #[test]
    fn windowed_count_run_covers_every_tuple_once() {
        let cfg = EngineConfig::smoke(PartitionerKind::Pkg, 1.4)
            .with_service_time_us(0)
            .with_window_size(512);
        let per_source = cfg.messages / cfg.sources as u64;
        let sources = cfg.sources as u64;
        let run = Topology::new(cfg).run_windowed(CountAggregate);
        assert_eq!(run.windows.len() as u64, per_source.div_ceil(512));
        let total: u64 = run.windows.values().flat_map(|w| w.values()).sum();
        assert_eq!(total, run.result.processed);
        // Every full window carries sources × window_size tuples exactly.
        for (window, counts) in &run.windows {
            let tuples: u64 = counts.values().sum();
            if (window + 1) * 512 <= per_source {
                assert_eq!(tuples, 512 * sources, "window {window}");
            }
        }
    }

    #[test]
    fn windowed_sum_and_top_k_aggregates_run_end_to_end() {
        let cfg = EngineConfig::smoke(PartitionerKind::WChoices, 2.0)
            .with_messages(6_000)
            .with_service_time_us(0)
            .with_window_size(1_000);
        let sum = Topology::new(cfg.clone()).run_windowed(SumAggregate);
        let per_window: u64 = cfg.window_size * cfg.sources as u64;
        for (&window, &tuples) in &sum.windows {
            assert_eq!(tuples, per_window, "window {window}");
        }
        let topk = Topology::new(cfg.clone()).run_windowed(TopKAggregate::new(64));
        for summary in topk.windows.values() {
            assert_eq!(summary.total(), per_window);
            // Under z=2.0 the hottest key dominates; it must be monitored.
            assert!(summary.sorted_counters()[0].count > per_window / 10);
        }
    }

    #[test]
    fn aggregator_shard_count_does_not_change_merged_windows() {
        let base = EngineConfig::smoke(PartitionerKind::DChoices, 1.8)
            .with_messages(8_000)
            .with_service_time_us(0)
            .with_window_size(750);
        let one = Topology::new(base.clone().with_aggregators(1)).run_windowed(CountAggregate);
        let three = Topology::new(base.with_aggregators(3)).run_windowed(CountAggregate);
        assert_eq!(one.windows, three.windows);
    }

    /// A small scenario exercising scale-out, drift, heterogeneity, and a
    /// burst phase at test speed.
    fn small_scenario(seed: u64) -> Scenario {
        Scenario::new("unit", 2, 256, seed)
            .phase(ScenarioPhase::new(2, 400, 1.8, 3))
            .phase(
                ScenarioPhase::new(2, 400, 1.2, 5)
                    .with_drift_epochs(2)
                    .with_worker_speed(vec![2.0, 1.0, 1.0, 1.0, 1.0]),
            )
            .phase(
                ScenarioPhase::new(1, 200, 0.0, 2).with_arrival(Arrival::Bursty {
                    burst_tuples: 128,
                    pause_us: 10,
                }),
            )
    }

    #[test]
    fn scenario_run_processes_every_tuple_and_reports_phases() {
        let scenario = small_scenario(7);
        let expected = scenario.total_tuples();
        let result = ScenarioConfig::new(PartitionerKind::Pkg, scenario.clone()).run();
        assert_eq!(result.processed, expected);
        assert_eq!(result.phases.len(), 3);
        assert_eq!(result.worker_counts.len(), scenario.max_workers());
        assert_eq!(result.windows, scenario.total_windows());
        for (p, phase) in result.phases.iter().enumerate() {
            assert_eq!(phase.phase, p);
            assert_eq!(phase.workers, scenario.phases[p].workers);
            assert_eq!(phase.start_window, scenario.phase_start_window(p));
            assert_eq!(
                phase.stage.items,
                scenario.phase_tuples_per_source(p) * scenario.sources as u64
            );
            assert_eq!(phase.worker_counts.len(), phase.workers);
            assert_eq!(phase.stage.items, phase.worker_counts.iter().sum::<u64>());
            assert!(phase.imbalance >= 0.0);
        }
        let phase_total: u64 = result.phases.iter().map(|p| p.stage.items).sum();
        assert_eq!(phase_total, result.processed);
        assert_eq!(result.latency.samples, result.processed);
    }

    #[test]
    fn scenario_tuples_never_route_outside_the_active_set() {
        // Phase 2 scales in to 2 workers: the scale-in phase must route
        // nothing to workers 2..5 even though they were active in phase 1.
        let result = ScenarioConfig::new(PartitionerKind::WChoices, small_scenario(11)).run();
        let scale_in = &result.phases[2];
        assert_eq!(scale_in.workers, 2);
        assert_eq!(
            scale_in.worker_counts.iter().sum::<u64>(),
            scale_in.stage.items
        );
    }

    #[test]
    fn sub_batch_bursts_preserve_counts_and_windows() {
        // Bursts smaller than the transport batch cap the key-buffer chunks,
        // so every burst boundary is observed; routing, counts, and windows
        // must be identical to the steady run of the same spec.
        let steady =
            Scenario::single_phase("steady", 2, 256, 13, ScenarioPhase::new(3, 300, 1.6, 4));
        let mut bursty = steady.clone();
        bursty.phases[0].arrival = Arrival::Bursty {
            burst_tuples: 64, // default batch_size is 256
            pause_us: 1,
        };
        let a = ScenarioConfig::new(PartitionerKind::Pkg, steady).run_windowed(CountAggregate);
        let b = ScenarioConfig::new(PartitionerKind::Pkg, bursty).run_windowed(CountAggregate);
        assert_eq!(a.windows, b.windows);
        assert_eq!(a.result.worker_counts, b.result.worker_counts);
        assert_eq!(b.result.processed, 2 * 3 * 256);
    }

    #[test]
    fn scenario_reruns_are_deterministic() {
        let cfg = ScenarioConfig::new(PartitionerKind::DChoices, small_scenario(3));
        let a = cfg.run_windowed(CountAggregate);
        let b = cfg.run_windowed(CountAggregate);
        assert_eq!(a.windows, b.windows);
        assert_eq!(a.result.worker_counts, b.result.worker_counts);
        for (x, y) in a.result.phases.iter().zip(&b.result.phases) {
            assert_eq!(x.worker_counts, y.worker_counts);
            assert_eq!(x.imbalance.to_bits(), y.imbalance.to_bits());
        }
    }

    #[test]
    fn compare_schemes_scenario_labels_results() {
        let base = ScenarioConfig::new(PartitionerKind::Pkg, small_scenario(5));
        let results = compare_schemes_scenario(
            &base,
            &[PartitionerKind::KeyGrouping, PartitionerKind::WChoices],
        );
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].scheme, "KG");
        assert_eq!(results[1].scheme, "W-C");
    }

    #[test]
    fn explicit_inproc_transport_matches_default_run() {
        // run_windowed_on(&InProc) is the same loop as run_windowed; counts
        // and windows must match exactly.
        let cfg = EngineConfig::smoke(PartitionerKind::DChoices, 1.8)
            .with_messages(8_000)
            .with_service_time_us(0);
        let implicit = Topology::new(cfg.clone()).run_windowed(CountAggregate);
        let explicit = Topology::new(cfg).run_windowed_on(CountAggregate, &InProc);
        assert_eq!(implicit.windows, explicit.windows);
        assert_eq!(implicit.result.worker_counts, explicit.result.worker_counts);
    }

    #[test]
    fn stage_plan_is_a_pure_function_of_the_config() {
        let cfg = EngineConfig::smoke(PartitionerKind::Pkg, 1.4);
        let a = cfg.stage_plan();
        let b = cfg.stage_plan();
        assert_eq!(a.phases.len(), 1);
        assert_eq!(a.phases[0].tuples_per_source, b.phases[0].tuples_per_source);
        assert_eq!(a.phases[0].windows, b.phases[0].windows);
        assert_eq!(a.spawned_workers, cfg.workers);
        let scenario_cfg = ScenarioConfig::new(PartitionerKind::WChoices, small_scenario(9));
        let plan = scenario_cfg.stage_plan();
        assert_eq!(plan.phases.len(), 3);
        assert_eq!(plan.spawned_workers, 5);
        assert_eq!(*plan.phase_starts, vec![0, 2, 4]);
    }

    #[test]
    fn recovery_counters_are_quiet_on_plain_runs() {
        let cfg = EngineConfig::smoke(PartitionerKind::Pkg, 1.4).with_service_time_us(0);
        let run = Topology::new(cfg).run_windowed(CountAggregate);
        assert!(run.result.worker_stage.recovery.is_quiet());
        assert_eq!(run.result.aggregator_stage.recovery.duplicates_dropped, 0);
    }

    #[test]
    fn no_fault_plan_is_bit_identical_to_plain_run() {
        let cfg = EngineConfig::smoke(PartitionerKind::DChoices, 1.8)
            .with_messages(8_000)
            .with_service_time_us(0);
        let plain = Topology::new(cfg.clone()).run_windowed(CountAggregate);
        let faulted =
            Topology::new(cfg).run_windowed_faulted_on(CountAggregate, &InProc, &FaultPlan::none());
        assert_eq!(plain.windows, faulted.windows);
        assert_eq!(plain.result.worker_counts, faulted.result.worker_counts);
        assert!(faulted.result.worker_stage.recovery.is_quiet());
    }

    #[test]
    fn killed_worker_recovers_to_identical_windows() {
        let cfg = EngineConfig::smoke(PartitionerKind::Pkg, 1.4)
            .with_messages(12_000)
            .with_service_time_us(0)
            .with_window_size(512);
        let clean = Topology::new(cfg.clone()).run_windowed(CountAggregate);
        let faults = FaultPlan::none().kill_worker(0, 700).kill_worker(1, 1_500);
        let hurt = Topology::new(cfg).run_windowed_faulted_on(CountAggregate, &InProc, &faults);
        assert_eq!(clean.windows, hurt.windows, "kill changed merged windows");
        assert_eq!(clean.result.worker_counts, hurt.result.worker_counts);
        assert_eq!(
            clean.result.worker_state_keys,
            hurt.result.worker_state_keys
        );
        let recovery = &hurt.result.worker_stage.recovery;
        assert_eq!(recovery.restores, 2, "both scheduled kills must fire");
        assert!(recovery.replay_requests > 0);
        // Closed windows are never re-finalized: recovery replays only the
        // open window, so the aggregator sees no duplicate partials.
        assert_eq!(hurt.result.aggregator_stage.recovery.duplicates_dropped, 0);
        // Timing-only trackers survive the simulated crash, so replayed
        // tuples add samples on top of the processed count.
        assert!(hurt.result.latency.samples >= hurt.result.processed);
    }

    #[test]
    fn dropped_connection_recovers_via_gap_replay() {
        let cfg = EngineConfig::smoke(PartitionerKind::ShuffleGrouping, 1.2)
            .with_messages(10_000)
            .with_service_time_us(0)
            .with_batch_size(64);
        let clean = Topology::new(cfg.clone()).run_windowed(CountAggregate);
        let faults = FaultPlan::none().drop_connection(0, 1, 3, 2);
        let hurt = Topology::new(cfg).run_windowed_faulted_on(CountAggregate, &InProc, &faults);
        assert_eq!(clean.windows, hurt.windows, "loss changed merged windows");
        assert_eq!(clean.result.worker_counts, hurt.result.worker_counts);
        let recovery = &hurt.result.worker_stage.recovery;
        assert!(recovery.replay_requests > 0, "gap must request replay");
        assert!(recovery.replayed_items > 0, "replay must redeliver tuples");
        assert_eq!(recovery.restores, 0, "no worker was killed");
    }

    #[test]
    fn scenario_survives_faults_with_identical_windows() {
        let scenario = small_scenario(17);
        let cfg = ScenarioConfig::new(PartitionerKind::WChoices, scenario);
        let clean = cfg.run_windowed(CountAggregate);
        let faults = FaultPlan::none()
            .kill_worker(0, 150)
            .drop_connection(1, 1, 2, 1);
        let hurt = cfg.run_windowed_faulted_on(CountAggregate, &InProc, &faults);
        assert_eq!(clean.windows, hurt.windows);
        assert_eq!(clean.result.worker_counts, hurt.result.worker_counts);
        assert!(hurt.result.worker_stage.recovery.restores >= 1);
    }

    #[test]
    fn faulted_reruns_are_deterministic() {
        let cfg = EngineConfig::smoke(PartitionerKind::DChoices, 1.6)
            .with_messages(9_000)
            .with_service_time_us(0);
        let faults = FaultPlan::none()
            .kill_worker(2, 400)
            .drop_connection(1, 0, 1, 3);
        let a =
            Topology::new(cfg.clone()).run_windowed_faulted_on(CountAggregate, &InProc, &faults);
        let b = Topology::new(cfg).run_windowed_faulted_on(CountAggregate, &InProc, &faults);
        assert_eq!(a.windows, b.windows);
        assert_eq!(a.result.worker_counts, b.result.worker_counts);
    }

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn out_of_range_fault_plan_panics() {
        let cfg = EngineConfig::smoke(PartitionerKind::Pkg, 1.0);
        let faults = FaultPlan::none().kill_worker(999, 10);
        let _ = Topology::new(cfg).run_windowed_faulted_on(CountAggregate, &InProc, &faults);
    }

    #[test]
    #[should_panic(expected = "invalid scenario")]
    fn invalid_scenario_panics() {
        let scenario = Scenario::new("empty", 2, 64, 1); // no phases
        let _ = ScenarioConfig::new(PartitionerKind::Pkg, scenario).run();
    }

    #[test]
    #[should_panic(expected = "need at least one worker")]
    fn zero_workers_panics() {
        let mut cfg = EngineConfig::smoke(PartitionerKind::Pkg, 1.0);
        cfg.workers = 0;
        let _ = Topology::new(cfg);
    }

    #[test]
    #[should_panic(expected = "at least one tuple")]
    fn zero_batch_size_panics() {
        let cfg = EngineConfig::smoke(PartitionerKind::Pkg, 1.0).with_batch_size(0);
        let _ = Topology::new(cfg);
    }

    #[test]
    #[should_panic(expected = "windows need at least one tuple")]
    fn zero_window_size_panics() {
        let cfg = EngineConfig::smoke(PartitionerKind::Pkg, 1.0).with_window_size(0);
        let _ = Topology::new(cfg);
    }

    #[test]
    #[should_panic(expected = "at least one aggregator")]
    fn zero_aggregators_panics() {
        let cfg = EngineConfig::smoke(PartitionerKind::Pkg, 1.0).with_aggregators(0);
        let _ = Topology::new(cfg);
    }

    /// A single-source, single-worker supervised config whose entire stream
    /// (live + one full replay) fits in the bounded queue, so the test can
    /// drive the source from one thread without a draining peer.
    fn tiny_supervised_config() -> EngineConfig {
        let mut cfg = EngineConfig::smoke(PartitionerKind::Pkg, 1.4)
            .with_messages(2_048)
            .with_service_time_us(0)
            .with_batch_size(64)
            .with_window_size(512);
        cfg.sources = 1;
        cfg.workers = 1;
        cfg.aggregators = 1;
        cfg.queue_capacity = 16_384;
        cfg
    }

    /// Drains messages from an in-proc receiver until `tuples` tuples and
    /// `closes` close markers have arrived, returning them in order.
    fn drain_exactly(
        receiver: &impl TupleReceiver,
        tuples: u64,
        closes: usize,
    ) -> Vec<SourceMessage> {
        let mut got = Vec::new();
        let mut tuple_count = 0u64;
        let mut close_count = 0usize;
        let mut buf = Vec::new();
        while tuple_count < tuples || close_count < closes {
            receiver.recv_batch(&mut buf).expect("stream stays open");
            for message in buf.drain(..) {
                match &message {
                    SourceMessage::Batch(batch) => tuple_count += batch.keys.len() as u64,
                    SourceMessage::CloseWindow { .. } => close_count += 1,
                }
                got.push(message);
            }
        }
        assert_eq!(tuple_count, tuples, "over-delivered tuples");
        assert_eq!(close_count, closes, "over-delivered closes");
        got
    }

    #[test]
    fn supervised_source_replays_full_history_on_rejoin() {
        let cfg = tiny_supervised_config();
        let plan = cfg.stage_plan();
        let windows = plan.total_windows() as usize;
        let (senders, receivers) = <InProc as Transport<CountPartial>>::tuple_channels(
            &InProc,
            1,
            capacity_in_batches(plan.queue_capacity, plan.batch_size),
        );
        let receiver = receivers.into_iter().next().unwrap();
        let (event_tx, event_rx) = crossbeam_channel::bounded(64);
        let reattached = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let reattached_in_source = reattached.clone();
        let stream_cfg = cfg.clone();
        let source = thread::spawn(move || {
            run_source_stage_supervised(
                &cfg.stage_plan(),
                0,
                |_phase| crate::windows::source_stream(&stream_cfg, 0),
                &senders,
                &event_rx,
                |worker| {
                    reattached_in_source.fetch_add(worker + 1, std::sync::atomic::Ordering::SeqCst);
                },
                None,
            )
        });
        // Live emission: the whole stream fits in the queue.
        let live = drain_exactly(&receiver, plan.phases[0].tuples_per_source, windows);
        // The source is now parked in its post-emission wait. A Rejoin from
        // sequence zero must reattach and re-deliver the entire history,
        // bit-for-bit: same sequences, same windows, same batches.
        event_tx
            .send(SourceControlEvent::Rejoin {
                worker: 0,
                from_seq: 0,
            })
            .unwrap();
        let replayed = drain_exactly(&receiver, plan.phases[0].tuples_per_source, windows);
        assert_eq!(reattached.load(std::sync::atomic::Ordering::SeqCst), 1);
        assert_eq!(live.len(), replayed.len());
        for (a, b) in live.iter().zip(&replayed) {
            assert_eq!(a.source_seq(), b.source_seq());
            match (a, b) {
                (SourceMessage::Batch(x), SourceMessage::Batch(y)) => {
                    assert_eq!(x.keys, y.keys);
                    assert_eq!(x.window, y.window);
                }
                (
                    SourceMessage::CloseWindow { window: x, .. },
                    SourceMessage::CloseWindow { window: y, .. },
                ) => assert_eq!(x, y),
                _ => panic!("live and replayed message kinds diverge"),
            }
        }
        event_tx.send(SourceControlEvent::Release).unwrap();
        let sent = source.join().expect("source thread panicked").sent;
        // Replays are re-sends, not new tuples.
        assert_eq!(sent, plan.phases[0].tuples_per_source);
    }

    #[test]
    fn supervised_source_exclusion_reroutes_from_next_window_boundary() {
        let mut cfg = tiny_supervised_config();
        cfg.workers = 2;
        let plan = cfg.stage_plan();
        let windows = plan.total_windows();
        let (senders, receivers) = <InProc as Transport<CountPartial>>::tuple_channels(
            &InProc,
            2,
            capacity_in_batches(plan.queue_capacity, plan.batch_size),
        );
        let mut receivers = receivers.into_iter();
        let (rx0, rx1) = (receivers.next().unwrap(), receivers.next().unwrap());
        let (event_tx, event_rx) = crossbeam_channel::bounded(64);
        // Queued before the source starts: served at the first chunk,
        // applied at the first window boundary.
        event_tx
            .send(SourceControlEvent::Exclude { worker: 1 })
            .unwrap();
        event_tx.send(SourceControlEvent::Release).unwrap();
        let stream_cfg = cfg.clone();
        let source = thread::spawn(move || {
            run_source_stage_supervised(
                &cfg.stage_plan(),
                0,
                |_phase| crate::windows::source_stream(&stream_cfg, 0),
                &senders,
                &event_rx,
                |_| panic!("no rejoin in this test"),
                None,
            )
        });
        let sent = source.join().expect("source thread panicked").sent;
        assert_eq!(sent, plan.phases[0].tuples_per_source);
        // Worker 1 saw only window 0 (its exclusion landed at window 0's
        // boundary): batches and exactly one close, nothing later.
        let mut buf = Vec::new();
        let mut w1_tuples = 0u64;
        let mut w1_closes = 0usize;
        while TupleReceiver::recv_batch(&rx1, &mut buf).is_ok() {
            for message in buf.drain(..) {
                match message {
                    SourceMessage::Batch(batch) => {
                        assert_eq!(batch.window, 0, "excluded worker got a post-boundary batch");
                        w1_tuples += batch.keys.len() as u64;
                    }
                    SourceMessage::CloseWindow { window, .. } => {
                        assert_eq!(window, 0);
                        w1_closes += 1;
                    }
                }
            }
        }
        assert_eq!(w1_closes, 1);
        // Worker 0 saw everything else: all remaining tuples and every
        // window's close.
        let mut w0_tuples = 0u64;
        let mut w0_closes = 0usize;
        while TupleReceiver::recv_batch(&rx0, &mut buf).is_ok() {
            for message in buf.drain(..) {
                match message {
                    SourceMessage::Batch(batch) => w0_tuples += batch.keys.len() as u64,
                    SourceMessage::CloseWindow { .. } => w0_closes += 1,
                }
            }
        }
        assert_eq!(w0_closes as u64, windows);
        assert_eq!(w0_tuples + w1_tuples, plan.phases[0].tuples_per_source);
    }

    #[test]
    fn supervised_aggregator_finalizes_without_an_excluded_worker() {
        let aggregate = CountAggregate;
        let (partial_senders, partial_receivers) =
            <InProc as Transport<CountPartial>>::partial_channels(&InProc, 1, 16);
        let receiver = partial_receivers.into_iter().next().unwrap();
        let (exclude_tx, exclude_rx) = crossbeam_channel::bounded(16);
        let live = Arc::new(HopTelemetry::default());
        let stage_live = Arc::clone(&live);
        let handle = thread::spawn(move || {
            run_aggregator_stage_supervised(
                2,
                3,
                &CountAggregate,
                receiver,
                &exclude_rx,
                0,
                true,
                Some(stage_live),
            )
        });
        let ship = |worker: usize, window: WindowId, key: KeyId, count: u64| {
            let mut partial = aggregate.empty();
            aggregate.observe(&mut partial, &key, count);
            partial_senders[0]
                .send(PartialWindow {
                    window,
                    worker,
                    partial,
                    closed_at: Instant::now(),
                })
                .unwrap();
        };
        // Worker 0 contributes every window; worker 1 dies after window 0.
        ship(0, 0, 7, 2);
        ship(1, 0, 7, 3);
        ship(0, 1, 7, 5);
        ship(0, 2, 9, 1);
        // The exclusion must follow worker 1's window-0 partial *at the
        // aggregator*, not just in this thread's program order: the stage
        // polls exclusions ahead of each receive, so one sent before the
        // partials are taken off the queue would shed that partial.
        while live.batches_received.get() < 4 {
            thread::yield_now();
        }
        exclude_tx.send(1).unwrap();
        // Data-side progress follows the exclusion: close the queue.
        drop(partial_senders);
        let report = handle.join().expect("aggregator thread panicked");
        assert_eq!(report.finalized.len(), 3, "degraded windows must finalize");
        assert_eq!(report.merged, 4);
        assert_eq!(report.finalized[&0][&7], 5);
        assert_eq!(report.finalized[&1][&7], 5);
        assert_eq!(report.finalized[&2][&9], 1);
        assert_eq!(report.transport_errors, 0);
    }

    /// The worker's checkpoint log, driven by hand so every close is
    /// checked: whatever the log holds — a bare base, or a base with any
    /// number of deltas — restoring it gives the live state, a state rebuilt
    /// from it carries on writing a log that still does, and the rebase
    /// rule really produces both shapes at 20 k+ keys (a crash late in such
    /// a run restores from a base plus deltas, several rebases in).
    #[test]
    fn checkpoint_log_restores_the_live_state_at_every_close() {
        let mut store = CheckpointStore::new();
        let mut state: WorkerState<CountPartial> = WorkerState::new(1, 2);
        let mut expected_keys = std::collections::BTreeSet::new();
        let mut rng = 0x5eed_u64;
        let mut next = move || {
            rng = rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = rng;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let (mut bases, mut restores_from_deltas_after_rebases) = (0u64, 0u64);
        for close in 1..=400u64 {
            // One window of tuples, then a head start on the next window,
            // which is still open (with one close marker in) at the close.
            let mut ahead = CountAggregate.empty();
            for tuple in 0..256 {
                let key = next() % 30_000;
                if state.keys.insert(key) {
                    state.since_base.push(key);
                }
                expected_keys.insert(key);
                if tuple >= 200 {
                    CountAggregate.observe(&mut ahead, &key, 1);
                }
            }
            state.processed += 256;
            state.phase_counts[0] += 256;
            state.expected_seq[0] += 5;
            state.expected_seq[1] += 4;
            state.windows_closed = close;
            state.open.clear();
            state.closes.clear();
            state.open.insert(close, ahead.clone());
            state.closes.insert(close, 1);
            let was_base = store.wants_base();
            let record = state.save_checkpoint(7, &mut store);
            assert_eq!(matches!(record, CheckpointRecord::Base(_)), was_base);
            bases += u64::from(was_base);

            let restored = store.restore().expect("a record was just saved");
            assert_eq!(restored.worker, 7);
            assert_eq!(restored.windows_closed, close);
            assert_eq!(restored.processed, state.processed);
            assert_eq!(restored.next_seq, state.expected_seq);
            assert!(
                restored.state_keys.iter().eq(expected_keys.iter()),
                "close {close}"
            );
            assert_eq!(restored.open.len(), 1);
            assert_eq!(restored.open[0].closes_seen, 1);
            let blob = restored.open[0]
                .partial
                .as_ref()
                .expect("the open window saw tuples");
            assert_eq!(
                CountPartial::decode_partial(&mut blob.as_slice()),
                Ok(ahead)
            );

            // Every tenth close the worker "crashes": everything but the
            // store is rebuilt from it, and must carry on as if nothing
            // had happened — including through later rebases.
            if close % 10 == 0 {
                if !was_base && bases >= 3 && expected_keys.len() >= 20_000 {
                    restores_from_deltas_after_rebases += 1;
                }
                state = WorkerState::restore(&restored, 1, 2);
                assert_eq!(state.keys.len(), expected_keys.len());
                assert_eq!(state.open.len(), 1);
                assert_eq!(state.closes[&close], 1);
            }
        }
        assert!(bases >= 5, "only {bases} bases in 400 closes");
        assert!(bases <= 40, "{bases} bases in 400 closes is not amortised");
        assert!(
            restores_from_deltas_after_rebases >= 5,
            "the large-state restores must include base + delta logs"
        );
    }

    /// The cost contract of the checkpoint path: a close writes what the
    /// window changed, not what the worker has ever seen. Every record is
    /// captured off the persist hook and measured exactly — nothing here
    /// depends on timing except *which* closes rebase, and the bound holds
    /// for every such placement:
    ///
    /// * each record is `8 × keys + rest`, where `rest` (counters, cursors,
    ///   open windows) is window-sized;
    /// * a base is only written once the deltas since the last one outweigh
    ///   it, so all bases together cost under the deltas' bytes plus every
    ///   key once more — in total `3 × 8 × state_keys + 2 × Σ rest`.
    ///
    /// A close that snapshots the whole key set costs
    /// `windows × 8 × state_keys` instead, two orders of magnitude past it.
    #[test]
    fn checkpoint_bytes_scale_with_the_windows_not_with_the_state() {
        use slb_core::CheckpointDelta;
        let mut cfg = EngineConfig::smoke(PartitionerKind::ShuffleGrouping, 0.0)
            .with_messages(262_144)
            .with_service_time_us(0)
            .with_batch_size(64)
            .with_window_size(512);
        cfg.keys = 65_536;
        // One source, so a close never finds a later window already open
        // and `rest` is the fixed header: with several, however far one
        // source ran ahead of another is re-encoded at every close, and
        // that (timing-dependent, and unchanged by this design) would be
        // the measurement instead of the key set.
        cfg.sources = 1;
        cfg.workers = 1;
        cfg.aggregators = 1;
        cfg.queue_capacity = 16_384;
        let plan = cfg.stage_plan();
        let windows = plan.total_windows();
        let (senders, receivers) = <InProc as Transport<CountPartial>>::tuple_channels(
            &InProc,
            1,
            capacity_in_batches(plan.queue_capacity, plan.batch_size),
        );
        let receiver = receivers.into_iter().next().unwrap();
        let (partial_senders, partial_receivers) =
            <InProc as Transport<CountPartial>>::partial_channels(
                &InProc,
                1,
                partial_channel_capacity(1),
            );
        let partial_receiver = partial_receivers.into_iter().next().unwrap();
        let sources: Vec<_> = (0..cfg.sources)
            .map(|source| {
                let stream_cfg = cfg.clone();
                let source_plan = plan.clone();
                let senders = senders.clone();
                thread::spawn(move || {
                    run_source_stage(
                        &source_plan,
                        source,
                        |_phase| crate::windows::source_stream(&stream_cfg, source),
                        &senders,
                    )
                })
            })
            .collect();
        drop(senders);
        let sink = thread::spawn(move || {
            let mut buf = Vec::new();
            while PartialReceiver::recv_batch(&partial_receiver, &mut buf).is_ok() {
                buf.clear();
            }
        });
        // (is_base, keys in the record, bytes in the record)
        let mut records: Vec<(bool, u64, u64)> = Vec::new();
        let report = run_worker_stage_durable(
            &plan,
            0,
            Instant::now(),
            &CountAggregate,
            receiver,
            &partial_senders,
            None,
            &mut |record: CheckpointRecord<'_>| {
                let mut bytes = record.bytes();
                let keys = match record {
                    CheckpointRecord::Base(_) => WorkerCheckpoint::decode(&mut bytes)
                        .expect("own base decodes")
                        .state_keys
                        .len(),
                    CheckpointRecord::Delta(_) => CheckpointDelta::decode(&mut bytes)
                        .expect("own delta decodes")
                        .fresh_keys
                        .len(),
                };
                assert!(bytes.is_empty(), "a record is exactly one encoding");
                records.push((
                    matches!(record, CheckpointRecord::Base(_)),
                    keys as u64,
                    record.bytes().len() as u64,
                ));
            },
            None,
        );
        drop(partial_senders);
        for source in sources {
            source.join().expect("source thread panicked");
        }
        sink.join().expect("sink thread panicked");

        assert!(report.state_keys >= 50_000, "{} keys", report.state_keys);
        assert_eq!(report.windows_closed, windows);
        assert_eq!(report.checkpoints, windows);
        assert_eq!(records.len() as u64, windows, "one record per close");
        let bytes: u64 = records.iter().map(|r| r.2).sum();
        assert_eq!(report.checkpoint_bytes, bytes);
        // Every key is announced exactly once by a delta or the first base.
        let first_base_keys = records[0].1;
        let delta_keys: u64 = records.iter().filter(|r| !r.0).map(|r| r.1).sum();
        assert!(records[0].0, "a log starts with a base");
        assert!(first_base_keys + delta_keys <= report.state_keys);
        let rest: u64 = records.iter().map(|r| r.2 - 8 * r.1).sum();
        let bound = 3 * 8 * report.state_keys + 2 * rest;
        assert!(
            bytes <= bound,
            "{bytes} checkpoint bytes over {windows} closes of {} keys exceed {bound}",
            report.state_keys
        );
        // ... which is nowhere near one key-set snapshot per close.
        assert!(bound < windows * 8 * report.state_keys / 50);
        // The rule that earns the bound: never two bases in a row, and the
        // state did outgrow its first bases.
        assert!(records.windows(2).all(|pair| !(pair[0].0 && pair[1].0)));
        assert!(records.iter().filter(|r| r.0).count() >= 3);
    }

    #[test]
    fn durable_worker_restores_from_checkpoint_and_dedups_replay() {
        let cfg = tiny_supervised_config();
        let plan = cfg.stage_plan();
        let windows = plan.total_windows();
        assert!(
            windows >= 3,
            "test needs a base, a delta and a window to replay"
        );
        let per_source = plan.phases[0].tuples_per_source;
        let start = Instant::now();
        // First life: run the full stream through a durable worker,
        // capturing every record the persist hook mirrors out, with
        // whether it was a base.
        type Saved = Vec<(bool, Vec<u8>)>;
        let checkpoints: Arc<std::sync::Mutex<Saved>> = Arc::default();
        let run_once = |initial: Option<&WorkerCheckpoint>| {
            let (senders, receivers) = <InProc as Transport<CountPartial>>::tuple_channels(
                &InProc,
                1,
                capacity_in_batches(plan.queue_capacity, plan.batch_size),
            );
            let receiver = receivers.into_iter().next().unwrap();
            let (partial_senders, partial_receivers) =
                <InProc as Transport<CountPartial>>::partial_channels(
                    &InProc,
                    1,
                    partial_channel_capacity(1),
                );
            let partial_receiver = partial_receivers.into_iter().next().unwrap();
            let stream_cfg = cfg.clone();
            let source_plan = plan.clone();
            let source = thread::spawn(move || {
                run_source_stage(
                    &source_plan,
                    0,
                    |_phase| crate::windows::source_stream(&stream_cfg, 0),
                    &senders,
                )
            });
            let sink = thread::spawn(move || {
                let mut buf = Vec::new();
                let mut merged: BTreeMap<WindowId, u64> = BTreeMap::new();
                while PartialReceiver::recv_batch(&partial_receiver, &mut buf).is_ok() {
                    for pw in buf.drain(..) {
                        *merged.entry(pw.window).or_default() += pw.partial.values().sum::<u64>();
                    }
                }
                merged
            });
            let sink_checkpoints = checkpoints.clone();
            let report = run_worker_stage_durable(
                &plan,
                0,
                start,
                &CountAggregate,
                receiver,
                &partial_senders,
                initial,
                &mut |record: CheckpointRecord<'_>| {
                    let is_base = matches!(record, CheckpointRecord::Base(_));
                    sink_checkpoints
                        .lock()
                        .unwrap()
                        .push((is_base, record.bytes().to_vec()));
                },
                None,
            );
            drop(partial_senders);
            source.join().expect("source thread panicked");
            (report, sink.join().expect("sink thread panicked"))
        };
        let (first_report, first_merged) = run_once(None);
        assert_eq!(first_report.processed, per_source);
        assert_eq!(first_report.windows_closed, windows);
        assert_eq!(first_report.recovery.restores, 0);
        let saved = checkpoints.lock().unwrap().clone();
        assert_eq!(saved.len() as u64, windows, "one persist per window close");
        // A fresh process starts its log with a base, and a base is never
        // followed directly by another (no delta bytes to outweigh it yet).
        assert!(saved[0].0, "the first record of a life is a base");
        assert!(!saved[1].0, "the record after a base is a delta");
        // Second life: restore from the first two closes' records — base
        // plus one delta — and replay the whole stream from sequence zero:
        // everything below the restored cursor must shed as duplicates,
        // everything above must process once, and the merged output must
        // match.
        let checkpoint = WorkerCheckpoint::restore(&saved[0].1, [saved[1].1.as_slice()])
            .expect("a worker's own checkpoint log decodes");
        assert_eq!(checkpoint.windows_closed, 2);
        assert_eq!(
            checkpoint.state_keys.len() as u64,
            {
                let mut seen = std::collections::BTreeSet::new();
                let mut stream = crate::windows::source_stream(&cfg, 0);
                for _ in 0..checkpoint.processed {
                    seen.insert(stream.next_key());
                }
                seen.len() as u64
            },
            "base + delta must hold exactly the keys of the processed prefix"
        );
        let (second_report, second_merged) = run_once(Some(&checkpoint));
        assert_eq!(second_report.recovery.restores, 1);
        assert_eq!(second_report.recovery.replay_requests, 1);
        assert!(second_report.recovery.duplicates_dropped > 0);
        assert_eq!(second_report.processed, per_source);
        assert_eq!(second_report.windows_closed, windows);
        // The restored life re-finalizes only the windows past its
        // checkpoint; merged window totals for those match the first life.
        for (window, total) in &second_merged {
            if *window >= 2 {
                assert_eq!(total, &first_merged[window], "window {window}");
            }
        }
    }
}
