//! A threaded in-process mini-DSPE used for the throughput/latency study.
//!
//! The paper's Figures 13 and 14 come from a deployment on an Apache Storm
//! cluster: 48 sources generate a Zipf stream, 80 workers aggregate it with
//! a fixed 1 ms of CPU work per tuple, and a downstream aggregation stage
//! merges the workers' partial per-key state — the stage that makes key
//! splitting (PKG, D-Choices, W-Choices) *sound*, because splitting is only
//! admissible if something re-unifies the state it scatters. We reproduce
//! the same three-operator topology in process: source threads generate and
//! route tuples through the grouping scheme under study, bounded channels
//! model the workers' input queues, worker threads perform a configurable
//! amount of busy work per tuple while accumulating per-window partial
//! aggregates, and aggregator threads — each owning the windows `w mod A` —
//! merge the partials into the final per-window result.
//!
//! The absolute numbers differ from the paper's cluster, but the comparison
//! between grouping schemes — who saturates first, whose queues grow — is
//! governed by the same mechanism: the most loaded worker is the bottleneck,
//! so a scheme with higher imbalance delivers lower throughput and higher
//! tail latency. The merged windowed output, by contrast, must not depend on
//! the scheme at all: for every scheme, batch size, and aggregator count it
//! is bit-identical to a single-threaded exact count (the
//! `differential` test suite pins this invariant).
//!
//! The run loop is *phased* (see `docs/SCENARIOS.md`): every run executes a
//! sequence of phases, each fixing the key distribution, arrival pattern,
//! active worker count, and per-worker speed multipliers. A plain
//! [`EngineConfig`] run is the one-phase special case; a [`ScenarioConfig`]
//! executes a multi-phase [`slb_workloads::Scenario`] — drifting skew,
//! heterogeneous workers, bursts, and mid-run scale-out — and reports
//! per-phase [`PhaseMetrics`] alongside the run totals. The exactness
//! invariant extends unchanged: scenario runs are pinned against
//! [`exact_scenario_windowed_counts`] by the `scenario_differential` suite.
//!
//! The transport the tuples and partials travel through is *pluggable*
//! (see [`transport`]): the run loop and each of its stages are generic over
//! a [`Transport`] that supplies the channel endpoints for the topology's
//! three hops. [`InProc`] — bounded crossbeam channels — is the default and
//! the reference backend; the `slb-net` crate implements the same contract
//! over TCP sockets, in process and across process boundaries, and proves
//! equivalence with a cross-backend differential suite.
//!
//! * [`topology`] — configuration, the phased three-stage runner, and the
//!   per-stage entry points a distributed deployment composes.
//! * [`transport`] — the transport abstraction and the in-process backend.
//! * [`spsc`] — the lock-free backend: SPSC rings per stage pair and
//!   batch-buffer recycling.
//! * [`windows`] — deterministic tuple-count windows and the exact
//!   single-threaded reference aggregations (config and scenario).
//! * [`latency`] — latency summaries over histograms, per-stage and
//!   per-phase metrics.

pub mod fault;
pub mod latency;
pub mod spsc;
mod sync;
pub mod topology;
pub mod transport;
pub mod windows;

pub use fault::{CheckpointRecord, CheckpointStore, ConnectionDrop, FaultEvent, FaultPlan};
pub use latency::{LatencySummary, PhaseMetrics, StageMetrics};
pub use slb_telemetry::RecoveryMetrics;
pub use spsc::{Spsc, SpscReceiver, SpscSender};
pub use topology::{
    assemble_result, compare_schemes, run_aggregator_stage, run_source_stage, run_worker_stage,
    AggregatorStageReport, EngineConfig, EngineResult, PhasePlan, ScenarioConfig, SourceControl,
    SourceControlEvent, SourceStageReport, StagePlan, Topology, TransportStats, WorkerRecovery,
    WorkerStageReport, DEFAULT_AGGREGATORS, DEFAULT_BATCH_SIZE, DEFAULT_QUEUE_CAPACITY,
    DEFAULT_WINDOW_SIZE,
};
pub use transport::{
    capacity_in_batches, partial_channel_capacity, ChannelClosed, InProc, PartialReceiver,
    PartialSender, PartialWindow, RecvError, SourceMessage, Transport, TransportError, TupleBatch,
    TupleReceiver, TupleSender,
};
pub use windows::{
    diff_windows, exact_scenario_windowed_counts, exact_windowed_counts, window_of, WindowId,
    WindowedRun,
};
