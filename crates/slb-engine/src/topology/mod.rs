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
//! ## Layout: one module and one stage function per role
//!
//! * `config` — [`EngineConfig`] and [`ScenarioConfig`], and the
//!   [`StagePlan`] both resolve into through one shared, validating
//!   builder.
//! * `source` — [`run_source_stage`]. Emission is one driver with a single
//!   `step` (chunk cap → `route_batch` → per-worker batch fill → window
//!   boundary → burst flush), generic over a sink: the live sink ships
//!   every frame, the replay sink re-ships a recovering worker's missing
//!   suffix from a cloned driver. Recovery arrives as
//!   [`SourceControlEvent`]s from a [`SourceControl`]: a std
//!   `mpsc::Receiver<SourceControlEvent>` (in process: the workers hold the
//!   senders) or `slb-node`'s own (the process supervisor's control plane).
//!   Either way a replay request is a `Rejoin` event — there is no
//!   worker → source hop on the data plane.
//! * `worker` — [`run_worker_stage`] and its [`WorkerRecovery`] argument
//!   (in-process senders to the sources' controls, or a process's durable
//!   log and its respawn).
//! * `aggregator` — [`run_aggregator_stage`] and its exclusion queue (a
//!   supervisor's "finalize without this worker"; in process, empty).
//!   Workers and aggregators alike return at the plan's last window.
//! * `runner` — [`Topology`] and the [`ScenarioConfig`] run methods, the
//!   thread-per-stage-instance runner behind them, and [`assemble_result`],
//!   which merges the stages' reports into an [`EngineResult`].
//!
//! Each stage function is the *whole* stage: a multi-process deployment
//! (`slb-net`'s `slb-node`) runs exactly the code the in-process runner
//! threads together, handing it a different recovery argument and a
//! different transport's endpoints.
//!
//! Each also takes the one [`HopTelemetry`](slb_telemetry::HopTelemetry)
//! it updates, by reference: the runner gives every stage thread its own, a
//! node passes the one its metrics ticker reads. What the stage leaves in
//! it is the `transport` of its report — one record, whoever reads it.
//!
//! ## Pluggable transport
//!
//! Every stage is generic over the channel endpoints of a
//! [`Transport`](crate::transport::Transport) (see [`crate::transport`]);
//! routing, windowing, and aggregation never branch on which backend —
//! [`InProc`](crate::transport::InProc), [`Spsc`](crate::spsc::Spsc), or
//! `slb-net`'s TCP — supplied them.
//!
//! ## Phased execution
//!
//! The run loop is phased: internally every run is a sequence of *phases*,
//! each fixing the key distribution, arrival pattern, active worker count,
//! and per-worker service-time multipliers. A plain [`EngineConfig`] run is
//! the one-phase special case; a [`ScenarioConfig`] run executes a
//! [`Scenario`](slb_workloads::Scenario) with as many phases as the spec
//! declares. At each phase boundary every source builds a fresh partitioner
//! for the phase's worker count ([`slb_core::build_partitioner`]) and
//! switches to the phase's key stream. Worker threads are spawned for the
//! *maximum* worker count up front; phases activate a prefix of them, and
//! inactive workers merely relay window punctuation, so the aggregation
//! invariant ("every worker contributes one partial per window") is
//! preserved across scale-out and scale-in. Phases are aligned to window boundaries by construction (see
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
//! with one `recv_batch` call and record one latency value per batch
//! (latency is therefore quantized to batch granularity, and conservatively
//! so — per-tuple wait is never understated).
//! Routing decisions are bit-for-bit identical to the tuple-at-a-time path
//! (see the `batch_equivalence` property tests in `slb-core`), so the
//! grouping-scheme comparison is unchanged while the per-tuple transport
//! cost (a channel round-trip and two `Instant::now()` calls per tuple)
//! drops by roughly the batch size.
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
//! ([`slb_core::WindowAggregate::shard`]), and ships the slices downstream —
//! also in batches, with one timestamp per partial, so the hot path stays
//! allocation-free. Aggregators merge slices as they arrive and declare a
//! window final once every worker has contributed, counting merges and
//! recording close→merge latency as the second stage's metrics.

mod aggregator;
mod config;
mod runner;
mod source;
#[cfg(test)]
mod test_support;
mod worker;

pub use aggregator::{run_aggregator_stage, AggregatorStageReport};
pub use config::{
    EngineConfig, PhasePlan, ScenarioConfig, StagePlan, DEFAULT_AGGREGATORS, DEFAULT_BATCH_SIZE,
    DEFAULT_QUEUE_CAPACITY, DEFAULT_WINDOW_SIZE,
};
pub use runner::{assemble_result, compare_schemes, EngineResult, Topology, TransportStats};
pub use source::{run_source_stage, SourceControl, SourceControlEvent, SourceStageReport};
pub use worker::{run_worker_stage, WorkerRecovery, WorkerStageReport};
