//! Unified telemetry layer for the SLB reproduction.
//!
//! Four pieces, each dependency-free and usable from any crate in the
//! workspace:
//!
//! * [`hist`] — fixed-bucket log₂-linear histograms ([`LogHistogram`],
//!   [`AtomicHistogram`]) with a proven associative/commutative merge and
//!   a ≤ 6.25 % quantile error bound. These are the only storage behind
//!   the engine's latency summaries: no raw sample is retained anywhere.
//! * [`metrics`] — relaxed atomic [`Counter`]s/[`Gauge`]s, the per-hop
//!   transport telemetry a stage updates once per batch
//!   ([`HopTelemetry`]/[`HopStats`]), and the [`MetricsSnapshot`] a node
//!   ships over the control plane for live JSONL export and cluster
//!   rollups.
//! * [`trace`] — deterministic logical trace streams ([`TraceEvent`],
//!   [`TraceBuf`]) keyed by `(stage, instance, seq)` instead of wall
//!   clock, bit-identical across backends, batch sizes, and reruns on
//!   fault-free runs.
//! * [`log`] — a tiny leveled stderr logger driven by `SLB_LOG`, with
//!   fail-fast validation of the knob.
//!
//! See `docs/OBSERVABILITY.md` for the metric catalog, the trace-event
//! schema and determinism argument, and the JSONL export format.

pub mod hist;
pub mod log;
pub mod metrics;
pub mod trace;

pub use hist::{bucket_floor, bucket_index, AtomicHistogram, LogHistogram, NUM_BUCKETS, SUB_BITS};
pub use metrics::{
    Counter, Gauge, HopStats, HopTelemetry, MaxGauge, MetricsSnapshot, RecoveryMetrics,
};
pub use trace::{kind as trace_kind, sort_canonical, TraceBuf, TraceEvent};

/// The one list of stage codes: [`TraceEvent::stage`],
/// [`MetricsSnapshot::stage`] and a node's role byte on the control plane
/// all read it.
pub mod stage {
    pub const SOURCE: u8 = 0;
    pub const WORKER: u8 = 1;
    pub const AGGREGATOR: u8 = 2;
    /// The cluster-wide rollup the orchestrator synthesizes (snapshots only).
    pub const CLUSTER: u8 = 3;
}
