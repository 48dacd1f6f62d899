//! The metrics registry: atomic counters and gauges, per-hop transport
//! telemetry, and the [`MetricsSnapshot`] a node ships to the
//! orchestrator (and the orchestrator merges into cluster rollups and
//! JSONL lines).
//!
//! Everything here is updated *per batch*, never per tuple: a stage
//! amortizes one relaxed atomic add (or a couple) over each 64–256-tuple
//! batch, so the hot-path allocation and synchronization profile is
//! untouched. There is no off switch: the cost is inside every number the
//! repo benchmark reports.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::hist::{AtomicHistogram, LogHistogram};

/// A monotonically increasing relaxed atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value gauge.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A high-water-mark gauge: keeps the maximum value ever recorded.
#[derive(Debug, Default)]
pub struct MaxGauge(AtomicU64);

impl MaxGauge {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn record(&self, value: u64) {
        self.0.fetch_max(value, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Live per-hop transport telemetry for one stage instance. Shared (via
/// `Arc`) between the stage thread, which updates it once per batch, and
/// an optional exporter thread, which snapshots it periodically.
///
/// Semantics per stage kind (see docs/OBSERVABILITY.md for the catalog):
/// sources fill the send side of the tuple hop (plus ring occupancy where
/// the transport exposes it), workers fill the receive side of the tuple
/// hop and the send side of the partial hop, aggregators fill the receive
/// side of the partial hop.
#[derive(Debug, Default)]
pub struct HopTelemetry {
    /// Batches (or partial-window messages) pushed into the outgoing hop.
    pub batches_sent: Counter,
    /// Tuples carried by those batches.
    pub tuples_sent: Counter,
    /// Total wall time spent inside blocking sends — the backpressure
    /// stall signal.
    pub send_stall_us: Counter,
    /// Messages drained from the incoming hop.
    pub batches_received: Counter,
    /// Tuples carried by those messages.
    pub tuples_received: Counter,
    /// Total wall time spent blocked waiting for the incoming hop.
    pub recv_wait_us: Counter,
    /// Distribution of tuple-batch sizes crossing the hop.
    pub batch_occupancy: AtomicHistogram,
    /// Deepest drain ever observed: messages pulled out of the incoming
    /// queue by a single `recv_batch` (receive side), or the transport's
    /// reported queue occupancy at a send (send side).
    pub queue_depth_hwm: MaxGauge,
    /// Highest SPSC ring occupancy (in batches) observed at a send, on
    /// transports that expose their rings.
    pub ring_occupancy_hwm: MaxGauge,
    /// The ring/queue capacity behind `ring_occupancy_hwm` (0 when the
    /// transport exposes none).
    pub ring_capacity: Gauge,
}

impl HopTelemetry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies the live values into a plain, mergeable stats struct.
    pub fn snapshot(&self) -> HopStats {
        HopStats {
            batches_sent: self.batches_sent.get(),
            tuples_sent: self.tuples_sent.get(),
            send_stall_us: self.send_stall_us.get(),
            batches_received: self.batches_received.get(),
            tuples_received: self.tuples_received.get(),
            recv_wait_us: self.recv_wait_us.get(),
            batch_occupancy: self.batch_occupancy.snapshot(),
            queue_depth_hwm: self.queue_depth_hwm.get(),
            ring_occupancy_hwm: self.ring_occupancy_hwm.get(),
            ring_capacity: self.ring_capacity.get(),
        }
    }
}

/// A point-in-time copy of [`HopTelemetry`]: plain data, mergeable across
/// instances (sums for totals, maxima for high-water marks, histogram
/// merge for occupancy).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HopStats {
    pub batches_sent: u64,
    pub tuples_sent: u64,
    pub send_stall_us: u64,
    pub batches_received: u64,
    pub tuples_received: u64,
    pub recv_wait_us: u64,
    pub batch_occupancy: LogHistogram,
    pub queue_depth_hwm: u64,
    pub ring_occupancy_hwm: u64,
    pub ring_capacity: u64,
}

/// Counter addition for the merges below. Saturating: these are a peer's
/// numbers, and a rollup of absurd ones must read absurd, not abort the
/// orchestrator.
fn add(into: &mut u64, n: u64) {
    *into = into.saturating_add(n);
}

impl HopStats {
    /// Folds another instance's stats into this one (counters saturate).
    pub fn merge(&mut self, other: &HopStats) {
        add(&mut self.batches_sent, other.batches_sent);
        add(&mut self.tuples_sent, other.tuples_sent);
        add(&mut self.send_stall_us, other.send_stall_us);
        add(&mut self.batches_received, other.batches_received);
        add(&mut self.tuples_received, other.tuples_received);
        add(&mut self.recv_wait_us, other.recv_wait_us);
        self.batch_occupancy.merge(&other.batch_occupancy);
        self.queue_depth_hwm = self.queue_depth_hwm.max(other.queue_depth_hwm);
        self.ring_occupancy_hwm = self.ring_occupancy_hwm.max(other.ring_occupancy_hwm);
        self.ring_capacity = self.ring_capacity.max(other.ring_capacity);
    }
}

/// Stage codes for [`MetricsSnapshot::stage`]; 0–2 mirror
/// [`crate::trace::stage`], 3 is a cluster-wide rollup the orchestrator
/// synthesizes.
pub mod snapshot_stage {
    pub const SOURCE: u8 = 0;
    pub const WORKER: u8 = 1;
    pub const AGGREGATOR: u8 = 2;
    pub const CLUSTER: u8 = 3;
}

/// One stage instance's metrics at a point in time — the payload of the
/// `METRICS` control frame and of one JSONL line in the orchestrator's
/// merged metrics stream.
///
/// Periodic snapshots carry the live transport counters and an
/// items-so-far approximation; the *final* snapshot (`finished == true`)
/// is built from the stage's end-of-run report after it quiesces, so its
/// progress, recovery, and latency fields are exact — that is what makes
/// the orchestrator's final rollup provably match the run report.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Stage code ([`snapshot_stage`]).
    pub stage: u8,
    /// Stage instance index (meaningless for `CLUSTER`).
    pub instance: u32,
    /// Per-instance snapshot ordinal.
    pub seq: u64,
    /// True for the exact end-of-stage snapshot.
    pub finished: bool,
    /// Tuples sent (source) / processed (worker) / partials merged
    /// (aggregator).
    pub items: u64,
    /// Windows closed (worker) or finalized (aggregator).
    pub windows_closed: u64,
    /// Checkpoints saved (worker).
    pub checkpoints: u64,
    /// Recovery counters, mirroring `RecoveryMetrics`.
    pub restores: u64,
    pub replayed_items: u64,
    pub duplicates_dropped: u64,
    pub replay_requests: u64,
    pub transport_errors: u64,
    /// Transport-hop counters, mirroring [`HopStats`].
    pub batches_sent: u64,
    pub tuples_sent: u64,
    pub send_stall_us: u64,
    pub batches_received: u64,
    pub tuples_received: u64,
    pub recv_wait_us: u64,
    pub queue_depth_hwm: u64,
    pub ring_occupancy_hwm: u64,
    pub ring_capacity: u64,
    /// Latency distribution, µs; empty on periodic snapshots, filled from
    /// the stage report on the final one.
    pub latency: LogHistogram,
}

impl MetricsSnapshot {
    /// Human-readable stage name (used in JSON).
    pub fn stage_name(&self) -> &'static str {
        match self.stage {
            snapshot_stage::SOURCE => "source",
            snapshot_stage::WORKER => "worker",
            snapshot_stage::AGGREGATOR => "aggregator",
            snapshot_stage::CLUSTER => "cluster",
            _ => "unknown",
        }
    }

    /// Copies a [`HopStats`] into the flat transport fields.
    pub fn set_transport(&mut self, hop: &HopStats) {
        self.batches_sent = hop.batches_sent;
        self.tuples_sent = hop.tuples_sent;
        self.send_stall_us = hop.send_stall_us;
        self.batches_received = hop.batches_received;
        self.tuples_received = hop.tuples_received;
        self.recv_wait_us = hop.recv_wait_us;
        self.queue_depth_hwm = hop.queue_depth_hwm;
        self.ring_occupancy_hwm = hop.ring_occupancy_hwm;
        self.ring_capacity = hop.ring_capacity;
    }

    /// Folds another snapshot into this one (for cluster rollups):
    /// counters add (saturating), high-water marks take the maximum,
    /// latency distributions merge bucket-wise.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        self.seq = self.seq.max(other.seq);
        self.finished = self.finished && other.finished;
        add(&mut self.items, other.items);
        add(&mut self.windows_closed, other.windows_closed);
        add(&mut self.checkpoints, other.checkpoints);
        add(&mut self.restores, other.restores);
        add(&mut self.replayed_items, other.replayed_items);
        add(&mut self.duplicates_dropped, other.duplicates_dropped);
        add(&mut self.replay_requests, other.replay_requests);
        add(&mut self.transport_errors, other.transport_errors);
        add(&mut self.batches_sent, other.batches_sent);
        add(&mut self.tuples_sent, other.tuples_sent);
        add(&mut self.send_stall_us, other.send_stall_us);
        add(&mut self.batches_received, other.batches_received);
        add(&mut self.tuples_received, other.tuples_received);
        add(&mut self.recv_wait_us, other.recv_wait_us);
        self.queue_depth_hwm = self.queue_depth_hwm.max(other.queue_depth_hwm);
        self.ring_occupancy_hwm = self.ring_occupancy_hwm.max(other.ring_occupancy_hwm);
        self.ring_capacity = self.ring_capacity.max(other.ring_capacity);
        self.latency.merge(&other.latency);
    }

    /// Serializes to one JSON object (the JSONL line format; the vendored
    /// serde is a derive-only shim, so this is written by hand).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push('{');
        push_json_str(&mut out, "stage", self.stage_name());
        push_json_u64(&mut out, "instance", self.instance as u64);
        push_json_u64(&mut out, "seq", self.seq);
        out.push_str("\"final\":");
        out.push_str(if self.finished { "true" } else { "false" });
        out.push(',');
        push_json_u64(&mut out, "items", self.items);
        push_json_u64(&mut out, "windows_closed", self.windows_closed);
        push_json_u64(&mut out, "checkpoints", self.checkpoints);
        push_json_u64(&mut out, "restores", self.restores);
        push_json_u64(&mut out, "replayed_items", self.replayed_items);
        push_json_u64(&mut out, "duplicates_dropped", self.duplicates_dropped);
        push_json_u64(&mut out, "replay_requests", self.replay_requests);
        push_json_u64(&mut out, "transport_errors", self.transport_errors);
        push_json_u64(&mut out, "batches_sent", self.batches_sent);
        push_json_u64(&mut out, "tuples_sent", self.tuples_sent);
        push_json_u64(&mut out, "send_stall_us", self.send_stall_us);
        push_json_u64(&mut out, "batches_received", self.batches_received);
        push_json_u64(&mut out, "tuples_received", self.tuples_received);
        push_json_u64(&mut out, "recv_wait_us", self.recv_wait_us);
        push_json_u64(&mut out, "queue_depth_hwm", self.queue_depth_hwm);
        push_json_u64(&mut out, "ring_occupancy_hwm", self.ring_occupancy_hwm);
        push_json_u64(&mut out, "ring_capacity", self.ring_capacity);
        let hist = &self.latency;
        push_json_u64(&mut out, "latency_count", hist.count());
        // JSON numbers here are `u64`; the exact 128-bit sum saturates.
        let sum = u64::try_from(hist.sum()).unwrap_or(u64::MAX);
        push_json_u64(&mut out, "latency_sum_us", sum);
        push_json_u64(&mut out, "latency_min_us", hist.min());
        push_json_u64(&mut out, "latency_max_us", hist.max());
        if !hist.is_empty() {
            push_json_u64(&mut out, "latency_p50_us", hist.quantile(0.50));
            push_json_u64(&mut out, "latency_p95_us", hist.quantile(0.95));
            push_json_u64(&mut out, "latency_p99_us", hist.quantile(0.99));
        }
        out.push_str("\"latency_buckets\":[");
        for (i, (bucket, count)) in hist.nonzero_buckets().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("[{bucket},{count}]"));
        }
        out.push_str("]}");
        out
    }
}

fn push_json_u64(out: &mut String, key: &str, value: u64) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    out.push_str(&value.to_string());
    out.push(',');
}

fn push_json_str(out: &mut String, key: &str, value: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":\"");
    out.push_str(value);
    out.push_str("\",");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_work() {
        let counter = Counter::new();
        counter.add(3);
        counter.add(4);
        assert_eq!(counter.get(), 7);
        let hwm = MaxGauge::new();
        hwm.record(5);
        hwm.record(2);
        assert_eq!(hwm.get(), 5);
        let gauge = Gauge::new();
        gauge.set(9);
        gauge.set(4);
        assert_eq!(gauge.get(), 4);
    }

    #[test]
    fn hop_snapshot_and_merge() {
        let live = HopTelemetry::new();
        live.batches_sent.add(2);
        live.tuples_sent.add(128);
        live.batch_occupancy.record_n(64, 2);
        live.queue_depth_hwm.record(7);
        let a = live.snapshot();
        let mut merged = a.clone();
        let b = HopStats {
            batches_sent: 1,
            queue_depth_hwm: 11,
            ..Default::default()
        };
        merged.merge(&b);
        assert_eq!(merged.batches_sent, 3);
        assert_eq!(merged.tuples_sent, 128);
        assert_eq!(merged.queue_depth_hwm, 11);
    }

    #[test]
    fn snapshot_merge_adds_counters_and_merges_latency() {
        let mut hist_a = LogHistogram::new();
        hist_a.record_n(100, 10);
        let mut hist_b = LogHistogram::new();
        hist_b.record_n(5_000, 4);
        let mut a = MetricsSnapshot {
            stage: snapshot_stage::WORKER,
            instance: 0,
            finished: true,
            items: 10,
            restores: 1,
            latency: hist_a.clone(),
            ..Default::default()
        };
        let b = MetricsSnapshot {
            stage: snapshot_stage::WORKER,
            instance: 1,
            finished: true,
            items: 4,
            queue_depth_hwm: 3,
            latency: hist_b.clone(),
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.items, 14);
        assert_eq!(a.restores, 1);
        let mut union = hist_a;
        union.merge(&hist_b);
        assert_eq!(a.latency, union);
        // A peer's counters saturate in a rollup; they do not overflow.
        a.items = u64::MAX;
        a.merge(&b);
        assert_eq!(a.items, u64::MAX);
    }

    #[test]
    fn json_line_is_wellformed_enough() {
        let mut snapshot = MetricsSnapshot {
            stage: snapshot_stage::SOURCE,
            instance: 2,
            seq: 7,
            items: 99,
            ..Default::default()
        };
        snapshot.latency.record(123);
        let json = snapshot.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"stage\":\"source\""));
        assert!(json.contains("\"items\":99,"));
        assert!(json.contains("\"final\":false"));
        assert!(json.contains("\"latency_count\":1,\"latency_sum_us\":123,"));
        assert!(json.contains("\"latency_p50_us\":123,"));
        assert!(json.contains("\"latency_buckets\":[["));
        assert_eq!(json.matches('{').count(), 1);
    }
}
