//! The metrics registry: atomic counters and gauges, the two records a
//! stage reports — its hop record ([`HopTelemetry`] live, [`HopStats`]
//! plain) and its [`RecoveryMetrics`] — and the [`MetricsSnapshot`] a node
//! ships to the orchestrator (and the orchestrator merges into cluster
//! rollups and JSONL lines).
//!
//! One record, one field list: the hop record is declared once, in the
//! `hop_record!` list below, and a snapshot *contains* the two records
//! rather than copying their fields. How a counter merges is therefore
//! written once ([`HopStats::merge`], [`RecoveryMetrics::merged`]) and is
//! the same in a stage report, `EngineResult::transport`, a live `Metrics`
//! frame, `metrics.jsonl` and the cluster rollup.
//!
//! Everything here is updated *per batch*, never per tuple: a stage
//! amortizes one relaxed atomic add (or a couple) over each 64–256-tuple
//! batch, so the hot-path allocation and synchronization profile is
//! untouched. There is no off switch: the cost is inside every number the
//! repo benchmark reports.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::hist::{AtomicHistogram, LogHistogram};
use crate::stage;

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

/// Counter addition for the merges below. Saturating: these are a peer's
/// numbers, and a rollup of absurd ones must read absurd, not abort the
/// orchestrator.
fn add(into: &mut u64, n: u64) {
    *into = into.saturating_add(n);
}

/// Declares the hop record from its **one** field list. Each line is
/// `name: rule(Cell)` — the live cell a stage bumps and how two instances'
/// values combine: `sum` (saturating), `max`, or `hist` (bucket-wise). The
/// list yields the live [`HopTelemetry`], the plain [`HopStats`],
/// `snapshot()`, `merge()`, and the scalars by name — the JSONL keys and
/// the `name=value` words `slb-node` prints — so a new hop counter is one
/// line here plus its line in slb-net's `wire_type!(impl HopStats { .. })`.
macro_rules! hop_record {
    ($($(#[$doc:meta])* $field:ident: $rule:ident($cell:ty),)*) => {
        /// Live per-hop transport telemetry for one stage instance: the stage
        /// function is handed one and updates it once per batch; whoever
        /// handed it over (a node's metrics ticker, a test) may snapshot it
        /// from another thread meanwhile.
        ///
        /// Semantics per stage kind (see docs/OBSERVABILITY.md for the
        /// catalog): sources fill the send side of the tuple hop (plus ring
        /// occupancy where the transport exposes it), workers fill the
        /// receive side of the tuple hop and the send side of the partial
        /// hop, aggregators fill the receive side of the partial hop.
        #[derive(Debug, Default)]
        pub struct HopTelemetry {
            $($(#[$doc])* pub $field: $cell,)*
        }

        impl HopTelemetry {
            pub fn new() -> Self {
                Self::default()
            }

            /// Copies the live values into a plain, mergeable stats struct.
            pub fn snapshot(&self) -> HopStats {
                HopStats {
                    $($field: hop_record!(@read $rule, self.$field),)*
                }
            }
        }

        /// A point-in-time copy of [`HopTelemetry`]: plain data, mergeable
        /// across instances by each field's rule.
        #[derive(Clone, Debug, Default, PartialEq, Eq)]
        pub struct HopStats {
            $($(#[$doc])* pub $field: hop_record!(@plain $rule),)*
        }

        impl HopStats {
            /// Folds another instance's stats into this one — the one place
            /// that says how a hop counter merges.
            pub fn merge(&mut self, other: &HopStats) {
                $(hop_record!(@merge $rule, self.$field, other.$field);)*
            }

            /// Every scalar (a `sum` or a `max`) under its field name.
            fn scalars(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$(hop_record!(@scalar $rule, stringify!($field), self.$field),)*]
                    .into_iter()
                    .flatten()
            }
        }
    };
    (@plain hist) => { LogHistogram };
    (@plain $rule:ident) => { u64 };
    (@read hist, $cell:expr) => { $cell.snapshot() };
    (@read $rule:ident, $cell:expr) => { $cell.get() };
    (@merge sum, $into:expr, $from:expr) => { add(&mut $into, $from) };
    (@merge max, $into:expr, $from:expr) => { $into = $into.max($from) };
    (@merge hist, $into:expr, $from:expr) => { $into.merge(&$from) };
    (@scalar hist, $name:expr, $value:expr) => { None };
    (@scalar $rule:ident, $name:expr, $value:expr) => { Some(($name, $value)) };
}

hop_record! {
    /// Batches (or partial-window messages) pushed into the outgoing hop.
    batches_sent: sum(Counter),
    /// Tuples carried by those batches.
    tuples_sent: sum(Counter),
    /// Total wall time spent inside blocking sends — the backpressure
    /// stall signal.
    send_stall_us: sum(Counter),
    /// Messages drained from the incoming hop.
    batches_received: sum(Counter),
    /// Tuples carried by those messages.
    tuples_received: sum(Counter),
    /// Total wall time spent blocked waiting for the incoming hop.
    recv_wait_us: sum(Counter),
    /// Distribution of tuple-batch sizes crossing the hop.
    batch_occupancy: hist(AtomicHistogram),
    /// Deepest drain ever observed: messages pulled out of the incoming
    /// queue by a single `recv_batch` (receive side), or the transport's
    /// reported queue occupancy at a send (send side).
    queue_depth_hwm: max(MaxGauge),
    /// Highest SPSC ring occupancy (in batches) observed at a send, on
    /// transports that expose their rings.
    ring_occupancy_hwm: max(MaxGauge),
    /// The ring/queue capacity behind `ring_occupancy_hwm` (0 when the
    /// transport exposes none).
    ring_capacity: max(Gauge),
}

/// The scalars as space-separated `name=value` words: how `slb-node`'s run
/// report prints a hop record.
impl std::fmt::Display for HopStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let words: Vec<String> = self.scalars().map(|(k, v)| format!("{k}={v}")).collect();
        f.write_str(&words.join(" "))
    }
}

/// Counters for the exactly-once recovery machinery of one stage.
///
/// In the worker stage, `restores` counts checkpoint restorations after a
/// crash, `replayed_items` counts tuples reprocessed from replayed batches,
/// and `duplicates_dropped` counts messages discarded by sequence-number
/// dedup. In the aggregator stage only `duplicates_dropped` and
/// `transport_errors` are meaningful: re-sent (worker, window) partials
/// discarded instead of double-merged, and torn connections survived.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryMetrics {
    /// Checkpoint restorations performed after simulated crashes.
    pub restores: u64,
    /// Items reprocessed from replayed messages (already counted once in
    /// `items` — this tracks the recovery overhead, not extra output).
    pub replayed_items: u64,
    /// Messages discarded as duplicates by sequence/worker dedup.
    pub duplicates_dropped: u64,
    /// Replay requests issued upstream (gap detected or post-crash resume).
    pub replay_requests: u64,
    /// Transport-level receive errors survived (a connection that delivered
    /// a malformed frame, failed a read or ended inside a frame, as the
    /// stage's own receive reported it, instead of a clean EOF), plus
    /// well-formed messages shed for naming a source or worker outside the
    /// plan. Zero on a healthy run; nonzero means a peer died mid-frame (or
    /// a stray one wrote to a data port) and the stage kept going on the
    /// remaining connections.
    pub transport_errors: u64,
}

impl RecoveryMetrics {
    /// True when no recovery machinery fired.
    pub fn is_quiet(&self) -> bool {
        *self == Self::default()
    }

    /// Field-wise saturating sum of two counters (for merging per-stage
    /// reports, which may be a peer's).
    pub fn merged(self, other: Self) -> Self {
        Self {
            restores: self.restores.saturating_add(other.restores),
            replayed_items: self.replayed_items.saturating_add(other.replayed_items),
            duplicates_dropped: self
                .duplicates_dropped
                .saturating_add(other.duplicates_dropped),
            replay_requests: self.replay_requests.saturating_add(other.replay_requests),
            transport_errors: self.transport_errors.saturating_add(other.transport_errors),
        }
    }
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
    /// Stage code ([`crate::stage`]).
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
    /// Recovery counters (exact on the final snapshot, zero before).
    pub recovery: RecoveryMetrics,
    /// The stage's hop record: live values on a periodic snapshot, the
    /// stage report's on the final one.
    pub transport: HopStats,
    /// Latency distribution, µs; empty on periodic snapshots, filled from
    /// the stage report on the final one.
    pub latency: LogHistogram,
}

impl MetricsSnapshot {
    /// Human-readable stage name (used in JSON).
    pub fn stage_name(&self) -> &'static str {
        match self.stage {
            stage::SOURCE => "source",
            stage::WORKER => "worker",
            stage::AGGREGATOR => "aggregator",
            stage::CLUSTER => "cluster",
            _ => "unknown",
        }
    }

    /// Folds another snapshot into this one (for cluster rollups): the
    /// progress counters add (saturating), the recovery and hop records
    /// merge by their own rules, latency distributions merge bucket-wise.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        self.seq = self.seq.max(other.seq);
        self.finished = self.finished && other.finished;
        add(&mut self.items, other.items);
        add(&mut self.windows_closed, other.windows_closed);
        add(&mut self.checkpoints, other.checkpoints);
        self.recovery = self.recovery.merged(other.recovery);
        self.transport.merge(&other.transport);
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
        let recovery = &self.recovery;
        push_json_u64(&mut out, "restores", recovery.restores);
        push_json_u64(&mut out, "replayed_items", recovery.replayed_items);
        push_json_u64(&mut out, "duplicates_dropped", recovery.duplicates_dropped);
        push_json_u64(&mut out, "replay_requests", recovery.replay_requests);
        push_json_u64(&mut out, "transport_errors", recovery.transport_errors);
        for (key, value) in self.transport.scalars() {
            push_json_u64(&mut out, key, value);
        }
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
    fn recovery_metrics_merge_field_wise_and_default_is_quiet() {
        assert!(RecoveryMetrics::default().is_quiet());
        let a = RecoveryMetrics {
            restores: 1,
            replayed_items: 10,
            duplicates_dropped: 3,
            replay_requests: 2,
            transport_errors: 1,
        };
        let b = RecoveryMetrics {
            restores: 0,
            replayed_items: 5,
            duplicates_dropped: 1,
            replay_requests: 1,
            transport_errors: 0,
        };
        let m = a.merged(b);
        assert_eq!(
            m,
            RecoveryMetrics {
                restores: 1,
                replayed_items: 15,
                duplicates_dropped: 4,
                replay_requests: 3,
                transport_errors: 1,
            }
        );
        assert!(!m.is_quiet());
    }

    #[test]
    fn snapshot_merge_adds_counters_and_merges_latency() {
        let mut hist_a = LogHistogram::new();
        hist_a.record_n(100, 10);
        let mut hist_b = LogHistogram::new();
        hist_b.record_n(5_000, 4);
        let mut a = MetricsSnapshot {
            stage: stage::WORKER,
            instance: 0,
            finished: true,
            items: 10,
            recovery: RecoveryMetrics {
                restores: 1,
                ..Default::default()
            },
            latency: hist_a.clone(),
            ..Default::default()
        };
        let b = MetricsSnapshot {
            stage: stage::WORKER,
            instance: 1,
            finished: true,
            items: 4,
            transport: HopStats {
                queue_depth_hwm: 3,
                ..Default::default()
            },
            latency: hist_b.clone(),
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.items, 14);
        assert_eq!(a.recovery.restores, 1);
        assert_eq!(a.transport.queue_depth_hwm, 3);
        let mut union = hist_a;
        union.merge(&hist_b);
        assert_eq!(a.latency, union);
        // A peer's counters saturate in a rollup; they do not overflow.
        a.items = u64::MAX;
        a.merge(&b);
        assert_eq!(a.items, u64::MAX);
    }

    /// A snapshot contains its records, so a rollup of snapshots is the
    /// snapshot of the rolled-up records — `HopStats::merge` and
    /// `RecoveryMetrics::merged` are the only merge rules there are, also
    /// where they saturate.
    #[test]
    fn snapshot_merge_is_the_merge_of_the_records_it_contains() {
        let live = HopTelemetry::new();
        live.batches_sent.add(3);
        live.tuples_sent.add(u64::MAX - 1);
        live.send_stall_us.add(40);
        live.batch_occupancy.record_n(64, 3);
        live.queue_depth_hwm.record(9);
        live.ring_capacity.set(128);
        let hop_a = live.snapshot();
        let mut occupancy = LogHistogram::new();
        occupancy.record_n(7, 2);
        let hop_b = HopStats {
            batches_sent: 2,
            tuples_sent: 5,
            recv_wait_us: u64::MAX,
            batch_occupancy: occupancy,
            queue_depth_hwm: 4,
            ring_occupancy_hwm: 17,
            ..Default::default()
        };
        let recovery_a = RecoveryMetrics {
            restores: u64::MAX,
            replay_requests: 2,
            ..Default::default()
        };
        let recovery_b = RecoveryMetrics {
            restores: 1,
            replay_requests: 3,
            transport_errors: 1,
            ..Default::default()
        };
        let snapshot_of = |transport: &HopStats, recovery| MetricsSnapshot {
            stage: stage::CLUSTER,
            finished: true,
            transport: transport.clone(),
            recovery,
            ..Default::default()
        };
        let mut rolled = snapshot_of(&hop_a, recovery_a);
        rolled.merge(&snapshot_of(&hop_b, recovery_b));
        let mut hop = hop_a.clone();
        hop.merge(&hop_b);
        assert_eq!(rolled, snapshot_of(&hop, recovery_a.merged(recovery_b)));
        // Sums saturated, maxima held, the occupancy histograms merged.
        assert_eq!(hop.tuples_sent, u64::MAX);
        assert_eq!(hop.recv_wait_us, u64::MAX);
        assert_eq!(rolled.recovery.restores, u64::MAX);
        assert_eq!(hop.queue_depth_hwm, 9);
        assert_eq!(hop.ring_capacity, 128);
        assert_eq!(hop.batch_occupancy.count(), 5);
        // The JSONL line names every scalar of the record once.
        let json = rolled.to_json();
        assert!(json.contains("\"tuples_sent\":18446744073709551615,"));
        assert!(json.contains("\"ring_occupancy_hwm\":17,\"ring_capacity\":128,"));
        // ... and so does the run report's `name=value` form.
        let words = hop.to_string();
        assert!(words.starts_with("batches_sent=5 tuples_sent=18446744073709551615 "));
        assert!(words.ends_with(" queue_depth_hwm=9 ring_occupancy_hwm=17 ring_capacity=128"));
        assert!(!words.contains("batch_occupancy"));
        assert_eq!(json.matches("\"restores\":").count(), 1);
    }

    #[test]
    fn json_line_is_wellformed_enough() {
        let mut snapshot = MetricsSnapshot {
            stage: stage::SOURCE,
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
