//! The metric catalogue: every name the benchmark prints, with its unit,
//! direction and (for end-to-end metrics) regression bound. `BENCHMARK.json`
//! repeats this table for the driver; `tests/quick.rs` keeps the two equal.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the catalogue.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen;
    /// `None` for per-layer (informational) metrics.
    pub bound: Option<f64>,
    /// Where the number comes from (README catalogue column).
    pub source: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    source: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        source,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        source,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed by every workload with `--trace 0`.
pub const END_TO_END: &[Metric] = &[
    e2e(
        "setup_s",
        "s",
        Lower,
        0.25,
        "config + transport construction + quarter-size warm-up run, per repetition",
    ),
    e2e(
        "throughput_tps",
        "1/s",
        Higher,
        0.25,
        "EngineResult.processed / wall time of the run_windowed_on call",
    ),
    e2e(
        "cpu_ns_per_tuple",
        "ns",
        Lower,
        0.25,
        "process CPU time (all threads) over the measured repetition / tuples",
    ),
    e2e(
        "latency_p50_us",
        "us",
        Lower,
        0.25,
        "median of EngineResult.latency_histogram, interpolated in its bucket (source emit -> worker completion)",
    ),
    e2e(
        "max_load_ratio",
        "ratio",
        Lower,
        0.01,
        "max(EngineResult.worker_counts) / mean = 1 + workers x EngineResult.imbalance",
    ),
    e2e(
        "state_replicas",
        "count",
        Lower,
        0.06,
        "EngineResult.total_state_replicas()",
    ),
    e2e(
        "peak_rss_mb",
        "MB",
        Lower,
        0.2,
        "VmHWM after the first measured repetition, before the reference is built",
    ),
    e2e(
        "windows_finalized",
        "count",
        Higher,
        0.001,
        "EngineResult.windows",
    ),
];

/// Per-layer metrics, printed by every workload with `--trace 1`.
pub const PER_LAYER: &[Metric] = &[
    layer(
        "workloads.zipf.ns_per_key",
        "ns",
        Lower,
        "replay span: KeyStream::next_key",
    ),
    layer(
        "workloads.pace_lag_share",
        "share",
        Lower,
        "engine run: (elapsed - bursts x pause) / elapsed; 0 when unpaced",
    ),
    layer(
        "hash.digest.ns_per_key",
        "ns",
        Lower,
        "probe: KeyHash::digest",
    ),
    layer(
        "hash.choices.ns_per_key",
        "ns",
        Lower,
        "probe: HashFamily::choices_from_digest_into at the workload's d",
    ),
    layer(
        "sketch.space_saving.ns_per_update",
        "ns",
        Lower,
        "probe: SpaceSaving::observe_counts at the head tracker's capacity",
    ),
    layer(
        "sketch.space_saving.evict_share",
        "share",
        Lower,
        "probe: updates that replaced the minimum counter / updates",
    ),
    layer(
        "core.route.ns_per_tuple",
        "ns",
        Lower,
        "replay span: Partitioner::route_batch",
    ),
    layer(
        "core.route.head_share",
        "share",
        Higher,
        "probe: mass of the sketch's heavy hitters above theta; 0 for schemes that track no head",
    ),
    layer(
        "core.route.d",
        "count",
        Lower,
        "replay: Partitioner::current_choices(hottest key) at end of stream",
    ),
    layer(
        "engine.source.scatter_ns_per_tuple",
        "ns",
        Lower,
        "replay span: per-worker batch fill",
    ),
    layer(
        "core.aggregate.observe_ns_per_tuple",
        "ns",
        Lower,
        "replay span: CountAggregate::observe",
    ),
    layer(
        "core.aggregate.shard_ns_per_key",
        "ns",
        Lower,
        "replay span: CountAggregate::shard per partial key",
    ),
    layer(
        "core.aggregate.merge_ns_per_key",
        "ns",
        Lower,
        "replay span: CountAggregate::merge per slice key",
    ),
    layer(
        "core.checkpoint.encode_ns_per_key",
        "ns",
        Lower,
        "replay span: WorkerCheckpoint::encode per state key",
    ),
    layer(
        "core.checkpoint.bytes_per_window",
        "B",
        Lower,
        "replay: mean encoded checkpoint size per worker per window",
    ),
    layer(
        "core.wire.partial_encode_ns_per_key",
        "ns",
        Lower,
        "replay span: WirePartial::encode_partial per slice key",
    ),
    layer(
        "engine.spsc.hop_ns_per_tuple",
        "ns",
        Lower,
        "replay span (probe off Spsc): tuple channel send + recv_batch + recycle",
    ),
    layer(
        "engine.inproc.hop_ns_per_tuple",
        "ns",
        Lower,
        "probe: InProc tuple channel send + recv_batch",
    ),
    layer(
        "engine.source.send_stall_share",
        "share",
        Lower,
        "engine run: transport.source.send_stall_us / (elapsed x sources)",
    ),
    layer(
        "engine.source.batch_fill_mean",
        "count",
        Higher,
        "engine run: transport.source tuples_sent / batches_sent",
    ),
    layer(
        "engine.worker.recv_wait_share",
        "share",
        Lower,
        "engine run: transport.worker.recv_wait_us / (elapsed x workers)",
    ),
    layer(
        "engine.worker.send_stall_share",
        "share",
        Lower,
        "engine run: transport.worker.send_stall_us / (elapsed x workers)",
    ),
    layer(
        "engine.worker.queue_depth_hwm",
        "count",
        Lower,
        "engine run: transport.worker.queue_depth_hwm",
    ),
    layer(
        "engine.worker.checkpoints",
        "count",
        Lower,
        "engine run: CHECKPOINT_SAVE events in EngineResult.trace",
    ),
    layer(
        "engine.aggregator.recv_wait_share",
        "share",
        Lower,
        "engine run: transport.aggregator.recv_wait_us / (elapsed x aggregators)",
    ),
    layer(
        "engine.aggregator.partials_merged",
        "count",
        Lower,
        "engine run: aggregator_stage.items",
    ),
    layer(
        "engine.aggregator.duplicates_dropped",
        "count",
        Lower,
        "engine run: aggregator_stage.recovery.duplicates_dropped",
    ),
    layer(
        "engine.aggregator.merge_latency_p50_us",
        "us",
        Lower,
        "engine run: aggregator_stage.latency.p50_us",
    ),
    layer(
        "engine.latency_p99_us",
        "us",
        Lower,
        "engine run: EngineResult.latency.p99_us (demoted from end-to-end, see README)",
    ),
    layer(
        "engine.imbalance",
        "share",
        Lower,
        "engine run: EngineResult.imbalance, the paper's I(m)",
    ),
    layer(
        "net.wire.encode_ns_per_tuple",
        "ns",
        Lower,
        "probe: slb_net::wire::encode_tuple_frame",
    ),
    layer(
        "net.wire.decode_ns_per_tuple",
        "ns",
        Lower,
        "probe: slb_net::wire::decode_tuple_frame",
    ),
    layer(
        "net.wire.bytes_per_tuple",
        "B",
        Lower,
        "probe: encoded frame bytes / tuples",
    ),
    layer(
        "net.tcp.hop_ns_per_tuple",
        "ns",
        Lower,
        "replay span (probe off TCP): loopback tuple channel send + recv_batch",
    ),
    layer(
        "telemetry.hist.record_ns",
        "ns",
        Lower,
        "probe: LogHistogram::record",
    ),
    layer(
        "budget.layers_ns_per_tuple",
        "ns",
        Lower,
        "sum of the replay layers on this workload's path (+ configured service time)",
    ),
    layer(
        "budget.residual_share",
        "share",
        Lower,
        "(engine cpu_ns_per_tuple - budget.layers_ns_per_tuple) / cpu_ns_per_tuple",
    ),
    layer(
        "trace.overhead_share",
        "share",
        Lower,
        "(replay wall with spans - without) / without, faster of two each",
    ),
];
