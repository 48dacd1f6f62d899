//! The traced run: where a tuple's nanoseconds go, layer by layer.
//!
//! Two parts, both separate from the timed repetitions:
//!
//! * a single-threaded **layer replay** drives the workload's own key
//!   streams through the same public calls the engine's stages make —
//!   generate → `route_batch` → per-worker batch fill → transport hop →
//!   `observe`, and per window close `shard` → checkpoint encode → partial
//!   encode → `merge` — recording one in-memory span per batch per layer.
//!   Layers off the workload's path (the other transports, the frame codec,
//!   the hash family, the sketch, the histogram) are timed the same way on
//!   the first batches of the same stream, so every per-layer metric exists
//!   on every workload;
//! * **engine runs** whose `EngineResult.transport`, `worker_stage` and
//!   `aggregator_stage` fill the `engine.*` shares and counts, and whose CPU
//!   time per tuple the replay's layers are summed against.
//!
//! Spans are recorded here, around the calls into each layer; spans inside
//! the engine are a later change.

use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::time::Instant;

use slb_core::{
    build_partitioner, CountAggregate, PartitionConfig, PartitionerKind, WindowAggregate,
    WirePartial, WorkerCheckpoint,
};
use slb_engine::{
    capacity_in_batches, EngineResult, InProc, SourceMessage, Spsc, Transport, TupleBatch,
    TupleReceiver, TupleSender,
};
use slb_hash::family::{HashFamily, KeyHash};
use slb_net::wire::{decode_tuple_frame, encode_tuple_frame};
use slb_net::{TcpTransport, TupleFrame};
use slb_sketch::{FrequencyEstimator, SpaceSaving};
use slb_telemetry::{trace_kind, LogHistogram};
use slb_workloads::KeyId;

use crate::json::Value;
use crate::measure::TimedRun;
use crate::stats::median;
use crate::workloads::{Backend, Job, Workload, AGGREGATORS, BATCH, QUEUE, SOURCES, WORKERS};

type Partial = HashMap<KeyId, u64>;

/// Tuples the off-path probes time: the first 256 batches of the stream.
const PROBE_TUPLES: usize = 256 * BATCH;

const NO_PARENT: u32 = u32::MAX;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Index of the enclosing span, `NO_PARENT` for the root.
    parent: u32,
    /// Layer name (`crate.module`), or `replay`/`window`/`probes`.
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// The window the work belongs to: the identifier shared by every span
    /// of one window's life, `u64::MAX` outside any window.
    window: u64,
    /// Units of work inside the span (tuples, or keys for per-key layers).
    count: u64,
}

/// Collects spans in memory. When disabled, `span` runs the work and takes
/// no timestamps, which is what the overhead measurement compares against.
struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that encloses others; close it with [`Self::close`].
    fn open(&mut self, name: &'static str, parent: u32, window: u64) -> u32 {
        if !self.enabled {
            return NO_PARENT;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent,
            name,
            start_ns,
            end_ns: start_ns,
            window,
            count: 0,
        });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, id: u32, count: u64) {
        if self.enabled {
            let end_ns = self.now_ns();
            let span = &mut self.spans[id as usize];
            span.end_ns = end_ns;
            span.count = count;
        }
    }

    /// Times `work` as one leaf span of `count` units.
    #[inline]
    fn span<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        window: u64,
        count: u64,
        work: impl FnOnce() -> R,
    ) -> R {
        if !self.enabled {
            return work();
        }
        let start_ns = self.now_ns();
        let result = work();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            parent,
            name,
            start_ns,
            end_ns,
            window,
            count,
        });
        result
    }
}

/// Per-layer totals over a replay's spans.
#[derive(Debug, Default, Clone, Copy)]
struct LayerTotal {
    /// Span time minus the time its child spans cover.
    self_ns: u64,
    count: u64,
    spans: u64,
}

fn layer_totals(spans: &[Span]) -> HashMap<&'static str, LayerTotal> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if span.parent != NO_PARENT {
            child_ns[span.parent as usize] += span.end_ns - span.start_ns;
        }
    }
    let mut totals: HashMap<&'static str, LayerTotal> = HashMap::new();
    for (span, children) in spans.iter().zip(child_ns) {
        let total = totals.entry(span.name).or_default();
        total.self_ns += (span.end_ns - span.start_ns).saturating_sub(children);
        total.count += span.count;
        total.spans += 1;
    }
    totals
}

/// One transport's source → worker hop, driven from one thread: a batch is
/// sent to a worker's channel and received back from it.
struct Hop<T: Transport<Partial>> {
    name: &'static str,
    tx: Vec<T::TupleTx>,
    rx: Vec<T::TupleRx>,
    seq: Vec<u64>,
    drained: Vec<SourceMessage>,
}

impl<T: Transport<Partial>> Hop<T> {
    fn new(name: &'static str, transport: &T) -> Self {
        let (tx, rx) = transport.tuple_channels(WORKERS, capacity_in_batches(QUEUE, BATCH));
        Self {
            name,
            tx,
            rx,
            seq: vec![0; WORKERS],
            drained: Vec::new(),
        }
    }

    /// Carries `keys` to `worker` and back out of its receiver.
    fn carry(&mut self, worker: usize, keys: Vec<KeyId>, window: u64) -> Vec<KeyId> {
        let seq = self.seq[worker];
        self.seq[worker] += 1;
        self.tx[worker]
            .send(SourceMessage::Batch(TupleBatch {
                keys,
                window,
                source: 0,
                seq,
                emitted_at: Instant::now(),
            }))
            .expect("the hop's receiver is alive");
        self.drained.clear();
        self.rx[worker]
            .recv_batch(&mut self.drained)
            .expect("the hop's sender is alive");
        match self.drained.pop() {
            Some(SourceMessage::Batch(batch)) if self.drained.is_empty() => batch.keys,
            _ => unreachable!("exactly the one batch sent comes back"),
        }
    }

    /// Hands a spent buffer back (a no-op off the Spsc backend) and returns
    /// the buffer the sender should fill next.
    fn recycle(&mut self, worker: usize, keys: Vec<KeyId>) -> Vec<KeyId> {
        self.rx[worker].recycle(keys);
        match self.tx[worker].take_recycled() {
            Some(mut spent) => {
                spent.clear();
                spent
            }
            None => Vec::with_capacity(BATCH),
        }
    }
}

/// What a replay learned besides its spans.
#[derive(Debug, Default, Clone)]
struct Facts {
    tuples: u64,
    head_share: f64,
    d: f64,
    checkpoint_bytes: u64,
    checkpoints: u64,
    wire_bytes: u64,
    wire_tuples: u64,
    sketch_updates: u64,
    sketch_evictions: u64,
}

struct Replay {
    spans: Vec<Span>,
    wall_ns: u64,
    facts: Facts,
}

/// Worker-side state the replay keeps between window closes.
struct ReplayWorker {
    open: Option<Partial>,
    seen: HashSet<KeyId>,
    fresh: Vec<KeyId>,
    /// Distinct keys so far, ascending: the checkpoint's canonical form.
    sorted: Vec<KeyId>,
    processed: u64,
    windows_closed: u64,
}

fn replay(workload: &Workload, job: &Job, record: bool) -> Replay {
    match workload.backend {
        Backend::Spsc => replay_on(workload, job, record, Hop::new("engine.spsc.hop", &Spsc)),
        Backend::Tcp => replay_on(
            workload,
            job,
            record,
            Hop::new("net.tcp.hop", &TcpTransport::loopback()),
        ),
    }
}

fn replay_on<T: Transport<Partial>>(
    workload: &Workload,
    job: &Job,
    record: bool,
    mut hop: Hop<T>,
) -> Replay {
    let aggregate = CountAggregate;
    let window_size = job.window_size();
    let partition = PartitionConfig::new(WORKERS).with_seed(job.seed());
    let mut sources: Vec<_> = (0..SOURCES)
        .map(|s| {
            (
                job.source_stream(s),
                build_partitioner::<KeyId>(job.kind(), &partition),
            )
        })
        .collect();
    let mut workers: Vec<ReplayWorker> = (0..WORKERS)
        .map(|_| ReplayWorker {
            open: None,
            seen: HashSet::new(),
            fresh: Vec::new(),
            sorted: Vec::new(),
            processed: 0,
            windows_closed: 0,
        })
        .collect();
    let mut pending: Vec<Vec<KeyId>> = (0..WORKERS).map(|_| Vec::with_capacity(BATCH)).collect();
    let mut probe_keys: Vec<KeyId> = Vec::with_capacity(PROBE_TUPLES);
    let mut keybuf: Vec<KeyId> = Vec::with_capacity(BATCH);
    let mut routebuf: Vec<usize> = Vec::with_capacity(BATCH);
    let mut ready: Vec<(usize, Vec<KeyId>)> = Vec::new();
    let mut encode_buf: Vec<u8> = Vec::new();
    let mut facts = Facts::default();

    let mut rec = Recorder::new(record);
    let started = Instant::now();
    let root = rec.open("replay", NO_PARENT, u64::MAX);
    let total_windows = job.tuples() / SOURCES as u64 / window_size;
    for window in 0..total_windows {
        let wspan = rec.open("window", root, window);
        for (stream, partitioner) in sources.iter_mut() {
            let mut left = window_size;
            while left > 0 {
                let take = left.min(BATCH as u64);
                rec.span("workloads.zipf", wspan, window, take, || {
                    keybuf.clear();
                    for _ in 0..take {
                        keybuf.push(stream.next_key().expect("stream covers the job"));
                    }
                });
                left -= take;
                facts.tuples += take;
                if probe_keys.len() < PROBE_TUPLES {
                    probe_keys.extend_from_slice(&keybuf);
                }
                rec.span("core.route", wspan, window, take, || {
                    partitioner.route_batch(&keybuf, &mut routebuf)
                });
                rec.span("engine.source.scatter", wspan, window, take, || {
                    for (&key, &worker) in keybuf.iter().zip(&routebuf) {
                        pending[worker].push(key);
                        if pending[worker].len() == BATCH {
                            ready.push((worker, std::mem::take(&mut pending[worker])));
                        }
                    }
                });
                for (worker, keys) in ready.drain(..) {
                    pending[worker] = deliver(
                        &mut rec,
                        wspan,
                        window,
                        &mut hop,
                        &mut workers[worker],
                        worker,
                        keys,
                    );
                }
            }
        }
        // Window complete at every source: flush the partial batches, then
        // close the window at every worker.
        for worker in 0..WORKERS {
            if !pending[worker].is_empty() {
                let keys = std::mem::take(&mut pending[worker]);
                pending[worker] = deliver(
                    &mut rec,
                    wspan,
                    window,
                    &mut hop,
                    &mut workers[worker],
                    worker,
                    keys,
                );
            }
        }
        let mut merged: Vec<Partial> = (0..AGGREGATORS).map(|_| Partial::new()).collect();
        for (index, worker) in workers.iter_mut().enumerate() {
            let partial = worker.open.take().unwrap_or_default();
            let keys = partial.len() as u64;
            let slices = rec.span("core.aggregate.shard", wspan, window, keys, || {
                WindowAggregate::<KeyId>::shard(&aggregate, partial, AGGREGATORS)
            });
            worker.windows_closed += 1;
            // Keeping the key set sorted is the engine's private `StateKeys`;
            // its cost lands in the residual, not in a layer.
            worker.fresh.sort_unstable();
            let mut sorted = Vec::with_capacity(worker.sorted.len() + worker.fresh.len());
            let (mut a, mut b) = (
                worker.sorted.iter().peekable(),
                worker.fresh.iter().peekable(),
            );
            while let (Some(&&x), Some(&&y)) = (a.peek(), b.peek()) {
                if x < y {
                    sorted.push(x);
                    a.next();
                } else {
                    sorted.push(y);
                    b.next();
                }
            }
            sorted.extend(a);
            sorted.extend(b);
            worker.sorted = sorted;
            worker.fresh.clear();
            let state_keys = worker.sorted.len() as u64;
            rec.span("core.checkpoint.encode", wspan, window, state_keys, || {
                let checkpoint = WorkerCheckpoint {
                    worker: index as u64,
                    windows_closed: worker.windows_closed,
                    processed: worker.processed,
                    phase_counts: vec![worker.processed],
                    next_seq: vec![hop.seq[index]; SOURCES],
                    state_keys: worker.sorted.clone(),
                    open: Vec::new(),
                };
                encode_buf.clear();
                checkpoint.encode(&mut encode_buf);
            });
            facts.checkpoint_bytes += encode_buf.len() as u64;
            facts.checkpoints += 1;
            for (shard, slice) in slices.into_iter().enumerate() {
                let keys = slice.len() as u64;
                rec.span("core.wire.partial_encode", wspan, window, keys, || {
                    encode_buf.clear();
                    slice.encode_partial(&mut encode_buf);
                });
                rec.span("core.aggregate.merge", wspan, window, keys, || {
                    WindowAggregate::<KeyId>::merge(&aggregate, &mut merged[shard], slice)
                });
            }
        }
        black_box(&merged);
        rec.close(wspan, window_size * SOURCES as u64);
    }
    rec.close(root, facts.tuples);
    let wall_ns = started.elapsed().as_nanos() as u64;

    // How many choices the routing layer ended up giving the hottest key
    // (the solver's `d` for D-Choices, a constant for the other schemes).
    let mut counts: HashMap<KeyId, u64> = HashMap::new();
    for &key in &probe_keys {
        *counts.entry(key).or_default() += 1;
    }
    let hottest = counts
        .iter()
        .max_by_key(|&(&key, &count)| (count, key))
        .map(|(&key, _)| key)
        .expect("the stream is not empty");
    facts.d = sources[0].1.current_choices(&hottest) as f64;

    if record {
        probes(&mut rec, &probe_keys, &partition, job, &mut facts, workload);
    }
    Replay {
        spans: rec.spans,
        wall_ns,
        facts,
    }
}

/// One transported batch's life at the worker: hop, observe, recycle.
/// Returns the buffer the source fills next.
fn deliver<T: Transport<Partial>>(
    rec: &mut Recorder,
    parent: u32,
    window: u64,
    hop: &mut Hop<T>,
    worker: &mut ReplayWorker,
    index: usize,
    keys: Vec<KeyId>,
) -> Vec<KeyId> {
    let n = keys.len() as u64;
    let keys = rec.span(hop.name, parent, window, n, || {
        hop.carry(index, keys, window)
    });
    let partial = worker.open.get_or_insert_with(Partial::new);
    rec.span("core.aggregate.observe", parent, window, n, || {
        for key in &keys {
            WindowAggregate::<KeyId>::observe(&CountAggregate, partial, key, 1);
        }
    });
    for &key in &keys {
        if worker.seen.insert(key) {
            worker.fresh.push(key);
        }
    }
    worker.processed += n;
    // Counted as hop time: on Spsc the reverse ring is part of the hop.
    rec.span(hop.name, parent, window, 0, || hop.recycle(index, keys))
}

/// Times the layers that are not on this workload's path, or that sit
/// inside `route_batch`, on the first batches of the same stream.
fn probes(
    rec: &mut Recorder,
    keys: &[KeyId],
    partition: &PartitionConfig,
    job: &Job,
    facts: &mut Facts,
    workload: &Workload,
) {
    let root = rec.open("probes", NO_PARENT, u64::MAX);
    let none = u64::MAX;
    let mut digests: Vec<u64> = Vec::with_capacity(keys.len());
    let family = HashFamily::new(job.seed(), WORKERS.max(2), WORKERS);
    let d = (facts.d as usize).clamp(1, WORKERS);
    let mut choices: Vec<usize> = Vec::with_capacity(WORKERS);
    let mut sketch = SpaceSaving::<KeyId>::new(partition.sketch_capacity);
    let mut hist = LogHistogram::new();
    let mut frame_buf: Vec<u8> = Vec::new();
    let mut spsc = (workload.backend != Backend::Spsc).then(|| Hop::new("engine.spsc.hop", &Spsc));
    let mut inproc = Hop::new("engine.inproc.hop", &InProc);
    let mut tcp = (workload.backend != Backend::Tcp)
        .then(|| Hop::new("net.tcp.hop", &TcpTransport::loopback()));
    for (index, chunk) in keys.chunks(BATCH).enumerate() {
        let n = chunk.len() as u64;
        let at = digests.len();
        rec.span("hash.digest", root, none, n, || {
            digests.extend(chunk.iter().map(KeyHash::digest));
        });
        rec.span("hash.choices", root, none, n, || {
            for &digest in &digests[at..] {
                family.choices_from_digest_into(digest, d, &mut choices);
                black_box(&choices);
            }
        });
        let evictions = rec.span("sketch.space_saving", root, none, n, || {
            let mut evictions = 0;
            for key in chunk {
                // An unmonitored key that comes back above 1 took over the
                // minimum counter: an eviction.
                let (before, after) = sketch.observe_counts(key);
                evictions += u64::from(before == 0 && after > 1);
            }
            evictions
        });
        facts.sketch_updates += n;
        facts.sketch_evictions += evictions;
        rec.span("telemetry.hist", root, none, n, || {
            for &digest in &digests[at..] {
                hist.record(digest & 0xF_FFFF);
            }
        });
        let worker = index % WORKERS;
        let mut batch = chunk.to_vec();
        let mut frame = TupleFrame::Batch {
            window: 0,
            source: 0,
            seq: index as u64,
            emitted_us: 0,
            keys: batch,
        };
        rec.span("net.wire.encode", root, none, n, || {
            frame_buf.clear();
            encode_tuple_frame(&frame, &mut frame_buf);
        });
        facts.wire_bytes += frame_buf.len() as u64;
        facts.wire_tuples += n;
        frame = rec.span("net.wire.decode", root, none, n, || {
            decode_tuple_frame(&frame_buf).expect("own frame decodes").0
        });
        batch = match frame {
            TupleFrame::Batch { keys, .. } => keys,
            _ => unreachable!("a batch frame decodes to a batch frame"),
        };
        if let Some(hop) = spsc.as_mut() {
            batch = rec.span(hop.name, root, none, n, || {
                let keys = hop.carry(worker, batch, 0);
                hop.recycle(worker, keys)
            });
            batch.extend_from_slice(chunk);
        }
        batch = rec.span(inproc.name, root, none, n, || {
            inproc.carry(worker, batch, 0)
        });
        if let Some(hop) = tcp.as_mut() {
            batch = rec.span(hop.name, root, none, n, || hop.carry(worker, batch, 0));
        }
        black_box(batch);
    }
    black_box(&hist);
    rec.close(root, keys.len() as u64);
    // The head as the routing layer's tracker sees it: the sketch's heavy
    // hitters above theta. Schemes that track no head route none of it.
    let head_aware = matches!(
        job.kind(),
        PartitionerKind::DChoices | PartitionerKind::WChoices | PartitionerKind::RoundRobin
    );
    if head_aware {
        let head: u64 = sketch
            .heavy_hitters(partition.theta())
            .iter()
            .map(|(_, count)| count)
            .sum();
        facts.head_share = head as f64 / facts.sketch_updates.max(1) as f64;
    }
}

/// The engine-side numbers of one traced engine run.
fn engine_metrics(workload: &Workload, job: &Job, run: &TimedRun) -> Vec<(&'static str, f64)> {
    let r: &EngineResult = &run.result;
    let elapsed_us = r.elapsed_secs * 1e6;
    let share = |us: u64, instances: usize| us as f64 / (elapsed_us * instances as f64);
    let t = &r.transport;
    let pace_lag = workload
        .paced_ideal_secs(job.tuples() / SOURCES as u64)
        .map_or(0.0, |ideal| (r.elapsed_secs - ideal) / r.elapsed_secs);
    let checkpoints = r
        .trace
        .iter()
        .filter(|e| e.kind == trace_kind::CHECKPOINT_SAVE)
        .count();
    vec![
        ("workloads.pace_lag_share", pace_lag),
        (
            "engine.source.send_stall_share",
            share(t.source.send_stall_us, SOURCES),
        ),
        (
            "engine.source.batch_fill_mean",
            t.source.tuples_sent as f64 / t.source.batches_sent.max(1) as f64,
        ),
        (
            "engine.worker.recv_wait_share",
            share(t.worker.recv_wait_us, WORKERS),
        ),
        (
            "engine.worker.send_stall_share",
            share(t.worker.send_stall_us, WORKERS),
        ),
        (
            "engine.worker.queue_depth_hwm",
            t.worker.queue_depth_hwm as f64,
        ),
        ("engine.worker.checkpoints", checkpoints as f64),
        (
            "engine.aggregator.recv_wait_share",
            share(t.aggregator.recv_wait_us, AGGREGATORS),
        ),
        (
            "engine.aggregator.partials_merged",
            r.aggregator_stage.items as f64,
        ),
        (
            "engine.aggregator.duplicates_dropped",
            r.aggregator_stage.recovery.duplicates_dropped as f64,
        ),
        (
            "engine.aggregator.merge_latency_p50_us",
            r.aggregator_stage.latency.p50_us as f64,
        ),
        ("engine.latency_p99_us", r.latency.p99_us as f64),
        ("engine.imbalance", r.imbalance),
    ]
}

/// Everything the traced run of one workload produced.
pub struct Traced {
    /// `(metric name, value)` for every per-layer metric.
    pub metrics: Vec<(&'static str, f64)>,
    /// The span file's content (without the report's stamp).
    pub spans: Value,
}

/// Runs the replay twice with spans and twice without, and combines the
/// faster traced one with the engine runs' numbers (`runs` is not empty) into the per-layer metrics.
pub fn trace(workload: &Workload, job: &Job, runs: &[TimedRun]) -> Traced {
    // Alternate plain and traced replays and compare the faster of each: a
    // neighbour on the machine only ever slows a replay down.
    let plain_first = replay(workload, job, false);
    let traced_first = replay(workload, job, true);
    let plain_second = replay(workload, job, false);
    let traced_second = replay(workload, job, true);
    let plain_ns = plain_first.wall_ns.min(plain_second.wall_ns) as f64;
    let traced = if traced_first.wall_ns <= traced_second.wall_ns {
        traced_first
    } else {
        traced_second
    };
    let facts = &traced.facts;
    let totals = layer_totals(&traced.spans);
    let per_unit = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.self_ns as f64 / t.count.max(1) as f64)
    };
    let per_tuple = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.self_ns as f64 / facts.tuples as f64)
    };

    // The layers a tuple of this workload passes through, per tuple. The
    // partial encode is on the path only where partials cross a socket.
    let hop = match workload.backend {
        Backend::Spsc => "engine.spsc.hop",
        Backend::Tcp => "net.tcp.hop",
    };
    let mut path = vec![
        "workloads.zipf",
        "core.route",
        "engine.source.scatter",
        hop,
        "core.aggregate.observe",
        "core.aggregate.shard",
        "core.checkpoint.encode",
        "core.aggregate.merge",
    ];
    if workload.backend == Backend::Tcp {
        path.push("core.wire.partial_encode");
    }
    let layers_ns = path.iter().map(|name| per_tuple(name)).sum::<f64>() + workload.service_ns();
    let cpu_ns = median(&runs.iter().map(|r| r.cpu_ns_per_tuple).collect::<Vec<_>>());

    let mut metrics = vec![
        ("workloads.zipf.ns_per_key", per_unit("workloads.zipf")),
        ("hash.digest.ns_per_key", per_unit("hash.digest")),
        ("hash.choices.ns_per_key", per_unit("hash.choices")),
        (
            "sketch.space_saving.ns_per_update",
            per_unit("sketch.space_saving"),
        ),
        (
            "sketch.space_saving.evict_share",
            facts.sketch_evictions as f64 / facts.sketch_updates.max(1) as f64,
        ),
        ("core.route.ns_per_tuple", per_unit("core.route")),
        ("core.route.head_share", facts.head_share),
        ("core.route.d", facts.d),
        (
            "engine.source.scatter_ns_per_tuple",
            per_unit("engine.source.scatter"),
        ),
        (
            "core.aggregate.observe_ns_per_tuple",
            per_unit("core.aggregate.observe"),
        ),
        (
            "core.aggregate.shard_ns_per_key",
            per_unit("core.aggregate.shard"),
        ),
        (
            "core.aggregate.merge_ns_per_key",
            per_unit("core.aggregate.merge"),
        ),
        (
            "core.checkpoint.encode_ns_per_key",
            per_unit("core.checkpoint.encode"),
        ),
        (
            "core.checkpoint.bytes_per_window",
            facts.checkpoint_bytes as f64 / facts.checkpoints.max(1) as f64,
        ),
        (
            "core.wire.partial_encode_ns_per_key",
            per_unit("core.wire.partial_encode"),
        ),
        ("engine.spsc.hop_ns_per_tuple", per_unit("engine.spsc.hop")),
        (
            "engine.inproc.hop_ns_per_tuple",
            per_unit("engine.inproc.hop"),
        ),
        ("net.wire.encode_ns_per_tuple", per_unit("net.wire.encode")),
        ("net.wire.decode_ns_per_tuple", per_unit("net.wire.decode")),
        (
            "net.wire.bytes_per_tuple",
            facts.wire_bytes as f64 / facts.wire_tuples.max(1) as f64,
        ),
        ("net.tcp.hop_ns_per_tuple", per_unit("net.tcp.hop")),
        ("telemetry.hist.record_ns", per_unit("telemetry.hist")),
        ("budget.layers_ns_per_tuple", layers_ns),
        ("budget.residual_share", (cpu_ns - layers_ns) / cpu_ns),
        (
            "trace.overhead_share",
            (traced.wall_ns as f64 - plain_ns) / plain_ns,
        ),
    ];
    // Engine-side numbers: the median over the traced engine runs.
    let per_run: Vec<Vec<(&'static str, f64)>> = runs
        .iter()
        .map(|run| engine_metrics(workload, job, run))
        .collect();
    for (i, (name, _)) in per_run[0].iter().enumerate() {
        let values: Vec<f64> = per_run.iter().map(|m| m[i].1).collect();
        metrics.push((name, median(&values)));
    }

    Traced {
        metrics,
        spans: span_file(&traced.spans, &totals),
    }
}

/// The span file: a name table, the per-layer self times, and every span as
/// `[parent, name index, start_ns, end_ns, window, count]` (a span's id is
/// its position; parent −1 is a root; window −1 is "no window").
fn span_file(spans: &[Span], totals: &HashMap<&'static str, LayerTotal>) -> Value {
    let mut names: Vec<&'static str> = totals.keys().copied().collect();
    names.sort_unstable();
    let index: HashMap<&str, usize> = names.iter().enumerate().map(|(i, n)| (*n, i)).collect();
    let signed = |v: u64| if v == u64::MAX { -1.0 } else { v as f64 };
    Value::obj([
        (
            "names",
            Value::Arr(names.iter().map(|n| Value::str(*n)).collect()),
        ),
        (
            "layers",
            Value::obj(names.iter().map(|name| {
                let t = totals[name];
                (
                    *name,
                    Value::obj([
                        ("self_ns", Value::Num(t.self_ns as f64)),
                        ("count", Value::Num(t.count as f64)),
                        ("spans", Value::Num(t.spans as f64)),
                    ]),
                )
            })),
        ),
        (
            "span_fields",
            Value::Arr(
                ["parent", "name", "start_ns", "end_ns", "window", "count"]
                    .into_iter()
                    .map(Value::str)
                    .collect(),
            ),
        ),
        (
            "spans",
            Value::Arr(
                spans
                    .iter()
                    .map(|s| {
                        Value::nums([
                            if s.parent == NO_PARENT {
                                -1.0
                            } else {
                                s.parent as f64
                            },
                            index[s.name] as f64,
                            s.start_ns as f64,
                            s.end_ns as f64,
                            signed(s.window),
                            s.count as f64,
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}
