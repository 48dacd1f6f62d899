//! The worker stage: sequence-deduplicated receive, per-window partial
//! state, and the checkpoint log that makes a crash recoverable.

use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc;
use std::time::Instant;

use slb_core::{
    merge_ascending, CheckpointView, FixedHashSet, OpenWindowView, WindowAggregate, WirePartial,
    WorkerCheckpoint,
};
use slb_telemetry::{
    stage, trace_kind, HopStats, HopTelemetry, LogHistogram, RecoveryMetrics, TraceBuf, TraceEvent,
};
use slb_workloads::KeyId;

use super::config::StagePlan;
use super::source::SourceControlEvent;
use crate::fault::{CheckpointRecord, CheckpointStore};
use crate::transport::{PartialSender, PartialWindow, RecvError, SourceMessage, TupleReceiver};
use crate::windows::WindowId;

/// The phase that `window` belongs to, via the phase start-window table.
#[inline]
fn phase_of(starts: &[WindowId], window: WindowId) -> usize {
    starts.partition_point(|&s| s <= window) - 1
}

/// What one worker reports after finalizing its last window: counts,
/// state footprint, per-phase latency histograms, and per-phase activity
/// spans as `(first, last)` microseconds since the run epoch (an
/// `Instant`-free representation, so reports can cross process boundaries).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkerStageReport {
    /// Tuples processed.
    pub processed: u64,
    /// Tuples processed per phase.
    pub phase_counts: Vec<u64>,
    /// Per-phase source-emit → completion latencies, µs.
    pub phase_latencies: Vec<LogHistogram>,
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
    /// the deterministic result.
    pub checkpoint_bytes: u64,
    /// The deterministic logical trace of this worker (window closes,
    /// checkpoint saves/restores, replay requests).
    pub trace: Vec<TraceEvent>,
    /// Transport counters for this worker's receive side plus its
    /// worker→aggregator sends.
    pub transport: HopStats,
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
    /// window partials. Filled once per close from `arrived`, never per
    /// tuple: on cold state nearly every tuple is new to its window, and a
    /// probe of this set misses cache where a pass over a window's keys
    /// does not stall on each one.
    keys: FixedHashSet<KeyId>,
    /// The keys new to their window's partial since the last close, in
    /// arrival order (a key may repeat, once per window). Not checkpointed:
    /// every close files them into `keys` before it writes, so a restore
    /// starts with none and the replay queues them again.
    arrived: Vec<KeyId>,
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
    /// The windows in flight, in window order (never more than a handful):
    /// what a checkpoint's open-window list is written from.
    open: BTreeMap<WindowId, OpenWindow<P>>,
}

/// One window this worker has seen something of and not yet finalized.
struct OpenWindow<P> {
    /// The in-flight partial; `None` until the window's first tuple.
    partial: Option<P>,
    /// Close markers seen, one per source at most.
    closes: usize,
}

impl<P> Default for OpenWindow<P> {
    fn default() -> Self {
        Self {
            partial: None,
            closes: 0,
        }
    }
}

impl<P: WirePartial> WorkerState<P> {
    fn new(n_phases: usize, sources: usize) -> Self {
        Self {
            processed: 0,
            windows_closed: 0,
            phase_counts: vec![0; n_phases],
            expected_seq: vec![0; sources],
            keys: FixedHashSet::default(),
            arrived: Vec::new(),
            base_keys: Vec::new(),
            since_base: Vec::new(),
            delta_from: 0,
            open: BTreeMap::new(),
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
            .map(|w| {
                let partial = w.partial.as_ref().map(|blob| {
                    P::decode_partial(&mut blob.as_slice())
                        .expect("a worker's own checkpoint decodes")
                });
                let closes = w.closes_seen as usize;
                (w.window, OpenWindow { partial, closes })
            })
            .collect();
        Self {
            processed: checkpoint.processed,
            windows_closed: checkpoint.windows_closed,
            phase_counts,
            expected_seq,
            keys: checkpoint.state_keys.iter().copied().collect(),
            arrived: Vec::new(),
            base_keys: checkpoint.state_keys.clone(),
            since_base: Vec::new(),
            delta_from: 0,
            open,
        }
    }

    /// Files the keys queued in `arrived` into the whole-run set, in one
    /// pass; a key first seen by this worker also joins `since_base`.
    fn drain_arrived(&mut self) {
        for key in self.arrived.drain(..) {
            if self.keys.insert(key) {
                self.since_base.push(key);
            }
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
        // Every key that arrived before this close, in any open window, is
        // in the record — exactly the keys a set probed at every tuple
        // would hold by now.
        self.drain_arrived();
        let open = self.open.iter().map(|(&window, open)| OpenWindowView {
            window,
            closes_seen: open.closes as u64,
            partial: open.partial.as_ref(),
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

/// Asks source `src` to replay to `worker` from `from_seq`.
fn request_replay(
    senders: &[mpsc::Sender<SourceControlEvent>],
    worker: usize,
    src: usize,
    from_seq: u64,
    trace: &mut TraceBuf,
    recovery: &mut RecoveryMetrics,
) {
    let rejoin = SourceControlEvent::Rejoin { worker, from_seq };
    // A wired source outlives every sender to it, so only a missing one fails.
    senders
        .get(src)
        .and_then(|source| source.send(rejoin).ok())
        .expect("a source must replay to this worker, but no in-process recovery was wired");
    trace.push(trace_kind::REPLAY_REQUEST, 0, src as u64, from_seq);
    recovery.replay_requests += 1;
}

/// How a worker stage recovers — the one per-role argument of
/// [`run_worker_stage`]. Either way the stage returns as soon as the plan's
/// last window finalizes (at once, if none is left to finalize), its tuple
/// receiver still open: whatever a source sends it after that is a replay
/// overlap the worker has no use for.
pub enum WorkerRecovery<'a> {
    /// In-process recovery over one sender per source into that source's
    /// `mpsc::Receiver<SourceControlEvent>` control: the worker asks sources
    /// for replay itself, with a [`SourceControlEvent::Rejoin`], and its
    /// return drops the senders (letting sources finish their
    /// replay-service loops). With no senders no crash can be simulated and
    /// no replay requested.
    Feedback(Vec<mpsc::Sender<SourceControlEvent>>),
    /// Process-level recovery (every `slb-node` worker). Two differences
    /// from [`Self::Feedback`]:
    ///
    /// - The worker may *start* from `initial` (restored from the on-disk
    ///   [`slb_core::DurableCheckpointStore`] log by the respawned process),
    ///   and every record it saves is mirrored to `persist` (the durable
    ///   store's `save` for a base, `append` for a delta; a no-op for a
    ///   worker that keeps no log) right after the in-memory save. A fresh
    ///   process always begins with a base.
    /// - The worker sends nothing to a source: replay is requested on its
    ///   behalf by the orchestrator — the `Rejoin` control frame carries the
    ///   restored cursors to every source — and a sequence gap panics (the
    ///   supervised source protocol guarantees gap-free delivery on each
    ///   connection).
    Durable {
        /// The checkpoint to start from, if this process is a respawn.
        initial: Option<&'a WorkerCheckpoint>,
        /// Called with the record just saved at every window finalization.
        persist: &'a mut dyn FnMut(CheckpointRecord<'_>),
    },
}

/// Everything one worker contributes to a run: drains whole runs of batches
/// from `receiver`, spins for the phase's per-worker service time,
/// accumulates per-window partial aggregates, and — once every source's
/// close marker for a window has arrived — shards the window's partial and
/// ships the slices through `partial_senders` (one per aggregator).
///
/// `epoch` anchors the report's span timestamps; pass the instant the run
/// started (the same epoch on every node of a distributed run). `hop` is
/// updated once per message, never per tuple; the caller may snapshot it
/// from another thread while the stage runs.
///
/// Three mechanisms stack to make processing exactly-once under the plan's
/// injected faults and under `recovery`'s protocol:
///
/// 1. **Sequence dedup.** Every message carries its per-(source, worker)
///    sequence number. A message below the expected cursor is a replay
///    overlap — dropped; above it is a gap — the worker sends one
///    [`SourceControlEvent::Rejoin`] per missing cursor position and drops
///    until the expected message arrives; exactly at it — processed, cursor
///    advances.
/// 2. **Per-window checkpoints.** At every window finalization the worker
///    appends one record to its checkpoint log: a delta sized by the
///    window, or — when the deltas outweigh the last one — a new base
///    ([`WorkerCheckpoint`]).
/// 3. **Crash + restore.** At a [`FaultPlan`](crate::fault::FaultPlan) kill
///    point the worker discards *all* volatile state, rebuilds it from its
///    checkpoint log (or starts empty if it never took one), and asks every
///    source to replay from the checkpoint's cursors. Closed windows are
///    never reprocessed — their tuples sit below the checkpoint cursors —
///    so aggregators see each (worker, window) partial at most once per
///    finalization.
///
/// # Panics
/// Panics if a partial send fails (an aggregator endpoint disappeared), or
/// if recovery is needed (gap observed, kill scheduled) and `recovery` has
/// no senders to the sources.
#[allow(clippy::too_many_arguments)]
pub fn run_worker_stage<A, Rx, Tx>(
    plan: &StagePlan,
    worker_idx: usize,
    epoch: Instant,
    aggregate: &A,
    receiver: Rx,
    partial_senders: &[Tx],
    recovery: WorkerRecovery<'_>,
    hop: &HopTelemetry,
) -> WorkerStageReport
where
    A: WindowAggregate<KeyId>,
    A::Partial: WirePartial,
    Rx: TupleReceiver,
    Tx: PartialSender<A::Partial>,
{
    let (replay_senders, initial, mut persist) = match recovery {
        WorkerRecovery::Feedback(senders) => (senders, None, None),
        WorkerRecovery::Durable { initial, persist } => (Vec::new(), initial, Some(persist)),
    };
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
        kill_points.is_empty() || !replay_senders.is_empty(),
        "kill-worker faults require in-process recovery"
    );
    let mut state: WorkerState<A::Partial> = WorkerState::new(n_phases, sources);
    let mut phase_latencies = vec![LogHistogram::new(); n_phases];
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
    let mut trace = TraceBuf::new(stage::WORKER, worker_idx as u32);
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
    let mut drained: Vec<SourceMessage> = Vec::new();
    // An empty partial sized by the last window closed, for the next window
    // to open; a capacity hint, not state, so a crash keeps it.
    let mut room: Option<A::Partial> = None;
    // The stage ends at the plan's last window, not at an EOF: a source
    // holds its senders until it is released, and it is released only once
    // every worker has returned. Nothing left to finalize (an empty plan,
    // or a respawn restored past the last close) ends it at once.
    'recv: while state.windows_closed < total_windows {
        let before = Instant::now();
        let received = receiver.recv_batch(&mut drained);
        hop.recv_wait_us.add(before.elapsed().as_micros() as u64);
        match received {
            Ok(_) => {}
            Err(RecvError::Transport(_)) => {
                // One connection delivered a malformed frame, failed a
                // read or was reset. Survivable: that connection is
                // done, but the channel (and any other connection
                // feeding it) lives on — count it and keep draining.
                recovery.transport_errors += 1;
                continue;
            }
            Err(RecvError::Closed) => break,
        }
        hop.queue_depth_hwm.record(drained.len() as u64);
        for message in drained.drain(..) {
            let (src, seq) = message.source_seq();
            if src >= sources {
                // Well-formed, but from no source of this plan (a stray
                // peer on the data port): shed it like a malformed frame.
                recovery.transport_errors += 1;
                continue;
            }
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
                    request_replay(
                        &replay_senders,
                        worker_idx,
                        src,
                        state.expected_seq[src],
                        &mut trace,
                        &mut recovery,
                    );
                    pending_request[src] = Some(state.expected_seq[src]);
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
                    hop.batches_received.add(1);
                    hop.tuples_received.add(n);
                    hop.batch_occupancy.record(n);
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
                        .or_default()
                        .partial
                        .get_or_insert_with(|| room.take().unwrap_or_else(|| aggregate.empty()));
                    // One probe per tuple. A key the open partial already
                    // holds was queued when it entered the partial (a
                    // restored partial's keys are in the restored set), so
                    // only a key new to its window is queued, for the next
                    // close to file into the whole-run set.
                    for key in &batch.keys {
                        if aggregate.observe(partial, key, 1) {
                            state.arrived.push(*key);
                        }
                    }
                    if is_replay {
                        recovery.replayed_items += n;
                    }
                    let done = Instant::now();
                    let batch_latency_us = done.duration_since(batch.emitted_at).as_micros() as u64;
                    phase_latencies[phase].record_n(batch_latency_us, n);
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
                        for (src, pending) in pending_request.iter_mut().enumerate() {
                            request_replay(
                                &replay_senders,
                                worker_idx,
                                src,
                                state.expected_seq[src],
                                &mut trace,
                                &mut recovery,
                            );
                            *pending = Some(state.expected_seq[src]);
                        }
                    }
                    // The batch is consumed; hand its buffer back to the
                    // sources on transports with a recycling return path
                    // (a no-op everywhere else).
                    receiver.recycle(batch.keys);
                }
                SourceMessage::CloseWindow { window, .. } => {
                    let open = state.open.entry(window).or_default();
                    open.closes += 1;
                    if open.closes < sources {
                        continue;
                    }
                    // Channels are FIFO per source and sequence dedup
                    // admits each marker once, so with all sources'
                    // markers in hand this worker holds every tuple of
                    // the window that was routed to it: finalize and
                    // ship the shard slices.
                    let partial = state
                        .open
                        .remove(&window)
                        .and_then(|open| open.partial)
                        .unwrap_or_else(|| aggregate.empty());
                    // The next window to open starts at this one's size.
                    room = Some(aggregate.with_room(&partial));
                    let closed_at = Instant::now();
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
                    hop.send_stall_us
                        .add(closed_at.elapsed().as_micros() as u64);
                    hop.batches_sent.add(aggregators as u64);
                    hop.tuples_sent.add(aggregators as u64);
                    state.windows_closed += 1;
                    trace.push(trace_kind::WINDOW_CLOSE, window, state.windows_closed, 0);
                    // Checkpoint at the finalization boundary: shipping
                    // the partials and persisting the cursor that covers
                    // them happen back to back, so a later restore never
                    // re-finalizes this window.
                    let record = state.save_checkpoint(worker_idx, &mut store);
                    // Mirror to the durable medium: the hook runs back to
                    // back with shipping the partials, so a respawn
                    // restoring these bytes never re-finalizes this window.
                    if let Some(hook) = persist.as_mut() {
                        hook(record);
                    }
                    checkpoints += 1;
                    // One event per close whichever kind the record was:
                    // which state.closes rebase depends on how much of the
                    // next window was already state.open, and the trace is
                    // interleaving-free.
                    trace.push(trace_kind::CHECKPOINT_SAVE, window, state.windows_closed, 0);
                    if state.windows_closed == total_windows {
                        break 'recv;
                    }
                }
            }
        }
    }
    debug_assert!(
        state.open.is_empty(),
        "all windows must be closed by end of stream"
    );
    // Keys past the last close (none on a complete stream) still count.
    state.drain_arrived();
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
        transport: hop.snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::sync::Arc;
    use std::thread;

    use slb_core::{CountAggregate, PartitionerKind};

    use super::super::test_support::{
        partial_channels, tiny_supervised_config, tuple_channels, CountPartial,
    };
    use super::super::{run_source_stage, EngineConfig};
    use super::*;
    use crate::fault::FaultPlan;
    use crate::transport::PartialReceiver;
    use crate::windows::source_stream;

    /// Runs worker 0 of a one-source, one-worker `cfg` as a durable stage
    /// — fed by a real source thread, drained by a sink thread — and
    /// returns its report with the tuples it shipped per window.
    fn run_durable_worker(
        cfg: &EngineConfig,
        initial: Option<&WorkerCheckpoint>,
        persist: &mut dyn FnMut(CheckpointRecord<'_>),
    ) -> (WorkerStageReport, BTreeMap<WindowId, u64>) {
        let plan = cfg.stage_plan();
        let (senders, receivers) = tuple_channels(&plan);
        let receiver = receivers.into_iter().next().unwrap();
        let (partial_senders, partial_receivers) = partial_channels(&plan);
        let partial_receiver = partial_receivers.into_iter().next().unwrap();
        let (source_cfg, source_plan) = (cfg.clone(), plan.clone());
        let source = thread::spawn(move || {
            // Nobody will ask for a replay: the control's sender is gone.
            let (_, released) = mpsc::channel();
            run_source_stage(
                &source_plan,
                0,
                |_phase| source_stream(&source_cfg, 0),
                &senders,
                released,
                &HopTelemetry::default(),
            )
        });
        let sink = thread::spawn(move || {
            let mut buf = Vec::new();
            let mut shipped: BTreeMap<WindowId, u64> = BTreeMap::new();
            while PartialReceiver::recv_batch(&partial_receiver, &mut buf).is_ok() {
                for pw in buf.drain(..) {
                    *shipped.entry(pw.window).or_default() += pw.partial.values().sum::<u64>();
                }
            }
            shipped
        });
        let report = run_worker_stage(
            &plan,
            0,
            Instant::now(),
            &CountAggregate,
            receiver,
            &partial_senders,
            WorkerRecovery::Durable { initial, persist },
            &HopTelemetry::default(),
        );
        drop(partial_senders);
        source.join().expect("source thread panicked");
        (report, sink.join().expect("sink thread panicked"))
    }

    /// A worker leaves at its plan's last window, not at an EOF, whichever
    /// recovery it runs: with its tuple channel still open, a durable worker
    /// whose plan has no window to finalize returns at once, and an
    /// in-process one returns right after its last close.
    #[test]
    fn a_worker_returns_at_the_last_window_without_an_eof() {
        let mut empty = tiny_supervised_config().with_messages(1);
        empty.sources = 2;
        for (cfg, durable) in [(empty, true), (tiny_supervised_config(), false)] {
            let plan = cfg.stage_plan();
            assert_eq!(plan.total_windows() == 0, durable);
            let (tuple_senders, receivers) = tuple_channels(&plan);
            let receiver = receivers.into_iter().next().unwrap();
            let (partial_senders, _partial_receivers) = partial_channels(&plan);
            // The whole stream fits in the queue, and `tuple_senders`
            // outlive the worker: no EOF ever reaches it.
            for source in 0..plan.sources {
                let (_, released) = mpsc::channel();
                let stream = |_phase| source_stream(&cfg, source);
                let hop = HopTelemetry::default();
                run_source_stage(&plan, source, stream, &tuple_senders, released, &hop);
            }
            let (feedback, _control) = mpsc::channel();
            let feedback = (!durable).then(|| vec![feedback]);
            let (done, report) = mpsc::channel();
            let worker_plan = plan.clone();
            thread::spawn(move || {
                let mut persist = |_: CheckpointRecord<'_>| {};
                let recovery = match feedback {
                    Some(senders) => WorkerRecovery::Feedback(senders),
                    None => WorkerRecovery::Durable {
                        initial: None,
                        persist: &mut persist,
                    },
                };
                let report = run_worker_stage(
                    &worker_plan,
                    0,
                    Instant::now(),
                    &CountAggregate,
                    receiver,
                    &partial_senders,
                    recovery,
                    &HopTelemetry::default(),
                );
                let _ = done.send(report);
            });
            let report = report.recv_timeout(std::time::Duration::from_secs(10));
            let report = report.expect("the worker waited for an EOF");
            assert_eq!(report.windows_closed, plan.total_windows());
            let tuples = if durable { 0 } else { cfg.messages };
            assert_eq!(report.processed, tuples);
            drop(tuple_senders);
        }
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
            let (partial, closes) = (Some(ahead.clone()), 1);
            state.open.insert(close, OpenWindow { partial, closes });
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
                assert_eq!(state.open[&close].closes, 1);
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
        let windows = cfg.stage_plan().total_windows();
        // (is_base, keys in the record, bytes in the record)
        let mut records: Vec<(bool, u64, u64)> = Vec::new();
        let mut persist = |record: CheckpointRecord<'_>| {
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
        };
        let (report, _) = run_durable_worker(&cfg, None, &mut persist);

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

    /// One message of a hand-written script: a batch of `keys`, or — with
    /// `keys: None` — a close marker.
    #[derive(Clone)]
    struct Step {
        source: usize,
        window: WindowId,
        seq: u64,
        keys: Option<Vec<KeyId>>,
    }

    impl Step {
        fn message(&self) -> SourceMessage {
            let (window, source, seq) = (self.window, self.source, self.seq);
            match &self.keys {
                Some(keys) => SourceMessage::Batch(crate::transport::TupleBatch {
                    keys: keys.clone(),
                    window,
                    source,
                    seq,
                    emitted_at: Instant::now(),
                }),
                None => SourceMessage::CloseWindow {
                    window,
                    source,
                    seq,
                },
            }
        }
    }

    /// Six windows from two sources into one worker and one aggregator.
    fn overlap_plan() -> StagePlan {
        let mut cfg = tiny_supervised_config();
        cfg.sources = 2;
        cfg.messages = 2 * 6 * cfg.window_size;
        let plan = cfg.stage_plan();
        assert_eq!(plan.total_windows(), 6);
        plan
    }

    /// Two sources out of step: source 0 finishes window w + 1 before
    /// source 1 starts window w. One 120-key batch per source and window:
    /// many repeats within a window, most keys shared with the windows
    /// around it, a few new ones every window.
    fn overlapping_script(windows: u64) -> Vec<Step> {
        let mut rng = 0x0dd_ba11_u64;
        let mut batch = |source: usize, window: WindowId| {
            let keys = (0..120)
                .map(|_| {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    rng % (60 + 40 * window)
                })
                .collect();
            Step {
                source,
                window,
                seq: 2 * window,
                keys: Some(keys),
            }
        };
        let close = |source: usize, window: WindowId| Step {
            source,
            window,
            seq: 2 * window + 1,
            keys: None,
        };
        let mut script = vec![batch(0, 0), close(0, 0)];
        for w in 0..windows {
            if w + 1 < windows {
                script.push(batch(0, w + 1));
                script.push(close(0, w + 1));
            }
            script.push(batch(1, w));
            script.push(close(1, w));
        }
        script
    }

    /// Runs worker 0 of `plan` as an in-process recoverable stage over
    /// `script`, queued up front, and stands in for its sources: a restore
    /// asks every source for a replay at once, and the script's steps from
    /// the requested cursors are queued again, in script order. Returns the
    /// report and the partial each window shipped.
    fn run_scripted(
        plan: &StagePlan,
        script: &[Step],
    ) -> (WorkerStageReport, BTreeMap<WindowId, CountPartial>) {
        assert_eq!(plan.aggregators, 1);
        let (sender, receiver) = crossbeam_channel::bounded(2 * script.len());
        for step in script {
            sender.send(step.message()).expect("queue holds the script");
        }
        let windows = plan.total_windows() as usize;
        let (partial_sender, partial_receiver) = crossbeam_channel::bounded(2 * windows);
        let (controls, requests): (Vec<_>, Vec<_>) =
            (0..plan.sources).map(|_| mpsc::channel()).unzip();
        let report = thread::scope(|scope| {
            let worker = scope.spawn(|| {
                run_worker_stage(
                    plan,
                    0,
                    Instant::now(),
                    &CountAggregate,
                    receiver,
                    &[partial_sender],
                    WorkerRecovery::Feedback(controls),
                    &HopTelemetry::default(),
                )
            });
            // Without a restore, the worker lets its sources go after its
            // last window and every `recv` ends.
            let cursors: Vec<Option<u64>> = requests
                .iter()
                .map(|requests| match requests.recv() {
                    Ok(SourceControlEvent::Rejoin { from_seq, .. }) => Some(from_seq),
                    _ => None,
                })
                .collect();
            for step in script {
                let from = cursors.get(step.source).copied().flatten();
                if from.is_some_and(|from| step.seq >= from) {
                    sender.send(step.message()).expect("queue holds the replay");
                }
            }
            drop(sender);
            worker.join().expect("worker thread panicked")
        });
        let mut shipped: BTreeMap<WindowId, CountPartial> = BTreeMap::new();
        while let Ok(pw) = partial_receiver.try_recv() {
            let PartialWindow {
                window, partial, ..
            } = pw;
            assert!(
                shipped.insert(window, partial).is_none(),
                "window {window} shipped twice"
            );
        }
        (report, shipped)
    }

    /// Two sources out of step: source 0 runs a whole window ahead, so at
    /// every close the next window's partial is already open and holds keys
    /// — some of them keys the closing window is about to see for the first
    /// time from source 1. The worker files a key into its key set at the
    /// close after it was new to its window's partial; what it records must
    /// still be what a set consulted at every tuple records: `state_keys`,
    /// and in the checkpoint log every key exactly once, in the record of
    /// the close that followed its first arrival.
    #[test]
    fn state_keys_match_a_per_tuple_set_when_windows_overlap() {
        use slb_core::CheckpointDelta;
        use std::collections::HashSet;
        let plan = overlap_plan();
        let windows = plan.total_windows();
        let script = overlapping_script(windows);

        // The reference: one set, asked at every tuple.
        let mut seen: HashSet<KeyId> = HashSet::new();
        let mut fresh: Vec<KeyId> = Vec::new();
        // Per close: every key so far, and the keys new since the last close.
        let mut expected: Vec<(Vec<KeyId>, Vec<KeyId>)> = Vec::new();
        for step in &script {
            match &step.keys {
                Some(keys) => {
                    for &key in keys {
                        if seen.insert(key) {
                            fresh.push(key);
                        }
                    }
                }
                // Source 1's marker is the window's last: the close.
                None if step.source == 1 => {
                    let mut all: Vec<KeyId> = seen.iter().copied().collect();
                    all.sort_unstable();
                    fresh.sort_unstable();
                    expected.push((all, std::mem::take(&mut fresh)));
                }
                None => {}
            }
        }
        assert!(
            expected.iter().skip(1).all(|(_, fresh)| !fresh.is_empty()),
            "every window must bring first-ever keys"
        );

        let (sender, receiver) = crossbeam_channel::bounded(script.len());
        for step in &script {
            sender
                .send(step.message())
                .expect("queue holds the whole script");
        }
        drop(sender);
        let (partial_sender, _partial_receiver) =
            crossbeam_channel::bounded::<PartialWindow<CountPartial>>(windows as usize);
        let mut records: Vec<(bool, Vec<KeyId>)> = Vec::new();
        let mut persist = |record: CheckpointRecord<'_>| {
            let mut bytes = record.bytes();
            records.push(match record {
                CheckpointRecord::Base(_) => (
                    true,
                    WorkerCheckpoint::decode(&mut bytes)
                        .expect("own base decodes")
                        .state_keys,
                ),
                CheckpointRecord::Delta(_) => (
                    false,
                    CheckpointDelta::decode(&mut bytes)
                        .expect("own delta decodes")
                        .fresh_keys,
                ),
            });
        };
        let recovery = WorkerRecovery::Durable {
            initial: None,
            persist: &mut persist,
        };
        let hop = HopTelemetry::default();
        let report = run_worker_stage(
            &plan,
            0,
            Instant::now(),
            &CountAggregate,
            receiver,
            &[partial_sender],
            recovery,
            &hop,
        );
        // The report's hop record is the handle the caller passed in.
        assert_eq!(report.transport, hop.snapshot());
        assert_eq!(hop.tuples_received.get(), report.processed);

        assert_eq!(report.windows_closed, windows);
        assert_eq!(report.processed, 120 * 2 * windows);
        assert_eq!(report.state_keys, seen.len() as u64);
        assert_eq!(records.len(), expected.len());
        assert!(records.iter().any(|(is_base, _)| !is_base), "no delta");
        for (close, ((is_base, keys), (all, fresh))) in records.iter().zip(&expected).enumerate() {
            let want = if *is_base { all } else { fresh };
            assert_eq!(keys, want, "close {close} (base: {is_base})");
        }
    }

    /// A kill between two closes, after the next windows' first keys have
    /// arrived — queued, not yet in the whole-run key set. The restore
    /// drops the queue with the rest of the volatile state, the replay
    /// queues those keys again, and the run ends where the fault-free run
    /// of the script ends: the same `state_keys`, the same partials, and
    /// the same checkpoint records — one per close, saved at the same
    /// closes, the same bytes in total — because the replay reaches every
    /// close with the same open windows and the same keys to file.
    #[test]
    fn a_kill_with_keys_still_queued_restores_the_fault_free_run() {
        let mut plan = overlap_plan();
        let script = overlapping_script(plan.total_windows());
        // Window 2 closes, then source 0's batch of window 4 and source 1's
        // of window 3 arrive: the kill comes right after the second.
        let find = |source: usize, window: WindowId, batch: bool| {
            let step = |s: &Step| (s.source, s.window, s.keys.is_some()) == (source, window, batch);
            script
                .iter()
                .position(step)
                .expect("the script has the step")
        };
        let (closed, at) = (find(1, 2, false), find(1, 3, true));
        assert!(closed < at && script[closed..at].iter().any(|s| s.window == 4));
        let kill_at: u64 = script[..=at]
            .iter()
            .filter_map(|s| s.keys.as_ref())
            .map(|keys| keys.len() as u64)
            .sum();

        let (clean, clean_shipped) = run_scripted(&plan, &script);
        plan.faults = Arc::new(FaultPlan::none().kill_worker(0, kill_at));
        let (killed, killed_shipped) = run_scripted(&plan, &script);

        assert_eq!(clean.recovery.restores, 0);
        assert_eq!(killed.recovery.restores, 1);
        assert_eq!(killed.recovery.replay_requests, 2);
        assert!(killed.recovery.duplicates_dropped > 0);
        assert_eq!(killed.state_keys, clean.state_keys);
        assert_eq!(killed.processed, clean.processed);
        assert_eq!(killed.windows_closed, clean.windows_closed);
        assert_eq!(killed_shipped, clean_shipped);
        assert_eq!(killed.checkpoints, clean.checkpoints);
        assert_eq!(killed.checkpoint_bytes, clean.checkpoint_bytes);
        // The restore's own events sit between them in the killed run's
        // trace, so compare everything but the event numbers.
        let closes_and_saves = |report: &WorkerStageReport| -> Vec<(u8, u64, u64, u64)> {
            let kinds = [trace_kind::WINDOW_CLOSE, trace_kind::CHECKPOINT_SAVE];
            let events = report.trace.iter().filter(|e| kinds.contains(&e.kind));
            events.map(|e| (e.kind, e.window, e.a, e.b)).collect()
        };
        assert_eq!(closes_and_saves(&killed), closes_and_saves(&clean));
    }

    /// A well-formed message naming a source the plan does not have (a
    /// stray peer on a data port) is shed and counted as a transport error;
    /// the run around it is the run without it.
    #[test]
    fn a_message_from_no_source_of_the_plan_is_shed() {
        let plan = overlap_plan();
        let script = overlapping_script(plan.total_windows());
        let stray = Step {
            source: plan.sources,
            window: 0,
            seq: 0,
            keys: Some(vec![7; 3]),
        };
        let with_stray: Vec<Step> = std::iter::once(stray).chain(script.clone()).collect();

        let (clean, clean_shipped) = run_scripted(&plan, &script);
        let (strayed, strayed_shipped) = run_scripted(&plan, &with_stray);

        assert_eq!(clean.recovery.transport_errors, 0);
        assert_eq!(strayed.recovery.transport_errors, 1);
        assert_eq!(strayed.windows_closed, plan.total_windows());
        assert_eq!(strayed.processed, clean.processed);
        assert_eq!(strayed.state_keys, clean.state_keys);
        assert_eq!(strayed_shipped, clean_shipped);
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
        // First life: run the full stream through a durable worker,
        // capturing every record the persist hook mirrors out, with
        // whether it was a base.
        let mut saved: Vec<(bool, Vec<u8>)> = Vec::new();
        let mut persist = |record: CheckpointRecord<'_>| {
            let is_base = matches!(record, CheckpointRecord::Base(_));
            saved.push((is_base, record.bytes().to_vec()));
        };
        let (first_report, first_merged) = run_durable_worker(&cfg, None, &mut persist);
        assert_eq!(first_report.processed, per_source);
        assert_eq!(first_report.windows_closed, windows);
        assert_eq!(first_report.recovery.restores, 0);
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
                let mut stream = source_stream(&cfg, 0);
                for _ in 0..checkpoint.processed {
                    seen.insert(stream.next_key());
                }
                seen.len() as u64
            },
            "base + delta must hold exactly the keys of the processed prefix"
        );
        let (second_report, second_merged) =
            run_durable_worker(&cfg, Some(&checkpoint), &mut |_| {});
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
