//! The worker stage: sequence-deduplicated receive, per-window partial
//! state, and the checkpoint log that makes a crash recoverable.

use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc;
use std::time::Instant;

use slb_core::{merge_ascending, CheckpointView, FixedHashSet, WindowAggregate, WorkerCheckpoint};
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
    /// together. A record holds no open window, but its keys include those
    /// of the windows in flight at its close, so which closes write a base
    /// depends on how far the later windows had got: a cost diagnostic, not
    /// part of the deterministic result.
    pub checkpoint_bytes: u64,
    /// The deterministic logical trace of this worker (window closes,
    /// checkpoint saves/restores, replay requests).
    pub trace: Vec<TraceEvent>,
    /// Transport counters for this worker's receive side plus its
    /// worker→aggregator sends.
    pub transport: HopStats,
}

/// Every piece of volatile worker state — what a crash loses and a restore
/// rebuilds. Timing diagnostics and recovery counters live outside it: they
/// describe the wall clock and the recovery itself, not the recovered state.
///
/// A checkpoint records the **finalized prefix** of this state: the
/// counters and cursors as of the last finalized window, with the key set.
/// The open windows are never written: a restore starts with none, and the
/// replay from the finalized cursors rebuilds them. Windows finalize in
/// order (each needs every source's close marker, and a source sends its
/// markers in window order), and each source's channel is FIFO, so every
/// message of a window not yet finalized comes after that source's marker
/// for the last finalized one.
struct WorkerState<P> {
    /// Tuples processed, finalized windows and open ones alike.
    processed: u64,
    windows_closed: u64,
    phase_counts: Vec<u64>,
    /// Per-source sequence cursor: the next message expected from each.
    expected_seq: Vec<u64>,
    /// The tuples of the finalized windows, in all and per phase.
    finalized_processed: u64,
    finalized_phase_counts: Vec<u64>,
    /// Per source, one past its close marker for the last finalized
    /// window: where a replay that rebuilds the open windows starts.
    finalized_seq: Vec<u64>,
    /// Distinct keys this worker has ever held state for (the
    /// memory-footprint metric); the per-key counts themselves live in the
    /// window partials. Filled once per close from `arrived`, never per
    /// tuple: on cold state nearly every tuple is new to its window, and a
    /// probe of this set misses cache where a pass over a window's keys
    /// does not stall on each one.
    keys: FixedHashSet<KeyId>,
    /// The keys new to their window's partial since the last close, in
    /// arrival order (a key may repeat, once per window). Not checkpointed:
    /// every close files them into `keys` before it writes, open windows'
    /// keys included, so a restore starts with none and the replay of the
    /// open windows queues keys the restored set already holds.
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
    /// The windows in flight, in window order (never more than a handful).
    open: BTreeMap<WindowId, OpenWindow<P>>,
}

/// One window this worker has seen something of and not yet finalized.
struct OpenWindow<P> {
    /// The in-flight partial; `None` until the window's first tuple.
    partial: Option<P>,
    /// The window's tuples so far.
    tuples: u64,
    /// Per source, one past the sequence number of its close marker for
    /// this window; 0 until the marker arrives.
    close_seq: Vec<u64>,
}

impl<P> Default for OpenWindow<P> {
    fn default() -> Self {
        Self {
            partial: None,
            tuples: 0,
            close_seq: Vec::new(),
        }
    }
}

impl<P> WorkerState<P> {
    fn new(n_phases: usize, sources: usize) -> Self {
        Self::restore(&WorkerCheckpoint::default(), n_phases, sources)
    }

    /// Rebuilds the state from a restored checkpoint (a log's base with its
    /// deltas applied, see [`WorkerCheckpoint::restore`]): the finalized
    /// prefix, with no window open. Shared by the simulated-crash restore
    /// (same process) and the respawn restore (new process, log read from
    /// disk).
    ///
    /// # Panics
    /// Panics if the checkpoint holds an open window: a worker's own record
    /// holds none.
    fn restore(checkpoint: &WorkerCheckpoint, n_phases: usize, sources: usize) -> Self {
        assert!(
            checkpoint.open.is_empty(),
            "a worker's own record holds no open window"
        );
        let mut phase_counts = checkpoint.phase_counts.clone();
        phase_counts.resize(n_phases, 0);
        let mut next_seq = checkpoint.next_seq.clone();
        next_seq.resize(sources, 0);
        Self {
            processed: checkpoint.processed,
            windows_closed: checkpoint.windows_closed,
            phase_counts: phase_counts.clone(),
            expected_seq: next_seq.clone(),
            finalized_processed: checkpoint.processed,
            finalized_phase_counts: phase_counts,
            finalized_seq: next_seq,
            keys: checkpoint.state_keys.iter().copied().collect(),
            arrived: Vec::new(),
            base_keys: checkpoint.state_keys.clone(),
            since_base: Vec::new(),
            delta_from: 0,
            open: BTreeMap::new(),
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
    /// `store`, encoded straight from this state: the finalized prefix's
    /// counters and cursors, no open window, and the fresh keys as a delta —
    /// unless the store wants a base, which carries every key instead. The
    /// replay from the recorded cursors rebuilds every open window, which is
    /// what makes restore + replay land the worker in exactly the state it
    /// lost.
    fn save_checkpoint<'s>(
        &mut self,
        worker: usize,
        store: &'s mut CheckpointStore,
    ) -> CheckpointRecord<'s> {
        // Every key that arrived before this close, in any open window, is
        // in the record — exactly the keys a set probed at every tuple
        // would hold by now.
        self.drain_arrived();
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
            processed: self.finalized_processed,
            phase_counts: &self.finalized_phase_counts,
            next_seq: &self.finalized_seq,
            keys,
        };
        if base {
            store.save_base(|out| view.encode_base(out))
        } else {
            store.append_delta(|out| view.encode_delta(out))
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
///    appends one record to its checkpoint log covering the finalized
///    prefix: the counters and per-source cursors as of that window's close
///    markers, the keys first seen since the last record (a delta), or —
///    when the deltas outweigh the last base — every key (a new base,
///    [`WorkerCheckpoint`]). No open window is written.
/// 3. **Crash + restore.** At a [`FaultPlan`](crate::fault::FaultPlan) kill
///    point the worker discards *all* volatile state, rebuilds the finalized
///    prefix from its checkpoint log (or starts empty if it never took one)
///    with no window open, and asks every source to replay from the
///    checkpoint's cursors: the replay rebuilds every window in flight.
///    Windows finalize in order and each source's channel is FIFO, so every
///    message of an open window sits past those cursors, and every message
///    of a finalized one below them: closed windows are never reprocessed,
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
                    let open = state.open.entry(batch.window).or_default();
                    open.tuples += n;
                    let partial = open
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
                    open.close_seq.resize(sources, 0);
                    open.close_seq[src] = seq + 1;
                    if open.close_seq.contains(&0) {
                        continue;
                    }
                    // Channels are FIFO per source and sequence dedup
                    // admits each marker once, so with all sources'
                    // markers in hand this worker holds every tuple of
                    // the window that was routed to it: finalize and
                    // ship the shard slices. The window joins the
                    // finalized prefix the checkpoint below records.
                    let OpenWindow {
                        partial,
                        tuples,
                        close_seq,
                    } = state.open.remove(&window).unwrap_or_default();
                    state.finalized_processed += tuples;
                    state.finalized_phase_counts[phase_of(&plan.phase_starts, window)] += tuples;
                    state.finalized_seq = close_seq;
                    let partial = partial.unwrap_or_else(|| aggregate.empty());
                    // The next window to open starts at this one's size.
                    room = Some(aggregate.with_room(&partial));
                    let closed_at = Instant::now();
                    let slices = aggregate.shard(partial, aggregators);
                    // Only the sends count as stalled, not the shard pass.
                    let sending = Instant::now();
                    for (shard, slice) in slices.into_iter().enumerate() {
                        partial_senders[shard]
                            .send(PartialWindow {
                                window,
                                worker: worker_idx,
                                partial: slice,
                                closed_at,
                            })
                            .expect("aggregator queue closed prematurely");
                    }
                    hop.send_stall_us.add(sending.elapsed().as_micros() as u64);
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
                    // which closes rebase depends on how many keys of the
                    // later windows had already arrived, and the trace is
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

    use slb_core::{CountAggregate, WindowAggregate};

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

    /// The worker's checkpoint log covers the finalized prefix, checked at
    /// every close of a run in which source 0 runs two windows ahead of
    /// source 1 (three windows in flight at a close). Whatever the log holds
    /// — a bare base, or a base with any number of deltas — it restores to
    /// the tuples of the finalized windows, per source one past its close
    /// marker for the last finalized window, every key that arrived before
    /// the close, and no open window. At every tenth close a worker restored
    /// from the log and fed the script from those cursors ships the live
    /// worker's partial for every later window and writes a log that ends
    /// where the live one ends; and the rebase rule really produces both
    /// shapes at 20 k+ keys (a restore late in the run folds a base plus
    /// deltas, several rebases in).
    #[test]
    fn checkpoint_log_restores_the_live_state_at_every_close() {
        let windows = 400;
        let plan = scripted_plan(windows);
        let mut rng = 0x5eed_u64;
        let mut key = move || {
            rng = rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = rng;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % 30_000
        };
        // 256 tuples a window: one batch from source 0, two from source 1,
        // so the two sources' cursors differ.
        let script = staggered_script(windows, 2, |source, _| {
            let batches = source + 1;
            (0..batches)
                .map(|_| (0..256 / (2 * batches)).map(|_| key()).collect())
                .collect()
        });
        let mut records: Vec<(bool, Vec<u8>)> = Vec::new();
        let mut persist = |record: CheckpointRecord<'_>| {
            let is_base = matches!(record, CheckpointRecord::Base(_));
            records.push((is_base, record.bytes().to_vec()));
        };
        let hop = HopTelemetry::default();
        let (live, live_shipped) = run_durable_script(&plan, None, &script, &mut persist, &hop);
        assert_eq!(live.windows_closed, windows);
        assert_eq!(records.len() as u64, windows, "one record per close");
        let live_end = restore_log(&records);

        // Walk the script as the worker reads it: a close is the marker
        // that completes a window.
        let mut store = CheckpointStore::new();
        // Per open window, one past each source's close marker (0: none yet).
        let mut markers: BTreeMap<WindowId, Vec<u64>> = BTreeMap::new();
        let (mut finalized, mut in_window) = (0u64, BTreeMap::<WindowId, u64>::new());
        let mut keys_so_far = std::collections::BTreeSet::new();
        let (mut bases, mut restores_from_deltas_after_rebases) = (0u64, 0u64);
        let mut close = 0u64;
        for step in &script {
            if let Some(keys) = &step.keys {
                keys_so_far.extend(keys.iter().copied());
                *in_window.entry(step.window).or_default() += keys.len() as u64;
                continue;
            }
            let cursors = markers
                .entry(step.window)
                .or_insert_with(|| vec![0; plan.sources]);
            cursors[step.source] = step.seq + 1;
            if cursors.contains(&0) {
                continue;
            }
            let cursors = markers.remove(&step.window).unwrap_or_default();
            finalized += in_window.remove(&step.window).unwrap_or_default();
            let (is_base, bytes) = &records[close as usize];
            close += 1;
            if *is_base {
                store.save_base(|out| out.extend_from_slice(bytes));
            } else {
                store.append_delta(|out| out.extend_from_slice(bytes));
            }
            bases += u64::from(*is_base);

            let restored = store.restore().expect("a record was just saved");
            assert_eq!(restored.worker, 0);
            assert_eq!(restored.windows_closed, close);
            assert_eq!(restored.processed, finalized, "close {close}");
            assert_eq!(restored.phase_counts, vec![finalized]);
            assert_eq!(restored.next_seq, cursors, "close {close}");
            assert!(restored.open.is_empty(), "close {close}: an open window");
            assert!(
                restored.state_keys.iter().eq(keys_so_far.iter()),
                "close {close}"
            );
            // Source 0's head start: two later windows hold tuples.
            assert!(in_window.len() >= 2 || close + 2 > windows);

            // Every tenth close the worker "crashes": a new one starts from
            // the log alone, and the sources replay from its cursors.
            if close % 10 == 0 && close < windows {
                if !is_base && bases >= 3 && keys_so_far.len() >= 20_000 {
                    restores_from_deltas_after_rebases += 1;
                }
                let replay = script
                    .iter()
                    .filter(|s| s.seq >= restored.next_seq[s.source]);
                let mut log: Vec<(bool, Vec<u8>)> = Vec::new();
                let mut persist = |record: CheckpointRecord<'_>| {
                    let is_base = matches!(record, CheckpointRecord::Base(_));
                    log.push((is_base, record.bytes().to_vec()));
                };
                let hop = HopTelemetry::default();
                let (report, shipped) =
                    run_durable_script(&plan, Some(&restored), replay, &mut persist, &hop);
                assert_eq!(report.recovery.duplicates_dropped, 0, "close {close}");
                assert_eq!(report.windows_closed, windows);
                assert_eq!(report.processed, live.processed);
                assert_eq!(report.state_keys, live.state_keys);
                assert!(shipped.iter().eq(live_shipped.range(close..)));
                assert_eq!(restore_log(&log), live_end, "close {close}");
            }
        }
        assert_eq!(close, windows);
        assert!(bases >= 5, "only {bases} bases in {windows} closes");
        assert!(
            bases <= 40,
            "{bases} bases in {windows} closes is not amortised"
        );
        assert!(
            restores_from_deltas_after_rebases >= 5,
            "the large-state restores must include base + delta logs"
        );
    }

    /// The state a log of `(is_base, bytes)` records restores to.
    fn restore_log(records: &[(bool, Vec<u8>)]) -> WorkerCheckpoint {
        let last_base = records.iter().rposition(|r| r.0).expect("a log has a base");
        let deltas = records[last_base + 1..].iter().map(|r| r.1.as_slice());
        WorkerCheckpoint::restore(&records[last_base].1, deltas).expect("own log restores")
    }

    /// The cost contract of the checkpoint path: a close writes what the
    /// window changed, not what the worker has ever seen — nor the windows
    /// still in flight. Source 0 runs three windows ahead of source 1, so
    /// four windows are open at every close, and no record carries one.
    /// Every record is captured off the persist hook and measured exactly:
    ///
    /// * each record is `8 × keys + rest`, where `rest` (counters, cursors,
    ///   an empty open-window list) is a fixed header;
    /// * a base is only written once the deltas since the last one outweigh
    ///   it, so all bases together cost under the deltas' bytes plus every
    ///   key once more — in total `3 × 8 × state_keys + 2 × Σ rest`.
    ///
    /// A close that snapshots the whole key set costs
    /// `windows × 8 × state_keys` instead, two orders of magnitude past it.
    #[test]
    fn checkpoint_bytes_scale_with_the_windows_not_with_the_state() {
        use slb_core::CheckpointDelta;
        let windows = 512;
        let plan = scripted_plan(windows);
        let mut rng = 0x0b17e5_u64;
        // 512 tuples a window over 65 536 keys, four batches of 64 per
        // source.
        let script = staggered_script(windows, 3, |_, _| {
            (0..4)
                .map(|_| {
                    (0..64)
                        .map(|_| {
                            rng ^= rng << 13;
                            rng ^= rng >> 7;
                            rng ^= rng << 17;
                            rng % 65_536
                        })
                        .collect()
                })
                .collect()
        });
        // (is_base, keys in the record, bytes in the record)
        let mut records: Vec<(bool, u64, u64)> = Vec::new();
        let mut persist = |record: CheckpointRecord<'_>| {
            let mut bytes = record.bytes();
            let (keys, open) = match record {
                CheckpointRecord::Base(_) => {
                    let base = WorkerCheckpoint::decode(&mut bytes).expect("own base decodes");
                    (base.state_keys.len(), base.open.len())
                }
                CheckpointRecord::Delta(_) => {
                    let delta = CheckpointDelta::decode(&mut bytes).expect("own delta decodes");
                    (delta.fresh_keys.len(), delta.open.len())
                }
            };
            assert!(bytes.is_empty(), "a record is exactly one encoding");
            assert_eq!(open, 0, "a record carries an open window");
            records.push((
                matches!(record, CheckpointRecord::Base(_)),
                keys as u64,
                record.bytes().len() as u64,
            ));
        };
        let hop = HopTelemetry::default();
        let (report, _) = run_durable_script(&plan, None, &script, &mut persist, &hop);

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

    /// `send_stall_us` is wall time inside blocking sends and nothing else:
    /// a 200 k-key window sharded four ways into queues with room to spare
    /// stalls for a small part of what the shard pass alone takes.
    #[test]
    fn send_stall_times_the_sends_not_the_shard_pass() {
        let mut plan = scripted_plan(1);
        plan.aggregators = 4;
        let script = staggered_script(1, 0, |source, _| {
            let from = source as KeyId * 100_000;
            vec![(from..from + 100_000).collect()]
        });
        let hop = HopTelemetry::default();
        let (report, mut shipped) = run_durable_script(&plan, None, &script, &mut |_| {}, &hop);
        let window = shipped.remove(&0).expect("the window shipped");
        assert_eq!(window.len(), 200_000);
        // The shard pass over the same window, timed on its own.
        let started = Instant::now();
        let slices = CountAggregate.shard(window, plan.aggregators);
        let shard_us = started.elapsed().as_micros() as u64;
        assert_eq!(slices.len(), plan.aggregators);
        let stalled = report.transport.send_stall_us;
        assert!(
            stalled * 4 < shard_us,
            "{stalled} µs stalled in sends against a {shard_us} µs shard pass"
        );
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

    /// `windows` windows from two sources into one worker and one
    /// aggregator.
    fn scripted_plan(windows: u64) -> StagePlan {
        let mut cfg = tiny_supervised_config();
        cfg.sources = 2;
        cfg.messages = 2 * windows * cfg.window_size;
        let plan = cfg.stage_plan();
        assert_eq!(plan.total_windows(), windows);
        plan
    }

    /// Six windows from two sources into one worker and one aggregator.
    fn overlap_plan() -> StagePlan {
        scripted_plan(6)
    }

    /// Two sources out of step: source 0 finishes window w + `lead` before
    /// source 1 starts window w. Each source sends, per window, the batches
    /// `batches(source, window)` gives, then its close marker, numbered
    /// from zero per source.
    fn staggered_script(
        windows: u64,
        lead: u64,
        mut batches: impl FnMut(usize, WindowId) -> Vec<Vec<KeyId>>,
    ) -> Vec<Step> {
        let mut script = Vec::new();
        let mut seqs = [0u64; 2];
        let mut emit = |source: usize, window: WindowId| {
            let batches = batches(source, window).into_iter().map(Some);
            for keys in batches.chain([None]) {
                let seq = seqs[source];
                seqs[source] += 1;
                script.push(Step {
                    source,
                    window,
                    seq,
                    keys,
                });
            }
        };
        for w in 0..lead.min(windows) {
            emit(0, w);
        }
        for w in 0..windows {
            if w + lead < windows {
                emit(0, w + lead);
            }
            emit(1, w);
        }
        script
    }

    /// Source 0 one window ahead. One 120-key batch per source and window:
    /// many repeats within a window, most keys shared with the windows
    /// around it, a few new ones every window.
    fn overlapping_script(windows: u64) -> Vec<Step> {
        let mut rng = 0x0dd_ba11_u64;
        staggered_script(windows, 1, |_, window| {
            let keys = (0..120)
                .map(|_| {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    rng % (60 + 40 * window)
                })
                .collect();
            vec![keys]
        })
    }

    /// Runs worker 0 of `plan` as a durable stage over `steps`, queued up
    /// front, starting from `initial` and handing every record it saves to
    /// `persist`. Returns the report and, per window, the partial its
    /// shipped slices merge to.
    fn run_durable_script<'a>(
        plan: &StagePlan,
        initial: Option<&WorkerCheckpoint>,
        steps: impl IntoIterator<Item = &'a Step>,
        persist: &mut dyn FnMut(CheckpointRecord<'_>),
        hop: &HopTelemetry,
    ) -> (WorkerStageReport, BTreeMap<WindowId, CountPartial>) {
        let messages: Vec<SourceMessage> = steps.into_iter().map(Step::message).collect();
        let (sender, receiver) = crossbeam_channel::bounded(messages.len().max(1));
        for message in messages {
            sender.send(message).expect("queue holds the script");
        }
        drop(sender);
        let windows = plan.total_windows() as usize;
        let (partial_senders, partial_receivers): (Vec<_>, Vec<_>) = (0..plan.aggregators)
            .map(|_| crossbeam_channel::bounded(windows.max(1)))
            .unzip();
        let recovery = WorkerRecovery::Durable { initial, persist };
        let report = run_worker_stage(
            plan,
            0,
            Instant::now(),
            &CountAggregate,
            receiver,
            &partial_senders,
            recovery,
            hop,
        );
        let mut shipped: BTreeMap<WindowId, CountPartial> = BTreeMap::new();
        for partials in partial_receivers {
            while let Ok(pw) = partials.try_recv() {
                let window = shipped.entry(pw.window).or_default();
                CountAggregate.merge(window, pw.partial);
            }
        }
        (report, shipped)
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
        let hop = HopTelemetry::default();
        let (report, _) = run_durable_script(&plan, None, &script, &mut persist, &hop);
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
