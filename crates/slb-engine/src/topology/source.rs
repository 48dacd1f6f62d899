//! The source stage: one emission driver, stepped by the live loop and by
//! replay alike.
//!
//! A source's routing state is a small, cloneable, deterministic function of
//! the stream prefix. [`SourceDriver`] is that state plus the one `step`
//! that advances it — chunk cap, `route_batch`, per-worker batch fill,
//! window-boundary flush/close/exclusion/controller step, burst-boundary
//! flush — generic over an [`EmitSink`] that decides what happens to each
//! finished frame. The live sink ships every frame; the replay sink ships
//! only the frames a recovering worker is missing. Because both run the
//! same `step` from the same (cloned) state, a replayed frame is bit for
//! bit the frame originally sent: same keys, same window, same sequence
//! number; only the emit timestamp is fresh.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use slb_core::{
    build_partitioner, ControllerAction, ControllerEvent, ElasticityController, PartitionConfig,
    Partitioner, PerWindowLoads,
};
use slb_telemetry::{stage, trace_kind, HopStats, HopTelemetry, TraceBuf, TraceEvent};
use slb_workloads::{Arrival, KeyId, KeyStream};

use super::config::StagePlan;
use crate::fault::ConnectionDrop;
use crate::transport::{SourceMessage, TupleBatch, TupleSender};
use crate::windows::{window_of, WindowId};

/// Window-boundary snapshots a source keeps for bounded replay. A
/// recovering worker's checkpoint cursor lags the source's emission frontier
/// by at most the worker queue's depth, which a handful of window-boundary
/// snapshots comfortably covers; requests older than the ring fall back to
/// the origin snapshot (replay from the beginning of the stream).
const REPLAY_SNAPSHOT_RING: usize = 8;

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
    /// rescales, controller decisions, replay serves).
    pub trace: Vec<TraceEvent>,
    /// Transport counters for the source→worker hop.
    pub transport: HopStats,
}

/// A recovery directive delivered to a running source stage. The stage
/// handles these on its own emission thread, between chunks, so replayed and
/// live frames never interleave out of order on one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceControlEvent {
    /// A worker needs this source's history again from `from_seq`: swap in
    /// its fresh connection if it respawned ([`SourceControl::reattach`]),
    /// then re-send every message addressed to it with `seq >= from_seq`.
    Rejoin {
        /// The recovering worker.
        worker: usize,
        /// The worker's restored cursor for this source.
        from_seq: u64,
    },
    /// A worker exhausted its respawn budget: stop routing to it from the
    /// next window boundary on (the only point where the partitioner may be
    /// rebuilt).
    Exclude {
        /// The permanently failed worker.
        worker: usize,
    },
    /// No further replay can be requested; the stage may return once its
    /// own emission is done.
    Release,
}

/// Where a source's [`SourceControlEvent`]s come from — the one per-role
/// argument of [`run_source_stage`]. The two in-tree sources of events are
/// a std `mpsc::Receiver<SourceControlEvent>` (in process: the workers hold
/// the senders) and `slb-node`'s own implementation over the process
/// supervisor's control plane (see docs/FAULTS.md): a respawned worker's
/// restored cursors travel in the `Rejoin` control frame, and `reattach`
/// re-dials the respawned process. A control whose every sender is gone
/// releases the stage as soon as it has emitted its stream.
pub trait SourceControl {
    /// The next queued event, without blocking. Polled between chunks so a
    /// recovering worker never waits on a source that is still emitting.
    fn poll(&mut self) -> Option<SourceControlEvent>;

    /// Blocks for the next event; [`SourceControlEvent::Release`] once none
    /// can arrive any more. Called after emission, with the tuple senders
    /// still alive, so a worker recovering late can still be fed.
    fn wait(&mut self) -> SourceControlEvent;

    /// Swaps the sender for `worker` to its respawned process's fresh
    /// connection. Runs on the emission thread just before the replay it
    /// precedes, so replayed frames always come ahead of later live ones.
    fn reattach(&mut self, _worker: usize) {}
}

/// The in-process recovery channel: a recovering worker sends its `Rejoin`
/// itself (there is nothing to reattach), and every worker having dropped
/// its sender (all windows finalized everywhere) is the `Release`.
impl SourceControl for mpsc::Receiver<SourceControlEvent> {
    fn poll(&mut self) -> Option<SourceControlEvent> {
        match self.try_recv() {
            Ok(event) => Some(event),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(SourceControlEvent::Release),
        }
    }

    fn wait(&mut self) -> SourceControlEvent {
        self.recv().unwrap_or(SourceControlEvent::Release)
    }
}

/// What becomes of the frames [`SourceDriver::step`] finishes. Implemented
/// by the live and the replay sink only; the driver is monomorphized over
/// it, so the hooks only a first-time send cares about cost a replay
/// nothing.
trait EmitSink {
    /// The first tuple of a new batch to `worker` was just buffered.
    #[inline]
    fn first_push(&mut self, _worker: usize) {}

    /// The batch numbered `seq` on the connection to `worker` is complete.
    /// The sink leaves `keys` empty: taken (and replaced by a buffer to
    /// fill next) or cleared.
    fn batch(&mut self, worker: usize, seq: u64, keys: &mut Vec<KeyId>, window: WindowId);

    /// The close marker of `window` is message `seq` to `worker`.
    fn close(&mut self, worker: usize, seq: u64, window: WindowId);

    /// A bursty phase pauses here (everything buffered was just flushed).
    fn pause(&mut self, _pause: Duration) {}

    /// A logical trace event of the emission itself.
    fn trace(&mut self, _kind: u8, _window: u64, _a: u64, _b: u64) {}
}

/// The live sink: ships every frame to its worker. It owns what only a
/// first-time send has — first-push timestamps, the connection-drop
/// schedule, the sent-tuple count, hop telemetry, the trace and the burst
/// sleep.
struct LiveSink<'a, Tx> {
    senders: &'a [Tx],
    source: usize,
    batch_size: usize,
    /// When the first tuple of each worker's pending batch was buffered. A
    /// batch is stamped then, not when it ships: a tuple's recorded latency
    /// must include the time it waits for its batch to fill, otherwise the
    /// slowest-filling destinations (exactly the under-loaded workers of a
    /// skewed run) would report the smallest latencies. First-push stamping
    /// over-approximates for later tuples in the batch; it never
    /// understates.
    pending_since: Vec<Instant>,
    /// `(drop spec, batches lost so far)`. A lost batch still consumes its
    /// sequence number — the receiver observes the gap and requests replay
    /// — and close markers are never dropped, so a window's close always
    /// survives and gap detection precedes finalization.
    drops: Vec<(ConnectionDrop, u64)>,
    sent: u64,
    /// Per-hop transport telemetry, updated once per sent message (never
    /// per tuple).
    hop: &'a HopTelemetry,
    trace: TraceBuf,
}

impl<'a, Tx: TupleSender> LiveSink<'a, Tx> {
    fn new(plan: &StagePlan, source: usize, senders: &'a [Tx], hop: &'a HopTelemetry) -> Self {
        Self {
            senders,
            source,
            batch_size: plan.batch_size,
            pending_since: vec![Instant::now(); senders.len()],
            drops: plan
                .faults
                .drops_from(source)
                .into_iter()
                .map(|d| (d, 0))
                .collect(),
            sent: 0,
            hop,
            trace: TraceBuf::new(stage::SOURCE, source as u32),
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

    fn send(&self, worker: usize, message: SourceMessage) {
        let before = Instant::now();
        // A worker leaves only after every source's last close reached it,
        // so a live send never meets a closed queue: treat it as fatal.
        self.senders[worker]
            .send(message)
            .expect("worker queue closed prematurely");
        self.hop
            .send_stall_us
            .add(before.elapsed().as_micros() as u64);
    }
}

impl<Tx: TupleSender> EmitSink for LiveSink<'_, Tx> {
    #[inline]
    fn first_push(&mut self, worker: usize) {
        self.pending_since[worker] = Instant::now();
    }

    fn batch(&mut self, worker: usize, seq: u64, keys: &mut Vec<KeyId>, window: WindowId) {
        // `sent` counts at routing time even when the fault schedule then
        // discards the frame: replay re-sends are never counted, so the
        // run-level `sent == processed` invariant survives fault injection.
        self.sent += keys.len() as u64;
        if self.loses(worker, seq) {
            keys.clear();
            return;
        }
        // The buffer to fill next: a spent one off the transport's
        // recycling return path when available (cleared, capacity intact),
        // else a fresh allocation. On backends with a return path (the SPSC
        // transport) this makes the steady-state source loop
        // allocation-free — the same buffers shuttle source → worker →
        // source for the whole run.
        let next = match self.senders[worker].take_recycled() {
            Some(mut spent) => {
                spent.clear();
                spent
            }
            None => Vec::with_capacity(self.batch_size),
        };
        let keys = std::mem::replace(keys, next);
        // Telemetry rides the per-batch path only: a handful of Relaxed
        // counter bumps and one occupancy sample per shipped batch, zero
        // work per tuple.
        let h = self.hop;
        h.batches_sent.add(1);
        h.tuples_sent.add(keys.len() as u64);
        h.batch_occupancy.record(keys.len() as u64);
        if let Some((occupied, capacity)) = self.senders[worker].queue_depth_hint() {
            h.ring_occupancy_hwm.record(occupied as u64);
            h.ring_capacity.set(capacity as u64);
        }
        self.send(
            worker,
            SourceMessage::Batch(TupleBatch {
                keys,
                window,
                source: self.source,
                seq,
                emitted_at: self.pending_since[worker],
            }),
        );
    }

    fn close(&mut self, worker: usize, seq: u64, window: WindowId) {
        let source = self.source;
        self.send(
            worker,
            SourceMessage::CloseWindow {
                window,
                source,
                seq,
            },
        );
    }

    fn pause(&mut self, pause: Duration) {
        thread::sleep(pause);
    }

    fn trace(&mut self, kind: u8, window: u64, a: u64, b: u64) {
        self.trace.push(kind, window, a, b);
    }
}

/// The replay sink: re-sends what `target` is missing — the frames
/// addressed to it with `seq >= from_seq` — and nothing else. Other
/// workers' frames are dropped (their state is not rewound), fault drops
/// are not re-applied, nothing is counted or traced, and the burst pause is
/// skipped: only its flush shapes batch boundaries, and the driver does
/// that. A target that has already left finalized every window, so a frame
/// its queue refuses is dropped too.
struct ReplaySink<'a, Tx> {
    sender: &'a Tx,
    source: usize,
    target: usize,
    from_seq: u64,
}

impl<Tx: TupleSender> ReplaySink<'_, Tx> {
    fn send(&self, worker: usize, seq: u64, message: impl FnOnce() -> SourceMessage) {
        if worker == self.target && seq >= self.from_seq {
            let _ = self.sender.send(message());
        }
    }
}

impl<Tx: TupleSender> EmitSink for ReplaySink<'_, Tx> {
    fn batch(&mut self, worker: usize, seq: u64, keys: &mut Vec<KeyId>, window: WindowId) {
        let source = self.source;
        self.send(worker, seq, || {
            SourceMessage::Batch(TupleBatch {
                keys: std::mem::take(keys),
                window,
                source,
                seq,
                emitted_at: Instant::now(),
            })
        });
        keys.clear();
    }

    fn close(&mut self, worker: usize, seq: u64, window: WindowId) {
        let source = self.source;
        self.send(worker, seq, || SourceMessage::CloseWindow {
            window,
            source,
            seq,
        });
    }
}

/// Working memory of the emission loop. Every pending batch is empty at a
/// window boundary (the window was just flushed), so none of this is part
/// of a snapshot: a replay starts from empty buffers.
struct EmitBuffers {
    keys: Vec<KeyId>,
    routes: Vec<usize>,
    /// The batch being filled for each worker.
    pending: Vec<Vec<KeyId>>,
}

impl EmitBuffers {
    fn new(workers: usize, batch_size: usize) -> Self {
        Self {
            keys: Vec::with_capacity(batch_size),
            routes: Vec::with_capacity(batch_size),
            pending: (0..workers)
                .map(|_| Vec::with_capacity(batch_size))
                .collect(),
        }
    }
}

/// What one [`SourceDriver::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// Emitted a chunk inside a window.
    Chunk,
    /// Emitted a chunk that completed a window: the window is flushed and
    /// closed and every boundary decision is applied, so the driver is at a
    /// point a replay can resume from.
    WindowClosed,
    /// The stream is exhausted and the trailing partial window closed.
    Done,
}

/// Everything a source's future emission depends on: the positioned key
/// stream, the routing state, the controller, and the stream and sequence
/// cursors. A clone taken at a window boundary is a replay snapshot.
#[derive(Clone)]
struct SourceDriver<'a, S> {
    plan: &'a StagePlan,
    phase_idx: usize,
    stream: S,
    partitioner: Box<dyn Partitioner<KeyId>>,
    /// The elasticity controller and its zero-allocation per-window load
    /// buffer (both `None` without a controller — `step` then runs exactly
    /// the pre-controller engine). The first phase's worker count seeds the
    /// controller; from there it owns the active count, and phase worker
    /// counts are advisory.
    controller: Option<ElasticityController>,
    window_loads: Option<PerWindowLoads>,
    /// The actual worker indices routed to: the active prefix minus every
    /// excluded worker. The partitioner spans `active.len()` slots and a
    /// routed slot `r` addresses `active[r]`; with nothing excluded this is
    /// the identity, so unsupervised runs route bit-identically to a plain
    /// prefix.
    active: Vec<usize>,
    /// Workers the supervisor excluded after an exhausted respawn budget.
    /// Their sequence cursors still advance — the cursor space stays
    /// uniform for snapshots and replay — but no frame reaches a sink.
    excluded: Vec<bool>,
    /// Exclusions received mid-window, applied at the next boundary. Always
    /// empty in a snapshot, and a replay receives none: an excluded worker
    /// is permanently dead and never asks for one, so no replay spans an
    /// exclusion it has not already applied.
    pending_exclusions: Vec<usize>,
    local_idx: u64,
    emitted_in_phase: u64,
    /// Next sequence number per worker. Every message to a worker — batch
    /// or close marker — consumes one, *including* messages a sink then
    /// discards.
    next_seq: Vec<u64>,
}

/// The partitioner configuration a source builds with for
/// `active` routed slots: the plan's seed and solver mode, paper defaults
/// otherwise.
fn partition_config(plan: &StagePlan, active: usize) -> PartitionConfig {
    PartitionConfig::new(active)
        .with_seed(plan.seed)
        .with_solver(plan.solver)
}

fn active_workers(width: usize, excluded: &[bool]) -> Vec<usize> {
    let active: Vec<usize> = (0..width).filter(|&w| !excluded[w]).collect();
    assert!(
        !active.is_empty(),
        "every worker excluded; nothing to route to"
    );
    active
}

/// Completes the pending batch to `worker`: it takes the connection's next
/// sequence number whatever the sink then does with it.
fn ship<K: EmitSink>(
    next_seq: &mut [u64],
    worker: usize,
    keys: &mut Vec<KeyId>,
    window: WindowId,
    sink: &mut K,
) {
    let seq = next_seq[worker];
    next_seq[worker] += 1;
    sink.batch(worker, seq, keys, window);
}

impl<'a, S: KeyStream + Clone> SourceDriver<'a, S> {
    /// The driver at the origin of `source`'s stream, `stream` being its
    /// first phase's.
    fn new(plan: &'a StagePlan, source: usize, workers: usize, stream: S) -> Self {
        let controller = plan.controller.as_ref().map(|cfg| {
            ElasticityController::new(cfg.clone(), source as u32, plan.phases[0].workers)
        });
        let excluded = vec![false; workers];
        let width = controller
            .as_ref()
            .map_or(plan.phases[0].workers, |c| c.active_workers());
        let active = active_workers(width, &excluded);
        Self {
            plan,
            phase_idx: 0,
            stream,
            partitioner: build_partitioner(plan.kind, &partition_config(plan, active.len())),
            window_loads: controller.as_ref().map(|_| PerWindowLoads::new(workers)),
            controller,
            active,
            excluded,
            pending_exclusions: Vec::new(),
            local_idx: 0,
            emitted_in_phase: 0,
            next_seq: vec![0; workers],
        }
    }

    /// Re-derives the routed set for `width` active workers and builds a
    /// fresh partitioner over it — the same split-minimising move for a
    /// planned phase change, a controller decision and a supervisor
    /// exclusion.
    fn reroute(&mut self, width: usize) {
        self.active = active_workers(width, &self.excluded);
        self.partitioner = build_partitioner(
            self.plan.kind,
            &partition_config(self.plan, self.active.len()),
        );
    }

    /// [`Self::reroute`] to the width in force — the controller's active
    /// count, else the phase's — after something other than the controller
    /// changed the routed set.
    fn reroute_in_force(&mut self) {
        let width = self
            .controller
            .as_ref()
            .map_or(self.plan.phases[self.phase_idx].workers, |c| {
                c.active_workers()
            });
        self.reroute(width);
        if let Some(ctrl) = self.controller.as_mut() {
            ctrl.note_partitioner_rebuilt();
        }
    }

    /// Ships every non-empty pending batch.
    fn flush<K: EmitSink>(&mut self, bufs: &mut EmitBuffers, window: WindowId, sink: &mut K) {
        for (worker, keys) in bufs.pending.iter_mut().enumerate() {
            if !keys.is_empty() {
                ship(&mut self.next_seq, worker, keys, window, sink);
            }
        }
    }

    /// Everything buffered belongs to `window`: flush, then broadcast the
    /// close marker.
    fn seal_window<K: EmitSink>(&mut self, bufs: &mut EmitBuffers, window: WindowId, sink: &mut K) {
        self.flush(bufs, window, sink);
        for worker in 0..self.next_seq.len() {
            let seq = self.next_seq[worker];
            self.next_seq[worker] += 1;
            if !self.excluded[worker] {
                sink.close(worker, seq, window);
            }
        }
        sink.trace(trace_kind::WINDOW_CLOSE, window, 0, 0);
    }

    /// End of stream: close the final partial window (full windows were
    /// closed at their boundary; phases always end on one, so this fires
    /// only when a one-phase run's message count does not divide evenly).
    fn finish<K: EmitSink>(&mut self, bufs: &mut EmitBuffers, sink: &mut K) -> Step {
        if self.local_idx % self.plan.window_size != 0 {
            let window = window_of(self.local_idx, self.plan.window_size);
            self.seal_window(bufs, window, sink);
        }
        Step::Done
    }

    /// The decisions that may change routing, taken with `window` sealed
    /// and before the next one starts — so no window ever mixes two routing
    /// regimes, and a snapshot taken after this resumes from post-decision
    /// state and re-derives the identical future.
    fn window_boundary<K: EmitSink>(&mut self, window: WindowId, sink: &mut K) {
        // Deferred exclusions: mark the dead workers and shrink the routed
        // set so the next window never routes to them.
        if !self.pending_exclusions.is_empty() {
            for worker in self.pending_exclusions.drain(..) {
                self.excluded[worker] = true;
            }
            self.reroute_in_force();
            sink.trace(trace_kind::RESCALE, window, self.active.len() as u64, 0);
        }
        // Elasticity-controller step: feed it the closing window's per-slot
        // loads; a scale decision re-derives the routed set for the new
        // active count, otherwise the head snapshot drives an online d
        // re-solve.
        let Some(ctrl) = self.controller.as_mut() else {
            return;
        };
        let loads = self
            .window_loads
            .as_mut()
            .expect("window loads with controller");
        let (total, max) = (loads.total(), loads.max_count());
        loads.finish_window(self.active.len());
        if let Some(width) = ctrl.observe_window(total, max) {
            self.reroute(width);
        } else if let Some(head) = self.partitioner.head_snapshot() {
            if let Some(decision) = ctrl.retune(&head.frequencies, head.tail_mass()) {
                self.partitioner.apply_choices(decision);
            }
        }
    }

    /// Emits the next chunk of the stream into `sink`.
    fn step<K: EmitSink>(
        &mut self,
        stream_for_phase: &mut impl FnMut(usize) -> S,
        bufs: &mut EmitBuffers,
        sink: &mut K,
    ) -> Step {
        let plan = self.plan;
        let (batch_size, window_size) = (plan.batch_size, plan.window_size);
        // Phase boundary: re-derive the routing state for the next phase's
        // worker count and switch to its key stream.
        while self.emitted_in_phase >= plan.phases[self.phase_idx].tuples_per_source {
            if self.phase_idx + 1 == plan.phases.len() {
                return self.finish(bufs, sink);
            }
            self.phase_idx += 1;
            self.emitted_in_phase = 0;
            self.reroute_in_force();
            sink.trace(
                trace_kind::RESCALE,
                window_of(self.local_idx, window_size),
                self.active.len() as u64,
                self.phase_idx as u64,
            );
            self.stream = stream_for_phase(self.phase_idx);
        }
        let phase = &plan.phases[self.phase_idx];
        // Cap the chunk at the window's (and phase's) remaining tuples so a
        // routed batch never spans a boundary; in a bursty phase, also at
        // the burst's remaining tuples so every burst boundary is observed
        // even when bursts are smaller than the batch size.
        let mut take = (batch_size as u64)
            .min(window_size - self.local_idx % window_size)
            .min(phase.tuples_per_source - self.emitted_in_phase);
        if let Arrival::Bursty { burst_tuples, .. } = phase.arrival {
            take = take.min(burst_tuples - self.emitted_in_phase % burst_tuples);
        }
        let take = take as usize;
        bufs.keys.clear();
        while bufs.keys.len() < take {
            match self.stream.next_key() {
                Some(key) => bufs.keys.push(key),
                None => break,
            }
        }
        if bufs.keys.is_empty() {
            // Stream dried up early (possible only for the one-phase path,
            // whose stream bounds the budget).
            return self.finish(bufs, sink);
        }
        let window = window_of(self.local_idx, window_size);
        self.partitioner.route_batch(&bufs.keys, &mut bufs.routes);
        // Controller signal: per-window counts by routed *slot* (slots are
        // the active prefix, so the imbalance view is contiguous).
        if let Some(loads) = self.window_loads.as_mut() {
            for &route in &bufs.routes {
                loads.record(route);
            }
        }
        for (&key, &route) in bufs.keys.iter().zip(&bufs.routes) {
            let worker = self.active[route];
            let keys = &mut bufs.pending[worker];
            if keys.is_empty() {
                sink.first_push(worker);
            }
            keys.push(key);
            if keys.len() == batch_size {
                ship(&mut self.next_seq, worker, keys, window, sink);
            }
        }
        let chunk = bufs.keys.len() as u64;
        self.local_idx += chunk;
        self.emitted_in_phase += chunk;
        let mut step = Step::Chunk;
        if self.local_idx % window_size == 0 {
            self.seal_window(bufs, window, sink);
            self.window_boundary(window, sink);
            step = Step::WindowClosed;
        }
        // Burst pacing: chunks never span a burst boundary (the `take` cap
        // above), so exactly one pause fires per completed burst. Before
        // it, flush the partial batches buffered so far: their latency
        // stamp is the *first* tuple's arrival, so letting them sit through
        // the pause (and however many pauses it takes to fill them) would
        // charge the whole wait to every tuple in the batch and blow up
        // tail latency at trickle rates. The flush shapes batch boundaries
        // and therefore sequence numbers, which is why it lives here, at a
        // deterministic point in the tuple sequence, and only the sleep is
        // the sink's.
        if let Arrival::Bursty {
            burst_tuples,
            pause_us,
        } = phase.arrival
        {
            if pause_us > 0
                && self.emitted_in_phase % burst_tuples == 0
                && self.emitted_in_phase < phase.tuples_per_source
            {
                self.flush(bufs, window, sink);
                sink.pause(Duration::from_micros(pause_us));
            }
        }
        step
    }
}

/// One running source: the live driver and sink, the replay snapshots, and
/// where control events come from.
struct SourceStage<'a, S, F, Tx, C> {
    senders: &'a [Tx],
    stream_for_phase: F,
    control: C,
    driver: SourceDriver<'a, S>,
    /// Clones of `driver` at window boundaries, oldest first.
    snapshots: VecDeque<SourceDriver<'a, S>>,
    sink: LiveSink<'a, Tx>,
}

impl<S, F, Tx, C> SourceStage<'_, S, F, Tx, C>
where
    S: KeyStream + Clone,
    F: FnMut(usize) -> S,
    Tx: TupleSender,
    C: SourceControl,
{
    /// Keeps the live driver's current state for replay, evicting the
    /// *second*-oldest snapshot when the ring is full: index 0 — the origin
    /// — is always retained so any `from_seq`, however old, has a covering
    /// snapshot.
    fn snapshot(&mut self) {
        if self.snapshots.len() == REPLAY_SNAPSHOT_RING {
            self.snapshots.remove(1);
        }
        self.snapshots.push_back(self.driver.clone());
    }

    /// Handles one control event; true once the stage is released.
    fn serve(&mut self, event: SourceControlEvent) -> bool {
        match event {
            SourceControlEvent::Rejoin { worker, from_seq } => {
                self.control.reattach(worker);
                self.replay(worker, from_seq);
            }
            SourceControlEvent::Exclude { worker } => self.driver.pending_exclusions.push(worker),
            SourceControlEvent::Release => return true,
        }
        false
    }

    /// Re-sends every message already addressed to `target` with
    /// `seq >= from_seq`, by stepping a clone of the newest snapshot whose
    /// cursor for that worker is at or before the requested position up to
    /// the live cursor: everything past it is the live loop's future, not
    /// replayable history.
    fn replay(&mut self, target: usize, from_seq: u64) {
        let upto = self.driver.next_seq[target];
        if from_seq >= upto {
            // Nothing sent past the requested cursor yet; the live loop
            // will produce those messages in order.
            return;
        }
        self.sink
            .trace(trace_kind::REPLAY_SERVE, 0, target as u64, from_seq);
        let mut driver = self
            .snapshots
            .iter()
            .rev()
            .find(|s| s.next_seq[target] <= from_seq)
            .expect("origin snapshot covers sequence zero")
            .clone();
        let mut bufs = EmitBuffers::new(self.senders.len(), driver.plan.batch_size);
        let mut sink = ReplaySink {
            sender: &self.senders[target],
            source: self.sink.source,
            target,
            from_seq,
        };
        while driver.next_seq[target] < upto
            && driver.step(&mut self.stream_for_phase, &mut bufs, &mut sink) != Step::Done
        {}
    }
}

/// Everything one source contributes to a run: generates and routes its
/// sub-stream phase by phase, ships batches and punctuation through
/// `senders` (one per spawned worker), serves the recovery events `control`
/// delivers, and returns its [`SourceStageReport`]. `hop` is updated once
/// per sent message; the caller may snapshot it from another thread while
/// the stage runs.
///
/// `stream_for_phase(p)` must yield *this source's* key stream for phase
/// `p`; the engine and `slb-node` both construct it from the shared config
/// so every backend emits the identical stream.
///
/// The source keeps a ring of window-boundary snapshots, polls `control`
/// for events between chunks, serves a `Rejoin` by re-driving the newest
/// covering snapshot, and — after its own emission completes — keeps
/// serving until `Release`. Replay re-sends are never counted as sent, and
/// tuples routed to a later-excluded worker count as sent — the degradation
/// report, not the sent count, carries the loss.
///
/// # Panics
/// Panics if a live send fails (a worker endpoint disappeared mid-run); a
/// replay to a worker that has already returned is dropped instead.
pub fn run_source_stage<S, Tx, C>(
    plan: &StagePlan,
    source_idx: usize,
    mut stream_for_phase: impl FnMut(usize) -> S,
    senders: &[Tx],
    control: C,
    hop: &HopTelemetry,
) -> SourceStageReport
where
    S: KeyStream + Clone,
    Tx: TupleSender,
    C: SourceControl,
{
    let driver = SourceDriver::new(plan, source_idx, senders.len(), stream_for_phase(0));
    let mut stage = SourceStage {
        senders,
        stream_for_phase,
        control,
        driver,
        snapshots: VecDeque::new(),
        sink: LiveSink::new(plan, source_idx, senders, hop),
    };
    let mut bufs = EmitBuffers::new(senders.len(), plan.batch_size);
    // The origin snapshot every replay can fall back to.
    stage.snapshot();
    let mut released = false;
    loop {
        while !released {
            let Some(event) = stage.control.poll() else {
                break;
            };
            released = stage.serve(event);
        }
        match stage
            .driver
            .step(&mut stage.stream_for_phase, &mut bufs, &mut stage.sink)
        {
            Step::Chunk => {}
            Step::WindowClosed => stage.snapshot(),
            Step::Done => break,
        }
    }
    while !released {
        let event = stage.control.wait();
        released = stage.serve(event);
    }
    // Controller decisions become trace events here, after the loop, from
    // the drained decision log: the log is already deterministic (window
    // order), so the trace inherits that without instrumenting controller
    // internals.
    let controller_events = stage
        .driver
        .controller
        .as_mut()
        .map(|c| c.take_events())
        .unwrap_or_default();
    let mut trace = stage.sink.trace;
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
        sent: stage.sink.sent,
        controller_events,
        trace: trace.into_events(),
        transport: hop.snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::Ordering;

    use super::super::test_support::{
        drain_exactly, drain_to_end, scripted_control, tiny_supervised_config, tuple_channels,
    };
    use super::*;
    use crate::windows::source_stream;

    /// `(tuples, close markers)` in `messages`, showing each message's
    /// window to `check`.
    fn tally(messages: Vec<SourceMessage>, check: impl Fn(WindowId)) -> (u64, usize) {
        let (mut tuples, mut closes) = (0u64, 0usize);
        for message in messages {
            match message {
                SourceMessage::Batch(batch) => {
                    check(batch.window);
                    tuples += batch.keys.len() as u64;
                }
                SourceMessage::CloseWindow { window, .. } => {
                    check(window);
                    closes += 1;
                }
            }
        }
        (tuples, closes)
    }

    /// The in-process control is the queue itself: nothing queued and a
    /// sender alive is "nothing yet", an event comes back as sent, and only
    /// the last sender's drop — after whatever it queued — is the `Release`.
    #[test]
    fn mpsc_receiver_is_a_control_whose_release_is_every_sender_dropped() {
        let rejoin = |worker, from_seq| SourceControlEvent::Rejoin { worker, from_seq };
        let (tx, mut control) = mpsc::channel();
        let tx2 = tx.clone();
        assert_eq!(control.poll(), None);
        tx.send(rejoin(3, 17)).unwrap();
        assert_eq!(control.poll(), Some(rejoin(3, 17)));
        tx2.send(rejoin(1, 0)).unwrap();
        assert_eq!(control.wait(), rejoin(1, 0));
        drop(tx);
        assert_eq!(control.poll(), None, "one sender still lives");
        tx2.send(rejoin(2, 5)).unwrap();
        tx2.send(SourceControlEvent::Exclude { worker: 2 }).unwrap();
        drop(tx2);
        // Queued events come before the Release, by either method.
        assert_eq!(control.poll(), Some(rejoin(2, 5)));
        assert_eq!(control.wait(), SourceControlEvent::Exclude { worker: 2 });
        assert_eq!(control.poll(), Some(SourceControlEvent::Release));
        assert_eq!(control.wait(), SourceControlEvent::Release);
        assert_eq!(control.poll(), Some(SourceControlEvent::Release));
    }

    #[test]
    fn supervised_source_replays_full_history_on_rejoin() {
        let cfg = tiny_supervised_config();
        let plan = cfg.stage_plan();
        let windows = plan.total_windows() as usize;
        let (senders, receivers) = tuple_channels(&plan);
        let receiver = receivers.into_iter().next().unwrap();
        let (event_tx, control) = scripted_control();
        let reattached = control.reattached.clone();
        let source_plan = plan.clone();
        let source = thread::spawn(move || {
            run_source_stage(
                &source_plan,
                0,
                |_phase| source_stream(&cfg, 0),
                &senders,
                control,
                &HopTelemetry::default(),
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
        assert_eq!(reattached.load(Ordering::SeqCst), 1);
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
        let (senders, receivers) = tuple_channels(&plan);
        let mut receivers = receivers.into_iter();
        let (rx0, rx1) = (receivers.next().unwrap(), receivers.next().unwrap());
        let (event_tx, control) = scripted_control();
        let reattached = control.reattached.clone();
        // Queued before the source starts: served at the first chunk,
        // applied at the first window boundary.
        event_tx
            .send(SourceControlEvent::Exclude { worker: 1 })
            .unwrap();
        event_tx.send(SourceControlEvent::Release).unwrap();
        let hop = HopTelemetry::default();
        let report = run_source_stage(
            &plan,
            0,
            |_phase| source_stream(&cfg, 0),
            &senders,
            control,
            &hop,
        );
        // The report's hop record is the handle the caller passed in.
        assert_eq!(report.transport, hop.snapshot());
        assert_eq!(hop.tuples_sent.get(), report.sent);
        drop(senders);
        assert_eq!(
            reattached.load(Ordering::SeqCst),
            0,
            "no rejoin in this test"
        );
        assert_eq!(report.sent, plan.phases[0].tuples_per_source);
        // Worker 1 saw only window 0 (its exclusion landed at window 0's
        // boundary): batches and exactly one close, nothing later.
        let (w1_tuples, w1_closes) = tally(drain_to_end(&rx1), |window| {
            assert_eq!(window, 0, "excluded worker got a post-boundary message")
        });
        assert_eq!(w1_closes, 1);
        // Worker 0 saw everything else: all remaining tuples and every
        // window's close.
        let (w0_tuples, w0_closes) = tally(drain_to_end(&rx0), |_| {});
        assert_eq!(w0_closes as u64, windows);
        assert_eq!(w0_tuples + w1_tuples, plan.phases[0].tuples_per_source);
    }

    /// A `Rejoin` served after its worker has left — having finalized every
    /// window — replays into a closed queue: the frames are dropped, and
    /// the stage ends as if the replay had been delivered.
    #[test]
    fn a_replay_to_a_worker_that_has_left_is_dropped() {
        let cfg = tiny_supervised_config();
        let plan = cfg.stage_plan();
        let windows = plan.total_windows() as usize;
        let (senders, receivers) = tuple_channels(&plan);
        let receiver = receivers.into_iter().next().unwrap();
        let (event_tx, control) = scripted_control();
        let source_plan = plan.clone();
        let source = thread::spawn(move || {
            run_source_stage(
                &source_plan,
                0,
                |_phase| source_stream(&cfg, 0),
                &senders,
                control,
                &HopTelemetry::default(),
            )
        });
        drain_exactly(&receiver, plan.phases[0].tuples_per_source, windows);
        drop(receiver);
        let rejoin = SourceControlEvent::Rejoin {
            worker: 0,
            from_seq: 0,
        };
        event_tx.send(rejoin).unwrap();
        event_tx.send(SourceControlEvent::Release).unwrap();
        let report = source.join().expect("source thread panicked");
        assert_eq!(report.sent, plan.phases[0].tuples_per_source);
    }
}
