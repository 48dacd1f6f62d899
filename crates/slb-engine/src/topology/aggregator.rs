//! The aggregator stage: merges the workers' per-window partials and
//! declares a window final once every (live) worker has contributed.

use std::collections::{BTreeMap, HashMap};
use std::sync::mpsc;
use std::time::Instant;

use slb_core::WindowAggregate;
use slb_telemetry::{
    stage, trace_kind, HopStats, HopTelemetry, LogHistogram, TraceBuf, TraceEvent,
};
use slb_workloads::KeyId;

use super::config::StagePlan;
use crate::transport::{PartialReceiver, PartialWindow, RecvError};
use crate::windows::WindowId;

/// What one aggregator reports: the windows it finalized, the close→merge
/// latency distribution, how many partial messages it merged, and how many
/// it dropped as duplicates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AggregatorStageReport<P> {
    /// Final merged aggregate per window this shard owned.
    pub finalized: BTreeMap<WindowId, P>,
    /// Worker close → merge latencies, µs.
    pub latencies: LogHistogram,
    /// Partial-window messages merged (each counted at most once per
    /// distinct `(worker, window)`).
    pub merged: u64,
    /// Partial-window messages dropped because their `(worker, window)` had
    /// already contributed — a recovered worker re-shipping a partial. Zero
    /// on a fault-free run, and zero even under kill faults (checkpoints at
    /// finalization mean closed windows are never re-finalized); the dedup
    /// is the aggregator's own exactly-once guarantee regardless.
    pub duplicates_dropped: u64,
    /// Transport-level receive errors survived (a malformed frame or a
    /// failed read instead of a clean EOF — e.g. a SIGKILLed worker's
    /// connection tearing mid-frame), plus partials shed for naming a
    /// worker outside the plan.
    pub transport_errors: u64,
    /// The deterministic logical trace of this shard (one `WINDOW_CLOSE`
    /// per finalized window, in finalization order).
    pub trace: Vec<TraceEvent>,
    /// Transport counters for this shard's receive side.
    pub transport: HopStats,
}

/// Everything aggregator `shard` contributes to a run: merges
/// partial-window slices from `receiver` as they arrive; a window is final
/// once every one of the plan's spawned workers has contributed its slice.
/// Contributions are counted by *distinct* worker — a duplicate
/// `(worker, window)` partial (a recovered worker re-shipping) is dropped,
/// never double-merged.
///
/// The stage returns as soon as the plan's last window has finalized, not
/// at an EOF: a worker's connection (or, under a respawn, the listener
/// accepting reconnections) may outlive the stage on purpose.
///
/// `exclusions` is the one per-role argument: the workers a supervisor gave
/// up on. An exclusion drops a permanently dead worker from every
/// finalization quorum — windows already waiting only on it finalize
/// immediately, and later windows no longer expect it (graceful
/// degradation: window counts lose the dead worker's share, but the run
/// *terminates* with a report instead of hanging). In process nobody
/// excludes: the runner passes a receiver whose sender is already gone.
///
/// `hop` is updated once per receive round; the caller may snapshot it from
/// another thread while the stage runs.
pub fn run_aggregator_stage<A, Rx>(
    plan: &StagePlan,
    shard: usize,
    aggregate: &A,
    receiver: Rx,
    exclusions: &mpsc::Receiver<usize>,
    hop: &HopTelemetry,
) -> AggregatorStageReport<A::Partial>
where
    A: WindowAggregate<KeyId>,
    Rx: PartialReceiver<A::Partial>,
{
    let spawned_workers = plan.spawned_workers;
    let total_windows = plan.total_windows() as usize;
    let mut trace = TraceBuf::new(stage::AGGREGATOR, shard as u32);
    let mut latencies = LogHistogram::new();
    let mut merged = 0u64;
    let mut duplicates_dropped = 0u64;
    let mut transport_errors = 0u64;
    // Supervisor-excluded workers: no longer part of any quorum.
    let mut excluded = vec![false; spawned_workers];
    let mut excluded_any = false;
    // Per open window: the merged partial, which workers contributed, and
    // the distinct-contributor count.
    #[allow(clippy::type_complexity)]
    let mut open: HashMap<WindowId, (A::Partial, Vec<bool>, usize)> = HashMap::new();
    let mut finalized: BTreeMap<WindowId, A::Partial> = BTreeMap::new();
    let mut drained: Vec<PartialWindow<A::Partial>> = Vec::new();
    'recv: while finalized.len() < total_windows {
        // Serve supervisor exclusions between receive rounds: the stage
        // drains them without blocking, then blocks on the data queue. The
        // orchestrator follows every Exclude broadcast with data-side
        // progress — at minimum the queue closing — so an exclusion never
        // waits behind a receive that cannot return.
        if take_exclusions(exclusions, &mut excluded) {
            excluded_any = true;
            finalize_quorate_windows(&mut open, &mut finalized, &excluded, &mut trace);
            // Back to the loop condition: that may have been the last window.
            continue;
        }
        let before = Instant::now();
        let received = receiver.recv_batch(&mut drained);
        hop.recv_wait_us.add(before.elapsed().as_micros() as u64);
        match received {
            Ok(_) => {}
            Err(RecvError::Transport(_)) => {
                // One connection tore mid-frame (e.g. its worker was
                // SIGKILLed); the queue and every other connection
                // feeding it live on. Count and keep draining.
                transport_errors += 1;
                continue;
            }
            Err(RecvError::Closed) => break,
        }
        // Each drained element is one partial-window message.
        let n = drained.len() as u64;
        hop.batches_received.add(n);
        hop.tuples_received.add(n);
        hop.queue_depth_hwm.record(n);
        hop.batch_occupancy.record(n);
        for pw in drained.drain(..) {
            if pw.worker >= spawned_workers {
                // Well-formed, but from no worker of this plan (a stray
                // peer on the data port): shed it like a malformed frame.
                transport_errors += 1;
                continue;
            }
            if finalized.contains_key(&pw.window) {
                // Every worker already contributed; a straggler can only
                // be a re-shipped duplicate (or, under degradation, a
                // dead worker's late partial outrun by its exclusion).
                duplicates_dropped += 1;
                continue;
            }
            if excluded[pw.worker] {
                // A late partial from a worker already dropped from the
                // quorum: merging it now would double-count against the
                // exclusion-finalized windows, so shed it.
                duplicates_dropped += 1;
                continue;
            }
            let slot = open
                .entry(pw.window)
                .or_insert_with(|| (aggregate.empty(), vec![false; spawned_workers], 0));
            if slot.1[pw.worker] {
                duplicates_dropped += 1;
                continue;
            }
            slot.1[pw.worker] = true;
            slot.2 += 1;
            latencies.record(pw.closed_at.elapsed().as_micros() as u64);
            merged += 1;
            aggregate.merge(&mut slot.0, pw.partial);
            let complete = if excluded_any {
                (0..spawned_workers).all(|w| excluded[w] || slot.1[w])
            } else {
                slot.2 == spawned_workers
            };
            if complete {
                let (partial, _, _) = open.remove(&pw.window).expect("window is open");
                finalized.insert(pw.window, partial);
                trace.push(trace_kind::WINDOW_CLOSE, pw.window, 0, 0);
                if finalized.len() == total_windows {
                    break 'recv;
                }
            }
        }
    }
    // The data queue may close (or the window budget fill) with an
    // Exclude still queued; apply it so windows waiting only on the dead
    // worker still finalize and the caller terminates with a report.
    if take_exclusions(exclusions, &mut excluded) {
        finalize_quorate_windows(&mut open, &mut finalized, &excluded, &mut trace);
    }
    debug_assert!(
        open.is_empty(),
        "every window must receive a partial from every (live) worker"
    );
    AggregatorStageReport {
        finalized,
        latencies,
        merged,
        duplicates_dropped,
        transport_errors,
        trace: trace.into_events(),
        transport: hop.snapshot(),
    }
}

/// Drains the queued exclusions into `excluded` without blocking; true if
/// that dropped anyone new from the quorum.
fn take_exclusions(exclusions: &mpsc::Receiver<usize>, excluded: &mut [bool]) -> bool {
    let mut changed = false;
    for worker in exclusions.try_iter() {
        if worker < excluded.len() && !excluded[worker] {
            excluded[worker] = true;
            changed = true;
        }
    }
    changed
}

/// Moves every open window whose quorum is now satisfied — every worker
/// either contributed or is excluded — into the finalized map, in window
/// order (the candidate set comes off a `HashMap`, whose iteration order
/// is arbitrary — sorting keeps the trace deterministic).
fn finalize_quorate_windows<P>(
    open: &mut HashMap<WindowId, (P, Vec<bool>, usize)>,
    finalized: &mut BTreeMap<WindowId, P>,
    excluded: &[bool],
    trace: &mut TraceBuf,
) {
    let mut ready: Vec<WindowId> = open
        .iter()
        .filter(|(_, slot)| (0..excluded.len()).all(|w| excluded[w] || slot.1[w]))
        .map(|(&window, _)| window)
        .collect();
    ready.sort_unstable();
    for window in ready {
        let (partial, _, _) = open.remove(&window).expect("window is open");
        finalized.insert(window, partial);
        trace.push(trace_kind::WINDOW_CLOSE, window, 0, 0);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;
    use std::thread;

    use slb_core::{CountAggregate, PartitionerKind};

    use super::super::test_support::partial_channels;
    use super::super::EngineConfig;
    use super::*;

    #[test]
    fn supervised_aggregator_finalizes_without_an_excluded_worker() {
        let aggregate = CountAggregate;
        // Two workers, one shard, three windows.
        let mut cfg = EngineConfig::smoke(PartitionerKind::Pkg, 1.0)
            .with_window_size(64)
            .with_messages(3 * 64)
            .with_aggregators(1);
        cfg.sources = 1;
        cfg.workers = 2;
        let plan = cfg.stage_plan();
        assert_eq!(plan.total_windows(), 3);
        let (partial_senders, partial_receivers) = partial_channels(&plan);
        let receiver = partial_receivers.into_iter().next().unwrap();
        let (exclude_tx, exclude_rx) = mpsc::channel();
        let hop = Arc::new(HopTelemetry::default());
        let stage_hop = Arc::clone(&hop);
        let handle = thread::spawn(move || {
            run_aggregator_stage(&plan, 0, &CountAggregate, receiver, &exclude_rx, &stage_hop)
        });
        let ship = |worker: usize, window: WindowId, key: KeyId, count: u64| {
            let mut partial = aggregate.empty();
            aggregate.observe(&mut partial, &key, count);
            partial_senders[0]
                .send(PartialWindow {
                    window,
                    worker,
                    partial,
                    closed_at: Instant::now(),
                })
                .unwrap();
        };
        // Worker 0 contributes every window; worker 1 dies after window 0.
        ship(0, 0, 7, 2);
        ship(1, 0, 7, 3);
        ship(0, 1, 7, 5);
        ship(0, 2, 9, 1);
        // The exclusion must follow worker 1's window-0 partial *at the
        // aggregator*, not just in this thread's program order: the stage
        // polls exclusions ahead of each receive, so one sent before the
        // partials are taken off the queue would shed that partial.
        while hop.batches_received.get() < 4 {
            thread::yield_now();
        }
        exclude_tx.send(1).unwrap();
        // Data-side progress follows the exclusion: close the queue.
        drop(partial_senders);
        let report = handle.join().expect("aggregator thread panicked");
        assert_eq!(report.finalized.len(), 3, "degraded windows must finalize");
        assert_eq!(report.merged, 4);
        assert_eq!(report.finalized[&0][&7], 5);
        assert_eq!(report.finalized[&1][&7], 5);
        assert_eq!(report.finalized[&2][&9], 1);
        assert_eq!(report.transport_errors, 0);
    }

    /// A well-formed partial naming a worker the plan does not have (a
    /// stray peer on a data port) is shed and counted as a transport error;
    /// the windows are the ones the run without it finalizes.
    #[test]
    fn a_partial_from_no_worker_of_the_plan_is_shed() {
        let aggregate = CountAggregate;
        let mut cfg = EngineConfig::smoke(PartitionerKind::Pkg, 1.0)
            .with_window_size(64)
            .with_messages(3 * 64)
            .with_aggregators(1);
        cfg.sources = 1;
        cfg.workers = 2;
        let plan = cfg.stage_plan();
        let run = |stray: bool| {
            let (sender, receiver) = crossbeam_channel::bounded(8);
            let ship = |worker: usize, window: WindowId, count: u64| {
                let mut partial = aggregate.empty();
                aggregate.observe(&mut partial, &(7 + window), count);
                let closed_at = Instant::now();
                sender
                    .send(PartialWindow {
                        window,
                        worker,
                        partial,
                        closed_at,
                    })
                    .expect("the queue holds the script");
            };
            if stray {
                ship(plan.spawned_workers, 0, 100);
            }
            for window in 0..3 {
                ship(0, window, 1);
                ship(1, window, 2);
            }
            drop(sender);
            let (_, exclusions) = mpsc::channel();
            let hop = HopTelemetry::default();
            run_aggregator_stage(&plan, 0, &aggregate, receiver, &exclusions, &hop)
        };

        let (clean, strayed) = (run(false), run(true));
        assert_eq!(clean.transport_errors, 0);
        assert_eq!(strayed.transport_errors, 1);
        assert_eq!(strayed.merged, 6);
        assert_eq!(strayed.finalized.len(), 3);
        assert_eq!(strayed.finalized, clean.finalized);
    }

    /// With nobody to exclude a worker and the data channel left open, the
    /// stage still returns once the plan's last window has finalized.
    #[test]
    fn an_aggregator_returns_at_the_last_window_with_its_channel_open() {
        let aggregate = CountAggregate;
        let mut cfg = EngineConfig::smoke(PartitionerKind::Pkg, 1.0)
            .with_window_size(64)
            .with_messages(3 * 64)
            .with_aggregators(1);
        cfg.sources = 1;
        cfg.workers = 2;
        let plan = cfg.stage_plan();
        let (sender, receiver) = crossbeam_channel::bounded(8);
        for window in 0..3 {
            for worker in 0..2 {
                let mut partial = aggregate.empty();
                aggregate.observe(&mut partial, &window, 1);
                let closed_at = Instant::now();
                sender
                    .send(PartialWindow {
                        window,
                        worker,
                        partial,
                        closed_at,
                    })
                    .expect("the queue holds the script");
            }
        }
        let (done, report) = mpsc::channel();
        thread::spawn(move || {
            let (_, exclusions) = mpsc::channel();
            let hop = HopTelemetry::default();
            let report = run_aggregator_stage(&plan, 0, &aggregate, receiver, &exclusions, &hop);
            let _ = done.send(report);
        });
        let report = report.recv_timeout(std::time::Duration::from_secs(10));
        let report = report.expect("the aggregator waited for an EOF");
        assert_eq!(report.finalized.len(), 3);
        assert_eq!(report.merged, 6);
        assert_eq!(report.finalized[&2][&2], 2);
        drop(sender);
    }
}
