//! Replay ≡ live, at frame level.
//!
//! One source runs against capturing [`TupleSender`]s. At a random point of
//! its emission (between two chunks, or after the last one) a `Rejoin` for a
//! random `(worker, from_seq)` arrives on its control path. The frames the
//! replay re-sends must equal the recorded suffix for that worker bit for
//! bit — keys, window, source, seq — and nothing may go to another worker or
//! past the live cursor: with the replayed run of frames cut out, the log
//! must be exactly the log of a run that was never asked to replay.
//!
//! Every case covers all six schemes on one of four shapes: steady (with a
//! trailing partial window), bursts smaller than the batch size, a two-phase
//! scale-out, and an attached elasticity controller that scales and retunes.

use std::sync::{mpsc, Arc, Mutex};

use proptest::prelude::*;

use slb_core::{ControllerConfig, PartitionerKind};
use slb_engine::windows::source_stream;
use slb_engine::{
    run_source_stage, ChannelClosed, EngineConfig, ScenarioConfig, SourceControl,
    SourceControlEvent, SourceMessage, StagePlan, TupleSender, WindowId,
};
use slb_telemetry::HopTelemetry;
use slb_workloads::{Arrival, KeyId, KeyStream, Scenario, ScenarioPhase};

/// A sent message, minus its emit timestamp.
#[derive(Debug, Clone, PartialEq)]
enum Frame {
    Batch {
        keys: Vec<KeyId>,
        window: WindowId,
        source: usize,
        seq: u64,
    },
    Close {
        window: WindowId,
        source: usize,
        seq: u64,
    },
}

impl Frame {
    fn seq(&self) -> u64 {
        match self {
            Frame::Batch { seq, .. } | Frame::Close { seq, .. } => *seq,
        }
    }
}

/// Every frame sent to any worker, in send order.
type Log = Arc<Mutex<Vec<(usize, Frame)>>>;

#[derive(Clone)]
struct Capture {
    worker: usize,
    log: Log,
}

impl TupleSender for Capture {
    fn send(&self, message: SourceMessage) -> Result<(), ChannelClosed> {
        let frame = match message {
            SourceMessage::Batch(batch) => Frame::Batch {
                keys: batch.keys,
                window: batch.window,
                source: batch.source,
                seq: batch.seq,
            },
            SourceMessage::CloseWindow {
                window,
                source,
                seq,
            } => Frame::Close {
                window,
                source,
                seq,
            },
        };
        self.log.lock().unwrap().push((self.worker, frame));
        Ok(())
    }
}

/// What the one `Rejoin` of a run asked for, and where in the log it fell.
#[derive(Debug, Clone, Copy)]
struct Fired {
    /// Frames logged before the request was delivered.
    mark: usize,
    worker: usize,
    from_seq: u64,
    /// The live cursor for `worker` at that point.
    cursor: u64,
}

/// Delivers one `Rejoin` at the `at_poll`-th poll — or after emission, if
/// the source polls fewer times than that — then `Release`.
struct OneRejoin {
    log: Log,
    at_poll: usize,
    worker: usize,
    /// `from_seq` as a fraction (‰) of the live cursor at delivery.
    from_permille: u64,
    fired: Arc<Mutex<Option<Fired>>>,
}

impl OneRejoin {
    fn fire(&mut self) -> Option<SourceControlEvent> {
        let mut fired = self.fired.lock().unwrap();
        if fired.is_some() {
            return None;
        }
        let log = self.log.lock().unwrap();
        let cursor = log.iter().filter(|(w, _)| *w == self.worker).count() as u64;
        let from_seq = cursor * self.from_permille / 1000;
        *fired = Some(Fired {
            mark: log.len(),
            worker: self.worker,
            from_seq,
            cursor,
        });
        Some(SourceControlEvent::Rejoin {
            worker: self.worker,
            from_seq,
        })
    }
}

impl SourceControl for OneRejoin {
    fn poll(&mut self) -> Option<SourceControlEvent> {
        if self.at_poll > 0 {
            self.at_poll -= 1;
            return None;
        }
        self.fire()
    }

    fn wait(&mut self) -> SourceControlEvent {
        self.fire().unwrap_or(SourceControlEvent::Release)
    }
}

/// Checks one `(plan, stream)` for one request; returns a description of the
/// first violation.
fn check<S: KeyStream + Clone>(
    plan: &StagePlan,
    stream_for_phase: impl Fn(usize) -> S + Copy,
    target_pick: usize,
    from_permille: u64,
    at_poll: usize,
) -> Result<(), String> {
    let senders = |log: &Log| -> Vec<Capture> {
        (0..plan.spawned_workers)
            .map(|worker| Capture {
                worker,
                log: log.clone(),
            })
            .collect()
    };
    let reference: Log = Log::default();
    let hop = HopTelemetry::default();
    // A control whose sender is gone: released, and never asked to replay.
    let (_, released) = mpsc::channel();
    let sent = run_source_stage(
        plan,
        0,
        stream_for_phase,
        &senders(&reference),
        released,
        &hop,
    )
    .sent;
    let reference = reference.lock().unwrap().clone();

    let log: Log = Log::default();
    let fired = Arc::new(Mutex::new(None));
    let control = OneRejoin {
        log: log.clone(),
        at_poll,
        worker: target_pick % plan.spawned_workers,
        from_permille,
        fired: fired.clone(),
    };
    let report = run_source_stage(plan, 0, stream_for_phase, &senders(&log), control, &hop);
    let mut log = log.lock().unwrap().clone();
    let fired = fired
        .lock()
        .unwrap()
        .ok_or("the Rejoin was never delivered")?;
    if report.sent != sent {
        return Err(format!("replay changed sent: {} vs {sent}", report.sent));
    }

    // The replay is the run of frames right after the mark.
    let replayed: Vec<(usize, Frame)> = log
        .drain(fired.mark..fired.mark + (fired.cursor - fired.from_seq) as usize)
        .collect();
    let expected: Vec<(usize, Frame)> = reference
        .iter()
        .filter(|(w, f)| *w == fired.worker && (fired.from_seq..fired.cursor).contains(&f.seq()))
        .cloned()
        .collect();
    if replayed != expected {
        return Err(format!(
            "{fired:?}: replayed frames differ from the recorded suffix\n replayed {replayed:?}\n expected {expected:?}"
        ));
    }
    // Nothing else was sent: not to another worker, not past the cursor.
    if log != reference {
        return Err(format!(
            "{fired:?}: the log minus the replay is not the unreplayed run"
        ));
    }
    Ok(())
}

/// The four emission shapes, each sized to a few windows of a few batches.
fn check_shape(
    kind: PartitionerKind,
    shape: u8,
    seed: u64,
    target_pick: usize,
    from_permille: u64,
    at_poll: usize,
) -> Result<(), String> {
    let steady = || {
        let mut cfg = EngineConfig::smoke(kind, 1.4)
            // Not a multiple of the window: the run ends on a partial one.
            .with_messages(2 * 1_100)
            .with_seed(seed)
            .with_batch_size(32)
            .with_window_size(256);
        cfg.keys = 300;
        cfg
    };
    let check_engine = |cfg: EngineConfig| {
        check(
            &cfg.stage_plan(),
            |_phase| source_stream(&cfg, 0),
            target_pick,
            from_permille,
            at_poll,
        )
    };
    let check_scenario = |scenario: Scenario| {
        let cfg = ScenarioConfig::new(kind, scenario).with_batch_size(64);
        check(
            &cfg.stage_plan(),
            |phase| cfg.scenario.phase_stream(phase, 0),
            target_pick,
            from_permille,
            at_poll,
        )
    };
    match shape {
        0 => check_engine(steady()),
        1 => check_scenario(Scenario::single_phase(
            "bursty",
            2,
            256,
            seed,
            ScenarioPhase::new(4, 300, 1.4, 4).with_arrival(Arrival::Bursty {
                burst_tuples: 24, // below the batch size of 64
                pause_us: 1,
            }),
        )),
        2 => check_scenario(
            Scenario::new("scale-out", 2, 256, seed)
                .phase(ScenarioPhase::new(2, 300, 1.6, 3))
                .phase(ScenarioPhase::new(3, 300, 1.1, 5)),
        ),
        // Two workers of capacity 100 under 256-tuple windows: the
        // controller scales out, then retunes d on head-aware schemes.
        _ => check_engine({
            let mut cfg = steady().with_controller(
                ControllerConfig::new(2, 6, 100)
                    .with_patience(1)
                    .with_cooldown(1),
            );
            cfg.workers = 2;
            cfg
        }),
    }
}

proptest! {
    #[test]
    fn replay_resends_exactly_the_recorded_suffix(
        shape in 0u8..4,
        seed in any::<u64>(),
        target_pick in 0usize..64,
        from_permille in 0u64..1001,
        // Runs poll 40–100 times; past that the request lands after emission.
        at_poll in 0usize..130,
    ) {
        for kind in PartitionerKind::ALL {
            if let Err(violation) = check_shape(kind, shape, seed, target_pick, from_permille, at_poll) {
                prop_assert!(false, "{kind:?} shape {shape}: {violation}");
            }
        }
    }
}
