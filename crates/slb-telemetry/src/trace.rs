//! Deterministic logical trace streams.
//!
//! A trace event is keyed by `(stage, instance, seq)` — the stage kind,
//! the stage instance index, and a per-instance monotone ordinal — never
//! by wall clock. Payloads are restricted to *logical* quantities (window
//! ids, windows-closed ordinals, replay cursors), so on a fault-free run
//! the full sorted stream is a pure function of the run's configuration:
//! bit-identical across transport backends, batch sizes, queue capacities,
//! and reruns. The `trace_differential` suite pins exactly that.
//!
//! Why fault-free determinism holds even though stages race in real time:
//! every source emits its per-window close markers in window order over
//! FIFO channels, and a worker finalizes window `w` only when the *last*
//! source's close for `w` arrives — by which point every close for every
//! `w' < w` has already been delivered and (processing being serial)
//! handled. Worker finalizations are therefore strictly ordered by window
//! id, and the same argument applied to the workers' partial shipments
//! orders each aggregator's finalizations. Checkpoint saves ride the
//! finalization boundary, and controller/rescale decisions are made at
//! source window boundaries from deterministic inputs (the
//! `controller_differential` suite proves the decision stream itself).
//! Replay, restore, and crash events are timing-dependent by nature and
//! appear only on faulty runs, which the differential never compares.

/// Event kinds for [`TraceEvent::kind`].
pub mod kind {
    /// Source: a window's close markers were broadcast. Worker: a window
    /// was finalized and its partial shipped (`a` = windows-closed
    /// ordinal). Aggregator: a window's merge quorum completed.
    pub const WINDOW_CLOSE: u8 = 0;
    /// Worker saved a checkpoint at a finalization boundary
    /// (`a` = windows-closed ordinal covered by the checkpoint).
    pub const CHECKPOINT_SAVE: u8 = 1;
    /// Worker restored from a checkpoint after a (simulated or real)
    /// crash (`window` = windows finalized as restored, `a` = their
    /// tuples). Fault runs only.
    pub const CHECKPOINT_RESTORE: u8 = 2;
    /// Worker asked source `a` to replay from cursor `b`. Fault runs only.
    pub const REPLAY_REQUEST: u8 = 3;
    /// Source served a replay for worker `a` from cursor `b`. Fault runs
    /// only.
    pub const REPLAY_SERVE: u8 = 4;
    /// Source applied a rescale: the active worker set changed to `a`
    /// workers at the boundary of `window`.
    pub const RESCALE: u8 = 5;
    /// Elasticity controller decisions at a window boundary
    /// (`a` = active workers after the step, `b` = chosen `d`).
    pub const CTRL_SCALE_OUT: u8 = 6;
    pub const CTRL_SCALE_IN: u8 = 7;
    pub const CTRL_RETUNE: u8 = 8;
}

/// One logical trace event. Plain data; the derived `Ord` sorts by
/// `(stage, instance, seq, ...)`, which is the canonical merged order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceEvent {
    /// Stage kind ([`crate::stage`] codes).
    pub stage: u8,
    /// Stage instance index (source / worker / aggregator id).
    pub instance: u32,
    /// Per-(stage, instance) monotone ordinal, starting at 0.
    pub seq: u64,
    /// Event kind ([`kind`] codes).
    pub kind: u8,
    /// The window the event refers to (`u64::MAX` when not applicable).
    pub window: u64,
    /// Kind-specific logical payload (see [`kind`]).
    pub a: u64,
    /// Kind-specific logical payload (see [`kind`]).
    pub b: u64,
}

/// A stage's local trace collector: assigns the per-instance `seq`
/// ordinals.
#[derive(Debug)]
pub struct TraceBuf {
    stage: u8,
    instance: u32,
    next_seq: u64,
    events: Vec<TraceEvent>,
}

impl TraceBuf {
    pub fn new(stage: u8, instance: u32) -> Self {
        Self {
            stage,
            instance,
            next_seq: 0,
            events: Vec::new(),
        }
    }

    #[inline]
    pub fn push(&mut self, kind: u8, window: u64, a: u64, b: u64) {
        self.events.push(TraceEvent {
            stage: self.stage,
            instance: self.instance,
            seq: self.next_seq,
            kind,
            window,
            a,
            b,
        });
        self.next_seq += 1;
    }

    /// The collected events, consumed in emission (= seq) order.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }
}

/// Sorts a merged multi-stage event list into the canonical
/// `(stage, instance, seq)` order. Stable total order because `seq` is
/// unique per `(stage, instance)`.
pub fn sort_canonical(events: &mut [TraceEvent]) {
    events.sort_unstable();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage;

    #[test]
    fn seq_is_per_instance_monotone() {
        let mut buf = TraceBuf::new(stage::WORKER, 3);
        buf.push(kind::WINDOW_CLOSE, 0, 1, 0);
        buf.push(kind::CHECKPOINT_SAVE, 0, 1, 0);
        buf.push(kind::WINDOW_CLOSE, 1, 2, 0);
        let events = buf.into_events();
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert!(events.iter().all(|e| e.stage == stage::WORKER));
        assert!(events.iter().all(|e| e.instance == 3));
    }

    #[test]
    fn canonical_sort_orders_by_stage_instance_seq() {
        let ev = |stage, instance, seq| TraceEvent {
            stage,
            instance,
            seq,
            kind: kind::WINDOW_CLOSE,
            window: 0,
            a: 0,
            b: 0,
        };
        let mut events = vec![ev(1, 0, 1), ev(0, 2, 0), ev(1, 0, 0), ev(0, 1, 5)];
        sort_canonical(&mut events);
        assert_eq!(
            events
                .iter()
                .map(|e| (e.stage, e.instance, e.seq))
                .collect::<Vec<_>>(),
            vec![(0, 1, 5), (0, 2, 0), (1, 0, 0), (1, 0, 1)]
        );
    }
}
