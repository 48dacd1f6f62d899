//! Deterministic fault injection and the worker checkpoint store.
//!
//! A [`FaultPlan`] is a declarative list of faults pinned to deterministic
//! offsets — "kill worker 2 after it has processed 5 000 tuples", "drop 3
//! consecutive batches from source 0 to worker 1 starting at its 40th
//! message". Both the in-process and TCP backends execute the same plan at
//! the same logical points, because the triggers count *logical* progress
//! (tuples processed, messages sent on one connection), never wall-clock
//! time. That is what lets the fault-injection differential suite demand
//! bit-identical merged windowed counts against the single-threaded exact
//! reference: the faults themselves are reproducible.
//!
//! Two fault shapes cover the failure modes the recovery protocol handles:
//!
//! * [`FaultEvent::KillWorker`] simulates a worker crash. The worker stage
//!   discards all volatile state (open partials, counters, sequence
//!   cursors) at the trigger point, restores its last checkpoint from the
//!   [`CheckpointStore`], and asks every source to replay from the
//!   checkpoint's sequence cursors.
//! * [`FaultEvent::DropConnection`] simulates message loss on one
//!   source → worker connection. The source silently discards `lose`
//!   consecutive *batch* messages (sequence numbers still advance, so the
//!   worker observes a gap and requests replay). Close markers are never
//!   dropped: a window's close always survives, which guarantees the gap is
//!   detected before the worker could finalize the window short.
//!
//! Faults fire **once**: a restored worker whose counters rewound below a
//! kill threshold does not re-trip it.

use slb_core::{deltas_outweigh_base, WorkerCheckpoint};

/// One injected fault, pinned to a deterministic logical offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// Crash worker `worker` immediately after it has processed
    /// `after_tuples` tuples, discarding all volatile state. The worker
    /// recovers from its last checkpoint and bounded replay.
    KillWorker {
        /// Index of the worker to crash.
        worker: usize,
        /// Lifetime processed-tuple count that trips the crash.
        after_tuples: u64,
    },
    /// Silently lose `lose` consecutive batch messages on the
    /// `source` → `worker` connection, starting after that connection has
    /// carried `after_messages` messages. Sequence numbers advance across
    /// the loss, so the receiver detects the gap exactly.
    DropConnection {
        /// Index of the sending source.
        source: usize,
        /// Index of the receiving worker.
        worker: usize,
        /// Messages sent on the connection before the loss begins.
        after_messages: u64,
        /// Number of consecutive batch messages to lose.
        lose: u64,
    },
}

/// A deterministic fault schedule for one run. Empty by default.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

/// A source-side view of one [`FaultEvent::DropConnection`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnectionDrop {
    /// The receiving worker whose connection loses messages.
    pub worker: usize,
    /// Messages sent on the connection before the loss begins.
    pub after_messages: u64,
    /// Number of consecutive batch messages to lose.
    pub lose: u64,
}

impl FaultPlan {
    /// A plan with no faults: runs behave exactly like the plain engine.
    pub fn none() -> Self {
        Self::default()
    }

    /// True when the plan schedules no faults.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// All scheduled events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Schedules a worker crash after `after_tuples` processed tuples.
    pub fn kill_worker(mut self, worker: usize, after_tuples: u64) -> Self {
        self.events.push(FaultEvent::KillWorker {
            worker,
            after_tuples,
        });
        self
    }

    /// Schedules the loss of `lose` consecutive batch messages on the
    /// `source` → `worker` connection after `after_messages` messages.
    pub fn drop_connection(
        mut self,
        source: usize,
        worker: usize,
        after_messages: u64,
        lose: u64,
    ) -> Self {
        self.events.push(FaultEvent::DropConnection {
            source,
            worker,
            after_messages,
            lose,
        });
        self
    }

    /// The processed-tuple thresholds at which `worker` must crash, sorted
    /// ascending.
    pub fn kill_points(&self, worker: usize) -> Vec<u64> {
        let mut points: Vec<u64> = self
            .events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::KillWorker {
                    worker: w,
                    after_tuples,
                } if *w == worker => Some(*after_tuples),
                _ => None,
            })
            .collect();
        points.sort_unstable();
        points
    }

    /// The connection drops `source` must inject, in insertion order.
    pub fn drops_from(&self, source: usize) -> Vec<ConnectionDrop> {
        self.events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::DropConnection {
                    source: s,
                    worker,
                    after_messages,
                    lose,
                } if *s == source => Some(ConnectionDrop {
                    worker: *worker,
                    after_messages: *after_messages,
                    lose: *lose,
                }),
                _ => None,
            })
            .collect()
    }

    /// Checks every event's indices against the topology size.
    pub fn validate(&self, sources: usize, workers: usize) -> Result<(), String> {
        for event in &self.events {
            match *event {
                FaultEvent::KillWorker { worker, .. } => {
                    if worker >= workers {
                        return Err(format!(
                            "kill-worker fault names worker {worker} of {workers}"
                        ));
                    }
                }
                FaultEvent::DropConnection {
                    source,
                    worker,
                    lose,
                    ..
                } => {
                    if source >= sources {
                        return Err(format!(
                            "drop-connection fault names source {source} of {sources}"
                        ));
                    }
                    if worker >= workers {
                        return Err(format!(
                            "drop-connection fault names worker {worker} of {workers}"
                        ));
                    }
                    if lose == 0 {
                        return Err("drop-connection fault loses zero messages".to_string());
                    }
                }
            }
        }
        Ok(())
    }
}

/// One record of a worker's checkpoint log, as the worker stage hands it to
/// a durable mirror: which kind it is decides whether the mirror starts a
/// new log or appends to the current one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointRecord<'a> {
    /// An encoded [`slb_core::WorkerCheckpoint`]: starts a new log.
    Base(&'a [u8]),
    /// An encoded [`slb_core::CheckpointDelta`]: extends the current log.
    Delta(&'a [u8]),
}

impl CheckpointRecord<'_> {
    /// The record's encoded bytes.
    pub fn bytes(&self) -> &[u8] {
        match self {
            CheckpointRecord::Base(bytes) | CheckpointRecord::Delta(bytes) => bytes,
        }
    }
}

/// The in-memory durable store one worker checkpoints into: its checkpoint
/// log, as the encoded base record ([`slb_core::WorkerCheckpoint`]) and the
/// encoded delta records ([`slb_core::CheckpointDelta`]) appended since.
///
/// A simulated crash discards everything the worker holds on its stack and
/// restores *only* from these bytes, so the store stands in for the durable
/// medium (local disk, replicated log) a production deployment would use —
/// the recovery path decodes exactly what a real restart would read. It
/// also owns the rebase decision ([`Self::wants_base`]), so the worker
/// stage and its durable mirror in `slb-net` cannot disagree on it.
///
/// Each worker stage owns its store alone; nothing here is shared.
#[derive(Debug, Default)]
pub struct CheckpointStore {
    base: Vec<u8>,
    /// The delta records since `base`, back to back (each self-delimiting).
    deltas: Vec<u8>,
    bytes_saved: u64,
}

impl CheckpointStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when the next record must be a base: nothing is stored yet, or
    /// the deltas since the last base outweigh it
    /// ([`slb_core::deltas_outweigh_base`]).
    pub fn wants_base(&self) -> bool {
        self.base.is_empty() || deltas_outweigh_base(self.base.len(), self.deltas.len())
    }

    /// Starts a new log: `encode` appends the base record to the (cleared)
    /// base buffer, and the previous base and its deltas are dropped. Both
    /// buffers keep their allocations. Returns the record written.
    pub fn save_base(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> CheckpointRecord<'_> {
        self.base.clear();
        self.deltas.clear();
        encode(&mut self.base);
        assert!(!self.base.is_empty(), "a base record is never empty");
        self.bytes_saved += self.base.len() as u64;
        CheckpointRecord::Base(&self.base)
    }

    /// Appends one delta record: `encode` appends it to the delta buffer.
    /// Returns the record written.
    pub fn append_delta(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> CheckpointRecord<'_> {
        let at = self.deltas.len();
        encode(&mut self.deltas);
        self.bytes_saved += (self.deltas.len() - at) as u64;
        CheckpointRecord::Delta(&self.deltas[at..])
    }

    /// Rebuilds the state as of the latest record, or `None` before the
    /// first save.
    ///
    /// # Panics
    /// Panics if the stored bytes do not decode — they are this worker's
    /// own encodings, so that is a bug, not an input error.
    pub fn restore(&self) -> Option<WorkerCheckpoint> {
        (!self.base.is_empty()).then(|| {
            WorkerCheckpoint::restore(&self.base, [self.deltas.as_slice()])
                .expect("a worker's own checkpoint log decodes")
        })
    }

    /// Total bytes of every record ever saved (not the current log size).
    pub fn bytes_saved(&self) -> u64 {
        self.bytes_saved
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::none().is_empty());
        assert!(FaultPlan::none().kill_points(0).is_empty());
        assert!(FaultPlan::none().drops_from(0).is_empty());
        assert_eq!(FaultPlan::none().validate(2, 4), Ok(()));
    }

    #[test]
    fn kill_points_filter_and_sort_per_worker() {
        let plan = FaultPlan::none()
            .kill_worker(1, 900)
            .kill_worker(0, 50)
            .kill_worker(1, 100);
        assert_eq!(plan.kill_points(1), vec![100, 900]);
        assert_eq!(plan.kill_points(0), vec![50]);
        assert!(plan.kill_points(2).is_empty());
    }

    #[test]
    fn drops_filter_per_source() {
        let plan = FaultPlan::none()
            .drop_connection(0, 2, 10, 3)
            .drop_connection(1, 0, 5, 1);
        let drops = plan.drops_from(0);
        assert_eq!(drops.len(), 1);
        assert_eq!(
            drops[0],
            ConnectionDrop {
                worker: 2,
                after_messages: 10,
                lose: 3
            }
        );
        assert!(plan.drops_from(2).is_empty());
    }

    #[test]
    fn validate_rejects_out_of_range_and_zero_loss() {
        assert!(FaultPlan::none().kill_worker(4, 1).validate(2, 4).is_err());
        assert!(FaultPlan::none()
            .drop_connection(2, 0, 0, 1)
            .validate(2, 4)
            .is_err());
        assert!(FaultPlan::none()
            .drop_connection(0, 4, 0, 1)
            .validate(2, 4)
            .is_err());
        assert!(FaultPlan::none()
            .drop_connection(0, 0, 0, 0)
            .validate(2, 4)
            .is_err());
        assert!(FaultPlan::none()
            .kill_worker(3, 1)
            .drop_connection(1, 3, 7, 2)
            .validate(2, 4)
            .is_ok());
    }

    #[test]
    fn checkpoint_store_restores_base_plus_deltas_and_rebases_by_weight() {
        use slb_core::CheckpointDelta;
        let mut store = CheckpointStore::new();
        assert!(store.wants_base(), "the first record is always a base");
        assert_eq!(store.restore(), None);
        let base = WorkerCheckpoint {
            windows_closed: 1,
            state_keys: (0..10).collect(),
            ..WorkerCheckpoint::default()
        };
        let saved = store.save_base(|out| base.encode(out));
        assert!(matches!(saved, CheckpointRecord::Base(_)));
        let base_len = saved.bytes().len();
        assert_eq!(store.restore(), Some(base.clone()));
        // Deltas accumulate until they outweigh the base.
        let mut expected = base;
        let mut delta_bytes = 0;
        let mut closes = 1;
        while !store.wants_base() {
            closes += 1;
            let delta = CheckpointDelta {
                windows_closed: closes,
                fresh_keys: vec![100 + closes],
                ..CheckpointDelta::default()
            };
            let saved = store.append_delta(|out| delta.encode(out));
            assert!(matches!(saved, CheckpointRecord::Delta(_)));
            let mut appended = saved.bytes();
            assert_eq!(CheckpointDelta::decode(&mut appended), Ok(delta.clone()));
            delta_bytes += saved.bytes().len();
            expected.apply(&delta).unwrap();
            assert_eq!(store.restore().as_ref(), Some(&expected));
        }
        assert!(delta_bytes > base_len);
        assert_eq!(store.bytes_saved(), (base_len + delta_bytes) as u64);
        // A new base drops the old log.
        store.save_base(|out| expected.encode(out));
        assert!(!store.wants_base());
        assert_eq!(store.restore(), Some(expected));
    }
}
