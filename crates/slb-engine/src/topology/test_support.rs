//! Helpers shared by the stage modules' unit tests.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

use crossbeam_channel::{bounded, Receiver, Sender};
use slb_core::PartitionerKind;
use slb_workloads::{Arrival, KeyId, Scenario, ScenarioPhase};

use super::{EngineConfig, SourceControl, SourceControlEvent, StagePlan};
use crate::transport::{
    capacity_in_batches, partial_channel_capacity, PartialWindow, SourceMessage, TupleReceiver,
};

/// [`slb_core::CountAggregate`]'s partial type, spelled once for the stage
/// tests that wire transports by hand.
pub type CountPartial = std::collections::HashMap<KeyId, u64>;

/// The in-process channel pairs of one hop, one pair per receiving stage
/// instance.
type Channels<T> = (Vec<Sender<T>>, Vec<Receiver<T>>);

/// In-process tuple channels sized as the runner sizes them for `plan`.
pub fn tuple_channels(plan: &StagePlan) -> Channels<SourceMessage> {
    let capacity = capacity_in_batches(plan.queue_capacity, plan.batch_size);
    (0..plan.spawned_workers).map(|_| bounded(capacity)).unzip()
}

/// In-process partial channels sized as the runner sizes them for `plan`.
pub fn partial_channels(plan: &StagePlan) -> Channels<PartialWindow<CountPartial>> {
    let capacity = partial_channel_capacity(plan.spawned_workers);
    (0..plan.aggregators).map(|_| bounded(capacity)).unzip()
}

/// A [`SourceControl`] a test scripts from outside the source's thread:
/// the in-process control (a queue whose closing counts as `Release`) with
/// every reattach tallied.
pub struct ScriptedControl {
    events: mpsc::Receiver<SourceControlEvent>,
    /// Sum of `worker + 1` over the reattach calls so far.
    pub reattached: Arc<AtomicUsize>,
}

/// A [`ScriptedControl`] and the handle that feeds it.
pub fn scripted_control() -> (mpsc::Sender<SourceControlEvent>, ScriptedControl) {
    let (tx, events) = mpsc::channel();
    let control = ScriptedControl {
        events,
        reattached: Arc::default(),
    };
    (tx, control)
}

impl SourceControl for ScriptedControl {
    fn poll(&mut self) -> Option<SourceControlEvent> {
        self.events.poll()
    }

    fn wait(&mut self) -> SourceControlEvent {
        self.events.wait()
    }

    fn reattach(&mut self, worker: usize) {
        self.reattached.fetch_add(worker + 1, Ordering::SeqCst);
    }
}

/// A single-source, single-worker config whose entire stream (live + one
/// full replay) fits in the bounded queue, so a test can drive the source
/// from one thread without a draining peer.
pub fn tiny_supervised_config() -> EngineConfig {
    let mut cfg = EngineConfig::smoke(PartitionerKind::Pkg, 1.4)
        .with_messages(2_048)
        .with_service_time_us(0)
        .with_batch_size(64)
        .with_window_size(512);
    cfg.sources = 1;
    cfg.workers = 1;
    cfg.aggregators = 1;
    cfg.queue_capacity = 16_384;
    cfg
}

/// Drains messages from a receiver until `tuples` tuples and `closes` close
/// markers have arrived, returning them in order.
pub fn drain_exactly(
    receiver: &impl TupleReceiver,
    tuples: u64,
    closes: usize,
) -> Vec<SourceMessage> {
    let mut got = Vec::new();
    let mut tuple_count = 0u64;
    let mut close_count = 0usize;
    let mut buf = Vec::new();
    while tuple_count < tuples || close_count < closes {
        receiver.recv_batch(&mut buf).expect("stream stays open");
        for message in buf.drain(..) {
            match &message {
                SourceMessage::Batch(batch) => tuple_count += batch.keys.len() as u64,
                SourceMessage::CloseWindow { .. } => close_count += 1,
            }
            got.push(message);
        }
    }
    assert_eq!(tuple_count, tuples, "over-delivered tuples");
    assert_eq!(close_count, closes, "over-delivered closes");
    got
}

/// Drains a receiver whose senders are all gone.
pub fn drain_to_end(receiver: &impl TupleReceiver) -> Vec<SourceMessage> {
    let mut got = Vec::new();
    while receiver.recv_batch(&mut got).is_ok() {}
    got
}

/// A small scenario exercising scale-out, drift, heterogeneity, and a
/// burst phase at test speed.
pub fn small_scenario(seed: u64) -> Scenario {
    Scenario::new("unit", 2, 256, seed)
        .phase(ScenarioPhase::new(2, 400, 1.8, 3))
        .phase(
            ScenarioPhase::new(2, 400, 1.2, 5)
                .with_drift_epochs(2)
                .with_worker_speed(vec![2.0, 1.0, 1.0, 1.0, 1.0]),
        )
        .phase(
            ScenarioPhase::new(1, 200, 0.0, 2).with_arrival(Arrival::Bursty {
                burst_tuples: 128,
                pause_us: 10,
            }),
        )
}
