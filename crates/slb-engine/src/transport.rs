//! The engine's pluggable transport layer.
//!
//! The topology has exactly three kinds of hop:
//!
//! 1. **source → worker tuple batches** ([`TupleBatch`]) — the hot path,
//! 2. **source → worker punctuation** ([`SourceMessage::CloseWindow`]) —
//!    the markers that close tuple-count windows,
//! 3. **worker → aggregator partials** ([`PartialWindow`]) — one finalized
//!    per-window shard slice per worker per aggregator.
//!
//! Nothing flows from a worker back to a source on the data plane: a
//! recovering worker's replay request is a
//! [`SourceControlEvent::Rejoin`](crate::SourceControlEvent) — a std `mpsc`
//! queue per source in process, the control plane across processes.
//!
//! A [`Transport`] supplies the channel endpoints for those hops. The run
//! loop in [`crate::topology`] is generic over it, so the *same* phased
//! source/worker/aggregator code drives both the in-process crossbeam
//! backend ([`InProc`], the default — bit-for-bit the pre-transport
//! behaviour) and networked backends such as the TCP transport in the
//! `slb-net` crate. Routing, windowing, and aggregation are transport-blind
//! by construction; the cross-backend differential suite turns that claim
//! into an exact equality check on merged windowed counts.
//!
//! ## Semantics every transport must provide
//!
//! * **FIFO per sender per channel.** The punctuation protocol relies on a
//!   worker seeing every tuple a source routed to it for window `w` before
//!   that source's `CloseWindow { w }` marker. Messages from *different*
//!   senders may interleave arbitrarily.
//! * **Bounded buffering.** `tuple_channels` receives the queue capacity in
//!   batches (derived from `queue_capacity` and `batch_size` via
//!   [`capacity_in_batches`] — the single place that conversion lives);
//!   senders must block once the receiver's queue is full so that
//!   back-pressure reaches the sources, which is what makes the most loaded
//!   worker the throughput bottleneck.
//! * **Disconnect on drop.** When every sender handle for a channel has been
//!   dropped, the receiver's `recv_batch` must drain the remaining messages
//!   and then report [`ChannelClosed`] — that is how the stages terminate.

use std::time::Instant;

use crossbeam_channel::{bounded, Receiver, Sender};
use slb_workloads::KeyId;

use crate::windows::WindowId;

/// A batch of tuples in flight to one worker: the keys, the window they all
/// belong to (sources never let a batch span a boundary), and the single
/// timestamp taken when the batch's first tuple was buffered.
pub struct TupleBatch {
    /// The routed keys, in source emission order.
    pub keys: Vec<KeyId>,
    /// The window every key in the batch belongs to.
    pub window: WindowId,
    /// Index of the source that emitted the batch.
    pub source: usize,
    /// Position of this message in the per-(source, worker) sequence. Every
    /// message a source sends to one worker — batch or close marker —
    /// carries the next consecutive number, so the receiver can detect both
    /// duplicates (replay overlap) and gaps (loss) exactly.
    pub seq: u64,
    /// When the batch's first tuple was buffered at the source.
    pub emitted_at: Instant,
}

/// One message on a source → worker channel.
pub enum SourceMessage {
    /// A batch of same-window tuples.
    Batch(TupleBatch),
    /// Punctuation: the sending source has emitted every tuple it will ever
    /// emit for `window` (and has flushed the batches carrying them).
    CloseWindow {
        /// The window the sending source has finished.
        window: WindowId,
        /// Index of the source that finished it.
        source: usize,
        /// Position in the per-(source, worker) sequence (see
        /// [`TupleBatch::seq`]).
        seq: u64,
    },
}

impl SourceMessage {
    /// The (source, sequence) coordinates of the message.
    pub fn source_seq(&self) -> (usize, u64) {
        match self {
            SourceMessage::Batch(batch) => (batch.source, batch.seq),
            SourceMessage::CloseWindow { source, seq, .. } => (*source, *seq),
        }
    }
}

/// One worker's finalized partial aggregate for one window, sliced to one
/// aggregator shard's key range.
pub struct PartialWindow<P> {
    /// The window the partial belongs to.
    pub window: WindowId,
    /// Index of the worker that finalized the window. Aggregators count
    /// contributions by *distinct* worker, so a recovered worker re-sending
    /// a partial it already shipped is dropped as a duplicate instead of
    /// double-counted.
    pub worker: usize,
    /// The shard slice of the worker's partial aggregate.
    pub partial: P,
    /// When the worker finalized the window (all close markers collected).
    pub closed_at: Instant,
}

/// The error every transport operation reports once the peer is gone: all
/// receivers dropped (for senders) or all senders dropped and the queue
/// drained (for receivers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelClosed;

impl std::fmt::Display for ChannelClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("transport channel closed")
    }
}

impl std::error::Error for ChannelClosed {}

/// A transport-level receive failure that is *not* a clean shutdown: the
/// receiver met a malformed frame or a failed read on one peer
/// connection. Distinct from [`ChannelClosed`] so stage loops can tell a
/// crashed peer from an orderly EOF — the stage counts it
/// ([`crate::RecoveryMetrics::transport_errors`]) and keeps receiving from
/// the remaining connections instead of aborting the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransportError {
    /// The peer connection the error came from (transport-specific label).
    pub peer: String,
    /// What went wrong (decode error, I/O error).
    pub detail: String,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "transport error from {}: {}", self.peer, self.detail)
    }
}

impl std::error::Error for TransportError {}

/// Why a `recv_batch` produced no messages: the channel shut down cleanly
/// (every sender dropped, queue drained) or one peer connection failed.
/// `Closed` is terminal; `Transport` is survivable — later calls keep
/// delivering messages from the healthy connections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecvError {
    /// All senders gone and the queue drained: the orderly end of stream.
    Closed,
    /// One connection died mid-stream; the channel itself is still open.
    Transport(TransportError),
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Closed => f.write_str("transport channel closed"),
            RecvError::Transport(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for RecvError {}

/// Sending half of a source → worker channel. Cloned once per source; the
/// channel disconnects when the last clone drops.
pub trait TupleSender: Send + Clone + 'static {
    /// Blocks until there is room, then enqueues `message`.
    fn send(&self, message: SourceMessage) -> Result<(), ChannelClosed>;

    /// A spent batch buffer handed back by the receiving worker (see
    /// [`TupleReceiver::recycle`]), ready to be cleared and refilled. The
    /// default — for backends without a return path — is `None`, which
    /// makes the source allocate a fresh buffer as before.
    fn take_recycled(&self) -> Option<Vec<KeyId>> {
        None
    }

    /// A racy `(queued_messages, capacity)` snapshot of the channel, for
    /// telemetry high-water marks. Sources sample it once per sent batch —
    /// never on the per-tuple path — so an implementation may take a lock.
    /// The default `None` is for backends that cannot observe their queue
    /// cheaply (a TCP socket's depth lives in kernel buffers).
    fn queue_depth_hint(&self) -> Option<(usize, usize)> {
        None
    }
}

/// Receiving half of a source → worker channel.
pub trait TupleReceiver: Send + 'static {
    /// Blocks until at least one message is available, then appends every
    /// queued message to `out` and returns how many were appended. Reports
    /// [`RecvError::Closed`] once all senders are gone and the queue is
    /// empty, or [`RecvError::Transport`] when a peer connection failed
    /// mid-stream (survivable: keep calling for the healthy connections).
    fn recv_batch(&self, out: &mut Vec<SourceMessage>) -> Result<usize, RecvError>;

    /// Offers a consumed batch's key buffer back to the senders so the
    /// steady state can run allocation-free. Purely an optimization hook:
    /// the default drops the buffer, and implementations must likewise
    /// drop it (never block) when no sender is ready to take it.
    fn recycle(&self, _keys: Vec<KeyId>) {}
}

/// Sending half of a worker → aggregator channel. Cloned once per worker.
pub trait PartialSender<P: Send + 'static>: Send + Clone + 'static {
    /// Blocks until there is room, then enqueues `message`.
    fn send(&self, message: PartialWindow<P>) -> Result<(), ChannelClosed>;
}

/// Receiving half of a worker → aggregator channel.
pub trait PartialReceiver<P: Send + 'static>: Send + 'static {
    /// Blocks until at least one message is available, then appends every
    /// queued message to `out` and returns how many were appended. Reports
    /// [`RecvError::Closed`] once all senders are gone and the queue is
    /// empty, or [`RecvError::Transport`] when a peer connection failed
    /// mid-stream (survivable: keep calling for the healthy connections).
    fn recv_batch(&self, out: &mut Vec<PartialWindow<P>>) -> Result<usize, RecvError>;
}

/// A factory of channel endpoints for the topology's hops, parameterized by
/// the aggregate partial type `P` that crosses the worker → aggregator hop.
pub trait Transport<P: Send + 'static> {
    /// Source → worker sender handle (shared by all sources).
    type TupleTx: TupleSender;
    /// Source → worker receiver handle (one per worker).
    type TupleRx: TupleReceiver;
    /// Worker → aggregator sender handle (shared by all workers).
    type PartialTx: PartialSender<P>;
    /// Worker → aggregator receiver handle (one per aggregator).
    type PartialRx: PartialReceiver<P>;

    /// Creates one source → worker channel per worker, each buffering at
    /// most `capacity_batches` in-flight messages.
    fn tuple_channels(
        &self,
        workers: usize,
        capacity_batches: usize,
    ) -> (Vec<Self::TupleTx>, Vec<Self::TupleRx>);

    /// Creates one worker → aggregator channel per aggregator, each
    /// buffering at most `capacity_messages` in-flight partials.
    fn partial_channels(
        &self,
        aggregators: usize,
        capacity_messages: usize,
    ) -> (Vec<Self::PartialTx>, Vec<Self::PartialRx>);
}

/// Converts the configured queue capacity (in tuples) into channel slots (in
/// batches), rounding up. The floor of two keeps the pipeline
/// double-buffered — one batch being drained while the next is in flight —
/// even when the configured capacity is smaller than a single batch; a floor
/// of one would serialize source and worker on the same hand-off.
///
/// Both the in-process and networked backends size their queues through this
/// one function, so `queue_capacity`/`batch_size` mean the same thing on
/// every backend.
pub fn capacity_in_batches(queue_capacity: usize, batch_size: usize) -> usize {
    queue_capacity.div_ceil(batch_size).max(2)
}

/// Channel slots for a worker → aggregator channel: those channels carry one
/// partial per closed window per worker, so a couple of windows' worth of
/// slots per worker is plenty of double-buffering.
pub fn partial_channel_capacity(spawned_workers: usize) -> usize {
    spawned_workers * 2 + 4
}

/// The in-process transport: bounded crossbeam channels, exactly the
/// engine's original plumbing. This is the reference backend every other
/// transport is differentially tested against.
#[derive(Debug, Clone, Copy, Default)]
pub struct InProc;

impl TupleSender for Sender<SourceMessage> {
    fn send(&self, message: SourceMessage) -> Result<(), ChannelClosed> {
        Sender::send(self, message).map_err(|_| ChannelClosed)
    }

    fn queue_depth_hint(&self) -> Option<(usize, usize)> {
        Some((Sender::len(self), Sender::capacity(self).unwrap_or(0)))
    }
}

impl TupleReceiver for Receiver<SourceMessage> {
    fn recv_batch(&self, out: &mut Vec<SourceMessage>) -> Result<usize, RecvError> {
        Receiver::recv_batch(self, out, usize::MAX).map_err(|_| RecvError::Closed)
    }
}

impl<P: Send + 'static> PartialSender<P> for Sender<PartialWindow<P>> {
    fn send(&self, message: PartialWindow<P>) -> Result<(), ChannelClosed> {
        Sender::send(self, message).map_err(|_| ChannelClosed)
    }
}

impl<P: Send + 'static> PartialReceiver<P> for Receiver<PartialWindow<P>> {
    fn recv_batch(&self, out: &mut Vec<PartialWindow<P>>) -> Result<usize, RecvError> {
        Receiver::recv_batch(self, out, usize::MAX).map_err(|_| RecvError::Closed)
    }
}

impl<P: Send + 'static> Transport<P> for InProc {
    type TupleTx = Sender<SourceMessage>;
    type TupleRx = Receiver<SourceMessage>;
    type PartialTx = Sender<PartialWindow<P>>;
    type PartialRx = Receiver<PartialWindow<P>>;

    fn tuple_channels(
        &self,
        workers: usize,
        capacity_batches: usize,
    ) -> (Vec<Self::TupleTx>, Vec<Self::TupleRx>) {
        (0..workers)
            .map(|_| bounded::<SourceMessage>(capacity_batches))
            .unzip()
    }

    fn partial_channels(
        &self,
        aggregators: usize,
        capacity_messages: usize,
    ) -> (Vec<Self::PartialTx>, Vec<Self::PartialRx>) {
        (0..aggregators)
            .map(|_| bounded::<PartialWindow<P>>(capacity_messages))
            .unzip()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_conversion_rounds_up_with_a_floor_of_two() {
        assert_eq!(capacity_in_batches(1_024, 256), 4);
        assert_eq!(capacity_in_batches(1_000, 256), 4);
        assert_eq!(capacity_in_batches(100, 256), 2);
        assert_eq!(capacity_in_batches(1, 1), 2);
        assert_eq!(capacity_in_batches(1_024, 1), 1_024);
    }

    #[test]
    fn capacity_conversion_handles_capacity_smaller_than_batch() {
        // Any capacity strictly below one batch still yields the
        // double-buffering floor, never zero or one slots.
        for capacity in 1..256 {
            assert_eq!(capacity_in_batches(capacity, 256), 2, "capacity {capacity}");
        }
    }

    #[test]
    fn capacity_conversion_of_zero_capacity_is_the_floor() {
        assert_eq!(capacity_in_batches(0, 1), 2);
        assert_eq!(capacity_in_batches(0, 256), 2);
        assert_eq!(capacity_in_batches(0, usize::MAX), 2);
    }

    #[test]
    fn capacity_conversion_exact_multiples_do_not_round() {
        assert_eq!(capacity_in_batches(256, 256), 2, "one batch hits the floor");
        assert_eq!(capacity_in_batches(512, 256), 2);
        assert_eq!(capacity_in_batches(768, 256), 3);
        assert_eq!(capacity_in_batches(2_560, 256), 10);
        // One tuple past an exact multiple buys a whole extra slot.
        assert_eq!(capacity_in_batches(769, 256), 4);
    }

    #[test]
    #[should_panic]
    fn capacity_conversion_rejects_zero_batch_size() {
        let _ = capacity_in_batches(1_024, 0);
    }

    #[test]
    fn inproc_channels_disconnect_when_senders_drop() {
        // Fully qualified: the crossbeam handles also have inherent
        // `send`/`recv_batch` methods, and it is the trait surface under
        // test here.
        let transport = InProc;
        let (txs, rxs) = Transport::<u64>::tuple_channels(&transport, 2, 4);
        assert_eq!(txs.len(), 2);
        TupleSender::send(
            &txs[0],
            SourceMessage::CloseWindow {
                window: 3,
                source: 0,
                seq: 9,
            },
        )
        .unwrap();
        drop(txs);
        let mut out = Vec::new();
        assert_eq!(TupleReceiver::recv_batch(&rxs[0], &mut out), Ok(1));
        assert!(matches!(
            out[0],
            SourceMessage::CloseWindow {
                window: 3,
                source: 0,
                seq: 9
            }
        ));
        assert_eq!(out[0].source_seq(), (0, 9));
        assert_eq!(
            TupleReceiver::recv_batch(&rxs[0], &mut out),
            Err(RecvError::Closed)
        );
        assert_eq!(
            TupleReceiver::recv_batch(&rxs[1], &mut out),
            Err(RecvError::Closed)
        );
    }

    #[test]
    fn inproc_partial_channels_round_trip() {
        let transport = InProc;
        let (txs, rxs) = Transport::<u64>::partial_channels(&transport, 1, 4);
        PartialSender::send(
            &txs[0],
            PartialWindow {
                window: 7,
                worker: 2,
                partial: 99u64,
                closed_at: Instant::now(),
            },
        )
        .unwrap();
        drop(txs);
        let mut out = Vec::new();
        assert_eq!(PartialReceiver::recv_batch(&rxs[0], &mut out), Ok(1));
        assert_eq!(out[0].window, 7);
        assert_eq!(out[0].worker, 2);
        assert_eq!(out[0].partial, 99);
    }
}
