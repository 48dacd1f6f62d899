//! The lock-free in-process transport: SPSC rings with batch recycling.
//!
//! [`InProc`](crate::InProc) multiplexes every stage pair over one
//! Mutex+Condvar MPMC queue per worker, and that queue — not routing — was
//! the engine's bottleneck when this backend was added: `route_batch`
//! sustains hundreds of Melem/s while the full zero-service engine topped
//! out around 31 (`docs/PERF.md`, "Before the repo benchmark"). [`Spsc`]
//! removes the locks from the steady state:
//!
//! * **One single-producer/single-consumer ring per (sender clone, receiver)
//!   pair.** Every cloned sender handle lazily claims a private *lane* — a
//!   bounded Lamport ring — on its first send, so the hot path is a plain
//!   array write plus one release store, with no CAS, no lock, and no wakeup
//!   syscall. The run loop clones one sender per stage thread (that is the
//!   [`Transport`] contract), so each lane really is single-producer.
//! * **Batch recycling.** Tuple lanes carry a reverse ring of spent
//!   `Vec<KeyId>` buffers from the worker back to the source
//!   ([`TupleReceiver::recycle`] / [`TupleSender::take_recycled`]), so the
//!   steady state allocates zero batch buffers: the same handful of vectors
//!   shuttles back and forth for the whole run.
//!
//! Punctuation ([`SourceMessage::CloseWindow`]) and window partials ride
//! the same rings as ordinary frames, so the checkpoint/replay machinery of
//! the fault-tolerant runner — whose replay requests never touch a
//! transport — works unchanged: the `backend_differential` and `fault_injection`
//! suites hold `Spsc` to the same bit-for-bit equality against `InProc`
//! and the exact reference that the TCP backend already passes.
//!
//! ## Ordering and closure protocol
//!
//! Each ring is a classic Lamport queue: the producer owns `tail`, the
//! consumer owns `head`, and each caches the other's index to avoid
//! touching the shared line until the cached bound is exhausted. A push is
//! `write slot; tail.store(Release)`; a pop is `read slot;
//! head.store(Release)`; the paired `Acquire` loads make the slot contents
//! visible. Indices grow monotonically (they would take centuries of
//! batches to wrap a `u64`-sized `usize`), so full is `tail - head == cap`
//! and empty is `tail == head`.
//!
//! Closure runs in both directions, one flag or count per channel, never
//! per ring. Toward the senders, the receiver's drop sets `receiver_gone`
//! (`Release`) before any of its lanes go, and every push loop checks it
//! (`Acquire`) on each attempt — whether the lane was adopted or still in
//! the mailbox — so a push blocked on a full lane fails with
//! [`ChannelClosed`] instead of spinning forever, and a handle that has not
//! claimed a lane yet fails before claiming one. Toward the receiver, an
//! atomic count of live sender handles protects the lane set as a whole:
//! the receiver reports [`RecvError::Closed`] only after it loads a handle
//! count of zero (`Acquire`, which synchronizes with every handle's
//! `Release` decrement and therefore with every push and lane claim that
//! preceded it) and then finds every adopted lane empty on one final drain.

use std::cell::{RefCell, UnsafeCell};
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use slb_workloads::KeyId;

use crate::transport::{
    ChannelClosed, PartialReceiver, PartialSender, PartialWindow, RecvError, SourceMessage,
    Transport, TupleReceiver, TupleSender,
};

/// Pads-and-aligns a value to a cache line so the producer's `tail` and the
/// consumer's `head` never share one — false sharing on those two words
/// would reintroduce the very cross-core traffic the rings exist to avoid.
#[repr(align(64))]
struct CachePadded<T>(T);

/// Exponential backoff for the transient-full / transient-empty loops:
/// spin a few times (the common case resolves in nanoseconds while the
/// peer drains or fills a slot), then yield the core, then sleep in ticks
/// so a long-idle stage (a worker between bursts, an aggregator waiting
/// for window closes) does not burn a core. A tick asks for 50 µs
/// and gets what the kernel's timer slack allows: `thread::sleep(50 µs)`
/// measures 130–270 µs on the 2-core CI box (median; 430 µs at the ninth
/// decile beside a running benchmark).
struct Backoff(u32);

impl Backoff {
    const SPIN_LIMIT: u32 = 6;
    const YIELD_LIMIT: u32 = 10;

    fn new() -> Self {
        Backoff(0)
    }

    fn snooze(&mut self) {
        if self.0 < Self::SPIN_LIMIT {
            for _ in 0..(1u32 << self.0) {
                std::hint::spin_loop();
            }
        } else if self.0 < Self::YIELD_LIMIT {
            thread::yield_now();
        } else {
            thread::sleep(Duration::from_micros(50));
        }
        self.0 = (self.0 + 1).min(Self::YIELD_LIMIT);
    }
}

/// The storage one SPSC ring shares between its producer and consumer.
struct RingShared<T> {
    /// `cap` slots; slot `i % cap` holds the value pushed at index `i`.
    /// Initialized iff the index is in `[head, tail)`.
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    cap: usize,
    /// Next index the consumer will pop. Written only by the consumer.
    head: CachePadded<AtomicUsize>,
    /// Next index the producer will push. Written only by the producer.
    tail: CachePadded<AtomicUsize>,
}

// SAFETY: the ring hands each `T` from exactly one thread (the producer,
// which wrote the slot before its Release store of `tail`) to exactly one
// other thread (the consumer, whose Acquire load of `tail` ordered the
// write before the read). No `&T` is ever shared across threads, so
// `T: Send` suffices; the `UnsafeCell` slots are only touched per the
// index protocol above.
unsafe impl<T: Send> Send for RingShared<T> {}
unsafe impl<T: Send> Sync for RingShared<T> {}

impl<T> RingShared<T> {
    fn new(cap: usize) -> Arc<Self> {
        assert!(cap > 0, "rings need at least one slot");
        Arc::new(RingShared {
            buf: (0..cap)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
            cap,
            head: CachePadded(AtomicUsize::new(0)),
            tail: CachePadded(AtomicUsize::new(0)),
        })
    }
}

impl<T> Drop for RingShared<T> {
    fn drop(&mut self) {
        // Sole owner at this point (`Arc` guarantees it), so the atomics
        // are plain memory: drop the unconsumed values in `[head, tail)`.
        let mut i = *self.head.0.get_mut();
        let tail = *self.tail.0.get_mut();
        while i != tail {
            // SAFETY: indices in `[head, tail)` hold initialized values
            // the consumer never popped.
            unsafe { self.buf[i % self.cap].get_mut().assume_init_drop() };
            i = i.wrapping_add(1);
        }
    }
}

/// The producing half of one ring. Not a public handle — senders own these
/// inside their claimed lane.
struct Producer<T> {
    ring: Arc<RingShared<T>>,
    /// Local copy of `ring.tail` (only this side writes it).
    tail: usize,
    /// Last observed `ring.head`; refreshed only when the ring looks full.
    cached_head: usize,
}

impl<T> Producer<T> {
    fn try_push(&mut self, value: T) -> Result<(), T> {
        if self.tail.wrapping_sub(self.cached_head) == self.ring.cap {
            self.cached_head = self.ring.head.0.load(Ordering::Acquire);
            if self.tail.wrapping_sub(self.cached_head) == self.ring.cap {
                return Err(value);
            }
        }
        // SAFETY: the slot at `tail` is outside `[head, tail)`, so the
        // consumer will not touch it until the Release store below
        // publishes it; only this producer writes slots.
        unsafe { (*self.ring.buf[self.tail % self.ring.cap].get()).write(value) };
        self.tail = self.tail.wrapping_add(1);
        self.ring.tail.0.store(self.tail, Ordering::Release);
        Ok(())
    }

    /// Values currently in the ring — a racy telemetry snapshot. `tail` is
    /// this producer's own exact index; the consumer's `head` is loaded
    /// Relaxed, so the result can only over-estimate (the consumer drains
    /// concurrently), which is the safe direction for a high-water mark.
    fn occupancy(&self) -> usize {
        self.tail
            .wrapping_sub(self.ring.head.0.load(Ordering::Relaxed))
    }
}

/// The consuming half of one ring.
struct Consumer<T> {
    ring: Arc<RingShared<T>>,
    /// Local copy of `ring.head` (only this side writes it).
    head: usize,
    /// Last observed `ring.tail`; refreshed only when the ring looks empty.
    cached_tail: usize,
}

impl<T> Consumer<T> {
    fn try_pop(&mut self) -> Option<T> {
        if self.head == self.cached_tail {
            self.cached_tail = self.ring.tail.0.load(Ordering::Acquire);
            if self.head == self.cached_tail {
                return None;
            }
        }
        // SAFETY: `head < cached_tail` (monotone indices), and the Acquire
        // load of `tail` ordered the producer's slot write before this
        // read; only this consumer reads initialized slots.
        let value = unsafe { (*self.ring.buf[self.head % self.ring.cap].get()).assume_init_read() };
        self.head = self.head.wrapping_add(1);
        self.ring.head.0.store(self.head, Ordering::Release);
        Some(value)
    }
}

fn ring_pair<T>(cap: usize) -> (Producer<T>, Consumer<T>) {
    let ring = RingShared::new(cap);
    (
        Producer {
            ring: Arc::clone(&ring),
            tail: 0,
            cached_head: 0,
        },
        Consumer {
            ring,
            head: 0,
            cached_tail: 0,
        },
    )
}

/// One claimed lane, sender side: the forward ring's producer plus (on
/// tuple channels) the recycling ring's consumer.
struct LaneTx<T> {
    producer: Producer<T>,
    recycle_rx: Option<Consumer<Vec<KeyId>>>,
}

/// One claimed lane, receiver side.
struct LaneRx<T> {
    consumer: Consumer<T>,
    recycle_tx: Option<Producer<Vec<KeyId>>>,
}

/// Per-channel shared state tying the lanes together: the handle count
/// drives the closure protocol, the `pending` mailbox hands freshly claimed
/// lanes from sender threads to the receiver. The mailbox lock is touched
/// once per lane claim (once per sender thread per run), never per message.
struct EdgeShared<T> {
    /// Forward-ring capacity for every lane of this channel.
    capacity: usize,
    /// Whether lanes carry a reverse recycling ring (tuple channels only).
    recycle: bool,
    /// Live sender handles (clones). Decremented with Release on drop;
    /// a receiver that loads zero with Acquire has therefore observed
    /// every claim and every push that any handle ever made.
    handles: AtomicUsize,
    /// Lanes claimed but not yet adopted by the receiver.
    pending: Mutex<Vec<LaneRx<T>>>,
    /// Count of lanes ever pushed to `pending` — a lock-free fast path so
    /// the receiver only takes the mailbox lock when something is new.
    announced: AtomicUsize,
    /// Set when the receiver drops, so senders fail fast instead of
    /// blocking forever on a lane nobody will ever drain — the one closure
    /// signal toward the senders.
    receiver_gone: AtomicBool,
}

impl<T> EdgeShared<T> {
    fn claim_lane(&self) -> LaneTx<T> {
        let (producer, consumer) = ring_pair::<T>(self.capacity);
        let (recycle_tx, recycle_rx) = if self.recycle {
            let (tx, rx) = ring_pair::<Vec<KeyId>>(self.capacity);
            (Some(tx), Some(rx))
        } else {
            (None, None)
        };
        self.pending
            .lock()
            .expect("lane mailbox poisoned")
            .push(LaneRx {
                consumer,
                recycle_tx,
            });
        self.announced.fetch_add(1, Ordering::Release);
        LaneTx {
            producer,
            recycle_rx,
        }
    }
}

/// Sending half of an SPSC channel. Cloning yields an independent handle
/// with its own (lazily claimed) lane, which is what makes every lane
/// single-producer: the run loop clones one handle per stage thread and
/// never shares a clone across threads.
pub struct SpscSender<T> {
    edge: Arc<EdgeShared<T>>,
    lane: RefCell<Option<LaneTx<T>>>,
}

impl<T> Clone for SpscSender<T> {
    fn clone(&self) -> Self {
        self.edge.handles.fetch_add(1, Ordering::Relaxed);
        SpscSender {
            edge: Arc::clone(&self.edge),
            lane: RefCell::new(None),
        }
    }
}

impl<T> Drop for SpscSender<T> {
    fn drop(&mut self) {
        // A ring has no producer-side flag: the count is the end of stream.
        // The lane goes first so this handle's last push precedes the
        // Release decrement, and a receiver that loads zero has seen it.
        self.lane.borrow_mut().take();
        self.edge.handles.fetch_sub(1, Ordering::Release);
    }
}

impl<T: Send + 'static> SpscSender<T> {
    /// Blocks until the lane has room, then enqueues `value`. Fails once
    /// the receiver is gone — matching the disconnect-on-drop contract of
    /// every other backend.
    fn send_value(&self, value: T) -> Result<(), ChannelClosed> {
        let mut lane_slot = self.lane.borrow_mut();
        let lane = match lane_slot.as_mut() {
            Some(lane) => lane,
            None => {
                if self.edge.receiver_gone.load(Ordering::Acquire) {
                    return Err(ChannelClosed);
                }
                lane_slot.insert(self.edge.claim_lane())
            }
        };
        let mut value = value;
        let mut backoff = Backoff::new();
        loop {
            if self.edge.receiver_gone.load(Ordering::Acquire) {
                return Err(ChannelClosed);
            }
            match lane.producer.try_push(value) {
                Ok(()) => return Ok(()),
                Err(back) => {
                    value = back;
                    backoff.snooze();
                }
            }
        }
    }

    /// A spent batch buffer returned by the receiver, if one is waiting on
    /// this handle's recycling ring.
    fn pop_recycled(&self) -> Option<Vec<KeyId>> {
        self.lane
            .borrow_mut()
            .as_mut()?
            .recycle_rx
            .as_mut()?
            .try_pop()
    }

    /// `(queued, capacity)` of this handle's *own lane* — each clone owns a
    /// private ring, so that is the queue whose depth this sender can
    /// actually observe (and the one its sends block on).
    fn lane_depth(&self) -> (usize, usize) {
        let occupied = self
            .lane
            .borrow()
            .as_ref()
            .map_or(0, |lane| lane.producer.occupancy());
        (occupied, self.edge.capacity)
    }
}

/// Receiver-side mutable state, behind a `RefCell` so the `&self` trait
/// surface works without making the receiver `Sync` (receivers are owned
/// by exactly one stage thread).
struct RxInner<T> {
    lanes: Vec<LaneRx<T>>,
    /// How many announced lanes have been adopted into `lanes`.
    adopted: usize,
    /// Round-robin cursors: where the next drain pass starts, and which
    /// lane receives the next recycled buffer.
    next_lane: usize,
    next_recycle: usize,
}

/// Receiving half of an SPSC channel: adopts every lane the senders claim
/// and drains them round-robin, which preserves the per-sender FIFO each
/// ring provides (the punctuation protocol needs nothing more — cross-
/// sender interleaving is explicitly arbitrary).
pub struct SpscReceiver<T> {
    edge: Arc<EdgeShared<T>>,
    inner: RefCell<RxInner<T>>,
}

impl<T> Drop for SpscReceiver<T> {
    fn drop(&mut self) {
        // First the flag: every sender, blocked or not, fails from here on.
        self.edge.receiver_gone.store(true, Ordering::Release);
        // Then free the lanes still in the mailbox now rather than with the
        // last sender handle: nobody will drain their frames.
        self.edge
            .pending
            .lock()
            .expect("lane mailbox poisoned")
            .clear();
    }
}

impl<T: Send + 'static> SpscReceiver<T> {
    /// Adopts every lane announced since the last call.
    fn adopt_lanes(&self, inner: &mut RxInner<T>) {
        if self.edge.announced.load(Ordering::Acquire) > inner.adopted {
            let mut pending = self.edge.pending.lock().expect("lane mailbox poisoned");
            inner.adopted += pending.len();
            inner.lanes.append(&mut pending);
        }
    }

    /// Pops everything currently visible across all lanes into `out`.
    /// One bounded pass per lane (rings hold at most `capacity` values),
    /// starting at the round-robin cursor for cross-lane fairness.
    fn drain_into(&self, out: &mut Vec<T>) -> usize {
        let inner = &mut *self.inner.borrow_mut();
        self.adopt_lanes(inner);
        let n_lanes = inner.lanes.len();
        if n_lanes == 0 {
            return 0;
        }
        let start = inner.next_lane % n_lanes;
        inner.next_lane = (start + 1) % n_lanes;
        let mut drained = 0;
        for offset in 0..n_lanes {
            let lane = &mut inner.lanes[(start + offset) % n_lanes];
            while let Some(value) = lane.consumer.try_pop() {
                out.push(value);
                drained += 1;
            }
        }
        drained
    }

    /// True once no sender handle survives and nothing is left to drain.
    /// Call only after a drain produced nothing; the final re-drain is the
    /// caller's (the Acquire load here is what makes it conclusive).
    fn all_senders_gone(&self) -> bool {
        self.edge.handles.load(Ordering::Acquire) == 0
    }

    /// Blocks until at least one value arrives, appending all visible ones.
    fn recv_batch_blocking(&self, out: &mut Vec<T>) -> Result<usize, RecvError> {
        let mut backoff = Backoff::new();
        loop {
            let drained = self.drain_into(out);
            if drained > 0 {
                return Ok(drained);
            }
            if self.all_senders_gone() {
                // The zero handle count happened-after every claim and
                // push (Release/Acquire on the counter), so one final
                // drain sees everything that was ever sent.
                let drained = self.drain_into(out);
                if drained > 0 {
                    return Ok(drained);
                }
                return Err(RecvError::Closed);
            }
            backoff.snooze();
        }
    }

    /// Hands a spent batch buffer back to a sender's recycling ring
    /// (round-robin; dropped when every ring is full or recycling is off).
    fn push_recycled(&self, keys: Vec<KeyId>) {
        if !self.edge.recycle {
            return;
        }
        let inner = &mut *self.inner.borrow_mut();
        self.adopt_lanes(inner);
        let n_lanes = inner.lanes.len();
        let mut keys = keys;
        for _ in 0..n_lanes {
            let at = inner.next_recycle % n_lanes;
            inner.next_recycle = (at + 1) % n_lanes;
            let Some(tx) = inner.lanes[at].recycle_tx.as_mut() else {
                continue;
            };
            match tx.try_push(keys) {
                Ok(()) => return,
                Err(back) => keys = back,
            }
        }
    }
}

/// Builds one channel: the receiver plus a first sender handle to clone
/// per sending stage thread.
fn edge<T: Send + 'static>(capacity: usize, recycle: bool) -> (SpscSender<T>, SpscReceiver<T>) {
    let shared = Arc::new(EdgeShared {
        capacity,
        recycle,
        handles: AtomicUsize::new(1),
        pending: Mutex::new(Vec::new()),
        announced: AtomicUsize::new(0),
        receiver_gone: AtomicBool::new(false),
    });
    (
        SpscSender {
            edge: Arc::clone(&shared),
            lane: RefCell::new(None),
        },
        SpscReceiver {
            edge: shared,
            inner: RefCell::new(RxInner {
                lanes: Vec::new(),
                adopted: 0,
                next_lane: 0,
                next_recycle: 0,
            }),
        },
    )
}

impl TupleSender for SpscSender<SourceMessage> {
    fn send(&self, message: SourceMessage) -> Result<(), ChannelClosed> {
        self.send_value(message)
    }

    fn take_recycled(&self) -> Option<Vec<KeyId>> {
        self.pop_recycled()
    }

    fn queue_depth_hint(&self) -> Option<(usize, usize)> {
        Some(self.lane_depth())
    }
}

impl TupleReceiver for SpscReceiver<SourceMessage> {
    fn recv_batch(&self, out: &mut Vec<SourceMessage>) -> Result<usize, RecvError> {
        self.recv_batch_blocking(out)
    }

    fn recycle(&self, keys: Vec<KeyId>) {
        self.push_recycled(keys);
    }
}

impl<P: Send + 'static> PartialSender<P> for SpscSender<PartialWindow<P>> {
    fn send(&self, message: PartialWindow<P>) -> Result<(), ChannelClosed> {
        self.send_value(message)
    }
}

impl<P: Send + 'static> PartialReceiver<P> for SpscReceiver<PartialWindow<P>> {
    fn recv_batch(&self, out: &mut Vec<PartialWindow<P>>) -> Result<usize, RecvError> {
        self.recv_batch_blocking(out)
    }
}

/// The lock-free SPSC transport (see the module docs). A unit struct:
/// all per-channel state lives in the endpoints it creates.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spsc;

impl<P: Send + 'static> Transport<P> for Spsc {
    type TupleTx = SpscSender<SourceMessage>;
    type TupleRx = SpscReceiver<SourceMessage>;
    type PartialTx = SpscSender<PartialWindow<P>>;
    type PartialRx = SpscReceiver<PartialWindow<P>>;

    fn tuple_channels(
        &self,
        workers: usize,
        capacity_batches: usize,
    ) -> (Vec<Self::TupleTx>, Vec<Self::TupleRx>) {
        (0..workers)
            .map(|_| edge::<SourceMessage>(capacity_batches, true))
            .unzip()
    }

    fn partial_channels(
        &self,
        aggregators: usize,
        capacity_messages: usize,
    ) -> (Vec<Self::PartialTx>, Vec<Self::PartialRx>) {
        (0..aggregators)
            .map(|_| edge::<PartialWindow<P>>(capacity_messages, false))
            .unzip()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_push_pop_fifo_and_wraparound() {
        let (mut tx, mut rx) = ring_pair::<u64>(3);
        // Several times around the 3-slot ring: order is preserved and
        // full/empty boundaries behave.
        let mut next_push = 0u64;
        let mut next_pop = 0u64;
        for _ in 0..10 {
            while tx.try_push(next_push).is_ok() {
                next_push += 1;
            }
            assert_eq!(next_push - next_pop, 3, "ring reports full at capacity");
            while let Some(v) = rx.try_pop() {
                assert_eq!(v, next_pop);
                next_pop += 1;
            }
            assert_eq!(next_push, next_pop, "ring drains to empty");
        }
    }

    #[test]
    fn ring_drop_releases_unconsumed_values() {
        let value = Arc::new(());
        let (mut tx, rx) = ring_pair::<Arc<()>>(4);
        for _ in 0..3 {
            tx.try_push(Arc::clone(&value)).unwrap();
        }
        drop(tx);
        drop(rx);
        assert_eq!(Arc::strong_count(&value), 1, "ring dropped its 3 clones");
    }

    #[test]
    fn sender_clones_get_private_lanes_and_close_cleanly() {
        let (tx, rx) = edge::<SourceMessage>(2, false);
        let tx2 = tx.clone();
        // Each clone sends from its own thread: the 2-slot rings force the
        // senders to block on a full lane until the receiver drains it.
        let producers: Vec<_> = [(0usize, tx), (1usize, tx2)]
            .into_iter()
            .map(|(source, tx)| {
                thread::spawn(move || {
                    for seq in 0..5u64 {
                        TupleSender::send(
                            &tx,
                            SourceMessage::CloseWindow {
                                window: seq,
                                source,
                                seq,
                            },
                        )
                        .unwrap();
                    }
                })
            })
            .collect();
        let mut out = Vec::new();
        let mut total = 0;
        loop {
            match TupleReceiver::recv_batch(&rx, &mut out) {
                Ok(n) => total += n,
                Err(RecvError::Closed) => break,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        for p in producers {
            p.join().unwrap();
        }
        assert_eq!(total, 10);
        // FIFO per source even though the rings only hold 2 frames each.
        for source in 0..2 {
            let seqs: Vec<u64> = out
                .iter()
                .filter(|m| m.source_seq().0 == source)
                .map(|m| m.source_seq().1)
                .collect();
            assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
        }
    }

    fn partial(window: u64) -> PartialWindow<u64> {
        PartialWindow {
            window,
            worker: 0,
            partial: 0,
            closed_at: std::time::Instant::now(),
        }
    }

    #[test]
    fn send_fails_once_receiver_drops() {
        let (tx, rx) = edge::<PartialWindow<u64>>(2, false);
        PartialSender::send(&tx, partial(0)).unwrap();
        drop(rx);
        assert_eq!(PartialSender::send(&tx, partial(1)), Err(ChannelClosed));
        // A handle that never claimed a lane fails fast too.
        let fresh = tx.clone();
        assert_eq!(PartialSender::send(&fresh, partial(2)), Err(ChannelClosed));
    }

    #[test]
    fn blocked_sender_fails_once_receiver_drops() {
        // A sender spinning on a full lane is released by the receiver's
        // drop, whether the receiver had adopted that lane or not.
        for adopt_first in [false, true] {
            let (tx, rx) = edge::<PartialWindow<u64>>(2, false);
            let (full_tx, full_rx) = std::sync::mpsc::channel();
            let sender = thread::spawn(move || {
                PartialSender::send(&tx, partial(0)).unwrap();
                PartialSender::send(&tx, partial(1)).unwrap();
                full_tx.send(()).unwrap();
                PartialSender::send(&tx, partial(2))
            });
            full_rx.recv().unwrap();
            if adopt_first {
                rx.adopt_lanes(&mut rx.inner.borrow_mut());
                assert_eq!(rx.inner.borrow().lanes.len(), 1);
            }
            // Makes "the third send is already backing off" the likely
            // interleaving; the other one (the drop lands first) must end
            // in `ChannelClosed` too.
            thread::sleep(Duration::from_millis(20));
            drop(rx);
            assert_eq!(sender.join().unwrap(), Err(ChannelClosed));
        }
    }

    #[test]
    fn a_lane_claimed_after_the_first_drain_arrives_whole_before_closed() {
        // The receiver has adopted and drained the first lane before the
        // second one exists, so only the announce counter tells it a lane
        // is new; 2 slots for 20 frames make the late sender block on it.
        let (tx, rx) = edge::<PartialWindow<u64>>(2, false);
        PartialSender::send(&tx, partial(0)).unwrap();
        let mut out = Vec::new();
        assert_eq!(PartialReceiver::recv_batch(&rx, &mut out), Ok(1));
        assert_eq!(rx.inner.borrow().lanes.len(), 1);
        let late = tx.clone();
        let sender = thread::spawn(move || {
            for window in 1..=20u64 {
                PartialSender::send(&late, partial(window)).unwrap();
            }
        });
        drop(tx);
        out.clear();
        loop {
            match PartialReceiver::recv_batch(&rx, &mut out) {
                Ok(_) => {}
                Err(RecvError::Closed) => break,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        sender.join().unwrap();
        let windows: Vec<u64> = out.iter().map(|p| p.window).collect();
        assert_eq!(windows, (1..=20).collect::<Vec<_>>());
        assert_eq!(rx.inner.borrow().lanes.len(), 2);
    }

    #[test]
    fn recycling_round_trips_buffers() {
        let (tx, rx) = edge::<SourceMessage>(4, true);
        assert!(tx.take_recycled().is_none(), "no lane claimed yet");
        TupleSender::send(
            &tx,
            SourceMessage::CloseWindow {
                window: 0,
                source: 0,
                seq: 0,
            },
        )
        .unwrap();
        assert!(tx.take_recycled().is_none(), "nothing recycled yet");
        rx.recycle(vec![1, 2, 3]);
        let buf = tx.take_recycled().expect("buffer came back");
        assert_eq!(buf, vec![1, 2, 3]);
        assert!(tx.take_recycled().is_none(), "ring is drained");
    }

    #[test]
    fn blocking_send_waits_for_consumer() {
        let (tx, rx) = edge::<PartialWindow<u64>>(2, false);
        let producer = thread::spawn(move || {
            for window in 0..100u64 {
                PartialSender::send(&tx, partial(window)).unwrap();
            }
        });
        let mut got = Vec::new();
        while PartialReceiver::recv_batch(&rx, &mut got).is_ok() {}
        producer.join().unwrap();
        let windows: Vec<u64> = got.iter().map(|p| p.window).collect();
        assert_eq!(windows, (0..100).collect::<Vec<_>>());
    }
}
