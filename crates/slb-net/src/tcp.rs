//! TCP channels implementing the engine's [`Transport`] contract.
//!
//! Each engine channel becomes one or more TCP connections carrying the wire
//! frames of [`crate::wire`]:
//!
//! * a **sender handle** serializes messages under a mutex and writes one
//!   complete frame per message straight to the socket (the engine already
//!   batches tuples, so a frame is ≥ one transport batch — no extra
//!   buffering layer is needed, and a blocking `write` propagates TCP
//!   back-pressure to the sending stage). Handles are cloned per sending
//!   stage instance; when the **last** clone drops, an [`tag::EOF`] frame is
//!   written and the write side shuts down.
//! * a **receiver handle** owns one reader thread per incoming connection;
//!   readers decode frames and push messages into one shared *bounded*
//!   crossbeam queue sized by the engine's `queue_capacity`-derived batch
//!   budget ([`slb_engine::capacity_in_batches`]). A full queue blocks the
//!   readers, the kernel's TCP window fills, and the remote senders block —
//!   the same back-pressure chain as the in-process backend, with the
//!   kernel's socket buffers as the only extra slack.
//!
//! FIFO per sender holds: each sending stage writes its frames in order to
//! one socket, TCP preserves byte order, and the reader enqueues in frame
//! order. That is exactly the ordering the window-punctuation protocol
//! needs.
//!
//! `Instant`s never cross a socket. A [`TcpTransport`] carries the run's
//! *epoch*; timestamps travel as µs-since-epoch and are rebased on arrival.
//! In-process (the differential and perf suites) both endpoints share one
//! epoch, so latency metrics are exact up to µs quantization; across
//! processes `slb-node` aligns epochs through the orchestrator's wall-clock
//! handshake, so metrics additionally absorb (same-machine) clock offset.
//! Merged *counts* — the correctness obligation — never depend on
//! timestamps.
//!
//! A reader thread that receives a *malformed* frame (or whose read fails
//! mid-stream) does not die silently and does not abort the process: it
//! pushes a [`TransportError`] into the merge queue and stops reading that
//! connection. The receiving stage sees the error as a distinct
//! `Err(RecvError::Transport(_))` from `recv_batch` — clearly told apart
//! from the clean-EOF `RecvError::Closed` — counts it in its report's
//! `transport_errors`, and keeps draining the queue's surviving
//! connections. This is what a SIGKILLed peer looks like from the other
//! end of its sockets: usually a clean FIN (kernel closes the dead
//! process's sockets), occasionally a frame torn mid-write; either way the
//! run continues and the recovery protocol (durable checkpoints + replay,
//! see `docs/FAULTS.md`) restores exactness, with the error on the record
//! instead of a healthy-looking truncated run. The codec itself stays
//! total (errors, not panics) — see the `wire_props` suite.

use std::io::{BufReader, Write};
use std::marker::PhantomData;
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crossbeam_channel::{bounded, Receiver, Sender, TryRecvError};
use slb_core::WirePartial;
use slb_engine::transport::{
    ChannelClosed, FeedbackReceiver, FeedbackSender, PartialReceiver, PartialSender, PartialWindow,
    RecvError, ReplayRequest, SourceMessage, Transport, TransportError, TupleBatch, TupleReceiver,
    TupleSender,
};
use slb_engine::WindowId;

use crate::wire::{
    self, decode_payload, encode_frame, encode_tuple_frame, read_frame, tag, FeedbackFrame,
    PartialFrame, TupleFrame,
};

/// Converts an [`Instant`] to wire form: µs since the transport epoch.
pub fn instant_to_us(epoch: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(epoch).as_micros() as u64
}

/// Rebases a wire timestamp onto the local clock: epoch + µs.
pub fn us_to_instant(epoch: Instant, us: u64) -> Instant {
    epoch
        .checked_add(Duration::from_micros(us))
        .unwrap_or(epoch)
}

/// Socket + reusable encode buffer, locked per send.
struct FramedWriter {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// Shared core of a sender handle. On last-drop it writes an EOF frame and
/// shuts the write side down, which is what terminates the remote reader.
struct SenderCore {
    writer: Mutex<FramedWriter>,
    epoch: Instant,
}

impl SenderCore {
    fn new(stream: TcpStream, epoch: Instant) -> Self {
        Self {
            writer: Mutex::new(FramedWriter {
                stream,
                buf: Vec::with_capacity(4 * 1024),
            }),
            epoch,
        }
    }

    /// Encodes with `encode` into the shared buffer and writes one frame.
    fn send_frame(&self, encode: impl FnOnce(&mut Vec<u8>, Instant)) -> Result<(), ChannelClosed> {
        let mut writer = self.writer.lock().expect("sender lock poisoned");
        let FramedWriter { stream, buf } = &mut *writer;
        buf.clear();
        encode(buf, self.epoch);
        stream.write_all(buf).map_err(|_| ChannelClosed)
    }
}

impl Drop for SenderCore {
    fn drop(&mut self) {
        // Best effort: the peer may already be gone.
        if let Ok(mut writer) = self.writer.lock() {
            let FramedWriter { stream, buf } = &mut *writer;
            buf.clear();
            buf.extend_from_slice(&1u32.to_le_bytes());
            buf.push(tag::EOF);
            let _ = stream.write_all(buf);
            let _ = stream.shutdown(std::net::Shutdown::Write);
        }
    }
}

/// Source → worker sender over one TCP connection. Clonable; the connection
/// carries an EOF frame when the last clone drops.
#[derive(Clone)]
pub struct TcpTupleSender {
    core: Arc<SenderCore>,
}

impl TcpTupleSender {
    /// Wraps a connected stream. `epoch` anchors the wire timestamps.
    pub fn new(stream: TcpStream, epoch: Instant) -> Self {
        let _ = stream.set_nodelay(true);
        Self {
            core: Arc::new(SenderCore::new(stream, epoch)),
        }
    }
}

impl TupleSender for TcpTupleSender {
    fn send(&self, message: SourceMessage) -> Result<(), ChannelClosed> {
        self.core.send_frame(|buf, epoch| {
            let frame = match message {
                SourceMessage::Batch(TupleBatch {
                    keys,
                    window,
                    source,
                    seq,
                    emitted_at,
                }) => TupleFrame::Batch {
                    window,
                    source: source as u32,
                    seq,
                    emitted_us: instant_to_us(epoch, emitted_at),
                    keys,
                },
                SourceMessage::CloseWindow {
                    window,
                    source,
                    seq,
                } => TupleFrame::Close {
                    window,
                    source: source as u32,
                    seq,
                },
            };
            encode_tuple_frame(&frame, buf);
        })
    }
}

/// A source's sender to one worker that survives that worker's death and
/// accepts a replacement connection mid-run.
///
/// While the slot holds a live connection, sends go straight through; the
/// first failed write *detaches* the slot (dropping the dead connection,
/// which is harmless — its peer is gone) and subsequent sends are silently
/// dropped rather than reported as `ChannelClosed`. That is deliberate: in
/// the fault-tolerant deployment a dead worker is not the end of the run,
/// and exactness does not depend on these lost frames — the respawned
/// worker's `Rejoin` carries its durable cursors and the source replays
/// everything from there (`docs/FAULTS.md`). [`reattach`](Self::reattach)
/// installs the replacement connection; the EOF-on-last-drop contract then
/// applies to the new connection.
#[derive(Clone)]
pub struct ReattachableTupleSender {
    slot: Arc<Mutex<Option<TcpTupleSender>>>,
    epoch: Instant,
}

impl ReattachableTupleSender {
    /// Wraps an initially connected stream.
    pub fn new(stream: TcpStream, epoch: Instant) -> Self {
        Self {
            slot: Arc::new(Mutex::new(Some(TcpTupleSender::new(stream, epoch)))),
            epoch,
        }
    }

    /// Replaces the (dead or live) connection with a fresh one. Subsequent
    /// sends go to the new peer.
    pub fn reattach(&self, stream: TcpStream) {
        let sender = TcpTupleSender::new(stream, self.epoch);
        *self.slot.lock().expect("sender slot poisoned") = Some(sender);
    }

    /// Whether the slot currently holds a live connection (false after a
    /// failed send until `reattach`).
    pub fn is_attached(&self) -> bool {
        self.slot.lock().expect("sender slot poisoned").is_some()
    }
}

impl TupleSender for ReattachableTupleSender {
    fn send(&self, message: SourceMessage) -> Result<(), ChannelClosed> {
        let mut slot = self.slot.lock().expect("sender slot poisoned");
        if let Some(sender) = slot.as_ref() {
            if sender.send(message).is_err() {
                // Peer died mid-run: drop the connection and keep going.
                // Replay after Rejoin re-covers anything lost here.
                *slot = None;
            }
        }
        Ok(())
    }
}

/// Worker → aggregator sender over one TCP connection.
pub struct TcpPartialSender<P> {
    core: Arc<SenderCore>,
    _partial: PhantomData<fn(P)>,
}

impl<P> Clone for TcpPartialSender<P> {
    fn clone(&self) -> Self {
        Self {
            core: Arc::clone(&self.core),
            _partial: PhantomData,
        }
    }
}

impl<P> TcpPartialSender<P> {
    /// Wraps a connected stream. `epoch` anchors the wire timestamps.
    pub fn new(stream: TcpStream, epoch: Instant) -> Self {
        let _ = stream.set_nodelay(true);
        Self {
            core: Arc::new(SenderCore::new(stream, epoch)),
            _partial: PhantomData,
        }
    }
}

impl<P> PartialSender<P> for TcpPartialSender<P>
where
    P: WirePartial + Send + 'static,
{
    fn send(&self, message: PartialWindow<P>) -> Result<(), ChannelClosed> {
        self.core.send_frame(|buf, epoch| {
            let frame = PartialFrame::Partial {
                window: message.window,
                worker: message.worker as u32,
                closed_us: instant_to_us(epoch, message.closed_at),
                partial: message.partial,
            };
            encode_frame(&frame, buf);
        })
    }
}

/// Spawns one reader thread per connection; all feed `queue_tx`. `decode`
/// turns one frame payload into a message (`None` for EOF) or reports the
/// frame as corrupt.
///
/// A reader that hits a malformed frame or a failed read pushes the error
/// *into the queue* as a [`TransportError`] and stops reading that
/// connection — the receiving stage can then tell a crashed peer
/// (`RecvError::Transport`) from a clean end of stream (`RecvError::Closed`)
/// and survive the former. The erroring connection contributes nothing
/// further; its sibling connections keep the queue alive.
fn spawn_readers<T, F>(
    streams: Vec<TcpStream>,
    queue_tx: Sender<Result<T, TransportError>>,
    decode: F,
) where
    T: Send + 'static,
    F: Fn(&[u8]) -> Result<Option<T>, wire::WireError> + Send + Clone + 'static,
{
    for stream in streams {
        let tx = queue_tx.clone();
        let decode = decode.clone();
        spawn_reader(stream, tx, decode);
    }
    drop(queue_tx);
}

/// One reader thread for one connection, feeding a shared merge queue.
fn spawn_reader<T, F>(stream: TcpStream, tx: Sender<Result<T, TransportError>>, decode: F)
where
    T: Send + 'static,
    F: Fn(&[u8]) -> Result<Option<T>, wire::WireError> + Send + 'static,
{
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "<unknown>".into());
    thread::spawn(move || {
        let mut reader = BufReader::with_capacity(256 * 1024, stream);
        let mut scratch: Vec<u8> = Vec::new();
        loop {
            match read_frame(&mut reader, &mut scratch) {
                Ok(false) => break, // clean socket EOF
                Ok(true) => match decode(&scratch) {
                    Ok(None) => break, // EOF frame
                    Ok(Some(message)) => {
                        if tx.send(Ok(message)).is_err() {
                            // Receiver gone: the run is tearing down.
                            break;
                        }
                    }
                    Err(e) => {
                        let _ = tx.send(Err(TransportError {
                            peer,
                            detail: e.to_string(),
                        }));
                        break;
                    }
                },
                Err(e) => {
                    let _ = tx.send(Err(TransportError {
                        peer,
                        detail: e.to_string(),
                    }));
                    break;
                }
            }
        }
        // Dropping `tx` disconnects the queue once every sibling reader
        // is done too.
    });
}

/// The shared merge side of a TCP receiver: reader threads feed it
/// `Ok(message)` per decoded frame and at most one `Err(TransportError)`
/// each; `recv_batch` surfaces data eagerly and errors on the calls where
/// no data arrived with them.
struct MergedQueue<T> {
    queue: Receiver<Result<T, TransportError>>,
    /// Errors drained alongside data, held for the next call so the data
    /// they arrived with is never delayed behind the error report.
    pending_errors: Mutex<std::collections::VecDeque<TransportError>>,
    /// Reused drain buffer, so a batch still moves under one queue lock.
    scratch: Mutex<Vec<Result<T, TransportError>>>,
}

impl<T> MergedQueue<T> {
    fn new(queue: Receiver<Result<T, TransportError>>) -> Self {
        Self {
            queue,
            pending_errors: Mutex::new(std::collections::VecDeque::new()),
            scratch: Mutex::new(Vec::new()),
        }
    }

    /// The `recv_batch` contract of the engine's receiver traits:
    /// appends every available message and returns how many;
    /// `Err(RecvError::Transport)` reports a dead connection on a call
    /// with nothing else to deliver (survivable — keep calling);
    /// `Err(RecvError::Closed)` is the terminal clean end of stream.
    fn recv_batch(&self, out: &mut Vec<T>) -> Result<usize, RecvError> {
        if let Some(error) = self
            .pending_errors
            .lock()
            .expect("receiver lock poisoned")
            .pop_front()
        {
            return Err(RecvError::Transport(error));
        }
        let mut scratch = self.scratch.lock().expect("receiver lock poisoned");
        if self.queue.recv_batch(&mut scratch, usize::MAX).is_err() {
            return Err(RecvError::Closed);
        }
        let mut appended = 0usize;
        let mut pending = self.pending_errors.lock().expect("receiver lock poisoned");
        for item in scratch.drain(..) {
            match item {
                Ok(message) => {
                    out.push(message);
                    appended += 1;
                }
                Err(error) => pending.push_back(error),
            }
        }
        if appended == 0 {
            if let Some(error) = pending.pop_front() {
                return Err(RecvError::Transport(error));
            }
        }
        Ok(appended)
    }
}

/// Decodes one tuple-channel frame payload (shared by `spawn` and the
/// attachable path).
fn decode_tuple_message(
    payload: &[u8],
    epoch: Instant,
) -> Result<Option<SourceMessage>, wire::WireError> {
    Ok(match decode_payload(payload)? {
        TupleFrame::Batch {
            window,
            source,
            seq,
            emitted_us,
            keys,
        } => Some(SourceMessage::Batch(TupleBatch {
            keys,
            window: window as WindowId,
            source: source as usize,
            seq,
            emitted_at: us_to_instant(epoch, emitted_us),
        })),
        TupleFrame::Close {
            window,
            source,
            seq,
        } => Some(SourceMessage::CloseWindow {
            window,
            source: source as usize,
            seq,
        }),
        TupleFrame::Eof => None,
    })
}

/// Source → worker receiver: merges any number of incoming connections into
/// one bounded queue the worker drains with `recv_batch`.
pub struct TcpTupleReceiver {
    queue: MergedQueue<SourceMessage>,
}

impl TcpTupleReceiver {
    /// Spawns the reader threads. `capacity_batches` bounds the shared
    /// queue — the transport-side realization of the engine's
    /// `queue_capacity`.
    pub fn spawn(streams: Vec<TcpStream>, epoch: Instant, capacity_batches: usize) -> Self {
        for s in &streams {
            let _ = s.set_nodelay(true);
        }
        let (tx, rx) = bounded::<Result<SourceMessage, TransportError>>(capacity_batches);
        spawn_readers(streams, tx, move |payload| {
            decode_tuple_message(payload, epoch)
        });
        Self {
            queue: MergedQueue::new(rx),
        }
    }
}

impl TupleReceiver for TcpTupleReceiver {
    fn recv_batch(&self, out: &mut Vec<SourceMessage>) -> Result<usize, RecvError> {
        self.queue.recv_batch(out)
    }
}

/// Decodes one partial-channel frame payload (shared by `spawn` and
/// [`PartialAttach`]).
fn decode_partial_message<P: WirePartial>(
    payload: &[u8],
    epoch: Instant,
) -> Result<Option<PartialWindow<P>>, wire::WireError> {
    Ok(match decode_payload(payload)? {
        PartialFrame::Partial {
            window,
            worker,
            closed_us,
            partial,
        } => Some(PartialWindow {
            window,
            worker: worker as usize,
            partial,
            closed_at: us_to_instant(epoch, closed_us),
        }),
        PartialFrame::Eof => None,
    })
}

/// Worker → aggregator receiver: merges any number of incoming connections
/// into one bounded queue the aggregator drains with `recv_batch`.
pub struct TcpPartialReceiver<P> {
    queue: MergedQueue<PartialWindow<P>>,
}

impl<P> TcpPartialReceiver<P>
where
    P: WirePartial + Send + 'static,
{
    /// Spawns the reader threads over `streams` with a bounded merge queue.
    /// The queue disconnects (clean `Closed`) once every connection ends.
    pub fn spawn(streams: Vec<TcpStream>, epoch: Instant, capacity_messages: usize) -> Self {
        for s in &streams {
            let _ = s.set_nodelay(true);
        }
        let (tx, rx) = bounded::<Result<PartialWindow<P>, TransportError>>(capacity_messages);
        spawn_readers(streams, tx, move |payload| {
            decode_partial_message::<P>(payload, epoch)
        });
        Self {
            queue: MergedQueue::new(rx),
        }
    }

    /// Like [`spawn`](Self::spawn), but also returns a [`PartialAttach`]
    /// handle that can feed *additional* connections into the same merge
    /// queue later — how an aggregator re-admits a respawned worker
    /// mid-run. The queue only disconnects after every attached connection
    /// ends **and** the attach handle has been dropped.
    pub fn spawn_attachable(
        streams: Vec<TcpStream>,
        epoch: Instant,
        capacity_messages: usize,
    ) -> (Self, PartialAttach<P>) {
        for s in &streams {
            let _ = s.set_nodelay(true);
        }
        let (tx, rx) = bounded::<Result<PartialWindow<P>, TransportError>>(capacity_messages);
        let attach = PartialAttach {
            tx: tx.clone(),
            epoch,
            _partial: PhantomData,
        };
        spawn_readers(streams, tx, move |payload| {
            decode_partial_message::<P>(payload, epoch)
        });
        (
            Self {
                queue: MergedQueue::new(rx),
            },
            attach,
        )
    }
}

/// Feeds additional worker connections into an existing
/// [`TcpPartialReceiver`]'s merge queue (see
/// [`TcpPartialReceiver::spawn_attachable`]). Keeping the handle alive
/// keeps the queue connected; drop it once no further attachment can occur
/// so the receiver's end-of-stream can fire.
pub struct PartialAttach<P> {
    tx: Sender<Result<PartialWindow<P>, TransportError>>,
    epoch: Instant,
    _partial: PhantomData<fn(P)>,
}

impl<P> PartialAttach<P>
where
    P: WirePartial + Send + 'static,
{
    /// Spawns one more reader thread over `stream`, feeding the shared
    /// merge queue.
    pub fn attach(&self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        let epoch = self.epoch;
        spawn_reader(stream, self.tx.clone(), move |payload| {
            decode_partial_message::<P>(payload, epoch)
        });
    }
}

impl<P> PartialReceiver<P> for TcpPartialReceiver<P>
where
    P: WirePartial + Send + 'static,
{
    fn recv_batch(&self, out: &mut Vec<PartialWindow<P>>) -> Result<usize, RecvError> {
        self.queue.recv_batch(out)
    }
}

/// Worker → source feedback sender over one TCP connection. Clonable; the
/// connection carries an EOF frame when the last clone drops, which is how
/// the source learns no further replay can be requested.
#[derive(Clone)]
pub struct TcpFeedbackSender {
    core: Arc<SenderCore>,
}

impl TcpFeedbackSender {
    /// Wraps a connected stream.
    pub fn new(stream: TcpStream, epoch: Instant) -> Self {
        let _ = stream.set_nodelay(true);
        Self {
            core: Arc::new(SenderCore::new(stream, epoch)),
        }
    }
}

impl FeedbackSender for TcpFeedbackSender {
    fn send(&self, request: ReplayRequest) -> Result<(), ChannelClosed> {
        self.core.send_frame(|buf, _epoch| {
            encode_frame(
                &FeedbackFrame::Request {
                    worker: request.worker as u32,
                    from_seq: request.from_seq,
                },
                buf,
            );
        })
    }
}

/// Worker → source feedback receiver: merges incoming connections into one
/// bounded queue the source polls between chunks and drains after emission.
///
/// The feedback contract has no transport-error arm ([`FeedbackReceiver`]
/// only distinguishes "request" from "no more requests"), so a connection
/// that dies uncleanly is treated like its clean end: the source simply
/// stops hearing from that worker, which is safe — feedback is purely an
/// optimization trigger, never a correctness obligation.
pub struct TcpFeedbackReceiver {
    queue: Receiver<Result<ReplayRequest, TransportError>>,
}

impl TcpFeedbackReceiver {
    /// Spawns the reader threads over `streams` with a bounded merge queue.
    pub fn spawn(streams: Vec<TcpStream>, capacity_messages: usize) -> Self {
        for s in &streams {
            let _ = s.set_nodelay(true);
        }
        let (tx, rx) = bounded::<Result<ReplayRequest, TransportError>>(capacity_messages);
        spawn_readers(streams, tx, move |payload| {
            Ok(match decode_payload(payload)? {
                FeedbackFrame::Request { worker, from_seq } => Some(ReplayRequest {
                    worker: worker as usize,
                    from_seq,
                }),
                FeedbackFrame::Eof => None,
            })
        });
        Self { queue: rx }
    }
}

impl FeedbackReceiver for TcpFeedbackReceiver {
    fn try_recv(&self) -> Result<Option<ReplayRequest>, ChannelClosed> {
        loop {
            match Receiver::try_recv(&self.queue) {
                Ok(Ok(request)) => return Ok(Some(request)),
                Ok(Err(_)) => continue, // dead connection: same as its EOF
                Err(TryRecvError::Empty) => return Ok(None),
                Err(TryRecvError::Disconnected) => return Err(ChannelClosed),
            }
        }
    }

    fn recv(&self) -> Result<ReplayRequest, ChannelClosed> {
        loop {
            match Receiver::recv(&self.queue) {
                Ok(Ok(request)) => return Ok(request),
                Ok(Err(_)) => continue, // dead connection: same as its EOF
                Err(_) => return Err(ChannelClosed),
            }
        }
    }
}

/// Dials `addr` with bounded retry: exponential backoff from `base_delay`
/// (doubling per attempt, capped at one second) plus a ±25% jitter so a
/// herd of peers re-dialing a respawned node does not arrive in lockstep.
/// Returns the last connect error once `attempts` are exhausted.
pub fn connect_with_retry(
    addr: &str,
    attempts: u32,
    base_delay: Duration,
) -> std::io::Result<TcpStream> {
    assert!(attempts > 0, "need at least one connect attempt");
    let mut delay = base_delay;
    // Cheap SplitMix64 over the clock: only decorrelates peers, no
    // statistical burden.
    let mut jitter_state = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0x9E37_79B9_7F4A_7C15);
    let mut last_err = None;
    for attempt in 0..attempts {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => last_err = Some(e),
        }
        if attempt + 1 == attempts {
            break;
        }
        jitter_state = jitter_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = jitter_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        // Sleep delay ± 25%.
        let base = delay.as_micros() as u64;
        let spread = base / 2;
        let jittered = base - base / 4 + if spread > 0 { z % spread } else { 0 };
        thread::sleep(Duration::from_micros(jittered));
        delay = (delay * 2).min(Duration::from_secs(1));
    }
    Err(last_err.expect("at least one attempt recorded an error"))
}

/// Binds an ephemeral loopback listener and returns a connected
/// client/server stream pair over it.
fn loopback_pair() -> (TcpStream, TcpStream) {
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind loopback listener");
    let addr = listener.local_addr().expect("listener address");
    let client = TcpStream::connect(addr).expect("connect loopback");
    let (server, _) = listener.accept().expect("accept loopback");
    (client, server)
}

/// The TCP transport backend: every engine channel becomes a loopback TCP
/// connection carrying wire frames. Drop-in for [`slb_engine::InProc`] via
/// [`Topology::run_windowed_on`](slb_engine::Topology::run_windowed_on) —
/// the cross-backend differential suite proves the merged windowed counts
/// are bit-identical.
///
/// This is also the building block of the multi-process deployment: the
/// `slb-node` roles construct the same senders/receivers from accepted and
/// dialed sockets instead of loopback pairs.
pub struct TcpTransport {
    epoch: Instant,
}

impl TcpTransport {
    /// A transport whose epoch is "now" — the usual choice just before a
    /// run starts.
    pub fn loopback() -> Self {
        Self::with_epoch(Instant::now())
    }

    /// A transport anchored at an explicit epoch (multi-process runs align
    /// all nodes on one orchestrator-chosen epoch).
    pub fn with_epoch(epoch: Instant) -> Self {
        Self { epoch }
    }

    /// The epoch wire timestamps are relative to.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }
}

impl Default for TcpTransport {
    fn default() -> Self {
        Self::loopback()
    }
}

impl<P> Transport<P> for TcpTransport
where
    P: WirePartial + Send + 'static,
{
    type TupleTx = TcpTupleSender;
    type TupleRx = TcpTupleReceiver;
    type PartialTx = TcpPartialSender<P>;
    type PartialRx = TcpPartialReceiver<P>;
    type FeedbackTx = TcpFeedbackSender;
    type FeedbackRx = TcpFeedbackReceiver;

    fn tuple_channels(
        &self,
        workers: usize,
        capacity_batches: usize,
    ) -> (Vec<Self::TupleTx>, Vec<Self::TupleRx>) {
        (0..workers)
            .map(|_| {
                let (client, server) = loopback_pair();
                (
                    TcpTupleSender::new(client, self.epoch),
                    TcpTupleReceiver::spawn(vec![server], self.epoch, capacity_batches),
                )
            })
            .unzip()
    }

    fn partial_channels(
        &self,
        aggregators: usize,
        capacity_messages: usize,
    ) -> (Vec<Self::PartialTx>, Vec<Self::PartialRx>) {
        (0..aggregators)
            .map(|_| {
                let (client, server) = loopback_pair();
                (
                    TcpPartialSender::new(client, self.epoch),
                    TcpPartialReceiver::spawn(vec![server], self.epoch, capacity_messages),
                )
            })
            .unzip()
    }

    fn feedback_channels(
        &self,
        sources: usize,
        capacity_messages: usize,
    ) -> (Vec<Self::FeedbackTx>, Vec<Self::FeedbackRx>) {
        (0..sources)
            .map(|_| {
                let (client, server) = loopback_pair();
                (
                    TcpFeedbackSender::new(client, self.epoch),
                    TcpFeedbackReceiver::spawn(vec![server], capacity_messages),
                )
            })
            .unzip()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn tuple_channel_delivers_batches_punctuation_and_eof() {
        let transport = TcpTransport::loopback();
        let (txs, rxs) = Transport::<u64>::tuple_channels(&transport, 1, 4);
        let tx = txs.into_iter().next().unwrap();
        let rx = rxs.into_iter().next().unwrap();
        let epoch = transport.epoch();
        tx.send(SourceMessage::Batch(TupleBatch {
            keys: vec![10, 20, 30],
            window: 2,
            source: 1,
            seq: 7,
            emitted_at: epoch + Duration::from_micros(55),
        }))
        .unwrap();
        tx.send(SourceMessage::CloseWindow {
            window: 2,
            source: 1,
            seq: 8,
        })
        .unwrap();
        drop(tx);
        let mut got: Vec<SourceMessage> = Vec::new();
        while rx.recv_batch(&mut got).is_ok() {}
        assert_eq!(got.len(), 2);
        match &got[0] {
            SourceMessage::Batch(batch) => {
                assert_eq!(batch.keys, vec![10, 20, 30]);
                assert_eq!(batch.window, 2);
                assert_eq!(batch.source, 1);
                assert_eq!(batch.seq, 7);
                assert_eq!(instant_to_us(epoch, batch.emitted_at), 55);
            }
            _ => panic!("expected batch first"),
        }
        assert!(matches!(
            got[1],
            SourceMessage::CloseWindow {
                window: 2,
                source: 1,
                seq: 8
            }
        ));
    }

    #[test]
    fn partial_channel_round_trips_count_partials() {
        let transport = TcpTransport::loopback();
        let (txs, rxs) = Transport::<HashMap<u64, u64>>::partial_channels(&transport, 1, 4);
        let tx = txs.into_iter().next().unwrap();
        let rx = rxs.into_iter().next().unwrap();
        let mut counts = HashMap::new();
        counts.insert(5u64, 3u64);
        counts.insert(9, 1);
        tx.send(PartialWindow {
            window: 4,
            worker: 3,
            partial: counts.clone(),
            closed_at: Instant::now(),
        })
        .unwrap();
        drop(tx);
        let mut got = Vec::new();
        while rx.recv_batch(&mut got).is_ok() {}
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].window, 4);
        assert_eq!(got[0].worker, 3);
        assert_eq!(got[0].partial, counts);
    }

    #[test]
    fn feedback_channel_polls_blocks_and_disconnects() {
        let transport = TcpTransport::loopback();
        let (txs, rxs) = Transport::<u64>::feedback_channels(&transport, 1, 4);
        let tx = txs.into_iter().next().unwrap();
        let rx = rxs.into_iter().next().unwrap();
        assert_eq!(rx.try_recv(), Ok(None), "empty but connected polls None");
        let request = ReplayRequest {
            worker: 2,
            from_seq: 31,
        };
        tx.send(request).unwrap();
        assert_eq!(rx.recv(), Ok(request));
        drop(tx);
        // EOF propagates: the queue disconnects once the reader drains.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match rx.try_recv() {
                Err(ChannelClosed) => break,
                Ok(None) if Instant::now() < deadline => thread::sleep(Duration::from_millis(1)),
                other => panic!("unexpected poll result before disconnect: {other:?}"),
            }
        }
    }

    #[test]
    fn cloned_senders_share_one_connection_and_eof_fires_on_last_drop() {
        let transport = TcpTransport::loopback();
        let (txs, rxs) = Transport::<u64>::tuple_channels(&transport, 1, 8);
        let tx = txs.into_iter().next().unwrap();
        let rx = rxs.into_iter().next().unwrap();
        let clones: Vec<TcpTupleSender> = (0..4).map(|_| tx.clone()).collect();
        drop(tx);
        for (i, clone) in clones.iter().enumerate() {
            clone
                .send(SourceMessage::CloseWindow {
                    window: i as u64,
                    source: 0,
                    seq: i as u64,
                })
                .unwrap();
        }
        drop(clones);
        let mut got = Vec::new();
        while rx.recv_batch(&mut got).is_ok() {}
        assert_eq!(got.len(), 4, "EOF must come only after every message");
    }

    #[test]
    fn corrupt_frame_surfaces_as_transport_error_and_spares_siblings() {
        let epoch = Instant::now();
        let (good_client, good_server) = loopback_pair();
        let (bad_client, bad_server) = loopback_pair();
        let rx = TcpTupleReceiver::spawn(vec![good_server, bad_server], epoch, 8);
        // The healthy connection delivers one message then a clean EOF.
        let tx = TcpTupleSender::new(good_client, epoch);
        tx.send(SourceMessage::CloseWindow {
            window: 3,
            source: 0,
            seq: 1,
        })
        .unwrap();
        drop(tx);
        // The sick connection delivers a frame with an unknown tag.
        let mut bad_client = bad_client;
        bad_client.write_all(&[1, 0, 0, 0, 0xEE]).unwrap();
        drop(bad_client);
        let mut got: Vec<SourceMessage> = Vec::new();
        let mut transport_errors = Vec::new();
        loop {
            match TupleReceiver::recv_batch(&rx, &mut got) {
                Ok(_) => {}
                Err(RecvError::Transport(error)) => transport_errors.push(error),
                Err(RecvError::Closed) => break,
            }
        }
        assert_eq!(
            transport_errors.len(),
            1,
            "one dead connection, one error report"
        );
        assert!(!transport_errors[0].detail.is_empty());
        assert_eq!(got.len(), 1, "the healthy connection's data still lands");
        assert!(matches!(
            got[0],
            SourceMessage::CloseWindow {
                window: 3,
                source: 0,
                seq: 1
            }
        ));
    }

    #[test]
    fn reattachable_sender_swallows_peer_death_and_resumes_after_reattach() {
        let epoch = Instant::now();
        let (client, server) = loopback_pair();
        let tx = ReattachableTupleSender::new(client, epoch);
        assert!(tx.is_attached());
        drop(server);
        // Writes into the dead peer must not error; the first failed write
        // detaches the slot. Loopback needs a write or two for the RST to
        // come back, hence the bounded poll.
        let deadline = Instant::now() + Duration::from_secs(10);
        while tx.is_attached() {
            assert!(Instant::now() < deadline, "write to dead peer never failed");
            tx.send(SourceMessage::CloseWindow {
                window: 0,
                source: 0,
                seq: 0,
            })
            .unwrap();
            thread::sleep(Duration::from_millis(1));
        }
        // Detached sends are silent drops, not errors.
        tx.send(SourceMessage::CloseWindow {
            window: 1,
            source: 0,
            seq: 1,
        })
        .unwrap();
        // A replacement connection restores delivery, including the
        // EOF-on-drop contract.
        let (client2, server2) = loopback_pair();
        let rx = TcpTupleReceiver::spawn(vec![server2], epoch, 8);
        tx.reattach(client2);
        assert!(tx.is_attached());
        tx.send(SourceMessage::CloseWindow {
            window: 7,
            source: 1,
            seq: 9,
        })
        .unwrap();
        drop(tx);
        let mut got: Vec<SourceMessage> = Vec::new();
        while !matches!(
            TupleReceiver::recv_batch(&rx, &mut got),
            Err(RecvError::Closed)
        ) {}
        assert_eq!(got.len(), 1);
        assert!(matches!(
            got[0],
            SourceMessage::CloseWindow {
                window: 7,
                source: 1,
                seq: 9
            }
        ));
    }

    #[test]
    fn attachable_partial_receiver_merges_late_connections() {
        let epoch = Instant::now();
        let (client1, server1) = loopback_pair();
        let (rx, attach) =
            TcpPartialReceiver::<HashMap<u64, u64>>::spawn_attachable(vec![server1], epoch, 8);
        let tx1 = TcpPartialSender::<HashMap<u64, u64>>::new(client1, epoch);
        tx1.send(PartialWindow {
            window: 0,
            worker: 0,
            partial: HashMap::from([(1u64, 2u64)]),
            closed_at: Instant::now(),
        })
        .unwrap();
        drop(tx1); // clean EOF on the original connection
                   // A respawned worker dials in later; its frames land in the same
                   // queue.
        let (client2, server2) = loopback_pair();
        attach.attach(server2);
        let tx2 = TcpPartialSender::<HashMap<u64, u64>>::new(client2, epoch);
        tx2.send(PartialWindow {
            window: 1,
            worker: 1,
            partial: HashMap::from([(3u64, 4u64)]),
            closed_at: Instant::now(),
        })
        .unwrap();
        drop(tx2);
        drop(attach); // no further attachment: end-of-stream may now fire
        let mut got: Vec<PartialWindow<HashMap<u64, u64>>> = Vec::new();
        while !matches!(
            PartialReceiver::recv_batch(&rx, &mut got),
            Err(RecvError::Closed)
        ) {}
        got.sort_by_key(|w| w.window);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].worker, 0);
        assert_eq!(got[1].worker, 1);
        assert_eq!(got[1].partial, HashMap::from([(3u64, 4u64)]));
    }

    #[test]
    fn connect_with_retry_reaches_a_late_listener_and_reports_exhaustion() {
        // A listener that only appears after the first attempts fail.
        let probe = TcpListener::bind(("127.0.0.1", 0)).expect("probe bind");
        let addr = probe.local_addr().expect("probe addr").to_string();
        drop(probe);
        // Nothing listening: bounded retry must return the connect error.
        let err = connect_with_retry(&addr, 2, Duration::from_millis(1));
        assert!(err.is_err(), "no listener yet: retry budget must exhaust");
        let rebind_addr = addr.clone();
        let accepter = thread::spawn(move || {
            thread::sleep(Duration::from_millis(50));
            let listener = TcpListener::bind(rebind_addr).expect("late bind");
            let _ = listener.accept();
        });
        let stream = connect_with_retry(&addr, 200, Duration::from_millis(5))
            .expect("late listener must be reached within the retry budget");
        drop(stream);
        accepter.join().expect("accepter join");
    }

    #[test]
    fn timestamp_rebasing_is_inverse_up_to_saturation() {
        let epoch = Instant::now();
        for us in [0u64, 1, 999_999, 12_345_678] {
            assert_eq!(instant_to_us(epoch, us_to_instant(epoch, us)), us);
        }
        // Pre-epoch instants clamp to zero rather than panicking.
        let earlier = epoch - Duration::from_secs(1);
        assert_eq!(instant_to_us(epoch, earlier), 0);
    }
}
