//! TCP channels implementing the engine's [`Transport`] contract.
//!
//! Each engine channel becomes one or more TCP connections carrying the wire
//! frames of [`crate::wire`]:
//!
//! * a **sender handle** serializes messages under its one mutex and writes
//!   one complete frame per message straight to the socket (the engine
//!   already batches tuples, so a frame is ≥ one transport batch — no extra
//!   buffering layer is needed). Handles are cloned per sending stage
//!   instance; when the **last** clone drops, an [`tag::EOF`] frame is
//!   written and the write side shuts down. A handle whose peer died
//!   detaches, and can be reattached to a replacement connection.
//! * a **receiver handle** owns its incoming connections and no thread: the
//!   receiving stage's own `recv_batch` blocks in one `poll(2)` over the
//!   (non-blocking) sockets, reads each readable one into that connection's
//!   buffer and decodes *complete* frames in place, the connections taking
//!   turns frame by frame — at most the engine's `queue_capacity`-derived
//!   budget ([`slb_engine::capacity_in_batches`]) per call. A batch crosses
//!   one thread hand-off.
//!
//! ## Back-pressure: a credit window per connection
//!
//! `capacity` bounds the frames in flight on a connection — written by the
//! sender, not yet handed to the receiving stage — exactly as it bounds the
//! slots of an `Spsc` lane or an `InProc` queue. The kernel's socket buffers
//! do not: autotuned, they park hundreds of KB between a fast source and a
//! busy worker, and every queued frame is latency. So the connection's
//! otherwise unused reverse direction carries **credits**, one byte per
//! frame: a receiver, before `recv_batch` returns, writes each connection
//! the count of frames it just handed over (one small non-blocking `write`);
//! a sender with `capacity` frames in flight blocks in a `read` of credits
//! before it writes the next. Every connection starts with a full window,
//! a reattached or late-attached one included; both channel kinds use the
//! one mechanism, and forward bytes are what they were without it.
//!
//! What the ends owe each other:
//!
//! * A sender waiting for credit sees its receiver go as the end of that
//!   `read` — FIN or reset — and, as on a failed write, detaches: it drops
//!   the connection and reports [`ChannelClosed`] for this send and every
//!   later one. It never waits on a dead peer. `reattach` installs a
//!   replacement connection, which starts with a full window;
//!   [`ReattachableTupleSender`] drops the frames a detached sender
//!   refuses instead of reporting them.
//! * A peer that never reads its credits is harmless: once the reverse
//!   direction is full the credit `write` finds no room, and the debt waits
//!   for the next call. The receive path never blocks, fails or panics on it.
//! * The EOF frame takes no room in the window, but the last drop first
//!   waits until every frame sent has been credited, and only then closes.
//!   Closing earlier would leave credits unread or still to come, and for
//!   either the kernel *resets* the connection and discards what it has not
//!   delivered yet — the tail of a frame larger than the peer's socket
//!   buffer. An orderly end therefore never involves a reset; a receiver
//!   that is gone ends the wait at once.
//!
//! No `setsockopt` buffer sizing takes part: the sizes that bound latency
//! are kernel-dependent magic numbers (docs/PERF.md "PR 18" has the sweep).
//!
//! FIFO per sender — the ordering the window-punctuation protocol needs —
//! holds: each sending stage writes its frames in order to one socket, TCP
//! preserves byte order, and a connection's buffer is decoded front to back.
//!
//! `Instant`s never cross a socket. A [`TcpTransport`] carries the run's
//! *epoch*; timestamps travel as µs-since-epoch and are rebased on arrival.
//! In-process (the differential and perf suites) both endpoints share one
//! epoch, so latency metrics are exact up to µs quantization; across
//! processes `slb-node` aligns epochs through the orchestrator's wall-clock
//! handshake, so metrics additionally absorb (same-machine) clock offset.
//! Merged *counts* — the correctness obligation — never depend on them.
//!
//! A connection that delivers a *malformed* frame, fails a read, or ends
//! inside a frame is retired without aborting the process: the receiving
//! stage sees one `Err(RecvError::Transport(_))` — on a `recv_batch` call
//! with no data to deliver, and told apart from the clean-EOF
//! `RecvError::Closed` — counts it in its report's `transport_errors`, and
//! keeps receiving from the surviving connections. This is what a SIGKILLed
//! peer looks like from the other end: a reset if it died with credits
//! unread (a sender mostly has), else a clean FIN, occasionally a frame
//! torn mid-write; the recovery protocol (`docs/FAULTS.md`) restores
//! exactness, with the error on the record. Peer bytes can neither panic the
//! receive path nor make it allocate ahead of what has arrived (`reactor_props`).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::marker::PhantomData;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use slb_core::WirePartial;
use slb_engine::transport::{
    ChannelClosed, PartialReceiver, PartialSender, PartialWindow, RecvError, SourceMessage,
    Transport, TransportError, TupleBatch, TupleReceiver, TupleSender,
};
use slb_engine::WindowId;

use crate::poll;
use crate::wire::{
    decode_payload, encode_frame, encode_tuple_frame, split_frame, tag, ControlFrame, PartialFrame,
    TupleFrame, WireError,
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

/// A message a data channel (tuples, partials) or the control plane
/// carries: how it is framed on the way out and recovered on the way in
/// (timestamps as µs since `epoch`).
pub trait Framed: Sized {
    /// Appends the message's complete frame to `buf`.
    fn encode(self, epoch: Instant, buf: &mut Vec<u8>);

    /// Decodes one frame payload; `None` is the channel's EOF frame.
    fn decode(payload: &[u8], epoch: Instant) -> Result<Option<Self>, WireError>;
}

impl Framed for SourceMessage {
    fn encode(self, epoch: Instant, buf: &mut Vec<u8>) {
        let frame = match self {
            SourceMessage::Batch(batch) => TupleFrame::Batch {
                window: batch.window,
                source: batch.source as u32,
                seq: batch.seq,
                emitted_us: instant_to_us(epoch, batch.emitted_at),
                keys: batch.keys,
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
    }

    fn decode(payload: &[u8], epoch: Instant) -> Result<Option<Self>, WireError> {
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
}

impl<P: WirePartial> Framed for PartialWindow<P> {
    fn encode(self, epoch: Instant, buf: &mut Vec<u8>) {
        let frame = PartialFrame::Partial {
            window: self.window,
            worker: self.worker as u32,
            closed_us: instant_to_us(epoch, self.closed_at),
            partial: self.partial,
        };
        encode_frame(&frame, buf);
    }

    fn decode(payload: &[u8], epoch: Instant) -> Result<Option<Self>, WireError> {
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
}

/// The control plane reads its frames through the same `Conn` as the data
/// plane; a control frame carries no timestamp and its channel has no EOF
/// frame (a FIN between frames is the clean end).
impl Framed for ControlFrame {
    fn encode(self, _epoch: Instant, buf: &mut Vec<u8>) {
        encode_frame(&self, buf);
    }

    fn decode(payload: &[u8], _epoch: Instant) -> Result<Option<Self>, WireError> {
        decode_payload(payload).map(Some)
    }
}

/// Socket + reusable encode buffer and the connection's credit window. Its
/// drop is the connection's orderly end: an EOF frame, then the write side
/// shut down, which is what terminates the remote reader.
struct FramedWriter {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Frames written that the receiving stage has not been handed yet, as
    /// far as the credits read so far say.
    in_flight: usize,
    /// The most frames in flight: the channel's capacity.
    window: usize,
}

impl FramedWriter {
    /// Blocks in one `read` of credit bytes: one per frame the receiving
    /// stage has taken since the last credit. A peer that is gone ends the
    /// read (FIN or reset), so a sender never waits on a dead receiver.
    fn await_credit(&mut self) -> Result<(), ChannelClosed> {
        match self.stream.read(&mut [0; CREDIT_CHUNK]) {
            Ok(0) => Err(ChannelClosed),
            Ok(credits) => {
                self.in_flight = self.in_flight.saturating_sub(credits);
                Ok(())
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => Ok(()),
            Err(_) => Err(ChannelClosed),
        }
    }

    /// Encodes `message` into the buffer and writes its one frame, once the
    /// window has room for it.
    fn send(&mut self, message: impl Framed, epoch: Instant) -> Result<(), ChannelClosed> {
        while self.in_flight >= self.window {
            self.await_credit()?;
        }
        self.buf.clear();
        message.encode(epoch, &mut self.buf);
        self.stream
            .write_all(&self.buf)
            .map_err(|_| ChannelClosed)?;
        self.in_flight += 1;
        Ok(())
    }
}

impl Drop for FramedWriter {
    fn drop(&mut self) {
        // Best effort: the peer may already be gone. The socket closes only
        // once every frame is credited. A credit that met a closed socket —
        // or a close that left credits unread — would make the kernel reset
        // the connection and discard what it had not delivered yet: the
        // tail of a frame larger than the peer's socket buffer.
        while self.in_flight > 0 && self.await_credit().is_ok() {}
        // The EOF frame is not a message and takes no room in the window.
        self.buf.clear();
        self.buf.extend_from_slice(&1u32.to_le_bytes());
        self.buf.push(tag::EOF);
        let _ = self.stream.write_all(&self.buf);
        let _ = self.stream.shutdown(std::net::Shutdown::Write);
    }
}

/// Shared core of a sender handle: the connection, if it is still up, and
/// what a replacement needs.
struct SenderCore {
    writer: Mutex<Option<FramedWriter>>,
    epoch: Instant,
    window: usize,
}

/// The sending handle of a channel, over one TCP connection at a time.
/// Clonable; the connection carries an EOF frame when the last clone drops.
///
/// The first failed write or credit wait *detaches* the handle: the dead
/// connection is dropped and every later send reports [`ChannelClosed`],
/// until [`reattach`](Self::reattach) installs a replacement.
pub struct TcpSender<T> {
    core: Arc<SenderCore>,
    _message: PhantomData<fn(T)>,
}

/// Source → worker sender.
pub type TcpTupleSender = TcpSender<SourceMessage>;
/// Worker → aggregator sender.
pub type TcpPartialSender<P> = TcpSender<PartialWindow<P>>;

impl<T> Clone for TcpSender<T> {
    fn clone(&self) -> Self {
        Self {
            core: Arc::clone(&self.core),
            _message: PhantomData,
        }
    }
}

impl<T: Framed> TcpSender<T> {
    /// Wraps a connected stream. `epoch` anchors the wire timestamps;
    /// `window` is the channel's capacity, the most frames in flight.
    pub fn new(stream: TcpStream, epoch: Instant, window: usize) -> Self {
        let core = SenderCore {
            writer: Mutex::new(None),
            epoch,
            window: window.max(1),
        };
        let sender = Self {
            core: Arc::new(core),
            _message: PhantomData,
        };
        sender.reattach(stream);
        sender
    }

    /// Replaces the (dead or live) connection with `stream`, which starts
    /// with a full window; later sends go to the new peer.
    pub fn reattach(&self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        let writer = FramedWriter {
            stream,
            buf: Vec::with_capacity(4 * 1024),
            in_flight: 0,
            window: self.core.window,
        };
        // The old connection's drop may wait for its credits: not under the
        // lock, where it would hold up every clone's sends.
        let old = self.lock().replace(writer);
        drop(old);
    }

    fn lock(&self) -> MutexGuard<'_, Option<FramedWriter>> {
        self.core.writer.lock().expect("sender lock poisoned")
    }

    fn send_framed(&self, message: T) -> Result<(), ChannelClosed> {
        let mut slot = self.lock();
        let writer = slot.as_mut().ok_or(ChannelClosed)?;
        let sent = writer.send(message, self.core.epoch);
        if sent.is_err() {
            // Its peer is gone: the connection's drop cannot wait on it.
            *slot = None;
        }
        sent
    }
}

impl TupleSender for TcpTupleSender {
    fn send(&self, message: SourceMessage) -> Result<(), ChannelClosed> {
        self.send_framed(message)
    }
}

impl<P: WirePartial + Send + 'static> PartialSender<P> for TcpPartialSender<P> {
    fn send(&self, message: PartialWindow<P>) -> Result<(), ChannelClosed> {
        self.send_framed(message)
    }
}

/// A source's sender to one worker that survives that worker's death: a
/// frame the detached [`TcpSender`] refuses is dropped, not reported. That
/// is deliberate: a dead worker is not the end of the run, and exactness
/// does not depend on these lost frames — the respawned worker's `Rejoin`
/// carries its durable cursors, the source reattaches the sender to the
/// new process and replays everything from there (`docs/FAULTS.md`).
#[derive(Clone)]
pub struct ReattachableTupleSender(pub TcpTupleSender);

impl TupleSender for ReattachableTupleSender {
    fn send(&self, message: SourceMessage) -> Result<(), ChannelClosed> {
        let _ = self.0.send(message);
        Ok(())
    }
}

/// A connection buffer's first size, and so the most one `read` takes. A
/// larger frame doubles it, but only once received bytes have filled it.
const READ_CHUNK: usize = 64 * 1024;

/// The most credit bytes one `write` carries or one `read` takes.
const CREDIT_CHUNK: usize = 64;

/// What a connection has next.
pub(crate) enum Step<T> {
    Message(T),
    /// No complete frame is buffered; the socket may bring more.
    Dry,
    /// Over: cleanly (an EOF frame, a FIN between frames) or with a report.
    End(Result<(), String>),
}

/// One incoming connection and the received bytes not yet decoded,
/// `buf[head..tail]`.
pub(crate) struct Conn {
    pub(crate) stream: TcpStream,
    peer: String,
    buf: Vec<u8>,
    head: usize,
    tail: usize,
    /// What the socket said last; frames already buffered come first.
    end: Option<Result<(), String>>,
    /// Frames handed to the stage and not yet credited to the sender.
    owed: usize,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream) -> Self {
        // Reads only follow a readable verdict: blocking would still work.
        let _ = stream.set_nonblocking(true);
        let peer = stream
            .peer_addr()
            .map_or("<unknown>".into(), |a| a.to_string());
        Self {
            stream,
            peer,
            buf: Vec::new(),
            head: 0,
            tail: 0,
            end: None,
            owed: 0,
        }
    }

    /// Whether only a `read` can move the connection on: it is open and
    /// what is buffered is less than a frame.
    fn is_dry(&self) -> bool {
        let pending = split_frame(&self.buf[self.head..self.tail]);
        self.end.is_none() && matches!(pending, Err(WireError::Truncated))
    }

    /// One `read`, for a dry connection: the incomplete frame moves to the
    /// front and the rest of the buffer is free. The buffer grows only once
    /// received bytes have filled it — never on a length prefix's say-so.
    pub(crate) fn read_once(&mut self) {
        self.buf.copy_within(self.head..self.tail, 0);
        self.tail -= self.head;
        self.head = 0;
        if self.tail == self.buf.len() {
            self.buf.resize((2 * self.buf.len()).max(READ_CHUNK), 0);
        }
        match self.stream.read(&mut self.buf[self.tail..]) {
            // A FIN: clean on a frame boundary, a torn frame inside one.
            Ok(0) if self.tail == 0 => self.end = Some(Ok(())),
            Ok(0) => self.end = Some(Err(WireError::Truncated.to_string())),
            Ok(n) => self.tail += n,
            // Nothing this time: the next `poll` says readable again.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
            Err(e) => self.end = Some(Err(WireError::Io(e).to_string())),
        }
    }

    /// Credits the sender with the frames handed over since the last credit:
    /// one byte each on the connection's reverse direction, never waiting.
    /// A peer that does not read its credits fills that direction up; the
    /// debt then stays for the next call. A dead peer's write error is
    /// dropped here: the read side reports how the connection ended.
    fn pay_credits(&mut self) {
        const CREDITS: [u8; CREDIT_CHUNK] = [0; CREDIT_CHUNK];
        while self.owed > 0 {
            match self.stream.write(&CREDITS[..self.owed.min(CREDIT_CHUNK)]) {
                Ok(written @ 1..) => self.owed -= written,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                _ => break,
            }
        }
    }

    /// Decodes the next complete frame, if one is buffered.
    pub(crate) fn step<T: Framed>(&mut self, epoch: Instant) -> Step<T> {
        let payload = match split_frame(&self.buf[self.head..self.tail]) {
            Ok(payload) => payload,
            Err(WireError::Truncated) => return self.end.take().map_or(Step::Dry, Step::End),
            Err(e) => return Step::End(Err(e.to_string())),
        };
        let consumed = 4 + payload.len();
        match T::decode(payload, epoch) {
            Ok(Some(message)) => {
                self.head += consumed;
                Step::Message(message)
            }
            Ok(None) => Step::End(Ok(())),
            Err(e) => Step::End(Err(e.to_string())),
        }
    }
}

/// Connections a [`PartialAttach`] hands over mid-run: the streams travel
/// in the channel; `wake`, one end of a socket pair, sits in the poll set
/// and turns readable on every attach (a byte) and at the handle's drop.
struct Late {
    streams: mpsc::Receiver<TcpStream>,
    wake: UnixStream,
}

/// The receiving handle of a channel: it owns its incoming connections and
/// no thread; the receiving stage's own call does the waiting and reading.
pub struct TcpReceiver<T> {
    /// Single-owner state: a `RefCell`, not a lock.
    reactor: RefCell<Reactor>,
    epoch: Instant,
    /// The most messages one `recv_batch` hands over.
    capacity: usize,
    _message: PhantomData<fn() -> T>,
}

/// Source → worker receiver. `capacity` is the engine's `queue_capacity` in
/// batches: the most frames one `recv_batch` hands over, and — as the
/// window of the senders built beside it — the most in flight per connection.
pub type TcpTupleReceiver = TcpReceiver<SourceMessage>;
/// Worker → aggregator receiver.
pub type TcpPartialReceiver<P> = TcpReceiver<PartialWindow<P>>;

/// A receiver's connections and what waiting on them needs.
#[derive(Default)]
struct Reactor {
    conns: Vec<Conn>,
    /// The connection the next message is asked of first.
    turn: usize,
    /// The poll set, rebuilt per wait: `conns` in order, then `late`'s wake.
    fds: Vec<poll::PollFd>,
    /// Reports of retired connections not yet handed to the stage.
    errors: VecDeque<TransportError>,
    late: Option<Late>,
}

impl<T: Framed> TcpReceiver<T> {
    /// Takes ownership of `streams`; no thread is started. The channel
    /// ends (clean `Closed`) once every connection has.
    pub fn spawn(streams: Vec<TcpStream>, epoch: Instant, capacity: usize) -> Self {
        Self {
            reactor: RefCell::new(Reactor {
                conns: streams.into_iter().map(Conn::new).collect(),
                ..Reactor::default()
            }),
            epoch,
            capacity: capacity.max(1),
            _message: PhantomData,
        }
    }

    /// Like [`spawn`](Self::spawn), but also returns a [`PartialAttach`]
    /// handle that can hand the receiver *additional* connections later —
    /// how an aggregator re-admits a respawned worker mid-run. The channel
    /// only ends after every connection has **and** the handle has dropped.
    /// Fails only if the socket pair that wakes the receiver cannot be made.
    pub fn spawn_attachable(
        streams: Vec<TcpStream>,
        epoch: Instant,
        capacity_messages: usize,
    ) -> std::io::Result<(Self, PartialAttach)> {
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        // An attach must never block: a full pipe already holds a wake-up.
        let _ = wake_tx.set_nonblocking(true);
        let (streams_tx, streams_rx) = mpsc::channel();
        let receiver = Self::spawn(streams, epoch, capacity_messages);
        receiver.reactor.borrow_mut().late = Some(Late {
            streams: streams_rx,
            wake: wake_rx,
        });
        let attach = PartialAttach {
            streams: streams_tx,
            wake: wake_tx,
        };
        Ok((receiver, attach))
    }

    /// The engine's `recv_batch` contract (module doc): waits for the first
    /// message, then appends up to `capacity` buffered ones to `out` —
    /// connections taking turns frame by frame, so none runs ahead of
    /// another that has frames too — and returns how many.
    fn recv_some(&self, out: &mut Vec<T>) -> Result<usize, RecvError> {
        let reactor = &mut *self.reactor.borrow_mut();
        // A sibling's backlog must not hold back frames that have arrived
        // on a dry connection's socket since: look there first, no waiting.
        let dry = reactor.conns.iter().filter(|c| c.is_dry()).count();
        if 0 < dry && dry < reactor.conns.len() {
            reactor.fill(false);
        }
        loop {
            let (mut taken, mut passed) = (0, 0);
            while taken < self.capacity && passed < reactor.conns.len() {
                let turn = reactor.turn % reactor.conns.len();
                reactor.turn = turn + 1;
                match reactor.conns[turn].step(self.epoch) {
                    Step::Message(message) => {
                        out.push(message);
                        reactor.conns[turn].owed += 1;
                        taken += 1;
                        passed = 0;
                    }
                    Step::Dry => passed += 1,
                    Step::End(end) => {
                        // Its successor moves into its place and is next.
                        reactor.turn = turn;
                        let peer = reactor.conns.remove(turn).peer;
                        let report = end.err().map(|detail| TransportError { peer, detail });
                        reactor.errors.extend(report);
                    }
                }
            }
            if taken > 0 {
                // The stage has these frames now: their senders may go on.
                reactor.conns.iter_mut().for_each(Conn::pay_credits);
                return Ok(taken);
            }
            if let Some(error) = reactor.errors.pop_front() {
                return Err(RecvError::Transport(error));
            }
            if reactor.conns.is_empty() && reactor.late.is_none() {
                return Err(RecvError::Closed);
            }
            // Every connection left is dry: wait and read.
            reactor.fill(true);
        }
    }
}

impl Reactor {
    /// Waits for a dry connection's socket to turn readable (not at all
    /// unless `block`), reads each that has once and admits late
    /// connections.
    fn fill(&mut self, block: bool) {
        self.fds.clear();
        // `poll` passes over a negative descriptor.
        let dry = |c: &Conn| if c.is_dry() { c.stream.as_raw_fd() } else { -1 };
        let wake = self.late.as_ref().map(|late| late.wake.as_raw_fd());
        let fds = self.conns.iter().map(dry).chain(wake);
        self.fds.extend(fds.map(poll::PollFd::readable));
        if let Err(e) = poll::wait_readable(&mut self.fds, if block { -1 } else { 0 }) {
            // Not a peer's doing (out of memory, a bad descriptor): nothing
            // can be waited on, so every connection ends here.
            let report = WireError::Io(e).to_string();
            for conn in &mut self.conns {
                conn.end = Some(Err(report.clone()));
            }
            self.late = None;
            return;
        }
        for (conn, fd) in self.conns.iter_mut().zip(&self.fds) {
            // Hang-ups and socket errors count: the read tells which.
            if fd.is_ready() {
                conn.read_once();
            }
        }
        if let Some(late) = self.late.as_mut() {
            if self.fds.last().is_some_and(poll::PollFd::is_ready) {
                let dropped = !matches!(late.wake.read(&mut [0; 64]), Ok(1..));
                // Every attach sent its stream before its wake byte, and
                // the handle cannot drop while an attach is running.
                self.conns.extend(late.streams.try_iter().map(Conn::new));
                if dropped {
                    self.late = None;
                }
            }
        }
    }
}

impl TupleReceiver for TcpTupleReceiver {
    fn recv_batch(&self, out: &mut Vec<SourceMessage>) -> Result<usize, RecvError> {
        self.recv_some(out)
    }
}

impl<P: WirePartial + Send + 'static> PartialReceiver<P> for TcpPartialReceiver<P> {
    fn recv_batch(&self, out: &mut Vec<PartialWindow<P>>) -> Result<usize, RecvError> {
        self.recv_some(out)
    }
}

/// Hands additional worker connections to an existing receiver (see
/// [`TcpReceiver::spawn_attachable`]), waking it if it is blocked in
/// `recv_batch`. The handle keeps the channel open: drop it once no further
/// attachment can occur, so the receiver's end-of-stream can fire.
pub struct PartialAttach {
    streams: mpsc::Sender<TcpStream>,
    wake: UnixStream,
}

impl PartialAttach {
    /// Adds `stream` to the receiver's poll set; no thread is started.
    pub fn attach(&self, stream: TcpStream) {
        // A receiver that is gone has no use for the stream or the wake.
        if self.streams.send(stream).is_ok() {
            let _ = (&self.wake).write(&[1]);
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
        Self {
            epoch: Instant::now(),
        }
    }

    /// The epoch wire timestamps are relative to.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// `count` loopback connections, each as a sender/receiver handle pair.
    fn channels<T: Framed>(
        &self,
        count: usize,
        capacity: usize,
    ) -> (Vec<TcpSender<T>>, Vec<TcpReceiver<T>>) {
        (0..count)
            .map(|_| {
                let (client, server) = loopback_pair();
                (
                    TcpSender::new(client, self.epoch, capacity),
                    TcpReceiver::spawn(vec![server], self.epoch, capacity),
                )
            })
            .unzip()
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

    fn tuple_channels(
        &self,
        workers: usize,
        capacity_batches: usize,
    ) -> (Vec<Self::TupleTx>, Vec<Self::TupleRx>) {
        self.channels(workers, capacity_batches)
    }

    fn partial_channels(
        &self,
        aggregators: usize,
        capacity_messages: usize,
    ) -> (Vec<Self::PartialTx>, Vec<Self::PartialRx>) {
        self.channels(aggregators, capacity_messages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn tuple_channel_delivers_batches_punctuation_and_eof() {
        let transport = TcpTransport::loopback();
        let (txs, rxs) = Transport::<HashMap<u64, u64>>::tuple_channels(&transport, 1, 4);
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
        // A sender's last drop waits for its frames to be taken: receive
        // first, on this one thread.
        let mut got: Vec<SourceMessage> = Vec::new();
        while got.len() < 2 {
            rx.recv_batch(&mut got).unwrap();
        }
        drop(tx);
        assert_eq!(rx.recv_batch(&mut got), Err(RecvError::Closed));
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
        let mut got = Vec::new();
        assert_eq!(rx.recv_batch(&mut got), Ok(1));
        drop(tx);
        assert_eq!(rx.recv_batch(&mut got), Err(RecvError::Closed));
        assert_eq!(got[0].window, 4);
        assert_eq!(got[0].worker, 3);
        assert_eq!(got[0].partial, counts);
    }

    #[test]
    fn cloned_senders_share_one_connection_and_eof_fires_on_last_drop() {
        let transport = TcpTransport::loopback();
        let (txs, rxs) = Transport::<HashMap<u64, u64>>::tuple_channels(&transport, 1, 8);
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
        let mut got = Vec::new();
        while got.len() < 4 {
            rx.recv_batch(&mut got).unwrap();
        }
        drop(clones);
        assert_eq!(rx.recv_batch(&mut got), Err(RecvError::Closed));
        assert_eq!(got.len(), 4, "EOF must come only after every message");
    }

    fn close_marker(seq: u64) -> SourceMessage {
        SourceMessage::CloseWindow {
            window: seq,
            source: 0,
            seq,
        }
    }

    #[test]
    fn window_holds_the_next_send_until_the_stage_takes_a_frame() {
        for window in [1, 4] {
            let transport = TcpTransport::loopback();
            let (mut txs, mut rxs) =
                Transport::<HashMap<u64, u64>>::tuple_channels(&transport, 1, window);
            let (tx, rx) = (txs.remove(0), rxs.remove(0));
            // A full window goes out with the receiver never receiving.
            for seq in 0..window {
                tx.send(close_marker(seq as u64)).unwrap();
            }
            let (progress, observed) = mpsc::channel();
            let sender = thread::spawn(move || {
                progress.send("sending").unwrap();
                tx.send(close_marker(window as u64)).unwrap();
                progress.send("sent").unwrap();
                tx
            });
            assert_eq!(observed.recv(), Ok("sending"));
            assert_eq!(
                observed.recv_timeout(Duration::from_millis(100)),
                Err(mpsc::RecvTimeoutError::Timeout),
                "send {} of window {window} returned with nothing received",
                window + 1
            );
            let mut got: Vec<SourceMessage> = Vec::new();
            assert!(matches!(rx.recv_batch(&mut got), Ok(1..)));
            assert_eq!(
                observed.recv_timeout(Duration::from_secs(10)),
                Ok("sent"),
                "one recv_batch must release the waiting sender"
            );
            let tx = sender.join().expect("sender thread");
            while got.len() <= window {
                rx.recv_batch(&mut got).unwrap();
            }
            drop(tx);
            assert_eq!(rx.recv_batch(&mut got), Err(RecvError::Closed));
            let seqs: Vec<u64> = got.iter().map(|m| m.source_seq().1).collect();
            assert_eq!(seqs, (0..=window as u64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn window_wait_ends_in_channel_closed_when_the_receiver_goes() {
        let transport = TcpTransport::loopback();
        let (mut txs, mut rxs) = Transport::<HashMap<u64, u64>>::tuple_channels(&transport, 1, 2);
        let (tx, rx) = (txs.remove(0), rxs.remove(0));
        tx.send(close_marker(0)).unwrap();
        tx.send(close_marker(1)).unwrap();
        // Whether the receiver goes before the third send starts waiting
        // for credit or during the wait, the send ends the same way.
        let sender = thread::spawn(move || tx.send(close_marker(2)));
        drop(rx);
        assert_eq!(sender.join().expect("sender thread"), Err(ChannelClosed));
    }

    #[test]
    fn window_a_large_last_frame_outlives_the_senders_drop() {
        // The sender leaves right after a frame no socket buffer holds,
        // with earlier frames' credits unread and more to come. Closing
        // then would reset the connection and lose the frame's tail.
        let transport = TcpTransport::loopback();
        let (mut txs, mut rxs) = Transport::<HashMap<u64, u64>>::tuple_channels(&transport, 1, 4);
        let (tx, rx) = (txs.remove(0), rxs.remove(0));
        let epoch = transport.epoch();
        let sender = thread::spawn(move || {
            for seq in 0..4 {
                let keys = if seq == 3 { 1 << 20 } else { 1 };
                tx.send(SourceMessage::Batch(TupleBatch {
                    keys: (0..keys).collect(),
                    window: 0,
                    source: 0,
                    seq,
                    emitted_at: epoch,
                }))
                .unwrap();
            }
        });
        let mut got: Vec<SourceMessage> = Vec::new();
        let end = loop {
            if let Err(end) = rx.recv_batch(&mut got) {
                break end;
            }
        };
        sender.join().expect("sender thread");
        assert_eq!(end, RecvError::Closed, "an orderly end, not a reset");
        let sizes = got.iter().map(|message| match message {
            SourceMessage::Batch(batch) => batch.keys.len(),
            SourceMessage::CloseWindow { .. } => 0,
        });
        assert_eq!(sizes.collect::<Vec<_>>(), [1, 1, 1, 1 << 20]);
    }

    #[test]
    fn corrupt_frame_surfaces_as_transport_error_and_spares_siblings() {
        let epoch = Instant::now();
        let (good_client, good_server) = loopback_pair();
        let (bad_client, bad_server) = loopback_pair();
        let rx = TcpTupleReceiver::spawn(vec![good_server, bad_server], epoch, 8);
        // The healthy connection delivers one message then a clean EOF
        // (from a thread: the sender's drop waits for the message to land).
        let healthy = thread::spawn(move || {
            TcpTupleSender::new(good_client, epoch, 8)
                .send(SourceMessage::CloseWindow {
                    window: 3,
                    source: 0,
                    seq: 1,
                })
                .unwrap();
        });
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
        healthy.join().expect("healthy sender");
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
    fn an_announced_length_reserves_nothing_and_spares_the_sibling() {
        let epoch = Instant::now();
        let (mut silent_client, silent_server) = loopback_pair();
        let (good_client, good_server) = loopback_pair();
        let rx = TcpTupleReceiver::spawn(vec![silent_server, good_server], epoch, 8);
        // Four hostile bytes announce the largest frame; nothing follows.
        let announced = (crate::wire::MAX_FRAME_LEN as u32).to_le_bytes();
        silent_client.write_all(&announced).unwrap();
        let tx = TcpTupleSender::new(good_client, epoch, 8);
        let mut got: Vec<SourceMessage> = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let seq = got.len() as u64;
            tx.send(SourceMessage::CloseWindow {
                window: seq,
                source: 0,
                seq,
            })
            .unwrap();
            assert_eq!(TupleReceiver::recv_batch(&rx, &mut got), Ok(1));
            let reactor = rx.reactor.borrow();
            let silent = &reactor.conns[0];
            if silent.tail == announced.len() {
                assert!(
                    silent.buf.capacity() <= READ_CHUNK,
                    "{} bytes reserved for a frame that never came",
                    silent.buf.capacity()
                );
                break;
            }
            assert!(Instant::now() < deadline, "the prefix never arrived");
        }
    }

    #[test]
    fn reattachable_sender_swallows_peer_death_and_resumes_after_reattach() {
        let epoch = Instant::now();
        let (client, server) = loopback_pair();
        let tx = TcpTupleSender::new(client, epoch, 2);
        let reattachable = ReattachableTupleSender(tx.clone());
        drop(server);
        // The first failed write detaches the sender. Loopback needs a
        // write or two for the RST to come back, hence the bounded poll;
        // the reattachable handle swallows every refusal.
        let deadline = Instant::now() + Duration::from_secs(10);
        while tx.send(close_marker(0)).is_ok() {
            assert!(Instant::now() < deadline, "write to dead peer never failed");
            assert_eq!(reattachable.send(close_marker(0)), Ok(()));
            thread::sleep(Duration::from_millis(1));
        }
        // Detached: every later send is refused, and dropped by the wrapper.
        assert_eq!(tx.send(close_marker(1)), Err(ChannelClosed));
        assert_eq!(reattachable.send(close_marker(1)), Ok(()));
        // A replacement connection restores delivery, including the
        // EOF-on-drop contract, and starts with a full window: two frames
        // go out before the new receiver has taken (and credited) any.
        let (client2, server2) = loopback_pair();
        let rx = TcpTupleReceiver::spawn(vec![server2], epoch, 8);
        reattachable.0.reattach(client2);
        for seq in [9, 10] {
            tx.send(close_marker(seq)).unwrap();
        }
        let mut got: Vec<SourceMessage> = Vec::new();
        while got.len() < 2 {
            TupleReceiver::recv_batch(&rx, &mut got).unwrap();
        }
        drop((tx, reattachable));
        assert_eq!(
            TupleReceiver::recv_batch(&rx, &mut got),
            Err(RecvError::Closed)
        );
        let seqs: Vec<u64> = got.iter().map(|m| m.source_seq().1).collect();
        assert_eq!(seqs, [9, 10]);
    }

    #[test]
    fn attachable_partial_receiver_merges_late_connections() {
        let epoch = Instant::now();
        let (client1, server1) = loopback_pair();
        let (rx, attach) =
            TcpPartialReceiver::<HashMap<u64, u64>>::spawn_attachable(vec![server1], epoch, 8)
                .expect("socket pair");
        // The workers run beside the receiver: a sender's last drop waits
        // until the receiver has taken its frames.
        let workers = thread::spawn(move || {
            let tx1 = TcpPartialSender::<HashMap<u64, u64>>::new(client1, epoch, 8);
            tx1.send(PartialWindow {
                window: 0,
                worker: 0,
                partial: HashMap::from([(1u64, 2u64)]),
                closed_at: Instant::now(),
            })
            .unwrap();
            drop(tx1); // clean EOF on the original connection
                       // A respawned worker dials in later; its frames land in the
                       // same queue.
            let (client2, server2) = loopback_pair();
            attach.attach(server2);
            let tx2 = TcpPartialSender::<HashMap<u64, u64>>::new(client2, epoch, 8);
            tx2.send(PartialWindow {
                window: 1,
                worker: 1,
                partial: HashMap::from([(3u64, 4u64)]),
                closed_at: Instant::now(),
            })
            .unwrap();
            // `tx2`, then `attach` go here: with no further attachment
            // possible, end-of-stream may fire.
        });
        let mut got: Vec<PartialWindow<HashMap<u64, u64>>> = Vec::new();
        while !matches!(
            PartialReceiver::recv_batch(&rx, &mut got),
            Err(RecvError::Closed)
        ) {}
        workers.join().expect("worker thread");
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
