//! Property suite for the TCP receive path (`slb_net::tcp`'s reactor): what
//! a receiving stage gets out of `recv_batch` depends only on the bytes its
//! peers wrote — not on how the kernel sliced them into reads, which
//! connection they came in on, or when a peer went away.
//!
//! * **(a) dribbles** — frame sequences written a few bytes at a time (every
//!   split point, the 4-byte header's included) over 1–4 connections arrive
//!   complete, FIFO per connection, nothing duplicated.
//! * **(b) the probe's contract** — `send` then `recv_batch` on one thread
//!   returns exactly that message; a blocking receive never returns `Ok(0)`.
//! * **(c) byte soup** — a connection carrying garbage costs exactly one
//!   `Transport` report, after the data that preceded it and before
//!   `Closed`; the slice decoder is the model for what "garbage" means.
//! * **(d) late attach** — a stream attached while the receiver waits is
//!   picked up, and `Closed` waits for the attach handle's drop.
//! * **(e) closure** — `Closed` comes only after *every* connection's EOF:
//!   while one sender is left, what it sends is what a receive returns.
//! * **(f) turns** — connections that have frames waiting are served frame by
//!   frame in turn, whatever `capacity`: a backlog already buffered from one
//!   never holds back frames that have arrived from another (a worker with
//!   two sources closes windows at the pace of the *slower* delivery); and
//!   every connection is credited with exactly the frames taken from it.
//! * **(g) unread credits** — a peer that never reads a byte back (every raw
//!   client here) is drained all the same: no error, no hang.
//!
//! The offline proptest shim has no `prop_map`, so streams are built in the
//! test bodies from primitive inputs.

use proptest::prelude::*;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use slb_engine::transport::{
    PartialReceiver, PartialSender, PartialWindow, RecvError, SourceMessage, Transport, TupleBatch,
    TupleReceiver, TupleSender,
};
use slb_net::tcp::{
    instant_to_us, TcpPartialReceiver, TcpPartialSender, TcpTransport, TcpTupleReceiver,
    TcpTupleSender,
};
use slb_net::wire::{decode_tuple_frame, encode_tuple_frame};
use slb_net::TupleFrame;

type Partial = HashMap<u64, u64>;

/// A connected `(client, server)` pair over an ephemeral loopback port.
/// The client side is `TCP_NODELAY`, so every dribble leaves at once.
fn loopback_pair() -> (TcpStream, TcpStream) {
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind loopback listener");
    let client = TcpStream::connect(listener.local_addr().unwrap()).expect("connect loopback");
    client.set_nodelay(true).unwrap();
    let (server, _) = listener.accept().expect("accept loopback");
    (client, server)
}

/// A raw client's clean end: a FIN on a frame boundary, the socket staying
/// open until the test is over. These clients never read their credits, so
/// *closing* resets the connection — to the receiver a broken one, and the
/// kernel drops whatever it had not delivered yet.
fn finish(client: &TcpStream) {
    client.shutdown(Shutdown::Write).expect("half-close");
}

/// The frames connection `conn` carries, derived from one seed per frame:
/// mostly batches of up to 300 keys, some close markers, and now and then a
/// batch larger than the reactor's 64 KiB read chunk. `seq` counts up, so a
/// reordering or a duplicate shows.
fn frames_from(conn: usize, seeds: &[u64]) -> Vec<TupleFrame> {
    let frames = seeds.iter().enumerate().map(|(seq, &seed)| match seed % 8 {
        0 => TupleFrame::Close {
            window: seed >> 8,
            source: conn as u32,
            seq: seq as u64,
        },
        kind => TupleFrame::Batch {
            window: seed >> 40,
            source: conn as u32,
            seq: seq as u64,
            emitted_us: seed >> 20,
            keys: {
                let len = if kind == 1 { 9_000 } else { seed >> 3 & 0xFF };
                (0..len).map(|i| seed ^ i).collect()
            },
        },
    });
    frames.collect()
}

fn encoded(frames: &[TupleFrame]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for frame in frames {
        encode_tuple_frame(frame, &mut bytes);
    }
    bytes
}

/// A received message back in wire form, for comparison with what was sent.
fn as_frame(message: SourceMessage, epoch: Instant) -> TupleFrame {
    match message {
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
    }
}

/// What the slice decoder makes of a connection's whole byte stream: the
/// messages in front, and whether the stream then breaks (rather than
/// ending on an EOF frame or a frame boundary).
fn model(mut bytes: &[u8]) -> (Vec<TupleFrame>, bool) {
    let mut frames = Vec::new();
    while !bytes.is_empty() {
        match decode_tuple_frame(bytes) {
            Ok((TupleFrame::Eof, _)) => break,
            Ok((frame, used)) => {
                frames.push(frame);
                bytes = &bytes[used..];
            }
            Err(_) => return (frames, true),
        }
    }
    (frames, false)
}

/// Returns once all `len` bytes written to `server`'s peer have arrived.
/// `server` is a clone of a stream the receiver owns, so it is non-blocking.
fn await_arrival(server: &TcpStream, len: usize) {
    let mut bytes = vec![0u8; len.max(1)];
    let deadline = Instant::now() + Duration::from_secs(10);
    while len > 0 && !matches!(server.peek(&mut bytes), Ok(n) if n == len) {
        assert!(Instant::now() < deadline, "written bytes never arrived");
        thread::yield_now();
    }
}

/// Receives until `Closed`, returning the messages as frames and the
/// number of `Transport` reports.
fn drain(rx: &TcpTupleReceiver, epoch: Instant) -> (Vec<TupleFrame>, usize) {
    let (mut got, mut errors) = (Vec::new(), 0);
    loop {
        match rx.recv_batch(&mut got) {
            Ok(n) => assert!(n > 0, "a blocking receive never returns empty-handed"),
            Err(RecvError::Transport(_)) => errors += 1,
            Err(RecvError::Closed) => break,
        }
    }
    let frames = got.into_iter().map(|m| as_frame(m, epoch)).collect();
    (frames, errors)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_env(32))]

    /// (a) A writer thread deals each connection's bytes out in small
    /// dribbles, round-robin, while the receiver reads: every message
    /// arrives once, in its connection's order, whatever the capacity.
    #[test]
    fn dribbled_frames_arrive_whole_and_in_order(
        seeds in proptest::collection::vec(proptest::collection::vec(any::<u64>(), 0..6), 1..5),
        dribbles in proptest::collection::vec(1usize..40, 1..24),
        capacity in 1usize..6,
    ) {
        let epoch = Instant::now();
        let sent: Vec<Vec<TupleFrame>> =
            seeds.iter().enumerate().map(|(conn, s)| frames_from(conn, s)).collect();
        let (clients, servers): (Vec<_>, Vec<_>) = sent.iter().map(|_| loopback_pair()).unzip();
        let rx = TcpTupleReceiver::spawn(servers, epoch, capacity);
        let streams: Vec<Vec<u8>> = sent.iter().map(|frames| encoded(frames)).collect();
        let dribbles = dribbles.clone(); // the harness keeps the inputs to print on failure
        let writer = thread::spawn(move || {
            let mut clients: Vec<Option<TcpStream>> = clients.into_iter().map(Some).collect();
            let mut finished = Vec::new();
            let mut offsets = vec![0usize; streams.len()];
            let mut sizes = dribbles.iter().cycle();
            while clients.iter().any(Option::is_some) {
                for (conn, slot) in clients.iter_mut().enumerate() {
                    let Some(client) = slot else { continue };
                    let rest = &streams[conn][offsets[conn]..];
                    // Large frames go out in larger steps: same split
                    // points mod the step, a bounded number of writes.
                    let step = sizes.next().unwrap() * (1 + rest.len() / 2_048);
                    let chunk = &rest[..step.min(rest.len())];
                    client.write_all(chunk).expect("the receiver keeps reading");
                    offsets[conn] += chunk.len();
                    if offsets[conn] == streams[conn].len() {
                        finish(client); // FIN on a frame boundary: a clean end
                        finished.extend(slot.take());
                    }
                }
                thread::yield_now();
            }
            finished
        });
        let (got, errors) = drain(&rx, epoch);
        let _still_open = writer.join().expect("writer thread");
        prop_assert_eq!(errors, 0);
        for (conn, sent) in sent.iter().enumerate() {
            let arrived: Vec<&TupleFrame> = got
                .iter()
                .filter(|f| matches!(f, TupleFrame::Batch { source, .. } | TupleFrame::Close { source, .. } if *source as usize == conn))
                .collect();
            prop_assert_eq!(arrived, sent.iter().collect::<Vec<_>>(), "connection {}", conn);
        }
        prop_assert_eq!(got.len(), sent.iter().map(Vec::len).sum::<usize>());
    }

    /// (a), every split point on one thread: a stream of close markers is
    /// written in dribbles, with a (blocking) receive only once a whole
    /// frame more is in; a frame surfaces when its last byte is in, never
    /// earlier, never twice.
    #[test]
    fn a_frame_surfaces_exactly_when_its_last_byte_arrives(
        markers in proptest::collection::vec(any::<u64>(), 1..6),
        dribbles in proptest::collection::vec(1usize..9, 1..12),
        capacity in 1usize..4,
    ) {
        let epoch = Instant::now();
        let sent: Vec<TupleFrame> = markers
            .iter()
            .enumerate()
            .map(|(seq, &m)| TupleFrame::Close { window: m >> 16, source: m as u32 & 0xFF, seq: seq as u64 })
            .collect();
        let mut bytes = Vec::new();
        let mut boundaries = Vec::new();
        for frame in &sent {
            encode_tuple_frame(frame, &mut bytes);
            boundaries.push(bytes.len());
        }
        let (mut client, server) = loopback_pair();
        let rx = TcpTupleReceiver::spawn(vec![server], epoch, capacity);
        let (mut got, mut batch) = (Vec::new(), Vec::new());
        let mut written = 0;
        for size in dribbles.iter().cycle() {
            if written == bytes.len() {
                break;
            }
            let chunk = &bytes[written..(written + size).min(bytes.len())];
            client.write_all(chunk).unwrap();
            written += chunk.len();
            let complete = boundaries.iter().filter(|&&end| end <= written).count();
            // A receive blocks until a whole frame is there, so it is only
            // asked for one that has been written to its last byte.
            while got.len() < complete {
                prop_assert!(matches!(rx.recv_batch(&mut batch), Ok(n) if n > 0));
                got.extend(batch.drain(..).map(|m| as_frame(m, epoch)));
                prop_assert!(got.len() <= complete, "a partial frame must not surface");
                prop_assert_eq!(&got[..], &sent[..got.len()]);
            }
        }
        finish(&client);
        prop_assert_eq!(rx.recv_batch(&mut batch), Err(RecvError::Closed));
        prop_assert_eq!(got, sent);
    }

    /// (b) The benchmark probe's contract (`benchmark/src/trace.rs`,
    /// `Hop::carry`): one `send`, then one `recv_batch` on the same thread,
    /// yields exactly that message.
    #[test]
    fn send_then_recv_batch_returns_exactly_that_message(
        seeds in proptest::collection::vec(any::<u64>(), 1..12),
        capacity in 1usize..6,
    ) {
        let transport = TcpTransport::loopback();
        let (txs, rxs) = Transport::<Partial>::tuple_channels(&transport, 1, capacity);
        let (tx, rx) = (&txs[0], &rxs[0]);
        let mut got = Vec::new();
        for (seq, &seed) in seeds.iter().enumerate() {
            let keys: Vec<u64> = (0..seed % 4_096).map(|i| seed ^ i).collect();
            tx.send(SourceMessage::Batch(TupleBatch {
                keys: keys.clone(),
                window: seed >> 32,
                source: 0,
                seq: seq as u64,
                emitted_at: transport.epoch(),
            }))
            .unwrap();
            prop_assert_eq!(rx.recv_batch(&mut got), Ok(1));
            match got.pop() {
                Some(SourceMessage::Batch(batch)) if got.is_empty() => {
                    prop_assert_eq!(batch.keys, keys);
                    prop_assert_eq!((batch.window, batch.seq), (seed >> 32, seq as u64));
                }
                _ => prop_assert!(false, "exactly the one batch sent comes back"),
            }
        }
    }

    /// (c) One connection carries some valid frames and then garbage. Its
    /// siblings' data has already been received; the sick connection's own
    /// valid prefix is delivered, then exactly one `Transport` report (none
    /// if the garbage happens to decode), and `Closed` only once the
    /// siblings end too.
    #[test]
    fn byte_soup_costs_one_report_after_the_data_and_before_closed(
        sibling_seeds in proptest::collection::vec(proptest::collection::vec(any::<u64>(), 1..4), 1..4),
        prefix_seeds in proptest::collection::vec(any::<u64>(), 0..3),
        soup in proptest::collection::vec(any::<u8>(), 1..64),
        capacity in 1usize..6,
    ) {
        let epoch = Instant::now();
        // Everything here is written before it is read, on one thread, so
        // no frame may outgrow a socket buffer: even seeds make none large.
        let small = |seeds: &[u64]| seeds.iter().map(|s| s & !1).collect::<Vec<u64>>();
        let siblings: Vec<Vec<TupleFrame>> = sibling_seeds
            .iter()
            .enumerate()
            .map(|(conn, s)| frames_from(conn, &small(s)))
            .collect();
        let sick = siblings.len();
        let (mut clients, servers): (Vec<_>, Vec<_>) =
            (0..=sick).map(|_| loopback_pair()).unzip();
        let rx = TcpTupleReceiver::spawn(servers, epoch, capacity);
        let mut sick_client = clients.pop().unwrap();
        let mut got = Vec::new();
        for (client, frames) in clients.iter_mut().zip(&siblings) {
            client.write_all(&encoded(frames)).unwrap();
        }
        let sibling_total: usize = siblings.iter().map(Vec::len).sum();
        while got.len() < sibling_total {
            prop_assert!(matches!(rx.recv_batch(&mut got), Ok(n) if n > 0));
        }
        let mut sick_bytes = encoded(&frames_from(sick, &small(&prefix_seeds)));
        sick_bytes.extend_from_slice(&soup);
        let (valid_prefix, breaks) = model(&sick_bytes);
        sick_client.write_all(&sick_bytes).unwrap();
        finish(&sick_client);
        // The siblings are open, so the receiver cannot close: the sick
        // connection's frames come first, then its report.
        while got.len() < sibling_total + valid_prefix.len() {
            prop_assert!(matches!(rx.recv_batch(&mut got), Ok(n) if n > 0));
        }
        if breaks {
            prop_assert!(matches!(rx.recv_batch(&mut got), Err(RecvError::Transport(_))));
        }
        clients.iter().for_each(finish);
        prop_assert!(matches!(rx.recv_batch(&mut got), Err(RecvError::Closed)));
        let got: Vec<TupleFrame> = got.into_iter().map(|m| as_frame(m, epoch)).collect();
        prop_assert_eq!(&got[sibling_total..], &valid_prefix[..]);
    }

    /// (d) The receiver starts with no connection at all, so only the
    /// attach wake-up can end its wait. The attached stream delivers; after
    /// its EOF the channel stays open until the handle drops.
    #[test]
    fn attach_reaches_a_waiting_receiver_and_closed_waits_for_the_handle(
        counts in proptest::collection::vec(1u64..1_000, 1..4),
        head_start_us in 0u64..2_000,
    ) {
        let epoch = Instant::now();
        let (rx, attach) = TcpPartialReceiver::<Partial>::spawn_attachable(Vec::new(), epoch, 4)
            .expect("socket pair");
        let handle_dropped = Arc::new(AtomicBool::new(false));
        let (waiting_tx, waiting_rx) = mpsc::channel();
        let receiver = {
            let handle_dropped = Arc::clone(&handle_dropped);
            thread::spawn(move || {
                waiting_tx.send(()).unwrap();
                let mut got = Vec::new();
                loop {
                    match rx.recv_batch(&mut got) {
                        Ok(n) => assert!(n > 0),
                        Err(RecvError::Transport(e)) => panic!("unexpected report: {e}"),
                        Err(RecvError::Closed) => break,
                    }
                }
                (got, handle_dropped.load(Ordering::SeqCst))
            })
        };
        waiting_rx.recv().unwrap();
        // Sometimes the receiver is already in `poll`, sometimes not yet:
        // the wake-up must work either way.
        thread::sleep(Duration::from_micros(head_start_us));
        for (worker, &count) in counts.iter().enumerate() {
            let (client, server) = loopback_pair();
            attach.attach(server);
            let tx = TcpPartialSender::<Partial>::new(client, epoch, 4);
            tx.send(PartialWindow {
                window: count,
                worker,
                partial: Partial::from([(count, count)]),
                closed_at: epoch,
            })
            .unwrap();
        } // each sender drops here: EOF on its connection
        // Give a receiver that closed on the last EOF time to get it wrong.
        thread::sleep(Duration::from_millis(5));
        handle_dropped.store(true, Ordering::SeqCst);
        drop(attach);
        let (got, closed_after_drop) = receiver.join().expect("receiver thread");
        prop_assert!(closed_after_drop, "Closed fired while the attach handle was alive");
        let mut windows: Vec<u64> = got.iter().map(|p| p.window).collect();
        windows.sort_unstable();
        let mut expected = counts.clone();
        expected.sort_unstable();
        prop_assert_eq!(windows, expected);
    }

    /// (e) `Closed` needs every connection's EOF: k senders leave one at a
    /// time, and as long as one is left, what it sends is what a receive
    /// returns — however many of its siblings' EOFs came first.
    #[test]
    fn closed_comes_only_after_every_connections_eof(
        script in proptest::collection::vec(any::<u64>(), 1..5),
    ) {
        let epoch = Instant::now();
        let (clients, servers): (Vec<_>, Vec<_>) = script.iter().map(|_| loopback_pair()).unzip();
        let rx = TcpTupleReceiver::spawn(servers, epoch, 4);
        let mut senders: Vec<TcpTupleSender> =
            clients.into_iter().map(|c| TcpTupleSender::new(c, epoch, 4)).collect();
        let mut got = Vec::new();
        for (seq, &step) in script.iter().enumerate() {
            // Who speaks and who leaves next both follow the script.
            let speaker = step as usize % senders.len();
            senders[speaker]
                .send(SourceMessage::CloseWindow { window: step, source: speaker, seq: seq as u64 })
                .unwrap();
            prop_assert_eq!(rx.recv_batch(&mut got), Ok(1), "{} senders left", senders.len());
            // Its one frame is taken, so a sender's drop does not wait.
            senders.swap_remove((step >> 8) as usize % senders.len()); // EOF on its connection
        }
        prop_assert!(senders.is_empty());
        prop_assert_eq!(rx.recv_batch(&mut got), Err(RecvError::Closed));
        let seqs: Vec<u64> = got.iter().map(|m| m.source_seq().1).collect();
        prop_assert_eq!(seqs, (0..script.len() as u64).collect::<Vec<_>>());
    }

    /// (f) Connection 0's frames are all buffered by the receiver (its first
    /// `recv_batch` read them) before the others' arrive. From then on no
    /// connection gets more than one frame ahead of one that still has
    /// frames to give — counted from that point, whatever the capacity. And
    /// each connection's reverse direction then carries one credit byte per
    /// frame taken from *it*, no more, no fewer.
    #[test]
    fn connections_with_frames_waiting_take_turns(
        seeds in proptest::collection::vec(proptest::collection::vec(any::<u64>(), 1..12), 2..5),
        capacity in 1usize..6,
    ) {
        let epoch = Instant::now();
        // Written before it is read: small frames only (even seeds).
        let sent: Vec<Vec<TupleFrame>> = seeds
            .iter()
            .enumerate()
            .map(|(conn, s)| frames_from(conn, &s.iter().map(|s| s & !1).collect::<Vec<_>>()))
            .collect();
        let (mut clients, servers): (Vec<_>, Vec<_>) = sent.iter().map(|_| loopback_pair()).unzip();
        let taps: Vec<TcpStream> = servers.iter().map(|s| s.try_clone().unwrap()).collect();
        let rx = TcpTupleReceiver::spawn(servers, epoch, capacity);
        let mut got = Vec::new();
        for (conn, frames) in sent.iter().enumerate() {
            let bytes = encoded(frames);
            clients[conn].write_all(&bytes).unwrap();
            await_arrival(&taps[conn], bytes.len());
            if conn == 0 {
                prop_assert_eq!(rx.recv_batch(&mut got), Ok(capacity.min(frames.len())));
            }
        }
        let head_start = got.len();
        clients.iter().for_each(finish);
        while !matches!(rx.recv_batch(&mut got), Err(RecvError::Closed)) {}
        // The receiver has let go of every connection: once the taps do
        // too, a client reads its credits, then the end of the stream.
        drop(taps);
        for (client, frames) in clients.iter_mut().zip(&sent) {
            let mut credits = Vec::new();
            client.read_to_end(&mut credits).expect("credits, then FIN");
            prop_assert_eq!(credits.len(), frames.len());
        }
        let mut left: Vec<usize> = sent.iter().map(Vec::len).collect();
        left[0] -= head_start;
        let mut served = vec![0usize; sent.len()];
        for message in &got[head_start..] {
            let (SourceMessage::Batch(TupleBatch { source, .. })
            | SourceMessage::CloseWindow { source, .. }) = message;
            served[*source] += 1;
            left[*source] -= 1;
            for behind in (0..sent.len()).filter(|&conn| left[conn] > 0) {
                prop_assert!(
                    served[*source] <= served[behind] + 1,
                    "connection {} ran {} frames ahead of connection {}, which had {} waiting",
                    source, served[*source] - served[behind], behind, left[behind]
                );
            }
        }
        prop_assert_eq!(left.iter().sum::<usize>(), 0);
    }

    /// (g) A client writes ten windows' worth of frames and never reads a
    /// byte back. Nothing waits on it: every frame is delivered, its credits
    /// pile up unread (or find no room), and the connection ends cleanly.
    #[test]
    fn window_credits_nobody_reads_cost_nothing(
        seeds in proptest::collection::vec(any::<u64>(), 50..51),
        window in 1usize..6,
    ) {
        let epoch = Instant::now();
        // Written before it is read: small frames only (even seeds).
        let seeds: Vec<u64> = seeds.iter().take(10 * window).map(|s| s & !1).collect();
        let sent = frames_from(0, &seeds);
        let (mut client, server) = loopback_pair();
        let rx = TcpTupleReceiver::spawn(vec![server], epoch, window);
        client.write_all(&encoded(&sent)).unwrap();
        finish(&client);
        let (got, errors) = drain(&rx, epoch);
        prop_assert_eq!(errors, 0);
        prop_assert_eq!(got, sent);
    }
}
