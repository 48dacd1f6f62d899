//! The `slb-node` roles: one process per stage instance of a distributed run.
//!
//! A multi-process run has one process per stage instance — `S` sources,
//! `W` workers, `A` aggregators — plus the orchestrator. Nothing about the
//! dataflow changes: each node process runs *the same stage function* the
//! in-process engine threads run ([`run_source_stage`], [`run_worker_stage`],
//! [`run_aggregator_stage`]), against TCP endpoints instead of the engine's
//! in-process channels, over a [`StagePlan`] every process resolves locally from the same
//! cluster spec — the orchestrator's rendered text, carried in the `Start`
//! frame. That is the whole equivalence argument: the merged
//! windowed counts cannot depend on process placement because no routing,
//! windowing, or merging code branches on it.
//!
//! ## Control plane
//!
//! ```text
//! orchestrator                               node (role, index)
//!      │   spawn `slb-node <role> --index i --control 127.0.0.1:P`
//!      │ ◀────────────── Hello { role, index, data_port } ──  (workers and
//!      │                                                       aggregators
//!      │                                                       bind first)
//!      │ ── Start { epoch, worker_ports, agg_ports, config } ▶
//!      │                      sources dial workers, workers dial
//!      │                      aggregators, stages run to completion
//!      │ ◀─── SourceReport / WorkerReport / AggregatorReport ──
//! ```
//!
//! Reports are `Instant`-free (spans and latencies travel as µs-since-epoch
//! and `LogHistogram` sparse buckets); the orchestrator rebuilds the stage reports and
//! calls the engine's own [`assemble_result`](slb_engine::assemble_result) —
//! the same merge the in-process runner uses — then optionally checks the
//! merged counts against the single-threaded exact reference.
//!
//! `slb-node` runs the **count aggregation** ([`CountAggregate`]): exact
//! merges are what make "a distributed run equals the reference" an equality
//! statement rather than a statistical one.
//!
//! ## One poll loop per process
//!
//! The control plane is three files. `supervisor.rs` is the orchestrator's
//! policy as a process-free `(state, event) → actions` machine;
//! `orchestrator.rs` drives it from one `poll(2)` loop on the caller's
//! thread, over the control listener, every control connection and the
//! machine's own deadline; and this file is the node side. Every node runs
//! one protocol and starts exactly one thread beyond its stage's, the
//! control loop: while the stage runs it is the control connection's only
//! reader and writer — a worker's heartbeats and periodic metrics snapshots
//! (of the one `HopTelemetry` the node handed its stage) leave on its timer,
//! `Rejoin` / `Exclude` / `Release` reach the stage over a queue, an
//! aggregator's late data connections are accepted — and once the stage
//! returns it hands the connection back for the final `Metrics` frame and
//! the report. Nothing in the control plane sleeps or locks, and the node's
//! two blocking reads of the control connection (for `Start`, and an
//! aggregator's for `Release`) and a worker's or an aggregator's wait for
//! its upstream data connections give up at `supervisor::CONTROL_TIMEOUT`.
//!
//! ## Fault tolerance
//!
//! Every run speaks the supervised protocol: workers stream `Heartbeat`
//! frames, sources hold their connections for replay and aggregators take
//! late connections until `Release`. `orchestrate --fault-tolerant` (see
//! [`OrchestrateOptions`]) decides two things only. Workers are given a
//! checkpoint directory and persist a checkpoint record — a
//! [`WorkerCheckpoint`] base or a window-sized delta on top of it — through
//! a [`DurableCheckpointStore`] at every window boundary. And the
//! orchestrator watches three death signals (control connection close,
//! child-process exit, heartbeat silence) and answers a worker death by
//! respawning the process with `--rejoin`, killing the old one first unless
//! it was seen to exit, where a run without the flag fails:
//!
//! ```text
//! orchestrator                     respawned worker w        sources
//!      │  spawn `slb-node worker --rejoin --ckpt-dir D`
//!      │ ◀── Rejoin { w, data_port, cursors } ──  (cursors restored
//!      │                                           from disk)
//!      │ ─────────── Rejoin { w, port, cursors } ─────────────▶
//!      │ ── Start ──▶ (accepts S conns)   sources re-dial the new
//!      │                                  port and replay each from
//!      │                                  cursors[s]; the worker's
//!      │                                  dedup drops anything its
//!      │                                  checkpoint already covers
//! ```
//!
//! A worker that exhausts its respawn budget is *excluded*: sources rescale
//! it out at the next window boundary, aggregators finalize without its
//! partials, and the run terminates degraded-but-reported
//! ([`OrchestratorOutcome::degraded`]) instead of hanging. Once every worker
//! is done or excluded the orchestrator broadcasts `Release`, which ends the
//! sources' post-emission replay wait and stops the aggregators' late
//! accepts.

use std::collections::HashMap;
use std::io::{ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use slb_core::{CountAggregate, DurableCheckpointStore, WorkerCheckpoint};
use slb_engine::transport::{capacity_in_batches, partial_channel_capacity};
use slb_engine::windows::source_stream;
use slb_engine::{
    run_aggregator_stage, run_source_stage, run_worker_stage, AggregatorStageReport,
    CheckpointRecord, RecoveryMetrics, SourceControl, SourceControlEvent, SourceStageReport,
    StagePlan, WorkerRecovery, WorkerStageReport,
};
use slb_telemetry::{log, stage, HopTelemetry, MetricsSnapshot};
use slb_workloads::KeyId;

use crate::cluster::{ClusterSpec, NodeRole, RunSpec};
use crate::poll;
use crate::supervisor::CONTROL_TIMEOUT;
use crate::tcp::{
    connect_with_retry, Conn, PartialAttach, ReattachableTupleSender, Step, TcpPartialReceiver,
    TcpPartialSender, TcpTupleReceiver, TcpTupleSender,
};
use crate::wire::{encode_frame, ControlFrame};

pub use crate::orchestrator::{
    exact_reference, orchestrate, orchestrate_with, OrchestrateOptions, OrchestratorOutcome,
};

/// How often a worker streams `Heartbeat` frames.
const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(100);

/// Connect-retry schedule for data-plane dials (sources → workers,
/// workers → aggregators): the peer is known to be starting, so retry hard.
const DIAL_ATTEMPTS: u32 = 40;
const DIAL_BASE_DELAY: Duration = Duration::from_millis(25);

/// Connect-retry schedule for a source re-dialing a respawned worker: the
/// listener was already bound when Rejoin was forwarded, so the first
/// attempt almost always lands — keep the backoff tight.
const REJOIN_DIAL_ATTEMPTS: u32 = 40;
const REJOIN_DIAL_BASE_DELAY: Duration = Duration::from_millis(5);

/// The count partial `slb-node` ships on its worker → aggregator hop.
pub(crate) type CountPartial = HashMap<KeyId, u64>;

pub(crate) fn io_err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

/// Writes one control frame to `stream`.
pub(crate) fn send_control(stream: &mut TcpStream, frame: &ControlFrame) -> Result<(), String> {
    let mut buf = Vec::new();
    encode_frame(frame, &mut buf);
    stream
        .write_all(&buf)
        .map_err(|e| io_err("control write failed", e))
}

/// The next control frame `conn` has buffered, if a whole one is; `Err` says
/// why the connection is over (a FIN between frames carries no report of
/// its own). Control frames carry no timestamp, so the epoch [`Conn::step`]
/// would rebase one onto is moot.
pub(crate) fn next_control(conn: &mut Conn) -> Result<Option<ControlFrame>, String> {
    match conn.step(Instant::now()) {
        Step::Message(frame) => Ok(Some(frame)),
        Step::Dry => Ok(None),
        Step::End(end) => Err(end
            .err()
            .unwrap_or_else(|| "control peer closed the connection".into())),
    }
}

/// Waits for the next control frame — `what` — on a node's own (blocking)
/// control connection, for at most `deadline`: an orchestrator that wedged,
/// or was never there (a hand-wired cluster), ends the wait in an error
/// that names it instead of parking the process forever.
fn recv_control(conn: &mut Conn, what: &str, deadline: Duration) -> Result<ControlFrame, String> {
    let until = Instant::now() + deadline;
    loop {
        if let Some(frame) = next_control(conn)? {
            return Ok(frame);
        }
        let left = until.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(format!(
                "no {what} from the orchestrator within {deadline:?}"
            ));
        }
        // A read that times out reads as "nothing yet"; the loop re-checks.
        conn.stream
            .set_read_timeout(Some(left))
            .map_err(|e| io_err("bounding the control read", e))?;
        conn.read_once();
    }
}

/// Maps the orchestrator's wall-clock epoch onto this process's monotonic
/// clock. Same-machine clock reads make this accurate to the syscall jitter;
/// it anchors *metrics* only — counts never depend on it.
fn epoch_from_unix_micros(epoch_unix_micros: u64) -> Instant {
    let now_instant = Instant::now();
    let now_unix = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or_default()
        .as_micros() as u64;
    if now_unix >= epoch_unix_micros {
        now_instant
            .checked_sub(Duration::from_micros(now_unix - epoch_unix_micros))
            .unwrap_or(now_instant)
    } else {
        now_instant + Duration::from_micros(epoch_unix_micros - now_unix)
    }
}

/// Dials a local data port with bounded retry: the peer process is known to
/// be starting (its Hello already reached the orchestrator), so transient
/// refusals during its accept-loop setup are expected, not fatal.
fn dial(port: u16) -> Result<TcpStream, String> {
    connect_with_retry(&format!("127.0.0.1:{port}"), DIAL_ATTEMPTS, DIAL_BASE_DELAY)
        .map_err(|e| io_err("dialing data port failed", e))
}

/// Accepts the data connections of a stage's `peers` upstream instances,
/// waiting for them for at most `deadline`: an upstream peer that never
/// dials ends the wait in an error that says how many did.
fn accept_peers(
    listener: &TcpListener,
    peers: usize,
    deadline: Duration,
) -> Result<Vec<TcpStream>, String> {
    let until = Instant::now() + deadline;
    let mut streams = Vec::with_capacity(peers);
    while streams.len() < peers {
        let now = Instant::now();
        if now >= until {
            return Err(format!(
                "accepted {} of {peers} data connections within {deadline:?}",
                streams.len()
            ));
        }
        let mut fds = [poll::PollFd::readable(listener.as_raw_fd())];
        poll::wait_readable(&mut fds, poll::timeout_until(Some(until), now))
            .map_err(|e| io_err("waiting for data connections", e))?;
        // A readable listener has a connection queued: accepting it does not
        // block.
        if fds[0].is_ready() {
            let (stream, _) = listener
                .accept()
                .map_err(|e| io_err("accepting data connection", e))?;
            streams.push(stream);
        }
    }
    Ok(streams)
}

/// The periodic (non-final) [`MetricsSnapshot`] source: the
/// [`HopTelemetry`] the node handed its stage, which updates it in place.
struct Ticker {
    interval: Duration,
    hop: Arc<HopTelemetry>,
    due: Instant,
}

/// A node's control connection and what serving it while the stage runs
/// takes: a `poll(2)` loop beside the stage over the control connection, an
/// aggregator's data listener and a wake-up descriptor, with a timer for
/// heartbeats and metrics ticks — the connection's only reader and writer
/// until the stage is over.
struct ControlLoop {
    control: Conn,
    /// Whether the control connection still is one.
    open: bool,
    stage: u8,
    index: u32,
    /// Where the role wants the orchestrator's frames. A connection that
    /// breaks reads as a last `Release`: with the orchestrator gone, waiting
    /// for a `Rejoin` that can never come would wedge the process.
    on_frame: Box<dyn FnMut(ControlFrame) + Send>,
    /// An aggregator's data listener and its receiver's attach handle, for
    /// respawned workers' fresh connections, until `Release`. Letting go of
    /// the handle is what lets the receiver close once every connected
    /// worker has sent EOF.
    late: Option<(TcpListener, PartialAttach)>,
    /// When the next heartbeat is due (workers).
    heartbeat: Option<Instant>,
    metrics: Option<Ticker>,
    /// Periodic snapshots sent so far.
    seq: u64,
    /// Whether `Release` was read (or can no longer arrive).
    released: bool,
}

impl ControlLoop {
    /// A stage's end of run: the final snapshot — `exact`, what the stage's
    /// report says, under this node's name — then the report.
    fn finish(&mut self, exact: MetricsSnapshot, report: &ControlFrame) -> Result<(), String> {
        let snapshot = MetricsSnapshot {
            stage: self.stage,
            instance: self.index,
            seq: self.seq,
            finished: true,
            ..exact
        };
        send_control(&mut self.control.stream, &ControlFrame::Metrics(snapshot))?;
        send_control(&mut self.control.stream, report)
    }

    /// Runs `stage` on this thread — with the loop beside it on the
    /// process's one helper thread — and takes the control connection back
    /// for the final `Metrics` frame and the report. The stage returning
    /// ends the loop at once, whatever its timers say.
    fn beside<R>(self, stage: impl FnOnce() -> R) -> Result<(Self, R), String> {
        let (wake, woken) =
            UnixStream::pair().map_err(|e| io_err("creating the wake-up pair", e))?;
        let thread = thread::spawn(move || self.run(&woken));
        let report = stage();
        drop(wake);
        let back = thread.join();
        let back = back.map_err(|_| "the control loop panicked".to_string())?;
        Ok((back, report))
    }

    fn run(mut self, woken: &UnixStream) -> Self {
        // A control connection that is gone leaves the loop nothing to do.
        while self.open {
            let now = Instant::now();
            let due = self.metrics.as_ref().map(|ticker| ticker.due);
            let due = self.heartbeat.into_iter().chain(due).min();
            // `poll` passes over a negative descriptor.
            let late = self.late.as_ref().map(|(listener, _)| listener.as_raw_fd());
            let fds = [
                self.control.stream.as_raw_fd(),
                late.unwrap_or(-1),
                woken.as_raw_fd(),
            ];
            let mut fds = fds.map(poll::PollFd::readable);
            let waited = poll::wait_readable(&mut fds, poll::timeout_until(due, now));
            if waited.is_err() || fds[2].is_ready() {
                break;
            }
            if fds[1].is_ready() {
                self.admit();
            }
            if fds[0].is_ready() {
                self.read();
            }
            self.tick(Instant::now());
        }
        self
    }

    /// Sends what has come due.
    fn tick(&mut self, now: Instant) {
        if self.heartbeat.is_some_and(|due| now >= due) {
            self.heartbeat = Some(now + HEARTBEAT_INTERVAL);
            self.send(ControlFrame::Heartbeat { worker: self.index });
        }
        if let Some(ticker) = self.metrics.as_mut().filter(|ticker| now >= ticker.due) {
            ticker.due = now + ticker.interval;
            let transport = ticker.hop.snapshot();
            let snap = MetricsSnapshot {
                stage: self.stage,
                instance: self.index,
                seq: self.seq,
                // Items-so-far approximation: what this stage has pushed
                // through its outbound (source) or inbound (worker,
                // aggregator) hop. The final snapshot replaces it with the
                // report's exact count.
                items: if self.stage == stage::SOURCE {
                    transport.tuples_sent
                } else {
                    transport.tuples_received
                },
                transport,
                ..MetricsSnapshot::default()
            };
            self.seq += 1;
            self.send(ControlFrame::Metrics(snap));
        }
    }

    fn send(&mut self, frame: ControlFrame) {
        if self.open && send_control(&mut self.control.stream, &frame).is_err() {
            self.hang_up();
        }
    }

    /// Reads the control connection once and serves every frame that
    /// completed.
    fn read(&mut self) {
        self.control.read_once();
        loop {
            match next_control(&mut self.control) {
                Ok(Some(frame)) => self.serve(frame),
                Ok(None) => break,
                Err(_) => break self.hang_up(),
            }
        }
    }

    /// Passes on what the orchestrator sends a running node.
    fn serve(&mut self, frame: ControlFrame) {
        match frame {
            ControlFrame::Release => {
                self.released = true;
                self.late = None;
            }
            ControlFrame::Rejoin { .. } | ControlFrame::Exclude { .. } => {}
            _ => return,
        }
        (self.on_frame)(frame);
    }

    /// The control connection is gone: nothing more to send, and nothing
    /// more can arrive.
    fn hang_up(&mut self) {
        self.open = false;
        self.serve(ControlFrame::Release);
    }

    /// Hands every data connection waiting on the aggregator's listener to
    /// the stage's receiver.
    fn admit(&mut self) {
        while let Some((listener, attach)) = &self.late {
            match listener.accept() {
                Ok((stream, _)) => attach.attach(stream),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => self.late = None,
            }
        }
    }
}

/// A source's [`SourceControl`]: the orchestrator's frames as the control
/// loop forwards them. A respawned worker's restored cursors —
/// and the port to re-dial — travel in the `Rejoin` frame.
struct Supervised<'a> {
    /// The queue closing counts as `Release`.
    events: mpsc::Receiver<ControlFrame>,
    senders: &'a [ReattachableTupleSender],
    index: usize,
    /// The data port of the `Rejoin` being served.
    rejoin_port: u16,
}

impl Supervised<'_> {
    fn event(&mut self, frame: ControlFrame) -> SourceControlEvent {
        match frame {
            ControlFrame::Rejoin {
                worker,
                data_port,
                cursors,
            } => {
                self.rejoin_port = data_port;
                SourceControlEvent::Rejoin {
                    worker: worker as usize,
                    from_seq: cursors.get(self.index).copied().unwrap_or(0),
                }
            }
            ControlFrame::Exclude { worker } => SourceControlEvent::Exclude {
                worker: worker as usize,
            },
            // `Release`; the orchestrator sends a source nothing else.
            _ => SourceControlEvent::Release,
        }
    }
}

impl SourceControl for Supervised<'_> {
    fn poll(&mut self) -> Option<SourceControlEvent> {
        let frame = self.events.try_recv().ok()?;
        Some(self.event(frame))
    }

    fn wait(&mut self) -> SourceControlEvent {
        let frame = self.events.recv().unwrap_or(ControlFrame::Release);
        self.event(frame)
    }

    fn reattach(&mut self, worker: usize) {
        let (index, port) = (self.index, self.rejoin_port);
        match connect_with_retry(
            &format!("127.0.0.1:{port}"),
            REJOIN_DIAL_ATTEMPTS,
            REJOIN_DIAL_BASE_DELAY,
        ) {
            Ok(stream) => self.senders[worker].0.reattach(stream),
            Err(e) => log::error(
                "slb-node",
                &format!("source {index}: re-dialing worker {worker} failed: {e}"),
            ),
        }
    }
}

/// What a source's report says, as its end-of-stage snapshot.
fn source_final_snapshot(report: &SourceStageReport) -> MetricsSnapshot {
    MetricsSnapshot {
        items: report.sent,
        transport: report.transport.clone(),
        ..MetricsSnapshot::default()
    }
}

/// What a worker's report says, as its end-of-stage snapshot, with the
/// worker's full latency distribution merged across phases.
fn worker_final_snapshot(report: &WorkerStageReport) -> MetricsSnapshot {
    let mut snap = MetricsSnapshot {
        items: report.processed,
        windows_closed: report.windows_closed,
        checkpoints: report.checkpoints,
        recovery: report.recovery,
        transport: report.transport.clone(),
        ..MetricsSnapshot::default()
    };
    for hist in &report.phase_latencies {
        snap.latency.merge(hist);
    }
    snap
}

/// What an aggregator shard's report says, as its end-of-stage snapshot.
fn aggregator_final_snapshot(report: &AggregatorStageReport<CountPartial>) -> MetricsSnapshot {
    MetricsSnapshot {
        items: report.merged,
        windows_closed: report.finalized.len() as u64,
        recovery: RecoveryMetrics {
            duplicates_dropped: report.duplicates_dropped,
            transport_errors: report.transport_errors,
            ..RecoveryMetrics::default()
        },
        transport: report.transport.clone(),
        latency: report.latencies.clone(),
        ..MetricsSnapshot::default()
    }
}

/// Per-process knobs for [`run_node_with`]. The default is a first
/// incarnation that keeps no durable log.
#[derive(Debug, Clone, Default)]
pub struct NodeOptions {
    /// This worker is a respawn: restore from the durable checkpoint in
    /// `ckpt_dir` and announce with `Rejoin` instead of `Hello`. Workers
    /// only.
    pub rejoin: bool,
    /// Directory for a worker's durable checkpoint log: a worker given one
    /// persists every checkpoint record to it, one without keeps none.
    /// Required with `rejoin`.
    pub ckpt_dir: Option<PathBuf>,
    /// Deterministic fault injection (workers only): abort the process at
    /// the N-th window finalization, after shipping the window's partials
    /// but before the durable save — the exact interleaving of the
    /// tail-window re-ship race. Never passed to respawned incarnations.
    pub crash_after_closes: Option<u64>,
    /// Stream periodic [`MetricsSnapshot`] frames at this cadence while the
    /// stage runs, from the control loop beside it. `None` sends none; the
    /// exact final snapshot is sent either way.
    pub metrics_interval: Option<Duration>,
}

/// Runs one node process: handshake, data-plane wiring, the stage itself,
/// and the end-of-run report. Blocks until the stage completes.
pub fn run_node_with(
    role: NodeRole,
    index: usize,
    control: &str,
    options: &NodeOptions,
) -> Result<(), String> {
    // A worker with a checkpoint directory opens its durable store first:
    // a rejoin restores state from disk and sends the recovered cursors
    // with its announcement so sources know where replay starts.
    let (store, initial) = open_checkpoints(role, index, options)?;
    let stream = connect_with_retry(control, DIAL_ATTEMPTS, DIAL_BASE_DELAY)
        .map_err(|e| io_err("connecting to orchestrator", e))?;
    let mut control = Conn::new(stream);
    // This end stays blocking: the control loop reads it only once `poll`
    // says readable, this thread reads it to wait, and a report larger than
    // the socket buffer is simply written.
    control
        .stream
        .set_nonblocking(false)
        .map_err(|e| io_err("setting the control connection blocking", e))?;
    // Workers and aggregators bind their data listener *before* saying
    // hello (or rejoin), so the announcement can carry the port.
    let listener = match role {
        NodeRole::Source => None,
        NodeRole::Worker | NodeRole::Aggregator => Some(
            TcpListener::bind(("127.0.0.1", 0)).map_err(|e| io_err("binding data listener", e))?,
        ),
    };
    let data_port = match &listener {
        Some(listener) => listener
            .local_addr()
            .map_err(|e| io_err("reading listener address", e))?
            .port(),
        None => 0,
    };
    let announcement = if options.rejoin {
        let cursors = initial.as_ref().map(|ckpt| ckpt.next_seq.clone());
        ControlFrame::Rejoin {
            worker: index as u32,
            data_port,
            cursors: cursors.unwrap_or_default(),
        }
    } else {
        ControlFrame::Hello {
            role: role.as_u8(),
            index: index as u32,
            data_port,
        }
    };
    send_control(&mut control.stream, &announcement)?;
    let ControlFrame::Start {
        epoch_unix_micros,
        worker_ports,
        aggregator_ports,
        config,
    } = recv_control(&mut control, "Start", CONTROL_TIMEOUT)?
    else {
        return Err("expected Start frame".into());
    };
    let spec = std::str::from_utf8(&config)
        .map_err(|e| e.to_string())
        .and_then(ClusterSpec::parse)
        .map_err(|e| io_err("parsing run config", e))?;
    let plan = spec.stage_plan()?;
    // The stage updates this record in place; the control loop snapshots
    // it mid-run, off its ticker.
    let hop: Arc<HopTelemetry> = Arc::default();
    let now = Instant::now();
    let ticker = |interval| Ticker {
        interval,
        hop: hop.clone(),
        due: now + interval,
    };
    let control = ControlLoop {
        control,
        open: true,
        stage: role.as_u8(),
        index: index as u32,
        on_frame: Box::new(|_| {}),
        late: None,
        heartbeat: (role == NodeRole::Worker).then_some(now),
        metrics: options.metrics_interval.map(ticker),
        seq: 0,
        released: false,
    };
    let node = Node {
        index,
        plan,
        spec,
        epoch: epoch_from_unix_micros(epoch_unix_micros),
        hop,
    };
    match (role, listener) {
        (NodeRole::Worker, Some(listener)) => {
            let persist = persist_hook(store, index, options.crash_after_closes);
            node.worker(
                control,
                &listener,
                &aggregator_ports,
                persist,
                initial.as_ref(),
            )
        }
        (NodeRole::Aggregator, Some(listener)) => node.aggregator(control, listener),
        _ => node.source(control, &worker_ports),
    }
}

/// Opens a worker's durable checkpoint log, if it was given a directory,
/// and, for a respawn, restores what it holds; no other node has one.
fn open_checkpoints(
    role: NodeRole,
    index: usize,
    options: &NodeOptions,
) -> Result<(Option<DurableCheckpointStore>, Option<WorkerCheckpoint>), String> {
    let dir = match (&options.ckpt_dir, options.rejoin) {
        _ if role != NodeRole::Worker => return Ok((None, None)),
        (Some(dir), _) => dir,
        (None, false) => return Ok((None, None)),
        (None, true) => return Err("a rejoining worker restores from --ckpt-dir DIR".into()),
    };
    let store = DurableCheckpointStore::open(dir, index)
        .map_err(|e| io_err("opening durable checkpoint store", e))?;
    let Some(log) = store.load().filter(|_| options.rejoin) else {
        return Ok((Some(store), None));
    };
    let ckpt = WorkerCheckpoint::restore(&log.base, log.deltas.iter().map(Vec::as_slice))
        .map_err(|e| io_err("decoding restored checkpoint", e))?;
    log::info(
        "slb-node",
        &format!(
            "worker {index}: restored close {} from base generation {} + {} deltas",
            ckpt.windows_closed,
            log.generation,
            log.deltas.len()
        ),
    );
    Ok((Some(store), Some(ckpt)))
}

/// One node past its handshake: what every role's body needs.
struct Node {
    index: usize,
    spec: ClusterSpec,
    plan: StagePlan,
    epoch: Instant,
    /// The hop record this node's stage updates (and its ticker reads).
    hop: Arc<HopTelemetry>,
}

impl Node {
    /// The source body: emission serving the `Rejoin` / `Exclude` /
    /// `Release` frames the control loop forwards, over senders that re-dial
    /// respawned workers.
    fn source(&self, mut control: ControlLoop, worker_ports: &[u16]) -> Result<(), String> {
        let (index, epoch) = (self.index, self.epoch);
        let window = capacity_in_batches(self.plan.queue_capacity, self.plan.batch_size);
        let streams = worker_ports.iter().map(|&port| dial(port));
        let streams = streams.collect::<Result<Vec<_>, _>>()?.into_iter();
        let (forward, events) = mpsc::channel();
        let forward = move |frame| drop(forward.send(frame));
        control.on_frame = Box::new(forward);
        let (mut back, report) = control.beside(|| {
            let senders: Vec<_> = streams
                .map(|s| ReattachableTupleSender(TcpTupleSender::new(s, epoch, window)))
                .collect();
            let control = Supervised {
                events,
                senders: &senders,
                index,
                rejoin_port: 0,
            };
            self.run_source(&senders, control)
            // The senders go here: EOF to every worker.
        })?;
        let snapshot = source_final_snapshot(&report);
        let index = index as u32;
        back.finish(snapshot, &ControlFrame::SourceReport { index, report })
    }

    /// The worker body: heartbeats and live metrics from the control loop,
    /// every checkpoint record through `persist`, and a return at the
    /// plan's last window, its tuple connections still open.
    fn worker(
        &self,
        control: ControlLoop,
        listener: &TcpListener,
        aggregator_ports: &[u16],
        mut persist: impl FnMut(CheckpointRecord<'_>),
        initial: Option<&WorkerCheckpoint>,
    ) -> Result<(), String> {
        let (index, epoch, plan) = (self.index, self.epoch, &self.plan);
        let incoming = accept_peers(listener, plan.sources, CONTROL_TIMEOUT)?;
        let capacity = capacity_in_batches(plan.queue_capacity, plan.batch_size);
        let receiver = TcpTupleReceiver::spawn(incoming, epoch, capacity);
        let window = partial_channel_capacity(plan.spawned_workers);
        let mut partial_senders: Vec<TcpPartialSender<CountPartial>> = Vec::new();
        for &port in aggregator_ports {
            partial_senders.push(TcpPartialSender::new(dial(port)?, epoch, window));
        }
        let recovery = WorkerRecovery::Durable {
            initial,
            persist: &mut persist,
        };
        let (mut back, report) = control.beside(|| {
            run_worker_stage(
                plan,
                index,
                epoch,
                &CountAggregate,
                receiver,
                &partial_senders,
                recovery,
                &self.hop,
            )
        })?;
        drop(partial_senders); // EOF to every aggregator
        let snapshot = worker_final_snapshot(&report);
        let index = index as u32;
        back.finish(snapshot, &ControlFrame::WorkerReport { index, report })
    }

    /// The aggregator body: an attachable receiver, fed the respawned
    /// workers' fresh connections by the control loop, which also forwards
    /// exclusions into the stage and ticks live metrics.
    fn aggregator(&self, mut control: ControlLoop, listener: TcpListener) -> Result<(), String> {
        let (index, epoch, plan) = (self.index, self.epoch, &self.plan);
        let incoming = accept_peers(&listener, plan.spawned_workers, CONTROL_TIMEOUT)?;
        let capacity = partial_channel_capacity(plan.spawned_workers);
        let (forward, exclusions) = mpsc::channel();
        let forward = move |frame| {
            if let ControlFrame::Exclude { worker } = frame {
                let _ = forward.send(worker as usize);
            }
        };
        control.on_frame = Box::new(forward);
        let (receiver, attach) =
            TcpPartialReceiver::<CountPartial>::spawn_attachable(incoming, epoch, capacity)
                .map_err(|e| io_err("creating the attach wake-up pair", e))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| io_err("setting data listener non-blocking", e))?;
        control.late = Some((listener, attach));
        let (mut back, report) = control.beside(|| {
            run_aggregator_stage(
                plan,
                index,
                &CountAggregate,
                receiver,
                &exclusions,
                &self.hop,
            )
        })?;
        let snapshot = aggregator_final_snapshot(&report);
        let index = index as u32;
        back.finish(snapshot, &ControlFrame::AggregatorReport { index, report })?;
        // Stay until the orchestrator's Release has been read (or its
        // connection is gone, or it has said nothing for the handshake
        // deadline). Exiting with that frame still unread closes
        // the socket with pending input, which resets the connection — and
        // a reset discards the report just sent if it overtakes the
        // orchestrator's read of it.
        let mut released = back.released;
        while !released {
            released = matches!(
                recv_control(&mut back.control, "Release", CONTROL_TIMEOUT),
                Ok(ControlFrame::Release) | Err(_)
            );
        }
        Ok(())
    }

    /// Runs this node's source over `senders`: the one call site of
    /// [`run_source_stage`] (the two run specs yield different stream types,
    /// hence the two arms).
    fn run_source(
        &self,
        senders: &[ReattachableTupleSender],
        control: Supervised<'_>,
    ) -> SourceStageReport {
        let (plan, index, hop) = (&self.plan, self.index, &*self.hop);
        match &self.spec.run {
            RunSpec::Engine(cfg) => {
                let stream = |_phase| source_stream(cfg, index);
                run_source_stage(plan, index, stream, senders, control, hop)
            }
            RunSpec::Scenario(cfg) => {
                let stream = |phase| cfg.scenario.phase_stream(phase, index);
                run_source_stage(plan, index, stream, senders, control, hop)
            }
        }
    }
}

/// The hook that mirrors every checkpoint record a worker saves to its
/// durable log, if it keeps one.
fn persist_hook(
    mut store: Option<DurableCheckpointStore>,
    index: usize,
    crash_after_closes: Option<u64>,
) -> impl FnMut(CheckpointRecord<'_>) {
    let mut closes_persisted = 0u64;
    move |record| {
        // Deterministic crash injection: the hook runs after the window's
        // partials shipped but before the save below makes the close
        // durable — aborting here is exactly the tail-window re-ship race,
        // pinned to a fixed window instead of a wall-clock kill.
        closes_persisted += 1;
        if crash_after_closes == Some(closes_persisted) {
            std::process::abort();
        }
        let Some(store) = store.as_mut() else {
            return;
        };
        // A failed save degrades durability (a later crash replays more),
        // never correctness — keep running.
        let saved = match record {
            CheckpointRecord::Base(bytes) => store.save(bytes).map(drop),
            CheckpointRecord::Delta(bytes) => store.append(bytes),
        };
        if let Err(e) = saved {
            log::error(
                "slb-node",
                &format!("worker {index}: checkpoint save failed: {e}"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_mapping_is_monotone_and_close_to_now() {
        let now_unix = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap()
            .as_micros() as u64;
        let epoch = epoch_from_unix_micros(now_unix);
        // The mapped instant is within a second of "now" on any sane clock.
        assert!(epoch.elapsed() < Duration::from_secs(1));
        let earlier = epoch_from_unix_micros(now_unix.saturating_sub(5_000_000));
        assert!(earlier <= epoch);
    }

    /// A node's two waits on its control connection (`Start`, an
    /// aggregator's `Release`) are bounded: a frame that is there is
    /// returned, a silent orchestrator ends the wait at the deadline with an
    /// error naming what never came — half a frame is still silence — and a
    /// vanished one ends it at once.
    #[test]
    fn recv_control_ends_at_its_deadline_and_names_what_it_waited_for() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let mut orchestrator = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut conn = Conn::new(listener.accept().unwrap().0);
        conn.stream.set_nonblocking(false).unwrap();
        let short = Duration::from_millis(60);

        send_control(&mut orchestrator, &ControlFrame::Release).unwrap();
        let got = recv_control(&mut conn, "Release", short);
        assert_eq!(got, Ok(ControlFrame::Release));

        let mut frame = Vec::new();
        encode_frame(&ControlFrame::Exclude { worker: 2 }, &mut frame);
        orchestrator.write_all(&frame[..frame.len() - 1]).unwrap();
        let started = Instant::now();
        let err = recv_control(&mut conn, "Start", short).unwrap_err();
        assert!(started.elapsed() >= short, "gave up early: {err}");
        assert!(started.elapsed() < Duration::from_secs(5), "overslept");
        assert!(err.contains("no Start from the orchestrator"), "{err}");
        // The rest of the frame arrives: nothing was lost to the timeout.
        orchestrator.write_all(&frame[frame.len() - 1..]).unwrap();
        let got = recv_control(&mut conn, "Exclude", short);
        assert_eq!(got, Ok(ControlFrame::Exclude { worker: 2 }));

        drop(orchestrator);
        let started = Instant::now();
        let err = recv_control(&mut conn, "Release", Duration::from_secs(30)).unwrap_err();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "sat out the deadline"
        );
        assert!(err.contains("closed"), "{err}");
    }

    /// A stage's wait for its upstream data connections is bounded too: a
    /// peer that never dials ends it at the deadline with a count of those
    /// that did; when all of them dial, all of them come back.
    #[test]
    fn accept_peers_ends_at_its_deadline_and_counts_who_dialed() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let short = Duration::from_millis(60);

        let _one = TcpStream::connect(addr).unwrap();
        let started = Instant::now();
        let err = accept_peers(&listener, 2, short).unwrap_err();
        assert!(started.elapsed() >= short, "gave up early: {err}");
        assert!(started.elapsed() < Duration::from_secs(5), "overslept");
        assert!(err.contains("accepted 1 of 2 data connections"), "{err}");

        let _both = [addr, addr].map(|a| TcpStream::connect(a).unwrap());
        let streams = accept_peers(&listener, 2, Duration::from_secs(5)).unwrap();
        assert_eq!(streams.len(), 2);
    }
}
