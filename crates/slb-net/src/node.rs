//! The `slb-node` roles and the orchestrator that wires them together.
//!
//! A multi-process run has one process per stage instance — `S` sources,
//! `W` workers, `A` aggregators — plus the orchestrator. Nothing about the
//! dataflow changes: each node process runs *the same stage function* the
//! in-process engine threads run ([`run_source_stage`], [`run_worker_stage`],
//! [`run_aggregator_stage`]), against TCP endpoints instead of crossbeam
//! ones, over a [`StagePlan`] every process resolves locally from the same
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
//! and RLE histograms); the orchestrator rebuilds the stage reports and
//! calls the engine's own [`assemble_result`] — the same merge the
//! in-process runner uses — then optionally checks the merged counts against
//! the single-threaded exact reference.
//!
//! `slb-node` runs the **count aggregation** ([`CountAggregate`]): exact
//! merges are what make "a distributed run equals the reference" an equality
//! statement rather than a statistical one.
//!
//! ## Fault tolerance
//!
//! With [`OrchestrateOptions::fault_tolerant`] the orchestrator becomes a
//! *supervisor*: workers persist a checkpoint record — a
//! [`WorkerCheckpoint`] base or a window-sized delta on top of it — through
//! a [`DurableCheckpointStore`] at every window boundary and stream
//! `Heartbeat` frames; the orchestrator watches three death signals (control
//! connection close, child-process exit, heartbeat silence) and answers a
//! worker death by respawning the process with `--rejoin`:
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
//! sources' post-emission replay wait and stops the aggregators' late-accept
//! loops.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crossbeam_channel::bounded;
use slb_core::{CountAggregate, DurableCheckpointStore, WorkerCheckpoint};
use slb_engine::transport::{capacity_in_batches, partial_channel_capacity};
use slb_engine::windows::source_stream;
use slb_engine::{
    assemble_result, exact_scenario_windowed_counts, exact_windowed_counts, run_aggregator_stage,
    run_source_stage, run_worker_stage, AggregatorStageReport, AggregatorSupervision,
    CheckpointRecord, EngineResult, LatencyTracker, NoRecovery, RecoveryMetrics, SourceControl,
    SourceControlEvent, SourceStageReport, StagePlan, Supervised, TupleSender, WindowId,
    WindowedRun, WorkerRecovery, WorkerStageReport,
};
use slb_telemetry::{log, snapshot_stage, HopTelemetry, LogHistogram, MetricsSnapshot};
use slb_workloads::KeyId;

use crate::cluster::{ClusterSpec, NodeRole, RunSpec};
use crate::tcp::{
    connect_with_retry, ReattachableTupleSender, TcpPartialReceiver, TcpPartialSender,
    TcpTupleReceiver, TcpTupleSender,
};
use crate::wire::{
    decode_payload, encode_frame, read_frame, AggregatorReportWire, ControlFrame, WireError,
    WorkerReportWire,
};

/// How long the control-plane *handshake* (connect + Hello, and a respawned
/// worker's Rejoin) may take before the orchestrator declares the cluster
/// wedged and tears it down. Report reads after `Start` are deliberately
/// unbounded — a healthy run's duration scales with its config — with
/// liveness watched through child exits and heartbeats instead.
const CONTROL_TIMEOUT: Duration = Duration::from_secs(120);

/// How often a fault-tolerant worker streams `Heartbeat` frames.
const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(100);

/// Default heartbeat silence after which a worker is declared dead. Large
/// relative to [`HEARTBEAT_INTERVAL`] so a scheduling hiccup is never a
/// death sentence; override with `SLB_HEARTBEAT_TIMEOUT_MS`.
const DEFAULT_HEARTBEAT_TIMEOUT: Duration = Duration::from_secs(5);

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
type CountPartial = HashMap<KeyId, u64>;

fn io_err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

/// Writes one control frame to `stream`.
fn send_control(stream: &mut TcpStream, frame: &ControlFrame) -> Result<(), String> {
    let mut buf = Vec::new();
    encode_frame(frame, &mut buf);
    stream
        .write_all(&buf)
        .map_err(|e| io_err("control write failed", e))
}

/// Writes one control frame through a shared write half. Heartbeat threads
/// and the end-of-run report share the worker's control stream; the mutex
/// keeps their frames from interleaving mid-frame.
fn send_control_shared(stream: &Mutex<TcpStream>, frame: &ControlFrame) -> Result<(), String> {
    let mut guard = stream.lock().expect("control stream poisoned");
    send_control(&mut guard, frame)
}

/// Reads one control frame from `reader`.
fn recv_control(reader: &mut BufReader<TcpStream>) -> Result<ControlFrame, String> {
    let mut scratch = Vec::new();
    match read_frame(reader, &mut scratch) {
        Ok(true) => decode_payload(&scratch).map_err(|e| io_err("control frame malformed", e)),
        Ok(false) => Err("control peer closed the connection".into()),
        Err(WireError::Io(e)) => Err(io_err("control read failed", e)),
        Err(e) => Err(io_err("control read failed", e)),
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

/// Accepts the data connections of a stage's `peers` upstream instances.
fn accept_peers(listener: &TcpListener, peers: usize) -> Result<Vec<TcpStream>, String> {
    (0..peers)
        .map(|_| match listener.accept() {
            Ok((stream, _)) => Ok(stream),
            Err(e) => Err(io_err("accepting data connection", e)),
        })
        .collect()
}

fn tracker_from_rle(runs: &[(u64, u64)]) -> LatencyTracker {
    let mut tracker = LatencyTracker::new();
    for &(value, count) in runs {
        tracker.record_many_us(value, count);
    }
    tracker
}

/// Reads the `SLB_METRICS_INTERVAL_MS` override for the periodic metrics
/// ticker, failing fast on a malformed value (same contract as
/// `SLB_HEARTBEAT_TIMEOUT_MS`). Unset or `0` disables periodic snapshots;
/// the exact end-of-stage snapshot is always sent.
///
/// # Panics
/// Panics if the variable is set but is not an unsigned integer number of
/// milliseconds.
pub fn metrics_interval_from_env() -> Option<Duration> {
    match std::env::var("SLB_METRICS_INTERVAL_MS") {
        Ok(raw) => match raw.parse::<u64>() {
            Ok(0) => None,
            Ok(ms) => Some(Duration::from_millis(ms)),
            Err(_) => panic!(
                "SLB_METRICS_INTERVAL_MS must be an integer number of \
                 milliseconds, got {raw:?} (e.g. SLB_METRICS_INTERVAL_MS=250)"
            ),
        },
        Err(std::env::VarError::NotPresent) => None,
        Err(std::env::VarError::NotUnicode(raw)) => {
            panic!("SLB_METRICS_INTERVAL_MS must be valid UTF-8, got {raw:?}")
        }
    }
}

/// Streams periodic (non-final) [`MetricsSnapshot`] frames built from a live
/// [`HopTelemetry`] handle until `stop` is raised. Shares the control stream
/// with heartbeats and the end-of-run report through the frame mutex.
fn spawn_metrics_ticker(
    shared: Arc<Mutex<TcpStream>>,
    stage: u8,
    instance: u32,
    hop: Arc<HopTelemetry>,
    interval: Duration,
    stop: Arc<AtomicBool>,
    seq: Arc<AtomicU64>,
) -> thread::JoinHandle<()> {
    thread::spawn(move || {
        while !stop.load(Ordering::Relaxed) {
            thread::sleep(interval);
            if stop.load(Ordering::Relaxed) {
                break;
            }
            let stats = hop.snapshot();
            let mut snap = MetricsSnapshot {
                stage,
                instance,
                seq: seq.fetch_add(1, Ordering::Relaxed),
                ..MetricsSnapshot::default()
            };
            // Items-so-far approximation: what this stage has pushed through
            // its outbound (source) or inbound (worker, aggregator) hop. The
            // final snapshot replaces it with the report's exact count.
            snap.items = if stage == snapshot_stage::SOURCE {
                stats.tuples_sent
            } else {
                stats.tuples_received
            };
            snap.set_transport(&stats);
            if send_control_shared(&shared, &ControlFrame::Metrics(snap)).is_err() {
                break;
            }
        }
    })
}

/// The exact end-of-stage snapshot for a source.
fn source_final_snapshot(index: usize, report: &SourceStageReport, seq: u64) -> MetricsSnapshot {
    let mut snap = MetricsSnapshot {
        stage: snapshot_stage::SOURCE,
        instance: index as u32,
        seq,
        finished: true,
        items: report.sent,
        ..MetricsSnapshot::default()
    };
    snap.set_transport(&report.transport);
    snap
}

/// The exact end-of-stage snapshot for a worker, with the worker's full
/// latency distribution merged across phases.
fn worker_final_snapshot(index: usize, report: &WorkerStageReport, seq: u64) -> MetricsSnapshot {
    let mut snap = MetricsSnapshot {
        stage: snapshot_stage::WORKER,
        instance: index as u32,
        seq,
        finished: true,
        items: report.processed,
        windows_closed: report.windows_closed,
        checkpoints: report.checkpoints,
        restores: report.recovery.restores,
        replayed_items: report.recovery.replayed_items,
        duplicates_dropped: report.recovery.duplicates_dropped,
        replay_requests: report.recovery.replay_requests,
        transport_errors: report.recovery.transport_errors,
        ..MetricsSnapshot::default()
    };
    snap.set_transport(&report.transport);
    let mut latency = LogHistogram::new();
    for tracker in &report.phase_latencies {
        latency.merge(tracker.histogram());
    }
    snap.set_latency(&latency);
    snap
}

/// The exact end-of-stage snapshot for an aggregator shard.
fn aggregator_final_snapshot(
    index: usize,
    report: &AggregatorStageReport<CountPartial>,
    seq: u64,
) -> MetricsSnapshot {
    let mut snap = MetricsSnapshot {
        stage: snapshot_stage::AGGREGATOR,
        instance: index as u32,
        seq,
        finished: true,
        items: report.merged,
        windows_closed: report.finalized.len() as u64,
        duplicates_dropped: report.duplicates_dropped,
        transport_errors: report.transport_errors,
        ..MetricsSnapshot::default()
    };
    snap.set_transport(&report.transport);
    snap.set_latency(report.latencies.histogram());
    snap
}

/// Per-process knobs for [`run_node_with`]. The default is the plain
/// (non-fault-tolerant) node [`run_node`] runs.
#[derive(Debug, Clone, Default)]
pub struct NodeOptions {
    /// Run the fault-tolerant stage variants: durable checkpoints and
    /// heartbeats (workers), supervised replay (sources), quorum-aware
    /// finalization with late reattach (aggregators).
    pub fault_tolerant: bool,
    /// This worker is a respawn: restore from the durable checkpoint and
    /// announce with `Rejoin` instead of `Hello`. Workers only.
    pub rejoin: bool,
    /// Directory for durable checkpoint files. Required when
    /// `fault_tolerant` is set on a worker.
    pub ckpt_dir: Option<PathBuf>,
    /// Deterministic fault injection (workers only): abort the process at
    /// the N-th window finalization, after shipping the window's partials
    /// but before the durable save — the exact interleaving of the
    /// tail-window re-ship race. Never passed to respawned incarnations.
    pub crash_after_closes: Option<u64>,
    /// Stream periodic [`MetricsSnapshot`] frames at this cadence while the
    /// stage runs (fault-tolerant stages only — they are the ones with a
    /// live telemetry handle). `None` falls back to
    /// [`metrics_interval_from_env`]; the exact final snapshot is sent
    /// either way.
    pub metrics_interval: Option<Duration>,
}

/// Runs one node process: handshake, data-plane wiring, the stage itself,
/// and the end-of-run report. Blocks until the stage completes.
pub fn run_node(role: NodeRole, index: usize, control: &str) -> Result<(), String> {
    run_node_with(role, index, control, &NodeOptions::default())
}

/// [`run_node`] with explicit [`NodeOptions`].
pub fn run_node_with(
    role: NodeRole,
    index: usize,
    control: &str,
    options: &NodeOptions,
) -> Result<(), String> {
    let mut control_stream = connect_with_retry(control, DIAL_ATTEMPTS, DIAL_BASE_DELAY)
        .map_err(|e| io_err("connecting to orchestrator", e))?;
    // Workers and aggregators bind their data listener *before* saying
    // hello (or rejoin), so the announcement can carry the port.
    let listener = match role {
        NodeRole::Source => None,
        NodeRole::Worker | NodeRole::Aggregator => Some(
            TcpListener::bind(("127.0.0.1", 0)).map_err(|e| io_err("binding data listener", e))?,
        ),
    };
    let data_port = listener
        .as_ref()
        .map(|l| l.local_addr().map(|a| a.port()))
        .transpose()
        .map_err(|e| io_err("reading listener address", e))?
        .unwrap_or(0);

    // A fault-tolerant worker opens its durable store before announcing
    // itself: a rejoin restores state from disk and sends the recovered
    // cursors with the announcement so sources know where replay starts.
    let mut store: Option<DurableCheckpointStore> = None;
    let mut initial: Option<WorkerCheckpoint> = None;
    if options.fault_tolerant && role == NodeRole::Worker {
        let dir = options
            .ckpt_dir
            .as_ref()
            .ok_or("fault-tolerant workers need a checkpoint directory (--ckpt-dir)")?;
        let opened = DurableCheckpointStore::open(dir, index)
            .map_err(|e| io_err("opening durable checkpoint store", e))?;
        if options.rejoin {
            if let Some(log) = opened.load() {
                let ckpt =
                    WorkerCheckpoint::restore(&log.base, log.deltas.iter().map(Vec::as_slice))
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
                initial = Some(ckpt);
            }
        }
        store = Some(opened);
    }
    let announcement = if options.rejoin {
        ControlFrame::Rejoin {
            worker: index as u32,
            data_port,
            cursors: initial
                .as_ref()
                .map(|c| c.next_seq.clone())
                .unwrap_or_default(),
        }
    } else {
        ControlFrame::Hello {
            role: role.as_u8(),
            index: index as u32,
            data_port,
        }
    };
    send_control(&mut control_stream, &announcement)?;
    let mut control_reader = BufReader::new(
        control_stream
            .try_clone()
            .map_err(|e| io_err("cloning control stream", e))?,
    );
    let ControlFrame::Start {
        epoch_unix_micros,
        worker_ports,
        aggregator_ports,
        config,
    } = recv_control(&mut control_reader)?
    else {
        return Err("expected Start frame".into());
    };
    let spec = std::str::from_utf8(&config)
        .map_err(|e| e.to_string())
        .and_then(ClusterSpec::parse)
        .map_err(|e| io_err("parsing run config", e))?;
    let plan = spec.stage_plan()?;
    let epoch = epoch_from_unix_micros(epoch_unix_micros);
    let metrics_interval = options.metrics_interval.or_else(metrics_interval_from_env);

    match role {
        NodeRole::Source if options.fault_tolerant => run_source_node_supervised(
            &spec,
            index,
            epoch,
            &worker_ports,
            control_stream,
            control_reader,
            metrics_interval,
        ),
        NodeRole::Source => {
            let mut senders = Vec::with_capacity(worker_ports.len());
            for &port in &worker_ports {
                senders.push(TcpTupleSender::new(dial(port)?, epoch));
            }
            let report = run_source(&spec, &plan, index, &senders, NoRecovery);
            drop(senders); // EOF to every worker
            send_source_report(&Mutex::new(control_stream), index, report, 0)
        }
        NodeRole::Worker => {
            let listener = listener.expect("workers bind a listener");
            let incoming = accept_peers(&listener, plan.sources)?;
            let receiver = TcpTupleReceiver::spawn(
                incoming,
                epoch,
                capacity_in_batches(plan.queue_capacity, plan.batch_size),
            );
            let mut partial_senders: Vec<TcpPartialSender<CountPartial>> =
                Vec::with_capacity(aggregator_ports.len());
            for &port in &aggregator_ports {
                partial_senders.push(TcpPartialSender::new(dial(port)?, epoch));
            }
            // The shared write half lets the heartbeat and metrics threads
            // and the final report use one control connection.
            let shared = Arc::new(Mutex::new(control_stream));
            let metrics_seq = Arc::new(AtomicU64::new(0));
            // Fault-tolerant extras: heartbeats, live metrics, and the
            // persist hook mirroring every checkpoint record to disk.
            let stop = Arc::new(AtomicBool::new(false));
            let mut background = Vec::new();
            let mut live = None;
            if options.fault_tolerant {
                let stream = Arc::clone(&shared);
                let heartbeat_stop = Arc::clone(&stop);
                let worker = index as u32;
                background.push(thread::spawn(move || {
                    while !heartbeat_stop.load(Ordering::Relaxed) {
                        if send_control_shared(&stream, &ControlFrame::Heartbeat { worker })
                            .is_err()
                        {
                            break;
                        }
                        thread::sleep(HEARTBEAT_INTERVAL);
                    }
                }));
                live = plan.telemetry.then(|| Arc::new(HopTelemetry::default()));
                background.extend(metrics_interval.zip(live.clone()).map(|(interval, hop)| {
                    spawn_metrics_ticker(
                        Arc::clone(&shared),
                        snapshot_stage::WORKER,
                        index as u32,
                        hop,
                        interval,
                        Arc::clone(&stop),
                        Arc::clone(&metrics_seq),
                    )
                }));
            }
            let crash_after_closes = options.crash_after_closes;
            // Only a fault-tolerant worker opened a store.
            let mut persist = store.as_mut().map(|store| {
                let mut closes_persisted = 0u64;
                move |record: CheckpointRecord<'_>| {
                    // Deterministic crash injection: the hook runs after the
                    // window's partials shipped but before the save below
                    // makes the close durable — aborting here is exactly the
                    // tail-window re-ship race, pinned to a fixed window
                    // instead of a wall-clock kill.
                    closes_persisted += 1;
                    if crash_after_closes == Some(closes_persisted) {
                        std::process::abort();
                    }
                    // A failed save degrades durability (a later crash
                    // replays more), never correctness — keep running.
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
            });
            let recovery = match persist.as_mut() {
                Some(persist) => WorkerRecovery::Durable {
                    initial: initial.as_ref(),
                    persist,
                    live,
                },
                None => WorkerRecovery::none(),
            };
            let report = run_worker_stage(
                &plan,
                index,
                epoch,
                &CountAggregate,
                receiver,
                &partial_senders,
                recovery,
            );
            drop(partial_senders); // EOF to every aggregator
            stop.store(true, Ordering::Relaxed);
            for thread in background {
                let _ = thread.join();
            }
            send_control_shared(
                &shared,
                &ControlFrame::Metrics(worker_final_snapshot(
                    index,
                    &report,
                    metrics_seq.load(Ordering::Relaxed),
                )),
            )?;
            send_control_shared(
                &shared,
                &ControlFrame::WorkerReport(worker_report_to_wire(index, &report)),
            )
        }
        NodeRole::Aggregator => {
            let listener = listener.expect("aggregators bind a listener");
            let incoming = accept_peers(&listener, plan.spawned_workers)?;
            let capacity = partial_channel_capacity(plan.spawned_workers);
            let shared = Arc::new(Mutex::new(control_stream));
            let metrics_seq = Arc::new(AtomicU64::new(0));
            // Fault-tolerant extras: an attachable receiver with a
            // late-accept loop for respawned workers' fresh connections, a
            // control-reader thread feeding exclusions into the stage, and
            // live metrics.
            let stop = Arc::new(AtomicBool::new(false));
            let accepting = Arc::new(AtomicBool::new(true));
            let mut background = Vec::new();
            let mut control_thread = None;
            let (excl_tx, excl_rx) = bounded::<usize>(16);
            let (receiver, supervision) = if options.fault_tolerant {
                let (receiver, attach) =
                    TcpPartialReceiver::<CountPartial>::spawn_attachable(incoming, epoch, capacity);
                listener
                    .set_nonblocking(true)
                    .map_err(|e| io_err("setting data listener non-blocking", e))?;
                let still_accepting = Arc::clone(&accepting);
                background.push(thread::spawn(move || {
                    loop {
                        match listener.accept() {
                            Ok((stream, _)) => attach.attach(stream),
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                if !still_accepting.load(Ordering::Relaxed) {
                                    break;
                                }
                                thread::sleep(Duration::from_millis(20));
                            }
                            Err(_) => break,
                        }
                    }
                    // Dropping the attach handle here is what lets the
                    // receiver close once every connected worker has sent EOF.
                }));
                let released = Arc::clone(&accepting);
                // Exits on Release or when the orchestrator drops the
                // connection, either of which may come after the stage is
                // already over: joined once the report is on its way.
                control_thread = Some(thread::spawn(move || {
                    loop {
                        match recv_control(&mut control_reader) {
                            Ok(ControlFrame::Exclude { worker }) => {
                                let _ = excl_tx.send(worker as usize);
                            }
                            Ok(ControlFrame::Release) | Err(_) => break,
                            Ok(_) => {}
                        }
                    }
                    released.store(false, Ordering::Relaxed);
                }));
                let live = plan.telemetry.then(|| Arc::new(HopTelemetry::default()));
                background.extend(metrics_interval.zip(live.clone()).map(|(interval, hop)| {
                    spawn_metrics_ticker(
                        Arc::clone(&shared),
                        snapshot_stage::AGGREGATOR,
                        index as u32,
                        hop,
                        interval,
                        Arc::clone(&stop),
                        Arc::clone(&metrics_seq),
                    )
                }));
                let supervision = AggregatorSupervision {
                    exclusions: &excl_rx,
                    live,
                };
                (receiver, Some(supervision))
            } else {
                let receiver = TcpPartialReceiver::<CountPartial>::spawn(incoming, epoch, capacity);
                (receiver, None)
            };
            let report = run_aggregator_stage(&plan, index, &CountAggregate, receiver, supervision);
            stop.store(true, Ordering::Relaxed);
            accepting.store(false, Ordering::Relaxed);
            for thread in background {
                let _ = thread.join();
            }
            send_control_shared(
                &shared,
                &ControlFrame::Metrics(aggregator_final_snapshot(
                    index,
                    &report,
                    metrics_seq.load(Ordering::Relaxed),
                )),
            )?;
            send_control_shared(
                &shared,
                &ControlFrame::AggregatorReport(AggregatorReportWire {
                    aggregator: index as u32,
                    merged: report.merged,
                    latency: report.latencies.value_runs(),
                    finalized: report.finalized.into_iter().collect(),
                    duplicates_dropped: report.duplicates_dropped,
                    transport_errors: report.transport_errors,
                    trace: report.trace,
                    transport: report.transport,
                }),
            )?;
            // Stay until the orchestrator's Release has been read (or its
            // connection is gone). Exiting with that frame still unread
            // closes the socket with pending input, which resets the
            // connection — and a reset discards the report just sent if it
            // overtakes the orchestrator's read of it.
            if let Some(control) = control_thread {
                let _ = control.join();
            }
            Ok(())
        }
    }
}

/// The fault-tolerant source body: supervised emission with a control-reader
/// thread translating orchestrator frames into [`SourceControlEvent`]s and a
/// reattach hook that re-dials respawned workers.
fn run_source_node_supervised(
    spec: &ClusterSpec,
    index: usize,
    epoch: Instant,
    worker_ports: &[u16],
    control_stream: TcpStream,
    mut control_reader: BufReader<TcpStream>,
    metrics_interval: Option<Duration>,
) -> Result<(), String> {
    let plan = spec.stage_plan()?;
    let mut senders = Vec::with_capacity(worker_ports.len());
    for &port in worker_ports {
        senders.push(ReattachableTupleSender::new(dial(port)?, epoch));
    }
    // Rejoin ports land here *before* the event is queued, so the reattach
    // hook always finds the port when the emission thread processes it.
    let rejoin_ports: Arc<Mutex<Vec<Option<u16>>>> =
        Arc::new(Mutex::new(vec![None; worker_ports.len()]));
    let (event_tx, event_rx) = bounded::<SourceControlEvent>(64);
    let control_thread = {
        let ports = Arc::clone(&rejoin_ports);
        thread::spawn(move || loop {
            match recv_control(&mut control_reader) {
                Ok(ControlFrame::Rejoin {
                    worker,
                    data_port,
                    cursors,
                }) => {
                    let w = worker as usize;
                    if let Some(slot) = ports.lock().expect("rejoin ports poisoned").get_mut(w) {
                        *slot = Some(data_port);
                    }
                    let from_seq = cursors.get(index).copied().unwrap_or(0);
                    if event_tx
                        .send(SourceControlEvent::Rejoin {
                            worker: w,
                            from_seq,
                        })
                        .is_err()
                    {
                        break;
                    }
                }
                Ok(ControlFrame::Exclude { worker }) => {
                    if event_tx
                        .send(SourceControlEvent::Exclude {
                            worker: worker as usize,
                        })
                        .is_err()
                    {
                        break;
                    }
                }
                // A broken control connection releases the stage too: with
                // the orchestrator gone, waiting for replay requests that
                // can never arrive would wedge the process.
                Ok(ControlFrame::Release) | Err(_) => {
                    let _ = event_tx.send(SourceControlEvent::Release);
                    break;
                }
                Ok(_) => {}
            }
        })
    };
    let reattach = |w: usize| {
        let port = rejoin_ports
            .lock()
            .expect("rejoin ports poisoned")
            .get(w)
            .copied()
            .flatten();
        let Some(port) = port else {
            log::warn(
                "slb-node",
                &format!("source {index}: rejoin for worker {w} carried no port"),
            );
            return;
        };
        match connect_with_retry(
            &format!("127.0.0.1:{port}"),
            REJOIN_DIAL_ATTEMPTS,
            REJOIN_DIAL_BASE_DELAY,
        ) {
            Ok(stream) => senders[w].reattach(stream),
            Err(e) => log::error(
                "slb-node",
                &format!("source {index}: re-dialing worker {w} failed: {e}"),
            ),
        }
    };
    let shared = Arc::new(Mutex::new(control_stream));
    let live = plan.telemetry.then(|| Arc::new(HopTelemetry::default()));
    let stop = Arc::new(AtomicBool::new(false));
    let metrics_seq = Arc::new(AtomicU64::new(0));
    let ticker = metrics_interval.zip(live.clone()).map(|(interval, hop)| {
        spawn_metrics_ticker(
            Arc::clone(&shared),
            snapshot_stage::SOURCE,
            index as u32,
            hop,
            interval,
            Arc::clone(&stop),
            Arc::clone(&metrics_seq),
        )
    });
    let control = Supervised {
        events: &event_rx,
        reattach,
        live: live.clone(),
    };
    let report = run_source(spec, &plan, index, &senders, control);
    drop(senders); // EOF to every worker
    let _ = control_thread.join(); // exited on Release
    stop.store(true, Ordering::Relaxed);
    if let Some(ticker) = ticker {
        let _ = ticker.join();
    }
    send_source_report(&shared, index, report, metrics_seq.load(Ordering::Relaxed))
}

/// Runs source `index` of `spec` over `senders`: the one call site of
/// [`run_source_stage`], shared by the plain and the supervised node (the
/// two run specs yield different stream types, hence the two arms).
fn run_source<Tx: TupleSender>(
    spec: &ClusterSpec,
    plan: &StagePlan,
    index: usize,
    senders: &[Tx],
    control: impl SourceControl,
) -> SourceStageReport {
    match &spec.run {
        RunSpec::Engine(cfg) => run_source_stage(
            plan,
            index,
            |_phase| source_stream(cfg, index),
            senders,
            control,
        ),
        RunSpec::Scenario(cfg) => run_source_stage(
            plan,
            index,
            |phase| cfg.scenario.phase_stream(phase, index),
            senders,
            control,
        ),
    }
}

/// A source's end of run: the exact final snapshot, then the report.
fn send_source_report(
    stream: &Mutex<TcpStream>,
    index: usize,
    report: SourceStageReport,
    metrics_seq: u64,
) -> Result<(), String> {
    send_control_shared(
        stream,
        &ControlFrame::Metrics(source_final_snapshot(index, &report, metrics_seq)),
    )?;
    send_control_shared(
        stream,
        &ControlFrame::SourceReport {
            source: index as u32,
            sent: report.sent,
            controller_events: report.controller_events,
            trace: report.trace,
            transport: report.transport,
        },
    )
}

fn worker_report_to_wire(index: usize, report: &WorkerStageReport) -> WorkerReportWire {
    WorkerReportWire {
        worker: index as u32,
        processed: report.processed,
        state_keys: report.state_keys,
        windows_closed: report.windows_closed,
        phase_counts: report.phase_counts.clone(),
        phase_spans: report.phase_spans.clone(),
        phase_latencies: report
            .phase_latencies
            .iter()
            .map(|t| t.value_runs())
            .collect(),
        restores: report.recovery.restores,
        replayed_items: report.recovery.replayed_items,
        duplicates_dropped: report.recovery.duplicates_dropped,
        replay_requests: report.recovery.replay_requests,
        transport_errors: report.recovery.transport_errors,
        checkpoints: report.checkpoints,
        trace: report.trace.clone(),
        transport: report.transport.clone(),
    }
}

fn worker_report_from_wire(report: WorkerReportWire) -> WorkerStageReport {
    WorkerStageReport {
        processed: report.processed,
        phase_counts: report.phase_counts,
        phase_latencies: report
            .phase_latencies
            .iter()
            .map(|runs| tracker_from_rle(runs))
            .collect(),
        state_keys: report.state_keys,
        windows_closed: report.windows_closed,
        phase_spans: report.phase_spans,
        recovery: RecoveryMetrics {
            restores: report.restores,
            replayed_items: report.replayed_items,
            duplicates_dropped: report.duplicates_dropped,
            replay_requests: report.replay_requests,
            transport_errors: report.transport_errors,
        },
        checkpoints: report.checkpoints,
        // Engine-side diagnostic; the wire report does not carry it.
        checkpoint_bytes: 0,
        trace: report.trace,
        transport: report.transport,
    }
}

fn aggregator_report_from_wire(
    report: AggregatorReportWire,
) -> AggregatorStageReport<CountPartial> {
    AggregatorStageReport {
        finalized: report.finalized.into_iter().collect(),
        latencies: tracker_from_rle(&report.latency),
        merged: report.merged,
        duplicates_dropped: report.duplicates_dropped,
        transport_errors: report.transport_errors,
        trace: report.trace,
        transport: report.transport,
    }
}

/// What a completed multi-process run hands back.
pub struct OrchestratorOutcome {
    /// The assembled measurements, merged exactly as the in-process runner
    /// merges its thread reports.
    pub result: EngineResult,
    /// Final merged per-window per-key counts.
    pub windows: BTreeMap<WindowId, CountPartial>,
    /// Tuples the sources reported sending (must equal `result.processed`
    /// unless the run degraded).
    pub sent_total: u64,
    /// Workers that exhausted their respawn budget and were excluded. Empty
    /// on a fully healthy (or fully recovered) run.
    pub degraded: Vec<usize>,
    /// Cluster-wide rollup of every stage's exact final [`MetricsSnapshot`]
    /// (stage = `cluster`): counters summed, high-water marks maxed, latency
    /// histograms merged. `None` only if no stage delivered its final
    /// snapshot (impossible on a completed run with current nodes).
    pub metrics: Option<MetricsSnapshot>,
}

/// Supervision knobs for [`orchestrate_with`]. The default is the plain
/// fail-fast run [`orchestrate`] performs.
#[derive(Debug, Clone)]
pub struct OrchestrateOptions {
    /// Supervise the cluster: respawn dead workers from durable checkpoints
    /// instead of failing the run.
    pub fault_tolerant: bool,
    /// How many times each worker may be respawned before it is excluded.
    pub respawn_budget: u32,
    /// Durable checkpoint directory handed to workers. Defaults to a
    /// pid-scoped directory under the system temp dir.
    pub ckpt_dir: Option<PathBuf>,
    /// Fault injection: SIGKILL worker `.0` roughly `.1` milliseconds after
    /// `Start` — the process-level analogue of the engine's fault plans.
    pub kill_worker: Option<(usize, u64)>,
    /// Deterministic fault injection: worker `.0` aborts itself at its
    /// `.1`-th window finalization, *after* shipping the window's partials
    /// but *before* the durable checkpoint save. This pins the tail-window
    /// re-ship race at a fixed logical point: the respawned worker restores
    /// the previous checkpoint, re-finalizes exactly that one window, and
    /// every aggregator drops exactly one duplicate — so the expected
    /// `duplicates_dropped` is exactly the aggregator count, not a bound.
    pub crash_worker: Option<(usize, u64)>,
    /// Heartbeat silence after which a worker is declared dead.
    pub heartbeat_timeout: Duration,
    /// Directory for the merged metrics stream: every [`MetricsSnapshot`]
    /// the nodes ship (periodic and final) is appended as one JSON object
    /// per line to `<dir>/metrics.jsonl`, ending with the cluster rollup.
    /// `None` keeps the rollup in [`OrchestratorOutcome::metrics`] only.
    pub metrics_dir: Option<PathBuf>,
    /// Periodic snapshot cadence handed to the nodes
    /// (`--metrics-interval-ms`). Defaults to [`metrics_interval_from_env`];
    /// `None` means final snapshots only.
    pub metrics_interval: Option<Duration>,
}

impl Default for OrchestrateOptions {
    fn default() -> Self {
        Self {
            fault_tolerant: false,
            respawn_budget: 1,
            ckpt_dir: None,
            kill_worker: None,
            crash_worker: None,
            heartbeat_timeout: heartbeat_timeout_from_env(),
            metrics_dir: None,
            metrics_interval: metrics_interval_from_env(),
        }
    }
}

/// Reads the `SLB_HEARTBEAT_TIMEOUT_MS` override, failing fast on a
/// malformed value: a typo like `5s` must abort with a clear message, not
/// silently run with the default and mask the operator's intent.
///
/// # Panics
/// Panics if the variable is set but is not an unsigned integer number of
/// milliseconds.
fn heartbeat_timeout_from_env() -> Duration {
    match std::env::var("SLB_HEARTBEAT_TIMEOUT_MS") {
        Ok(raw) => match raw.parse::<u64>() {
            Ok(ms) => Duration::from_millis(ms),
            Err(_) => panic!(
                "SLB_HEARTBEAT_TIMEOUT_MS must be an integer number of \
                 milliseconds, got {raw:?} (e.g. SLB_HEARTBEAT_TIMEOUT_MS=5000)"
            ),
        },
        Err(std::env::VarError::NotPresent) => DEFAULT_HEARTBEAT_TIMEOUT,
        Err(std::env::VarError::NotUnicode(raw)) => {
            panic!("SLB_HEARTBEAT_TIMEOUT_MS must be valid UTF-8, got {raw:?}")
        }
    }
}

/// Errors if any child process has already exited — used during the
/// handshake, where *no* node may terminate yet (they have not reported).
fn check_no_child_exited(children: &mut [Child]) -> Result<(), String> {
    for child in children.iter_mut() {
        if let Ok(Some(status)) = child.try_wait() {
            return Err(format!(
                "a node process exited prematurely ({status}) before connecting"
            ));
        }
    }
    Ok(())
}

/// Errors if any child process exited *unsuccessfully* — used while waiting
/// for reports in plain mode, where a clean exit is legitimate once a node
/// has reported but any failure is fatal.
fn check_no_child_failed(children: &mut [Child]) -> Result<(), String> {
    for child in children.iter_mut() {
        if let Ok(Some(status)) = child.try_wait() {
            if !status.success() {
                return Err(format!("a node process failed ({status})"));
            }
        }
    }
    Ok(())
}

/// One connected child on the control plane.
struct NodeConn {
    role: NodeRole,
    index: usize,
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

/// What the per-connection reader threads feed the supervision loop.
enum SupervisorEvent {
    /// A control frame arrived from `(role, index)`.
    Frame {
        role: NodeRole,
        index: usize,
        frame: Box<ControlFrame>,
    },
    /// The control connection to `(role, index)` ended (clean close or read
    /// error — indistinguishable from here, and treated alike). `gen`
    /// identifies *which* connection to a respawning worker closed, so a
    /// stale close from a replaced connection never reads as a fresh death.
    Closed {
        role: NodeRole,
        index: usize,
        gen: u64,
        detail: String,
    },
}

fn spawn_control_reader(
    role: NodeRole,
    index: usize,
    gen: u64,
    mut reader: BufReader<TcpStream>,
    tx: std::sync::mpsc::Sender<SupervisorEvent>,
) {
    thread::spawn(move || loop {
        match recv_control(&mut reader) {
            Ok(frame) => {
                if tx
                    .send(SupervisorEvent::Frame {
                        role,
                        index,
                        frame: Box::new(frame),
                    })
                    .is_err()
                {
                    break;
                }
            }
            Err(detail) => {
                let _ = tx.send(SupervisorEvent::Closed {
                    role,
                    index,
                    gen,
                    detail,
                });
                break;
            }
        }
    });
}

/// Per-worker lifecycle state in the supervision loop.
#[derive(Debug, Clone, Copy)]
enum WState {
    /// Alive: control connection open, heartbeats flowing.
    Running,
    /// Respawned; waiting for its Rejoin on a fresh control connection.
    Awaiting(Instant),
    /// Reported and finished.
    Done,
    /// Respawn budget exhausted; excluded from the run.
    Excluded,
}

/// Everything the supervision loop tracks per worker.
struct WorkerSupervision {
    state: Vec<WState>,
    last_seen: Vec<Instant>,
    budget_left: Vec<u32>,
    /// Index of each worker's *current* child process in the children vec
    /// (respawns are appended, never overwritten).
    slot: Vec<usize>,
    conn_gen: Vec<u64>,
    degraded: Vec<usize>,
}

/// Handles one observed worker death: respawn with `--rejoin` while budget
/// remains, exclude (and notify sources and aggregators) once it runs out.
#[allow(clippy::too_many_arguments)]
fn handle_worker_death(
    w: usize,
    sup: &mut WorkerSupervision,
    worker_reports: &mut [Option<WorkerStageReport>],
    children: &Arc<Mutex<Vec<Child>>>,
    node_exe: &Path,
    control_addr: &SocketAddr,
    ckpt_dir: &Path,
    metrics_interval: Option<Duration>,
    source_streams: &mut [TcpStream],
    aggregator_streams: &mut [TcpStream],
) -> Result<(), String> {
    if sup.budget_left[w] > 0 {
        sup.budget_left[w] -= 1;
        let mut cmd = Command::new(node_exe);
        cmd.arg(NodeRole::Worker.name())
            .arg("--index")
            .arg(w.to_string())
            .arg("--control")
            .arg(control_addr.to_string())
            .arg("--fault-tolerant")
            .arg("--rejoin")
            .arg("--ckpt-dir")
            .arg(ckpt_dir);
        if let Some(interval) = metrics_interval {
            cmd.arg("--metrics-interval-ms")
                .arg(interval.as_millis().to_string());
        }
        let child = cmd
            .spawn()
            .map_err(|e| io_err("respawning worker process", e))?;
        let mut kids = children.lock().expect("children poisoned");
        kids.push(child);
        sup.slot[w] = kids.len() - 1;
        sup.state[w] = WState::Awaiting(Instant::now());
    } else {
        sup.state[w] = WState::Excluded;
        sup.degraded.push(w);
        // An excluded worker contributes an empty report; the engine's
        // assemble path tolerates it and the aggregators finalize its
        // windows without a partial from it.
        worker_reports[w] = Some(WorkerStageReport::default());
        let mut bytes = Vec::new();
        encode_frame(&ControlFrame::Exclude { worker: w as u32 }, &mut bytes);
        // Best-effort: a peer that already finished (and closed) simply no
        // longer needs the exclusion.
        for stream in source_streams.iter_mut() {
            let _ = stream.write_all(&bytes);
        }
        for stream in aggregator_streams.iter_mut() {
            let _ = stream.write_all(&bytes);
        }
    }
    Ok(())
}

/// Spawns the node processes for `spec`, wires the control plane, runs the
/// cluster to completion, and merges the reports. `node_exe` is the
/// `slb-node` binary to spawn (usually `std::env::current_exe()`).
pub fn orchestrate(spec: &ClusterSpec, node_exe: &Path) -> Result<OrchestratorOutcome, String> {
    orchestrate_with(spec, node_exe, &OrchestrateOptions::default())
}

/// [`orchestrate`] with explicit supervision [`OrchestrateOptions`].
pub fn orchestrate_with(
    spec: &ClusterSpec,
    node_exe: &Path,
    options: &OrchestrateOptions,
) -> Result<OrchestratorOutcome, String> {
    let children: Arc<Mutex<Vec<Child>>> = Arc::new(Mutex::new(Vec::new()));
    let outcome = orchestrate_inner(spec, node_exe, &children, options);
    let mut kids = children.lock().expect("children poisoned");
    if outcome.is_err() {
        for child in kids.iter_mut() {
            let _ = child.kill();
        }
    }
    for child in kids.iter_mut() {
        let _ = child.wait();
    }
    outcome
}

fn orchestrate_inner(
    spec: &ClusterSpec,
    node_exe: &Path,
    children: &Arc<Mutex<Vec<Child>>>,
    options: &OrchestrateOptions,
) -> Result<OrchestratorOutcome, String> {
    let plan = spec
        .stage_plan()
        .map_err(|e| io_err("invalid cluster spec", e))?;
    // Nodes run what they parse back out of this text, so it has to say
    // exactly what `spec` says.
    let config = spec.shipped_text()?;
    let ft = options.fault_tolerant;
    let ckpt_dir = options.ckpt_dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("slb-node-ckpt-{}", std::process::id()))
    });
    let control_listener =
        TcpListener::bind(("127.0.0.1", 0)).map_err(|e| io_err("binding control listener", e))?;
    let control_addr: SocketAddr = control_listener
        .local_addr()
        .map_err(|e| io_err("reading control address", e))?;

    let roles = [
        (NodeRole::Source, spec.sources()),
        (NodeRole::Worker, spec.workers()),
        (NodeRole::Aggregator, spec.aggregators()),
    ];
    for (role, count) in roles {
        for index in 0..count {
            let mut cmd = Command::new(node_exe);
            cmd.arg(role.name())
                .arg("--index")
                .arg(index.to_string())
                .arg("--control")
                .arg(control_addr.to_string());
            if let Some(interval) = options.metrics_interval {
                cmd.arg("--metrics-interval-ms")
                    .arg(interval.as_millis().to_string());
            }
            if ft {
                cmd.arg("--fault-tolerant");
                if role == NodeRole::Worker {
                    cmd.arg("--ckpt-dir").arg(&ckpt_dir);
                    // Only the initial incarnation carries the crash plan:
                    // respawn commands (handle_worker_death) never add it,
                    // so the injected abort fires exactly once.
                    if let Some((victim, closes)) = options.crash_worker {
                        if victim == index {
                            cmd.arg("--crash-after-closes").arg(closes.to_string());
                        }
                    }
                }
            }
            let child = cmd
                .spawn()
                .map_err(|e| io_err("spawning node process", e))?;
            children.lock().expect("children poisoned").push(child);
        }
    }
    let total_nodes = spec.sources() + spec.workers() + spec.aggregators();

    // Collect every hello; remember each node's control connection and the
    // data port it bound. The accept loop is non-blocking with a deadline
    // and a child-liveness poll: a node that dies before connecting (bind
    // failure, OOM kill, startup crash) must turn into an error, not an
    // accept that blocks forever.
    control_listener
        .set_nonblocking(true)
        .map_err(|e| io_err("setting control listener non-blocking", e))?;
    let hello_deadline = Instant::now() + CONTROL_TIMEOUT;
    let mut conns: Vec<NodeConn> = Vec::with_capacity(total_nodes);
    let mut ports: HashMap<(u8, u32), u16> = HashMap::new();
    while conns.len() < total_nodes {
        let stream = match control_listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                check_no_child_exited(&mut children.lock().expect("children poisoned"))?;
                if Instant::now() > hello_deadline {
                    return Err(format!(
                        "timed out waiting for node hellos ({}/{total_nodes} connected)",
                        conns.len()
                    ));
                }
                thread::sleep(Duration::from_millis(10));
                continue;
            }
            Err(e) => return Err(io_err("accepting control connection", e)),
        };
        stream
            .set_nonblocking(false)
            .map_err(|e| io_err("setting control stream blocking", e))?;
        // Hellos arrive immediately after connect; a bounded read here is
        // safe and converts a half-connected node into an error.
        stream
            .set_read_timeout(Some(CONTROL_TIMEOUT))
            .map_err(|e| io_err("setting control timeout", e))?;
        let mut reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| io_err("cloning control stream", e))?,
        );
        let ControlFrame::Hello {
            role,
            index,
            data_port,
        } = recv_control(&mut reader)?
        else {
            return Err("expected Hello frame".into());
        };
        ports.insert((role, index), data_port);
        conns.push(NodeConn {
            role: NodeRole::from_u8(role).map_err(|e| e.to_string())?,
            index: index as usize,
            stream,
            reader,
        });
    }

    let port_of = |role: NodeRole, index: usize| -> Result<u16, String> {
        ports
            .get(&(role.as_u8(), index as u32))
            .copied()
            .ok_or_else(|| format!("no hello from {} {index}", role.name()))
    };
    let worker_ports: Vec<u16> = (0..spec.workers())
        .map(|w| port_of(NodeRole::Worker, w))
        .collect::<Result<_, _>>()?;
    let aggregator_ports: Vec<u16> = (0..spec.aggregators())
        .map(|a| port_of(NodeRole::Aggregator, a))
        .collect::<Result<_, _>>()?;

    let epoch_unix_micros = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or_default()
        .as_micros() as u64;
    let start_frame = ControlFrame::Start {
        epoch_unix_micros,
        worker_ports,
        aggregator_ports,
        config: config.into_bytes(),
    };
    // The encoded Start is cached: a respawned worker gets the *same* bytes
    // after its Rejoin, so every incarnation resolves the identical plan.
    let mut start_bytes = Vec::new();
    encode_frame(&start_frame, &mut start_bytes);
    for conn in &mut conns {
        conn.stream
            .write_all(&start_bytes)
            .map_err(|e| io_err("control write failed", e))?;
    }
    let started = Instant::now();

    // Fault injection: kill a worker's process a fixed delay after Start.
    if let Some((victim, delay_ms)) = options.kill_worker {
        let children = Arc::clone(children);
        let slot = spec.sources() + victim;
        thread::spawn(move || {
            thread::sleep(Duration::from_millis(delay_ms));
            if let Some(child) = children.lock().expect("children poisoned").get_mut(slot) {
                let _ = child.kill();
            }
        });
    }

    // Reports (and heartbeats) may legitimately outlast any fixed read
    // timeout, so control reads are unbounded — one blocking reader thread
    // per connection feeding one supervision queue — and liveness is
    // watched through child exits and heartbeat recency instead.
    for conn in &conns {
        conn.reader
            .get_ref()
            .set_read_timeout(None)
            .map_err(|e| io_err("clearing control timeout", e))?;
    }
    let (event_tx, event_rx) = std::sync::mpsc::channel::<SupervisorEvent>();
    let mut source_streams: Vec<Option<TcpStream>> = (0..spec.sources()).map(|_| None).collect();
    let mut aggregator_streams: Vec<Option<TcpStream>> =
        (0..spec.aggregators()).map(|_| None).collect();
    for conn in conns {
        let NodeConn {
            role,
            index,
            stream,
            reader,
        } = conn;
        spawn_control_reader(role, index, 0, reader, event_tx.clone());
        // Keep the write halves the supervisor still talks to: sources and
        // aggregators receive Rejoin/Exclude/Release. Workers only ever
        // receive Start, which is already sent.
        match role {
            NodeRole::Source => {
                *source_streams
                    .get_mut(index)
                    .ok_or("source hello index out of range")? = Some(stream);
            }
            NodeRole::Aggregator => {
                *aggregator_streams
                    .get_mut(index)
                    .ok_or("aggregator hello index out of range")? = Some(stream);
            }
            NodeRole::Worker => drop(stream),
        }
    }
    let mut source_streams: Vec<TcpStream> = source_streams
        .into_iter()
        .enumerate()
        .map(|(s, stream)| stream.ok_or(format!("no hello from source {s}")))
        .collect::<Result<_, _>>()?;
    let mut aggregator_streams: Vec<TcpStream> = aggregator_streams
        .into_iter()
        .enumerate()
        .map(|(a, stream)| stream.ok_or(format!("no hello from aggregator {a}")))
        .collect::<Result<_, _>>()?;

    let now = Instant::now();
    let mut sup = WorkerSupervision {
        state: vec![WState::Running; spec.workers()],
        last_seen: vec![now; spec.workers()],
        budget_left: vec![options.respawn_budget; spec.workers()],
        slot: (spec.sources()..spec.sources() + spec.workers()).collect(),
        conn_gen: vec![0; spec.workers()],
        degraded: Vec::new(),
    };
    let mut sent_total = 0u64;
    let mut source_reports: Vec<Option<SourceStageReport>> =
        (0..spec.sources()).map(|_| None).collect();
    let mut aggregators_reported = vec![false; spec.aggregators()];
    let mut worker_reports: Vec<Option<WorkerStageReport>> =
        (0..spec.workers()).map(|_| None).collect();
    let mut aggregator_reports: Vec<AggregatorStageReport<CountPartial>> = Vec::new();
    // The merged metrics stream: every Metrics frame, in arrival order, one
    // JSON object per line. Final (`finished`) snapshots also fold into the
    // cluster rollup.
    let mut metrics_writer = match &options.metrics_dir {
        Some(dir) => {
            std::fs::create_dir_all(dir).map_err(|e| io_err("creating metrics directory", e))?;
            let file = std::fs::File::create(dir.join("metrics.jsonl"))
                .map_err(|e| io_err("creating metrics.jsonl", e))?;
            Some(BufWriter::new(file))
        }
        None => None,
    };
    let mut metrics_rollup: Option<MetricsSnapshot> = None;
    let mut released = false;
    // Ticks observed with every child exited but reports still missing: the
    // grace period for reports already in the socket buffers.
    let mut drained_ticks = 0u32;

    loop {
        let workers_settled = sup
            .state
            .iter()
            .all(|s| matches!(s, WState::Done | WState::Excluded));
        if ft && workers_settled && !released {
            // Every worker is done or gone for good: no further rejoin or
            // replay is possible. Release the sources' post-emission wait
            // and the aggregators' late-accept loops.
            released = true;
            let mut bytes = Vec::new();
            encode_frame(&ControlFrame::Release, &mut bytes);
            for stream in source_streams.iter_mut() {
                let _ = stream.write_all(&bytes);
            }
            for stream in aggregator_streams.iter_mut() {
                let _ = stream.write_all(&bytes);
            }
        }
        if workers_settled
            && source_reports.iter().all(Option::is_some)
            && aggregators_reported.iter().all(|&r| r)
        {
            break;
        }

        // A respawned worker announces itself on a *fresh* control
        // connection; poll for it alongside the event queue.
        if ft {
            match control_listener.accept() {
                Ok((mut stream, _)) => {
                    stream
                        .set_nonblocking(false)
                        .map_err(|e| io_err("setting control stream blocking", e))?;
                    stream
                        .set_read_timeout(Some(CONTROL_TIMEOUT))
                        .map_err(|e| io_err("setting control timeout", e))?;
                    let mut reader = BufReader::new(
                        stream
                            .try_clone()
                            .map_err(|e| io_err("cloning control stream", e))?,
                    );
                    let frame = recv_control(&mut reader)?;
                    let ControlFrame::Rejoin {
                        worker,
                        data_port,
                        cursors,
                    } = frame
                    else {
                        return Err("expected Rejoin frame on a late control connection".into());
                    };
                    let w = worker as usize;
                    if w >= spec.workers() {
                        return Err(format!("rejoin from unknown worker {w}"));
                    }
                    // Sources learn the new port and the replay cursors
                    // *before* the worker starts accepting, so their
                    // re-dial always finds the listener bound.
                    let mut bytes = Vec::new();
                    encode_frame(
                        &ControlFrame::Rejoin {
                            worker,
                            data_port,
                            cursors,
                        },
                        &mut bytes,
                    );
                    for stream in source_streams.iter_mut() {
                        stream
                            .write_all(&bytes)
                            .map_err(|e| io_err("forwarding rejoin to source", e))?;
                    }
                    stream
                        .write_all(&start_bytes)
                        .map_err(|e| io_err("restarting respawned worker", e))?;
                    stream
                        .set_read_timeout(None)
                        .map_err(|e| io_err("clearing control timeout", e))?;
                    sup.conn_gen[w] += 1;
                    spawn_control_reader(
                        NodeRole::Worker,
                        w,
                        sup.conn_gen[w],
                        reader,
                        event_tx.clone(),
                    );
                    sup.last_seen[w] = Instant::now();
                    sup.state[w] = WState::Running;
                    drop(stream); // workers need nothing further
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) => return Err(io_err("accepting control connection", e)),
            }
        }

        match event_rx.recv_timeout(Duration::from_millis(200)) {
            Ok(SupervisorEvent::Frame { role, index, frame }) => match *frame {
                ControlFrame::SourceReport {
                    source,
                    sent,
                    controller_events,
                    trace,
                    transport,
                } => {
                    let slot = source_reports
                        .get_mut(source as usize)
                        .ok_or("source report index out of range")?;
                    sent_total += sent;
                    *slot = Some(SourceStageReport {
                        sent,
                        controller_events,
                        trace,
                        transport,
                    });
                }
                ControlFrame::WorkerReport(report) => {
                    let w = report.worker as usize;
                    let slot = worker_reports
                        .get_mut(w)
                        .ok_or("worker report index out of range")?;
                    *slot = Some(worker_report_from_wire(report));
                    sup.state[w] = WState::Done;
                }
                ControlFrame::AggregatorReport(report) => {
                    let slot = aggregators_reported
                        .get_mut(report.aggregator as usize)
                        .ok_or("aggregator report index out of range")?;
                    *slot = true;
                    aggregator_reports.push(aggregator_report_from_wire(report));
                }
                ControlFrame::Heartbeat { worker } => {
                    if let Some(seen) = sup.last_seen.get_mut(worker as usize) {
                        *seen = Instant::now();
                    }
                }
                ControlFrame::Metrics(snap) => {
                    if let Some(writer) = metrics_writer.as_mut() {
                        writeln!(writer, "{}", snap.to_json())
                            .map_err(|e| io_err("writing metrics line", e))?;
                    }
                    if snap.finished {
                        match metrics_rollup.as_mut() {
                            Some(rollup) => rollup.merge(&snap),
                            None => {
                                let mut rollup = snap.clone();
                                rollup.stage = snapshot_stage::CLUSTER;
                                rollup.instance = 0;
                                metrics_rollup = Some(rollup);
                            }
                        }
                    }
                }
                _ => {
                    return Err(format!(
                        "unexpected control frame from {} {index}",
                        role.name()
                    ))
                }
            },
            Ok(SupervisorEvent::Closed {
                role,
                index,
                gen,
                detail,
            }) => match role {
                NodeRole::Worker if ft => {
                    // Only the *current* connection closing while the
                    // worker was thought alive is a death signal.
                    if gen == sup.conn_gen[index] && matches!(sup.state[index], WState::Running) {
                        handle_worker_death(
                            index,
                            &mut sup,
                            &mut worker_reports,
                            children,
                            node_exe,
                            &control_addr,
                            &ckpt_dir,
                            options.metrics_interval,
                            &mut source_streams,
                            &mut aggregator_streams,
                        )?;
                    }
                }
                NodeRole::Worker => {
                    if !matches!(sup.state[index], WState::Done) {
                        return Err(format!("worker {index}: {detail}"));
                    }
                }
                NodeRole::Source => {
                    if source_reports.get(index).is_some_and(Option::is_none) {
                        return Err(format!("source {index}: {detail}"));
                    }
                }
                NodeRole::Aggregator => {
                    if !aggregators_reported.get(index).copied().unwrap_or(true) {
                        return Err(format!("aggregator {index}: {detail}"));
                    }
                }
            },
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                if ft {
                    // Liveness sweep: child exits and heartbeat silence.
                    for w in 0..spec.workers() {
                        match sup.state[w] {
                            WState::Running => {
                                let exited = children
                                    .lock()
                                    .expect("children poisoned")
                                    .get_mut(sup.slot[w])
                                    .and_then(|c| c.try_wait().ok().flatten())
                                    .is_some();
                                if exited || sup.last_seen[w].elapsed() > options.heartbeat_timeout
                                {
                                    handle_worker_death(
                                        w,
                                        &mut sup,
                                        &mut worker_reports,
                                        children,
                                        node_exe,
                                        &control_addr,
                                        &ckpt_dir,
                                        options.metrics_interval,
                                        &mut source_streams,
                                        &mut aggregator_streams,
                                    )?;
                                }
                            }
                            WState::Awaiting(since) => {
                                let exited = children
                                    .lock()
                                    .expect("children poisoned")
                                    .get_mut(sup.slot[w])
                                    .and_then(|c| c.try_wait().ok().flatten())
                                    .is_some();
                                if exited {
                                    // The respawn died before rejoining —
                                    // burn more budget or exclude.
                                    handle_worker_death(
                                        w,
                                        &mut sup,
                                        &mut worker_reports,
                                        children,
                                        node_exe,
                                        &control_addr,
                                        &ckpt_dir,
                                        options.metrics_interval,
                                        &mut source_streams,
                                        &mut aggregator_streams,
                                    )?;
                                } else if since.elapsed() > CONTROL_TIMEOUT {
                                    return Err(format!("worker {w} respawned but never rejoined"));
                                }
                            }
                            WState::Done | WState::Excluded => {}
                        }
                    }
                    // Sources and aggregators have no respawn path: an
                    // unreported one failing is fatal.
                    {
                        let mut kids = children.lock().expect("children poisoned");
                        for (s, report) in source_reports.iter().enumerate() {
                            if report.is_some() {
                                continue;
                            }
                            if let Some(Some(status)) =
                                kids.get_mut(s).map(|c| c.try_wait().ok().flatten())
                            {
                                if !status.success() {
                                    return Err(format!("source {s} failed ({status})"));
                                }
                            }
                        }
                        let agg_base = spec.sources() + spec.workers();
                        for (a, &reported) in aggregators_reported.iter().enumerate() {
                            if reported {
                                continue;
                            }
                            if let Some(Some(status)) = kids
                                .get_mut(agg_base + a)
                                .map(|c| c.try_wait().ok().flatten())
                            {
                                if !status.success() {
                                    return Err(format!("aggregator {a} failed ({status})"));
                                }
                            }
                        }
                    }
                    if released
                        && children
                            .lock()
                            .expect("children poisoned")
                            .iter_mut()
                            .all(|c| matches!(c.try_wait(), Ok(Some(_))))
                    {
                        drained_ticks += 1;
                        if drained_ticks > 10 {
                            return Err(
                                "every node process exited but reports never arrived".into()
                            );
                        }
                    }
                } else {
                    check_no_child_failed(&mut children.lock().expect("children poisoned"))?;
                    if children
                        .lock()
                        .expect("children poisoned")
                        .iter_mut()
                        .all(|c| matches!(c.try_wait(), Ok(Some(_))))
                    {
                        drained_ticks += 1;
                        if drained_ticks > 10 {
                            return Err(
                                "every node process exited but reports never arrived".into()
                            );
                        }
                    }
                }
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                return Err("supervisor event channel closed unexpectedly".into());
            }
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    let source_reports: Vec<SourceStageReport> = source_reports
        .into_iter()
        .enumerate()
        .map(|(s, r)| r.ok_or(format!("no report from source {s}")))
        .collect::<Result<_, _>>()?;
    let worker_reports: Vec<WorkerStageReport> = worker_reports
        .into_iter()
        .enumerate()
        .map(|(w, r)| r.ok_or(format!("no report from worker {w}")))
        .collect::<Result<_, _>>()?;

    // Close the metrics stream: the rollup is always its last line, so a
    // consumer can `tail -n 1` for the cluster totals.
    if let Some(mut writer) = metrics_writer.take() {
        if let Some(rollup) = &metrics_rollup {
            writeln!(writer, "{}", rollup.to_json())
                .map_err(|e| io_err("writing metrics rollup", e))?;
        }
        writer
            .flush()
            .map_err(|e| io_err("flushing metrics.jsonl", e))?;
    }

    let WindowedRun { result, windows } = assemble_result(
        &plan,
        &CountAggregate,
        source_reports,
        worker_reports,
        aggregator_reports,
        elapsed,
    );
    // A degraded run *loses* the excluded worker's unshipped tuples by
    // design; the conservation check only holds for healthy runs.
    if sup.degraded.is_empty() && sent_total != result.processed {
        return Err(format!(
            "lost tuples: sources sent {} but workers processed {}",
            sent_total, result.processed
        ));
    }
    Ok(OrchestratorOutcome {
        result,
        windows,
        sent_total,
        degraded: sup.degraded,
        metrics: metrics_rollup,
    })
}

/// The single-threaded exact reference for the spec's run — what the merged
/// windowed counts of a correct distributed run must equal bit for bit.
pub fn exact_reference(spec: &ClusterSpec) -> BTreeMap<WindowId, CountPartial> {
    match &spec.run {
        RunSpec::Engine(cfg) => exact_windowed_counts(cfg),
        RunSpec::Scenario(cfg) => exact_scenario_windowed_counts(&cfg.scenario),
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

    #[test]
    fn rle_tracker_round_trip() {
        let mut tracker = LatencyTracker::new();
        tracker.record_many_us(7, 300);
        tracker.record_us(12);
        tracker.record_many_us(7, 2);
        let runs = crate::wire::rle_encode(tracker.samples());
        assert_eq!(runs, vec![(7, 300), (12, 1), (7, 2)]);
        assert_eq!(tracker_from_rle(&runs).samples(), tracker.samples());
    }

    /// One serial test for the env knob (parallel tests racing on
    /// `set_var` would be flaky): unset → default, well-formed → parsed,
    /// malformed → panic naming the variable and the bad value.
    #[test]
    fn heartbeat_timeout_env_parses_or_fails_fast() {
        let var = "SLB_HEARTBEAT_TIMEOUT_MS";
        let saved = std::env::var_os(var);
        std::env::remove_var(var);
        assert_eq!(heartbeat_timeout_from_env(), DEFAULT_HEARTBEAT_TIMEOUT);
        std::env::set_var(var, "750");
        assert_eq!(heartbeat_timeout_from_env(), Duration::from_millis(750));
        std::env::set_var(var, "5s");
        let panic = std::panic::catch_unwind(heartbeat_timeout_from_env)
            .expect_err("a malformed timeout must fail fast, not fall back to the default");
        let message = panic
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "<non-string panic>".into());
        assert!(
            message.contains("SLB_HEARTBEAT_TIMEOUT_MS") && message.contains("5s"),
            "panic must name the variable and the bad value, got: {message}"
        );
        match saved {
            Some(value) => std::env::set_var(var, value),
            None => std::env::remove_var(var),
        }
    }

    #[test]
    fn worker_report_wire_round_trip_preserves_recovery() {
        let mut report = WorkerStageReport {
            processed: 100,
            windows_closed: 4,
            state_keys: 12,
            checkpoints: 4,
            ..WorkerStageReport::default()
        };
        report.recovery = RecoveryMetrics {
            restores: 1,
            replayed_items: 37,
            duplicates_dropped: 5,
            replay_requests: 2,
            transport_errors: 3,
        };
        let wire = worker_report_to_wire(7, &report);
        assert_eq!(wire.worker, 7);
        let back = worker_report_from_wire(wire);
        assert_eq!(back.recovery, report.recovery);
        assert_eq!(back.processed, report.processed);
        assert_eq!(back.checkpoints, report.checkpoints);
    }
}
