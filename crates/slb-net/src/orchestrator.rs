//! The orchestrator: spawns a cluster's node processes and drives
//! [`Supervisor`], the machine that holds every decision, from one `poll(2)`
//! loop on the calling thread.
//!
//! The driver owns what the machine may not: the control listener, the
//! control connections, the child processes, the clock and the metrics file.
//! Each turn it waits — on the listener and every connection at once, until
//! the machine's [`deadline`](Supervisor::deadline) or the next child-exit
//! sweep — turns what happened into [`Event`]s, and performs the
//! [`Action`]s the machine answers with. It starts no thread and nothing in
//! it sleeps or blocks on one peer: an accepted connection is read through
//! the same non-blocking frame reader as the data plane's, and stays
//! unidentified, at no cost to anyone, until its first whole frame arrives.

use std::collections::{BTreeMap, VecDeque};
use std::fs::File;
use std::io::{BufWriter, ErrorKind, Write};
use std::net::TcpListener;
use std::os::fd::AsRawFd;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use slb_engine::{
    assemble_result, exact_scenario_windowed_counts, exact_windowed_counts, EngineResult, WindowId,
    WindowedRun,
};
use slb_telemetry::{log, MetricsSnapshot};

use crate::cluster::{ClusterSpec, NodeRole, RunSpec};
use crate::node::{io_err, next_control, send_control, CountPartial};
use crate::poll;
use crate::supervisor::{Action, ConnId, Event, Plan, Supervisor, ROLES};
use crate::tcp::Conn;

/// Default heartbeat silence after which a worker is declared dead. Large
/// relative to the workers' heartbeat interval so a scheduling hiccup is
/// never a death sentence; a caller sets another through
/// [`OrchestrateOptions::heartbeat_timeout`].
const DEFAULT_HEARTBEAT_TIMEOUT: Duration = Duration::from_secs(5);

/// How often, at the least, the driver looks for child processes that have
/// exited: a `poll` timeout, not a sleep.
const EXIT_SWEEP: Duration = Duration::from_millis(200);

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

/// Supervision knobs for [`orchestrate_with`]. The default is the run
/// [`orchestrate`] performs: no durable log, and a worker's death fails it.
#[derive(Debug, Clone)]
pub struct OrchestrateOptions {
    /// Give every worker a durable checkpoint log and answer a worker's
    /// death with a respawn from it instead of failing the run. The nodes
    /// speak the same protocol either way.
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
    /// Heartbeat silence after which a worker is declared dead. Defaults to
    /// 5 s.
    pub heartbeat_timeout: Duration,
    /// Directory for the merged metrics stream: every [`MetricsSnapshot`]
    /// the nodes ship (periodic and final) is appended as one JSON object
    /// per line to `<dir>/metrics.jsonl`, ending with the cluster rollup.
    /// `None` keeps the rollup in [`OrchestratorOutcome::metrics`] only.
    pub metrics_dir: Option<PathBuf>,
    /// Periodic snapshot cadence handed to the nodes
    /// (`--metrics-interval-ms`); `None`, the default, means final snapshots
    /// only.
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
            heartbeat_timeout: DEFAULT_HEARTBEAT_TIMEOUT,
            metrics_dir: None,
            metrics_interval: None,
        }
    }
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
    let listener =
        TcpListener::bind(("127.0.0.1", 0)).map_err(|e| io_err("binding control listener", e))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| io_err("setting control listener non-blocking", e))?;
    let mut cluster = Cluster {
        node_exe,
        options,
        listener,
        children: Vec::new(),
        conns: BTreeMap::new(),
        next_conn: 0,
        metrics: None,
    };
    let outcome = cluster.run(spec);
    cluster.shut_down(outcome.is_err());
    outcome
}

/// Everything of a running cluster the driver owns.
struct Cluster<'a> {
    node_exe: &'a Path,
    options: &'a OrchestrateOptions,
    listener: TcpListener,
    /// By `ProcId` (spawn order); `None` once reaped.
    children: Vec<Option<Child>>,
    conns: BTreeMap<ConnId, Conn>,
    next_conn: ConnId,
    /// The merged metrics stream: every snapshot in arrival order, one JSON
    /// object per line.
    metrics: Option<BufWriter<File>>,
}

impl Cluster<'_> {
    fn run(&mut self, spec: &ClusterSpec) -> Result<OrchestratorOutcome, String> {
        let plan = spec
            .stage_plan()
            .map_err(|e| io_err("invalid cluster spec", e))?;
        // Nodes run what they parse back out of this text, so it has to say
        // exactly what `spec` says.
        let config = spec.shipped_text()?.into_bytes();
        if let Some(dir) = &self.options.metrics_dir {
            std::fs::create_dir_all(dir).map_err(|e| io_err("creating metrics directory", e))?;
            let file = File::create(dir.join("metrics.jsonl"))
                .map_err(|e| io_err("creating metrics.jsonl", e))?;
            self.metrics = Some(BufWriter::new(file));
        }
        let nodes = [plan.sources, plan.spawned_workers, plan.aggregators];
        for (role, count) in ROLES.into_iter().zip(nodes) {
            for index in 0..count {
                self.spawn(role, index, false)?;
            }
        }
        // Any instant every node agrees on serves as the run epoch.
        let epoch = SystemTime::now().duration_since(UNIX_EPOCH);
        let supervision = Plan {
            nodes,
            options: self.options.clone(),
            config,
            epoch_unix_micros: epoch.unwrap_or_default().as_micros() as u64,
        };
        let mut supervisor = Supervisor::new(supervision, Instant::now());
        self.supervise(&mut supervisor)?;
        let outcome = supervisor.outcome;
        // Close the metrics stream: the rollup is always its last line, so a
        // consumer can `tail -n 1` for the cluster totals.
        if let Some(mut writer) = self.metrics.take() {
            if let Some(rollup) = &outcome.metrics {
                writeln!(writer, "{}", rollup.to_json())
                    .map_err(|e| io_err("writing metrics rollup", e))?;
            }
            writer
                .flush()
                .map_err(|e| io_err("flushing metrics.jsonl", e))?;
        }
        let sources = complete(outcome.sources)?;
        let sent_total = sources
            .iter()
            .fold(0u64, |sum, report| sum.saturating_add(report.sent));
        let WindowedRun { result, windows } = assemble_result(
            &plan,
            sources,
            complete(outcome.workers)?,
            complete(outcome.aggregators)?,
            outcome.elapsed.as_secs_f64(),
        );
        // A degraded run *loses* the excluded worker's unshipped tuples by
        // design; the conservation check only holds for healthy runs.
        if outcome.degraded.is_empty() && sent_total != result.processed {
            return Err(format!(
                "lost tuples: sources sent {} but workers processed {}",
                sent_total, result.processed
            ));
        }
        Ok(OrchestratorOutcome {
            result,
            windows,
            sent_total,
            degraded: outcome.degraded,
            metrics: outcome.metrics,
        })
    }

    /// The loop: wait, tell the machine what happened, do what it says,
    /// until it says the run is done or failed.
    fn supervise(&mut self, supervisor: &mut Supervisor) -> Result<(), String> {
        let mut events = VecDeque::new();
        let mut actions = Vec::new();
        // Exits seen but not yet told. A process's exit is told only after a
        // wait that found nothing to read: whatever it wrote before exiting
        // — its report — is told first.
        let mut exits: Vec<Event> = Vec::new();
        let mut next_sweep = Instant::now();
        loop {
            let now = Instant::now();
            if now >= next_sweep {
                self.reap(&mut exits);
                next_sweep = now + EXIT_SWEEP;
            }
            let wake = match supervisor.deadline() {
                _ if !exits.is_empty() => now,
                Some(deadline) => deadline.min(next_sweep),
                None => next_sweep,
            };
            let quiet = !self.wait(poll::timeout_until(Some(wake), now), &mut events)?;
            if quiet {
                events.extend(exits.drain(..));
            }
            events.push_back(Event::Tick);
            let now = Instant::now();
            while let Some(event) = events.pop_front() {
                supervisor.on(event, now, &mut actions);
                for action in actions.drain(..) {
                    if self.perform(action, &mut events, &mut exits)? {
                        return Ok(());
                    }
                }
            }
        }
    }

    /// Waits up to `timeout_ms` for the control plane to have something,
    /// reads every connection that does once, and queues what that
    /// completed. Returns whether anything was there.
    fn wait(&mut self, timeout_ms: i32, events: &mut VecDeque<Event>) -> Result<bool, String> {
        // The poll set: the listener, then `conns` in order.
        let conns = self.conns.values().map(|conn| conn.stream.as_raw_fd());
        let fds = std::iter::once(self.listener.as_raw_fd()).chain(conns);
        let mut fds: Vec<_> = fds.map(poll::PollFd::readable).collect();
        poll::wait_readable(&mut fds, timeout_ms)
            .map_err(|e| io_err("polling the control plane", e))?;
        let mut ready = fds[1..].iter();
        self.conns.retain(|&id, conn| {
            if !ready.next().is_some_and(poll::PollFd::is_ready) {
                return true;
            }
            conn.read_once();
            loop {
                match next_control(conn) {
                    Ok(Some(frame)) => events.push_back(Event::Frame(id, Box::new(frame))),
                    Ok(None) => return true,
                    Err(detail) => {
                        events.push_back(Event::Closed(id, detail));
                        return false;
                    }
                }
            }
        });
        while fds[0].is_ready() {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.conns.insert(self.next_conn, Conn::new(stream));
                    events.push_back(Event::Connected(self.next_conn));
                    self.next_conn += 1;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => return Err(io_err("accepting control connection", e)),
            }
        }
        Ok(fds.iter().any(poll::PollFd::is_ready))
    }

    /// Does what the machine said; `Ok(true)` once it said the run is done.
    fn perform(
        &mut self,
        action: Action,
        events: &mut VecDeque<Event>,
        exits: &mut Vec<Event>,
    ) -> Result<bool, String> {
        match action {
            Action::Send(conn, frame) => {
                // A write that fails — or would block: these frames are
                // small, so that is a peer long gone deaf — ends the
                // connection like a read that fails.
                let sent = self
                    .conns
                    .get_mut(&conn)
                    .map(|peer| send_control(&mut peer.stream, &frame));
                if let Some(Err(detail)) = sent {
                    self.conns.remove(&conn);
                    events.push_back(Event::Closed(conn, detail));
                }
            }
            Action::Drop(conn) => drop(self.conns.remove(&conn)),
            Action::Respawn(worker) => self.spawn(NodeRole::Worker, worker, true)?,
            Action::Kill(proc) => {
                if let Some(mut child) = self.children.get_mut(proc).and_then(Option::take) {
                    let _ = child.kill();
                    let _ = child.wait();
                    exits.push(Event::Exited(proc, false));
                }
            }
            Action::Export(snapshot) => {
                if let Some(writer) = self.metrics.as_mut() {
                    writeln!(writer, "{}", snapshot.to_json())
                        .map_err(|e| io_err("writing metrics line", e))?;
                }
            }
            Action::Fail(message) => return Err(message),
            Action::Done => return Ok(true),
        }
        Ok(false)
    }

    /// Starts one node process; a worker's `rejoin` incarnation restores
    /// from its checkpoint log and announces itself with `Rejoin`.
    fn spawn(&mut self, role: NodeRole, index: usize, rejoin: bool) -> Result<(), String> {
        let control = self.listener.local_addr();
        let control = control.map_err(|e| io_err("reading control address", e))?;
        let mut cmd = Command::new(self.node_exe);
        cmd.arg(role.name())
            .arg("--index")
            .arg(index.to_string())
            .arg("--control")
            .arg(control.to_string());
        if let Some(interval) = self.options.metrics_interval {
            cmd.arg("--metrics-interval-ms")
                .arg(interval.as_millis().to_string());
        }
        if self.options.fault_tolerant && role == NodeRole::Worker {
            let ckpt_dir = self.options.ckpt_dir.clone().unwrap_or_else(|| {
                std::env::temp_dir().join(format!("slb-node-ckpt-{}", std::process::id()))
            });
            cmd.arg("--ckpt-dir").arg(ckpt_dir);
            let crash_plan = self
                .options
                .crash_worker
                .filter(|&(victim, _)| victim == index);
            if rejoin {
                cmd.arg("--rejoin");
            } else if let Some((_, closes)) = crash_plan {
                // Only the first incarnation carries the crash plan, so the
                // injected abort fires exactly once.
                cmd.arg("--crash-after-closes").arg(closes.to_string());
            }
        }
        let child = cmd
            .spawn()
            .map_err(|e| io_err("spawning node process", e))?;
        self.children.push(Some(child));
        Ok(())
    }

    /// Collects the children that have exited since the last sweep.
    fn reap(&mut self, exits: &mut Vec<Event>) {
        for (proc, slot) in self.children.iter_mut().enumerate() {
            if let Some(Ok(Some(status))) = slot.as_mut().map(Child::try_wait) {
                log::debug(
                    "slb-node",
                    &format!("node process {proc} exited ({status})"),
                );
                exits.push(Event::Exited(proc, status.success()));
                *slot = None;
            }
        }
    }

    /// Ends the run's processes: killed if the run `failed`, awaited either
    /// way.
    fn shut_down(&mut self, failed: bool) {
        // An aggregator stays until its control connection says Release or
        // closes.
        self.conns.clear();
        for child in self.children.iter_mut().flatten() {
            if failed {
                let _ = child.kill();
            }
            let _ = child.wait();
        }
    }
}

/// A role's reports, every one of which a finished run has.
fn complete<T>(reports: Vec<Option<T>>) -> Result<Vec<T>, String> {
    let all = reports.into_iter().collect::<Option<_>>();
    all.ok_or_else(|| "the supervisor finished without every report".into())
}

/// The single-threaded exact reference for the spec's run — what the merged
/// windowed counts of a correct distributed run must equal bit for bit.
pub fn exact_reference(spec: &ClusterSpec) -> BTreeMap<WindowId, CountPartial> {
    match &spec.run {
        RunSpec::Engine(cfg) => exact_windowed_counts(cfg),
        RunSpec::Scenario(cfg) => exact_scenario_windowed_counts(&cfg.scenario),
    }
}
