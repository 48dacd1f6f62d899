//! The orchestrator's policy as a pure state machine.
//!
//! [`Supervisor::on`] takes one [`Event`] and the time it happened and
//! appends the [`Action`]s that answer it; [`Supervisor::deadline`] says when
//! the next `Tick` is due. Nothing here owns a socket or a process or reads a
//! clock — the driver in `orchestrator.rs` does, and a test can script the
//! events and advance the time by hand.
//!
//! ```text
//!            every Hello in            every worker              every source and
//!            → Start to all            Done or Excluded          aggregator reported
//!   Wiring ─────────────────▶ Running ──────────────▶ Draining ──────────────────▶ Done
//!                                                  (Release to sources
//!                                                   and aggregators)
//!
//!   per worker, while Running (fault-tolerant runs only):
//!
//!              connection closed │ process exited │ heartbeat silence
//!   Running ─────────────────────┴────────────────┴──────────────────▶ budget left?
//!      ▲                                                               │yes      │no
//!      │  Rejoin on a fresh connection:                                ▼         ▼
//!      └── Rejoin to every source, then Start ◀── Awaiting(since)            Excluded
//!                                                                   (Exclude to sources
//!      WorkerReport ─▶ Done                                          and aggregators)
//! ```
//!
//! A connection is nobody until its first frame names it: a `Hello` while
//! Wiring, a `Rejoin` from an `Awaiting` worker while Running. Anything else
//! as a first frame gets that connection dropped and changes nothing; a
//! connection that says nothing costs nothing. Every state that waits on a
//! peer has a deadline.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use slb_engine::{AggregatorStageReport, SourceStageReport, WorkerStageReport};
use slb_telemetry::{log, stage, MetricsSnapshot};

use crate::cluster::NodeRole;
use crate::node::CountPartial;
use crate::orchestrator::OrchestrateOptions;
use crate::wire::ControlFrame;

/// Names one accepted control connection; the driver never reuses one.
pub(crate) type ConnId = usize;

/// Names one node process by spawn order: sources, workers and aggregators
/// in index order, then every respawn in the order of its [`Action::Respawn`].
pub(crate) type ProcId = usize;

/// How long the control-plane *handshakes* (every Hello while Wiring, a
/// respawned worker's Rejoin, the last reports once every worker is through)
/// may take before the cluster is declared wedged and torn down. Worker
/// reports after `Start` are deliberately unbounded — a healthy run's
/// duration scales with its config — with liveness watched through process
/// exits and heartbeats instead.
pub(crate) const CONTROL_TIMEOUT: Duration = Duration::from_secs(120);

/// How long after the last node process exited the run may still lack a
/// report before that is final.
const EXIT_GRACE: Duration = Duration::from_secs(2);

/// What the driver observed.
#[derive(Debug)]
pub(crate) enum Event {
    /// A connection was accepted.
    Connected(ConnId),
    /// A complete frame arrived.
    Frame(ConnId, Box<ControlFrame>),
    /// The connection is over — closed by the peer, unreadable, or carrying
    /// bytes that are not a frame — and the driver has let go of it.
    Closed(ConnId, String),
    /// The process exited, successfully or not; once per process, and only
    /// after every frame it had written was delivered.
    Exited(ProcId, bool),
    /// Time passed; sent after every batch of events.
    Tick,
}

/// What the driver is to do.
#[derive(Debug, PartialEq)]
pub(crate) enum Action {
    /// Write the frame; a connection that is gone no longer needs it.
    Send(ConnId, ControlFrame),
    /// Close the connection.
    Drop(ConnId),
    /// Start the worker's next incarnation, restoring from its checkpoint.
    Respawn(usize),
    /// Kill the process and reap it.
    Kill(ProcId),
    /// Append the snapshot to the metrics stream.
    Export(MetricsSnapshot),
    /// The run failed. Nothing follows.
    Fail(String),
    /// Every report is in. Nothing follows.
    Done,
}

/// What a run is, as far as supervising it goes.
pub(crate) struct Plan {
    /// How many sources, workers and aggregators.
    pub nodes: [usize; 3],
    /// Of which `fault_tolerant`, `respawn_budget`, `heartbeat_timeout` and
    /// `kill_worker` matter here.
    pub options: OrchestrateOptions,
    /// The cluster spec text every `Start` carries.
    pub config: Vec<u8>,
    /// The run epoch every `Start` carries, in µs since `UNIX_EPOCH`: any
    /// instant all nodes agree on serves, and this module reads no clock.
    pub epoch_unix_micros: u64,
}

/// Everything a run has reported so far; once [`Action::Done`] is out,
/// every `Option` in it is `Some`.
#[derive(Default)]
pub(crate) struct Outcome {
    pub sources: Vec<Option<SourceStageReport>>,
    /// An excluded worker's report is the empty one.
    pub workers: Vec<Option<WorkerStageReport>>,
    pub aggregators: Vec<Option<AggregatorStageReport<CountPartial>>>,
    /// Workers that exhausted their respawn budget, in exclusion order.
    pub degraded: Vec<usize>,
    /// The fold of every final snapshot.
    pub metrics: Option<MetricsSnapshot>,
    /// `Start` to the last report.
    pub elapsed: Duration,
}

#[derive(Debug, Clone, Copy)]
enum Phase {
    /// Collecting hellos until the instant given.
    Wiring(Instant),
    Running,
    /// Every worker is through; waiting, since the instant given, for the
    /// reports still out.
    Draining(Instant),
    /// Finished or failed: every further event is ignored.
    Done,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum WorkerState {
    /// Alive: control connection open, heartbeats flowing.
    Running,
    /// Respawned at the instant given; its Rejoin has not arrived yet.
    Awaiting(Instant),
    /// Reported and finished.
    Done,
    /// Respawn budget exhausted; out of the run.
    Excluded,
}

struct Worker {
    state: WorkerState,
    last_seen: Instant,
    budget_left: u32,
    /// The current incarnation's process.
    proc: ProcId,
}

/// A node of the run: its role and its index within the role.
type Node = (NodeRole, usize);

/// Index of a role's row in the per-role tables.
fn slot(role: NodeRole) -> usize {
    role.as_u8() as usize
}

/// The roles in [`ProcId`] order.
pub(crate) const ROLES: [NodeRole; 3] = [NodeRole::Source, NodeRole::Worker, NodeRole::Aggregator];
const WORKER: usize = 1;

/// The state machine; see the module doc.
pub(crate) struct Supervisor {
    plan: Plan,
    phase: Phase,
    /// When the event being answered happened, and the answer so far.
    now: Instant,
    out: Vec<Action>,
    /// Every open connection, and who it turned out to be.
    peers: HashMap<ConnId, Option<Node>>,
    /// Per role and index, the connection that speaks for the node now. A
    /// replaced worker incarnation's connection is not in here, so whatever
    /// still arrives on it — its close included — counts for nothing.
    conn_of: [Vec<Option<ConnId>>; 3],
    /// Per role and index, the data port the node's hello announced.
    ports: [Vec<u16>; 3],
    workers: Vec<Worker>,
    /// The one `Start`, sent at the instant given: a respawned worker gets
    /// the same frame after its Rejoin, so every incarnation resolves the
    /// identical plan.
    start: Option<(ControlFrame, Instant)>,
    kill_at: Option<(usize, Instant)>,
    /// Whose every process spawned so far is, by [`ProcId`].
    procs: Vec<Node>,
    /// How many of them have not exited yet.
    alive: usize,
    /// Since when none has been alive.
    deserted_since: Option<Instant>,
    /// What the run has reported.
    pub(crate) outcome: Outcome,
}

impl Supervisor {
    /// A machine waiting, from `now`, for the hellos of `plan`'s nodes.
    pub(crate) fn new(plan: Plan, now: Instant) -> Self {
        let nodes_of = |role| (0..plan.nodes[slot(role)]).map(move |index| (role, index));
        let procs: Vec<_> = ROLES.into_iter().flat_map(nodes_of).collect();
        let worker = |w| Worker {
            state: WorkerState::Running,
            last_seen: now,
            budget_left: plan.options.respawn_budget,
            proc: plan.nodes[0] + w,
        };
        Self {
            phase: Phase::Wiring(now + CONTROL_TIMEOUT),
            now,
            out: Vec::new(),
            peers: HashMap::new(),
            conn_of: plan.nodes.map(|n| vec![None; n]),
            ports: plan.nodes.map(|n| vec![0; n]),
            workers: (0..plan.nodes[WORKER]).map(worker).collect(),
            start: None,
            kill_at: None,
            alive: procs.len(),
            procs,
            deserted_since: None,
            outcome: Outcome {
                sources: vec![None; plan.nodes[0]],
                workers: vec![None; plan.nodes[WORKER]],
                aggregators: vec![None; plan.nodes[2]],
                ..Outcome::default()
            },
            plan,
        }
    }

    /// Answers one event that happened at `now`.
    pub(crate) fn on(&mut self, event: Event, now: Instant, out: &mut Vec<Action>) {
        if matches!(self.phase, Phase::Done) {
            return;
        }
        self.now = now;
        match event {
            Event::Connected(conn) => {
                self.peers.insert(conn, None);
            }
            Event::Frame(conn, frame) => match self.peers.get(&conn).copied() {
                Some(Some(node)) => self.on_peer_frame(conn, node, *frame),
                Some(None) => self.on_first_frame(conn, *frame),
                // Dropped above, and the driver had read ahead.
                None => {}
            },
            Event::Closed(conn, detail) => match self.peers.remove(&conn) {
                Some(Some(node)) => self.on_peer_closed(conn, node, &detail),
                Some(None) => log::warn(
                    "slb-node",
                    &format!("an unidentified control connection ended: {detail}"),
                ),
                None => {}
            },
            Event::Exited(proc, success) => self.on_exit(proc, success),
            Event::Tick => self.on_tick(),
        }
        self.settle();
        let verdict = |action: &Action| matches!(action, Action::Fail(_) | Action::Done);
        if let Some(at) = self.out.iter().position(verdict) {
            self.out.truncate(at + 1);
            self.phase = Phase::Done;
        }
        out.append(&mut self.out);
    }

    /// When the next `Tick` is due at the latest; `None` while nothing but
    /// an event can move the run on.
    pub(crate) fn deadline(&self) -> Option<Instant> {
        let phase = match self.phase {
            Phase::Wiring(deadline) => Some(deadline),
            Phase::Draining(since) => Some(since + CONTROL_TIMEOUT),
            Phase::Running => None,
            Phase::Done => return None,
        };
        let workers = self.workers.iter().filter_map(|worker| match worker.state {
            WorkerState::Running if self.heartbeats_count() => {
                Some(worker.last_seen + self.plan.options.heartbeat_timeout)
            }
            WorkerState::Awaiting(since) => Some(since + CONTROL_TIMEOUT),
            _ => None,
        });
        let kill = self.kill_at.map(|(_, at)| at);
        let deserted = self.deserted_since.map(|since| since + EXIT_GRACE);
        let all = phase.into_iter().chain(workers).chain(kill).chain(deserted);
        all.min()
    }

    fn fail(&mut self, message: String) {
        self.out.push(Action::Fail(message));
    }

    fn awaiting(&self, worker: usize) -> bool {
        let awaiting = |worker: &Worker| matches!(worker.state, WorkerState::Awaiting(_));
        self.workers.get(worker).is_some_and(awaiting)
    }

    /// Whether heartbeat silence is a death signal right now.
    fn heartbeats_count(&self) -> bool {
        self.plan.options.fault_tolerant && matches!(self.phase, Phase::Running)
    }

    fn on_first_frame(&mut self, conn: ConnId, frame: ControlFrame) {
        match frame {
            ControlFrame::Hello {
                role,
                index,
                data_port,
            } if matches!(self.phase, Phase::Wiring(_)) => {
                self.on_hello(conn, role, index as usize, data_port);
            }
            // Only a run that is Running has workers Awaiting.
            ControlFrame::Rejoin { worker, .. } if self.awaiting(worker as usize) => {
                let w = worker as usize;
                self.peers.insert(conn, Some((NodeRole::Worker, w)));
                self.conn_of[WORKER][w] = Some(conn);
                self.workers[w].state = WorkerState::Running;
                self.workers[w].last_seen = self.now;
                // Sources learn the new port and the replay cursors before
                // the worker starts accepting, so their re-dial always finds
                // the listener bound.
                self.broadcast(&[NodeRole::Source], &frame);
                let start = self
                    .start
                    .iter()
                    .map(|(start, _)| Action::Send(conn, start.clone()));
                self.out.extend(start);
            }
            _ => {
                // Neither a Hello that was waited for nor a respawn's Rejoin.
                log::warn("slb-node", "dropping a control connection nobody expected");
                self.peers.remove(&conn);
                self.out.push(Action::Drop(conn));
            }
        }
    }

    fn on_hello(&mut self, conn: ConnId, role: u8, index: usize, data_port: u16) {
        let Ok(role) = NodeRole::from_u8(role) else {
            return self.fail(format!("hello from unknown role {role} (index {index})"));
        };
        let name = role.name();
        match self.conn_of[slot(role)].get_mut(index) {
            Some(vacant @ None) => *vacant = Some(conn),
            Some(Some(_)) => return self.fail(format!("second hello from {name} {index}")),
            None => return self.fail(format!("hello from {name} {index}, whom the spec lacks")),
        }
        self.peers.insert(conn, Some((role, index)));
        self.ports[slot(role)][index] = data_port;
        if self.conn_of.iter().flatten().any(Option::is_none) {
            return;
        }
        let start = ControlFrame::Start {
            epoch_unix_micros: self.plan.epoch_unix_micros,
            worker_ports: self.ports[WORKER].clone(),
            aggregator_ports: self.ports[slot(NodeRole::Aggregator)].clone(),
            config: self.plan.config.clone(),
        };
        self.broadcast(&ROLES, &start);
        self.start = Some((start, self.now));
        self.phase = Phase::Running;
        for worker in &mut self.workers {
            worker.last_seen = self.now;
        }
        let in_range = |&(w, _): &(usize, u64)| w < self.workers.len();
        let kill = self.plan.options.kill_worker.filter(in_range);
        self.kill_at = kill.map(|(w, ms)| (w, self.now + Duration::from_millis(ms)));
    }

    fn on_peer_frame(&mut self, conn: ConnId, (role, index): Node, frame: ControlFrame) {
        if self.conn_of[slot(role)][index] != Some(conn) {
            return;
        }
        match frame {
            ControlFrame::SourceReport { index: i, report }
                if role == NodeRole::Source && i as usize == index =>
            {
                self.outcome.sources[index] = Some(report);
            }
            ControlFrame::WorkerReport { index: i, report }
                if role == NodeRole::Worker && i as usize == index =>
            {
                self.outcome.workers[index] = Some(report);
                self.workers[index].state = WorkerState::Done;
            }
            ControlFrame::AggregatorReport { index: i, report }
                if role == NodeRole::Aggregator && i as usize == index =>
            {
                self.outcome.aggregators[index] = Some(report);
            }
            ControlFrame::Heartbeat { worker }
                if role == NodeRole::Worker && worker as usize == index =>
            {
                self.workers[index].last_seen = self.now;
            }
            ControlFrame::Metrics(snap) => {
                if snap.finished {
                    match self.outcome.metrics.as_mut() {
                        Some(rollup) => rollup.merge(&snap),
                        None => {
                            self.outcome.metrics = Some(MetricsSnapshot {
                                stage: stage::CLUSTER,
                                instance: 0,
                                ..snap.clone()
                            });
                        }
                    }
                }
                self.out.push(Action::Export(snap));
            }
            _ => self.fail(format!(
                "unexpected control frame from {} {index}",
                role.name()
            )),
        }
    }

    fn on_peer_closed(&mut self, conn: ConnId, (role, index): Node, detail: &str) {
        if self.conn_of[slot(role)][index] != Some(conn) {
            return;
        }
        self.conn_of[slot(role)][index] = None;
        let supervised = self.plan.options.fault_tolerant && role == NodeRole::Worker;
        if matches!(self.phase, Phase::Wiring(_)) || !(supervised || self.reported(role, index)) {
            self.fail(format!("{} {index}: {detail}", role.name()));
        } else if supervised && self.workers[index].state == WorkerState::Running {
            // A closed connection is not an observed exit: fence.
            self.on_death(index, true);
        }
    }

    fn on_exit(&mut self, proc: ProcId, success: bool) {
        self.alive = self.alive.saturating_sub(1);
        if self.alive == 0 {
            self.deserted_since = Some(self.now);
        }
        if matches!(self.phase, Phase::Wiring(_)) {
            return self.fail("a node process exited prematurely, before the run started".into());
        }
        // A replaced incarnation's exit is nobody's.
        let current =
            |&(role, index): &Node| role != NodeRole::Worker || self.workers[index].proc == proc;
        match self.procs.get(proc).copied().filter(current) {
            // A respawn that exits before rejoining burns budget too.
            Some((NodeRole::Worker, w)) if self.plan.options.fault_tolerant && !self.through(w) => {
                self.on_death(w, false);
            }
            Some((role, index)) if !success && !self.reported(role, index) => {
                self.fail(format!("{} {index} failed", role.name()));
            }
            _ => {}
        }
    }

    /// One transition for all three death signals: respawn while budget
    /// remains, exclude (and tell sources and aggregators) once it runs out.
    /// Unless the process was seen to exit it may be alive — wedged, or just
    /// slow — and two incarnations must never share a checkpoint log, so the
    /// old one is killed first (`fence`).
    fn on_death(&mut self, w: usize, fence: bool) {
        self.conn_of[WORKER][w] = None;
        let worker = &mut self.workers[w];
        if fence {
            self.out.push(Action::Kill(worker.proc));
        }
        if worker.budget_left > 0 {
            worker.budget_left -= 1;
            worker.state = WorkerState::Awaiting(self.now);
            worker.proc = self.procs.len();
            self.procs.push((NodeRole::Worker, w));
            self.alive += 1;
            self.deserted_since = None;
            self.out.push(Action::Respawn(w));
        } else {
            worker.state = WorkerState::Excluded;
            self.outcome.degraded.push(w);
            // The engine's assemble path tolerates the empty report, and the
            // aggregators finalize this worker's windows without it.
            self.outcome.workers[w] = Some(WorkerStageReport::default());
            let exclude = ControlFrame::Exclude { worker: w as u32 };
            self.broadcast(&[NodeRole::Source, NodeRole::Aggregator], &exclude);
        }
    }

    fn on_tick(&mut self) {
        let now = self.now;
        match self.phase {
            Phase::Wiring(deadline) if now >= deadline => {
                let connected = self.conn_of.iter().flatten().flatten().count();
                let nodes = self.conn_of.iter().flatten().count();
                self.fail(format!(
                    "timed out waiting for node hellos ({connected}/{nodes} connected)"
                ));
            }
            Phase::Draining(since) if now >= since + CONTROL_TIMEOUT => {
                self.fail("timed out waiting for the last reports".into());
            }
            _ => {}
        }
        if let Some((w, _)) = self.kill_at.filter(|&(_, at)| now >= at) {
            self.kill_at = None;
            self.out.push(Action::Kill(self.workers[w].proc));
        }
        for w in 0..self.workers.len() {
            let silent_at = self.workers[w].last_seen + self.plan.options.heartbeat_timeout;
            match self.workers[w].state {
                WorkerState::Running if self.heartbeats_count() && now >= silent_at => {
                    self.on_death(w, true);
                }
                WorkerState::Awaiting(since) if now >= since + CONTROL_TIMEOUT => {
                    self.fail(format!("worker {w} respawned but never rejoined"));
                }
                _ => {}
            }
        }
        if self
            .deserted_since
            .is_some_and(|since| now >= since + EXIT_GRACE)
        {
            self.fail("every node process exited but reports never arrived".into());
        }
    }

    /// Moves the run on once what its phase waits for is complete.
    fn settle(&mut self) {
        let all_through = (0..self.workers.len()).all(|w| self.through(w));
        if matches!(self.phase, Phase::Running) && all_through {
            // No further rejoin or replay is possible: end the sources'
            // post-emission wait and the aggregators' late accepts.
            self.broadcast(
                &[NodeRole::Source, NodeRole::Aggregator],
                &ControlFrame::Release,
            );
            self.phase = Phase::Draining(self.now);
        }
        if let (Phase::Draining(_), Some((_, started))) = (self.phase, &self.start) {
            if self.outcome.sources.iter().all(Option::is_some)
                && self.outcome.aggregators.iter().all(Option::is_some)
            {
                self.outcome.elapsed = self.now.saturating_duration_since(*started);
                self.out.push(Action::Done);
            }
        }
    }

    /// `frame` to every connected node of `roles`, in role then index order.
    fn broadcast(&mut self, roles: &[NodeRole], frame: &ControlFrame) {
        let conn_of = &self.conn_of;
        let conns = roles
            .iter()
            .flat_map(|&role| conn_of[slot(role)].iter().flatten());
        self.out
            .extend(conns.map(|&conn| Action::Send(conn, frame.clone())));
    }

    /// Whether the worker will take no further part: reported, or excluded.
    fn through(&self, worker: usize) -> bool {
        let state = self.workers[worker].state;
        matches!(state, WorkerState::Done | WorkerState::Excluded)
    }

    fn reported(&self, role: NodeRole, index: usize) -> bool {
        match role {
            NodeRole::Source => self.outcome.sources[index].is_some(),
            NodeRole::Worker => self.through(index),
            NodeRole::Aggregator => self.outcome.aggregators[index].is_some(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const SOURCES: usize = 2;
    const WORKERS: usize = 3;
    const AGGREGATORS: usize = 2;
    const NODES: usize = SOURCES + WORKERS + AGGREGATORS;
    const HEARTBEAT_TIMEOUT: Duration = Duration::from_secs(5);

    fn plan(fault_tolerant: bool, respawn_budget: u32) -> Plan {
        Plan {
            nodes: [SOURCES, WORKERS, AGGREGATORS],
            // Spelled out: `Default` reads the environment, which another
            // test of this crate sets to nonsense for a moment.
            options: OrchestrateOptions {
                fault_tolerant,
                respawn_budget,
                ckpt_dir: None,
                kill_worker: None,
                crash_worker: None,
                heartbeat_timeout: HEARTBEAT_TIMEOUT,
                metrics_dir: None,
                metrics_interval: None,
            },
            config: b"mode engine\n".to_vec(),
            epoch_unix_micros: 1_000_000,
        }
    }

    /// The machine, a clock advanced by hand, and the driver's id counter.
    struct Rig {
        sup: Supervisor,
        now: Instant,
        next_conn: ConnId,
    }

    /// The data port node `(role, index)` announces.
    fn port(role: NodeRole, index: usize) -> u16 {
        7000 + 100 * u16::from(role.as_u8()) + index as u16
    }

    fn source_report(source: usize) -> ControlFrame {
        let report = SourceStageReport {
            sent: 10,
            ..Default::default()
        };
        ControlFrame::SourceReport {
            index: source as u32,
            report,
        }
    }

    fn worker_report(worker: usize) -> ControlFrame {
        let report = WorkerStageReport {
            processed: 7,
            ..Default::default()
        };
        ControlFrame::WorkerReport {
            index: worker as u32,
            report,
        }
    }

    fn aggregator_report(aggregator: usize) -> ControlFrame {
        let report = AggregatorStageReport {
            merged: 3,
            ..Default::default()
        };
        ControlFrame::AggregatorReport {
            index: aggregator as u32,
            report,
        }
    }

    fn rejoin(worker: usize) -> ControlFrame {
        ControlFrame::Rejoin {
            worker: worker as u32,
            data_port: 9000,
            cursors: vec![4, 5],
        }
    }

    fn sends(actions: &[Action]) -> Vec<(ConnId, &ControlFrame)> {
        let sends = actions.iter().filter_map(|action| match action {
            Action::Send(conn, frame) => Some((*conn, frame)),
            _ => None,
        });
        sends.collect()
    }

    fn failure(actions: &[Action]) -> &str {
        match actions {
            [Action::Fail(message)] => message,
            other => panic!("expected exactly one Fail, got {other:?}"),
        }
    }

    impl Rig {
        fn new(plan: Plan) -> Self {
            let now = Instant::now();
            Self {
                sup: Supervisor::new(plan, now),
                now,
                next_conn: 0,
            }
        }

        /// A rig past Wiring. Nodes connect in [`ProcId`] order, so node
        /// `p`'s connection is `p`: sources 0–1, workers 2–4, aggregators
        /// 5–6.
        fn wired(plan: Plan) -> Self {
            let mut rig = Self::new(plan);
            for role in ROLES {
                for index in 0..rig.sup.plan.nodes[slot(role)] {
                    rig.hello(role, index);
                }
            }
            assert!(matches!(rig.sup.phase, Phase::Running));
            rig
        }

        fn on(&mut self, event: Event) -> Vec<Action> {
            let mut out = Vec::new();
            self.sup.on(event, self.now, &mut out);
            out
        }

        fn connect(&mut self) -> ConnId {
            let conn = self.next_conn;
            self.next_conn += 1;
            assert_eq!(self.on(Event::Connected(conn)), []);
            conn
        }

        fn frame(&mut self, conn: ConnId, frame: ControlFrame) -> Vec<Action> {
            self.on(Event::Frame(conn, Box::new(frame)))
        }

        fn hello(&mut self, role: NodeRole, index: usize) -> (ConnId, Vec<Action>) {
            let conn = self.connect();
            let hello = ControlFrame::Hello {
                role: role.as_u8(),
                index: index as u32,
                data_port: port(role, index),
            };
            (conn, self.frame(conn, hello))
        }

        fn closed(&mut self, conn: ConnId) -> Vec<Action> {
            self.on(Event::Closed(
                conn,
                "control peer closed the connection".into(),
            ))
        }

        fn tick_after(&mut self, wait: Duration) -> Vec<Action> {
            self.now += wait;
            self.on(Event::Tick)
        }

        fn state(&self, worker: usize) -> WorkerState {
            self.sup.workers[worker].state
        }

        /// Every report that ends a run in which `excluded` never reported.
        fn report_all_but(&mut self, excluded: &[usize]) -> Vec<Action> {
            let mut actions = Vec::new();
            for w in (0..WORKERS).filter(|w| !excluded.contains(w)) {
                let conn = self.sup.conn_of[WORKER][w].expect("a live worker is connected");
                actions.extend(self.frame(conn, worker_report(w)));
            }
            for s in 0..SOURCES {
                actions.extend(self.frame(s, source_report(s)));
            }
            for a in 0..AGGREGATORS {
                actions.extend(self.frame(SOURCES + WORKERS + a, aggregator_report(a)));
            }
            actions
        }
    }

    #[test]
    fn hellos_in_any_order_start_every_connection_once_with_ports_in_index_order() {
        let mut rig = Rig::new(plan(false, 0));
        let order = [
            (NodeRole::Aggregator, 1),
            (NodeRole::Worker, 2),
            (NodeRole::Source, 0),
            (NodeRole::Worker, 0),
            (NodeRole::Aggregator, 0),
            (NodeRole::Source, 1),
        ];
        let mut conns = Vec::new();
        for (role, index) in order {
            let (conn, actions) = rig.hello(role, index);
            assert_eq!(actions, [], "no Start before the last hello");
            conns.push(conn);
        }
        let (last, actions) = rig.hello(NodeRole::Worker, 1);
        conns.push(last);
        let expected = ControlFrame::Start {
            epoch_unix_micros: 1_000_000,
            worker_ports: (0..WORKERS).map(|w| port(NodeRole::Worker, w)).collect(),
            aggregator_ports: (0..AGGREGATORS)
                .map(|a| port(NodeRole::Aggregator, a))
                .collect(),
            config: b"mode engine\n".to_vec(),
        };
        let mut started: Vec<ConnId> = sends(&actions).iter().map(|(conn, _)| *conn).collect();
        assert_eq!(actions.len(), NODES, "nothing but the Starts");
        assert!(sends(&actions).iter().all(|(_, frame)| **frame == expected));
        started.sort_unstable();
        conns.sort_unstable();
        assert_eq!(started, conns);
        // Plain mode watches no heartbeats: nothing to wake up for.
        assert_eq!(rig.sup.deadline(), None);
    }

    #[test]
    fn a_hello_from_nobody_the_spec_knows_fails_the_run_by_name() {
        let hello = |role: u8, index: u32| ControlFrame::Hello {
            role,
            index,
            data_port: 1,
        };
        for (frame, named) in [
            (hello(9, 0), "unknown role 9"),
            (hello(1, WORKERS as u32), "worker 3"),
            (hello(0, 7), "source 7"),
        ] {
            let mut rig = Rig::new(plan(true, 1));
            let conn = rig.connect();
            let actions = rig.frame(conn, frame);
            assert!(failure(&actions).contains(named), "{actions:?}");
        }
        let mut rig = Rig::new(plan(true, 1));
        rig.hello(NodeRole::Aggregator, 1);
        let (_, actions) = rig.hello(NodeRole::Aggregator, 1);
        assert!(failure(&actions).contains("second hello from aggregator 1"));
        // Nothing follows a verdict.
        assert_eq!(rig.hello(NodeRole::Source, 0).1, []);
        assert_eq!(rig.sup.deadline(), None);
    }

    #[test]
    fn a_silent_connection_costs_nothing_and_the_hello_deadline_still_fires() {
        let mut rig = Rig::new(plan(false, 0));
        rig.connect();
        rig.hello(NodeRole::Source, 1);
        rig.hello(NodeRole::Worker, 0);
        assert_eq!(
            rig.tick_after(CONTROL_TIMEOUT - Duration::from_millis(1)),
            []
        );
        let actions = rig.tick_after(Duration::from_millis(1));
        assert!(failure(&actions).contains("(2/7 connected)"), "{actions:?}");
    }

    #[test]
    fn a_stray_connection_while_running_is_dropped_and_changes_nothing() {
        let mut rig = Rig::wired(plan(true, 1));
        // Garbage, or a peer that went away without a word: the driver has
        // already let go of the connection.
        let garbage = rig.connect();
        assert_eq!(
            rig.on(Event::Closed(garbage, "bad frame length 0".into())),
            []
        );
        // A whole frame, but not a Rejoin anyone is waiting for.
        for frame in [
            ControlFrame::Heartbeat { worker: 0 },
            ControlFrame::Release,
            rejoin(1),
            rejoin(WORKERS),
        ] {
            let stray = rig.connect();
            assert_eq!(rig.frame(stray, frame), [Action::Drop(stray)]);
            assert_eq!(rig.frame(stray, worker_report(1)), [], "dropped is dropped");
        }
        assert!((0..WORKERS).all(|w| rig.state(w) == WorkerState::Running));
        // A Rejoin cannot resurrect a worker that is through, either way.
        rig.frame(SOURCES + 1, worker_report(1));
        let late = rig.connect();
        assert_eq!(rig.frame(late, rejoin(1)), [Action::Drop(late)]);
        assert_eq!(rig.state(1), WorkerState::Done);
    }

    #[test]
    fn a_death_not_seen_as_an_exit_is_fenced_before_the_respawn() {
        // Heartbeat silence: the process is alive by definition.
        let mut rig = Rig::wired(plan(true, 1));
        for w in [0, 2] {
            rig.now += HEARTBEAT_TIMEOUT / 2;
            rig.frame(SOURCES + w, ControlFrame::Heartbeat { worker: w as u32 });
        }
        assert_eq!(rig.sup.deadline(), Some(rig.now));
        // Worker 1 has been silent since Start; 0 and 2 have not.
        assert_eq!(
            rig.on(Event::Tick),
            [Action::Kill(SOURCES + 1), Action::Respawn(1)]
        );
        assert!(matches!(rig.state(1), WorkerState::Awaiting(_)));
        // A closed connection says no more about the process than silence.
        assert_eq!(
            rig.closed(SOURCES + 2),
            [Action::Kill(SOURCES + 2), Action::Respawn(2)]
        );
        // An observed exit needs no fence — and the fenced processes'
        // own exits, told later, are nobody's death.
        assert_eq!(rig.on(Event::Exited(SOURCES, false)), [Action::Respawn(0)]);
        assert_eq!(rig.on(Event::Exited(SOURCES + 1, false)), []);
        assert_eq!(rig.on(Event::Exited(SOURCES + 2, false)), []);
    }

    #[test]
    fn a_rejoin_reaches_every_source_before_the_respawn_is_started() {
        let mut rig = Rig::wired(plan(true, 1));
        assert_eq!(
            rig.on(Event::Exited(SOURCES + 1, false)),
            [Action::Respawn(1)]
        );
        let fresh = rig.connect();
        let actions = rig.frame(fresh, rejoin(1));
        let (expected_start, _) = rig.sup.start.clone().expect("running");
        assert_eq!(
            actions,
            [
                Action::Send(0, rejoin(1)),
                Action::Send(1, rejoin(1)),
                Action::Send(fresh, expected_start),
            ]
        );
        assert_eq!(rig.state(1), WorkerState::Running);
        // The dead incarnation's connection closing now — or anything still
        // buffered on it — is no death of the new one.
        assert_eq!(rig.frame(SOURCES + 1, worker_report(1)), []);
        assert_eq!(rig.closed(SOURCES + 1), []);
        assert_eq!(rig.state(1), WorkerState::Running);
        // The new incarnation's process is the next one spawned; with the
        // budget spent, its death is an exclusion.
        let actions = rig.on(Event::Exited(NODES, false));
        assert_eq!(sends(&actions).len(), SOURCES + AGGREGATORS);
        assert_eq!(rig.state(1), WorkerState::Excluded);
    }

    #[test]
    fn an_exhausted_budget_excludes_then_releases_once_and_the_run_ends_degraded() {
        let mut rig = Rig::wired(plan(true, 0));
        let exclude = ControlFrame::Exclude { worker: 1 };
        let to_sources_and_aggregators = |frame: &ControlFrame| -> Vec<Action> {
            let conns = (0..SOURCES).chain(SOURCES + WORKERS..NODES);
            conns
                .map(|conn| Action::Send(conn, frame.clone()))
                .collect()
        };
        assert_eq!(
            rig.on(Event::Exited(SOURCES + 1, false)),
            to_sources_and_aggregators(&exclude)
        );
        assert_eq!(rig.sup.deadline(), Some(rig.now + HEARTBEAT_TIMEOUT));
        // The survivors finish: one Release round, when the last of them has.
        assert_eq!(rig.frame(SOURCES, worker_report(0)), []);
        assert_eq!(
            rig.frame(SOURCES + 2, worker_report(2)),
            to_sources_and_aggregators(&ControlFrame::Release)
        );
        assert_eq!(rig.sup.deadline(), Some(rig.now + CONTROL_TIMEOUT));
        rig.now += Duration::from_millis(40);
        assert_eq!(rig.report_all_but(&[0, 1, 2]), [Action::Done]);
        let outcome = rig.sup.outcome;
        assert_eq!(outcome.degraded, [1]);
        assert_eq!(outcome.workers[1], Some(WorkerStageReport::default()));
        assert_eq!(
            outcome.workers[2].as_ref().map(|report| report.processed),
            Some(7)
        );
        assert_eq!(outcome.elapsed, Duration::from_millis(40));
        // What the machine collected is what the engine assembles, the
        // excluded worker's empty report included.
        let cfg = slb_engine::EngineConfig {
            sources: SOURCES,
            workers: WORKERS,
            aggregators: AGGREGATORS,
            ..slb_engine::EngineConfig::smoke(slb_core::PartitionerKind::Pkg, 1.0)
        };
        let run = slb_engine::assemble_result(
            &cfg.stage_plan(),
            outcome.sources.into_iter().map(Option::unwrap).collect(),
            outcome.workers.into_iter().map(Option::unwrap).collect(),
            outcome
                .aggregators
                .into_iter()
                .map(Option::unwrap)
                .collect(),
            outcome.elapsed.as_secs_f64(),
        );
        assert_eq!(run.result.worker_counts, [7, 0, 7]);
        assert_eq!(run.result.aggregator_stage.items, 3 * AGGREGATORS as u64);
    }

    /// Every run speaks the one node protocol: without `fault_tolerant`
    /// too, the last worker's report releases the sources and the
    /// aggregators, once, and their reports end the run.
    #[test]
    fn a_run_without_fault_tolerance_releases_once_every_worker_has_reported() {
        let mut rig = Rig::wired(plan(false, 0));
        for w in 0..WORKERS - 1 {
            assert_eq!(rig.frame(SOURCES + w, worker_report(w)), []);
        }
        let conns = (0..SOURCES).chain(SOURCES + WORKERS..NODES);
        let release: Vec<_> = conns
            .map(|conn| Action::Send(conn, ControlFrame::Release))
            .collect();
        let last = WORKERS - 1;
        assert_eq!(rig.frame(SOURCES + last, worker_report(last)), release);
        let workers: Vec<usize> = (0..WORKERS).collect();
        assert_eq!(rig.report_all_but(&workers), [Action::Done]);
    }

    #[test]
    fn a_respawn_that_dies_first_burns_budget_and_one_that_never_rejoins_fails_the_run() {
        let mut rig = Rig::wired(plan(true, 2));
        assert_eq!(
            rig.on(Event::Exited(SOURCES + 1, false)),
            [Action::Respawn(1)]
        );
        assert_eq!(rig.on(Event::Exited(NODES, false)), [Action::Respawn(1)]);
        assert_eq!(rig.sup.workers[1].budget_left, 0);
        let awaiting_since = rig.now;
        // The other workers keep their heartbeats up meanwhile.
        for _ in 0..CONTROL_TIMEOUT.as_secs() {
            rig.now += Duration::from_secs(1);
            for w in [0, 2] {
                rig.frame(SOURCES + w, ControlFrame::Heartbeat { worker: w as u32 });
            }
            assert!(rig.sup.deadline() <= Some(awaiting_since + CONTROL_TIMEOUT));
            if rig.now < awaiting_since + CONTROL_TIMEOUT {
                assert_eq!(rig.on(Event::Tick), []);
            }
        }
        let actions = rig.on(Event::Tick);
        assert_eq!(failure(&actions), "worker 1 respawned but never rejoined");
    }

    #[test]
    fn every_process_gone_with_reports_missing_fails_after_the_grace_period() {
        let mut rig = Rig::wired(plan(false, 0));
        for w in 0..WORKERS {
            rig.frame(SOURCES + w, worker_report(w));
        }
        rig.frame(0, source_report(0));
        // Clean exits, connections still open as far as anyone has read.
        for proc in 0..NODES {
            assert_eq!(rig.on(Event::Exited(proc, true)), []);
        }
        assert_eq!(rig.sup.deadline(), Some(rig.now + EXIT_GRACE));
        assert_eq!(rig.tick_after(EXIT_GRACE - Duration::from_millis(1)), []);
        let actions = rig.tick_after(Duration::from_millis(1));
        assert!(failure(&actions).contains("reports never arrived"));
    }

    #[test]
    fn the_kill_injection_fires_once_at_its_deadline() {
        let mut plan = plan(true, 1);
        plan.options.kill_worker = Some((2, 250));
        let mut rig = Rig::wired(plan);
        let at = rig.now + Duration::from_millis(250);
        assert_eq!(rig.sup.deadline(), Some(at));
        assert_eq!(rig.tick_after(Duration::from_millis(249)), []);
        assert_eq!(
            rig.tick_after(Duration::from_millis(1)),
            [Action::Kill(SOURCES + 2)]
        );
        assert_eq!(rig.tick_after(Duration::from_millis(1)), []);
        assert!(rig.sup.deadline() > Some(at));
        // The kill reads as any other death: reaped, told, respawned.
        assert_eq!(
            rig.on(Event::Exited(SOURCES + 2, false)),
            [Action::Respawn(2)]
        );
    }

    #[test]
    fn unsupervised_any_node_going_away_before_its_report_fails_the_run() {
        for conn in 0..NODES {
            let mut rig = Rig::wired(plan(false, 0));
            assert!(failure(&rig.closed(conn)).contains("closed the connection"));
        }
        for proc in 0..NODES {
            let mut rig = Rig::wired(plan(false, 0));
            assert!(failure(&rig.on(Event::Exited(proc, false))).contains("failed"));
        }
        // Once it has reported, a node may go.
        let mut rig = Rig::wired(plan(false, 0));
        rig.frame(SOURCES + 1, worker_report(1));
        assert_eq!(rig.closed(SOURCES + 1), []);
        assert_eq!(rig.on(Event::Exited(SOURCES + 1, true)), []);
        // Supervised, sources and aggregators still have no respawn path.
        let mut rig = Rig::wired(plan(true, 1));
        assert!(failure(&rig.closed(NODES - 1)).contains("aggregator 1"));
    }

    #[test]
    fn metrics_are_exported_as_they_come_and_finals_fold_into_the_rollup() {
        let mut rig = Rig::wired(plan(true, 1));
        let snapshot = |finished, items| MetricsSnapshot {
            stage: stage::WORKER,
            instance: 1,
            finished,
            items,
            ..MetricsSnapshot::default()
        };
        for (finished, items) in [(false, 5), (true, 9), (true, 4)] {
            let snap = snapshot(finished, items);
            let actions = rig.frame(SOURCES + 1, ControlFrame::Metrics(snap.clone()));
            assert_eq!(actions, [Action::Export(snap)]);
        }
        let rollup = rig.sup.outcome.metrics.expect("two finals arrived");
        assert_eq!((rollup.stage, rollup.items), (stage::CLUSTER, 13));
    }

    /// What the property test's stand-in for the driver keeps track of.
    struct Model {
        rig: Rig,
        live: Vec<ConnId>,
        spawned: usize,
        exited: Vec<ProcId>,
        /// Whether the rig started wired, connection `p` being node `p`'s.
        wired: bool,
        over: bool,
    }

    impl Model {
        /// Feeds one event and checks what comes back against what a driver
        /// relies on.
        fn feed(&mut self, event: Event) -> Result<(), String> {
            let actions = self.rig.on(event);
            if self.over && !actions.is_empty() {
                return Err(format!("{actions:?} after the verdict"));
            }
            for (at, action) in actions.iter().enumerate() {
                match action {
                    Action::Fail(_) | Action::Done if at + 1 < actions.len() => {
                        return Err(format!("a verdict that is not last: {actions:?}"));
                    }
                    Action::Fail(_) | Action::Done => self.over = true,
                    Action::Send(conn, _) if !self.live.contains(conn) => {
                        return Err(format!("a frame for connection {conn}, which is gone"));
                    }
                    Action::Drop(conn) => self.live.retain(|live| live != conn),
                    Action::Respawn(_) => self.spawned += 1,
                    Action::Kill(proc) if *proc >= self.spawned => {
                        return Err(format!("killing process {proc}, which was never spawned"));
                    }
                    _ => {}
                }
            }
            let sup = &self.rig.sup;
            let awaiting = |worker: &Worker| matches!(worker.state, WorkerState::Awaiting(_));
            let waits_on_a_peer = matches!(sup.phase, Phase::Wiring(_) | Phase::Draining(_))
                || sup.workers.iter().any(awaiting);
            if !self.over && waits_on_a_peer && sup.deadline().is_none() {
                return Err(format!(
                    "{:?} waits on a peer without a deadline",
                    sup.phase
                ));
            }
            Ok(())
        }

        /// Interprets `op` as one well-typed thing a driver could report.
        fn step(&mut self, op: u64) -> Result<(), String> {
            let (kind, pick, arg) = (op % 8, (op >> 8) as usize, (op >> 32) as u32);
            let conn = (!self.live.is_empty()).then(|| self.live[pick % self.live.len()]);
            match (kind, conn) {
                (0, _) => {
                    let conn = self.rig.next_conn;
                    self.rig.next_conn += 1;
                    self.live.push(conn);
                    self.feed(Event::Connected(conn))
                }
                (1..=3, Some(conn)) => {
                    let index = arg % 4;
                    // Three times in four, what the peer would really send:
                    // the sequences that get anywhere are mostly sane.
                    let typical = arg >> 4 & 3 != 0;
                    let frame = match conn {
                        _ if !typical => match arg >> 8 & 7 {
                            0 | 1 => ControlFrame::Hello {
                                role: (arg >> 12 & 3) as u8,
                                index,
                                data_port: 1,
                            },
                            2 => ControlFrame::Heartbeat { worker: index },
                            3 => worker_report(index as usize),
                            4 => source_report(index as usize),
                            5 => aggregator_report(index as usize),
                            6 => ControlFrame::Exclude { worker: index },
                            _ => ControlFrame::Start {
                                epoch_unix_micros: 1,
                                worker_ports: Vec::new(),
                                aggregator_ports: Vec::new(),
                                config: Vec::new(),
                            },
                        },
                        _ if !self.wired || conn >= NODES => rejoin(index as usize),
                        _ if arg >> 8 & 7 == 0 => ControlFrame::Metrics(MetricsSnapshot::default()),
                        _ if conn < SOURCES => source_report(conn),
                        _ if conn >= SOURCES + WORKERS => {
                            aggregator_report(conn - SOURCES - WORKERS)
                        }
                        _ if arg >> 8 & 1 == 0 => worker_report(conn - SOURCES),
                        _ => ControlFrame::Heartbeat {
                            worker: (conn - SOURCES) as u32,
                        },
                    };
                    self.feed(Event::Frame(conn, Box::new(frame)))
                }
                (4, Some(conn)) => {
                    self.live.retain(|live| *live != conn);
                    self.feed(Event::Closed(conn, "gone".into()))
                }
                (5, _) => {
                    let proc = pick % self.spawned;
                    if self.exited.contains(&proc) {
                        return Ok(());
                    }
                    self.exited.push(proc);
                    self.feed(Event::Exited(proc, arg % 2 == 0))
                }
                _ => {
                    let waits = [1, 150, 2_500, 6_000, 130_000];
                    self.rig.now += Duration::from_millis(waits[pick % waits.len()]);
                    self.feed(Event::Tick)
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases_env(64))]

        /// Whatever a driver reports, in whatever order: the machine never
        /// panics, says nothing after its verdict, addresses only
        /// connections that are there and processes that were spawned, and
        /// has a deadline in every state that waits on a peer.
        #[test]
        fn any_event_sequence_is_answered_sanely(
            ops in proptest::collection::vec(any::<u64>(), 0..160),
            fault_tolerant in 0u8..2,
            respawn_budget in 0u32..3,
            wired in 0u8..3,
        ) {
            let mut plan = plan(fault_tolerant == 1, respawn_budget);
            plan.options.kill_worker = (respawn_budget == 1).then_some((1, 300));
            // Most sequences start from a wired cluster: random hellos
            // rarely complete one.
            let rig = if wired > 0 { Rig::wired(plan) } else { Rig::new(plan) };
            let mut model = Model {
                live: (0..rig.next_conn).collect(),
                rig,
                spawned: NODES,
                exited: Vec::new(),
                wired: wired > 0,
                over: false,
            };
            for &op in &ops {
                if let Err(violation) = model.step(op) {
                    prop_assert!(false, "{violation}");
                }
            }
        }
    }
}
