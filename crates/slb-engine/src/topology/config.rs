//! Run configuration and the resolved execution plan.
//!
//! [`EngineConfig`] (one phase) and [`ScenarioConfig`] (a multi-phase
//! [`Scenario`]) are the two front-ends; both resolve into the same
//! [`StagePlan`] through one shared builder, which is also the single place
//! the engine knobs and an attached controller are validated.

use std::sync::Arc;
use std::time::Duration;

use slb_core::{ControllerConfig, PartitionerKind, SolverMode};
use slb_workloads::{Arrival, Scenario};

use crate::fault::FaultPlan;
use crate::windows::WindowId;

/// Configuration of one single-phase engine run.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Grouping scheme under study.
    pub kind: PartitionerKind,
    /// Number of source threads (the paper uses 48).
    pub sources: usize,
    /// Number of worker threads (the paper uses 80).
    pub workers: usize,
    /// Number of distinct keys in the synthetic workload (paper: 10⁴).
    pub keys: usize,
    /// Zipf exponent of the workload (paper: 1.4, 1.7, 2.0).
    pub skew: f64,
    /// Total number of messages across all sources (paper: 2×10⁶).
    pub messages: u64,
    /// Emulated CPU time per tuple at the worker, in microseconds
    /// (the paper uses 1000 µs = 1 ms; the default here is smaller so the
    /// full figure suite runs in minutes).
    pub service_time_us: u64,
    /// Capacity of each worker's input queue, in tuples. Every transport
    /// backend derives its buffering from this one knob (see
    /// [`capacity_in_batches`](crate::transport::capacity_in_batches)).
    pub queue_capacity: usize,
    /// Seed for the workload and the hash functions.
    pub seed: u64,
    /// Number of tuples carried per channel message. Batch 1 reproduces the
    /// original tuple-at-a-time transport; the default of 256 amortizes the
    /// channel synchronization and timestamping cost across the batch.
    /// Clamped to `queue_capacity` when resolving the plan so a small
    /// queue bound is honored (a batch larger than the queue could never
    /// be accepted by the bounded channel).
    pub batch_size: usize,
    /// Tuples per window in each source sub-stream (window boundaries are
    /// deterministic: tuple `i` of a source belongs to window
    /// `i / window_size`).
    pub window_size: u64,
    /// Number of aggregator threads; the key space is sharded across them
    /// by key hash so the merge stage scales past one thread.
    pub aggregators: usize,
    /// How head-aware schemes choose `d` (see [`SolverMode`]); `Fixed(d)`
    /// gives the static-`d` baselines the elasticity controller is measured
    /// against. Forced to `External` when a controller is attached.
    pub solver: SolverMode,
    /// Optional elasticity controller stepped at every window boundary
    /// (see [`ControllerConfig`] and docs/ELASTICITY.md). When set, the
    /// controller owns the active worker count within
    /// `[min_workers, max_workers]` and `workers` is only the starting
    /// point; workers are spawned up to `max_workers`.
    pub controller: Option<ControllerConfig>,
}

/// Default number of tuples per transported batch.
pub const DEFAULT_BATCH_SIZE: usize = 256;

/// Default number of tuples per window in each source sub-stream.
pub const DEFAULT_WINDOW_SIZE: u64 = 4_096;

/// Default number of aggregator shards.
pub const DEFAULT_AGGREGATORS: usize = 2;

/// Default capacity of each worker's input queue, in tuples.
pub const DEFAULT_QUEUE_CAPACITY: usize = 1_024;

impl EngineConfig {
    /// A laptop-friendly configuration for the given scheme and skew:
    /// 4 sources, 8 workers, 10⁴ keys, 200k messages, 50 µs service time.
    pub fn laptop(kind: PartitionerKind, skew: f64) -> Self {
        Self {
            kind,
            sources: 4,
            workers: 8,
            keys: 10_000,
            skew,
            messages: 200_000,
            service_time_us: 50,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            seed: 42,
            batch_size: DEFAULT_BATCH_SIZE,
            window_size: DEFAULT_WINDOW_SIZE,
            aggregators: DEFAULT_AGGREGATORS,
            solver: SolverMode::Online,
            controller: None,
        }
    }

    /// The paper's full-scale parameters (Figures 13–14): 48 sources,
    /// 80 workers, 10⁴ keys, 2×10⁶ messages, 1 ms of work per tuple.
    pub fn paper(kind: PartitionerKind, skew: f64) -> Self {
        Self {
            kind,
            sources: 48,
            workers: 80,
            keys: 10_000,
            skew,
            messages: 2_000_000,
            service_time_us: 1_000,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            seed: 42,
            batch_size: DEFAULT_BATCH_SIZE,
            window_size: 16_384,
            aggregators: 4,
            solver: SolverMode::Online,
            controller: None,
        }
    }

    /// A tiny smoke-test configuration (a couple of seconds). The service
    /// time is chosen so that the workers — not the sources — are the
    /// bottleneck, as in the paper's saturated-cluster setup; otherwise the
    /// grouping scheme would have no effect on throughput or latency.
    pub fn smoke(kind: PartitionerKind, skew: f64) -> Self {
        Self {
            kind,
            sources: 2,
            workers: 4,
            keys: 1_000,
            skew,
            messages: 20_000,
            service_time_us: 25,
            queue_capacity: 128,
            seed: 42,
            batch_size: DEFAULT_BATCH_SIZE,
            window_size: 2_048,
            aggregators: DEFAULT_AGGREGATORS,
            solver: SolverMode::Online,
            controller: None,
        }
    }

    /// Overrides the number of messages.
    pub fn with_messages(mut self, messages: u64) -> Self {
        self.messages = messages;
        self
    }

    /// Overrides the per-tuple service time (microseconds).
    pub fn with_service_time_us(mut self, us: u64) -> Self {
        self.service_time_us = us;
        self
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the transport batch size (tuples per channel message).
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Overrides the per-worker queue capacity (tuples).
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Overrides the window size (tuples per window per source sub-stream).
    pub fn with_window_size(mut self, window_size: u64) -> Self {
        self.window_size = window_size;
        self
    }

    /// Overrides the number of aggregator shards.
    pub fn with_aggregators(mut self, aggregators: usize) -> Self {
        self.aggregators = aggregators;
        self
    }

    /// Overrides the solver mode of head-aware schemes; `Fixed(d)` is the
    /// static-`d` baseline the controller is compared against.
    pub fn with_solver(mut self, solver: SolverMode) -> Self {
        self.solver = solver;
        self
    }

    /// Attaches an elasticity controller: it is stepped at every window
    /// boundary of every source and owns the active worker count for the
    /// whole run (workers are spawned up to `controller.max_workers`). The
    /// solver mode becomes [`SolverMode::External`] so the controller is
    /// the single adaptation authority.
    pub fn with_controller(mut self, controller: ControllerConfig) -> Self {
        controller.validate();
        self.controller = Some(controller);
        self
    }

    /// Asserts the structural invariants every run entry point relies on,
    /// by resolving the plan — which is where they are checked.
    ///
    /// # Panics
    /// Panics if any structural parameter is zero or the attached
    /// controller is invalid.
    pub fn validate(&self) {
        let _ = self.stage_plan();
    }

    /// Resolves this configuration into the one-phase [`StagePlan`] every
    /// execution backend (threads or processes) runs.
    ///
    /// # Panics
    /// Panics if any structural parameter is zero or the attached
    /// controller is invalid.
    pub fn stage_plan(&self) -> StagePlan {
        self.try_stage_plan()
            .unwrap_or_else(|message| panic!("{message}"))
    }

    /// [`Self::stage_plan`] for a configuration from outside the program (a
    /// cluster spec): an invalid one is an `Err` naming the first rule it
    /// breaks, not a panic.
    pub fn try_stage_plan(&self) -> Result<StagePlan, String> {
        ensure(&[
            (self.sources > 0, "need at least one source"),
            (self.workers > 0, "need at least one worker"),
            (self.keys > 0, "need at least one key"),
            (self.window_size > 0, "windows need at least one tuple"),
            (
                self.skew.is_finite() && self.skew >= 0.0,
                "skew must be finite and non-negative",
            ),
        ])?;
        let per_source = self.messages / self.sources as u64;
        let spawned = spawned_workers(self.workers, self.controller.as_ref());
        let phase = PhasePlan {
            tuples_per_source: per_source,
            start_window: 0,
            // 0 for a degenerate messages < sources config, matching the
            // run's actual (empty) window set.
            windows: per_source.div_ceil(self.window_size),
            workers: self.workers,
            service: Arc::new(vec![Duration::from_micros(self.service_time_us); spawned]),
            arrival: Arrival::Steady,
        };
        StagePlan {
            kind: self.kind,
            seed: self.seed,
            skew: self.skew,
            sources: self.sources,
            spawned_workers: spawned,
            window_size: self.window_size,
            batch_size: self.batch_size,
            queue_capacity: self.queue_capacity,
            aggregators: self.aggregators,
            phase_starts: Arc::new(vec![0]),
            phases: Arc::new(vec![phase]),
            faults: Arc::new(FaultPlan::none()),
            solver: self.solver,
            controller: self.controller.clone(),
        }
        .resolved()
    }
}

/// The first failed rule of a list of `(holds, message)` checks.
fn ensure(rules: &[(bool, &str)]) -> Result<(), String> {
    match rules.iter().find(|(holds, _)| !holds) {
        Some((_, message)) => Err((*message).to_string()),
        None => Ok(()),
    }
}

/// The worker universe a plan spawns: the widest configured phase, widened
/// to every worker an attached controller may ever activate.
fn spawned_workers(configured: usize, controller: Option<&ControllerConfig>) -> usize {
    controller.map_or(configured, |c| configured.max(c.max_workers))
}

/// Configuration of a multi-phase scenario run: the [`Scenario`] supplies
/// the workload, phase lengths, worker counts, and speed multipliers; this
/// struct adds the engine-side knobs (base service time, transport, shards).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// Grouping scheme under study.
    pub kind: PartitionerKind,
    /// The multi-phase workload and cluster description.
    pub scenario: Scenario,
    /// Base emulated CPU time per tuple, microseconds; each phase's
    /// per-worker multipliers scale it ([`slb_workloads::ScenarioPhase::worker_speed`]).
    pub service_time_us: u64,
    /// Capacity of each worker's input queue, in tuples.
    pub queue_capacity: usize,
    /// Tuples per transported channel message (clamped to `queue_capacity`
    /// when resolving the plan, like [`EngineConfig::batch_size`]).
    pub batch_size: usize,
    /// Number of aggregator shards.
    pub aggregators: usize,
    /// How head-aware schemes choose `d` (see [`SolverMode`]). Forced to
    /// `External` when a controller is attached.
    pub solver: SolverMode,
    /// Optional elasticity controller (see [`EngineConfig::controller`]).
    /// When set, the scenario phases' worker counts are advisory — the
    /// first phase seeds the controller's starting point and the controller
    /// owns the active count from there.
    pub controller: Option<ControllerConfig>,
}

impl ScenarioConfig {
    /// Creates a scenario run configuration with default engine knobs and
    /// zero base service time (pure routing/transport; set a service time to
    /// study saturation behaviour).
    pub fn new(kind: PartitionerKind, scenario: Scenario) -> Self {
        Self {
            kind,
            scenario,
            service_time_us: 0,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            batch_size: DEFAULT_BATCH_SIZE,
            aggregators: DEFAULT_AGGREGATORS,
            solver: SolverMode::Online,
            controller: None,
        }
    }

    /// Overrides the base per-tuple service time (microseconds).
    pub fn with_service_time_us(mut self, us: u64) -> Self {
        self.service_time_us = us;
        self
    }

    /// Overrides the per-worker queue capacity (tuples).
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Overrides the transport batch size.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Overrides the number of aggregator shards.
    pub fn with_aggregators(mut self, aggregators: usize) -> Self {
        self.aggregators = aggregators;
        self
    }

    /// Overrides the solver mode of head-aware schemes; `Fixed(d)` is the
    /// static-`d` baseline the controller is compared against.
    pub fn with_solver(mut self, solver: SolverMode) -> Self {
        self.solver = solver;
        self
    }

    /// Attaches an elasticity controller (see
    /// [`EngineConfig::with_controller`]).
    pub fn with_controller(mut self, controller: ControllerConfig) -> Self {
        controller.validate();
        self.controller = Some(controller);
        self
    }

    /// Resolves this configuration into the multi-phase [`StagePlan`] every
    /// execution backend runs.
    ///
    /// # Panics
    /// Panics if the scenario, the engine knobs, or the attached controller
    /// are invalid.
    pub fn stage_plan(&self) -> StagePlan {
        self.try_stage_plan()
            .unwrap_or_else(|message| panic!("{message}"))
    }

    /// [`Self::stage_plan`] with an invalid configuration reported as an
    /// `Err` (see [`EngineConfig::try_stage_plan`]).
    pub fn try_stage_plan(&self) -> Result<StagePlan, String> {
        self.scenario
            .validate()
            .map_err(|message| format!("invalid scenario: {message}"))?;
        let scenario = &self.scenario;
        let base_us = self.service_time_us;
        let spawned = spawned_workers(scenario.max_workers(), self.controller.as_ref());
        let mut phases = Vec::with_capacity(scenario.phases.len());
        for (p, phase) in scenario.phases.iter().enumerate() {
            // Fallible: a huge base time times a huge multiplier is a
            // well-formed spec that no `Duration` can hold.
            let service = (0..spawned)
                .map(|w| Duration::try_from_secs_f64(base_us as f64 * phase.speed_of(w) / 1e6))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("phase {p}: service time {e}"))?;
            phases.push(PhasePlan {
                tuples_per_source: scenario.phase_tuples_per_source(p),
                start_window: scenario.phase_start_window(p),
                windows: phase.windows,
                workers: phase.workers,
                service: Arc::new(service),
                arrival: phase.arrival,
            });
        }
        StagePlan {
            kind: self.kind,
            seed: scenario.seed,
            skew: scenario.phases[0].skew,
            sources: scenario.sources,
            spawned_workers: spawned,
            window_size: scenario.window_size,
            batch_size: self.batch_size,
            queue_capacity: self.queue_capacity,
            aggregators: self.aggregators,
            phase_starts: Arc::new(phases.iter().map(|p| p.start_window).collect()),
            phases: Arc::new(phases),
            faults: Arc::new(FaultPlan::none()),
            solver: self.solver,
            controller: self.controller.clone(),
        }
        .resolved()
    }
}

/// One phase of a run plan, fully resolved for execution.
#[derive(Debug, Clone)]
pub struct PhasePlan {
    /// Tuples each source emits during the phase.
    pub tuples_per_source: u64,
    /// Global index of the phase's first window.
    pub start_window: WindowId,
    /// Windows the phase covers per source.
    pub windows: u64,
    /// Active workers during the phase.
    pub workers: usize,
    /// Resolved per-worker service time (base × multiplier), indexed over
    /// the spawned worker universe.
    pub service: Arc<Vec<Duration>>,
    /// Arrival pacing within the phase.
    pub arrival: Arrival,
}

/// The fully resolved execution plan shared by every stage of a run — the
/// pure-data part (the key streams travel separately, as a factory, so the
/// per-tuple hot path stays monomorphized over each caller's concrete
/// stream type; a boxed `dyn KeyStream` costs a measurable ~10% of
/// zero-service throughput).
///
/// A `StagePlan` is cheap to clone (the phase tables are shared `Arc`s) and
/// is a pure function of the originating [`EngineConfig`] or
/// [`ScenarioConfig`], so every process of a distributed run can resolve the
/// same plan locally from the same config.
#[derive(Debug, Clone)]
pub struct StagePlan {
    /// Grouping scheme under study.
    pub kind: PartitionerKind,
    /// Seed for the workload and the hash functions.
    pub seed: u64,
    /// Zipf exponent reported in the result (first phase's, for scenarios).
    pub skew: f64,
    /// Number of sources.
    pub sources: usize,
    /// Workers spawned up front (phases activate a prefix).
    pub spawned_workers: usize,
    /// Tuples per window per source sub-stream.
    pub window_size: u64,
    /// Tuples per transported channel message.
    pub batch_size: usize,
    /// Capacity of each worker's input queue, in tuples.
    pub queue_capacity: usize,
    /// Number of aggregator shards.
    pub aggregators: usize,
    /// Start-window table, indexed by phase (for window → phase lookup).
    pub phase_starts: Arc<Vec<WindowId>>,
    /// One resolved plan per phase.
    pub phases: Arc<Vec<PhasePlan>>,
    /// Deterministic fault schedule for the run (empty for plain runs).
    /// Never serialized: fault plans travel beside a config, not inside it,
    /// so the cluster spec of a distributed run stays unchanged.
    pub faults: Arc<FaultPlan>,
    /// Solver mode every source passes into its partitioner's
    /// [`slb_core::PartitionConfig`]; `External` whenever `controller` is set.
    pub solver: SolverMode,
    /// Elasticity controller stepped by every source at its window
    /// boundaries; `None` runs exactly the pre-controller engine.
    pub controller: Option<ControllerConfig>,
}

impl StagePlan {
    /// Total windows every worker must finalize over the whole run.
    pub fn total_windows(&self) -> u64 {
        self.phases.iter().map(|p| p.windows).sum()
    }

    /// The last step of both config front-ends, and the one place the
    /// engine knobs they share are checked and resolved — so a config
    /// filled in through its public fields (a parsed cluster spec,
    /// struct-update syntax) is held to the same rules as one built through
    /// the `with_*` methods.
    fn resolved(mut self) -> Result<Self, String> {
        ensure(&[
            (self.queue_capacity > 0, "queues need capacity"),
            (self.batch_size > 0, "batches need at least one tuple"),
            (self.aggregators > 0, "need at least one aggregator"),
        ])?;
        // The batch size a plan runs with is the configured size clamped to
        // the queue capacity. `capacity_in_batches` floors at two batches so
        // senders can double-buffer, which means a batch larger than the
        // queue would silently buffer `2 × batch_size` tuples — up to 64× a
        // small requested bound. Clamping the batch instead keeps
        // worst-case buffering at `2 × queue_capacity` while leaving every
        // configuration with `batch_size <= queue_capacity` (including all
        // defaults) bit-for-bit unchanged.
        self.batch_size = self.batch_size.min(self.queue_capacity);
        if let Some(controller) = &self.controller {
            controller.check()?;
            // A controller is the single adaptation authority: it implies
            // `External` whatever mode was configured.
            self.solver = SolverMode::External;
        }
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::small_scenario;
    use super::super::Topology;
    use super::*;
    use crate::transport::capacity_in_batches;
    use slb_workloads::ScenarioPhase;

    #[test]
    fn stage_plan_clamps_batch_size_to_queue_capacity() {
        // A queue bound below the batch size must win: batch 256 against a
        // queue of 8 used to buffer 2 × 256 tuples (the two-batch floor of
        // `capacity_in_batches`), 64× the requested bound.
        let plan = EngineConfig::smoke(PartitionerKind::Pkg, 1.4)
            .with_queue_capacity(8)
            .stage_plan();
        assert_eq!(plan.batch_size, 8);
        assert_eq!(capacity_in_batches(plan.queue_capacity, plan.batch_size), 2);
        // A roomy queue leaves the configured batch size alone.
        let plan = EngineConfig::smoke(PartitionerKind::Pkg, 1.4)
            .with_queue_capacity(1024)
            .stage_plan();
        assert_eq!(plan.batch_size, DEFAULT_BATCH_SIZE);
        // Equality is a no-op, not an off-by-one.
        let plan = EngineConfig::smoke(PartitionerKind::Pkg, 1.4)
            .with_batch_size(64)
            .with_queue_capacity(64)
            .stage_plan();
        assert_eq!(plan.batch_size, 64);
        // The scenario front-end resolves through the same builder.
        let scenario = Scenario::new("clamp", 2, 128, 7).phase(ScenarioPhase::new(1, 100, 1.0, 2));
        let mut cfg = ScenarioConfig::new(PartitionerKind::Pkg, scenario);
        cfg.batch_size = 1000;
        cfg.queue_capacity = 32;
        assert_eq!(cfg.stage_plan().batch_size, 32);
    }

    #[test]
    fn stage_plan_is_a_pure_function_of_the_config() {
        let cfg = EngineConfig::smoke(PartitionerKind::Pkg, 1.4);
        let a = cfg.stage_plan();
        let b = cfg.stage_plan();
        assert_eq!(a.phases.len(), 1);
        assert_eq!(a.phases[0].tuples_per_source, b.phases[0].tuples_per_source);
        assert_eq!(a.phases[0].windows, b.phases[0].windows);
        assert_eq!(a.spawned_workers, cfg.workers);
        let scenario_cfg = ScenarioConfig::new(PartitionerKind::WChoices, small_scenario(9));
        let plan = scenario_cfg.stage_plan();
        assert_eq!(plan.phases.len(), 3);
        assert_eq!(plan.spawned_workers, 5);
        assert_eq!(*plan.phase_starts, vec![0, 2, 4]);
    }

    #[test]
    #[should_panic(expected = "invalid scenario")]
    fn invalid_scenario_panics() {
        let scenario = Scenario::new("empty", 2, 64, 1); // no phases
        let _ = ScenarioConfig::new(PartitionerKind::Pkg, scenario).run();
    }

    #[test]
    #[should_panic(expected = "min_workers")]
    fn scenario_controller_set_through_the_public_field_is_validated() {
        // `with_controller` validates eagerly, but a parsed cluster spec or
        // struct-update syntax fills the field directly: the plan builder
        // must hold it to the same rules `EngineConfig::validate` applies.
        let mut controller = ControllerConfig::new(1, 4, 1_000);
        controller.min_workers = 0;
        let mut cfg = ScenarioConfig::new(PartitionerKind::DChoices, small_scenario(1));
        cfg.controller = Some(controller);
        let _ = cfg.stage_plan();
    }

    #[test]
    #[should_panic(expected = "need at least one worker")]
    fn zero_workers_panics() {
        let mut cfg = EngineConfig::smoke(PartitionerKind::Pkg, 1.0);
        cfg.workers = 0;
        let _ = Topology::new(cfg);
    }

    #[test]
    #[should_panic(expected = "at least one tuple")]
    fn zero_batch_size_panics() {
        let cfg = EngineConfig::smoke(PartitionerKind::Pkg, 1.0).with_batch_size(0);
        let _ = Topology::new(cfg);
    }

    #[test]
    #[should_panic(expected = "windows need at least one tuple")]
    fn zero_window_size_panics() {
        let cfg = EngineConfig::smoke(PartitionerKind::Pkg, 1.0).with_window_size(0);
        let _ = Topology::new(cfg);
    }

    #[test]
    #[should_panic(expected = "at least one aggregator")]
    fn zero_aggregators_panics() {
        let cfg = EngineConfig::smoke(PartitionerKind::Pkg, 1.0).with_aggregators(0);
        let _ = Topology::new(cfg);
    }
}
