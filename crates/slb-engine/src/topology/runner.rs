//! Running a plan in process and assembling a run's result: the
//! [`Topology`] / [`ScenarioConfig`] run entry points, the thread-per-stage
//! runner behind them, and [`assemble_result`], which merges stage reports
//! into an [`EngineResult`] wherever the stages ran.

use std::collections::BTreeMap;
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Instant;

use slb_core::{
    ControllerMetrics, CountAggregate, PartitionerKind, PhaseLoadMatrix, WindowAggregate,
};
use slb_telemetry::{
    sort_canonical, HopStats, HopTelemetry, LogHistogram, RecoveryMetrics, TraceEvent,
};
use slb_workloads::{KeyId, KeyStream};

use super::aggregator::{run_aggregator_stage, AggregatorStageReport};
use super::config::{EngineConfig, ScenarioConfig, StagePlan};
use super::source::{run_source_stage, SourceControlEvent, SourceStageReport};
use super::worker::{run_worker_stage, WorkerRecovery, WorkerStageReport};
use crate::fault::FaultPlan;
use crate::latency::{LatencySummary, PhaseMetrics, StageMetrics};
use crate::transport::{capacity_in_batches, partial_channel_capacity, InProc, Transport};
use crate::windows::{WindowId, WindowedRun};

/// Outcome of one engine run.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineResult {
    /// Scheme symbol.
    pub scheme: String,
    /// Zipf exponent of the workload (first phase's, for scenario runs).
    pub skew: f64,
    /// Messages processed (across all workers).
    pub processed: u64,
    /// Wall-clock duration of the run in seconds: from before the first
    /// stage thread starts to the last join. Assembling the result is not
    /// in it; since every window is merged by its one owner, that is
    /// inserts only.
    pub elapsed_secs: f64,
    /// Throughput in events per second.
    pub throughput_eps: f64,
    /// End-to-end latency summary (source emit → worker completion).
    pub latency: LatencySummary,
    /// Per-worker processed-message counts over the spawned worker universe
    /// (for imbalance auditing).
    pub worker_counts: Vec<u64>,
    /// Per-worker number of distinct keys held in state (memory footprint).
    pub worker_state_keys: Vec<u64>,
    /// Imbalance of the processed counts over the spawned universe. For
    /// multi-phase runs with worker-count changes, prefer the per-phase
    /// imbalance in [`Self::phases`], which is evaluated over each phase's
    /// active worker set.
    pub imbalance: f64,
    /// Tuples per window per source sub-stream in this run.
    pub window_size: u64,
    /// Number of aggregators in this run.
    pub aggregators: usize,
    /// Number of windows finalized by the aggregator stage.
    pub windows: u64,
    /// Per-phase measurements; exactly one entry for plain
    /// [`EngineConfig`] runs.
    pub phases: Vec<PhaseMetrics>,
    /// Worker-stage metrics: tuples through the workers' queues (same data
    /// as `processed`/`throughput_eps`/`latency`, packaged per stage).
    pub worker_stage: StageMetrics,
    /// Aggregator-stage metrics: partial-window messages merged, and the
    /// worker-close → aggregator-merge latency distribution.
    pub aggregator_stage: StageMetrics,
    /// Elasticity-controller decisions, merged across sources and sorted by
    /// `(source, window)`; `enabled == false` (and no events) when no
    /// controller was attached.
    pub controller: ControllerMetrics,
    /// The run's merged logical trace, in the canonical
    /// `(stage, instance, seq)` order (see [`sort_canonical`]): every
    /// window close, checkpoint save/restore, replay, rescale, and
    /// controller decision across all stage instances. Deterministic for a
    /// fixed config and seed — bit-identical across transport backends,
    /// reruns, and batch sizes on fault-free runs (docs/OBSERVABILITY.md
    /// states the argument).
    pub trace: Vec<TraceEvent>,
    /// Per-hop transport counters, merged across the instances of each
    /// stage. Wall-clock shaped (stall/wait times, high-water marks), so —
    /// unlike [`Self::trace`] — NOT deterministic across runs.
    pub transport: TransportStats,
    /// The distribution [`Self::latency`] summarizes: every worker's
    /// end-to-end latency histogram, all phases, merged — what the workers'
    /// final `MetricsSnapshot`s carry between them.
    pub latency_histogram: LogHistogram,
}

impl EngineResult {
    /// Total distinct `(key, worker)` state replicas across workers.
    pub fn total_state_replicas(&self) -> u64 {
        self.worker_state_keys.iter().sum()
    }
}

/// The run's transport counters, one [`HopStats`] per stage: what each
/// stage saw on its own send/receive seams (source→worker sends, worker
/// receive + worker→aggregator sends, aggregator receives).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TransportStats {
    /// Merged over all source instances (send side of source→worker).
    pub source: HopStats,
    /// Merged over all workers (receive side of source→worker plus send
    /// side of worker→aggregator).
    pub worker: HopStats,
    /// Merged over all aggregators (receive side of
    /// worker→aggregator).
    pub aggregator: HopStats,
}

/// The runnable topology (one-phase [`EngineConfig`] front-end; see
/// [`ScenarioConfig`] for multi-phase runs).
pub struct Topology {
    config: EngineConfig,
}

impl Topology {
    /// Creates a topology from a configuration.
    ///
    /// # Panics
    /// Panics if any structural parameter is zero
    /// ([`EngineConfig::validate`]).
    pub fn new(config: EngineConfig) -> Self {
        config.validate();
        Self { config }
    }

    /// Runs the topology to completion with the default windowed count
    /// aggregation and returns the measurements (the per-window counts are
    /// computed and then discarded; use [`Self::run_windowed`] to keep them).
    pub fn run(&self) -> EngineResult {
        self.run_windowed(CountAggregate).result
    }

    /// Runs the topology to completion under the given windowed aggregation
    /// on the in-process transport and returns the measurements together
    /// with the final merged per-window aggregates.
    pub fn run_windowed<A: WindowAggregate<KeyId>>(&self, aggregate: A) -> WindowedRun<A::Partial> {
        self.run_windowed_on(aggregate, &InProc)
    }

    /// Runs the topology to completion under the given windowed aggregation
    /// over the given [`Transport`] backend.
    pub fn run_windowed_on<A, T>(&self, aggregate: A, transport: &T) -> WindowedRun<A::Partial>
    where
        A: WindowAggregate<KeyId>,
        T: Transport<A::Partial>,
    {
        self.run_windowed_faulted_on(aggregate, transport, &FaultPlan::none())
    }

    /// Runs the topology with the given [`FaultPlan`] injected: workers
    /// crash and connections lose messages at the plan's deterministic
    /// offsets, and the checkpoint/replay recovery protocol restores the
    /// run. The merged windowed aggregates must come out identical to a
    /// fault-free run (the `fault_injection` suite pins this).
    ///
    /// # Panics
    /// Panics if the fault plan names a source or worker outside the
    /// topology.
    pub fn run_windowed_faulted_on<A, T>(
        &self,
        aggregate: A,
        transport: &T,
        faults: &FaultPlan,
    ) -> WindowedRun<A::Partial>
    where
        A: WindowAggregate<KeyId>,
        T: Transport<A::Partial>,
    {
        let mut plan = self.config.stage_plan();
        inject_faults(&mut plan, faults);
        let cfg = self.config.clone();
        let streams = Arc::new(move |_phase: usize, source: usize| {
            crate::windows::source_stream(&cfg, source)
        });
        run_plan(&plan, streams, aggregate, transport)
    }
}

/// Attaches `faults` to a resolved plan.
///
/// # Panics
/// Panics if the fault plan names a source or worker outside the plan.
fn inject_faults(plan: &mut StagePlan, faults: &FaultPlan) {
    if let Err(message) = faults.validate(plan.sources, plan.spawned_workers) {
        panic!("invalid fault plan: {message}");
    }
    plan.faults = Arc::new(faults.clone());
}

impl ScenarioConfig {
    /// Runs the scenario with the default windowed count aggregation,
    /// discarding the per-window counts.
    ///
    /// # Panics
    /// Panics if the scenario or the engine knobs are invalid.
    pub fn run(&self) -> EngineResult {
        self.run_windowed(CountAggregate).result
    }

    /// Runs the scenario under the given windowed aggregation on the
    /// in-process transport and returns the measurements together with the
    /// merged per-window aggregates.
    ///
    /// # Panics
    /// Panics if the scenario or the engine knobs are invalid.
    pub fn run_windowed<A: WindowAggregate<KeyId>>(&self, aggregate: A) -> WindowedRun<A::Partial> {
        self.run_windowed_on(aggregate, &InProc)
    }

    /// Runs the scenario under the given windowed aggregation over the given
    /// [`Transport`] backend.
    ///
    /// # Panics
    /// Panics if the scenario or the engine knobs are invalid.
    pub fn run_windowed_on<A, T>(&self, aggregate: A, transport: &T) -> WindowedRun<A::Partial>
    where
        A: WindowAggregate<KeyId>,
        T: Transport<A::Partial>,
    {
        self.run_windowed_faulted_on(aggregate, transport, &FaultPlan::none())
    }

    /// Runs the scenario with the given [`FaultPlan`] injected: workers
    /// crash and connections lose messages at the plan's deterministic
    /// offsets, and the checkpoint/replay recovery protocol restores the
    /// run. The merged windowed aggregates must come out identical to a
    /// fault-free run (the `fault_injection` suite pins this).
    ///
    /// # Panics
    /// Panics if the scenario, the engine knobs, or the fault plan are
    /// invalid.
    pub fn run_windowed_faulted_on<A, T>(
        &self,
        aggregate: A,
        transport: &T,
        faults: &FaultPlan,
    ) -> WindowedRun<A::Partial>
    where
        A: WindowAggregate<KeyId>,
        T: Transport<A::Partial>,
    {
        let mut plan = self.stage_plan();
        inject_faults(&mut plan, faults);
        let scenario = self.scenario.clone();
        let streams =
            Arc::new(move |phase: usize, source: usize| scenario.phase_stream(phase, source));
        run_plan(&plan, streams, aggregate, transport)
    }
}

/// Merges the stage reports of one run — however its stages were deployed,
/// threads in one process or processes on a network — into the final
/// [`EngineResult`] and merged window map.
///
/// `worker_reports` must be indexed by worker — a short vector is padded
/// with empty reports (what an excluded worker contributes), one past
/// `plan.spawned_workers` is ignored; `aggregator_reports` must be indexed
/// by aggregator too. Their window sets are disjoint — aggregator `a`
/// reports only the windows it owns — so assembly inserts and merges
/// nothing; a second report of one window is a peer's bad word, counted in
/// `partials_deduped`, and the owner's report is the one kept.
/// `source_reports` carry the sent counts, the per-source elasticity
/// decision logs ([`ControllerMetrics::merged`] sorts them into the
/// canonical (source, window) order), and the sources' trace/transport
/// shares; the run's merged trace is sorted canonically and the per-stage
/// transport counters are summed here.
pub fn assemble_result<P>(
    plan: &StagePlan,
    source_reports: Vec<SourceStageReport>,
    mut worker_reports: Vec<WorkerStageReport>,
    aggregator_reports: Vec<AggregatorStageReport<P>>,
    elapsed_secs: f64,
) -> WindowedRun<P> {
    // Everything below indexes by worker up to the plan's universe.
    worker_reports.resize_with(plan.spawned_workers, WorkerStageReport::default);
    let n_phases = plan.phases.len();
    let mut controller_events = Vec::new();
    let mut trace: Vec<TraceEvent> = Vec::new();
    let mut transport = TransportStats::default();
    for report in source_reports {
        controller_events.extend(report.controller_events);
        trace.extend(report.trace);
        transport.source.merge(&report.transport);
    }
    let mut processed = 0u64;
    let mut worker_counts = Vec::with_capacity(plan.spawned_workers);
    let mut worker_state_keys = Vec::with_capacity(plan.spawned_workers);
    let mut phase_matrix = PhaseLoadMatrix::new(n_phases, plan.spawned_workers);
    // `[phase][worker]`; a worker that reported nothing (excluded mid-run)
    // keeps its empty column.
    let mut phase_latencies = vec![vec![LogHistogram::new(); plan.spawned_workers]; n_phases];
    let mut latency_histogram = LogHistogram::new();
    let mut phase_spans: Vec<Option<(u64, u64)>> = vec![None; n_phases];
    let mut worker_recovery = RecoveryMetrics::default();
    for (w, report) in worker_reports.into_iter().enumerate() {
        // Saturating, here and below: a report may come from a peer, and a
        // corrupt counter must read absurd, not overflow.
        processed = processed.saturating_add(report.processed);
        worker_counts.push(report.processed);
        worker_state_keys.push(report.state_keys);
        worker_recovery = worker_recovery.merged(report.recovery);
        trace.extend(report.trace);
        transport.worker.merge(&report.transport);
        // `take`: a report may come from a peer, and one with more phases
        // than the plan is wrong, not a reason to index out of bounds.
        for (p, &count) in report.phase_counts.iter().enumerate().take(n_phases) {
            phase_matrix.add(p, w, count);
        }
        for (p, hist) in report
            .phase_latencies
            .into_iter()
            .enumerate()
            .take(n_phases)
        {
            latency_histogram.merge(&hist);
            phase_latencies[p][w] = hist;
        }
        for (p, span) in report.phase_spans.into_iter().enumerate().take(n_phases) {
            if let Some((first, last)) = span {
                let merged_span = phase_spans[p].get_or_insert((first, last));
                merged_span.0 = merged_span.0.min(first);
                merged_span.1 = merged_span.1.max(last);
            }
        }
    }

    let mut windows: BTreeMap<WindowId, P> = BTreeMap::new();
    let mut aggregator_latencies = Vec::with_capacity(plan.aggregators);
    let mut partials_merged = 0u64;
    let mut partials_deduped = 0u64;
    let mut partials_transport_errors = 0u64;
    for (index, report) in aggregator_reports.into_iter().enumerate() {
        partials_merged = partials_merged.saturating_add(report.merged);
        partials_deduped = partials_deduped.saturating_add(report.duplicates_dropped);
        partials_transport_errors =
            partials_transport_errors.saturating_add(report.transport_errors);
        trace.extend(report.trace);
        transport.aggregator.merge(&report.transport);
        aggregator_latencies.push(report.latencies);
        for (window, partial) in report.finalized {
            if let Some(kept) = windows.insert(window, partial) {
                partials_deduped = partials_deduped.saturating_add(1);
                if plan.aggregator_of(window) != index {
                    windows.insert(window, kept);
                }
            }
        }
    }
    // Grouped by worker across phases, so the "max avg" statistic keeps the
    // paper's per-worker semantics without copying every sample.
    let latency = LatencySummary::by_worker(&phase_latencies);
    let throughput_eps = if elapsed_secs > 0.0 {
        processed as f64 / elapsed_secs
    } else {
        0.0
    };
    let phases_out: Vec<PhaseMetrics> = plan
        .phases
        .iter()
        .enumerate()
        .map(|(p, phase)| {
            let span_secs = phase_spans[p]
                .map(|(first, last)| last.saturating_sub(first) as f64 / 1e6)
                .unwrap_or(0.0);
            // With an elasticity controller the phase's configured worker
            // count is only the starting point — the controller may have
            // activated workers beyond it mid-phase — so the per-phase view
            // covers the whole spawned universe instead.
            let phase_width = if plan.controller.is_some() {
                plan.spawned_workers
            } else {
                phase.workers
            };
            PhaseMetrics {
                phase: p,
                workers: phase_width,
                start_window: phase.start_window,
                windows: phase.windows,
                worker_counts: phase_matrix.phase_counts(p)[..phase_width].to_vec(),
                imbalance: phase_matrix.phase_imbalance(p, phase_width),
                stage: StageMetrics::new(
                    phase_matrix.phase_total(p),
                    span_secs,
                    LatencySummary::by_worker(&phase_latencies[p..=p]),
                ),
            }
        })
        .collect();
    let result = EngineResult {
        scheme: plan.kind.symbol().to_string(),
        skew: plan.skew,
        processed,
        elapsed_secs,
        throughput_eps,
        latency,
        imbalance: slb_core::imbalance(&worker_counts),
        worker_counts,
        worker_state_keys,
        window_size: plan.window_size,
        aggregators: plan.aggregators,
        windows: windows.len() as u64,
        phases: phases_out,
        worker_stage: StageMetrics::with_recovery(
            processed,
            elapsed_secs,
            latency,
            worker_recovery,
        ),
        aggregator_stage: StageMetrics::with_recovery(
            partials_merged,
            elapsed_secs,
            LatencySummary::by_worker(&[aggregator_latencies]),
            RecoveryMetrics {
                duplicates_dropped: partials_deduped,
                transport_errors: partials_transport_errors,
                ..RecoveryMetrics::default()
            },
        ),
        controller: ControllerMetrics::merged(controller_events),
        trace: {
            sort_canonical(&mut trace);
            trace
        },
        transport,
        latency_histogram,
    };
    WindowedRun { result, windows }
}

/// Executes a resolved plan over the given transport: the engine's single
/// in-process run loop, shared by the one-phase and scenario paths. Spawns
/// one thread per stage instance, each running the corresponding public
/// stage function, and assembles their reports.
fn run_plan<A, F, S, T>(
    plan: &StagePlan,
    streams: Arc<F>,
    aggregate: A,
    transport: &T,
) -> WindowedRun<A::Partial>
where
    A: WindowAggregate<KeyId>,
    F: Fn(usize, usize) -> S + Send + Sync + 'static,
    S: KeyStream + Clone + Send,
    T: Transport<A::Partial>,
{
    // The queue capacity is configured in tuples; the channels carry
    // batches, so convert through the one shared helper.
    let capacity_batches = capacity_in_batches(plan.queue_capacity, plan.batch_size);
    let (senders, receivers) = transport.tuple_channels(plan.spawned_workers, capacity_batches);
    let (partial_senders, partial_receivers) = transport.partial_channels(
        plan.aggregators,
        partial_channel_capacity(plan.spawned_workers),
    );
    // Recovery rides no transport: one control queue per source, fed by the
    // workers, exactly as a node's control loop feeds its source.
    let (replay_senders, controls): (Vec<_>, Vec<_>) = (0..plan.sources)
        .map(|_| mpsc::channel::<SourceControlEvent>())
        .unzip();

    let start = Instant::now();

    let mut aggregator_handles = Vec::with_capacity(plan.aggregators);
    for (agg_idx, receiver) in partial_receivers.into_iter().enumerate() {
        let plan = plan.clone();
        let aggregate = aggregate.clone();
        aggregator_handles.push(thread::spawn(move || {
            // Nobody excludes a worker in process.
            let (_, exclusions) = mpsc::channel();
            run_aggregator_stage(
                &plan,
                agg_idx,
                &aggregate,
                &receiver,
                &exclusions,
                &HopTelemetry::default(),
            )
        }));
    }

    let mut worker_handles = Vec::with_capacity(plan.spawned_workers);
    for (worker_idx, receiver) in receivers.into_iter().enumerate() {
        let plan = plan.clone();
        let aggregate = aggregate.clone();
        let partial_senders = partial_senders.clone();
        let replay_senders = replay_senders.clone();
        worker_handles.push(thread::spawn(move || {
            run_worker_stage(
                &plan,
                worker_idx,
                start,
                &aggregate,
                receiver,
                &partial_senders,
                WorkerRecovery::Feedback(replay_senders),
                &HopTelemetry::default(),
            )
        }));
    }
    // The workers hold their own clones of the partial and replay senders;
    // the last of those to drop is each source's `Release`.
    drop(partial_senders);
    drop(replay_senders);

    let mut source_handles = Vec::with_capacity(plan.sources);
    for (source_idx, control) in controls.into_iter().enumerate() {
        let plan = plan.clone();
        let senders = senders.clone();
        let streams = streams.clone();
        source_handles.push(thread::spawn(move || {
            run_source_stage(
                &plan,
                source_idx,
                |phase| (streams)(phase, source_idx),
                &senders,
                control,
                &HopTelemetry::default(),
            )
        }));
    }
    // Drop the topology's own copies: a worker's channel then closes once
    // its sources are gone.
    drop(senders);

    let source_reports: Vec<SourceStageReport> = source_handles
        .into_iter()
        .map(|h| h.join().expect("source thread panicked"))
        .collect();
    let sent_total: u64 = source_reports.iter().map(|r| r.sent).sum();
    let worker_reports: Vec<WorkerStageReport> = worker_handles
        .into_iter()
        .map(|h| h.join().expect("worker thread panicked"))
        .collect();
    let aggregator_reports: Vec<AggregatorStageReport<A::Partial>> = aggregator_handles
        .into_iter()
        .map(|h| h.join().expect("aggregator thread panicked"))
        .collect();
    let elapsed = start.elapsed().as_secs_f64();

    let processed: u64 = worker_reports.iter().map(|r| r.processed).sum();
    debug_assert_eq!(sent_total, processed, "every sent tuple must be processed");
    // Checked here, on this process's own workers, not in `assemble_result`,
    // where a report may be a peer's word.
    debug_assert!(
        worker_reports
            .iter()
            .all(|r| r.windows_closed <= plan.total_windows()),
        "no worker closes more windows than the run has"
    );
    // (A controller owns the active count: its phases span every worker.)
    debug_assert!(
        plan.controller.is_some()
            || plan.phases.iter().enumerate().all(|(p, phase)| {
                let inactive = &worker_reports[phase.workers..];
                inactive.iter().all(|report| report.phase_counts[p] == 0)
            }),
        "no phase routes tuples beyond its active workers"
    );

    assemble_result(
        plan,
        source_reports,
        worker_reports,
        aggregator_reports,
        elapsed,
    )
}

/// Runs one engine experiment per grouping scheme in `schemes`, all on the
/// same workload, and returns the results in the same order.
pub fn compare_schemes(base: &EngineConfig, schemes: &[PartitionerKind]) -> Vec<EngineResult> {
    schemes
        .iter()
        .map(|&kind| {
            let mut cfg = base.clone();
            cfg.kind = kind;
            Topology::new(cfg).run()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use slb_telemetry::{stage, trace_kind};
    use slb_workloads::{Arrival, Scenario, ScenarioPhase};

    use super::super::test_support::small_scenario;
    use super::*;

    #[test]
    fn trace_is_deterministic_across_reruns() {
        let topo = Topology::new(EngineConfig::smoke(PartitionerKind::Pkg, 1.2));
        let first = topo.run_windowed(CountAggregate).result;
        let second = topo.run_windowed(CountAggregate).result;
        assert!(!first.trace.is_empty());
        assert_eq!(first.trace, second.trace);
        // Every stage contributed: sources and aggregators log one
        // WINDOW_CLOSE per window, workers log one close + one checkpoint.
        for stage in [stage::SOURCE, stage::WORKER, stage::AGGREGATOR] {
            assert!(
                first.trace.iter().any(|e| e.stage == stage),
                "stage {stage} missing from trace"
            );
        }
        // Transport counters saw the run's traffic.
        assert_eq!(first.transport.source.tuples_sent, first.processed);
        assert_eq!(first.transport.worker.tuples_received, first.processed);
    }

    /// Stage reports cross the control plane, so every counter in one is a
    /// peer's word. A run of corrupt ones must assemble into a result that
    /// reads absurd — in a debug build too, where `+` on an overflow panics
    /// and a `debug_assert` is live. Beyond the all-`MAX` counters: every
    /// worker claims tuples in every phase (the scenario's phases run on 3,
    /// 5 and 2 of its 5 workers), and every aggregator claims window 0 with
    /// a `MAX` count for one key, so the per-key merge saturates too.
    #[test]
    fn reports_with_saturated_counters_assemble_without_overflow() {
        let plan = ScenarioConfig::new(PartitionerKind::Pkg, small_scenario(7)).stage_plan();
        let n_phases = plan.phases.len();
        assert!(plan.phases.iter().any(|p| p.workers < plan.spawned_workers));
        let max = u64::MAX;
        let transport = HopStats {
            batches_sent: max,
            tuples_sent: max,
            send_stall_us: max,
            batches_received: max,
            tuples_received: max,
            recv_wait_us: max,
            queue_depth_hwm: max,
            ring_occupancy_hwm: max,
            ring_capacity: max,
            ..HopStats::default()
        };
        let sources = vec![
            SourceStageReport {
                sent: max,
                transport: transport.clone(),
                ..SourceStageReport::default()
            };
            plan.sources
        ];
        let workers = vec![
            WorkerStageReport {
                processed: max,
                phase_counts: vec![max; n_phases],
                state_keys: max,
                windows_closed: max,
                phase_spans: vec![Some((max, 0)); n_phases],
                recovery: RecoveryMetrics {
                    restores: max,
                    replayed_items: max,
                    duplicates_dropped: max,
                    replay_requests: max,
                    transport_errors: max,
                },
                checkpoints: max,
                checkpoint_bytes: max,
                transport: transport.clone(),
                ..WorkerStageReport::default()
            };
            plan.spawned_workers
        ];
        let aggregators = (0..plan.aggregators.max(2))
            .map(|_| AggregatorStageReport {
                finalized: BTreeMap::from([(0, HashMap::from([(7u64, max)]))]),
                latencies: LogHistogram::new(),
                merged: max,
                duplicates_dropped: max,
                transport_errors: max,
                trace: Vec::new(),
                transport: transport.clone(),
            })
            .collect();
        let run = assemble_result(&plan, sources, workers, aggregators, 1.0);
        assert_eq!(
            run.windows,
            BTreeMap::from([(0, HashMap::from([(7, max)]))])
        );
        let result = run.result;
        assert_eq!(result.processed, max);
        assert_eq!(result.worker_counts, vec![max; plan.spawned_workers]);
        assert_eq!(result.phases[0].stage.items, max);
        assert_eq!(result.worker_stage.recovery.restores, max);
        assert_eq!(result.aggregator_stage.items, max);
        assert_eq!(result.aggregator_stage.recovery.duplicates_dropped, max);
        assert_eq!(result.transport.source.tuples_sent, max);
        assert_eq!(result.transport.worker.recv_wait_us, max);
        assert_eq!(result.transport.aggregator.batches_received, max);
        assert!(result.imbalance.is_finite());
        assert!(result.phases.iter().all(|p| p.imbalance.is_finite()));
    }

    /// `assemble_result` is public and indexes by worker: however many
    /// worker reports a caller hands it, the result covers exactly the
    /// plan's workers — missing ones read as empty (an excluded worker's
    /// report), extra ones are ignored — instead of indexing out of bounds
    /// or asking for the imbalance of nobody.
    #[test]
    fn short_and_long_worker_report_vectors_assemble_over_the_plans_workers() {
        let plan = EngineConfig::smoke(PartitionerKind::Pkg, 1.0).stage_plan();
        let workers = plan.spawned_workers;
        assert!(workers >= 2);
        let report = |processed| WorkerStageReport {
            processed,
            phase_counts: vec![processed],
            phase_latencies: vec![LogHistogram::new()],
            ..WorkerStageReport::default()
        };
        let assemble = |reports| {
            assemble_result::<HashMap<KeyId, u64>>(&plan, vec![], reports, vec![], 1.0).result
        };
        for result in [assemble(vec![]), assemble(vec![report(5)])] {
            assert_eq!(result.worker_counts.len(), workers);
            assert_eq!(result.worker_counts[1..], vec![0; workers - 1]);
            assert_eq!(result.phases[0].worker_counts.len(), workers);
            assert!(result.imbalance.is_finite() && result.phases[0].imbalance.is_finite());
        }
        let long = assemble((0..workers as u64 + 3).map(report).collect());
        assert_eq!(long.worker_counts, (0..workers as u64).collect::<Vec<_>>());
        assert_eq!(long.processed, (0..workers as u64).sum::<u64>());
        assert_eq!(long.phases[0].stage.items, long.processed);
    }

    #[test]
    fn clamped_batch_size_preserves_merged_windows() {
        // Shrinking the effective batch reshapes transport framing only:
        // merged window contents must be bit-identical to the default run.
        let base = EngineConfig::smoke(PartitionerKind::Pkg, 1.4).with_service_time_us(0);
        let small_queue =
            Topology::new(base.clone().with_queue_capacity(8)).run_windowed(CountAggregate);
        let default_queue = Topology::new(base).run_windowed(CountAggregate);
        assert_eq!(small_queue.windows, default_queue.windows);
        assert_eq!(small_queue.result.processed, default_queue.result.processed);
    }

    #[test]
    fn smoke_run_processes_every_message() {
        let cfg = EngineConfig::smoke(PartitionerKind::Pkg, 1.4);
        let result = Topology::new(cfg.clone()).run();
        assert_eq!(
            result.processed,
            (cfg.messages / cfg.sources as u64) * cfg.sources as u64
        );
        assert_eq!(result.worker_counts.len(), cfg.workers);
        assert!(result.throughput_eps > 0.0);
        assert!(result.latency.samples > 0);
        assert_eq!(result.latency.samples, result.processed);
        assert_eq!(result.scheme, "PKG");
        // The aggregation stage ran: every window finalized, one partial per
        // worker per window merged, whatever the aggregator count.
        let per_source = cfg.messages / cfg.sources as u64;
        assert_eq!(result.windows, per_source.div_ceil(cfg.window_size));
        assert!(cfg.aggregators > 1);
        assert_eq!(
            result.aggregator_stage.items,
            result.windows * cfg.workers as u64
        );
        assert!(result.aggregator_stage.latency.samples > 0);
        assert_eq!(result.worker_stage.items, result.processed);
    }

    #[test]
    fn single_phase_run_reports_one_phase_covering_the_whole_run() {
        let cfg = EngineConfig::smoke(PartitionerKind::DChoices, 1.6).with_service_time_us(0);
        let result = Topology::new(cfg.clone()).run();
        assert_eq!(result.phases.len(), 1);
        let phase = &result.phases[0];
        assert_eq!(phase.phase, 0);
        assert_eq!(phase.workers, cfg.workers);
        assert_eq!(phase.start_window, 0);
        assert_eq!(phase.stage.items, result.processed);
        assert_eq!(phase.worker_counts, result.worker_counts);
        assert!((phase.imbalance - result.imbalance).abs() < 1e-12);
        assert_eq!(phase.stage.latency.samples, result.latency.samples);
    }

    #[test]
    fn key_grouping_keeps_state_compact_but_unbalanced() {
        // Under heavy skew, KG holds each key on exactly one worker (minimal
        // state) but its processed-count imbalance is large compared to SG.
        let kg = Topology::new(EngineConfig::smoke(PartitionerKind::KeyGrouping, 2.0)).run();
        let sg = Topology::new(EngineConfig::smoke(PartitionerKind::ShuffleGrouping, 2.0)).run();
        assert!(kg.imbalance > sg.imbalance);
        assert!(kg.total_state_replicas() <= sg.total_state_replicas());
    }

    #[test]
    fn w_choices_balances_better_than_pkg_under_extreme_skew() {
        let pkg = Topology::new(EngineConfig::smoke(PartitionerKind::Pkg, 2.0)).run();
        let wc = Topology::new(EngineConfig::smoke(PartitionerKind::WChoices, 2.0)).run();
        assert!(
            wc.imbalance <= pkg.imbalance + 1e-9,
            "W-C imbalance {} vs PKG {}",
            wc.imbalance,
            pkg.imbalance
        );
    }

    #[test]
    fn compare_schemes_returns_one_result_per_scheme() {
        let base = EngineConfig::smoke(PartitionerKind::Pkg, 1.4).with_messages(4_000);
        let results = compare_schemes(
            &base,
            &[
                PartitionerKind::KeyGrouping,
                PartitionerKind::ShuffleGrouping,
            ],
        );
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].scheme, "KG");
        assert_eq!(results[1].scheme, "SG");
    }

    #[test]
    fn zero_service_time_is_supported() {
        let cfg = EngineConfig::smoke(PartitionerKind::ShuffleGrouping, 1.0)
            .with_messages(8_000)
            .with_service_time_us(0);
        let r = Topology::new(cfg).run();
        assert_eq!(r.processed, 8_000);
    }

    #[test]
    fn partial_final_batches_are_flushed() {
        // A message count that is not a multiple of the batch size (and a
        // batch size larger than some workers' share) must still deliver
        // every tuple, with samples matching processed.
        for batch in [1usize, 3, 7, 256, 100_000] {
            let cfg = EngineConfig::smoke(PartitionerKind::Pkg, 1.4)
                .with_messages(10_001)
                .with_service_time_us(0)
                .with_batch_size(batch);
            let sources = cfg.sources as u64;
            let r = Topology::new(cfg).run();
            assert_eq!(r.processed, (10_001 / sources) * sources, "batch={batch}");
            assert_eq!(r.latency.samples, r.processed, "batch={batch}");
        }
    }

    #[test]
    fn batch_size_does_not_change_routing_decisions() {
        // The transport batch size is invisible to the grouping scheme: the
        // per-worker tuple counts and per-worker state footprints must be
        // identical whether tuples travel one at a time or 256 at a time.
        for kind in [
            PartitionerKind::Pkg,
            PartitionerKind::DChoices,
            PartitionerKind::ShuffleGrouping,
        ] {
            let base = EngineConfig::smoke(kind, 1.8)
                .with_messages(12_000)
                .with_service_time_us(0);
            let scalar = Topology::new(base.clone().with_batch_size(1)).run();
            let batched = Topology::new(base.with_batch_size(256)).run();
            assert_eq!(
                scalar.worker_counts, batched.worker_counts,
                "{kind:?} per-worker counts changed with batch size"
            );
            assert_eq!(
                scalar.worker_state_keys, batched.worker_state_keys,
                "{kind:?} per-worker state changed with batch size"
            );
        }
    }

    #[test]
    fn windowed_count_run_covers_every_tuple_once() {
        let cfg = EngineConfig::smoke(PartitionerKind::Pkg, 1.4)
            .with_service_time_us(0)
            .with_window_size(512);
        let per_source = cfg.messages / cfg.sources as u64;
        let sources = cfg.sources as u64;
        let run = Topology::new(cfg).run_windowed(CountAggregate);
        assert_eq!(run.windows.len() as u64, per_source.div_ceil(512));
        let total: u64 = run.windows.values().flat_map(|w| w.values()).sum();
        assert_eq!(total, run.result.processed);
        // Every full window carries sources × window_size tuples exactly.
        for (window, counts) in &run.windows {
            let tuples: u64 = counts.values().sum();
            if (window + 1) * 512 <= per_source {
                assert_eq!(tuples, 512 * sources, "window {window}");
            }
        }
    }

    /// Aggregator `a` owns the windows `w mod A == a`: each window closes
    /// once, at its owner (the aggregators' `WINDOW_CLOSE` trace events), one
    /// partial per worker per window is merged, whether or not A divides the
    /// window count, and the windows assemble to the exact reference.
    #[test]
    fn each_aggregator_merges_exactly_the_windows_it_owns() {
        let base = EngineConfig::smoke(PartitionerKind::Pkg, 1.4)
            .with_service_time_us(0)
            .with_window_size(256)
            .with_messages(2 * 7 * 256);
        for aggregators in [1usize, 2, 3, 5] {
            let cfg = base.clone().with_aggregators(aggregators);
            assert_eq!(cfg.stage_plan().total_windows(), 7);
            let run = Topology::new(cfg.clone()).run_windowed(CountAggregate);
            let mut closed = vec![Vec::new(); aggregators];
            for event in &run.result.trace {
                if event.stage == stage::AGGREGATOR && event.kind == trace_kind::WINDOW_CLOSE {
                    closed[event.instance as usize].push(event.window);
                }
            }
            for (a, closed) in closed.iter_mut().enumerate() {
                closed.sort_unstable();
                let owned: Vec<WindowId> = (0..7)
                    .filter(|w| w % aggregators as u64 == a as u64)
                    .collect();
                assert_eq!(*closed, owned, "aggregator {a} of {aggregators}");
            }
            let merged = &run.result.aggregator_stage;
            assert_eq!(merged.items, 7 * cfg.workers as u64);
            assert_eq!(merged.recovery.duplicates_dropped, 0);
            assert_eq!(merged.recovery.transport_errors, 0);
            assert_eq!(
                run.windows,
                crate::exact_windowed_counts(&cfg),
                "{aggregators} aggregators"
            );
        }
    }

    /// Windows from different aggregators are disjoint, so assembly is an
    /// insert: a second report of one window is counted, never summed, and
    /// the owner's report is the one kept, whichever comes first.
    #[test]
    fn a_second_report_of_a_window_is_counted_and_the_owners_kept() {
        let plan = EngineConfig::smoke(PartitionerKind::Pkg, 1.0)
            .with_aggregators(2)
            .stage_plan();
        let report = |windows: &[(WindowId, u64)]| AggregatorStageReport {
            finalized: windows
                .iter()
                .map(|&(w, count)| (w, HashMap::from([(7u64, count)])))
                .collect(),
            ..AggregatorStageReport::default()
        };
        // Window 1 is aggregator 1's; aggregator 0 claims it too, first.
        let run = assemble_result(
            &plan,
            vec![],
            vec![],
            vec![report(&[(0, 3), (1, 100)]), report(&[(1, 5)])],
            1.0,
        );
        assert_eq!(run.windows[&0][&7], 3);
        assert_eq!(run.windows[&1][&7], 5, "the owner's report, not a sum");
        assert_eq!(run.result.aggregator_stage.recovery.duplicates_dropped, 1);
        // And with the owner's report first.
        let run = assemble_result(
            &plan,
            vec![],
            vec![],
            vec![report(&[(0, 3)]), report(&[(1, 5), (0, 100)])],
            1.0,
        );
        assert_eq!(run.windows[&0][&7], 3);
        assert_eq!(run.windows[&1][&7], 5);
        assert_eq!(run.result.aggregator_stage.recovery.duplicates_dropped, 1);
    }

    #[test]
    fn scenario_run_processes_every_tuple_and_reports_phases() {
        let scenario = small_scenario(7);
        let expected = scenario.total_tuples();
        let result = ScenarioConfig::new(PartitionerKind::Pkg, scenario.clone()).run();
        assert_eq!(result.processed, expected);
        assert_eq!(result.phases.len(), 3);
        assert_eq!(result.worker_counts.len(), scenario.max_workers());
        assert_eq!(result.windows, scenario.total_windows());
        for (p, phase) in result.phases.iter().enumerate() {
            assert_eq!(phase.phase, p);
            assert_eq!(phase.workers, scenario.phases[p].workers);
            assert_eq!(phase.start_window, scenario.phase_start_window(p));
            assert_eq!(
                phase.stage.items,
                scenario.phase_tuples_per_source(p) * scenario.sources as u64
            );
            assert_eq!(phase.worker_counts.len(), phase.workers);
            assert_eq!(phase.stage.items, phase.worker_counts.iter().sum::<u64>());
            assert!(phase.imbalance >= 0.0);
        }
        let phase_total: u64 = result.phases.iter().map(|p| p.stage.items).sum();
        assert_eq!(phase_total, result.processed);
        assert_eq!(result.latency.samples, result.processed);
    }

    #[test]
    fn scenario_tuples_never_route_outside_the_active_set() {
        // Phase 2 scales in to 2 workers: the scale-in phase must route
        // nothing to workers 2..5 even though they were active in phase 1.
        let result = ScenarioConfig::new(PartitionerKind::WChoices, small_scenario(11)).run();
        let scale_in = &result.phases[2];
        assert_eq!(scale_in.workers, 2);
        assert_eq!(
            scale_in.worker_counts.iter().sum::<u64>(),
            scale_in.stage.items
        );
    }

    #[test]
    fn sub_batch_bursts_preserve_counts_and_windows() {
        // Bursts smaller than the transport batch cap the key-buffer chunks,
        // so every burst boundary is observed; routing, counts, and windows
        // must be identical to the steady run of the same spec.
        let steady =
            Scenario::single_phase("steady", 2, 256, 13, ScenarioPhase::new(3, 300, 1.6, 4));
        let mut bursty = steady.clone();
        bursty.phases[0].arrival = Arrival::Bursty {
            burst_tuples: 64, // default batch_size is 256
            pause_us: 1,
        };
        let a = ScenarioConfig::new(PartitionerKind::Pkg, steady).run_windowed(CountAggregate);
        let b = ScenarioConfig::new(PartitionerKind::Pkg, bursty).run_windowed(CountAggregate);
        assert_eq!(a.windows, b.windows);
        assert_eq!(a.result.worker_counts, b.result.worker_counts);
        assert_eq!(b.result.processed, 2 * 3 * 256);
    }

    #[test]
    fn scenario_reruns_are_deterministic() {
        let cfg = ScenarioConfig::new(PartitionerKind::DChoices, small_scenario(3));
        let a = cfg.run_windowed(CountAggregate);
        let b = cfg.run_windowed(CountAggregate);
        assert_eq!(a.windows, b.windows);
        assert_eq!(a.result.worker_counts, b.result.worker_counts);
        for (x, y) in a.result.phases.iter().zip(&b.result.phases) {
            assert_eq!(x.worker_counts, y.worker_counts);
            assert_eq!(x.imbalance.to_bits(), y.imbalance.to_bits());
        }
    }

    #[test]
    fn default_transport_and_empty_fault_plan_are_the_plain_run() {
        // `run_windowed` is `run_windowed_on(&InProc)` is
        // `run_windowed_faulted_on(&InProc, none)`: counts and windows must
        // match exactly, and on none of them may anything look like a
        // recovery.
        let cfg = EngineConfig::smoke(PartitionerKind::DChoices, 1.8)
            .with_messages(8_000)
            .with_service_time_us(0);
        let topo = Topology::new(cfg);
        let plain = topo.run_windowed(CountAggregate);
        for run in [
            &plain,
            &topo.run_windowed_on(CountAggregate, &InProc),
            &topo.run_windowed_faulted_on(CountAggregate, &InProc, &FaultPlan::none()),
        ] {
            assert_eq!(plain.windows, run.windows);
            assert_eq!(plain.result.worker_counts, run.result.worker_counts);
            assert!(run.result.worker_stage.recovery.is_quiet());
            assert_eq!(run.result.aggregator_stage.recovery.duplicates_dropped, 0);
        }
    }

    #[test]
    fn killed_worker_recovers_to_identical_windows() {
        let cfg = EngineConfig::smoke(PartitionerKind::Pkg, 1.4)
            .with_messages(12_000)
            .with_service_time_us(0)
            .with_window_size(512);
        let clean = Topology::new(cfg.clone()).run_windowed(CountAggregate);
        let faults = FaultPlan::none().kill_worker(0, 700).kill_worker(1, 1_500);
        let hurt = Topology::new(cfg).run_windowed_faulted_on(CountAggregate, &InProc, &faults);
        assert_eq!(clean.windows, hurt.windows, "kill changed merged windows");
        assert_eq!(clean.result.worker_counts, hurt.result.worker_counts);
        assert_eq!(
            clean.result.worker_state_keys,
            hurt.result.worker_state_keys
        );
        let recovery = &hurt.result.worker_stage.recovery;
        assert_eq!(recovery.restores, 2, "both scheduled kills must fire");
        assert!(recovery.replay_requests > 0);
        // Closed windows are never re-finalized: recovery replays only the
        // open window, so the aggregator sees no duplicate partials.
        assert_eq!(hurt.result.aggregator_stage.recovery.duplicates_dropped, 0);
        // Timing-only trackers survive the simulated crash, so replayed
        // tuples add samples on top of the processed count.
        assert!(hurt.result.latency.samples >= hurt.result.processed);
    }

    #[test]
    fn dropped_connection_recovers_via_gap_replay() {
        let cfg = EngineConfig::smoke(PartitionerKind::ShuffleGrouping, 1.2)
            .with_messages(10_000)
            .with_service_time_us(0)
            .with_batch_size(64);
        let clean = Topology::new(cfg.clone()).run_windowed(CountAggregate);
        let faults = FaultPlan::none().drop_connection(0, 1, 3, 2);
        let hurt = Topology::new(cfg).run_windowed_faulted_on(CountAggregate, &InProc, &faults);
        assert_eq!(clean.windows, hurt.windows, "loss changed merged windows");
        assert_eq!(clean.result.worker_counts, hurt.result.worker_counts);
        let recovery = &hurt.result.worker_stage.recovery;
        assert!(recovery.replay_requests > 0, "gap must request replay");
        assert!(recovery.replayed_items > 0, "replay must redeliver tuples");
        assert_eq!(recovery.restores, 0, "no worker was killed");
    }

    #[test]
    fn scenario_survives_faults_with_identical_windows() {
        let scenario = small_scenario(17);
        let cfg = ScenarioConfig::new(PartitionerKind::WChoices, scenario);
        let clean = cfg.run_windowed(CountAggregate);
        let faults = FaultPlan::none()
            .kill_worker(0, 150)
            .drop_connection(1, 1, 2, 1);
        let hurt = cfg.run_windowed_faulted_on(CountAggregate, &InProc, &faults);
        assert_eq!(clean.windows, hurt.windows);
        assert_eq!(clean.result.worker_counts, hurt.result.worker_counts);
        assert!(hurt.result.worker_stage.recovery.restores >= 1);
    }

    #[test]
    fn faulted_reruns_are_deterministic() {
        let cfg = EngineConfig::smoke(PartitionerKind::DChoices, 1.6)
            .with_messages(9_000)
            .with_service_time_us(0);
        let faults = FaultPlan::none()
            .kill_worker(2, 400)
            .drop_connection(1, 0, 1, 3);
        let a =
            Topology::new(cfg.clone()).run_windowed_faulted_on(CountAggregate, &InProc, &faults);
        let b = Topology::new(cfg).run_windowed_faulted_on(CountAggregate, &InProc, &faults);
        assert_eq!(a.windows, b.windows);
        assert_eq!(a.result.worker_counts, b.result.worker_counts);
    }

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn out_of_range_fault_plan_panics() {
        let cfg = EngineConfig::smoke(PartitionerKind::Pkg, 1.0);
        let faults = FaultPlan::none().kill_worker(999, 10);
        let _ = Topology::new(cfg).run_windowed_faulted_on(CountAggregate, &InProc, &faults);
    }
}
