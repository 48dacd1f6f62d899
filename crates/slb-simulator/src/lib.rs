//! Stream-replay simulator for the SLB library.
//!
//! The paper's load-imbalance results (Figures 1 and 3–12) come from a
//! simulator that replays a workload through the simplest possible dataflow:
//! a set of sources receives the input stream via shuffle grouping and
//! forwards every message to one of `n` workers according to the grouping
//! scheme under study. Each source makes its routing decisions using only
//! its local state (its own load vector and heavy-hitter summary), exactly
//! as a real deployment would; the simulator additionally observes the true
//! global per-worker load to compute the imbalance metric.
//!
//! * [`simulation`] — the replay engine and its configuration.
//! * [`scenario`] — analytic replay of multi-phase `slb_workloads::Scenario`
//!   specs (drift, heterogeneity, scale-out), agreeing tuple-for-tuple with
//!   the threaded engine's routing.
//! * [`metrics`] — result types: final imbalance, imbalance time series,
//!   per-worker head/tail load split, replica (memory) counts.
//!
//! The figures themselves are computed where they are printed, in
//! `slb-bench`'s `expt` experiments, which drive [`Simulator::run`] directly.

pub mod metrics;
pub mod scenario;
pub mod simulation;

pub use metrics::{HeadTailLoad, SimulationResult, TimeSeriesPoint};
pub use scenario::{
    compare_scenario_schemes, simulate_scenario, simulate_scenario_controlled, ControlledSimResult,
    ScenarioPhaseOutcome, ScenarioSimResult,
};
pub use simulation::{SimulationConfig, Simulator};
