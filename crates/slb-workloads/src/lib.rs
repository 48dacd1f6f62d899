//! Workload substrate for the SLB (Scalable Load Balancing) library.
//!
//! The paper evaluates its load-balancing algorithms on three real-world
//! traces (Wikipedia page views, Twitter words, Twitter cashtags) and on
//! synthetic Zipf streams. The raw traces are not redistributable, so this
//! crate builds *synthetic stand-ins* that match the published statistics of
//! each trace (Table I: number of messages, number of distinct keys, and the
//! relative frequency `p1` of the hottest key) plus the qualitative property
//! the paper highlights for each (heavy skew for Wikipedia, enormous key
//! space for Twitter, concept drift for cashtags). See `DESIGN.md` for the
//! substitution rationale.
//!
//! Contents:
//!
//! * [`zipf`] — exact Zipf(`z`) distributions with alias-method sampling and
//!   a solver that fits the exponent to a target `p1`.
//! * [`alias`] — Walker/Vose alias tables for O(1) sampling from arbitrary
//!   discrete distributions.
//! * [`message`] — the key identifier every stream emits.
//! * [`datasets`] — the ZF / WP-like / TW-like / CT-like dataset definitions
//!   and their generators.
//! * [`drift`] — concept-drift wrappers that re-draw the key identity mapping
//!   over time (the cashtag behaviour).
//! * [`scenario`] — multi-phase scenario specs (drift, heterogeneity, bursts,
//!   scale-out) executable by both the engine and the simulator.

pub mod alias;
pub mod datasets;
pub mod drift;
pub mod message;
pub mod scenario;
pub mod zipf;

pub use datasets::{Dataset, DatasetKind, DatasetStats, SyntheticDataset};
pub use drift::DriftingGenerator;
pub use message::KeyId;
pub use scenario::{Arrival, Scenario, ScenarioPhase};
pub use zipf::{ZipfDistribution, ZipfGenerator};

/// A (possibly unbounded) stream of keyed messages.
///
/// Generators implement this trait so the simulator and the engine can
/// consume any workload the same way (all built-in generators are finite).
pub trait KeyStream {
    /// Returns the next key in the stream, or `None` when exhausted.
    fn next_key(&mut self) -> Option<KeyId>;
}
