//! Configuration shared by all partitioners (the paper's Table III defaults).
//!
//! | Parameter | Description                         | Paper default |
//! |-----------|-------------------------------------|---------------|
//! | `n`       | number of workers                   | 5…100         |
//! | `s`       | number of sources                   | 5             |
//! | `ε`       | imbalance tolerance (D-Choices)     | 10⁻⁴          |
//! | `θ`       | threshold defining the head         | 1/(5n)        |
//!
//! The threshold is expressed as a multiple of `1/n` so that the same
//! configuration can be reused across worker counts: the paper explores
//! `θ ∈ {2/n, 1/n, 1/(2n), 1/(4n), 1/(8n)}` and settles on `1/(5n)` as the
//! conservative default.

/// Threshold θ separating the head from the tail, expressed relative to the
/// number of workers `n`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeadThreshold {
    /// θ = `numerator / (denominator_times_n · n)`.
    pub numerator: f64,
    /// Multiplier of `n` in the denominator.
    pub denominator_times_n: f64,
}

impl HeadThreshold {
    /// The paper's default θ = 1/(5n).
    pub const DEFAULT: HeadThreshold = HeadThreshold {
        numerator: 1.0,
        denominator_times_n: 5.0,
    };

    /// θ = 2/n — the upper end of the theoretically justified range (any key
    /// above this frequency necessarily overloads two workers).
    pub const UPPER: HeadThreshold = HeadThreshold {
        numerator: 2.0,
        denominator_times_n: 1.0,
    };

    /// θ = 1/(8n) — the lowest threshold explored in the paper (Figure 7).
    pub const LOWEST: HeadThreshold = HeadThreshold {
        numerator: 1.0,
        denominator_times_n: 8.0,
    };

    /// Builds θ = `num / (denom_times_n · n)`.
    pub fn new(numerator: f64, denominator_times_n: f64) -> Self {
        assert!(
            numerator > 0.0 && denominator_times_n > 0.0,
            "threshold parts must be positive"
        );
        Self {
            numerator,
            denominator_times_n,
        }
    }

    /// The concrete frequency threshold for a deployment of `n` workers.
    pub fn frequency(&self, workers: usize) -> f64 {
        assert!(workers > 0, "worker count must be positive");
        self.numerator / (self.denominator_times_n * workers as f64)
    }

    /// The sweep of thresholds used in the paper's Figure 7, from 2/n down to
    /// 1/(8n) by successive halving.
    pub fn figure7_sweep() -> Vec<HeadThreshold> {
        vec![
            HeadThreshold::new(2.0, 1.0),
            HeadThreshold::new(1.0, 1.0),
            HeadThreshold::new(1.0, 2.0),
            HeadThreshold::new(1.0, 4.0),
            HeadThreshold::new(1.0, 8.0),
        ]
    }

    /// Human-readable label such as `"2/n"` or `"1/(5n)"`.
    pub fn label(&self) -> String {
        if (self.denominator_times_n - 1.0).abs() < f64::EPSILON {
            format!("{}/n", self.numerator)
        } else {
            format!("{}/({}n)", self.numerator, self.denominator_times_n)
        }
    }
}

impl Default for HeadThreshold {
    fn default() -> Self {
        Self::DEFAULT
    }
}

/// How a head-aware partitioner chooses `d`, the number of choices for head
/// keys.
///
/// The default, [`SolverMode::Online`], is the paper's behavior: the
/// D-Choices solver re-runs whenever the head membership changes or every
/// `solver_interval` messages. The other two modes exist for controlled
/// experiments and for the elasticity controller:
///
/// * [`SolverMode::Fixed`] pins `d` to a constant — the static-`d` baselines
///   the controller is measured against.
/// * [`SolverMode::External`] disables the internal solver entirely; `d`
///   only changes through [`crate::Partitioner::apply_choices`], making an
///   external controller the single adaptation authority.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverMode {
    /// Re-solve `d` online inside the partitioner (paper behavior).
    #[default]
    Online,
    /// Pin `d` to the given constant (clamped to the worker count).
    Fixed(usize),
    /// Never solve internally; `d` changes only via `apply_choices`.
    External,
}

/// Configuration for building a partitioner.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionConfig {
    /// Number of downstream workers `n`.
    pub workers: usize,
    /// Seed for the hash-function family and any randomized choices.
    pub seed: u64,
    /// Imbalance tolerance ε used by the D-Choices solver.
    pub epsilon: f64,
    /// Head threshold θ.
    pub threshold: HeadThreshold,
    /// Number of SpaceSaving counters per source. Defaults to `10·n`
    /// (twice the worst-case head cardinality of `5n` keys at θ = 1/(5n)) so
    /// that frequency estimates for head keys are sharp.
    pub sketch_capacity: usize,
    /// How many messages may elapse between re-runs of the D-Choices solver.
    /// The solver also re-runs whenever the head membership changes.
    pub solver_interval: u64,
    /// How `d` is chosen for head keys (online solver, pinned constant, or
    /// externally controlled). Defaults to [`SolverMode::Online`].
    pub solver: SolverMode,
}

impl PartitionConfig {
    /// Creates a configuration with the paper's defaults for `workers`
    /// downstream instances.
    ///
    /// # Panics
    /// Panics if `workers == 0`.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        Self {
            workers,
            seed: 0,
            epsilon: 1e-4,
            threshold: HeadThreshold::DEFAULT,
            sketch_capacity: 10 * workers,
            solver_interval: 1_000,
            solver: SolverMode::Online,
        }
    }

    /// Sets the RNG/hash seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the imbalance tolerance ε.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        assert!(epsilon > 0.0, "epsilon must be positive");
        self.epsilon = epsilon;
        self
    }

    /// Sets the head threshold θ.
    pub fn with_threshold(mut self, threshold: HeadThreshold) -> Self {
        self.threshold = threshold;
        self
    }

    /// Sets the SpaceSaving capacity.
    pub fn with_sketch_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "sketch capacity must be positive");
        self.sketch_capacity = capacity;
        self
    }

    /// Sets the solver re-run interval (in messages).
    pub fn with_solver_interval(mut self, interval: u64) -> Self {
        assert!(interval > 0, "solver interval must be positive");
        self.solver_interval = interval;
        self
    }

    /// Sets the solver mode (see [`SolverMode`]).
    pub fn with_solver(mut self, solver: SolverMode) -> Self {
        if let SolverMode::Fixed(d) = solver {
            assert!(d >= 2, "a fixed d must be at least 2 (got {d})");
        }
        self.solver = solver;
        self
    }

    /// The concrete frequency threshold θ for this worker count.
    pub fn theta(&self) -> f64 {
        self.threshold.frequency(self.workers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_threshold_is_one_over_5n() {
        let cfg = PartitionConfig::new(50);
        assert!((cfg.theta() - 1.0 / 250.0).abs() < 1e-12);
        assert_eq!(cfg.threshold.label(), "1/(5n)");
    }

    #[test]
    fn threshold_sweep_matches_figure7() {
        let sweep = HeadThreshold::figure7_sweep();
        assert_eq!(sweep.len(), 5);
        let n = 10;
        let freqs: Vec<f64> = sweep.iter().map(|t| t.frequency(n)).collect();
        assert!((freqs[0] - 0.2).abs() < 1e-12, "2/n at n=10");
        assert!((freqs[4] - 0.0125).abs() < 1e-12, "1/(8n) at n=10");
        for w in freqs.windows(2) {
            assert!(w[0] > w[1], "sweep must be strictly decreasing");
        }
    }

    #[test]
    fn threshold_labels() {
        assert_eq!(HeadThreshold::UPPER.label(), "2/n");
        assert_eq!(HeadThreshold::new(1.0, 2.0).label(), "1/(2n)");
    }

    #[test]
    fn config_builders_apply() {
        let cfg = PartitionConfig::new(20)
            .with_seed(7)
            .with_epsilon(1e-3)
            .with_threshold(HeadThreshold::UPPER)
            .with_sketch_capacity(64)
            .with_solver_interval(10);
        assert_eq!(cfg.workers, 20);
        assert_eq!(cfg.seed, 7);
        assert!((cfg.epsilon - 1e-3).abs() < 1e-15);
        assert_eq!(cfg.sketch_capacity, 64);
        assert_eq!(cfg.solver_interval, 10);
        assert!((cfg.theta() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn default_sketch_capacity_scales_with_workers() {
        assert_eq!(PartitionConfig::new(5).sketch_capacity, 50);
        assert_eq!(PartitionConfig::new(100).sketch_capacity, 1_000);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let _ = PartitionConfig::new(0);
    }

    #[test]
    #[should_panic(expected = "epsilon must be positive")]
    fn non_positive_epsilon_panics() {
        let _ = PartitionConfig::new(5).with_epsilon(0.0);
    }

    #[test]
    fn solver_mode_defaults_to_online() {
        assert_eq!(PartitionConfig::new(5).solver, SolverMode::Online);
        assert_eq!(SolverMode::default(), SolverMode::Online);
    }

    #[test]
    fn solver_mode_builder_applies() {
        let cfg = PartitionConfig::new(8).with_solver(SolverMode::Fixed(3));
        assert_eq!(cfg.solver, SolverMode::Fixed(3));
        let cfg = cfg.with_solver(SolverMode::External);
        assert_eq!(cfg.solver, SolverMode::External);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn fixed_d_below_two_panics() {
        let _ = PartitionConfig::new(5).with_solver(SolverMode::Fixed(1));
    }
}
