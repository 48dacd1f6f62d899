//! Multi-phase scenario descriptions: drift, heterogeneity, bursts, and
//! mid-run scale-out as one first-class, deterministic spec.
//!
//! The paper's D-Choices/W-Choices schemes are motivated by workloads where
//! skew is *not* static: hot keys churn (the cashtag dataset), workers differ
//! in speed, and clusters resize. A [`Scenario`] captures such a workload as
//! an ordered list of [`ScenarioPhase`]s. Each phase fixes
//!
//! * the key distribution (Zipf `keys`/`skew`, optionally drifting within
//!   the phase via `drift_epochs`),
//! * the arrival pattern ([`Arrival::Steady`] or [`Arrival::Bursty`]),
//! * the active worker count and per-worker service-speed multipliers.
//!
//! Everything is deterministic: the per-source, per-phase key stream is a
//! pure function of `(scenario, phase, source)`, so the threaded engine, the
//! analytic simulator, and a single-threaded exact reference can all replay
//! *the same* scenario and be compared bit for bit.
//!
//! ## Phase alignment
//!
//! Phase lengths are expressed in **windows per source**, never in raw
//! tuples, so a phase transition can never split a tuple-count window: the
//! tuple at source position `i` belongs to window `i / window_size`, and
//! every phase covers a whole number of windows. This is what makes worker
//! scale-out at a phase boundary *sound* — per-window partial aggregates
//! complete entirely within one phase's routing regime, so no window ever
//! mixes two worker sets.
//!
//! ## Drift
//!
//! Drift epochs accumulate globally across phases: phase `p` starts at the
//! epoch index reached by the end of phase `p − 1` (see
//! [`DriftingGenerator::with_epoch_offset`]). A scenario whose phases all use
//! `drift_epochs = 1` therefore re-maps hot-key identities once per phase
//! boundary, and a single-phase scenario with `drift_epochs = 1` degenerates
//! to a plain static Zipf stream. All sources share one identity scramble
//! and one drift seed, so the hot key is the same [`crate::KeyId`] at every
//! source at every point in time.

use slb_hash::splitmix::splitmix64;

use crate::drift::DriftingGenerator;
use crate::zipf::ZipfGenerator;

/// Salt folded into the scenario seed to derive the shared drift seed.
const DRIFT_SALT: u64 = 0xD21F_7AB1_E5CE_0A21;

/// How tuples arrive within a phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// Sources emit as fast as downstream back-pressure allows.
    Steady,
    /// Sources emit `burst_tuples` tuples, pause `pause_us` microseconds,
    /// and repeat. Bursts shape timing (latency, queueing) only — routing
    /// decisions and counts are unaffected, so exactness is preserved.
    Bursty {
        /// Tuples per burst (per source).
        burst_tuples: u64,
        /// Pause between bursts, microseconds.
        pause_us: u64,
    },
}

/// One phase of a [`Scenario`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioPhase {
    /// Phase length in windows per source (tuples = `windows × window_size`).
    pub windows: u64,
    /// Number of distinct keys the phase's Zipf distribution draws from.
    pub keys: usize,
    /// Zipf exponent of the phase's key distribution.
    pub skew: f64,
    /// Number of active workers during the phase. Changing this across
    /// phases models scale-out/scale-in at the phase boundary.
    pub workers: usize,
    /// Per-worker service-time multipliers (heterogeneity). Empty means all
    /// workers run at speed 1.0; otherwise the length must equal `workers`.
    /// A multiplier of 2.0 makes that worker spend twice the base service
    /// time per tuple.
    pub worker_speed: Vec<f64>,
    /// Arrival pattern within the phase.
    pub arrival: Arrival,
    /// Number of drift epochs within the phase (≥ 1, and it must divide the
    /// phase's tuples per source so the equal-length epochs realize exactly
    /// the declared count). With 1, key identities are stable for the whole
    /// phase.
    pub drift_epochs: u64,
}

impl ScenarioPhase {
    /// A steady, homogeneous, drift-free phase.
    pub fn new(windows: u64, keys: usize, skew: f64, workers: usize) -> Self {
        Self {
            windows,
            keys,
            skew,
            workers,
            worker_speed: Vec::new(),
            arrival: Arrival::Steady,
            drift_epochs: 1,
        }
    }

    /// Sets the per-worker service-time multipliers.
    pub fn with_worker_speed(mut self, speed: Vec<f64>) -> Self {
        self.worker_speed = speed;
        self
    }

    /// Sets the arrival pattern.
    pub fn with_arrival(mut self, arrival: Arrival) -> Self {
        self.arrival = arrival;
        self
    }

    /// Sets the number of drift epochs within the phase.
    pub fn with_drift_epochs(mut self, epochs: u64) -> Self {
        self.drift_epochs = epochs;
        self
    }

    /// Service-time multiplier for `worker` (1.0 when homogeneous).
    pub fn speed_of(&self, worker: usize) -> f64 {
        self.worker_speed.get(worker).copied().unwrap_or(1.0)
    }
}

/// A deterministic multi-phase workload + cluster description, executable by
/// both `slb-engine` (threaded) and `slb-simulator` (analytic).
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Human-readable scenario name (experiment output labels).
    pub name: String,
    /// Number of sources; every source emits the same number of tuples.
    pub sources: usize,
    /// Tuples per window per source sub-stream.
    pub window_size: u64,
    /// Seed for samplers, the shared identity scramble, the drift remap, and
    /// the partitioners' hash families.
    pub seed: u64,
    /// The phases, executed in order.
    pub phases: Vec<ScenarioPhase>,
}

impl Scenario {
    /// Creates a scenario with no phases yet; chain [`Self::phase`].
    pub fn new(name: impl Into<String>, sources: usize, window_size: u64, seed: u64) -> Self {
        Self {
            name: name.into(),
            sources,
            window_size,
            seed,
            phases: Vec::new(),
        }
    }

    /// Appends a phase.
    pub fn phase(mut self, phase: ScenarioPhase) -> Self {
        self.phases.push(phase);
        self
    }

    /// A single static phase — the degenerate case every pre-scenario
    /// experiment corresponds to.
    pub fn single_phase(
        name: impl Into<String>,
        sources: usize,
        window_size: u64,
        seed: u64,
        phase: ScenarioPhase,
    ) -> Self {
        Self::new(name, sources, window_size, seed).phase(phase)
    }

    /// Checks structural validity; every executor calls this before running.
    pub fn validate(&self) -> Result<(), String> {
        if self.sources == 0 {
            return Err("scenario needs at least one source".into());
        }
        if self.window_size == 0 {
            return Err("scenario windows need at least one tuple".into());
        }
        if self.phases.is_empty() {
            return Err("scenario needs at least one phase".into());
        }
        for (i, phase) in self.phases.iter().enumerate() {
            if phase.windows == 0 {
                return Err(format!("phase {i}: needs at least one window"));
            }
            if phase.keys == 0 {
                return Err(format!("phase {i}: needs at least one key"));
            }
            if !(phase.skew.is_finite() && phase.skew >= 0.0) {
                return Err(format!("phase {i}: skew must be finite and non-negative"));
            }
            if phase.workers == 0 {
                return Err(format!("phase {i}: needs at least one worker"));
            }
            if !phase.worker_speed.is_empty() {
                if phase.worker_speed.len() != phase.workers {
                    return Err(format!(
                        "phase {i}: worker_speed has {} entries for {} workers",
                        phase.worker_speed.len(),
                        phase.workers
                    ));
                }
                if phase
                    .worker_speed
                    .iter()
                    .any(|&m| !(m.is_finite() && m > 0.0))
                {
                    return Err(format!(
                        "phase {i}: worker_speed multipliers must be positive and finite"
                    ));
                }
            }
            if phase.drift_epochs == 0 {
                return Err(format!("phase {i}: drift_epochs must be at least 1"));
            }
            // Epochs are equal-length slices of the phase, so only an even
            // division realizes exactly the declared count; anything else
            // would skip epoch indices (`drift_epoch_offset` advances by the
            // declared count) or realize extras. Reject the
            // mis-specification instead of silently bending it.
            let phase_tuples = phase.windows * self.window_size;
            if phase_tuples % phase.drift_epochs != 0 {
                return Err(format!(
                    "phase {i}: drift_epochs {} must divide the phase's {} tuples per source",
                    phase.drift_epochs, phase_tuples
                ));
            }
            if let Arrival::Bursty { burst_tuples, .. } = phase.arrival {
                if burst_tuples == 0 {
                    return Err(format!("phase {i}: bursts need at least one tuple"));
                }
            }
        }
        Ok(())
    }

    /// Largest worker count any phase uses (the engine spawns this many
    /// worker threads up front; phases activate a prefix of them).
    pub fn max_workers(&self) -> usize {
        self.phases.iter().map(|p| p.workers).max().unwrap_or(0)
    }

    /// Total windows per source across all phases.
    pub fn total_windows(&self) -> u64 {
        self.phases.iter().map(|p| p.windows).sum()
    }

    /// Tuples each source emits over the whole scenario.
    pub fn tuples_per_source(&self) -> u64 {
        self.total_windows() * self.window_size
    }

    /// Total tuples across all sources.
    pub fn total_tuples(&self) -> u64 {
        self.tuples_per_source() * self.sources as u64
    }

    /// Tuples each source emits during `phase`.
    pub fn phase_tuples_per_source(&self, phase: usize) -> u64 {
        self.phases[phase].windows * self.window_size
    }

    /// Global index of the first window of `phase` (phases never split a
    /// window, so this is exact).
    pub fn phase_start_window(&self, phase: usize) -> u64 {
        self.phases[..phase].iter().map(|p| p.windows).sum()
    }

    /// The phase that `window` belongs to.
    ///
    /// # Panics
    /// Panics if `window` is past the end of the scenario.
    pub fn phase_of_window(&self, window: u64) -> usize {
        let mut start = 0u64;
        for (i, phase) in self.phases.iter().enumerate() {
            start += phase.windows;
            if window < start {
                return i;
            }
        }
        panic!(
            "window {window} is past the scenario's {} windows",
            self.total_windows()
        );
    }

    /// Cumulative drift epochs completed before `phase` — the epoch offset
    /// at which the phase's drifting stream resumes.
    pub fn drift_epoch_offset(&self, phase: usize) -> u64 {
        self.phases[..phase].iter().map(|p| p.drift_epochs).sum()
    }

    /// The shared drift seed (same for all sources and phases, so the epoch
    /// remap is a global property of the scenario).
    pub fn drift_seed(&self) -> u64 {
        splitmix64(self.seed ^ DRIFT_SALT)
    }

    /// Sampler seed for `(phase, source)`: distinct per pair so every
    /// source in every phase draws an independent rank sequence, while the
    /// identity scramble (and thus the key space) stays shared.
    fn sampler_seed(&self, phase: usize, source: usize) -> u64 {
        splitmix64(self.seed ^ (phase as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(source as u64 + 1)
    }

    /// The deterministic key stream of one source during one phase: an
    /// independent Zipf sampler per `(phase, source)`, the scenario-wide
    /// identity scramble, and the scenario-wide drift history resumed at the
    /// phase's cumulative epoch offset. The engine's source threads, the
    /// simulator, and the exact reference all construct their streams
    /// through this one function — divergence is structurally impossible.
    pub fn phase_stream(&self, phase: usize, source: usize) -> DriftingGenerator<ZipfGenerator> {
        let spec = &self.phases[phase];
        let tuples = self.phase_tuples_per_source(phase);
        // Exact division is guaranteed by `validate`, so the phase realizes
        // exactly `drift_epochs` equal-length epochs.
        let epoch_len = tuples / spec.drift_epochs;
        DriftingGenerator::new(
            ZipfGenerator::with_limit(
                spec.keys,
                spec.skew,
                self.sampler_seed(phase, source),
                tuples,
            ),
            epoch_len,
            self.drift_seed(),
        )
        .with_epoch_offset(self.drift_epoch_offset(phase))
        .scrambled_like(self.seed)
    }

    /// The canonical stress scenario used by the differential suite and the
    /// scale-out experiment: drifting skew, a uniform cool-down, worker
    /// heterogeneity, a burst phase, and scale-out then scale-in. Exercises
    /// every scenario feature at once.
    pub fn stress(sources: usize, window_size: u64, workers: usize, seed: u64) -> Self {
        let scaled = workers * 2;
        Self::new("stress", sources, window_size, seed)
            .phase(
                // Hot start: heavy skew on the base worker set.
                ScenarioPhase::new(4, 600, 1.8, workers),
            )
            .phase(
                // Drift while heterogeneous: hot keys churn twice, first
                // worker runs at half speed.
                ScenarioPhase::new(4, 600, 1.4, workers)
                    .with_drift_epochs(2)
                    .with_worker_speed(
                        (0..workers)
                            .map(|w| if w == 0 { 2.0 } else { 1.0 })
                            .collect(),
                    ),
            )
            .phase(
                // Scale-out under extreme skew, arriving in bursts.
                ScenarioPhase::new(4, 400, 2.0, scaled).with_arrival(Arrival::Bursty {
                    burst_tuples: 2 * window_size,
                    pause_us: 50,
                }),
            )
            .phase(
                // Scale back in on a uniform tail.
                ScenarioPhase::new(2, 1_000, 0.0, workers),
            )
    }

    /// A drift-heavy scenario for the elasticity controller: the configured
    /// worker count stays constant (when a controller is attached, *it* owns
    /// any changes) while the head set churns repeatedly under high skew —
    /// the regime where online `d` re-solving beats any static `d`.
    pub fn drift(sources: usize, window_size: u64, workers: usize, seed: u64) -> Self {
        Self::new("drift", sources, window_size, seed)
            .phase(
                // Heavy skew with the hot keys remapped three times.
                ScenarioPhase::new(6, 400, 1.9, workers).with_drift_epochs(3),
            )
            .phase(
                // Hotter still, over a smaller key space.
                ScenarioPhase::new(6, 300, 2.0, workers).with_drift_epochs(2),
            )
            .phase(
                // Cool-down at moderate skew, one last head.
                ScenarioPhase::new(4, 600, 1.5, workers),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KeyStream;

    fn demo() -> Scenario {
        Scenario::new("demo", 3, 128, 42)
            .phase(ScenarioPhase::new(2, 500, 1.5, 4))
            .phase(ScenarioPhase::new(3, 300, 2.0, 8).with_drift_epochs(2))
            .phase(ScenarioPhase::new(1, 400, 0.0, 2))
    }

    #[test]
    fn arithmetic_is_consistent() {
        let s = demo();
        assert!(s.validate().is_ok());
        assert_eq!(s.total_windows(), 6);
        assert_eq!(s.tuples_per_source(), 6 * 128);
        assert_eq!(s.total_tuples(), 3 * 6 * 128);
        assert_eq!(s.max_workers(), 8);
        assert_eq!(s.phase_start_window(0), 0);
        assert_eq!(s.phase_start_window(1), 2);
        assert_eq!(s.phase_start_window(2), 5);
        assert_eq!(s.phase_of_window(0), 0);
        assert_eq!(s.phase_of_window(1), 0);
        assert_eq!(s.phase_of_window(2), 1);
        assert_eq!(s.phase_of_window(4), 1);
        assert_eq!(s.phase_of_window(5), 2);
        assert_eq!(s.drift_epoch_offset(0), 0);
        assert_eq!(s.drift_epoch_offset(1), 1);
        assert_eq!(s.drift_epoch_offset(2), 3);
    }

    #[test]
    #[should_panic(expected = "past the scenario")]
    fn phase_of_window_past_the_end_panics() {
        let _ = demo().phase_of_window(6);
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let base = demo();
        assert!(Scenario::new("x", 0, 128, 1)
            .phase(ScenarioPhase::new(1, 10, 1.0, 2))
            .validate()
            .is_err());
        assert!(Scenario::new("x", 1, 0, 1)
            .phase(ScenarioPhase::new(1, 10, 1.0, 2))
            .validate()
            .is_err());
        assert!(Scenario::new("x", 1, 128, 1).validate().is_err());
        let mut s = base.clone();
        s.phases[0].windows = 0;
        assert!(s.validate().is_err());
        let mut s = base.clone();
        s.phases[1].workers = 0;
        assert!(s.validate().is_err());
        let mut s = base.clone();
        s.phases[1].worker_speed = vec![1.0; 3]; // 8 workers
        assert!(s.validate().is_err());
        let mut s = base.clone();
        s.phases[0].worker_speed = vec![0.0; 4];
        assert!(s.validate().is_err());
        let mut s = base.clone();
        s.phases[2].drift_epochs = 0;
        assert!(s.validate().is_err());
        let mut s = base.clone();
        // Phase 0 has 2 × 128 = 256 tuples; 3 epochs cannot divide evenly.
        s.phases[0].drift_epochs = 3;
        assert!(s.validate().is_err());
        let mut s = base.clone();
        // More epochs than tuples is rejected by the same rule.
        s.phases[0].drift_epochs = 1_000;
        assert!(s.validate().is_err());
        let mut s = base.clone();
        s.phases[0].arrival = Arrival::Bursty {
            burst_tuples: 0,
            pause_us: 10,
        };
        assert!(s.validate().is_err());
        let mut s = base;
        s.phases[0].skew = f64::NAN;
        assert!(s.validate().is_err());
    }

    #[test]
    fn phase_streams_are_deterministic_and_bounded() {
        let s = demo();
        for phase in 0..s.phases.len() {
            for source in 0..s.sources {
                let mut a = s.phase_stream(phase, source);
                let mut b = s.phase_stream(phase, source);
                let mut n = 0u64;
                while let Some(k) = a.next_key() {
                    assert_eq!(Some(k), b.next_key());
                    n += 1;
                }
                assert_eq!(n, s.phase_tuples_per_source(phase));
            }
        }
    }

    #[test]
    fn sources_and_phases_draw_distinct_rank_sequences() {
        let s = demo();
        let collect = |phase: usize, source: usize| -> Vec<u64> {
            let mut stream = s.phase_stream(phase, source);
            std::iter::from_fn(|| stream.next_key()).collect()
        };
        assert_ne!(collect(0, 0), collect(0, 1), "sources must be independent");
        // Different phases with identical distributions would still differ.
        let twin = Scenario::new("twin", 1, 64, 9)
            .phase(ScenarioPhase::new(2, 100, 1.0, 2))
            .phase(ScenarioPhase::new(2, 100, 1.0, 2));
        let p0: Vec<u64> = {
            let mut st = twin.phase_stream(0, 0);
            std::iter::from_fn(|| st.next_key()).collect()
        };
        let p1: Vec<u64> = {
            let mut st = twin.phase_stream(1, 0);
            std::iter::from_fn(|| st.next_key()).collect()
        };
        assert_ne!(p0, p1, "phases must sample independently");
    }

    #[test]
    fn first_phase_without_drift_matches_a_plain_scrambled_zipf() {
        // The one-phase special case: drift epoch offset 0 and one epoch
        // leaves identities untouched, so the stream equals a plain shared-
        // scramble Zipf generator.
        let s = Scenario::single_phase("plain", 2, 64, 7, ScenarioPhase::new(3, 200, 1.4, 4));
        let mut scenario_stream = s.phase_stream(0, 1);
        let mut plain =
            ZipfGenerator::with_limit(200, 1.4, s.sampler_seed(0, 1), 3 * 64).scrambled_like(7);
        loop {
            let (a, b) = (scenario_stream.next_key(), KeyStream::next_key(&mut plain));
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn hot_key_identity_is_shared_across_sources_under_drift() {
        let s = Scenario::single_phase(
            "drifty",
            2,
            1_024,
            11,
            ScenarioPhase::new(16, 300, 2.0, 4).with_drift_epochs(2),
        );
        let hottest = |source: usize, take: u64| -> u64 {
            let mut stream = s.phase_stream(0, source);
            let mut counts = std::collections::HashMap::new();
            for _ in 0..take {
                *counts.entry(stream.next_key().unwrap()).or_insert(0u64) += 1;
            }
            counts.into_iter().max_by_key(|&(_, c)| c).unwrap().0
        };
        let half = s.tuples_per_source() / 2;
        assert_eq!(hottest(0, half), hottest(1, half));
    }

    #[test]
    fn stress_preset_is_valid_and_scales_out() {
        let s = Scenario::stress(3, 256, 4, 42);
        assert!(s.validate().is_ok());
        assert_eq!(s.max_workers(), 8);
        assert!(s.phases.iter().any(|p| p.drift_epochs > 1));
        assert!(s
            .phases
            .iter()
            .any(|p| matches!(p.arrival, Arrival::Bursty { .. })));
        assert!(s.phases.iter().any(|p| !p.worker_speed.is_empty()));
    }

    #[test]
    fn drift_preset_is_valid_with_constant_workers() {
        let s = Scenario::drift(2, 512, 5, 7);
        assert!(s.validate().is_ok());
        // The worker count never changes: adaptation is the controller's job.
        assert!(s.phases.iter().all(|p| p.workers == 5));
        assert_eq!(s.max_workers(), 5);
        // At least two phases churn their head sets mid-phase.
        assert!(s.phases.iter().filter(|p| p.drift_epochs > 1).count() >= 2);
        assert!(s.phases.iter().all(|p| p.skew >= 1.5));
    }
}
