//! Property tests for the scenario spec's structural invariants.
//!
//! These pin the *arithmetic* half of the scenario-engine contract: phase
//! boundaries always land on window boundaries, window→phase lookup is the
//! inverse of the phase start table, drift offsets accumulate, and phase
//! streams are deterministic pure functions of `(scenario, phase, source)`.
//! The execution half (the engine preserving these invariants end to end)
//! lives in `slb-engine/tests/scenario_props.rs`.

use proptest::prelude::*;

use slb_workloads::scenario::{Arrival, Scenario, ScenarioPhase};
use slb_workloads::KeyStream;

/// Expands a packed u64 into a random-but-valid list of phases (the vendored
/// proptest shim has no tuple/vec-of-tuple strategies, so randomness is
/// derived with an inline splitmix).
fn random_phases(window_size: u64, phase_count: usize, mut state: u64) -> Vec<ScenarioPhase> {
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..phase_count)
        .map(|_| {
            let windows = 1 + next() % 5;
            let keys = 1 + (next() % 500) as usize;
            let skew = (next() % 2_200) as f64 / 1_000.0;
            let workers = 1 + (next() % 8) as usize;
            // drift_epochs must divide the phase's tuples; walk the random
            // candidate down to the nearest divisor (worst case 1).
            let tuples = windows * window_size;
            let mut drift_epochs = 1 + next() % 3;
            while tuples % drift_epochs != 0 {
                drift_epochs -= 1;
            }
            ScenarioPhase::new(windows, keys, skew, workers).with_drift_epochs(drift_epochs)
        })
        .collect()
}

fn scenario_from(
    sources: usize,
    window_size: u64,
    seed: u64,
    phase_count: usize,
    mix: u64,
) -> Scenario {
    let mut s = Scenario::new("prop", sources, window_size, seed);
    for phase in random_phases(window_size, phase_count, mix) {
        s = s.phase(phase);
    }
    s
}

proptest! {
    // 64 cases locally; ci.sh raises this via PROPTEST_CASES.
    #![proptest_config(ProptestConfig::with_cases_env(64))]

    /// Phase transitions never split a window: every phase starts exactly at
    /// a window boundary, covers a whole number of windows, and the
    /// window→phase lookup agrees with the start table everywhere.
    #[test]
    fn phase_boundaries_are_window_aligned(
        sources in 1usize..5,
        window_size in 1u64..600,
        seed in any::<u64>(),
        phase_count in 1usize..5,
        mix in any::<u64>(),
    ) {
        let s = scenario_from(sources, window_size, seed, phase_count, mix);
        prop_assert!(s.validate().is_ok());
        let total_windows = s.total_windows();
        prop_assert_eq!(s.tuples_per_source(), total_windows * window_size);
        prop_assert_eq!(s.total_tuples(), total_windows * window_size * sources as u64);
        let mut expected_start = 0u64;
        for (p, phase) in s.phases.iter().enumerate() {
            prop_assert_eq!(s.phase_start_window(p), expected_start);
            // The phase boundary in tuples sits exactly on a window boundary.
            let boundary_tuples = expected_start * window_size;
            prop_assert_eq!(boundary_tuples % window_size, 0);
            prop_assert_eq!(s.phase_tuples_per_source(p), phase.windows * window_size);
            for w in expected_start..expected_start + phase.windows {
                prop_assert_eq!(s.phase_of_window(w), p, "window {} must be in phase {}", w, p);
            }
            expected_start += phase.windows;
        }
        prop_assert_eq!(expected_start, total_windows);
    }

    /// Drift epoch offsets accumulate phase lengths exactly.
    #[test]
    fn drift_offsets_accumulate(
        window_size in 1u64..200,
        seed in any::<u64>(),
        phase_count in 1usize..6,
        mix in any::<u64>(),
    ) {
        let s = scenario_from(2, window_size, seed, phase_count, mix);
        let mut acc = 0u64;
        for (p, phase) in s.phases.iter().enumerate() {
            prop_assert_eq!(s.drift_epoch_offset(p), acc);
            acc += phase.drift_epochs;
        }
    }

    /// Phase streams are deterministic and produce exactly the phase's tuple
    /// budget.
    #[test]
    fn phase_streams_are_pure_functions(
        sources in 2usize..4,
        window_size in 1u64..150,
        seed in any::<u64>(),
        phase_count in 1usize..4,
        mix in any::<u64>(),
    ) {
        let s = scenario_from(sources, window_size, seed, phase_count, mix);
        for p in 0..s.phases.len() {
            let mut first = s.phase_stream(p, 0);
            let mut second = s.phase_stream(p, 0);
            let mut produced = 0u64;
            while let Some(k) = first.next_key() {
                prop_assert_eq!(Some(k), second.next_key());
                produced += 1;
            }
            prop_assert_eq!(produced, s.phase_tuples_per_source(p));
        }
    }

    /// Burst arithmetic survives validation for any positive burst size.
    #[test]
    fn bursty_phases_validate(
        burst in 1u64..10_000,
        pause_us in 0u64..5_000,
    ) {
        let s = Scenario::single_phase(
            "bursts",
            2,
            64,
            1,
            ScenarioPhase::new(2, 50, 1.0, 3).with_arrival(Arrival::Bursty {
                burst_tuples: burst,
                pause_us,
            }),
        );
        prop_assert!(s.validate().is_ok());
    }
}
