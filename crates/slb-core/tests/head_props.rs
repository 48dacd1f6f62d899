//! `HeadTracker::observe` against the head-membership predicate written out
//! in full.
//!
//! The tracker carries its cut (`⌈θ · total⌉`, never zero) from one
//! observation to the next and computes its warm-up length once; the
//! reference below recomputes both from θ and the stream length at every
//! call, as the tracker itself did before it carried them. After every
//! tuple: `observe` returns the reference's verdict on the updated sketch,
//! `is_head` agrees with it, and `generation` moves by exactly one iff the
//! observed key's verdict flipped across the update — through the warm-up
//! boundary (totals `⌈2/θ⌉ − 1` and `⌈2/θ⌉`, which every stream here
//! crosses) and under eviction churn.

use proptest::prelude::*;

use slb_core::HeadTracker;
use slb_sketch::FrequencyEstimator;

fn reference_is_head(tracker: &HeadTracker<u64>, key: &u64) -> bool {
    let (theta, total) = (tracker.theta(), tracker.total());
    if total < (2.0 / theta).ceil() as u64 {
        return false;
    }
    let cut = (theta * total as f64).ceil() as u64;
    tracker.sketch().estimate(key) >= cut.max(1)
}

/// Feeds `keys` through a fresh tracker, checking every step against the
/// reference; returns how many times the generation moved.
fn check_stream(capacity: usize, theta: f64, keys: impl Iterator<Item = u64>) -> u64 {
    let mut tracker: HeadTracker<u64> = HeadTracker::new(capacity, theta);
    let mut bumps = 0;
    for key in keys {
        let was = reference_is_head(&tracker, &key);
        assert_eq!(tracker.is_head(&key), was, "is_head before the update");
        let generation_before = tracker.generation();
        let now = tracker.observe(&key);
        assert_eq!(
            now,
            reference_is_head(&tracker, &key),
            "observe returns the post-update membership (total {})",
            tracker.total()
        );
        assert_eq!(tracker.is_head(&key), now, "is_head after the update");
        let moved = tracker.generation() - generation_before;
        assert_eq!(
            moved,
            u64::from(was != now),
            "generation bumps iff membership changed (total {})",
            tracker.total()
        );
        bumps += moved;
    }
    bumps
}

/// A key that is hot in bursts over a churning tail far wider than the
/// sketch: θ = 0.36 sits inside the band the bursty key's cumulative share
/// oscillates across (2/3 during on-blocks, decaying toward 1/3), so the key
/// enters and leaves the head repeatedly while evictions go on around it.
#[test]
fn bursty_key_enters_and_leaves_the_head() {
    let mut state = 0x9e37_79b9u64;
    let keys = (0..30_000u64).map(move |i| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        if (i / 1_000) % 2 == 0 && i % 3 != 0 {
            1
        } else {
            10 + state % 40
        }
    });
    let bumps = check_stream(8, 0.36, keys);
    assert!(bumps >= 2, "stream must actually exercise transitions");
}

proptest! {
    // 40 cases locally; ci.sh raises this via PROPTEST_CASES.
    #![proptest_config(ProptestConfig::with_cases_env(40))]

    /// The paper's threshold θ = 1/(5n) over worker counts, sketch
    /// capacities on both sides of the default 10n, and streams several
    /// warm-ups long with one hot key, so membership first turns true right
    /// at the warm-up boundary.
    #[test]
    fn observe_matches_the_reference_predicate(
        n in 1usize..40,
        capacity in 1usize..500,
        hot_permille in 0u64..800,
        tail_keys in 1u64..3_000,
        warmups in 2u64..8,
        state0 in any::<u64>(),
    ) {
        let theta = 1.0 / (5.0 * n as f64);
        let warmup = (2.0 / theta).ceil() as u64;
        let mut state = state0 | 1;
        let keys = (0..warmups * warmup).map(move |_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if state % 1_000 < hot_permille {
                0
            } else {
                1 + (state >> 10) % tail_keys
            }
        });
        check_stream(capacity, theta, keys);
    }
}
