//! The D-Choices solver: how many choices do the head keys need?
//!
//! Section IV-A of the paper formulates the choice of `d` as a minimization
//! problem: use the smallest `d` such that the expected imbalance stays below
//! the tolerance `ε`. Solving the constraint analytically is hard, so the
//! paper derives a family of necessary conditions (Eqn. 3), one per prefix of
//! the head, using a lower bound on the cumulative load of the workers
//! responsible for that prefix:
//!
//! ```text
//!   Σ_{i≤h} p_i  +  (b_h/n)^d · Σ_{h<i≤|H|} p_i  +  (b_h/n)^2 · Σ_{i>|H|} p_i
//!       ≤  b_h · (1/n + ε)                         for every prefix length h,
//!   where b_h = n − n·((n−1)/n)^{h·d}
//! ```
//!
//! `FIND­OPTIMAL­CHOICES` starts from the trivial lower bound `d = ⌈p₁·n⌉`
//! (a key with frequency `p₁` needs at least `p₁·n` workers) and increases
//! `d` until every prefix constraint is satisfied, or `d` reaches `n`, at
//! which point the caller should switch to W-Choices.

/// Outcome of the solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChoicesDecision {
    /// Use a Greedy-d process with this many choices for the head keys.
    UseD(usize),
    /// No `d < n` satisfies the constraints: switch to W-Choices (all
    /// workers are candidates for head keys).
    SwitchToW,
}

impl ChoicesDecision {
    /// The number of candidate workers implied by the decision, given `n`.
    pub fn effective_d(&self, workers: usize) -> usize {
        match self {
            ChoicesDecision::UseD(d) => *d,
            ChoicesDecision::SwitchToW => workers,
        }
    }
}

/// Expected number of distinct workers covered when assigning `h` head keys
/// with `d` choices each over `n` workers (Appendix A of the paper):
/// `b_h = n − n·((n−1)/n)^{h·d}`.
///
/// This is the expected number of occupied bins after throwing `h·d` balls
/// uniformly at random (with replacement) into `n` bins.
pub fn expected_worker_set_size(workers: usize, h: usize, d: usize) -> f64 {
    assert!(workers > 0, "worker count must be positive");
    let n = workers as f64;
    let exponent = (h * d) as f64;
    n - n * ((n - 1.0) / n).powf(exponent)
}

/// Checks the prefix constraint of Eqn. 3 for a single prefix length `h`
/// (1-based: `h = 1` is the hottest key alone).
///
/// * `head` — estimated relative frequencies of the head keys, sorted
///   descending.
/// * `tail_mass` — total relative frequency of all non-head keys.
fn prefix_constraint_holds(
    head: &[f64],
    tail_mass: f64,
    workers: usize,
    d: usize,
    epsilon: f64,
    h: usize,
) -> bool {
    let n = workers as f64;
    let bh = expected_worker_set_size(workers, h, d);
    let ratio = (bh / n).clamp(0.0, 1.0);
    let prefix_mass: f64 = head[..h].iter().sum();
    let rest_of_head: f64 = head[h..].iter().sum();
    let lhs = prefix_mass + ratio.powi(d as i32) * rest_of_head + ratio.powi(2) * tail_mass;
    let rhs = bh * (1.0 / n + epsilon);
    lhs <= rhs
}

/// Returns true if Greedy-d with `d` choices for the head satisfies every
/// prefix constraint of Eqn. 3.
pub fn constraints_hold(
    head: &[f64],
    tail_mass: f64,
    workers: usize,
    d: usize,
    epsilon: f64,
) -> bool {
    (1..=head.len()).all(|h| prefix_constraint_holds(head, tail_mass, workers, d, epsilon, h))
}

/// `FINDOPTIMALCHOICES`: the smallest `d ≥ 2` satisfying Eqn. 3, or the
/// decision to switch to W-Choices when no `d < n` works.
///
/// * `head` — estimated relative frequencies of the head keys, sorted in
///   descending order (the solver sorts defensively if they are not).
/// * `tail_mass` — total relative frequency of the non-head keys.
/// * `workers` — the number of downstream workers `n`.
/// * `epsilon` — the imbalance tolerance ε.
///
/// With an empty head the answer is always `UseD(2)` (plain PKG).
pub fn find_optimal_choices(
    head: &[f64],
    tail_mass: f64,
    workers: usize,
    epsilon: f64,
) -> ChoicesDecision {
    assert!(workers > 0, "worker count must be positive");
    assert!(epsilon > 0.0, "epsilon must be positive");
    if head.is_empty() {
        return ChoicesDecision::UseD(2);
    }
    let mut head_sorted: Vec<f64> = head.to_vec();
    head_sorted.sort_by(|a, b| b.partial_cmp(a).expect("frequencies are finite"));

    let p1 = head_sorted[0];
    // Lower bound: a key with frequency p1 needs at least p1·n workers, and
    // never fewer than the 2 choices the tail already has.
    let mut d = ((p1 * workers as f64).ceil() as usize).max(2);
    while d < workers {
        if constraints_hold(&head_sorted, tail_mass, workers, d, epsilon) {
            return ChoicesDecision::UseD(d);
        }
        d += 1;
    }
    // d == n is not sensible for a hashed Greedy-d process (collisions leave
    // workers uncovered); the paper switches to W-Choices instead. Whether
    // d = n would satisfy the bound is therefore not evaluated: even when it
    // cannot (extremely skewed head, e.g. p1 close to 1), W-Choices is still
    // the best available answer.
    ChoicesDecision::SwitchToW
}

/// Convenience: the fraction of workers `d/n` chosen by the solver, as
/// plotted in Figure 4. `SwitchToW` counts as `d = n`.
pub fn d_fraction(head: &[f64], tail_mass: f64, workers: usize, epsilon: f64) -> f64 {
    let decision = find_optimal_choices(head, tail_mass, workers, epsilon);
    decision.effective_d(workers) as f64 / workers as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the head/tail split of a Zipf distribution the same way the
    /// analysis section of the paper does: head = keys with p ≥ θ.
    fn zipf_head_tail(keys: usize, z: f64, theta: f64) -> (Vec<f64>, f64) {
        let probs: Vec<f64> = {
            let mut p: Vec<f64> = (1..=keys).map(|i| (i as f64).powf(-z)).collect();
            let s: f64 = p.iter().sum();
            p.iter_mut().for_each(|x| *x /= s);
            p
        };
        let head: Vec<f64> = probs.iter().copied().filter(|&p| p >= theta).collect();
        let tail_mass: f64 = probs.iter().copied().filter(|&p| p < theta).sum();
        (head, tail_mass)
    }

    #[test]
    fn bh_matches_closed_form_edge_cases() {
        // One key, one choice: exactly one worker covered in expectation is
        // n·(1 - (1-1/n)) = 1.
        assert!((expected_worker_set_size(10, 1, 1) - 1.0).abs() < 1e-9);
        // Many placements cover nearly all workers.
        let b = expected_worker_set_size(10, 100, 10);
        assert!(b > 9.999);
        // b_h is increasing in both h and d.
        assert!(expected_worker_set_size(50, 2, 3) > expected_worker_set_size(50, 1, 3));
        assert!(expected_worker_set_size(50, 2, 4) > expected_worker_set_size(50, 2, 3));
    }

    #[test]
    fn bh_matches_monte_carlo_estimate() {
        // Appendix A check: simulate throwing h·d balls into n bins and
        // compare the expected number of occupied bins with the formula.
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for &(n, h, d) in &[(10usize, 2usize, 3usize), (50, 4, 5), (100, 3, 7)] {
            let trials = 3_000;
            let mut total_occupied = 0usize;
            for _ in 0..trials {
                let mut occupied = vec![false; n];
                for _ in 0..h * d {
                    occupied[rng.gen_range(0..n)] = true;
                }
                total_occupied += occupied.iter().filter(|&&o| o).count();
            }
            let empirical = total_occupied as f64 / trials as f64;
            let formula = expected_worker_set_size(n, h, d);
            assert!(
                (empirical - formula).abs() < 0.15,
                "n={n} h={h} d={d}: empirical {empirical} vs formula {formula}"
            );
        }
    }

    #[test]
    fn empty_head_defaults_to_two_choices() {
        assert_eq!(
            find_optimal_choices(&[], 1.0, 50, 1e-4),
            ChoicesDecision::UseD(2)
        );
    }

    #[test]
    fn mild_skew_needs_exactly_two_choices() {
        // z = 0.5 on 10^4 keys: p1 ≈ 0.5% — PKG's assumptions hold even at
        // n = 50, so the solver should not add choices.
        let (head, tail) = zipf_head_tail(10_000, 0.5, 1.0 / (5.0 * 50.0));
        let d = find_optimal_choices(&head, tail, 50, 1e-4);
        assert_eq!(d, ChoicesDecision::UseD(2));
    }

    #[test]
    fn d_grows_with_skew() {
        let n = 50;
        let theta = 1.0 / (5.0 * n as f64);
        let mut last_d = 0usize;
        for z in [1.0, 1.4, 1.8, 2.0] {
            let (head, tail) = zipf_head_tail(10_000, z, theta);
            let d = find_optimal_choices(&head, tail, n, 1e-4).effective_d(n);
            assert!(
                d >= last_d,
                "d must not decrease as skew grows (z={z}: {d} < {last_d})"
            );
            last_d = d;
        }
        assert!(
            last_d > 2,
            "extreme skew must require more than two choices"
        );
    }

    #[test]
    fn d_at_least_p1_times_n() {
        // The trivial lower bound d ≥ p1·n must hold in the output.
        let n = 100;
        let (head, tail) = zipf_head_tail(10_000, 2.0, 1.0 / (5.0 * n as f64));
        let p1 = head[0];
        let d = find_optimal_choices(&head, tail, n, 1e-4).effective_d(n);
        assert!(d as f64 >= (p1 * n as f64).floor());
    }

    #[test]
    fn returned_d_is_minimal() {
        // The solver's d satisfies the constraints while d-1 does not
        // (unless d is the floor of 2).
        let n = 50;
        let theta = 1.0 / (5.0 * n as f64);
        for z in [1.2, 1.6, 2.0] {
            let (head, tail) = zipf_head_tail(10_000, z, theta);
            match find_optimal_choices(&head, tail, n, 1e-4) {
                ChoicesDecision::UseD(d) => {
                    assert!(constraints_hold(&head, tail, n, d, 1e-4));
                    if d > 2 {
                        assert!(
                            !constraints_hold(&head, tail, n, d - 1, 1e-4),
                            "z={z}: d={d} is not minimal"
                        );
                    }
                }
                ChoicesDecision::SwitchToW => {
                    // Acceptable for extreme skews; nothing further to check.
                }
            }
        }
    }

    #[test]
    fn single_dominant_key_switches_to_w_choices_on_large_clusters() {
        // One key holding 60% of the stream (the z = 2 situation described in
        // the introduction): on 100 workers no small d suffices, and the
        // solver must either pick a large d or switch to W-Choices.
        let head = vec![0.6];
        let decision = find_optimal_choices(&head, 0.4, 100, 1e-4);
        match decision {
            ChoicesDecision::UseD(d) => assert!(d >= 60, "d = {d} too small for p1 = 0.6"),
            ChoicesDecision::SwitchToW => {}
        }
    }

    #[test]
    fn d_fraction_is_between_zero_and_one() {
        for n in [5usize, 10, 50, 100] {
            let theta = 1.0 / (5.0 * n as f64);
            for z in [0.4, 1.0, 1.6, 2.0] {
                let (head, tail) = zipf_head_tail(10_000, z, theta);
                let f = d_fraction(&head, tail, n, 1e-4);
                assert!(f > 0.0 && f <= 1.0, "n={n} z={z}: fraction {f}");
            }
        }
    }

    #[test]
    fn unsorted_head_is_handled() {
        let head = vec![0.05, 0.3, 0.1];
        let sorted = vec![0.3, 0.1, 0.05];
        assert_eq!(
            find_optimal_choices(&head, 0.55, 20, 1e-4),
            find_optimal_choices(&sorted, 0.55, 20, 1e-4)
        );
    }

    #[test]
    fn tighter_epsilon_needs_no_fewer_choices() {
        let (head, tail) = zipf_head_tail(10_000, 1.5, 1.0 / 250.0);
        let loose = find_optimal_choices(&head, tail, 50, 1e-2).effective_d(50);
        let tight = find_optimal_choices(&head, tail, 50, 1e-5).effective_d(50);
        assert!(tight >= loose);
    }
}
