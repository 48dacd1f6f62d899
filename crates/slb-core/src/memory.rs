//! Memory-overhead accounting (Section IV-B of the paper).
//!
//! When a key's messages are split across several workers, every one of
//! those workers must keep partial state for the key, so the memory cost of
//! a grouping scheme is the number of `(key, worker)` state replicas it
//! creates. Taking the state per key as one unit, the paper estimates:
//!
//! * key grouping:      `Σ_k min(f_k, 1)`            (one replica per key)
//! * PKG:               `Σ_k min(f_k, 2)`
//! * D-Choices:         `Σ_{k∈H} min(f_k, d) + Σ_{k∉H} min(f_k, 2)`
//! * W-Choices / RR:    `Σ_{k∈H} min(f_k, n) + Σ_{k∉H} min(f_k, 2)`
//! * shuffle grouping:  `Σ_k min(f_k, n)`
//!
//! where `f_k` is the number of occurrences of key `k` (a key observed only
//! once can occupy at most one worker no matter what the scheme allows).
//! These estimates are what Figures 5 and 6 plot, as relative overheads with
//! respect to PKG and SG. The simulator additionally *measures* the replicas
//! actually created during a run; both views are provided here.

/// Which grouping scheme to estimate memory for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryScheme {
    /// Key grouping: one worker per key.
    KeyGrouping,
    /// Partial key grouping: at most two workers per key.
    Pkg,
    /// D-Choices with the given number of choices for head keys.
    DChoices {
        /// Number of candidate workers for head keys.
        d: usize,
    },
    /// W-Choices or Round-Robin: head keys may reach all workers.
    WChoices,
    /// Shuffle grouping: every key may reach all workers.
    Shuffle,
}

/// Estimated number of `(key, worker)` state replicas for a scheme, given
/// the per-key occurrence counts in rank order (most frequent first) and the
/// cardinality of the head.
///
/// `counts` must be sorted in non-increasing order; `head_cardinality` keys
/// from the front of the slice are treated as the head.
pub fn estimated_replicas(
    counts: &[u64],
    head_cardinality: usize,
    workers: usize,
    scheme: MemoryScheme,
) -> u64 {
    assert!(workers > 0, "worker count must be positive");
    let n = workers as u64;
    let head_cardinality = head_cardinality.min(counts.len());
    let cap_for = |rank: usize| -> u64 {
        match scheme {
            MemoryScheme::KeyGrouping => 1,
            MemoryScheme::Pkg => 2,
            MemoryScheme::Shuffle => n,
            MemoryScheme::DChoices { d } => {
                if rank < head_cardinality {
                    (d as u64).min(n)
                } else {
                    2
                }
            }
            MemoryScheme::WChoices => {
                if rank < head_cardinality {
                    n
                } else {
                    2
                }
            }
        }
    };
    counts
        .iter()
        .enumerate()
        .map(|(rank, &f)| f.min(cap_for(rank)))
        .sum()
}

/// Relative memory overhead of `scheme` with respect to `baseline`, in
/// percent: `100 · (mem_scheme − mem_baseline) / mem_baseline`.
///
/// Positive values mean `scheme` uses more memory than the baseline (the
/// Figure 5 view, baseline = PKG); negative values mean it uses less (the
/// Figure 6 view, baseline = SG).
pub fn relative_overhead_pct(
    counts: &[u64],
    head_cardinality: usize,
    workers: usize,
    scheme: MemoryScheme,
    baseline: MemoryScheme,
) -> f64 {
    let mem = estimated_replicas(counts, head_cardinality, workers, scheme) as f64;
    let base = estimated_replicas(counts, head_cardinality, workers, baseline) as f64;
    assert!(base > 0.0, "baseline memory must be positive");
    100.0 * (mem - base) / base
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rank-ordered counts for a tiny synthetic workload: one very hot key,
    /// a few warm ones, and a tail of singletons.
    fn sample_counts() -> Vec<u64> {
        let mut counts = vec![1_000, 200, 150, 80, 40];
        counts.extend(std::iter::repeat(1).take(100));
        counts
    }

    #[test]
    fn key_grouping_counts_each_key_once() {
        let counts = sample_counts();
        let mem = estimated_replicas(&counts, 1, 10, MemoryScheme::KeyGrouping);
        assert_eq!(mem, counts.len() as u64);
    }

    #[test]
    fn pkg_caps_at_two_replicas_per_key() {
        let counts = sample_counts();
        let mem = estimated_replicas(&counts, 1, 10, MemoryScheme::Pkg);
        // 5 keys with count >= 2 contribute 2 each, 100 singletons contribute 1.
        assert_eq!(mem, 5 * 2 + 100);
    }

    #[test]
    fn shuffle_caps_at_n_replicas_per_key() {
        let counts = sample_counts();
        let n = 10;
        let mem = estimated_replicas(&counts, 0, n, MemoryScheme::Shuffle);
        // Keys with count >= n contribute n; smaller keys contribute their count.
        let expected: u64 = counts.iter().map(|&f| f.min(n as u64)).sum();
        assert_eq!(mem, expected);
    }

    #[test]
    fn d_choices_interpolates_between_pkg_and_w_choices() {
        let counts = sample_counts();
        let n = 50;
        let head = 3;
        let pkg = estimated_replicas(&counts, head, n, MemoryScheme::Pkg);
        let dc = estimated_replicas(&counts, head, n, MemoryScheme::DChoices { d: 10 });
        let wc = estimated_replicas(&counts, head, n, MemoryScheme::WChoices);
        let sg = estimated_replicas(&counts, head, n, MemoryScheme::Shuffle);
        assert!(pkg <= dc, "D-C must use at least as much as PKG");
        assert!(dc <= wc, "D-C must use no more than W-C");
        assert!(wc <= sg, "W-C must use no more than SG");
    }

    #[test]
    fn d_choices_with_d_two_equals_pkg() {
        let counts = sample_counts();
        assert_eq!(
            estimated_replicas(&counts, 3, 20, MemoryScheme::DChoices { d: 2 }),
            estimated_replicas(&counts, 3, 20, MemoryScheme::Pkg)
        );
    }

    #[test]
    fn w_choices_with_empty_head_equals_pkg() {
        let counts = sample_counts();
        assert_eq!(
            estimated_replicas(&counts, 0, 20, MemoryScheme::WChoices),
            estimated_replicas(&counts, 0, 20, MemoryScheme::Pkg)
        );
    }

    /// Rank-ordered counts of a Zipf(z)-distributed workload with the given
    /// number of keys and messages — the key-count shape Figures 5 and 6 use.
    fn zipf_counts(keys: usize, z: f64, messages: u64) -> Vec<u64> {
        let weights: Vec<f64> = (1..=keys).map(|i| (i as f64).powf(-z)).collect();
        let norm: f64 = weights.iter().sum();
        weights
            .iter()
            .map(|w| ((w / norm) * messages as f64).round() as u64)
            .collect()
    }

    #[test]
    fn relative_overhead_signs_match_figures_5_and_6() {
        // W-C vs PKG is a (positive) overhead; W-C vs SG is a (negative)
        // saving. On the paper's workload shape (Zipf over 10^4 keys, 10^7
        // messages, head = keys above θ = 1/(5n)) the paper reports at most
        // ~30% extra memory over PKG and a large saving relative to SG.
        let n = 50usize;
        for z in [0.8, 1.2, 1.6, 2.0] {
            let counts = zipf_counts(10_000, z, 10_000_000);
            let total: u64 = counts.iter().sum();
            let theta = 1.0 / (5.0 * n as f64);
            let head = counts
                .iter()
                .filter(|&&c| c as f64 / total as f64 >= theta)
                .count();
            let vs_pkg =
                relative_overhead_pct(&counts, head, n, MemoryScheme::WChoices, MemoryScheme::Pkg);
            let vs_sg = relative_overhead_pct(
                &counts,
                head,
                n,
                MemoryScheme::WChoices,
                MemoryScheme::Shuffle,
            );
            assert!(vs_pkg >= 0.0, "z={z}");
            assert!(vs_sg <= 0.0, "z={z}");
            assert!(vs_pkg < 35.0, "z={z}: overhead vs PKG too large: {vs_pkg}");
            assert!(vs_sg < -50.0, "z={z}: saving vs SG too small: {vs_sg}");
        }
    }

    #[test]
    fn singleton_keys_never_cost_more_than_one_replica() {
        let counts = vec![1u64; 500];
        for scheme in [
            MemoryScheme::KeyGrouping,
            MemoryScheme::Pkg,
            MemoryScheme::DChoices { d: 16 },
            MemoryScheme::WChoices,
            MemoryScheme::Shuffle,
        ] {
            assert_eq!(estimated_replicas(&counts, 10, 32, scheme), 500);
        }
    }

    #[test]
    fn head_cardinality_larger_than_key_count_is_clamped() {
        let counts = vec![10u64, 5];
        let mem = estimated_replicas(&counts, 99, 4, MemoryScheme::WChoices);
        assert_eq!(mem, 4 + 4);
    }
}
