//! Per-source load estimation and the imbalance metric.
//!
//! Every source keeps a local vector of the number of messages it has sent
//! to each worker. As shown in the PKG paper and reiterated here (Section
//! IV-B, "Overhead on Sources"), this purely local estimate is an accurate
//! proxy for the true global load because all sources make decisions the
//! same way; no coordination is required. The Greedy-d process consults this
//! vector to pick the least loaded candidate.
//!
//! The module also defines the paper's imbalance metric
//! `I(t) = max_w L_w(t) − avg_w L_w(t)` over *fractional* loads.

/// A per-worker message counter maintained by a single source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadVector {
    counts: Vec<u64>,
    total: u64,
}

impl LoadVector {
    /// Creates a zeroed load vector for `workers` workers.
    ///
    /// # Panics
    /// Panics if `workers == 0`.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "load vector needs at least one worker");
        Self {
            counts: vec![0; workers],
            total: 0,
        }
    }

    /// Number of workers tracked.
    #[inline]
    pub fn workers(&self) -> usize {
        self.counts.len()
    }

    /// Total messages recorded.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Messages recorded for `worker`.
    #[inline]
    pub fn count(&self, worker: usize) -> u64 {
        self.counts[worker]
    }

    /// The raw per-worker counts.
    #[inline]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Records one message routed to `worker`.
    #[inline]
    pub fn record(&mut self, worker: usize) {
        self.counts[worker] += 1;
        self.total += 1;
    }

    /// Returns the least loaded worker among `candidates`, breaking ties in
    /// favour of the candidate listed first (deterministic, as required for
    /// reproducible experiments).
    ///
    /// # Panics
    /// Panics if `candidates` is empty or contains an out-of-range index.
    #[inline]
    pub fn min_load_among(&self, candidates: &[usize]) -> usize {
        assert!(!candidates.is_empty(), "need at least one candidate worker");
        let mut best = candidates[0];
        let mut best_load = self.counts[best];
        for &c in &candidates[1..] {
            let load = self.counts[c];
            if load < best_load {
                best = c;
                best_load = load;
            }
        }
        best
    }

    /// Returns the least loaded worker overall (used by W-Choices for head
    /// keys), breaking ties in favour of the lowest index.
    #[inline]
    pub fn min_load_all(&self) -> usize {
        let mut best = 0;
        let mut best_load = self.counts[0];
        for (w, &load) in self.counts.iter().enumerate().skip(1) {
            if load < best_load {
                best = w;
                best_load = load;
            }
        }
        best
    }

    /// Fractional load of each worker (`counts / total`); all zeros if no
    /// message has been recorded yet.
    pub fn fractions(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }

    /// The imbalance `I(t)` of this load vector.
    pub fn imbalance(&self) -> f64 {
        imbalance(&self.counts)
    }

    /// Merges another load vector into this one (summing counts); used to
    /// compute the true global load from per-source local vectors.
    ///
    /// # Panics
    /// Panics if the worker counts differ.
    pub fn merge(&mut self, other: &LoadVector) {
        assert_eq!(
            self.counts.len(),
            other.counts.len(),
            "mismatched worker counts"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }
}

/// The paper's load imbalance metric over raw message counts:
/// `I = max_w(L_w) − avg_w(L_w)` where `L_w` is the *fraction* of messages
/// handled by worker `w`. Returns 0 for an empty load — no messages, or no
/// workers to have handled any.
pub fn imbalance(counts: &[u64]) -> f64 {
    // Saturating: the engine evaluates this over reported counts.
    let total = counts.iter().fold(0u64, |sum, &c| sum.saturating_add(c));
    if total == 0 {
        return 0.0;
    }
    let max = *counts.iter().max().expect("a positive total has a worker") as f64 / total as f64;
    let avg = 1.0 / counts.len() as f64;
    max - avg
}

/// Imbalance over already-normalized fractional loads.
pub fn imbalance_fractions(loads: &[f64]) -> f64 {
    assert!(!loads.is_empty(), "imbalance of zero workers is undefined");
    let max = loads.iter().cloned().fold(f64::MIN, f64::max);
    let avg = loads.iter().sum::<f64>() / loads.len() as f64;
    max - avg
}

/// Incremental per-window load accounting for a single source.
///
/// `StageMetrics` only assembles per-window imbalance at end-of-run; the
/// elasticity controller needs the imbalance of the *window that just
/// closed*, inside the source hot loop, without allocating. This is a
/// fixed-capacity counter buffer sized once to the spawned worker universe:
/// `record` is a single index increment, and `finish_window` computes the
/// closing window's imbalance over the active prefix and resets the buffer
/// in place.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerWindowLoads {
    counts: Vec<u64>,
    total: u64,
    max_count: u64,
}

impl PerWindowLoads {
    /// Creates a zeroed buffer for a universe of `workers` workers.
    ///
    /// # Panics
    /// Panics if `workers == 0`.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "per-window loads need at least one worker");
        Self {
            counts: vec![0; workers],
            total: 0,
            max_count: 0,
        }
    }

    /// Records one message routed to `worker` in the current window.
    #[inline]
    pub fn record(&mut self, worker: usize) {
        let c = self.counts[worker] + 1;
        self.counts[worker] = c;
        self.total += 1;
        if c > self.max_count {
            self.max_count = c;
        }
    }

    /// Messages recorded in the current window so far.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The largest per-worker count in the current window so far.
    #[inline]
    pub fn max_count(&self) -> u64 {
        self.max_count
    }

    /// The raw per-worker counts of the current window (full universe).
    #[inline]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Closes the current window: returns its imbalance evaluated over the
    /// first `active` workers and resets the buffer for the next window.
    /// Zero-allocation: the buffer is `fill(0)` in place.
    ///
    /// # Panics
    /// Panics if `active` is zero or exceeds the worker universe.
    pub fn finish_window(&mut self, active: usize) -> f64 {
        assert!(
            active > 0 && active <= self.counts.len(),
            "active worker count {active} out of range"
        );
        debug_assert!(
            self.counts[active..].iter().all(|&c| c == 0),
            "window routed messages beyond its {active} active workers"
        );
        let imb = imbalance(&self.counts[..active]);
        self.counts.fill(0);
        self.total = 0;
        self.max_count = 0;
        imb
    }
}

/// Per-phase per-worker load accounting for multi-phase (scenario) runs.
///
/// A scenario changes the active worker set and the workload at phase
/// boundaries, so run-total loads are no longer the unit of analysis: the
/// paper's imbalance metric must be evaluated *per phase over that phase's
/// active workers*. This matrix accumulates counts per `(phase, worker)` and
/// answers both the per-phase and the run-total questions; engine and
/// simulator share it so their per-phase metrics are computed identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseLoadMatrix {
    /// `counts[phase][worker]`, each row sized to the full worker universe.
    counts: Vec<Vec<u64>>,
}

impl PhaseLoadMatrix {
    /// Creates a zeroed matrix for `phases` phases over a universe of
    /// `workers` workers (the *maximum* worker count across phases; phases
    /// that use fewer simply never record the higher indices).
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(phases: usize, workers: usize) -> Self {
        assert!(phases > 0, "phase matrix needs at least one phase");
        assert!(workers > 0, "phase matrix needs at least one worker");
        Self {
            counts: vec![vec![0; workers]; phases],
        }
    }

    /// Number of phases tracked.
    #[inline]
    pub fn phases(&self) -> usize {
        self.counts.len()
    }

    /// Size of the worker universe.
    #[inline]
    pub fn workers(&self) -> usize {
        self.counts[0].len()
    }

    /// Records `n` messages routed to `worker` during `phase`. Saturating:
    /// the engine feeds this from stage reports, which may be a peer's.
    #[inline]
    pub fn add(&mut self, phase: usize, worker: usize, n: u64) {
        let count = &mut self.counts[phase][worker];
        *count = count.saturating_add(n);
    }

    /// The per-worker counts of one phase (full worker universe).
    #[inline]
    pub fn phase_counts(&self, phase: usize) -> &[u64] {
        &self.counts[phase]
    }

    /// Total messages recorded during `phase`.
    pub fn phase_total(&self, phase: usize) -> u64 {
        self.counts[phase]
            .iter()
            .fold(0, |sum, &c| sum.saturating_add(c))
    }

    /// The imbalance of `phase` evaluated over its first `active` workers —
    /// the phase's active worker set. Counts recorded beyond `active` take no
    /// part: they would indicate a routing bug, which whoever routed checks
    /// for (the matrix may be filled from a peer's report, so it cannot).
    ///
    /// # Panics
    /// Panics if `active` is zero or exceeds the worker universe.
    pub fn phase_imbalance(&self, phase: usize, active: usize) -> f64 {
        assert!(
            active > 0 && active <= self.workers(),
            "active worker count {active} out of range"
        );
        imbalance(&self.counts[phase][..active])
    }

    /// Total messages across all phases and workers.
    pub fn total(&self) -> u64 {
        self.counts.iter().flatten().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_count() {
        let mut lv = LoadVector::new(3);
        lv.record(0);
        lv.record(0);
        lv.record(2);
        assert_eq!(lv.count(0), 2);
        assert_eq!(lv.count(1), 0);
        assert_eq!(lv.count(2), 1);
        assert_eq!(lv.total(), 3);
        assert_eq!(lv.counts(), &[2, 0, 1]);
    }

    #[test]
    fn min_load_among_prefers_first_on_ties() {
        let mut lv = LoadVector::new(4);
        lv.record(1);
        // Workers 0, 2, 3 all have zero load; candidate order decides.
        assert_eq!(lv.min_load_among(&[2, 3, 0]), 2);
        assert_eq!(lv.min_load_among(&[0, 2]), 0);
        // A strictly lighter candidate wins regardless of order.
        assert_eq!(lv.min_load_among(&[1, 3]), 3);
    }

    #[test]
    fn min_load_all_scans_every_worker() {
        let mut lv = LoadVector::new(5);
        for w in [0, 0, 1, 1, 2, 3] {
            lv.record(w);
        }
        assert_eq!(lv.min_load_all(), 4);
        lv.record(4);
        lv.record(4);
        assert_eq!(
            lv.min_load_all(),
            2,
            "ties broken toward lowest index among (2,3)"
        );
    }

    #[test]
    fn imbalance_of_perfect_balance_is_zero() {
        assert!(imbalance(&[10, 10, 10, 10]).abs() < 1e-12);
        assert!(
            imbalance(&[0, 0, 0]).abs() < 1e-12,
            "empty load has no imbalance"
        );
        assert_eq!(imbalance(&[]), 0.0, "nor do zero workers");
    }

    #[test]
    fn imbalance_of_fully_skewed_load() {
        // One worker takes everything: I = 1 - 1/n.
        let i = imbalance(&[100, 0, 0, 0]);
        assert!((i - 0.75).abs() < 1e-12);
    }

    #[test]
    fn imbalance_matches_hand_computed_value() {
        // Loads 50, 30, 20 → fractions 0.5, 0.3, 0.2 → max 0.5, avg 1/3.
        let i = imbalance(&[50, 30, 20]);
        assert!((i - (0.5 - 1.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn imbalance_fractions_agrees_with_counts() {
        let counts = [7u64, 3, 5, 1];
        let total: u64 = counts.iter().sum();
        let fractions: Vec<f64> = counts.iter().map(|&c| c as f64 / total as f64).collect();
        assert!((imbalance(&counts) - imbalance_fractions(&fractions)).abs() < 1e-12);
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut lv = LoadVector::new(4);
        for w in [0, 1, 1, 2, 3, 3, 3] {
            lv.record(w);
        }
        let sum: f64 = lv.fractions().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_counts() {
        let mut a = LoadVector::new(3);
        a.record(0);
        a.record(1);
        let mut b = LoadVector::new(3);
        b.record(1);
        b.record(2);
        a.merge(&b);
        assert_eq!(a.counts(), &[1, 2, 1]);
        assert_eq!(a.total(), 4);
    }

    #[test]
    #[should_panic(expected = "mismatched worker counts")]
    fn merge_of_mismatched_sizes_panics() {
        let mut a = LoadVector::new(2);
        let b = LoadVector::new(3);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn min_load_among_empty_candidates_panics() {
        let lv = LoadVector::new(2);
        let _ = lv.min_load_among(&[]);
    }

    #[test]
    fn phase_matrix_accumulates_and_totals() {
        let mut m = PhaseLoadMatrix::new(2, 4);
        m.add(0, 0, 5);
        m.add(0, 1, 5);
        m.add(1, 2, 7);
        m.add(1, 0, 3);
        assert_eq!(m.phases(), 2);
        assert_eq!(m.workers(), 4);
        assert_eq!(m.phase_counts(0), &[5, 5, 0, 0]);
        assert_eq!(m.phase_total(0), 10);
        assert_eq!(m.phase_total(1), 10);
        assert_eq!(m.total(), 20);
    }

    #[test]
    fn phase_imbalance_uses_only_the_active_set() {
        let mut m = PhaseLoadMatrix::new(1, 8);
        // Phase uses 2 active workers, perfectly balanced; the 6 inactive
        // workers must not drag the average down.
        m.add(0, 0, 50);
        m.add(0, 1, 50);
        assert!(m.phase_imbalance(0, 2).abs() < 1e-12);
        // Over the full universe the same counts look very imbalanced.
        assert!(imbalance(m.phase_counts(0)) > 0.3);
    }

    #[test]
    fn phase_imbalance_matches_plain_imbalance_on_active_prefix() {
        let mut m = PhaseLoadMatrix::new(1, 5);
        for (w, n) in [(0, 50), (1, 30), (2, 20)] {
            m.add(0, w, n);
        }
        assert!((m.phase_imbalance(0, 3) - imbalance(&[50, 30, 20])).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn phase_imbalance_rejects_oversized_active_set() {
        let m = PhaseLoadMatrix::new(1, 3);
        let _ = m.phase_imbalance(0, 4);
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn zero_phase_matrix_panics() {
        let _ = PhaseLoadMatrix::new(0, 2);
    }

    #[test]
    fn per_window_loads_match_plain_imbalance_and_reset() {
        let mut w = PerWindowLoads::new(4);
        for slot in [0, 0, 0, 1, 2] {
            w.record(slot);
        }
        assert_eq!(w.total(), 5);
        assert_eq!(w.max_count(), 3);
        let imb = w.finish_window(3);
        assert!((imb - imbalance(&[3, 1, 1])).abs() < 1e-15);
        // Fully reset: the next window starts from zero.
        assert_eq!(w.total(), 0);
        assert_eq!(w.max_count(), 0);
        assert!((w.finish_window(4) - 0.0).abs() < 1e-15, "empty window");
    }

    #[test]
    fn per_window_loads_evaluate_over_active_prefix_only() {
        let mut w = PerWindowLoads::new(8);
        w.record(0);
        w.record(1);
        assert!(w.finish_window(2).abs() < 1e-12, "balanced over 2 active");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn per_window_loads_reject_oversized_active_set() {
        let mut w = PerWindowLoads::new(2);
        let _ = w.finish_window(3);
    }
}
