//! The head-aware partitioners: D-Choices, W-Choices, and Round-Robin head.
//!
//! All three schemes share the same structure (Algorithm 1 in the paper):
//! every message first updates the source-local SpaceSaving summary; keys
//! estimated to be in the head are routed with extra choices, everything
//! else falls back to the standard two-choice (PKG) process.
//!
//! * **D-Choices** — head keys get `d` hash-derived candidates, where `d` is
//!   the output of the `FINDOPTIMALCHOICES` solver (`crate::dchoices`),
//!   re-evaluated when head membership changes or periodically. When the
//!   solver decides no `d < n` suffices, the scheme behaves like W-Choices.
//! * **W-Choices** — head keys may go to *any* worker: the source picks the
//!   globally least-loaded worker according to its local load vector.
//! * **Round-Robin head (RR)** — head keys are spread round-robin over all
//!   workers, ignoring load (same memory cost as W-Choices, load-oblivious).

use std::hash::Hash;

use slb_hash::{FixedHashMap, HashFamily, KeyHash};

use crate::config::{PartitionConfig, SolverMode};
use crate::dchoices::{find_optimal_choices, ChoicesDecision};
use crate::head::{HeadSnapshot, HeadTracker};
use crate::load::LoadVector;
use crate::partitioner::Partitioner;
use crate::pkg::greedy_two;

/// How a head-aware scheme treats keys that belong to the head.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HeadPolicy {
    /// Greedy-d over `d` hash candidates, `d` chosen by the solver.
    DChoices,
    /// Least-loaded worker among all `n`.
    WChoices,
    /// Round-robin over all `n` workers.
    RoundRobin,
}

/// Shared implementation of the three head-aware schemes.
#[derive(Debug, Clone)]
pub struct HeadAwarePartitioner<K: Eq + Hash + Clone> {
    policy: HeadPolicy,
    family: HashFamily,
    loads: LoadVector,
    tracker: HeadTracker<K>,
    epsilon: f64,
    solver_interval: u64,
    /// How `d` is chosen: the internal solver (`Online`), a pinned constant
    /// (`Fixed`), or an external controller via `apply_choices` (`External`).
    solver_mode: SolverMode,
    /// Cached solver decision and the tracker generation / message count it
    /// was computed at.
    cached_decision: ChoicesDecision,
    cached_at_generation: u64,
    cached_at_total: u64,
    /// Round-robin cursor for the RR policy.
    rr_next: usize,
    /// The `d` candidates of a head key on a candidate-cache miss.
    scratch: Vec<usize>,
    /// Memoized `d` hash candidates per head key (D-Choices only). Head
    /// membership is bounded by the sketch capacity, so the map stays small;
    /// entries are pure functions of `(key, d)` and the whole map is dropped
    /// whenever the tracker generation or the solver's `d` changes.
    candidate_cache: FixedHashMap<K, Vec<usize>>,
    cache_generation: u64,
    cache_d: usize,
    cache_capacity: usize,
}

impl<K: KeyHash + Eq + Hash + Clone> HeadAwarePartitioner<K> {
    fn new(policy: HeadPolicy, config: &PartitionConfig) -> Self {
        let theta = config.theta();
        Self {
            policy,
            // The family must be able to serve up to n choices for D-Choices.
            family: HashFamily::new(config.seed, config.workers.max(2), config.workers),
            loads: LoadVector::new(config.workers),
            tracker: HeadTracker::new(config.sketch_capacity, theta),
            epsilon: config.epsilon,
            solver_interval: config.solver_interval,
            solver_mode: config.solver,
            // `Fixed(d)` pins the decision at build time; the other modes
            // start from the fresh default `UseD(2)` (the PKG process).
            cached_decision: match config.solver {
                SolverMode::Fixed(d) => ChoicesDecision::UseD(d),
                SolverMode::Online | SolverMode::External => ChoicesDecision::UseD(2),
            },
            cached_at_generation: 0,
            cached_at_total: 0,
            rr_next: (config.seed as usize) % config.workers,
            scratch: Vec::with_capacity(config.workers),
            candidate_cache: FixedHashMap::default(),
            cache_generation: 0,
            cache_d: 0,
            cache_capacity: config.sketch_capacity,
        }
    }

    /// Creates a D-Choices partitioner.
    pub fn d_choices(config: &PartitionConfig) -> Self {
        Self::new(HeadPolicy::DChoices, config)
    }

    /// Creates a W-Choices partitioner.
    pub fn w_choices(config: &PartitionConfig) -> Self {
        Self::new(HeadPolicy::WChoices, config)
    }

    /// Creates a Round-Robin-head partitioner.
    pub fn round_robin(config: &PartitionConfig) -> Self {
        Self::new(HeadPolicy::RoundRobin, config)
    }

    /// The head tracker (exposed for experiments and audits).
    pub fn head(&self) -> &HeadTracker<K> {
        &self.tracker
    }

    /// The current number of choices used for head keys (`d` for D-Choices,
    /// `n` for the other policies). Re-runs the solver if its cache is stale.
    pub fn head_choices(&mut self) -> usize {
        match self.policy {
            HeadPolicy::DChoices => {
                self.refresh_solver_if_stale();
                self.cached_decision.effective_d(self.loads.workers())
            }
            HeadPolicy::WChoices | HeadPolicy::RoundRobin => self.loads.workers(),
        }
    }

    /// The most recent solver decision (D-Choices only; the other policies
    /// always report `SwitchToW` semantics).
    pub fn solver_decision(&self) -> ChoicesDecision {
        match self.policy {
            HeadPolicy::DChoices => self.cached_decision,
            _ => ChoicesDecision::SwitchToW,
        }
    }

    fn refresh_solver_if_stale(&mut self) {
        // Only the online mode ever re-solves internally: a pinned `d` never
        // moves, and under external control only `apply_choices` may move it.
        if self.solver_mode != SolverMode::Online {
            return;
        }
        let generation = self.tracker.generation();
        let total = self.tracker.total();
        let stale = generation != self.cached_at_generation
            || total.saturating_sub(self.cached_at_total) >= self.solver_interval;
        if !stale {
            return;
        }
        let snapshot = self.tracker.snapshot();
        self.cached_decision = find_optimal_choices(
            &snapshot.frequencies,
            snapshot.tail_mass(),
            self.loads.workers(),
            self.epsilon,
        );
        self.cached_at_generation = generation;
        self.cached_at_total = total;
    }

    fn route_head(&mut self, key: &K) -> usize {
        match self.policy {
            HeadPolicy::WChoices => self.loads.min_load_all(),
            HeadPolicy::RoundRobin => {
                let w = self.rr_next;
                self.rr_next += 1;
                if self.rr_next == self.loads.workers() {
                    self.rr_next = 0;
                }
                w
            }
            HeadPolicy::DChoices => {
                self.refresh_solver_if_stale();
                match self.cached_decision {
                    ChoicesDecision::SwitchToW => self.loads.min_load_all(),
                    ChoicesDecision::UseD(d) => {
                        let d = d.clamp(2, self.family.len());
                        self.least_loaded_head_candidate(key, d)
                    }
                }
            }
        }
    }

    /// Least-loaded worker among the key's `d` hash candidates, served from
    /// the head-key candidate cache when possible.
    ///
    /// The candidates are a pure function of `(key, d)`, so a cache hit is
    /// always exact and entries can never go *wrong* — invalidation is
    /// purely a size/liveness policy. The whole map is dropped when `d`
    /// moves (every entry really is stale then) and, more coarsely, on any
    /// tracker generation bump: that discards entries for keys still in the
    /// head, costing those keys one re-hash + re-insert, but it keeps keys
    /// that left the head from lingering without per-entry bookkeeping.
    /// Size is additionally bounded by the sketch capacity — the same bound
    /// the head itself has.
    fn least_loaded_head_candidate(&mut self, key: &K, d: usize) -> usize {
        let generation = self.tracker.generation();
        if self.cache_generation != generation || self.cache_d != d {
            self.candidate_cache.clear();
            self.cache_generation = generation;
            self.cache_d = d;
        }
        if let Some(candidates) = self.candidate_cache.get(key) {
            return self.loads.min_load_among(candidates);
        }
        self.family.choices_into(key, d, &mut self.scratch);
        if self.candidate_cache.len() < self.cache_capacity {
            self.candidate_cache
                .insert(key.clone(), self.scratch.clone());
        }
        self.loads.min_load_among(&self.scratch)
    }

    fn route_tail(&self, key: &K) -> usize {
        greedy_two(&self.family, &self.loads, key)
    }
}

impl<K: KeyHash + Eq + Hash + Clone + 'static> Partitioner<K> for HeadAwarePartitioner<K> {
    fn route(&mut self, key: &K) -> usize {
        let in_head = self.tracker.observe(key);
        let worker = if in_head {
            self.route_head(key)
        } else {
            self.route_tail(key)
        };
        self.loads.record(worker);
        worker
    }

    fn local_loads(&self) -> &LoadVector {
        &self.loads
    }

    fn current_choices(&mut self, key: &K) -> usize {
        if self.tracker.is_head(key) {
            self.head_choices()
        } else {
            2
        }
    }

    fn clone_box(&self) -> Box<dyn Partitioner<K>> {
        Box::new(self.clone())
    }

    fn head_snapshot(&self) -> Option<HeadSnapshot<K>> {
        // Only D-Choices under external control has a head the controller
        // can retune: W-C/RR ignore `d` for head routing, and in the other
        // modes the internal solver (or the pin) is the authority.
        match (self.policy, self.solver_mode) {
            (HeadPolicy::DChoices, SolverMode::External) => Some(self.tracker.snapshot()),
            _ => None,
        }
    }

    fn apply_choices(&mut self, decision: ChoicesDecision) {
        if self.policy != HeadPolicy::DChoices || self.solver_mode != SolverMode::External {
            return;
        }
        self.cached_decision = decision;
        // Mark the cache fresh at the current tracker state; the candidate
        // cache re-keys itself on the next head route if `d` moved.
        self.cached_at_generation = self.tracker.generation();
        self.cached_at_total = self.tracker.total();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::imbalance;
    use crate::pkg::PartialKeyGrouping;

    /// A deterministic skewed stream: one very hot key plus a uniform tail.
    fn skewed_stream(messages: usize, hot_share: f64, tail_keys: u64) -> Vec<u64> {
        let mut out = Vec::with_capacity(messages);
        let mut state = 0x1234_5678_9abc_def0u64;
        for i in 0..messages {
            let hot = (i as f64 / messages as f64).fract() < hot_share
                && (i % 1000) < (hot_share * 1000.0) as usize;
            if hot {
                out.push(0);
            } else {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                out.push(1 + state % tail_keys);
            }
        }
        out
    }

    fn config(n: usize, seed: u64) -> PartitionConfig {
        PartitionConfig::new(n)
            .with_seed(seed)
            .with_solver_interval(100)
    }

    #[test]
    fn w_choices_beats_pkg_on_a_very_hot_key_at_scale() {
        // A key with ~40% of the stream on 50 workers violates PKG's 2/n
        // assumption massively; W-Choices must balance far better.
        let n = 50;
        let stream = skewed_stream(60_000, 0.4, 5_000);
        let mut wc = HeadAwarePartitioner::<u64>::w_choices(&config(n, 1));
        let mut pkg = PartialKeyGrouping::new(&config(n, 1));
        for k in &stream {
            wc.route(k);
            pkg.route(k);
        }
        let wc_imb = imbalance(Partitioner::<u64>::local_loads(&wc).counts());
        let pkg_imb = imbalance(Partitioner::<u64>::local_loads(&pkg).counts());
        assert!(
            wc_imb < pkg_imb / 4.0,
            "W-C imbalance {wc_imb} not clearly better than PKG {pkg_imb}"
        );
    }

    #[test]
    fn d_choices_beats_pkg_and_uses_fewer_than_all_workers() {
        let n = 50;
        let stream = skewed_stream(60_000, 0.3, 5_000);
        let mut dc = HeadAwarePartitioner::<u64>::d_choices(&config(n, 2));
        let mut pkg = PartialKeyGrouping::new(&config(n, 2));
        for k in &stream {
            dc.route(k);
            pkg.route(k);
        }
        let dc_imb = imbalance(Partitioner::<u64>::local_loads(&dc).counts());
        let pkg_imb = imbalance(Partitioner::<u64>::local_loads(&pkg).counts());
        assert!(dc_imb < pkg_imb, "D-C {dc_imb} vs PKG {pkg_imb}");
        let d = dc.head_choices();
        assert!(d >= 2, "head must have at least two choices");
        // With a 30% hot key, d must exceed 2 (0.3 > 2/50) on 50 workers.
        assert!(
            d > 2,
            "d = {d} should exceed 2 for a 30% hot key on 50 workers"
        );
    }

    #[test]
    fn tail_keys_still_use_at_most_two_workers_under_d_choices() {
        let n = 20;
        let stream = skewed_stream(40_000, 0.3, 200);
        let mut dc = HeadAwarePartitioner::<u64>::d_choices(&config(n, 3));
        let mut destinations: std::collections::HashMap<u64, std::collections::HashSet<usize>> =
            std::collections::HashMap::new();
        for k in &stream {
            let w = dc.route(k);
            destinations.entry(*k).or_default().insert(w);
        }
        // The hot key 0 is allowed more than two workers. Tail keys must stay
        // within two workers almost everywhere; a key may briefly be
        // classified as head right after the tracker warm-up (the estimates
        // are still coarse then), so allow a small number of exceptions.
        let head_snapshot = dc.head().snapshot();
        let tail_keys: Vec<_> = destinations
            .keys()
            .filter(|k| !head_snapshot.keys.contains(k))
            .collect();
        let overspread = tail_keys
            .iter()
            .filter(|k| destinations[**k].len() > 2)
            .count();
        assert!(
            overspread * 20 <= tail_keys.len(),
            "{overspread} of {} tail keys used more than two workers",
            tail_keys.len()
        );
        for key in &tail_keys {
            assert!(
                destinations[*key].len() <= 4,
                "tail key {key} reached {} workers",
                destinations[*key].len()
            );
        }
        assert!(
            destinations[&0].len() > 2,
            "hot key should use more than two workers"
        );
    }

    #[test]
    fn round_robin_spreads_head_evenly_but_ignores_load() {
        let n = 10;
        let cfg = config(n, 0);
        let mut rr = HeadAwarePartitioner::<u64>::round_robin(&cfg);
        // Warm up the tracker so key 0 is in the head, then observe where the
        // hot key goes.
        for _ in 0..1_000 {
            rr.route(&0);
        }
        let mut seen = std::collections::HashSet::new();
        for _ in 0..n {
            seen.insert(rr.route(&0));
        }
        assert_eq!(
            seen.len(),
            n,
            "RR must cycle through every worker for the head"
        );
    }

    #[test]
    fn w_choices_uses_every_worker_for_the_head() {
        let n = 8;
        let mut wc = HeadAwarePartitioner::<u64>::w_choices(&config(n, 5));
        for _ in 0..5_000 {
            wc.route(&42);
        }
        let loads = Partitioner::<u64>::local_loads(&wc);
        for w in 0..n {
            assert!(
                loads.count(w) > 0,
                "worker {w} never used for a 100%-hot key"
            );
        }
        assert!(imbalance(loads.counts()) < 0.01);
    }

    #[test]
    fn head_choices_matches_policy() {
        let cfg = config(30, 9);
        let mut dc = HeadAwarePartitioner::<u64>::d_choices(&cfg);
        let mut wc = HeadAwarePartitioner::<u64>::w_choices(&cfg);
        let mut rr = HeadAwarePartitioner::<u64>::round_robin(&cfg);
        assert_eq!(wc.head_choices(), 30);
        assert_eq!(rr.head_choices(), 30);
        assert!(dc.head_choices() >= 2);
    }

    #[test]
    fn current_choices_distinguishes_head_from_tail() {
        let cfg = config(40, 4);
        let mut dc = HeadAwarePartitioner::<u64>::d_choices(&cfg);
        // Make key 7 hot (60% of stream).
        let mut state = 3u64;
        for i in 0..20_000u64 {
            let k = if i % 10 < 6 {
                7
            } else {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                100 + state % 1_000
            };
            dc.route(&k);
        }
        assert!(
            dc.current_choices(&7) > 2,
            "hot key should have extra choices"
        );
        assert_eq!(dc.current_choices(&123_456_789), 2, "unknown key is tail");
    }

    #[test]
    fn deterministic_given_seed_and_stream() {
        let stream = skewed_stream(20_000, 0.25, 300);
        let mut a = HeadAwarePartitioner::<u64>::d_choices(&config(25, 77));
        let mut b = HeadAwarePartitioner::<u64>::d_choices(&config(25, 77));
        for k in &stream {
            assert_eq!(a.route(k), b.route(k));
        }
    }

    #[test]
    fn candidate_cache_entries_match_fresh_hash_evaluation() {
        // After a skewed run the cache must hold only exact candidate sets:
        // every entry equal to re-evaluating the family at the cached d, and
        // never more entries than the sketch capacity bound.
        let stream = skewed_stream(40_000, 0.35, 500);
        let mut dc = HeadAwarePartitioner::<u64>::d_choices(&config(40, 11));
        for k in &stream {
            dc.route(k);
        }
        assert!(
            !dc.candidate_cache.is_empty(),
            "a 35%-hot stream must produce head-key cache entries"
        );
        assert!(dc.candidate_cache.len() <= dc.cache_capacity);
        for (key, cached) in &dc.candidate_cache {
            assert_eq!(cached, &dc.family.choices(key, dc.cache_d), "key {key}");
        }
    }

    #[test]
    fn fixed_mode_pins_d_regardless_of_skew() {
        let cfg = config(50, 4).with_solver(SolverMode::Fixed(3));
        let mut dc = HeadAwarePartitioner::<u64>::d_choices(&cfg);
        for k in &skewed_stream(40_000, 0.4, 500) {
            dc.route(k);
        }
        assert_eq!(
            dc.head_choices(),
            3,
            "a 40% hot key must not move a pinned d"
        );
        assert_eq!(dc.solver_decision(), ChoicesDecision::UseD(3));
    }

    #[test]
    fn external_mode_moves_only_via_apply_choices() {
        let cfg = config(50, 4).with_solver(SolverMode::External);
        let mut dc = HeadAwarePartitioner::<u64>::d_choices(&cfg);
        for k in &skewed_stream(40_000, 0.4, 500) {
            dc.route(k);
        }
        assert_eq!(dc.head_choices(), 2, "no internal solve under External");
        let snapshot = Partitioner::<u64>::head_snapshot(&dc).expect("external D-C has a head");
        assert!(
            snapshot.keys.contains(&0),
            "hot key must be in the head snapshot"
        );
        dc.apply_choices(ChoicesDecision::UseD(7));
        assert_eq!(dc.head_choices(), 7);
        // Routing keeps working after the retune and the cache re-keys.
        for k in &skewed_stream(5_000, 0.4, 500) {
            dc.route(k);
        }
        assert_eq!(dc.head_choices(), 7, "still externally pinned");
    }

    #[test]
    fn head_snapshot_is_none_outside_external_d_choices() {
        let stream = skewed_stream(20_000, 0.4, 300);
        let online = {
            let mut p = HeadAwarePartitioner::<u64>::d_choices(&config(10, 1));
            for k in &stream {
                p.route(k);
            }
            Partitioner::<u64>::head_snapshot(&p).is_none()
        };
        assert!(online, "Online D-C exposes no snapshot to a controller");
        let cfg = config(10, 1).with_solver(SolverMode::External);
        let mut wc = HeadAwarePartitioner::<u64>::w_choices(&cfg);
        for k in &stream {
            wc.route(k);
        }
        assert!(Partitioner::<u64>::head_snapshot(&wc).is_none());
        // And apply_choices is a no-op there.
        let before = wc.head_choices();
        wc.apply_choices(ChoicesDecision::UseD(9));
        assert_eq!(wc.head_choices(), before);
    }

    #[test]
    fn external_and_online_route_identically_before_any_retune() {
        // Until the first apply_choices, External behaves exactly like the
        // fresh default (UseD(2)) — the PKG process for every key.
        let stream = skewed_stream(10_000, 0.3, 200);
        let mut ext = HeadAwarePartitioner::<u64>::d_choices(
            &config(20, 9).with_solver(SolverMode::External),
        );
        let mut pinned = HeadAwarePartitioner::<u64>::d_choices(
            &config(20, 9).with_solver(SolverMode::Fixed(2)),
        );
        for k in &stream {
            assert_eq!(ext.route(k), pinned.route(k));
        }
    }

    #[test]
    fn cache_is_dropped_when_d_changes() {
        let stream = skewed_stream(30_000, 0.3, 400);
        let mut dc = HeadAwarePartitioner::<u64>::d_choices(&config(50, 3));
        for k in &stream {
            dc.route(k);
        }
        assert!(
            dc.candidate_cache.contains_key(&0),
            "hot key must be cached after a 30%-hot run"
        );
        // Force a different d: the cache must be rebuilt at the new d on the
        // next head route.
        let old_d = dc.cache_d;
        dc.cached_decision = ChoicesDecision::UseD(old_d + 1);
        dc.cached_at_generation = dc.tracker.generation();
        dc.cached_at_total = dc.tracker.total();
        dc.route(&0);
        assert_eq!(dc.cache_d, (old_d + 1).clamp(2, dc.family.len()));
        for (key, cached) in &dc.candidate_cache {
            assert_eq!(cached, &dc.family.choices(key, dc.cache_d), "key {key}");
        }
    }
}
