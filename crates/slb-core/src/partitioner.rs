//! The `Partitioner` trait and the classic grouping schemes.
//!
//! A partitioner is the per-source routing component: it sees each outgoing
//! message's key and decides which downstream worker receives it, using only
//! local information (its own hash functions, load vector, and head
//! tracker). This module defines the trait plus the two classic baselines:
//!
//! * [`KeyGrouping`] — hash the key once; all messages with the same key go
//!   to the same worker (Storm's "fields grouping").
//! * [`ShuffleGrouping`] — round-robin across workers, ignoring the key
//!   (ideal balance, maximal state replication for stateful operators).
//!
//! The power-of-choices schemes (PKG, D-Choices, W-Choices, Round-Robin
//! head) live in sibling modules; [`crate::build_partitioner`] constructs any
//! of them from a [`crate::PartitionConfig`]. It is also the one way to
//! regenerate a partitioner: a scheme keeps no routing table, so a new worker
//! count (a phase boundary, a controller decision, an exclusion) is a fresh
//! build, and routing from there is exactly a new instance's.

use std::hash::Hash;

use slb_hash::{HashFamily, KeyHash};

use crate::config::PartitionConfig;
use crate::dchoices::ChoicesDecision;
use crate::head::HeadSnapshot;
use crate::load::LoadVector;

/// A stream partitioner: maps each observed key to a destination worker.
///
/// Implementations are stateful (they learn the load distribution and, for
/// the head-aware schemes, the hot keys) and deterministic given their
/// configuration seed and input sequence.
pub trait Partitioner<K: KeyHash + Eq + Hash + Clone> {
    /// Routes a message with the given key, updating internal state.
    fn route(&mut self, key: &K) -> usize;

    /// Routes a batch of messages, appending one worker index per key into
    /// `out` (cleared first), in key order.
    ///
    /// Semantically identical to calling [`Self::route`] once per key — the
    /// worker sequence and all internal state updates are bit-for-bit the
    /// same — but dispatched once per batch instead of once per tuple: a
    /// boxed partitioner pays one virtual call per batch, and since a
    /// provided method is compiled once per implementation, the `route` call
    /// inside the loop is static and inlines. No scheme overrides it.
    fn route_batch(&mut self, keys: &[K], out: &mut Vec<usize>) {
        out.clear();
        out.reserve(keys.len());
        for key in keys {
            out.push(self.route(key));
        }
    }

    /// The scheme's local estimate of per-worker load (messages sent by this
    /// source to each worker). Used by experiments to audit behaviour; the
    /// authoritative global load is tracked by the simulator.
    fn local_loads(&self) -> &LoadVector;

    /// The maximum number of candidate workers this scheme would currently
    /// use for the given key (1 for key grouping, 2 for PKG tail keys, `d`
    /// or `n` for head keys). Used by the memory-overhead accounting.
    fn current_choices(&mut self, key: &K) -> usize;

    /// Clones the partitioner behind the trait object, preserving all
    /// learned state (load vectors, heavy-hitter summaries, cursors).
    ///
    /// Recovery replays a window from a snapshot of the *routing state* the
    /// source held at the window boundary; the clone must therefore route
    /// every subsequent key bit-for-bit identically to the original.
    fn clone_box(&self) -> Box<dyn Partitioner<K>>;

    /// A snapshot of the scheme's current head estimate, for schemes whose
    /// head routing depends on a solvable `d` — i.e. D-Choices under
    /// [`crate::SolverMode::External`]. Everything else returns `None`
    /// (default), which tells the elasticity controller there is nothing to
    /// retune for this scheme.
    fn head_snapshot(&self) -> Option<HeadSnapshot<K>> {
        None
    }

    /// Installs an externally computed solver decision (the elasticity
    /// controller's retune step). A no-op for schemes without a tunable `d`;
    /// D-Choices under [`crate::SolverMode::External`] adopts the decision
    /// for all subsequent head routing.
    fn apply_choices(&mut self, _decision: ChoicesDecision) {}
}

impl<K: KeyHash + Eq + Hash + Clone + 'static> Clone for Box<dyn Partitioner<K>> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Key grouping: a single hash function decides the worker for each key.
#[derive(Debug, Clone)]
pub struct KeyGrouping {
    family: HashFamily,
    loads: LoadVector,
}

impl KeyGrouping {
    /// Creates a key-grouping partitioner from the configuration.
    pub fn new(config: &PartitionConfig) -> Self {
        Self {
            family: HashFamily::new(config.seed, 1, config.workers),
            loads: LoadVector::new(config.workers),
        }
    }
}

impl<K: KeyHash + Eq + Hash + Clone + 'static> Partitioner<K> for KeyGrouping {
    fn route(&mut self, key: &K) -> usize {
        let worker = self.family.choice(key, 0);
        self.loads.record(worker);
        worker
    }

    fn local_loads(&self) -> &LoadVector {
        &self.loads
    }

    fn current_choices(&mut self, _key: &K) -> usize {
        1
    }

    fn clone_box(&self) -> Box<dyn Partitioner<K>> {
        Box::new(self.clone())
    }
}

/// Shuffle grouping: round-robin over the workers, ignoring keys.
#[derive(Debug, Clone)]
pub struct ShuffleGrouping {
    workers: usize,
    next: usize,
    loads: LoadVector,
}

impl ShuffleGrouping {
    /// Creates a shuffle-grouping partitioner from the configuration.
    ///
    /// The starting offset is derived from the seed so that multiple sources
    /// do not send their first messages to the same worker in lock-step.
    pub fn new(config: &PartitionConfig) -> Self {
        Self {
            workers: config.workers,
            next: (config.seed as usize) % config.workers,
            loads: LoadVector::new(config.workers),
        }
    }
}

impl<K: KeyHash + Eq + Hash + Clone + 'static> Partitioner<K> for ShuffleGrouping {
    fn route(&mut self, _key: &K) -> usize {
        let worker = self.next;
        // Compare-and-reset instead of `(next + 1) % workers`: the branch is
        // almost always not-taken and predicts perfectly, where the modulo
        // costs a hardware divide on every tuple.
        self.next += 1;
        if self.next == self.workers {
            self.next = 0;
        }
        self.loads.record(worker);
        worker
    }

    fn local_loads(&self) -> &LoadVector {
        &self.loads
    }

    fn current_choices(&mut self, _key: &K) -> usize {
        self.workers
    }

    fn clone_box(&self) -> Box<dyn Partitioner<K>> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(n: usize) -> PartitionConfig {
        PartitionConfig::new(n).with_seed(7)
    }

    #[test]
    fn key_grouping_is_sticky_per_key() {
        let mut kg = KeyGrouping::new(&config(10));
        let first = kg.route(&"alpha");
        for _ in 0..100 {
            assert_eq!(kg.route(&"alpha"), first);
        }
        assert!(first < 10);
    }

    #[test]
    fn key_grouping_spreads_distinct_keys() {
        let mut kg = KeyGrouping::new(&config(8));
        let mut used = std::collections::HashSet::new();
        for i in 0..200u64 {
            used.insert(kg.route(&i));
        }
        assert!(used.len() >= 6, "only {} workers used", used.len());
    }

    #[test]
    fn key_grouping_concentrates_skew_on_one_worker() {
        // The defining weakness of KG: a hot key loads a single worker.
        let mut kg = KeyGrouping::new(&config(5));
        for _ in 0..1_000 {
            kg.route(&"hot");
        }
        let loads = Partitioner::<&str>::local_loads(&kg);
        assert_eq!(*loads.counts().iter().max().unwrap(), 1_000);
        assert!(loads.imbalance() > 0.7);
    }

    #[test]
    fn shuffle_grouping_balances_perfectly() {
        let mut sg = ShuffleGrouping::new(&config(4));
        for _ in 0..400 {
            sg.route(&"hot-key-does-not-matter");
        }
        let loads = Partitioner::<&str>::local_loads(&sg);
        assert_eq!(loads.counts(), &[100, 100, 100, 100]);
        assert!(loads.imbalance().abs() < 1e-12);
    }

    #[test]
    fn shuffle_grouping_round_robin_order() {
        let cfg = PartitionConfig::new(3).with_seed(0);
        let mut sg = ShuffleGrouping::new(&cfg);
        let sequence: Vec<usize> = (0..6).map(|_| sg.route(&0u64)).collect();
        assert_eq!(sequence, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn shuffle_grouping_seed_offsets_start() {
        let cfg = PartitionConfig::new(4).with_seed(2);
        let mut sg = ShuffleGrouping::new(&cfg);
        assert_eq!(sg.route(&0u64), 2);
    }

    #[test]
    fn choices_accounting() {
        let mut kg = KeyGrouping::new(&config(10));
        let mut sg = ShuffleGrouping::new(&config(10));
        assert_eq!(Partitioner::<u64>::current_choices(&mut kg, &1), 1);
        assert_eq!(Partitioner::<u64>::current_choices(&mut sg, &1), 10);
    }

    #[test]
    fn key_grouping_deterministic_across_instances() {
        let mut a = KeyGrouping::new(&config(16));
        let mut b = KeyGrouping::new(&config(16));
        for i in 0..100u64 {
            assert_eq!(a.route(&i), b.route(&i));
        }
    }
}
