//! Partial Key Grouping (PKG): the power of both choices.
//!
//! PKG (Nasir et al., ICDE 2015) hashes every key with two independent
//! functions and sends the message to the less loaded of the two candidate
//! workers, according to the source's local load vector. Keys therefore
//! split across at most two workers, which bounds the state-replication and
//! aggregation overhead while adapting dynamically to skew — as long as no
//! single key exceeds the combined capacity of two workers (`p1 ≤ 2/n`),
//! which is exactly the assumption that breaks at large scale and motivates
//! D-Choices / W-Choices.

use std::hash::Hash;

use slb_hash::{HashFamily, KeyHash};

use crate::config::PartitionConfig;
use crate::load::LoadVector;
use crate::partitioner::Partitioner;

/// The Greedy-2 (PKG) partitioner.
#[derive(Debug, Clone)]
pub struct PartialKeyGrouping {
    family: HashFamily,
    loads: LoadVector,
}

impl PartialKeyGrouping {
    /// Creates a PKG partitioner from the configuration.
    pub fn new(config: &PartitionConfig) -> Self {
        Self {
            family: HashFamily::new(config.seed, 2, config.workers),
            loads: LoadVector::new(config.workers),
        }
    }

    /// The two candidate workers for `key` (may coincide on a hash
    /// collision, in which case the key effectively has one choice).
    pub fn candidates<K: KeyHash + ?Sized>(&self, key: &K) -> (usize, usize) {
        (self.family.choice(key, 0), self.family.choice(key, 1))
    }
}

/// The Greedy-2 decision for one key: one digest, two derived candidates,
/// less loaded wins (ties go to the first candidate, as in
/// `min_load_among`). PKG routes every key this way and the head-aware
/// schemes route their tail with it.
#[inline]
pub(crate) fn greedy_two<K: KeyHash + ?Sized>(
    family: &HashFamily,
    loads: &LoadVector,
    key: &K,
) -> usize {
    let digest = key.digest();
    let a = family.choice_from_digest(digest, 0);
    let b = family.choice_from_digest(digest, 1);
    if loads.count(b) < loads.count(a) {
        b
    } else {
        a
    }
}

impl<K: KeyHash + Eq + Hash + Clone + 'static> Partitioner<K> for PartialKeyGrouping {
    fn route(&mut self, key: &K) -> usize {
        let worker = greedy_two(&self.family, &self.loads, key);
        self.loads.record(worker);
        worker
    }

    fn local_loads(&self) -> &LoadVector {
        &self.loads
    }

    fn current_choices(&mut self, _key: &K) -> usize {
        2
    }

    fn clone_box(&self) -> Box<dyn Partitioner<K>> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::imbalance;

    fn config(n: usize, seed: u64) -> PartitionConfig {
        PartitionConfig::new(n).with_seed(seed)
    }

    #[test]
    fn every_key_uses_at_most_two_workers() {
        let mut pkg = PartialKeyGrouping::new(&config(20, 3));
        let mut destinations: std::collections::HashMap<u64, std::collections::HashSet<usize>> =
            std::collections::HashMap::new();
        let mut state = 5u64;
        for _ in 0..50_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let key = state % 100;
            let w = pkg.route(&key);
            destinations.entry(key).or_default().insert(w);
        }
        for (key, workers) in destinations {
            assert!(
                workers.len() <= 2,
                "key {key} reached {} workers",
                workers.len()
            );
        }
    }

    #[test]
    fn route_picks_the_less_loaded_candidate() {
        let mut pkg = PartialKeyGrouping::new(&config(10, 1));
        let (a, b) = pkg.candidates(&"skewed");
        if a == b {
            return; // hash collision: nothing to distinguish
        }
        // Pre-load candidate `a` by routing unrelated traffic to it directly.
        for _ in 0..100 {
            pkg.loads.record(a);
        }
        let w = pkg.route(&"skewed");
        assert_eq!(w, b, "must pick the less loaded of the two candidates");
    }

    #[test]
    fn balances_moderate_skew_much_better_than_key_grouping() {
        use crate::partitioner::KeyGrouping;
        let n = 10;
        let mut pkg = PartialKeyGrouping::new(&config(n, 9));
        let mut kg = KeyGrouping::new(&config(n, 9));
        // Zipf-ish stream: key i appears proportionally to 1/(i+1).
        let mut keys = Vec::new();
        for i in 0u64..50 {
            for _ in 0..(500 / (i + 1)) {
                keys.push(i);
            }
        }
        // Interleave deterministically.
        for round in 0..20 {
            for (j, &k) in keys.iter().enumerate() {
                if (j + round) % 20 == 0 {
                    pkg.route(&k);
                    kg.route(&k);
                }
            }
        }
        let pkg_imb = imbalance(Partitioner::<u64>::local_loads(&pkg).counts());
        let kg_imb = imbalance(Partitioner::<u64>::local_loads(&kg).counts());
        assert!(
            pkg_imb < kg_imb,
            "PKG imbalance {pkg_imb} should beat KG imbalance {kg_imb}"
        );
    }

    #[test]
    fn single_hot_key_splits_across_exactly_its_two_candidates() {
        let mut pkg = PartialKeyGrouping::new(&config(8, 4));
        let (a, b) = pkg.candidates(&"viral");
        for _ in 0..1_000 {
            let w = pkg.route(&"viral");
            assert!(w == a || w == b);
        }
        let loads = Partitioner::<&str>::local_loads(&pkg);
        if a != b {
            // The greedy process keeps the two candidates nearly even.
            let diff = loads.count(a).abs_diff(loads.count(b));
            assert!(diff <= 1, "hot key spread unevenly: {diff}");
        }
    }

    #[test]
    fn deterministic_given_seed_and_stream() {
        let mut a = PartialKeyGrouping::new(&config(16, 11));
        let mut b = PartialKeyGrouping::new(&config(16, 11));
        for i in 0..10_000u64 {
            assert_eq!(a.route(&(i % 37)), b.route(&(i % 37)));
        }
    }

    #[test]
    fn choices_and_width() {
        let mut pkg = PartialKeyGrouping::new(&config(5, 0));
        assert_eq!(Partitioner::<u64>::current_choices(&mut pkg, &1), 2);
        assert_eq!(Partitioner::<u64>::local_loads(&pkg).workers(), 5);
    }
}
