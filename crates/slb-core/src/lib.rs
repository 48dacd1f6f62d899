//! # slb-core — stream grouping schemes for skewed workloads
//!
//! This crate implements the core contribution of *"When Two Choices Are not
//! Enough: Balancing at Scale in Distributed Stream Processing"* (Nasir et
//! al., ICDE 2016): load-balanced stream partitioning that remains effective
//! on large deployments and under extreme key skew.
//!
//! ## The schemes
//!
//! | Scheme | Head keys | Tail keys | Memory per key |
//! |--------|-----------|-----------|----------------|
//! | [`KeyGrouping`] (KG) | 1 worker | 1 worker | 1 |
//! | [`ShuffleGrouping`] (SG) | all workers | all workers | n |
//! | [`PartialKeyGrouping`] (PKG) | 2 workers | 2 workers | ≤ 2 |
//! | D-Choices ([`HeadAwarePartitioner::d_choices`]) | `d` workers (solver) | 2 workers | ≤ d / ≤ 2 |
//! | W-Choices ([`HeadAwarePartitioner::w_choices`]) | all workers | 2 workers | ≤ n / ≤ 2 |
//! | Round-Robin head ([`HeadAwarePartitioner::round_robin`]) | all workers (load-oblivious) | 2 workers | ≤ n / ≤ 2 |
//!
//! The head of the key distribution is detected online with a SpaceSaving
//! summary ([`head::HeadTracker`]), and the number of choices `d` used by
//! D-Choices is computed by the solver in [`dchoices`] from the head
//! frequencies, the number of workers and the imbalance tolerance ε.
//!
//! ## Quick example
//!
//! ```rust
//! use slb_core::{build_partitioner, PartitionConfig, PartitionerKind};
//!
//! let config = PartitionConfig::new(50).with_seed(7);
//! let mut router = build_partitioner::<u64>(PartitionerKind::DChoices, &config);
//! let worker = router.route(&12345u64);
//! assert!(worker < 50);
//! ```

pub mod aggregate;
pub mod checkpoint;
pub mod config;
pub mod controller;
pub mod dchoices;
pub mod durable;
pub mod head;
pub mod head_schemes;
pub mod load;
pub mod memory;
pub mod partitioner;
pub mod pkg;
pub mod wire;

pub use aggregate::{shard_of, CountAggregate, WindowAggregate, SHARD_SEED};
pub use checkpoint::{
    deltas_outweigh_base, merge_ascending, CheckpointDelta, CheckpointView, OpenWindowState,
    WorkerCheckpoint,
};
pub use config::{HeadThreshold, PartitionConfig, SolverMode};
pub use controller::{
    decode_decision, encode_decision, ControllerAction, ControllerConfig, ControllerEvent,
    ControllerMetrics, ElasticityController,
};
pub use dchoices::{
    constraints_hold, d_fraction, expected_worker_set_size, find_optimal_choices, ChoicesDecision,
};
pub use durable::{
    crc32, decode_checkpoint_log, encode_checkpoint_file, CheckpointFileError, CheckpointLog,
    DurableCheckpointStore, CHECKPOINT_MAGIC,
};
pub use head::{HeadSnapshot, HeadTracker};
pub use head_schemes::HeadAwarePartitioner;
pub use load::{imbalance, imbalance_fractions, LoadVector, PerWindowLoads, PhaseLoadMatrix};
pub use memory::{estimated_replicas, relative_overhead_pct, MemoryScheme};
pub use partitioner::{KeyGrouping, Partitioner, ShuffleGrouping};
pub use pkg::PartialKeyGrouping;
pub use wire::{PartialDecodeError, WirePartial};

// The fixed build-hasher behind the workspace's private integer-keyed maps,
// re-exported so crates that depend on slb-core but not on slb-hash (the
// engine) reach it without a new dependency edge.
pub use slb_hash::{FixedHashMap, FixedHashSet, FixedState};

use std::hash::Hash;

use slb_hash::KeyHash;

/// The grouping schemes evaluated in the paper, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartitionerKind {
    /// Key grouping (KG).
    KeyGrouping,
    /// Shuffle grouping (SG).
    ShuffleGrouping,
    /// Partial key grouping (PKG).
    Pkg,
    /// D-Choices (D-C).
    DChoices,
    /// W-Choices (W-C).
    WChoices,
    /// Round-Robin head (RR).
    RoundRobin,
}

impl PartitionerKind {
    /// All schemes, in the order the paper's figures list them.
    pub const ALL: [PartitionerKind; 6] = [
        PartitionerKind::KeyGrouping,
        PartitionerKind::Pkg,
        PartitionerKind::DChoices,
        PartitionerKind::WChoices,
        PartitionerKind::RoundRobin,
        PartitionerKind::ShuffleGrouping,
    ];

    /// The paper's abbreviation for the scheme.
    pub fn symbol(&self) -> &'static str {
        match self {
            PartitionerKind::KeyGrouping => "KG",
            PartitionerKind::ShuffleGrouping => "SG",
            PartitionerKind::Pkg => "PKG",
            PartitionerKind::DChoices => "D-C",
            PartitionerKind::WChoices => "W-C",
            PartitionerKind::RoundRobin => "RR",
        }
    }
}

impl std::str::FromStr for PartitionerKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "KG" | "KEY" | "KEYGROUPING" => Ok(PartitionerKind::KeyGrouping),
            "SG" | "SHUFFLE" | "SHUFFLEGROUPING" => Ok(PartitionerKind::ShuffleGrouping),
            "PKG" => Ok(PartitionerKind::Pkg),
            "D-C" | "DC" | "DCHOICES" => Ok(PartitionerKind::DChoices),
            "W-C" | "WC" | "WCHOICES" => Ok(PartitionerKind::WChoices),
            "RR" | "ROUNDROBIN" => Ok(PartitionerKind::RoundRobin),
            other => Err(format!("unknown partitioner kind: {other}")),
        }
    }
}

/// Builds a boxed partitioner of the requested kind for keys of type `K`.
pub fn build_partitioner<K>(
    kind: PartitionerKind,
    config: &PartitionConfig,
) -> Box<dyn Partitioner<K>>
where
    K: KeyHash + Eq + Hash + Clone + 'static,
{
    match kind {
        PartitionerKind::KeyGrouping => Box::new(KeyGrouping::new(config)),
        PartitionerKind::ShuffleGrouping => Box::new(ShuffleGrouping::new(config)),
        PartitionerKind::Pkg => Box::new(PartialKeyGrouping::new(config)),
        PartitionerKind::DChoices => Box::new(HeadAwarePartitioner::d_choices(config)),
        PartitionerKind::WChoices => Box::new(HeadAwarePartitioner::w_choices(config)),
        PartitionerKind::RoundRobin => Box::new(HeadAwarePartitioner::round_robin(config)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_every_kind_and_route() {
        let cfg = PartitionConfig::new(12).with_seed(5);
        for kind in PartitionerKind::ALL {
            let mut p = build_partitioner::<u64>(kind, &cfg);
            for key in 0..500u64 {
                let w = p.route(&(key % 50));
                assert!(w < 12, "{:?} routed out of range", kind);
            }
            assert_eq!(p.local_loads().workers(), 12);
            assert_eq!(p.local_loads().total(), 500);
        }
    }

    #[test]
    fn symbols_round_trip_through_from_str() {
        for kind in PartitionerKind::ALL {
            let parsed: PartitionerKind = kind.symbol().parse().expect("symbol parses");
            assert_eq!(parsed, kind);
        }
        assert!("bogus".parse::<PartitionerKind>().is_err());
    }

    #[test]
    fn kinds_report_paper_symbols() {
        assert_eq!(PartitionerKind::DChoices.symbol(), "D-C");
        assert_eq!(PartitionerKind::WChoices.symbol(), "W-C");
        assert_eq!(PartitionerKind::Pkg.symbol(), "PKG");
    }

    #[test]
    fn string_keys_are_supported() {
        let cfg = PartitionConfig::new(6).with_seed(1);
        let mut p = build_partitioner::<String>(PartitionerKind::WChoices, &cfg);
        for i in 0..100 {
            let key = format!("page/{}", i % 10);
            assert!(p.route(&key) < 6);
        }
    }
}
