//! # slb — Scalable Load Balancing for distributed stream processing
//!
//! A reproduction of *"When Two Choices Are not Enough: Balancing at Scale in
//! Distributed Stream Processing"* (Nasir, De Francisci Morales, Kourtellis,
//! Serafini — ICDE 2016).
//!
//! This facade crate re-exports the public API of the workspace crates:
//!
//! * [`hash`] — hashing substrate (xxHash64, SplitMix64, hash-function families).
//! * [`sketch`] — heavy-hitter substrate (SpaceSaving, exact counters).
//! * [`workloads`] — key distributions and synthetic datasets (Zipf, WP/TW/CT-like).
//! * [`core`] — the paper's contribution: the grouping schemes (key grouping,
//!   shuffle grouping, partial key grouping, D-Choices, W-Choices, round-robin
//!   head) behind one `Partitioner` trait, plus the D-Choices solver.
//! * [`simulator`] — the stream-replay simulator the imbalance experiments
//!   (Figures 1 and 3–12) run on: the replay engine, multi-phase scenario
//!   replay and their result types. The figures themselves are computed by
//!   `slb-bench`'s `expt` binary.
//! * [`engine`] — a threaded mini-DSPE used for the throughput/latency
//!   experiments (Figures 13–14), with a pluggable channel transport.
//! * [`net`] — the networked transport backend (length-prefixed wire codec,
//!   TCP channels, the `slb-node` multi-process cluster runner).
//!
//! ## Quickstart
//!
//! ```rust
//! use slb::core::{PartitionerKind, build_partitioner, PartitionConfig};
//! use slb::workloads::zipf::ZipfGenerator;
//!
//! // 50 downstream workers, D-Choices routing with the paper's defaults.
//! let cfg = PartitionConfig::new(50).with_seed(42);
//! let mut partitioner = build_partitioner(PartitionerKind::DChoices, &cfg);
//!
//! // Route a small skewed stream and inspect the imbalance.
//! let mut zipf = ZipfGenerator::new(10_000, 1.5, 42);
//! for _ in 0..100_000 {
//!     let key = zipf.next_key();
//!     let worker = partitioner.route(&key.to_string());
//!     assert!(worker < 50);
//! }
//! ```

pub use slb_core as core;
pub use slb_engine as engine;
pub use slb_hash as hash;
pub use slb_net as net;
pub use slb_simulator as simulator;
pub use slb_sketch as sketch;
pub use slb_workloads as workloads;
