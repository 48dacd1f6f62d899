//! The stream-replay engine.
//!
//! A simulation replays a workload through `s` independent sources, each
//! holding its own instance of the grouping scheme under study (so that all
//! state — load vectors and heavy-hitter summaries — is strictly local, as
//! in a real deployment). Messages are dealt to sources round-robin, which
//! models the shuffle-grouped edge from the upstream operator to the sources
//! in the paper's experimental DAG.
//!
//! While replaying, the simulator records:
//! * the true global per-worker load (for the imbalance metric),
//! * an imbalance sample every `checkpoint_interval` messages,
//! * optionally, the set of `(key, worker)` pairs used (replication cost)
//!   and the per-worker load split between head and tail keys.

use std::collections::{HashMap, HashSet};

use slb_core::{build_partitioner, imbalance, PartitionConfig, Partitioner, PartitionerKind};
use slb_sketch::{ExactCounter, FrequencyEstimator};
use slb_workloads::{KeyId, KeyStream};

use crate::metrics::{HeadTailLoad, SimulationResult, TimeSeriesPoint};

/// Configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct SimulationConfig {
    /// Grouping scheme under study.
    pub kind: PartitionerKind,
    /// Number of downstream workers `n`.
    pub workers: usize,
    /// Number of sources `s` (the paper uses 5).
    pub sources: usize,
    /// Base configuration for the per-source partitioners (seed, ε, θ, …).
    pub partition: PartitionConfig,
    /// How often (in messages) to sample the imbalance for the time series.
    pub checkpoint_interval: u64,
    /// Whether to track `(key, worker)` pairs and the head/tail load split.
    /// Costs memory proportional to the number of distinct pairs.
    pub track_key_placement: bool,
}

impl SimulationConfig {
    /// A configuration with the paper's defaults: 5 sources, θ = 1/(5n),
    /// ε = 10⁻⁴, checkpoints every 10⁵ messages, placement tracking off.
    pub fn new(kind: PartitionerKind, workers: usize) -> Self {
        Self {
            kind,
            workers,
            sources: 5,
            partition: PartitionConfig::new(workers),
            checkpoint_interval: 100_000,
            track_key_placement: false,
        }
    }

    /// Sets the number of sources.
    pub fn with_sources(mut self, sources: usize) -> Self {
        assert!(sources > 0, "need at least one source");
        self.sources = sources;
        self
    }

    /// Replaces the per-source partition configuration.
    pub fn with_partition(mut self, partition: PartitionConfig) -> Self {
        assert_eq!(partition.workers, self.workers, "worker counts must agree");
        self.partition = partition;
        self
    }

    /// Sets the time-series sampling interval.
    pub fn with_checkpoint_interval(mut self, interval: u64) -> Self {
        assert!(interval > 0, "checkpoint interval must be positive");
        self.checkpoint_interval = interval;
        self
    }

    /// Enables `(key, worker)` placement tracking.
    pub fn with_placement_tracking(mut self, on: bool) -> Self {
        self.track_key_placement = on;
        self
    }
}

/// The replay engine. Build one per (workload, scheme) pair and call
/// [`Simulator::run`].
pub struct Simulator {
    config: SimulationConfig,
    partitioners: Vec<Box<dyn Partitioner<KeyId>>>,
    global_loads: Vec<u64>,
    messages: u64,
    time_series: Vec<TimeSeriesPoint>,
    imbalance_sum: f64,
    imbalance_samples: u64,
    placements: Option<HashSet<(KeyId, usize)>>,
    key_worker_counts: Option<HashMap<(KeyId, usize), u64>>,
    exact: ExactCounter<KeyId>,
}

impl Simulator {
    /// Creates a simulator: one partitioner instance per source, all workers
    /// initially idle.
    pub fn new(config: SimulationConfig) -> Self {
        assert!(config.sources > 0, "need at least one source");
        // Every source uses the *same* configuration (and therefore the same
        // hash functions): hash-based routing only avoids routing tables
        // because all senders agree on where a key may go. Only per-source
        // state (load vectors, sketches, round-robin cursors) differs, and
        // that state lives inside each partitioner instance.
        let partitioners = (0..config.sources)
            .map(|_| build_partitioner::<KeyId>(config.kind, &config.partition))
            .collect();
        let (placements, key_worker_counts) = if config.track_key_placement {
            (Some(HashSet::new()), Some(HashMap::new()))
        } else {
            (None, None)
        };
        Self {
            global_loads: vec![0; config.workers],
            partitioners,
            messages: 0,
            time_series: Vec::new(),
            imbalance_sum: 0.0,
            imbalance_samples: 0,
            placements,
            key_worker_counts,
            exact: ExactCounter::new(),
            config,
        }
    }

    /// Processes a single message, returning the worker it was routed to.
    pub fn process(&mut self, key: KeyId) -> usize {
        let source = (self.messages % self.config.sources as u64) as usize;
        let worker = self.partitioners[source].route(&key);
        self.global_loads[worker] += 1;
        self.messages += 1;
        if let Some(placements) = &mut self.placements {
            placements.insert((key, worker));
        }
        if let Some(counts) = &mut self.key_worker_counts {
            *counts.entry((key, worker)).or_insert(0) += 1;
        }
        if self.config.track_key_placement {
            self.exact.observe(&key);
        }
        if self.messages % self.config.checkpoint_interval == 0 {
            let imb = imbalance(&self.global_loads);
            self.time_series.push(TimeSeriesPoint {
                messages: self.messages,
                imbalance: imb,
            });
            self.imbalance_sum += imb;
            self.imbalance_samples += 1;
        }
        worker
    }

    /// Replays an entire key stream.
    pub fn run_stream<S: KeyStream + ?Sized>(&mut self, stream: &mut S) {
        while let Some(key) = stream.next_key() {
            self.process(key);
        }
    }

    /// Convenience: build, replay and summarize in one call.
    pub fn run(config: SimulationConfig, stream: &mut dyn KeyStream) -> SimulationResult {
        let mut sim = Simulator::new(config);
        sim.run_stream(stream);
        sim.finish()
    }

    /// Number of messages processed so far.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// The true global per-worker loads.
    pub fn global_loads(&self) -> &[u64] {
        &self.global_loads
    }

    /// Finalizes the run and produces the result summary.
    pub fn finish(self) -> SimulationResult {
        let final_imbalance = imbalance(&self.global_loads);
        let mean_imbalance = if self.imbalance_samples > 0 {
            self.imbalance_sum / self.imbalance_samples as f64
        } else {
            final_imbalance
        };
        let head_tail = self.head_tail_split();
        SimulationResult {
            scheme: self.config.kind.symbol().to_string(),
            workers: self.config.workers,
            sources: self.config.sources,
            messages: self.messages,
            imbalance: final_imbalance,
            mean_imbalance,
            time_series: self.time_series,
            observed_replicas: self.placements.as_ref().map(|p| p.len() as u64),
            head_tail,
            worker_loads: self.global_loads,
        }
    }

    /// Splits the per-worker load into head- and tail-generated shares,
    /// classifying keys by their *exact* empirical frequency against θ
    /// (only available when placement tracking is on).
    fn head_tail_split(&self) -> Option<HeadTailLoad> {
        let counts = self.key_worker_counts.as_ref()?;
        if self.messages == 0 {
            return Some(HeadTailLoad {
                head: vec![0.0; self.config.workers],
                tail: vec![0.0; self.config.workers],
            });
        }
        let theta = self.config.partition.theta();
        let total = self.messages as f64;
        let head_keys: HashSet<KeyId> = self
            .exact
            .iter()
            .filter(|(_, c)| *c as f64 / total >= theta)
            .map(|(k, _)| *k)
            .collect();
        // Integer sums, one division each: adding `f64` shares in the
        // `HashMap`'s per-process order would move the last digits.
        let mut head = vec![0u64; self.config.workers];
        let mut tail = vec![0u64; self.config.workers];
        for (&(key, worker), &count) in counts {
            if head_keys.contains(&key) {
                head[worker] += count;
            } else {
                tail[worker] += count;
            }
        }
        let shares = |sums: Vec<u64>| sums.into_iter().map(|c| c as f64 / total).collect();
        Some(HeadTailLoad {
            head: shares(head),
            tail: shares(tail),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slb_workloads::zipf::ZipfGenerator;

    fn zipf_stream(keys: usize, z: f64, seed: u64, messages: u64) -> ZipfGenerator {
        ZipfGenerator::with_limit(keys, z, seed, messages)
    }

    #[test]
    fn run_accounts_every_message_exactly_once() {
        let mut stream = zipf_stream(1_000, 1.0, 3, 20_000);
        let cfg = SimulationConfig::new(PartitionerKind::Pkg, 10).with_checkpoint_interval(1_000);
        let result = Simulator::run(cfg, &mut stream);
        assert_eq!(result.messages, 20_000);
        assert_eq!(result.worker_loads.iter().sum::<u64>(), 20_000);
        assert_eq!(result.scheme, "PKG");
        assert_eq!(result.workers, 10);
        assert_eq!(result.sources, 5);
        assert!(!result.time_series.is_empty());
    }

    #[test]
    fn shuffle_grouping_is_nearly_perfectly_balanced() {
        let mut stream = zipf_stream(100, 2.0, 5, 10_000);
        let cfg = SimulationConfig::new(PartitionerKind::ShuffleGrouping, 8);
        let result = Simulator::run(cfg, &mut stream);
        assert!(result.imbalance < 1e-3, "SG imbalance {}", result.imbalance);
    }

    #[test]
    fn key_grouping_suffers_under_skew_and_w_choices_recovers() {
        let workers = 20;
        let mut kg_stream = zipf_stream(10_000, 2.0, 7, 50_000);
        let kg = Simulator::run(
            SimulationConfig::new(PartitionerKind::KeyGrouping, workers),
            &mut kg_stream,
        );
        let mut wc_stream = zipf_stream(10_000, 2.0, 7, 50_000);
        let wc = Simulator::run(
            SimulationConfig::new(PartitionerKind::WChoices, workers),
            &mut wc_stream,
        );
        // The hottest key alone is ~60% of the stream; KG must show massive
        // imbalance while W-C stays near ideal.
        assert!(kg.imbalance > 0.3, "KG imbalance {}", kg.imbalance);
        assert!(wc.imbalance < 0.02, "W-C imbalance {}", wc.imbalance);
    }

    #[test]
    fn placement_tracking_reports_replicas_and_head_tail() {
        let mut stream = zipf_stream(500, 1.8, 9, 30_000);
        let cfg = SimulationConfig::new(PartitionerKind::WChoices, 5)
            .with_placement_tracking(true)
            .with_checkpoint_interval(5_000);
        let result = Simulator::run(cfg, &mut stream);
        let replicas = result.observed_replicas.expect("tracking enabled");
        assert!(replicas > 0);
        let ht = result.head_tail.expect("tracking enabled");
        let head_total: f64 = ht.head.iter().sum();
        let tail_total: f64 = ht.tail.iter().sum();
        assert!(
            (head_total + tail_total - 1.0).abs() < 1e-9,
            "shares must sum to 1"
        );
        // z = 1.8 over 500 keys: the head carries most of the load.
        assert!(head_total > 0.5, "head share {head_total}");
        assert_eq!(ht.head.len(), 5);
    }

    /// Each head / tail share is the worker's integer count over the total,
    /// divided once: summing per-pair `f64` shares in a `HashMap`'s order
    /// differed in the last bits between two processes at the same seed.
    #[test]
    fn head_tail_shares_are_integer_sums_divided_once() {
        let (workers, messages) = (5, 100_000u64);
        let config = SimulationConfig::new(PartitionerKind::RoundRobin, workers)
            .with_partition(
                PartitionConfig::new(workers)
                    .with_threshold(slb_core::HeadThreshold::new(1.0, 8.0)),
            )
            .with_placement_tracking(true);
        let theta = config.partition.theta();
        let mut sim = Simulator::new(config);
        let mut routed = Vec::new();
        let mut stream = zipf_stream(10_000, 1.2, 17, messages);
        while let Some(key) = KeyStream::next_key(&mut stream) {
            routed.push((key, sim.process(key)));
        }
        let mut frequency: HashMap<KeyId, u64> = HashMap::new();
        for &(key, _) in &routed {
            *frequency.entry(key).or_default() += 1;
        }
        let (mut head, mut tail) = (vec![0u64; workers], vec![0u64; workers]);
        for &(key, worker) in &routed {
            if frequency[&key] as f64 / messages as f64 >= theta {
                head[worker] += 1;
            } else {
                tail[worker] += 1;
            }
        }
        let ht = sim.finish().head_tail.expect("tracking enabled");
        for w in 0..workers {
            assert!(head[w] > 0 && tail[w] > 0, "worker {w}: {head:?} {tail:?}");
            let expected = |count: u64| (count as f64 / messages as f64).to_bits();
            assert_eq!(ht.head[w].to_bits(), expected(head[w]), "head of {w}");
            assert_eq!(ht.tail[w].to_bits(), expected(tail[w]), "tail of {w}");
        }
    }

    #[test]
    fn pkg_replicas_bounded_by_two_per_key() {
        let mut stream = zipf_stream(300, 1.0, 11, 20_000);
        let cfg = SimulationConfig::new(PartitionerKind::Pkg, 10).with_placement_tracking(true);
        let result = Simulator::run(cfg, &mut stream);
        let replicas = result.observed_replicas.unwrap();
        assert!(
            replicas <= 2 * 300,
            "PKG created {replicas} replicas for 300 keys"
        );
    }

    #[test]
    fn per_source_partitioners_are_isolated() {
        // With one source the simulator must behave identically to a single
        // partitioner instance; with several, each keeps its own state.
        let mut sim =
            Simulator::new(SimulationConfig::new(PartitionerKind::Pkg, 6).with_sources(3));
        for i in 0..999u64 {
            sim.process(i % 50);
        }
        assert_eq!(sim.messages(), 999);
        assert_eq!(sim.global_loads().iter().sum::<u64>(), 999);
    }

    #[test]
    fn time_series_is_monotone_in_messages() {
        let mut stream = zipf_stream(100, 1.0, 13, 5_000);
        let cfg = SimulationConfig::new(PartitionerKind::DChoices, 4).with_checkpoint_interval(500);
        let result = Simulator::run(cfg, &mut stream);
        assert_eq!(result.time_series.len(), 10);
        for w in result.time_series.windows(2) {
            assert!(w[1].messages > w[0].messages);
        }
        // Mean imbalance is the average of the sampled points.
        let mean: f64 = result.time_series.iter().map(|p| p.imbalance).sum::<f64>()
            / result.time_series.len() as f64;
        assert!((mean - result.mean_imbalance).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "worker counts must agree")]
    fn mismatched_partition_config_panics() {
        let _ =
            SimulationConfig::new(PartitionerKind::Pkg, 4).with_partition(PartitionConfig::new(8));
    }
}
