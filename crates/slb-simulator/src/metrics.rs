//! Result types produced by a simulation run.

/// One point of the imbalance-over-time series (Figure 12).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeSeriesPoint {
    /// Number of messages processed when the sample was taken.
    pub messages: u64,
    /// Imbalance `I(t)` at that point.
    pub imbalance: f64,
}

/// Per-worker load split into the share generated by head keys and by tail
/// keys (Figure 8). Loads are fractions of the total message count.
#[derive(Debug, Clone, PartialEq)]
pub struct HeadTailLoad {
    /// Fraction of all messages that reached each worker via a head key.
    pub head: Vec<f64>,
    /// Fraction of all messages that reached each worker via a tail key.
    pub tail: Vec<f64>,
}

impl HeadTailLoad {
    /// Total fractional load per worker (head + tail).
    pub fn total(&self) -> Vec<f64> {
        self.head
            .iter()
            .zip(&self.tail)
            .map(|(h, t)| h + t)
            .collect()
    }
}

/// The outcome of replaying one workload under one grouping scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationResult {
    /// Scheme symbol (KG, SG, PKG, D-C, W-C, RR).
    pub scheme: String,
    /// Number of workers.
    pub workers: usize,
    /// Number of sources.
    pub sources: usize,
    /// Messages replayed.
    pub messages: u64,
    /// Final global per-worker message counts.
    pub worker_loads: Vec<u64>,
    /// Final imbalance `I(m)` (fraction of total load).
    pub imbalance: f64,
    /// Average imbalance over the sampled time series (the quantity the
    /// paper plots for Figure 10, "average imbalance").
    pub mean_imbalance: f64,
    /// Imbalance samples over time.
    pub time_series: Vec<TimeSeriesPoint>,
    /// Number of `(key, worker)` pairs that received at least one message —
    /// the replication (memory) cost actually incurred, when tracking was
    /// enabled; `None` otherwise.
    pub observed_replicas: Option<u64>,
    /// Head/tail load split, when tracking was enabled.
    pub head_tail: Option<HeadTailLoad>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_tail_total_adds_components() {
        let ht = HeadTailLoad {
            head: vec![0.1, 0.2],
            tail: vec![0.3, 0.4],
        };
        let total = ht.total();
        assert!((total[0] - 0.4).abs() < 1e-12);
        assert!((total[1] - 0.6).abs() < 1e-12);
    }
}
