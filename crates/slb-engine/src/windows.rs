//! Deterministic tuple-count windows and the exact reference aggregation.
//!
//! ## Window model
//!
//! Every source emits a deterministic, seeded sub-stream of
//! `messages / sources` tuples. The tuple with 0-based position `i` in its
//! source's sub-stream belongs to window `i / window_size`, regardless of
//! which worker the grouping scheme routes it to. Window membership is
//! therefore a pure function of the configuration — it does not depend on
//! thread interleaving, transport batch size, queue capacities, or the
//! grouping scheme — and all sources produce exactly the same set of window
//! identifiers (their sub-streams have equal length).
//!
//! A window closes at the workers via punctuation: when a source crosses a
//! window boundary it flushes its in-flight batches and sends a close marker
//! for the finished window to *every* worker. Channels are FIFO per
//! source→worker pair, so once a worker has seen the close marker from all
//! sources it provably holds every tuple of that window that was routed to
//! it, and can emit its partial aggregate downstream. This is how the
//! paper's Storm topology finalizes windowed counts behind PKG's key
//! splitting, and it is what makes the merged result *exactly* — not just
//! statistically — comparable to a single-threaded count.
//!
//! ## The reference
//!
//! [`exact_windowed_counts`] replays the same seeded sub-streams on one
//! thread and counts keys per window into plain hash maps. The differential
//! suite asserts the engine's merged output is bit-identical to it for every
//! grouping scheme, skew, seed, batch size, and aggregator count.

use std::collections::{BTreeMap, HashMap};

use slb_workloads::zipf::ZipfGenerator;
use slb_workloads::{KeyId, KeyStream, Scenario};

use crate::topology::{EngineConfig, EngineResult};

/// Window identifier: index of a tuple-count window in a source sub-stream.
pub type WindowId = u64;

/// The window that the tuple at 0-based source position `local_idx` belongs
/// to, for `window_size`-tuple windows.
///
/// # Panics
/// Panics (in debug builds) if `window_size == 0`.
#[inline]
pub fn window_of(local_idx: u64, window_size: u64) -> WindowId {
    debug_assert!(window_size > 0, "windows need at least one tuple");
    local_idx / window_size
}

/// Outcome of a windowed engine run: the usual measurements plus the final
/// merged per-window aggregates (each merged by the aggregator that owns it).
#[derive(Debug, Clone)]
pub struct WindowedRun<P> {
    /// Throughput/latency/imbalance measurements, as for [`crate::Topology::run`].
    pub result: EngineResult,
    /// Final merged aggregate per window, keyed by window id.
    pub windows: BTreeMap<WindowId, P>,
}

/// The seeded sub-stream of one source: an independent sampler per source,
/// but a *shared* key-identity scramble derived from the topology seed, so
/// that all sources draw from the same key space (the hot key is the same
/// `KeyId` everywhere, and per-key counts from different sources collide on
/// the same identifier downstream). Both the engine's source threads and the
/// exact reference construct their streams through this one function —
/// divergence between them is structurally impossible.
pub fn source_stream(cfg: &EngineConfig, source_idx: usize) -> ZipfGenerator {
    let per_source = cfg.messages / cfg.sources as u64;
    let stream_seed = cfg.seed.wrapping_add(1 + source_idx as u64);
    ZipfGenerator::with_limit(cfg.keys, cfg.skew, stream_seed, per_source).scrambled_like(cfg.seed)
}

/// Single-threaded exact reference for the windowed count aggregation: the
/// per-window per-key counts obtained by replaying every source's seeded
/// sub-stream in order on one thread.
///
/// For any `EngineConfig` with the same `sources`, `keys`, `skew`,
/// `messages`, `seed`, and `window_size`, the engine's merged
/// [`crate::topology::Topology::run_windowed`] output under
/// [`slb_core::CountAggregate`] must equal this map bit for bit — the
/// key-splitting soundness invariant.
pub fn exact_windowed_counts(cfg: &EngineConfig) -> BTreeMap<WindowId, HashMap<KeyId, u64>> {
    let mut windows: BTreeMap<WindowId, HashMap<KeyId, u64>> = BTreeMap::new();
    for source_idx in 0..cfg.sources {
        let mut stream = source_stream(cfg, source_idx);
        let mut local_idx = 0u64;
        while let Some(key) = KeyStream::next_key(&mut stream) {
            let window = window_of(local_idx, cfg.window_size);
            *windows.entry(window).or_default().entry(key).or_insert(0) += 1;
            local_idx += 1;
        }
    }
    windows
}

/// Single-threaded exact reference for a *scenario* run: the per-window
/// per-key counts obtained by replaying every source's per-phase streams in
/// order on one thread, with the global window index continuing across
/// phases. The engine's merged scenario output under
/// [`slb_core::CountAggregate`] must equal this map bit for bit, for every
/// grouping scheme, worker-count change, drift epoch, burst pattern, batch
/// size, and aggregator count.
///
/// # Panics
/// Panics if the scenario is invalid.
pub fn exact_scenario_windowed_counts(
    scenario: &Scenario,
) -> BTreeMap<WindowId, HashMap<KeyId, u64>> {
    if let Err(message) = scenario.validate() {
        panic!("invalid scenario: {message}");
    }
    let mut windows: BTreeMap<WindowId, HashMap<KeyId, u64>> = BTreeMap::new();
    for source_idx in 0..scenario.sources {
        let mut local_idx = 0u64;
        for phase_idx in 0..scenario.phases.len() {
            let mut stream = scenario.phase_stream(phase_idx, source_idx);
            while let Some(key) = KeyStream::next_key(&mut stream) {
                let window = window_of(local_idx, scenario.window_size);
                *windows.entry(window).or_default().entry(key).or_insert(0) += 1;
                local_idx += 1;
            }
        }
    }
    windows
}

/// Explains the first divergence between two windowed count maps, or `None`
/// when they are identical. Differential suites use this to turn a failed
/// map equality into a message naming the first divergent window and key —
/// "window 3, key 17: got 4, expected 5" — instead of dumping two maps with
/// thousands of entries.
pub fn diff_windows(
    got: &BTreeMap<WindowId, HashMap<KeyId, u64>>,
    expected: &BTreeMap<WindowId, HashMap<KeyId, u64>>,
) -> Option<String> {
    // Walk windows in ascending order across both maps.
    let windows: std::collections::BTreeSet<WindowId> =
        got.keys().chain(expected.keys()).copied().collect();
    for window in windows {
        let (g, e) = match (got.get(&window), expected.get(&window)) {
            (Some(g), Some(e)) => (g, e),
            (Some(g), None) => {
                let tuples: u64 = g.values().sum();
                return Some(format!(
                    "window {window}: unexpected ({} keys, {tuples} tuples); expected side has no such window",
                    g.len()
                ));
            }
            (None, Some(e)) => {
                let tuples: u64 = e.values().sum();
                return Some(format!(
                    "window {window}: missing; expected {} keys, {tuples} tuples",
                    e.len()
                ));
            }
            (None, None) => unreachable!("window drawn from one of the maps"),
        };
        if g == e {
            continue;
        }
        // Report the smallest divergent key for a stable message.
        let keys: std::collections::BTreeSet<KeyId> = g.keys().chain(e.keys()).copied().collect();
        for key in keys {
            let got_count = g.get(&key).copied().unwrap_or(0);
            let expected_count = e.get(&key).copied().unwrap_or(0);
            if got_count != expected_count {
                let got_tuples: u64 = g.values().sum();
                let expected_tuples: u64 = e.values().sum();
                return Some(format!(
                    "window {window}, key {key}: got {got_count}, expected {expected_count} \
                     (window totals: got {got_tuples}, expected {expected_tuples})"
                ));
            }
        }
        unreachable!("maps differ but every key matches");
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use slb_core::PartitionerKind;

    #[test]
    fn window_of_basic_arithmetic() {
        assert_eq!(window_of(0, 4), 0);
        assert_eq!(window_of(3, 4), 0);
        assert_eq!(window_of(4, 4), 1);
        assert_eq!(window_of(11, 4), 2);
    }

    #[test]
    fn reference_covers_every_message_and_window() {
        let cfg = EngineConfig::smoke(PartitionerKind::Pkg, 1.4);
        let reference = exact_windowed_counts(&cfg);
        let per_source = cfg.messages / cfg.sources as u64;
        let expected_windows = per_source.div_ceil(cfg.window_size);
        assert_eq!(reference.len() as u64, expected_windows);
        let total: u64 = reference.values().flat_map(|w| w.values()).copied().sum();
        assert_eq!(total, per_source * cfg.sources as u64);
        // Every full window holds exactly sources × window_size tuples.
        for (window, counts) in &reference {
            let tuples: u64 = counts.values().sum();
            if (window + 1) * cfg.window_size <= per_source {
                assert_eq!(tuples, cfg.window_size * cfg.sources as u64);
            }
        }
    }

    #[test]
    fn reference_is_deterministic_across_calls() {
        let cfg = EngineConfig::smoke(PartitionerKind::DChoices, 2.0).with_seed(99);
        assert_eq!(exact_windowed_counts(&cfg), exact_windowed_counts(&cfg));
    }

    #[test]
    fn diff_windows_names_the_first_divergence() {
        let mut a: BTreeMap<WindowId, HashMap<KeyId, u64>> = BTreeMap::new();
        a.insert(0, [(1u64, 2u64), (5, 1)].into_iter().collect());
        a.insert(1, [(7u64, 3u64)].into_iter().collect());
        assert_eq!(diff_windows(&a, &a), None, "identical maps diff to None");
        // A count divergence names window, key, and both counts.
        let mut b = a.clone();
        b.get_mut(&1).unwrap().insert(7, 4);
        let message = diff_windows(&b, &a).expect("divergence found");
        assert!(message.contains("window 1, key 7"), "{message}");
        assert!(message.contains("got 4, expected 3"), "{message}");
        // A key present on one side only reports count zero on the other.
        let mut c = a.clone();
        c.get_mut(&0).unwrap().remove(&5);
        let message = diff_windows(&c, &a).expect("missing key found");
        assert!(message.contains("window 0, key 5"), "{message}");
        assert!(message.contains("got 0, expected 1"), "{message}");
        // A whole missing window is reported as such.
        let mut d = a.clone();
        d.remove(&1);
        let message = diff_windows(&d, &a).expect("missing window found");
        assert!(message.contains("window 1: missing"), "{message}");
    }
}
