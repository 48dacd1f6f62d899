//! Storm-like topology: run the threaded mini-DSPE's full three-operator
//! pipeline (source → worker → aggregator) and compare throughput and
//! latency across grouping schemes, the way Figures 13–14 do.
//!
//! ```bash
//! cargo run --release --example storm_like_topology
//! ```
//!
//! Sources generate a Zipf stream, route it with the chosen grouping scheme
//! and push tuples into the workers' bounded queues; workers burn a fixed
//! amount of CPU per tuple and accumulate per-window partial counts; the
//! aggregator stage — each aggregator owning the windows `w mod A` — merges
//! the partials into final per-window results. The most loaded worker is the bottleneck, so a
//! better-balanced scheme finishes sooner (higher throughput) and keeps
//! queueing delay (latency percentiles) lower — while the merged windowed
//! output is identical for every scheme, which is the whole point of having
//! the aggregation stage behind key splitting.

use slb::core::{CountAggregate, PartitionerKind};
use slb::engine::topology::compare_schemes;
use slb::engine::{exact_windowed_counts, EngineConfig, Topology};

fn main() {
    let skew = 2.0;
    // Laptop-sized run: 4 sources, 8 workers, 200k messages, 50 µs/tuple.
    let base = EngineConfig::laptop(PartitionerKind::Pkg, skew).with_seed(7);
    println!(
        "mini-DSPE: {} sources, {} workers, {} aggregator(s), {} messages, \
         {}-tuple windows, {} µs of work per tuple, Zipf z={skew}\n",
        base.sources,
        base.workers,
        base.aggregators,
        base.messages,
        base.window_size,
        base.service_time_us
    );

    let schemes = [
        PartitionerKind::KeyGrouping,
        PartitionerKind::Pkg,
        PartitionerKind::DChoices,
        PartitionerKind::WChoices,
        PartitionerKind::ShuffleGrouping,
    ];
    let results = compare_schemes(&base, &schemes);

    println!(
        "{:<8} {:>14} {:>12} {:>12} {:>12} {:>12} {:>14}",
        "scheme", "events/s", "imbalance", "p50 (ms)", "p99 (ms)", "state keys", "agg p99 (µs)"
    );
    for r in &results {
        println!(
            "{:<8} {:>14.0} {:>12.4} {:>12.2} {:>12.2} {:>12} {:>14}",
            r.scheme,
            r.throughput_eps,
            r.imbalance,
            r.latency.p50_us as f64 / 1_000.0,
            r.latency.p99_us as f64 / 1_000.0,
            r.total_state_replicas(),
            r.aggregator_stage.latency.p99_us
        );
    }

    let pkg = results
        .iter()
        .find(|r| r.scheme == "PKG")
        .expect("PKG result");
    let wc = results
        .iter()
        .find(|r| r.scheme == "W-C")
        .expect("W-C result");
    println!(
        "\nW-Choices delivers {:.2}x the throughput of PKG at this skew, with {:.0}% lower p99 latency.",
        wc.throughput_eps / pkg.throughput_eps,
        100.0 * (1.0 - wc.latency.p99_us as f64 / pkg.latency.p99_us as f64)
    );

    // The soundness invariant, demonstrated rather than asserted: the merged
    // windowed counts of a key-splitting run equal the single-threaded exact
    // reference, window for window, key for key.
    let windowed = Topology::new(base.clone()).run_windowed(CountAggregate);
    let reference = exact_windowed_counts(&base);
    let identical = windowed.windows.len() == reference.len()
        && windowed
            .windows
            .iter()
            .all(|(w, counts)| reference.get(w) == Some(counts));
    println!(
        "windowed aggregation: {} windows finalized across {} aggregator(s); merged counts identical \
         to the exact single-threaded reference: {}",
        windowed.result.windows, windowed.result.aggregators, identical
    );
    assert!(identical, "key-splitting soundness invariant violated");
}
