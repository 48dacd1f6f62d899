//! "Figure 15" (beyond the paper): cost and scaling of the aggregation
//! stage that makes key splitting sound.
//!
//! The paper's topology has a downstream aggregator merging the workers'
//! partial per-key state, but its evaluation never isolates that stage's
//! cost. This experiment does, on the mini-DSPE's three-operator pipeline:
//! for a fixed scheme and skew it sweeps the window size (how often workers
//! punctuate, finalize and ship partials) and the number of aggregators,
//! reporting per-stage throughput and the worker-close → aggregator-merge
//! latency. Each window has one owning aggregator (`window mod A`), to which
//! every worker ships its partial whole, so the partial count is windows ×
//! workers whatever `A` is. Expected shape: smaller windows mean more
//! partial-window traffic (more punctuation, more messages) and so a lower
//! tuple throughput, while extra aggregators spread consecutive windows
//! over more threads but never cut one window's merge.

use slb_bench::json::Table;
use slb_bench::{options_from_env, print_header};
use slb_core::PartitionerKind;
use slb_engine::{EngineConfig, Topology};
use slb_simulator::experiments::ExperimentScale;

fn main() {
    let options = options_from_env();
    print_header(
        "Figure 15",
        "Aggregation-stage cost vs window size and aggregator count",
        &options,
    );

    let skew = 2.0;
    let base = match options.scale {
        ExperimentScale::Smoke => EngineConfig::smoke(PartitionerKind::Pkg, skew),
        ExperimentScale::Laptop => EngineConfig::laptop(PartitionerKind::Pkg, skew),
        ExperimentScale::Paper => EngineConfig::paper(PartitionerKind::Pkg, skew),
    }
    .with_seed(options.seed)
    // Zero service time exposes the aggregation overhead itself; with the
    // paper's 1 ms of work per tuple the stage cost disappears in the noise.
    .with_service_time_us(0);

    let window_sizes: Vec<u64> = match options.scale {
        ExperimentScale::Smoke => vec![256, 2_048],
        _ => vec![256, 1_024, 4_096, 16_384],
    };
    let aggregator_counts: Vec<usize> = match options.scale {
        ExperimentScale::Smoke => vec![1, 2],
        _ => vec![1, 2, 4],
    };

    println!(
        "{:<8} {:>8} {:>7} {:>14} {:>9} {:>10} {:>14} {:>14}",
        "scheme",
        "window",
        "aggs",
        "tuples/s",
        "windows",
        "partials",
        "agg p50 (µs)",
        "agg p99 (µs)"
    );
    let mut table = Table::new(
        "fig15_aggregation_cost",
        &[
            "scheme",
            "window_size",
            "aggregators",
            "throughput_eps",
            "windows",
            "partial_messages",
            "agg_p50_us",
            "agg_p99_us",
        ],
    );
    let mut results = Vec::new();
    for &window_size in &window_sizes {
        for &aggregators in &aggregator_counts {
            let cfg = base
                .clone()
                .with_window_size(window_size)
                .with_aggregators(aggregators);
            let r = Topology::new(cfg).run();
            println!(
                "{:<8} {:>8} {:>7} {:>14.0} {:>9} {:>10} {:>14} {:>14}",
                r.scheme,
                r.window_size,
                r.aggregators,
                r.throughput_eps,
                r.windows,
                r.aggregator_stage.items,
                r.aggregator_stage.latency.p50_us,
                r.aggregator_stage.latency.p99_us
            );
            table.row([
                r.scheme.as_str().into(),
                r.window_size.into(),
                r.aggregators.into(),
                r.throughput_eps.into(),
                r.windows.into(),
                r.aggregator_stage.items.into(),
                r.aggregator_stage.latency.p50_us.into(),
                r.aggregator_stage.latency.p99_us.into(),
            ]);
            results.push(r);
        }
    }
    table.emit();

    // Headline: the punctuation tax — throughput of the smallest window vs
    // the largest, at the same aggregator count.
    let aggregators0 = aggregator_counts[0];
    let find = |window: u64| {
        results
            .iter()
            .find(|r| r.window_size == window && r.aggregators == aggregators0)
    };
    if let (Some(small), Some(large)) = (
        find(*window_sizes.first().expect("non-empty sweep")),
        find(*window_sizes.last().expect("non-empty sweep")),
    ) {
        println!(
            "# window {} → {} at {} aggregator(s): throughput x{:.2}, partial messages x{:.2}",
            small.window_size,
            large.window_size,
            aggregators0,
            large.throughput_eps / small.throughput_eps,
            small.aggregator_stage.items as f64 / large.aggregator_stage.items.max(1) as f64,
        );
    }
}
