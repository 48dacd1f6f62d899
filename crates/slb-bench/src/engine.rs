//! The experiments on the threaded mini-DSPE: Figures 13–14 (one set of
//! runs, two views) and the aggregation-stage cost of "Figure 15".

use slb_core::PartitionerKind;
use slb_engine::topology::compare_schemes;
use slb_engine::{EngineResult, Topology};
use slb_simulator::experiments::ExperimentScale;

use crate::table::{fixed, int, text, Table};
use crate::{engine_config, print_header, ExperimentOptions};

/// Figures 13 and 14: throughput and end-to-end latency of KG, PKG, D-C,
/// W-C and SG on the mini-DSPE, both read off the same runs.
///
/// The paper deploys the schemes on an Apache Storm cluster (48 sources,
/// 80 workers, 1 ms of work per tuple, 2×10⁶ messages) and measures
/// events/second and latency for Zipf exponents 1.4, 1.7 and 2.0: one
/// deployment, two views. Here `compare_schemes` runs once per skew and
/// both tables print from its results. Figure 13 reports events/second;
/// Figure 14 the maximum of the per-worker average latencies and the
/// 50th/95th/99th percentiles across all processed tuples, in µs. The
/// expected shape: KG has the lowest throughput and by far the worst tail
/// latency at high skew (queueing at the worker that owns the hottest key),
/// PKG is in between, and D-C ≈ W-C ≈ SG, with the gap widening as the
/// skew grows. Absolute numbers depend on the machine; the relative
/// ordering and the ratios are what this harness reproduces.
pub fn fig13_14(o: &ExperimentOptions) {
    print_header(
        "Figures 13-14",
        "Throughput (events/s) and latency (µs) per scheme on the mini-DSPE, from one set of runs",
        o,
    );
    let schemes = [
        PartitionerKind::KeyGrouping,
        PartitionerKind::Pkg,
        PartitionerKind::DChoices,
        PartitionerKind::WChoices,
        PartitionerKind::ShuffleGrouping,
    ];
    let runs: Vec<(f64, Vec<EngineResult>)> = [1.4, 1.7, 2.0]
        .into_iter()
        .map(|z| (z, compare_schemes(&engine_config(o, z), &schemes)))
        .collect();
    println!("## Figure 13: throughput");
    let mut table = Table::new(
        "fig13_throughput",
        &[
            text("scheme", 8),
            fixed("skew", 6, 1),
            fixed("throughput_eps", 16, 0),
            fixed("imbalance", 12, 4),
            fixed("elapsed_secs", 14, 2),
        ],
    );
    for r in runs.iter().flat_map(|(_, results)| results) {
        table.row(&[
            &r.scheme,
            &r.skew,
            &r.throughput_eps,
            &r.imbalance,
            &r.elapsed_secs,
        ]);
    }
    table.emit(o.json_dir.as_deref());
    // The headline ratios the paper reports: throughput of D-C and W-C vs
    // PKG and KG.
    for (z, results) in &runs {
        let eps = |s: &str| by_scheme(results, s).throughput_eps;
        let (kg, pkg, dc) = (eps("KG"), eps("PKG"), eps("D-C"));
        println!(
            "# z={z:.1}: D-C/PKG = {:.2}x, W-C/PKG = {:.2}x, D-C/KG = {:.2}x, SG/PKG = {:.2}x",
            dc / pkg,
            eps("W-C") / pkg,
            dc / kg,
            eps("SG") / pkg
        );
    }

    println!();
    println!("## Figure 14: latency");
    let mut table = Table::new(
        "fig14_latency",
        &[
            text("scheme", 8),
            fixed("skew", 6, 1),
            fixed("max_avg_us", 12, 0),
            int("p50_us", 10),
            int("p95_us", 10),
            int("p99_us", 10),
        ],
    );
    for r in runs.iter().flat_map(|(_, results)| results) {
        let l = &r.latency;
        table.row(&[
            &r.scheme,
            &r.skew,
            &l.max_avg_us,
            &l.p50_us,
            &l.p95_us,
            &l.p99_us,
        ]);
    }
    table.emit(o.json_dir.as_deref());
    for (z, results) in &runs {
        let p99 = |s: &str| by_scheme(results, s).latency.p99_us as f64;
        let (kg, pkg, dc) = (p99("KG"), p99("PKG"), p99("D-C"));
        if pkg > 0.0 && kg > 0.0 {
            println!(
                "# z={z:.1}: D-C cuts p99 latency by {:.0}% vs PKG and {:.0}% vs KG",
                100.0 * (1.0 - dc / pkg),
                100.0 * (1.0 - dc / kg)
            );
        }
    }
}

fn by_scheme<'a>(results: &'a [EngineResult], scheme: &str) -> &'a EngineResult {
    let found = results.iter().find(|r| r.scheme == scheme);
    found.expect("compare_schemes runs every scheme")
}

/// "Figure 15" (beyond the paper): cost and scaling of the aggregation
/// stage that makes key splitting sound.
///
/// The paper's topology has a downstream aggregator merging the workers'
/// partial per-key state, but its evaluation never isolates that stage's
/// cost. This experiment does, on the mini-DSPE's three-operator pipeline:
/// for a fixed scheme and skew it sweeps the window size (how often workers
/// punctuate, finalize and ship partials) and the number of aggregators,
/// reporting per-stage throughput and the worker-close → aggregator-merge
/// latency. Each window has one owning aggregator (`window mod A`), to which
/// every worker ships its partial whole, so the partial count is windows ×
/// workers whatever `A` is. Expected shape: smaller windows mean more
/// partial-window traffic (more punctuation, more messages) and so a lower
/// tuple throughput, while extra aggregators spread consecutive windows
/// over more threads but never cut one window's merge.
pub fn fig15_aggregation_cost(o: &ExperimentOptions) {
    print_header(
        "Figure 15",
        "Aggregation-stage cost vs window size and aggregator count",
        o,
    );
    // Zero service time exposes the aggregation overhead itself; with the
    // paper's 1 ms of work per tuple the stage cost disappears in the noise.
    let base = engine_config(o, 2.0).with_service_time_us(0);
    let (window_sizes, aggregator_counts): (Vec<u64>, Vec<usize>) = match o.scale {
        ExperimentScale::Smoke => (vec![256, 2_048], vec![1, 2]),
        _ => (vec![256, 1_024, 4_096, 16_384], vec![1, 2, 4]),
    };
    let mut table = Table::new(
        "fig15_aggregation_cost",
        &[
            text("scheme", 8),
            int("window_size", 8),
            int("aggregators", 7),
            fixed("throughput_eps", 14, 0),
            int("windows", 9),
            int("partial_messages", 10),
            int("agg_p50_us", 14),
            int("agg_p99_us", 14),
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
            let stage = &r.aggregator_stage;
            table.row(&[
                &r.scheme,
                &r.window_size,
                &r.aggregators,
                &r.throughput_eps,
                &r.windows,
                &stage.items,
                &stage.latency.p50_us,
                &stage.latency.p99_us,
            ]);
            results.push(r);
        }
    }
    table.emit(o.json_dir.as_deref());

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
