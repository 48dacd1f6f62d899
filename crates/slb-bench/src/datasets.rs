//! The experiments on the real-world-like datasets: Table I and Figures 1,
//! 11 and 12.

use slb_core::{PartitionConfig, PartitionerKind};
use slb_simulator::{SimulationConfig, SimulationResult, Simulator};
use slb_sketch::{ExactCounter, FrequencyEstimator};
use slb_workloads::datasets::{table1_rows, Dataset, Scale, SyntheticDataset};

use crate::table::{fixed, int, sci, text, Table};
use crate::{print_header, ExperimentOptions, ExperimentScale};

/// The schemes Figures 1, 11 and 12 compare.
const SCHEMES: [PartitionerKind; 3] = [
    PartitionerKind::Pkg,
    PartitionerKind::DChoices,
    PartitionerKind::WChoices,
];

/// Replays `dataset` through `kind` over `workers` workers with the paper's
/// partition defaults, sampling the imbalance `samples` times.
fn replay(
    dataset: &SyntheticDataset,
    kind: PartitionerKind,
    workers: usize,
    samples: u64,
) -> SimulationResult {
    let partition = PartitionConfig::new(workers).with_seed(dataset.seed());
    let config = SimulationConfig::new(kind, workers)
        .with_partition(partition)
        .with_checkpoint_interval((dataset.stats().messages / samples).max(1));
    let mut stream = dataset.stream();
    Simulator::run(config, stream.as_mut())
}

/// Figures 1 and 11 on one dataset: each of [`SCHEMES`] at 5–100 workers,
/// every run handed to `row`. Returns PKG's and W-C's final imbalance at
/// n = 50 and n = 100, which the figures' footers compare.
fn imbalance_vs_workers(
    dataset: &SyntheticDataset,
    mut row: impl FnMut(&SimulationResult),
) -> Vec<(usize, f64, f64)> {
    let mut headline = Vec::new();
    for workers in [5, 10, 20, 50, 100] {
        let [pkg, _, wc] = SCHEMES.map(|kind| {
            let result = replay(dataset, kind, workers, 40);
            row(&result);
            result.imbalance
        });
        if workers >= 50 {
            headline.push((workers, pkg, wc));
        }
    }
    headline
}

/// Table I: summary of the datasets used in the experiments.
///
/// Prints, for every dataset, the number of messages, number of distinct
/// keys and the relative frequency of the most frequent key as published in
/// the paper. The synthetic stand-ins are constructed to match the
/// published statistics exactly (see `slb-workloads`), so the second table
/// shows what the smoke-scale stand-in generators declare next to the p1 a
/// replay of them measures.
pub fn table1_datasets(o: &ExperimentOptions) {
    print_header(
        "Table I",
        "Datasets: messages, keys, p1 (paper-scale declared values)",
        o,
    );
    let columns = [text("dataset", 10), int("messages", 14), int("keys", 12)];
    // The published values, printed for reference: no run measures them,
    // so this table is not emitted.
    let mut paper = Table::new(
        "table1_paper",
        &[columns[0], columns[1], columns[2], fixed("p1_pct", 8, 2)],
    );
    for row in table1_rows() {
        paper.row(&[
            &row.kind.symbol(),
            &row.messages,
            &row.keys,
            &(row.p1 * 100.0),
        ]);
    }

    println!();
    println!("# Empirical check of the stand-in generators at smoke scale:");
    let mut table = Table::new(
        "table1_datasets",
        &[
            columns[0],
            columns[1],
            columns[2],
            fixed("p1", 8, 4),
            fixed("empirical_p1", 12, 4),
        ],
    );
    for ds in SyntheticDataset::real_world_suite(Scale::Smoke, o.seed) {
        let stats = ds.stats();
        let measured = empirical_p1(&ds);
        table.row(&[
            &stats.kind.symbol(),
            &stats.messages,
            &stats.keys,
            &stats.p1,
            &measured,
        ]);
    }
    table.emit(o.json_dir.as_deref());
}

fn empirical_p1(dataset: &SyntheticDataset) -> f64 {
    let mut stream = dataset.stream();
    let mut counter = ExactCounter::new();
    // For drifting datasets (CT) the hot keys change identity every epoch, so
    // the whole-stream p1 is diluted by design; Table I's p1 is a property of
    // the stationary distribution, which one epoch reflects.
    let limit = dataset.drift_epoch().unwrap_or(u64::MAX);
    let mut seen = 0u64;
    while let Some(key) = stream.next_key() {
        counter.observe(&key);
        seen += 1;
        if seen >= limit {
            break;
        }
    }
    counter.p1()
}

/// Figure 1: imbalance vs. number of workers on the Wikipedia-like dataset.
///
/// Reproduces the motivating figure: PKG keeps the imbalance low at small
/// scale (5–10 workers) but degrades sharply at 20, 50 and 100 workers,
/// while D-Choices and W-Choices stay several orders of magnitude lower.
pub fn fig01_wp_scale(o: &ExperimentOptions) {
    print_header(
        "Figure 1",
        "Imbalance I(m) vs workers on WP for PKG, D-C, W-C",
        o,
    );
    let dataset = SyntheticDataset::wikipedia_like(o.scale.dataset_scale(), o.seed);
    let mut table = Table::new(
        "fig01_wp_scale",
        &[
            text("scheme", 8),
            int("workers", 8),
            sci("imbalance", 14),
            sci("mean_imbalance", 14),
        ],
    );
    let headline = imbalance_vs_workers(&dataset, |r| {
        table.row(&[&r.scheme, &r.workers, &r.imbalance, &r.mean_imbalance]);
    });
    table.emit(o.json_dir.as_deref());

    // The headline comparison the paper draws from this figure.
    for (n, pkg, wc) in headline {
        let reduction = if wc > 0.0 {
            (pkg / wc).round()
        } else {
            f64::INFINITY
        };
        println!("# at n={n}: PKG imbalance {pkg:.3e} vs W-C {wc:.3e} ({reduction}x reduction)");
    }
}

/// Figure 11: imbalance on the real-world-like datasets (WP, TW, CT) as a
/// function of the number of workers, for PKG, D-C and W-C.
pub fn fig11_realworld(o: &ExperimentOptions) {
    print_header("Figure 11", "Imbalance vs workers on WP, TW, CT", o);
    let mut table = Table::new(
        "fig11_realworld",
        &[
            text("dataset", 8),
            text("scheme", 8),
            int("workers", 8),
            sci("imbalance", 14),
            sci("mean_imbalance", 14),
        ],
    );
    let mut footer = Vec::new();
    for ds in SyntheticDataset::real_world_suite(o.scale.dataset_scale(), o.seed) {
        let symbol = ds.stats().kind.symbol();
        let headline = imbalance_vs_workers(&ds, |r| {
            table.row(&[
                &symbol,
                &r.scheme,
                &r.workers,
                &r.imbalance,
                &r.mean_imbalance,
            ]);
        });
        for (n, pkg, wc) in headline {
            footer.push(format!(
                "# {symbol} at n={n}: PKG {pkg:.3e} vs W-C {wc:.3e}"
            ));
        }
    }
    table.emit(o.json_dir.as_deref());
    for line in footer {
        println!("{line}");
    }
}

/// Figure 12: load imbalance over time for the real-world-like datasets.
///
/// Replays WP-, TW- and CT-like streams under PKG, D-C and W-C, sampling the
/// imbalance at regular checkpoints. The cashtag dataset's concept drift is
/// visible as elevated and more variable imbalance, especially for PKG.
pub fn fig12_time_series(o: &ExperimentOptions) {
    print_header("Figure 12", "Imbalance over time on TW, WP, CT", o);
    let worker_counts: Vec<usize> = match o.scale {
        ExperimentScale::Smoke => vec![5, 50],
        _ => vec![5, 10, 20, 50, 100],
    };
    let mut table = Table::new(
        "fig12_time_series",
        &[
            text("dataset", 8),
            text("scheme", 8),
            int("workers", 8),
            int("messages", 12),
            sci("imbalance", 14),
        ],
    );
    // Stability summary: final vs. median imbalance per series.
    let mut footer = Vec::new();
    for ds in SyntheticDataset::real_world_suite(o.scale.dataset_scale(), o.seed) {
        let symbol = ds.stats().kind.symbol();
        for &workers in &worker_counts {
            for kind in SCHEMES {
                let r = replay(&ds, kind, workers, 20);
                for p in &r.time_series {
                    table.row(&[&symbol, &r.scheme, &workers, &p.messages, &p.imbalance]);
                }
                let mut imbs: Vec<f64> = r.time_series.iter().map(|p| p.imbalance).collect();
                let Some(&last) = imbs.last() else {
                    continue;
                };
                imbs.sort_by(f64::total_cmp);
                let median = imbs[imbs.len() / 2];
                footer.push(format!(
                    "#   {:<4} {:<5} {:>4} {:>14} {:>14}",
                    symbol,
                    r.scheme,
                    workers,
                    format!("{median:.3e}"),
                    format!("{last:.3e}")
                ));
            }
        }
    }
    table.emit(o.json_dir.as_deref());
    println!("# per-series summary (dataset, scheme, workers, median I, final I):");
    for line in footer {
        println!("{line}");
    }
}
