//! The experiments on the real-world-like datasets: Table I and Figures 1,
//! 11 and 12.

use slb_core::PartitionerKind;
use slb_simulator::experiments::{imbalance_over_time, imbalance_vs_workers, ExperimentScale};
use slb_sketch::{ExactCounter, FrequencyEstimator};
use slb_workloads::datasets::{table1_rows, Dataset, Scale, SyntheticDataset};

use crate::table::{fixed, int, sci, text, Table};
use crate::{print_header, ExperimentOptions};

/// The schemes Figures 1 and 11 compare.
const SCHEMES: [PartitionerKind; 3] = [
    PartitionerKind::Pkg,
    PartitionerKind::DChoices,
    PartitionerKind::WChoices,
];

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
    let rows = imbalance_vs_workers(&[dataset], &SCHEMES, &[5, 10, 20, 50, 100]);
    let mut table = Table::new(
        "fig01_wp_scale",
        &[
            text("scheme", 8),
            int("workers", 8),
            sci("imbalance", 14),
            sci("mean_imbalance", 14),
        ],
    );
    for row in &rows {
        table.row(&[
            &row.scheme,
            &row.workers,
            &row.imbalance,
            &row.mean_imbalance,
        ]);
    }
    table.emit(o.json_dir.as_deref());

    // The headline comparison the paper draws from this figure.
    for n in [50usize, 100] {
        let find = |scheme: &str| {
            rows.iter()
                .find(|r| r.scheme == scheme && r.workers == n)
                .expect("every scheme runs at every worker count")
                .imbalance
        };
        let (pkg, wc) = (find("PKG"), find("W-C"));
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
    let datasets = SyntheticDataset::real_world_suite(o.scale.dataset_scale(), o.seed);
    let rows = imbalance_vs_workers(&datasets, &SCHEMES, &[5, 10, 20, 50, 100]);
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
    for row in &rows {
        table.row(&[
            &row.dataset,
            &row.scheme,
            &row.workers,
            &row.imbalance,
            &row.mean_imbalance,
        ]);
    }
    table.emit(o.json_dir.as_deref());

    for ds in &datasets {
        let symbol = ds.stats().kind.symbol();
        for n in [50usize, 100] {
            let find = |scheme: &str| {
                rows.iter()
                    .find(|r| r.dataset == symbol && r.scheme == scheme && r.workers == n)
            };
            if let (Some(pkg), Some(wc)) = (find("PKG"), find("W-C")) {
                println!(
                    "# {symbol} at n={n}: PKG {:.3e} vs W-C {:.3e}",
                    pkg.imbalance, wc.imbalance
                );
            }
        }
    }
}

/// Figure 12: load imbalance over time for the real-world-like datasets.
///
/// Replays WP-, TW- and CT-like streams under PKG, D-C and W-C, sampling the
/// imbalance at regular checkpoints. The cashtag dataset's concept drift is
/// visible as elevated and more variable imbalance, especially for PKG.
pub fn fig12_time_series(o: &ExperimentOptions) {
    print_header("Figure 12", "Imbalance over time on TW, WP, CT", o);
    let datasets = SyntheticDataset::real_world_suite(o.scale.dataset_scale(), o.seed);
    let worker_counts: Vec<usize> = match o.scale {
        ExperimentScale::Smoke => vec![5, 50],
        _ => vec![5, 10, 20, 50, 100],
    };
    let rows = imbalance_over_time(&datasets, &worker_counts, 20);
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
    for row in &rows {
        for (messages, imbalance) in &row.series {
            table.row(&[&row.dataset, &row.scheme, &row.workers, messages, imbalance]);
        }
    }
    table.emit(o.json_dir.as_deref());

    // Stability summary: final vs. median imbalance per series.
    println!("# per-series summary (dataset, scheme, workers, median I, final I):");
    for row in &rows {
        let mut imbs: Vec<f64> = row.series.iter().map(|(_, i)| *i).collect();
        let Some(&last) = imbs.last() else {
            continue;
        };
        imbs.sort_by(f64::total_cmp);
        let median = imbs[imbs.len() / 2];
        println!(
            "#   {:<4} {:<5} {:>4} {:>14} {:>14}",
            row.dataset,
            row.scheme,
            row.workers,
            format!("{median:.3e}"),
            format!("{last:.3e}")
        );
    }
}
