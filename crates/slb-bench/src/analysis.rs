//! The experiments that need no stream replay: Figures 3–6 come from the
//! exact Zipf distribution, the FINDOPTIMALCHOICES solver and the replica
//! model of Section IV-B.

use slb_simulator::experiments::{
    d_fraction_vs_skew, head_cardinality_vs_skew, memory_overhead_vs_skew, MemoryRow,
};

use crate::table::{fixed, int, text, Table};
use crate::{print_header, ExperimentOptions};

/// Figure 3: number of keys in the head of the distribution.
///
/// Shows, for Zipf exponents 0.1…2.0 and the two threshold extremes
/// θ = 1/(5n) and θ = 2/n, how many keys exceed the threshold when |K| = 10⁴
/// (the paper plots n = 50 and n = 100 together; we print both).
pub fn fig03_head_cardinality(o: &ExperimentOptions) {
    print_header("Figure 3", "Cardinality of the head vs skew (|K|=10^4)", o);
    let rows = head_cardinality_vs_skew(&[50, 100], 10_000, &o.scale.skew_sweep());
    let mut table = Table::new(
        "fig03_head_cardinality",
        &[
            fixed("skew", 6, 1),
            int("workers", 8),
            text("threshold", 12),
            int("cardinality", 12),
        ],
    );
    for row in &rows {
        table.row(&[&row.skew, &row.workers, &row.threshold, &row.cardinality]);
    }
    table.emit(o.json_dir.as_deref());
    let max_card = rows.iter().map(|r| r.cardinality).max().unwrap_or(0);
    println!("# maximum head cardinality across the sweep: {max_card} keys");
    println!("# (the paper's Figure 3 peaks below ~70 keys for these settings)");
}

/// Figure 4: fraction of workers (d/n) used by D-Choices for the head.
///
/// Runs the FINDOPTIMALCHOICES solver on the exact Zipf distribution for
/// every skew in the sweep and n ∈ {5, 10, 50, 100}, with |K| = 10⁴ and
/// ε = 10⁻⁴ as in the paper.
pub fn fig04_d_fraction(o: &ExperimentOptions) {
    print_header("Figure 4", "Fraction of workers d/n used by D-C vs skew", o);
    let rows = d_fraction_vs_skew(&[5, 10, 50, 100], 10_000, &o.scale.skew_sweep(), 1e-4);
    let mut table = Table::new(
        "fig04_d_fraction",
        &[
            fixed("skew", 6, 1),
            int("workers", 8),
            int("d", 6),
            fixed("fraction", 10, 3),
        ],
    );
    for row in &rows {
        table.row(&[&row.skew, &row.workers, &row.d, &row.fraction]);
    }
    table.emit(o.json_dir.as_deref());

    // The paper's observation: at larger scales (n = 50, 100) the fraction
    // d/n stays clearly below 1 even at high skew.
    for n in [50usize, 100] {
        let max_fraction = rows
            .iter()
            .filter(|r| r.workers == n)
            .map(|r| r.fraction)
            .fold(0.0f64, f64::max);
        println!("# n={n}: maximum d/n over the sweep = {max_fraction:.3}");
    }
}

/// Figure 5: estimated memory overhead of D-C and W-C with respect to PKG.
///
/// Uses the per-key replica model of Section IV-B on a Zipf workload with
/// |K| = 10⁴ and 10⁷ messages, for n ∈ {50, 100}. Positive percentages mean
/// more memory than PKG; the paper reports at most ~25–30% in the worst case
/// and D-C consistently below W-C.
pub fn fig05_memory_vs_pkg(o: &ExperimentOptions) {
    print_header("Figure 5", "Memory overhead w.r.t. PKG (%) vs skew", o);
    let overheads = memory_overhead(o, "fig05_memory_vs_pkg", "vs_pkg_pct", |r| r.vs_pkg_pct);
    let worst = overheads.into_iter().fold(0.0f64, f64::max);
    println!("# worst-case overhead vs PKG across the sweep: {worst:.1}%");
}

/// Figure 6: estimated memory overhead of D-C and W-C with respect to SG.
///
/// Same model and parameters as Figure 5, but relative to shuffle grouping.
/// Values are negative: the head-aware schemes use a small fraction of the
/// memory shuffle grouping needs (the paper reports at least ~80% savings).
pub fn fig06_memory_vs_sg(o: &ExperimentOptions) {
    print_header("Figure 6", "Memory overhead w.r.t. SG (%) vs skew", o);
    let overheads = memory_overhead(o, "fig06_memory_vs_sg", "vs_sg_pct", |r| r.vs_sg_pct);
    let least_saving = overheads.into_iter().fold(f64::MIN, f64::max);
    println!("# smallest saving vs SG across the sweep: {least_saving:.1}%");
}

/// The replica-model table of Figures 5 and 6, against the baseline
/// `overhead` picks; returns the printed overheads.
fn memory_overhead(
    o: &ExperimentOptions,
    name: &'static str,
    column: &'static str,
    overhead: fn(&MemoryRow) -> f64,
) -> Vec<f64> {
    let rows = memory_overhead_vs_skew(&[50, 100], 10_000, 10_000_000, &o.scale.skew_sweep(), 1e-4);
    let mut table = Table::new(
        name,
        &[
            fixed("skew", 6, 1),
            int("workers", 8),
            text("scheme", 8),
            fixed(column, 14, 2),
        ],
    );
    for row in &rows {
        table.row(&[&row.skew, &row.workers, &row.scheme, &overhead(row)]);
    }
    table.emit(o.json_dir.as_deref());
    rows.iter().map(overhead).collect()
}
