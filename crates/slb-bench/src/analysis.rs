//! The experiments that need no stream replay: Figures 3–6 come from the
//! exact Zipf distribution, the FINDOPTIMALCHOICES solver and the replica
//! model of Section IV-B.

use slb_core::{relative_overhead_pct, HeadThreshold, MemoryScheme};
use slb_workloads::zipf::ZipfDistribution;

use crate::table::{fixed, int, text, Table};
use crate::{print_header, zipf_head, ExperimentOptions, KEYS};

/// Figure 3: number of keys in the head of the distribution.
///
/// Shows, for Zipf exponents 0.1…2.0 and the two threshold extremes
/// θ = 1/(5n) and θ = 2/n, how many keys exceed the threshold when |K| = 10⁴
/// (the paper plots n = 50 and n = 100 together; we print both).
pub fn fig03_head_cardinality(o: &ExperimentOptions) {
    print_header("Figure 3", "Cardinality of the head vs skew (|K|=10^4)", o);
    let mut table = Table::new(
        "fig03_head_cardinality",
        &[
            fixed("skew", 6, 1),
            int("workers", 8),
            text("threshold", 12),
            int("cardinality", 12),
        ],
    );
    let thresholds = [HeadThreshold::new(1.0, 5.0), HeadThreshold::new(2.0, 1.0)];
    let mut max_card = 0;
    for z in o.scale.skew_sweep() {
        let dist = ZipfDistribution::new(KEYS, z);
        for workers in [50usize, 100] {
            for t in &thresholds {
                let cardinality = dist.head_cardinality(t.frequency(workers));
                table.row(&[&z, &workers, &t.label(), &cardinality]);
                max_card = max_card.max(cardinality);
            }
        }
    }
    table.emit(o.json_dir.as_deref());
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
    let mut table = Table::new(
        "fig04_d_fraction",
        &[
            fixed("skew", 6, 1),
            int("workers", 8),
            int("d", 6),
            fixed("fraction", 10, 3),
        ],
    );
    // The paper's observation: at larger scales (n = 50, 100) the fraction
    // d/n stays clearly below 1 even at high skew.
    let mut max_fraction = [(50, 0.0f64), (100, 0.0)];
    for z in o.scale.skew_sweep() {
        let dist = ZipfDistribution::new(KEYS, z);
        for workers in [5usize, 10, 50, 100] {
            let (_, d) = zipf_head(&dist, workers);
            let fraction = d as f64 / workers as f64;
            table.row(&[&z, &workers, &d, &fraction]);
            if let Some((_, max)) = max_fraction.iter_mut().find(|(n, _)| *n == workers) {
                *max = max.max(fraction);
            }
        }
    }
    table.emit(o.json_dir.as_deref());
    for (n, max) in max_fraction {
        println!("# n={n}: maximum d/n over the sweep = {max:.3}");
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
    let overheads = memory_overhead(o, "fig05_memory_vs_pkg", "vs_pkg_pct", MemoryScheme::Pkg);
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
    let overheads = memory_overhead(o, "fig06_memory_vs_sg", "vs_sg_pct", MemoryScheme::Shuffle);
    let least_saving = overheads.into_iter().fold(f64::MIN, f64::max);
    println!("# smallest saving vs SG across the sweep: {least_saving:.1}%");
}

/// The replica-model table of Figures 5 and 6: D-C's and W-C's overhead
/// over `baseline`, in percent; returns the printed overheads.
fn memory_overhead(
    o: &ExperimentOptions,
    name: &'static str,
    column: &'static str,
    baseline: MemoryScheme,
) -> Vec<f64> {
    let messages = 10_000_000u64;
    let mut table = Table::new(
        name,
        &[
            fixed("skew", 6, 1),
            int("workers", 8),
            text("scheme", 8),
            fixed(column, 14, 2),
        ],
    );
    let mut overheads = Vec::new();
    for z in o.scale.skew_sweep() {
        let dist = ZipfDistribution::new(KEYS, z);
        let counts: Vec<u64> = dist
            .probabilities()
            .iter()
            .map(|p| (p * messages as f64).round().max(0.0) as u64)
            .collect();
        for workers in [50usize, 100] {
            let (head, d) = zipf_head(&dist, workers);
            for (scheme, label) in [
                (MemoryScheme::DChoices { d }, "D-C"),
                (MemoryScheme::WChoices, "W-C"),
            ] {
                let overhead = relative_overhead_pct(&counts, head, workers, scheme, baseline);
                table.row(&[&z, &workers, &label, &overhead]);
                overheads.push(overhead);
            }
        }
    }
    table.emit(o.json_dir.as_deref());
    overheads
}
