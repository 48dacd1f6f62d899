//! Imbalance study: use the simulator to reproduce the core finding of the
//! paper (Figure 1) on a Wikipedia-like workload — two choices stop being
//! enough as the number of workers grows.
//!
//! ```bash
//! cargo run --release --example imbalance_study
//! ```

use slb::core::PartitionerKind;
use slb::simulator::{SimulationConfig, Simulator};
use slb::workloads::datasets::{Dataset, Scale, SyntheticDataset};

fn main() {
    let dataset = SyntheticDataset::wikipedia_like(Scale::Smoke, 11);
    let stats = dataset.stats();
    println!(
        "Workload: {} ({} messages, {} keys, p1 = {:.2}%)\n",
        stats.kind.symbol(),
        stats.messages,
        stats.keys,
        stats.p1 * 100.0
    );

    let schemes = [
        PartitionerKind::Pkg,
        PartitionerKind::DChoices,
        PartitionerKind::WChoices,
    ];
    println!("{:<8} {:>8} {:>16}", "scheme", "workers", "imbalance I(m)");
    for workers in [5usize, 10, 20, 50, 100] {
        for kind in schemes {
            let mut stream = dataset.stream();
            let run = Simulator::run(SimulationConfig::new(kind, workers), stream.as_mut());
            println!("{:<8} {:>8} {:>16.3e}", run.scheme, workers, run.imbalance);
        }
    }

    println!();
    println!("Reading the table: PKG's imbalance grows by orders of magnitude");
    println!("between 5 and 100 workers, while D-Choices and W-Choices stay low —");
    println!("the motivation for giving hot keys more than two choices.");
}
