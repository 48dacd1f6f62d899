//! Criterion micro-benchmarks for the heavy-hitter substrate: SpaceSaving
//! update cost on a skewed stream (z = 1.2, mostly hits) and a flat one
//! (z = 0.6, mostly evictions), and the cost of merging per-source summaries.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use slb_sketch::{merge::merge_space_saving, FrequencyEstimator, SpaceSaving};
use slb_workloads::zipf::ZipfGenerator;
use slb_workloads::KeyStream;

fn sketch_updates(c: &mut Criterion) {
    let messages = 100_000u64;
    let mut group = c.benchmark_group("sketch_update");
    // Each iteration streams 100k updates; small sample count keeps the
    // suite fast without hurting the signal for O(1)-per-update structures.
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.throughput(Throughput::Elements(messages));
    for &capacity in &[100usize, 1_000] {
        for (name, skew) in [("space_saving", 1.2), ("space_saving_z0.6", 0.6)] {
            group.bench_with_input(
                BenchmarkId::new(name, capacity),
                &capacity,
                |b, &capacity| {
                    b.iter(|| {
                        let mut ss = SpaceSaving::new(capacity);
                        let mut stream = ZipfGenerator::with_limit(100_000, skew, 3, messages);
                        while let Some(k) = KeyStream::next_key(&mut stream) {
                            ss.observe(black_box(&k));
                        }
                        black_box(ss.len())
                    })
                },
            );
        }
    }
    group.finish();
}

fn summary_merge(c: &mut Criterion) {
    let capacity = 500usize;
    let mut summaries = Vec::new();
    for s in 0..5u64 {
        let mut ss = SpaceSaving::new(capacity);
        let mut stream = ZipfGenerator::with_limit(50_000, 1.5, s, 100_000);
        while let Some(k) = KeyStream::next_key(&mut stream) {
            ss.observe(&k);
        }
        summaries.push(ss);
    }
    let refs: Vec<&SpaceSaving<u64>> = summaries.iter().collect();
    c.bench_function("merge_five_source_summaries", |b| {
        b.iter(|| black_box(merge_space_saving(black_box(&refs), capacity)))
    });
}

criterion_group!(benches, sketch_updates, summary_merge);
criterion_main!(benches);
