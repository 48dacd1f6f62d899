//! Criterion micro-benchmarks for the hashing substrate: raw digest
//! throughput and the cost of producing d candidate workers per key.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use slb_hash::{xxhash::xxhash64, HashFamily};

fn digest_throughput(c: &mut Criterion) {
    let keys: Vec<String> = (0..1_000)
        .map(|i| format!("entity/{i}/page-{}", i * 31))
        .collect();
    let total_bytes: u64 = keys.iter().map(|k| k.len() as u64).sum();
    let mut group = c.benchmark_group("digest");
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.throughput(Throughput::Bytes(total_bytes));
    group.bench_function("xxhash64", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for k in &keys {
                acc ^= xxhash64(black_box(k.as_bytes()), 7);
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn candidate_generation(c: &mut Criterion) {
    let family = HashFamily::new(3, 100, 100);
    let mut group = c.benchmark_group("candidates_per_key");
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &d in &[2usize, 5, 20, 100] {
        group.bench_with_input(BenchmarkId::new("d", d), &d, |b, &d| {
            let mut out = Vec::with_capacity(d);
            b.iter(|| {
                for key in 0..1_000u64 {
                    family.choices_into(black_box(&key), d, &mut out);
                    black_box(&out);
                }
            })
        });
    }
    group.finish();
}

/// Candidate generation for string keys: with digest-then-derive the key
/// bytes are hashed once and each extra choice costs one SplitMix64 round,
/// so the d=100 row is barely more expensive than d=2 plus 98 mixes —
/// compare with the per-seed rehash this replaced, where cost was d full
/// passes over the key bytes.
fn candidate_generation_string_keys(c: &mut Criterion) {
    let family = HashFamily::new(3, 100, 100);
    let keys: Vec<String> = (0..1_000)
        .map(|i| format!("entity/{i}/page-{}", i * 31))
        .collect();
    let mut group = c.benchmark_group("candidates_per_key_str");
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &d in &[2usize, 5, 20, 100] {
        group.bench_with_input(BenchmarkId::new("d", d), &d, |b, &d| {
            let mut out = Vec::with_capacity(d);
            b.iter(|| {
                for key in &keys {
                    family.choices_into(black_box(key), d, &mut out);
                    black_box(&out);
                }
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    digest_throughput,
    candidate_generation,
    candidate_generation_string_keys
);
criterion_main!(benches);
