//! Golden routing decisions: a 64-bit fold of the worker sequence of all six
//! schemes on two fixed streams, pinned as literals.
//!
//! `batch_equivalence` proves the batched and scalar paths agree *with each
//! other*; it cannot see a change that moves both. These literals were
//! captured at commit `6ebffcc` (before the head cut became carried integer
//! state and the tail choice moved into PKG's function), so "routing is
//! bit-identical to the parent" is checked without a parent build. A literal
//! may only change in a PR whose purpose is to change routing decisions.
//!
//! The two streams sit on either side of the D-Choices solver:
//! * n = 8, Zipf 1.4 — the solver gives up on `d < n` (`SwitchToW`), the
//!   shape of every benchmark D-C workload;
//! * n = 50, Zipf 1.0 — the solver settles on `UseD(d)` with `2 < d < n`,
//!   the candidate-cache path no benchmark workload reaches.

use slb_core::{
    build_partitioner, ChoicesDecision, HeadAwarePartitioner, PartitionConfig, Partitioner,
    PartitionerKind,
};

/// `len` draws from Zipf(`z`) over `keys` keys by inverse CDF, driven by a
/// splitmix64 sequence: fixed by its arguments, nothing else.
fn zipf_stream(len: usize, keys: usize, z: f64, seed: u64) -> Vec<u64> {
    let mut cdf: Vec<f64> = Vec::with_capacity(keys);
    let mut sum = 0.0;
    for rank in 1..=keys {
        sum += (rank as f64).powf(-z);
        cdf.push(sum);
    }
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut x = state;
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^= x >> 31;
            let u = (x >> 11) as f64 / (1u64 << 53) as f64 * sum;
            cdf.partition_point(|&c| c <= u).min(keys - 1) as u64
        })
        .collect()
}

/// FNV-1a over the worker sequence, routed the way the engine routes: whole
/// chunks through `route_batch`.
fn fold(partitioner: &mut dyn Partitioner<u64>, keys: &[u64]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut out = Vec::new();
    for chunk in keys.chunks(64) {
        partitioner.route_batch(chunk, &mut out);
        for &worker in &out {
            hash = (hash ^ worker as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

fn folds(keys: &[u64], cfg: &PartitionConfig) -> Vec<(&'static str, u64)> {
    PartitionerKind::ALL
        .iter()
        .map(|&kind| {
            let mut partitioner = build_partitioner::<u64>(kind, cfg);
            (kind.symbol(), fold(partitioner.as_mut(), keys))
        })
        .collect()
}

#[test]
fn eight_workers_zipf_1_4_switches_to_w() {
    let keys = zipf_stream(200_000, 100_000, 1.4, 21);
    let cfg = PartitionConfig::new(8).with_seed(42);
    assert_eq!(
        folds(&keys, &cfg),
        [
            ("KG", 0xb830_a738_5610_fe5b),
            ("PKG", 0x6c04_73d7_b27e_a815),
            ("D-C", 0xad2c_1910_fba4_3a68),
            ("W-C", 0x3e2f_084d_e7ed_e75a),
            ("RR", 0xdfb3_7ef7_8d16_5445),
            ("SG", 0xd17a_0498_778a_7de5),
        ]
    );
    let mut dc = HeadAwarePartitioner::<u64>::d_choices(&cfg);
    fold(&mut dc, &keys);
    assert_eq!(dc.solver_decision(), ChoicesDecision::SwitchToW);
    assert!(dc.head().snapshot().cardinality() >= 3);
}

#[test]
fn fifty_workers_zipf_1_0_uses_d_below_n() {
    let keys = zipf_stream(200_000, 10_000, 1.0, 22);
    let cfg = PartitionConfig::new(50).with_seed(7);
    assert_eq!(
        folds(&keys, &cfg),
        [
            ("KG", 0x15c6_24de_0397_a521),
            ("PKG", 0xb52d_564e_d0a9_dba8),
            ("D-C", 0x471e_fee6_b7f1_ee19),
            ("W-C", 0x69e7_42a9_6949_277b),
            ("RR", 0xaa07_ed7e_822a_608e),
            ("SG", 0xaf26_b51b_2953_e5a5),
        ]
    );
    let mut dc = HeadAwarePartitioner::<u64>::d_choices(&cfg);
    fold(&mut dc, &keys);
    match dc.solver_decision() {
        ChoicesDecision::UseD(d) => assert!(d > 2 && d < 50, "d = {d}"),
        ChoicesDecision::SwitchToW => panic!("this stream must stay on the UseD path"),
    }
    assert!(dc.head().snapshot().cardinality() >= 3);
}
