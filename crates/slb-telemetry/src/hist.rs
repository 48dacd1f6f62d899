//! Fixed-bucket log₂-linear histograms with an associative, commutative
//! merge.
//!
//! # Bucket layout
//!
//! Values below 2^[`SUB_BITS`] (= 16) get one bucket each and are recorded
//! *exactly*. Every larger value lands in one of 16 linear sub-buckets of
//! its power-of-two octave: for a value with floor(log₂ v) = e ≥ 4 the
//! bucket is identified by `(e, top 4 mantissa bits below the leading
//! one)`, so each octave is split into 16 equal-width slices. The full
//! `u64` range fits in [`NUM_BUCKETS`] = 976 buckets (~7.6 KiB of `u64`
//! counts) — bounded memory no matter how many values are recorded, which
//! is the whole point versus retaining raw samples.
//!
//! # Error bound
//!
//! A bucket covering `[floor, floor + width)` has
//! `width / floor ≤ 2⁻⁴ = 6.25 %`. Quantiles report the bucket *floor*
//! (clamped into the exactly-tracked `[min, max]`), so a reported quantile
//! `q̂` satisfies `q̂ ≤ q < q̂ · (1 + 2⁻⁴)`: quantiles under-report by
//! strictly less than 6.25 % relative error, and are exact for values
//! below 16 and for any value whose significand fits in 5 bits
//! (e.g. 96, 100·2ᵏ is *not* such a value but 96·2ᵏ is). `count`, `sum`
//! (hence the mean), `min`, and `max` are always exact.
//!
//! # Merge laws
//!
//! [`LogHistogram::merge`] adds bucket counts element-wise and combines
//! the exact scalars (`count`/`sum` add, `min`/`max` min/max), all of
//! which are associative and commutative with the empty histogram as the
//! identity. Therefore `merge(a, b) == record the union of a's and b's
//! recordings`, in any grouping and order — the property the
//! `histogram_props` suite pins, and what makes per-worker histograms
//! safely mergeable into cluster-wide rollups.

use std::sync::atomic::{AtomicU64, Ordering};

/// Linear sub-bucket resolution: each power-of-two octave is split into
/// `2^SUB_BITS` slices, bounding relative quantile error at `2^-SUB_BITS`.
pub const SUB_BITS: u32 = 4;

/// Sub-buckets per octave (16).
const SUBS: u64 = 1 << SUB_BITS;

/// Total buckets needed to cover all of `u64`: 16 exact unit buckets plus
/// 60 octaves × 16 slices (`bucket_index(u64::MAX) == 975`).
pub const NUM_BUCKETS: usize = 976;

/// The bucket a value is counted in. Total on all of `u64`.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value < SUBS {
        value as usize
    } else {
        let exp = 63 - value.leading_zeros();
        let sub = (value >> (exp - SUB_BITS)) & (SUBS - 1);
        (((exp - (SUB_BITS - 1)) as usize) << SUB_BITS) + sub as usize
    }
}

/// The smallest value that maps to bucket `index` — the quantile
/// representative. `bucket_index(bucket_floor(i)) == i` for every valid
/// index: a floor is a member of its own bucket.
#[inline]
pub fn bucket_floor(index: usize) -> u64 {
    if index < SUBS as usize {
        index as u64
    } else {
        let exp = (index >> SUB_BITS) as u32 + (SUB_BITS - 1);
        let sub = (index as u64) & (SUBS - 1);
        (SUBS + sub) << (exp - SUB_BITS)
    }
}

/// A plain (single-threaded) log₂-linear histogram. See the module docs
/// for the bucket layout, error bound, and merge laws.
///
/// The bucket array is allocated lazily on the first recording, so an
/// empty histogram is a few machine words.
#[derive(Clone, Debug, Default)]
pub struct LogHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl PartialEq for LogHistogram {
    fn eq(&self, other: &Self) -> bool {
        self.count == other.count
            && self.sum == other.sum
            && (self.count == 0 || (self.min == other.min && self.max == other.max))
            && {
                let n = self.counts.len().max(other.counts.len());
                (0..n).all(|i| {
                    self.counts.get(i).copied().unwrap_or(0)
                        == other.counts.get(i).copied().unwrap_or(0)
                })
            }
    }
}

impl Eq for LogHistogram {}

impl LogHistogram {
    /// An empty histogram (no bucket storage until the first record).
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a histogram from its wire parts: the sparse `(bucket, count)`
    /// pairs [`Self::nonzero_buckets`] emits plus the exact scalars. The parts
    /// come from a peer, so they are checked, not trusted: bucket indices in
    /// range and strictly ascending, counts non-zero and summing (without
    /// overflow) to `count`, and `min ≤ max` unless the histogram is empty.
    pub fn from_parts(
        buckets: &[(u32, u64)],
        count: u64,
        sum: u128,
        min: u64,
        max: u64,
    ) -> Result<Self, &'static str> {
        let mut hist = Self::new();
        let mut total = 0u64;
        let mut next = 0usize;
        for &(index, n) in buckets {
            let index = index as usize;
            if index < next || index >= NUM_BUCKETS {
                return Err("histogram buckets must ascend within range");
            }
            if n == 0 {
                return Err("histogram bucket count must be non-zero");
            }
            total = total
                .checked_add(n)
                .ok_or("histogram bucket counts overflow")?;
            hist.ensure_counts();
            hist.counts[index] = n;
            next = index + 1;
        }
        if total != count {
            return Err("histogram bucket counts must sum to its count");
        }
        if count > 0 && min > max {
            return Err("histogram min exceeds its max");
        }
        hist.count = count;
        hist.sum = sum;
        hist.min = min;
        hist.max = max;
        Ok(hist)
    }

    #[inline]
    fn ensure_counts(&mut self) {
        if self.counts.is_empty() {
            self.counts = vec![0; NUM_BUCKETS];
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` occurrences of `value` in O(1).
    #[inline]
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.ensure_counts();
        self.counts[bucket_index(value)] += n;
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += n;
        self.sum += value as u128 * n as u128;
    }

    /// Element-wise merge: afterwards `self` summarizes the union of both
    /// histograms' recordings. Associative and commutative; the empty
    /// histogram is the identity. Counts and the sum saturate instead of
    /// overflowing: two histograms a peer sent can each be valid and still
    /// claim more than `u64::MAX` recordings together.
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            return;
        }
        self.ensure_counts();
        if !other.counts.is_empty() {
            for (into, &from) in self.counts.iter_mut().zip(&other.counts) {
                *into = into.saturating_add(from);
            }
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Values recorded.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of all recorded values.
    #[inline]
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact minimum recorded value (0 when empty).
    #[inline]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum recorded value (0 when empty).
    #[inline]
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Exact mean of all recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank quantile, matching `LatencySummary`'s convention
    /// (`rank = round((count − 1) · p)`, 0-based): the floor of the bucket
    /// holding that rank, clamped into the exact `[min, max]`. Monotone in
    /// `p`, and under-reports by < 2⁻⁴ relative error (module docs).
    pub fn quantile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count - 1) as f64 * p).round() as u64;
        let mut seen = 0u64;
        for (index, &n) in self.counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            seen = seen.saturating_add(n);
            if seen > rank {
                return bucket_floor(index).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// The non-empty buckets as `(index, count)` pairs, ascending by
    /// index — the sparse wire/JSON representation.
    pub fn nonzero_buckets(&self) -> Vec<(u32, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (i as u32, n))
            .collect()
    }
}

/// A thread-shared histogram: the same buckets as [`LogHistogram`] behind
/// relaxed atomics, so a stage thread can record per-batch while an
/// exporter thread snapshots concurrently. Snapshots are *not* a
/// consistent cut across fields (sum/min/max race the buckets by a batch
/// or two) but always a well-formed histogram; the final end-of-run
/// snapshot is taken after the stage quiesces and is exact.
#[derive(Debug)]
pub struct AtomicHistogram {
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    pub fn new() -> Self {
        Self {
            counts: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records `n` occurrences of `value`. Lock-free; relaxed ordering
    /// (monitoring data, amortized to one call per batch).
    #[inline]
    pub fn record_n(&self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[bucket_index(value)].fetch_add(n, Ordering::Relaxed);
        self.sum
            .fetch_add(value.saturating_mul(n), Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    #[inline]
    pub fn record(&self, value: u64) {
        self.record_n(value, 1);
    }

    /// Copies the current contents into a plain histogram — one that
    /// [`LogHistogram::from_parts`] accepts even while a stage records: the
    /// count is the sum of the bucket counts read, and a first record whose
    /// bucket was read before its min / max takes them from the bucket
    /// floors. (A snapshot a peer's decoder rejects ends the sender's
    /// control connection, which the orchestrator reads as a worker's death.)
    pub fn snapshot(&self) -> LogHistogram {
        let mut hist = LogHistogram::new();
        hist.ensure_counts();
        for (into, from) in hist.counts.iter_mut().zip(&self.counts) {
            *into = from.load(Ordering::Relaxed);
        }
        hist.count = hist.counts.iter().sum();
        if hist.count == 0 {
            return LogHistogram::new();
        }
        hist.sum = self.sum.load(Ordering::Relaxed) as u128;
        hist.min = self.min.load(Ordering::Relaxed);
        hist.max = self.max.load(Ordering::Relaxed);
        if hist.min > hist.max {
            let seen = |&i: &usize| hist.counts[i] > 0;
            hist.min = (0..NUM_BUCKETS).find(seen).map_or(0, bucket_floor);
            hist.max = (0..NUM_BUCKETS).rev().find(seen).map_or(0, bucket_floor);
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_covers_u64_and_floor_is_idempotent() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(15), 15);
        assert_eq!(bucket_index(16), 16);
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        for index in 0..NUM_BUCKETS {
            assert_eq!(bucket_index(bucket_floor(index)), index, "index {index}");
        }
    }

    #[test]
    fn buckets_are_monotone_in_value() {
        let mut last = 0;
        for value in [0u64, 1, 15, 16, 17, 31, 32, 100, 1000, 1 << 20, u64::MAX] {
            let index = bucket_index(value);
            assert!(index >= last, "bucket order broke at {value}");
            assert!(bucket_floor(index) <= value);
            last = index;
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut hist = LogHistogram::new();
        for v in 0..16u64 {
            hist.record(v);
        }
        assert_eq!(hist.quantile(0.0), 0);
        assert_eq!(hist.quantile(1.0), 15);
        assert_eq!(hist.count(), 16);
        assert_eq!(hist.sum(), 120);
    }

    #[test]
    fn quantile_error_is_bounded() {
        let mut hist = LogHistogram::new();
        for v in 1..=100_000u64 {
            hist.record(v);
        }
        for (p, exact) in [(0.5, 50_000u64), (0.95, 95_000), (0.99, 99_000)] {
            let got = hist.quantile(p) as f64;
            let exact = exact as f64;
            assert!(got <= exact, "quantile must under-report, got {got}");
            assert!(
                exact < got * (1.0 + 1.0 / 16.0) + 1.0,
                "p{p}: {got} vs exact {exact} exceeds the 6.25% bound"
            );
        }
    }

    #[test]
    fn merge_equals_union() {
        let values_a = [3u64, 17, 17, 1 << 30, 999];
        let values_b = [0u64, 5, 123_456, u64::MAX];
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut union = LogHistogram::new();
        for &v in &values_a {
            a.record(v);
            union.record(v);
        }
        for &v in &values_b {
            b.record(v);
            union.record(v);
        }
        a.merge(&b);
        assert_eq!(a, union);
        // Identity: merging an empty histogram changes nothing.
        let before = a.clone();
        a.merge(&LogHistogram::new());
        assert_eq!(a, before);
    }

    #[test]
    fn atomic_snapshot_matches_plain() {
        let atomic = AtomicHistogram::new();
        let mut plain = LogHistogram::new();
        for v in [1u64, 40, 40, 7_000, 1 << 40] {
            atomic.record(v);
            plain.record(v);
        }
        atomic.record_n(99, 3);
        plain.record_n(99, 3);
        assert_eq!(atomic.snapshot(), plain);
    }

    /// A snapshot taken between a record's bucket increment and its min /
    /// max update — the first record's, then a later one's — is still a
    /// histogram every decoder accepts.
    #[test]
    fn a_snapshot_taken_mid_record_is_well_formed() {
        let decodes = |h: &LogHistogram| {
            LogHistogram::from_parts(&h.nonzero_buckets(), h.count(), h.sum(), h.min(), h.max())
        };
        let atomic = AtomicHistogram::new();
        atomic.counts[bucket_index(40)].fetch_add(2, Ordering::Relaxed);
        let first = atomic.snapshot();
        assert_eq!((first.count(), first.min(), first.max()), (2, 40, 40));
        assert_eq!(decodes(&first), Ok(first));
        atomic.sum.fetch_add(80, Ordering::Relaxed);
        atomic.min.fetch_min(40, Ordering::Relaxed);
        atomic.max.fetch_max(40, Ordering::Relaxed);
        atomic.counts[bucket_index(7_000)].fetch_add(1, Ordering::Relaxed);
        let later = atomic.snapshot();
        assert_eq!((later.count(), later.min(), later.max()), (3, 40, 40));
        assert_eq!(decodes(&later), Ok(later));
    }

    #[test]
    fn from_parts_round_trips_nonzero_buckets() {
        let mut hist = LogHistogram::new();
        for v in [9u64, 17, 17, 400, 1 << 50] {
            hist.record(v);
        }
        let back = LogHistogram::from_parts(
            &hist.nonzero_buckets(),
            hist.count(),
            hist.sum(),
            hist.min(),
            hist.max(),
        );
        assert_eq!(back, Ok(hist));
        assert_eq!(
            LogHistogram::from_parts(&[], 0, 0, 0, 0),
            Ok(LogHistogram::new())
        );
    }

    #[test]
    fn from_parts_rejects_what_no_histogram_emits() {
        let reject = |buckets: &[(u32, u64)], count, min, max| {
            LogHistogram::from_parts(buckets, count, 0, min, max).expect_err("must be rejected")
        };
        reject(&[(3, 1)], 1, 10, 5); // min > max: `quantile`'s clamp would panic
        reject(&[(0, u64::MAX), (0, 1)], u64::MAX, 0, 0); // duplicate index
        reject(&[(0, u64::MAX), (1, 1)], 0, 0, 1); // counts overflow
        reject(&[(5, 1), (4, 1)], 2, 4, 5); // descending
        reject(&[(NUM_BUCKETS as u32, 1)], 1, 0, 0); // out of range
        reject(&[(4, 0)], 0, 0, 0); // zero count
        reject(&[(4, 2)], 3, 4, 4); // counts do not sum to `count`
        reject(&[], 1, 0, 0); // a count with no buckets
    }

    #[test]
    fn merge_saturates_where_it_would_overflow() {
        let huge = |index: u32, sum: u128| {
            LogHistogram::from_parts(&[(index, u64::MAX)], u64::MAX, sum, 3, 3).unwrap()
        };
        let mut a = huge(3, u128::MAX);
        a.merge(&huge(3, u128::MAX));
        a.merge(&huge(2, 1));
        assert_eq!(a.count(), u64::MAX);
        assert_eq!(a.sum(), u128::MAX);
        assert_eq!(a.quantile(0.99), 3);
    }
}
