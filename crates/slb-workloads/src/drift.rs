//! Concept drift: streams whose hot keys change identity over time.
//!
//! The paper's cashtag dataset (CT) "is characterized by high concept drift,
//! that is, the distribution of keys changes drastically throughout time",
//! which stresses the heavy-hitter tracker: a key that was hot an hour ago
//! may be cold now and vice versa. [`DriftingGenerator`] wraps any base
//! [`KeyStream`] and re-draws the key-identity mapping every `epoch`
//! messages, so that the *shape* of the distribution is preserved while the
//! *identity* of the hot keys changes abruptly at epoch boundaries — the
//! same qualitative behaviour as a rotating set of trending ticker symbols.

use crate::message::KeyId;
use crate::zipf::ZipfGenerator;
use crate::KeyStream;

/// Wraps a base stream and periodically re-maps key identities.
#[derive(Debug, Clone)]
pub struct DriftingGenerator<S> {
    inner: S,
    epoch: u64,
    produced: u64,
    drift_seed: u64,
    epoch_offset: u64,
    current_epoch: u64,
}

impl<S: KeyStream> DriftingGenerator<S> {
    /// Creates a drifting stream that re-maps identities every `epoch`
    /// messages.
    ///
    /// # Panics
    /// Panics if `epoch == 0`.
    pub fn new(inner: S, epoch: u64, drift_seed: u64) -> Self {
        assert!(epoch > 0, "drift epoch must be positive");
        Self {
            inner,
            epoch,
            produced: 0,
            drift_seed,
            epoch_offset: 0,
            current_epoch: 0,
        }
    }

    /// Starts the epoch counter at `offset` instead of 0, so that a stream
    /// resumed mid-history (e.g. phase `p` of a multi-phase scenario) applies
    /// the identity remap the drift history has reached by then. Offset 0
    /// keeps the first epoch's identities untouched; any later epoch remaps.
    pub fn with_epoch_offset(mut self, offset: u64) -> Self {
        self.epoch_offset = offset;
        self.current_epoch = offset;
        self
    }

    /// The epoch length in messages.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Index of the epoch the next message will belong to.
    pub fn current_epoch(&self) -> u64 {
        self.current_epoch
    }

    /// Applies the epoch-specific bijective remapping to a key identifier.
    #[inline]
    fn remap(&self, key: KeyId) -> KeyId {
        // Epoch 0 keeps the original identities so that a drifting stream
        // with one epoch degenerates to the base stream.
        if self.current_epoch == 0 {
            key
        } else {
            slb_hash::splitmix::splitmix64(
                key ^ self
                    .drift_seed
                    .wrapping_mul(self.current_epoch.wrapping_add(1)),
            )
        }
    }
}

impl DriftingGenerator<ZipfGenerator> {
    /// Re-keys the inner Zipf generator's identity scramble to that of a
    /// generator seeded with `seed` — the same fix [`ZipfGenerator::scrambled_like`]
    /// applies to static streams. Without it, two drifting sources with
    /// different sampler seeds would disagree on which `KeyId` names a rank
    /// even *within* an epoch; with it, the drift remap (a pure function of
    /// key identity, epoch, and drift seed) stays consistent across sources,
    /// so the hot key is the same `KeyId` everywhere at every point in time.
    pub fn scrambled_like(mut self, seed: u64) -> Self {
        self.inner = self.inner.scrambled_like(seed);
        self
    }
}

impl<S: KeyStream> KeyStream for DriftingGenerator<S> {
    fn next_key(&mut self) -> Option<KeyId> {
        let key = self.inner.next_key()?;
        self.current_epoch = self.epoch_offset + self.produced / self.epoch;
        let mapped = self.remap(key);
        self.produced += 1;
        Some(mapped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zipf::ZipfGenerator;

    fn hottest_key(stream: &mut dyn KeyStream, take: u64) -> KeyId {
        let mut counts = std::collections::HashMap::new();
        for _ in 0..take {
            if let Some(k) = stream.next_key() {
                *counts.entry(k).or_insert(0u64) += 1;
            }
        }
        counts
            .into_iter()
            .max_by_key(|&(_, c)| c)
            .map(|(k, _)| k)
            .expect("non-empty stream")
    }

    #[test]
    fn identity_preserved_within_first_epoch() {
        let base = ZipfGenerator::with_limit(100, 1.5, 7, 1_000);
        let plain = ZipfGenerator::with_limit(100, 1.5, 7, 1_000);
        let mut drifting = DriftingGenerator::new(base, 10_000, 3);
        let mut plain = plain;
        for _ in 0..1_000 {
            assert_eq!(
                KeyStream::next_key(&mut drifting),
                KeyStream::next_key(&mut plain)
            );
        }
    }

    #[test]
    fn hot_key_changes_identity_across_epochs() {
        let base = ZipfGenerator::with_limit(1_000, 2.0, 11, 60_000);
        let mut drifting = DriftingGenerator::new(base, 20_000, 5);
        let hot_epoch0 = hottest_key(&mut drifting, 20_000);
        let hot_epoch1 = hottest_key(&mut drifting, 20_000);
        let hot_epoch2 = hottest_key(&mut drifting, 20_000);
        assert_ne!(
            hot_epoch0, hot_epoch1,
            "drift must change the hot key identity"
        );
        assert_ne!(hot_epoch1, hot_epoch2);
    }

    #[test]
    fn drift_preserves_stream_length_and_key_space() {
        let base = ZipfGenerator::with_limit(50, 1.0, 2, 500);
        let mut drifting = DriftingGenerator::new(base, 100, 9);
        // One epoch's keys: the 50 identities the first 100 draws map to.
        let mut epoch0 = std::collections::HashSet::new();
        let mut n = 0;
        while let Some(key) = KeyStream::next_key(&mut drifting) {
            if n < 100 {
                epoch0.insert(key);
            }
            n += 1;
        }
        assert_eq!(n, 500);
        assert!(epoch0.len() <= 50, "{} keys in one epoch", epoch0.len());
    }

    #[test]
    fn epoch_counter_advances() {
        let base = ZipfGenerator::with_limit(10, 1.0, 1, 25);
        let mut drifting = DriftingGenerator::new(base, 10, 4);
        assert_eq!(drifting.current_epoch(), 0);
        for _ in 0..25 {
            KeyStream::next_key(&mut drifting);
        }
        assert_eq!(drifting.current_epoch(), 2);
    }

    #[test]
    #[should_panic(expected = "epoch must be positive")]
    fn zero_epoch_panics() {
        let base = ZipfGenerator::with_limit(10, 1.0, 1, 10);
        let _ = DriftingGenerator::new(base, 0, 0);
    }

    #[test]
    fn epoch_offset_resumes_the_drift_history() {
        // Splitting a drifting stream at an epoch boundary and resuming the
        // tail with `with_epoch_offset` must reproduce the uncut stream
        // tuple for tuple.
        let epoch = 1_000u64;
        let mut uncut =
            DriftingGenerator::new(ZipfGenerator::with_limit(200, 1.5, 3, 2 * epoch), epoch, 9);
        let mut head: Vec<_> = Vec::new();
        for _ in 0..epoch {
            head.push(KeyStream::next_key(&mut uncut).unwrap());
        }
        // Resume: consume the head's sampler draws on a fresh inner
        // generator, then wrap the partially-consumed sampler at offset 1.
        let mut inner = ZipfGenerator::with_limit(200, 1.5, 3, 2 * epoch);
        for _ in 0..epoch {
            KeyStream::next_key(&mut inner).unwrap();
        }
        let mut resumed = DriftingGenerator::new(inner, epoch, 9).with_epoch_offset(1);
        assert_eq!(resumed.current_epoch(), 1);
        for i in 0..epoch {
            assert_eq!(
                KeyStream::next_key(&mut resumed),
                KeyStream::next_key(&mut uncut),
                "tuple {i} of the resumed tail diverged"
            );
        }
        assert!(KeyStream::next_key(&mut uncut).is_none());
    }

    #[test]
    fn shared_scramble_and_drift_seed_align_sources_within_epochs() {
        // Two sources with independent sampler seeds but a shared identity
        // scramble and drift seed must agree on the hot key's identity in
        // every epoch — the multi-source property the engine depends on.
        let epoch = 15_000u64;
        let make = |sampler_seed: u64| {
            DriftingGenerator::new(
                ZipfGenerator::with_limit(500, 2.0, sampler_seed, 3 * epoch),
                epoch,
                77,
            )
            .scrambled_like(42)
        };
        let mut a = make(100);
        let mut b = make(200);
        for round in 0..3 {
            let hot_a = hottest_key(&mut a, epoch);
            let hot_b = hottest_key(&mut b, epoch);
            assert_eq!(hot_a, hot_b, "epoch {round}: sources disagree on hot key");
        }
    }

    #[test]
    fn unshared_scrambles_diverge_under_drift() {
        // Guard that the previous test is not vacuous: without scrambled_like
        // the first-epoch identities differ between sampler seeds.
        let epoch = 10_000u64;
        let mut a =
            DriftingGenerator::new(ZipfGenerator::with_limit(500, 2.0, 100, epoch), epoch, 77);
        let mut b =
            DriftingGenerator::new(ZipfGenerator::with_limit(500, 2.0, 200, epoch), epoch, 77);
        assert_ne!(hottest_key(&mut a, epoch), hottest_key(&mut b, epoch));
    }
}
