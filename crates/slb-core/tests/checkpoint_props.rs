//! Property suite for the checkpoint log: a base record plus delta records
//! folds to exactly the state a full snapshot would have captured.
//!
//! A worker writes one record per window close — a full
//! [`WorkerCheckpoint`] when its log (re)starts, a [`CheckpointDelta`]
//! otherwise — and which closes rebase depends on byte counts the run's
//! interleaving decides. Recovery must therefore be right for *every*
//! placement of the bases. For random worker histories the properties are:
//!
//! 1. **Fold identity** — for every close `r` taken as the rebase point,
//!    the snapshot at `r` with the deltas of closes `r+1..=c` applied equals
//!    the snapshot at `c`, for every later `c` up to the end of the history
//!    — through the encoded bytes ([`WorkerCheckpoint::restore`]) and
//!    through [`WorkerCheckpoint::apply`] alike.
//! 2. **Slicing does not matter** — the deltas restore the same whether
//!    handed over one record per slice (an on-disk log) or back to back in
//!    one buffer (the in-memory log).
//! 3. **A stale record never applies** — a delta that is repeated or comes
//!    from earlier in the history is rejected and leaves the state
//!    untouched; the one for the next close applies.
//! 4. **Rebase-rule bounds** — a log that starts a new base whenever
//!    [`deltas_outweigh_base`] says so never holds more than its base twice
//!    over plus one record, and writes at most three times the bytes of its
//!    deltas (plus the first base) over its life.

use proptest::prelude::*;

use slb_core::{deltas_outweigh_base, CheckpointDelta, OpenWindowState, WorkerCheckpoint};
use slb_hash::SplitMix64;

/// One worker's life as the sequence of its window closes: the full
/// snapshot at each close, and the delta that leads to it from the close
/// before (`deltas[0]` leads to `snapshots[0]` from the empty state and is
/// never applied — a log starts with a base).
struct History {
    snapshots: Vec<WorkerCheckpoint>,
    deltas: Vec<CheckpointDelta>,
}

/// Derives a history from one generated seed (the offline proptest shim has
/// no mapped or tuple strategies to build it from).
fn history(seed: u64, closes: usize, key_space: u64) -> History {
    let mut rng = SplitMix64::new(seed);
    let worker = rng.next_u64() % 16;
    let phases = 1 + (rng.next_u64() % 3) as usize;
    let sources = 1 + (rng.next_u64() % 4) as usize;
    let mut keys = std::collections::BTreeSet::new();
    let mut processed = 0u64;
    let mut phase_counts = vec![0u64; phases];
    let mut next_seq = vec![0u64; sources];
    let mut windows_closed = 0u64;
    let mut history = History {
        snapshots: Vec::new(),
        deltas: Vec::new(),
    };
    for _ in 0..closes {
        // Windows may finalize more than one apart (a close that finalizes
        // nothing writes no record), never zero.
        windows_closed += 1 + rng.next_u64() % 3;
        let tuples = rng.next_u64() % 40;
        let mut fresh = Vec::new();
        for _ in 0..tuples {
            let key = rng.next_u64() % key_space;
            if keys.insert(key) {
                fresh.push(key);
            }
        }
        fresh.sort_unstable();
        processed += tuples;
        phase_counts[(rng.next_u64() % phases as u64) as usize] += tuples;
        for cursor in &mut next_seq {
            *cursor += rng.next_u64() % 5;
        }
        let open: Vec<OpenWindowState> = (0..rng.next_u64() % 3)
            .map(|ahead| OpenWindowState {
                window: windows_closed + ahead,
                closes_seen: rng.next_u64() % sources as u64,
                partial: (rng.next_u64() % 4 != 0).then(|| {
                    (0..rng.next_u64() % 48)
                        .map(|_| rng.next_u64() as u8)
                        .collect()
                }),
            })
            .collect();
        history.snapshots.push(WorkerCheckpoint {
            worker,
            windows_closed,
            processed,
            phase_counts: phase_counts.clone(),
            next_seq: next_seq.clone(),
            state_keys: keys.iter().copied().collect(),
            open: open.clone(),
        });
        history.deltas.push(CheckpointDelta {
            worker,
            windows_closed,
            processed,
            phase_counts: phase_counts.clone(),
            next_seq: next_seq.clone(),
            fresh_keys: fresh,
            open,
        });
    }
    history
}

fn encoded_base(snapshot: &WorkerCheckpoint) -> Vec<u8> {
    let mut bytes = Vec::new();
    snapshot.encode(&mut bytes);
    bytes
}

fn encoded_delta(delta: &CheckpointDelta) -> Vec<u8> {
    let mut bytes = Vec::new();
    delta.encode(&mut bytes);
    bytes
}

proptest! {
    // 64 cases locally; ci.sh raises this via PROPTEST_CASES.
    #![proptest_config(ProptestConfig::with_cases_env(64))]

    #[test]
    fn base_plus_deltas_equals_the_full_snapshot_for_every_rebase_point(
        seed in any::<u64>(),
        closes in 1usize..14,
        // Small spaces make most tuples repeats (empty deltas); large ones
        // make every tuple a new key.
        key_space in 8u64..5_000,
    ) {
        let h = history(seed, closes, key_space);
        let deltas: Vec<Vec<u8>> = h.deltas.iter().map(encoded_delta).collect();
        for rebase in 0..closes {
            let base = encoded_base(&h.snapshots[rebase]);
            let mut folded = h.snapshots[rebase].clone();
            for close in rebase..closes {
                if close > rebase {
                    folded.apply(&h.deltas[close]).expect("the next delta applies");
                }
                prop_assert_eq!(&folded, &h.snapshots[close], "apply: base {} close {}", rebase, close);
                let records = &deltas[rebase + 1..=close];
                let one_per_slice =
                    WorkerCheckpoint::restore(&base, records.iter().map(Vec::as_slice));
                prop_assert_eq!(one_per_slice.as_ref(), Ok(&h.snapshots[close]),
                    "restore: base {} close {}", rebase, close);
                let back_to_back = records.concat();
                prop_assert_eq!(
                    WorkerCheckpoint::restore(&base, [back_to_back.as_slice()]),
                    one_per_slice,
                    "slicing changed the result: base {} close {}", rebase, close
                );
            }
        }
    }

    #[test]
    fn a_stale_record_never_applies(
        seed in any::<u64>(),
        closes in 3usize..10,
        key_space in 8u64..5_000,
    ) {
        let h = history(seed, closes, key_space);
        for at in 0..closes {
            let state = &h.snapshots[at];
            for (other, delta) in h.deltas.iter().enumerate() {
                let mut tried = state.clone();
                let applied = tried.apply(delta);
                if other == at + 1 {
                    prop_assert!(applied.is_ok());
                    prop_assert_eq!(&tried, &h.snapshots[other]);
                } else if other <= at {
                    // A repeat or a step back never advances `windows_closed`.
                    prop_assert!(applied.is_err(), "stale delta {} applied at {}", other, at);
                    prop_assert_eq!(&tried, state);
                }
            }
        }
    }

    #[test]
    fn a_log_following_the_rebase_rule_stays_within_twice_its_base(
        seed in any::<u64>(),
        closes in 2usize..40,
        key_space in 8u64..5_000,
    ) {
        let h = history(seed, closes, key_space);
        let (mut base, mut deltas) = (Vec::new(), Vec::new());
        let mut written = 0usize;
        let mut delta_sized = 0usize;
        for close in 0..closes {
            let delta = encoded_delta(&h.deltas[close]);
            delta_sized += delta.len();
            if base.is_empty() || deltas_outweigh_base(base.len(), deltas.len()) {
                base = encoded_base(&h.snapshots[close]);
                deltas.clear();
                written += base.len();
            } else {
                written += delta.len();
                deltas.extend_from_slice(&delta);
                prop_assert!(deltas.len() <= 2 * base.len().max(delta.len()),
                    "log outgrew its bound at close {}", close);
            }
            let restored = WorkerCheckpoint::restore(&base, [deltas.as_slice()]);
            prop_assert_eq!(restored.as_ref(), Ok(&h.snapshots[close]));
        }
        // Amortised write cost: a base after the first is at most its
        // predecessor plus the deltas since plus this close's own delta,
        // and those deltas outweighed the predecessor — so it costs under
        // twice them, on top of writing them once.
        let first = encoded_base(&h.snapshots[0]).len();
        prop_assert!(written <= first + 3 * delta_sized,
            "wrote {} bytes for {} bytes of deltas after a {}-byte first base",
            written, delta_sized, first);
    }
}
