//! Property suite for the durable checkpoint log codec and store: the
//! load path is **total** and corruption is a *recoverable* error.
//!
//! A respawned worker process owns nothing but its checkpoint directory,
//! and the writer that produced those files may have died at any
//! instruction — so the properties here are exactly the crash cases:
//!
//! 1. **Round-trip identity** — a base and the deltas appended to it load
//!    back bit-for-bit and in order, through the file system.
//! 2. **Totality** — every strict prefix of a base image, every single-bit
//!    flip in it, and arbitrary byte soup decode to an error (or, for soup
//!    that accidentally frames, a value) and never panic; the store's
//!    `load` folds all of it into clean fallback.
//! 3. **A damaged log is an earlier close, never a mix** — truncating a
//!    log at *every* offset, and flipping a bit at *every* offset, yields
//!    the base with an in-order prefix of its deltas (everything before the
//!    damaged record), or — when the damage is in the base — the previous
//!    generation's complete log. Nothing else, and never a panic.
//! 4. **Generation fallback** — corrupting the current base makes `load`
//!    return the *previous* generation's log, deltas included, and the
//!    corruption is observable as a `Corrupt` (not `Io`) error per
//!    generation.
//! 5. **Crashed-rename leftovers are inert** — a torn `.tmp` file from a
//!    writer that died mid-save never changes what loads.

use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use slb_core::{
    decode_checkpoint_log, encode_checkpoint_file, CheckpointFileError, CheckpointLog,
    DurableCheckpointStore,
};

/// A unique scratch directory per test case (the offline proptest shim
/// runs cases sequentially, but unique names also survive a killed run's
/// leftovers).
fn scratch_dir() -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("slb-durable-props-{}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn log(generation: u64, base: &[u8], deltas: &[Vec<u8>]) -> CheckpointLog {
    CheckpointLog {
        generation,
        base: base.to_vec(),
        deltas: deltas.to_vec(),
    }
}

/// Bytes before the base record's payload: magic, generation, length, CRC.
const BASE_HEADER_LEN: usize = 8 + 8 + 4 + 4;
/// Bytes before a delta record's payload: length, CRC.
const RECORD_HEADER_LEN: usize = 4 + 4;

/// How many of `deltas` lie wholly before byte `offset` of the log image
/// that `base` and `deltas` frame to, or `None` when `offset` falls inside
/// the base record.
fn deltas_before(base: &[u8], deltas: &[Vec<u8>], offset: usize) -> Option<usize> {
    let mut end = BASE_HEADER_LEN + base.len();
    if offset < end {
        return None;
    }
    let mut whole = 0;
    for delta in deltas {
        end += RECORD_HEADER_LEN + delta.len();
        if offset < end {
            break;
        }
        whole += 1;
    }
    Some(whole)
}

proptest! {
    // 64 cases locally; ci.sh raises this via PROPTEST_CASES.
    #![proptest_config(ProptestConfig::with_cases_env(64))]

    #[test]
    fn logs_round_trip_through_the_file_system(
        base in proptest::collection::vec(any::<u8>(), 0..2_000),
        deltas in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..300), 0..6),
    ) {
        let dir = scratch_dir();
        let mut store = DurableCheckpointStore::open(&dir, 0).expect("store opens");
        let generation = store.save(&base).expect("base saves");
        for delta in &deltas {
            store.append(delta).expect("delta appends");
        }
        prop_assert_eq!(store.load(), Some(log(generation, &base, &deltas)));
        // Before any append, the file is exactly the base image.
        let image = encode_checkpoint_file(generation, &base);
        let on_disk = fs::read(store.current_path()).expect("current file exists");
        prop_assert_eq!(&on_disk[..image.len()], &image[..]);
        prop_assert_eq!(decode_checkpoint_log(&image).expect("own encoding decodes"),
            log(generation, &base, &[]));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_strict_prefix_of_a_base_image_errors_not_panics(
        generation in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..300),
        fraction in 0.0f64..1.0,
    ) {
        let image = encode_checkpoint_file(generation, &payload);
        let cut = ((image.len() - 1) as f64 * fraction) as usize;
        prop_assert!(decode_checkpoint_log(&image[..cut]).is_err(), "prefix of {} bytes decoded", cut);
    }

    #[test]
    fn every_single_bit_flip_in_a_small_base_image_errors(
        generation in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 1..24),
        byte_fraction in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        // A flip in the magic, length, CRC, or payload must be caught.
        // `generation` is not covered by the CRC, so exempt those 8 bytes
        // (a wrong-but-intact generation is still an intact file; the
        // *store* orders by generation).
        let image = encode_checkpoint_file(generation, &payload);
        let at = ((image.len() - 1) as f64 * byte_fraction) as usize;
        if (8..16).contains(&at) {
            return Ok(());
        }
        let mut corrupt = image.clone();
        corrupt[at] ^= 1 << bit;
        prop_assert!(decode_checkpoint_log(&corrupt).is_err(), "flip at byte {} bit {} decoded", at, bit);
    }

    #[test]
    fn byte_soup_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        let _ = decode_checkpoint_log(&bytes);
    }

    #[test]
    fn a_log_damaged_at_any_offset_loads_an_earlier_close_never_a_mix(
        old_base in proptest::collection::vec(any::<u8>(), 0..40),
        old_deltas in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..20), 0..3),
        base in proptest::collection::vec(any::<u8>(), 0..60),
        deltas in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..40), 1..5),
        bit in 0u8..8,
    ) {
        let dir = scratch_dir();
        let mut store = DurableCheckpointStore::open(&dir, 0).expect("store opens");
        store.save(&old_base).expect("first base");
        for delta in &old_deltas {
            store.append(delta).expect("old delta appends");
        }
        store.save(&base).expect("second base");
        for delta in &deltas {
            store.append(delta).expect("delta appends");
        }
        let previous = log(1, &old_base, &old_deltas);
        let image = fs::read(store.current_path()).expect("current file exists");
        prop_assert_eq!(store.load(), Some(log(2, &base, &deltas)));
        for offset in 0..image.len() {
            // Truncation: the writer died `offset` bytes into the file.
            fs::write(store.current_path(), &image[..offset]).expect("truncate current");
            let expected = match deltas_before(&base, &deltas, offset) {
                Some(whole) => log(2, &base, &deltas[..whole]),
                None => previous.clone(),
            };
            prop_assert_eq!(store.load(), Some(expected), "truncated at {}", offset);
            // Bit rot: everything from the damaged record on is dropped.
            let mut flipped = image.clone();
            flipped[offset] ^= 1 << bit;
            fs::write(store.current_path(), &flipped).expect("corrupt current");
            let expected = match deltas_before(&base, &deltas, offset) {
                Some(whole) => log(2, &base, &deltas[..whole]),
                // The generation field is outside every CRC.
                None if (8..16).contains(&offset) => CheckpointLog {
                    generation: 2 ^ (1u64 << bit) << (8 * (offset - 8)),
                    ..log(2, &base, &deltas)
                },
                None => previous.clone(),
            };
            prop_assert_eq!(store.load(), Some(expected), "bit {} flipped at {}", bit, offset);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_current_base_falls_back_to_previous_generation(
        old_payload in proptest::collection::vec(any::<u8>(), 0..500),
        old_delta in proptest::collection::vec(any::<u8>(), 1..100),
        new_payload in proptest::collection::vec(any::<u8>(), 1..500),
        byte_fraction in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let dir = scratch_dir();
        let mut store = DurableCheckpointStore::open(&dir, 0).expect("store opens");
        store.save(&old_payload).expect("first save");
        store.append(&old_delta).expect("append to the first generation");
        store.save(&new_payload).expect("second save");
        // Corrupt the current file outside the uncovered generation field.
        let mut bytes = fs::read(store.current_path()).expect("current file exists");
        let mut at = ((bytes.len() - 1) as f64 * byte_fraction) as usize;
        if (8..16).contains(&at) {
            at = 16;
        }
        bytes[at] ^= 1 << bit;
        fs::write(store.current_path(), &bytes).expect("rewrite current");
        // Load is total and recovers the previous generation, whole.
        prop_assert_eq!(store.load(), Some(log(1, &old_payload, std::slice::from_ref(&old_delta))));
        // The skipped generation reports corruption, not an I/O failure.
        let generations = store.load_generations();
        prop_assert!(matches!(&generations[0], Err(CheckpointFileError::Corrupt(_))),
            "current generation should be corrupt, got {:?}", generations[0]);
        prop_assert!(generations[1].is_ok());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crashed_rename_leftover_is_inert_and_reopen_continues(
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..200), 1..5),
        torn in proptest::collection::vec(any::<u8>(), 0..100),
    ) {
        let dir = scratch_dir();
        let mut store = DurableCheckpointStore::open(&dir, 4).expect("store opens");
        for payload in &payloads {
            store.save(payload).expect("save");
        }
        let last = payloads.len() as u64;
        // A writer that died mid-save leaves a torn tmp file behind...
        fs::write(store.tmp_path(), &torn).expect("plant torn tmp");
        prop_assert_eq!(store.load(), Some(log(last, payloads.last().unwrap(), &[])));
        drop(store);
        // ...and a respawned process ignores it and keeps the generation
        // counter monotonic.
        let mut respawned = DurableCheckpointStore::open(&dir, 4).expect("store reopens");
        prop_assert_eq!(respawned.generation(), last);
        prop_assert_eq!(respawned.save(b"after respawn").expect("save after respawn"), last + 1);
        prop_assert_eq!(respawned.load(), Some(log(last + 1, b"after respawn", &[])));
        let _ = fs::remove_dir_all(&dir);
    }
}
