//! Durable on-disk checkpoint storage for worker recovery.
//!
//! The in-memory `CheckpointStore` in `slb-engine` stands in for a durable
//! medium when faults are *simulated* inside one process. This module is
//! the real medium for process-level fault tolerance: a respawned
//! `slb-node worker` has nothing but its checkpoint directory, so the
//! bytes it reads back must survive a crash at **any** instruction of the
//! writer — including mid-`write` and mid-`rename`.
//!
//! The store holds a checkpoint *log*: one base record and the delta
//! records appended since (see [`crate::checkpoint`]). Three mechanisms
//! make it crash-safe:
//!
//! * **Atomic replace of the base.** [`DurableCheckpointStore::save`]
//!   writes the framed base to a temporary file, `sync_all`s it, renames
//!   the current log to the `.prev` generation, and renames the temporary
//!   file into place. Renames within a directory are atomic on POSIX, so at
//!   every instant the directory holds at least one intact log.
//! * **Append-only deltas.** [`DurableCheckpointStore::append`] adds one
//!   CRC-framed record to the end of the current log and `sync_data`s it.
//!   Nothing before the append position is ever rewritten, so a crash
//!   mid-append can only damage the record being appended.
//! * **Self-validating framing.** The base carries a magic and a
//!   monotonically increasing generation counter; every record carries its
//!   payload length and a CRC-32 of the payload.
//!   [`decode_checkpoint_log`] is **total**: truncated, bit-flipped, or
//!   arbitrary bytes never panic. A damaged base is a
//!   [`CheckpointFileError`] — [`DurableCheckpointStore::load`] then falls
//!   back to the previous generation — and a damaged delta ends the log at
//!   the last intact record before it, which is simply an earlier close.
//!
//! The payloads are opaque here (the store neither knows nor cares that the
//! engine puts an encoded [`crate::WorkerCheckpoint`] and
//! [`crate::CheckpointDelta`]s in them); totality of the *payload* decode is
//! the checkpoint codec's own property.
//!
//! ## On-disk format
//!
//! ```text
//! log    := magic:"SLBCKPT1" generation:u64le record record*
//! record := payload_len:u32le crc32:u32le payload
//! ```
//!
//! The first record is the base, the rest are deltas in append order; a
//! delta's payload is never empty. `crc32` is the IEEE CRC-32 (the zlib/PNG
//! polynomial, reflected, init/xorout `0xFFFF_FFFF`) of the payload bytes
//! alone — the length is covered implicitly because a corrupt
//! `payload_len` changes which bytes the CRC is computed over.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// File magic: identifies a checkpoint log and pins format version 1.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"SLBCKPT1";

/// Bytes before the base record: magic + generation.
const PREFIX_LEN: usize = 8 + 8;

/// Per-record header length: payload length + CRC.
const RECORD_HEADER_LEN: usize = 4 + 4;

/// Why a checkpoint log failed to load. `Corrupt` is *expected* after a
/// crash mid-save (a torn write to the temporary file that a later crash
/// left in place never reaches the current name, but defense in depth is
/// the point of the CRC); the store recovers by falling back one
/// generation.
#[derive(Debug)]
pub enum CheckpointFileError {
    /// The file could not be read (not found, permissions, I/O error).
    Io(std::io::Error),
    /// The bytes do not start with an intact base: bad magic, truncated
    /// header or payload, or a length/CRC mismatch.
    Corrupt(&'static str),
}

impl std::fmt::Display for CheckpointFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointFileError::Io(e) => write!(f, "checkpoint file unreadable: {e}"),
            CheckpointFileError::Corrupt(what) => write!(f, "checkpoint file corrupt: {what}"),
        }
    }
}

impl std::error::Error for CheckpointFileError {}

impl From<std::io::Error> for CheckpointFileError {
    fn from(e: std::io::Error) -> Self {
        CheckpointFileError::Io(e)
    }
}

/// IEEE CRC-32 lookup table (reflected polynomial `0xEDB8_8320`), built at
/// compile time so the hot save path pays one table lookup per byte.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// IEEE CRC-32 (zlib/PNG variant) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Appends one record (`payload_len crc32 payload`) to `out`.
fn write_record(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Reads one intact record from the front of `input`, advancing it.
fn read_record<'a>(input: &mut &'a [u8]) -> Result<&'a [u8], CheckpointFileError> {
    if input.len() < RECORD_HEADER_LEN {
        return Err(CheckpointFileError::Corrupt("record header truncated"));
    }
    let payload_len = u32::from_le_bytes(input[..4].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_le_bytes(input[4..8].try_into().expect("4 bytes"));
    let rest = &input[RECORD_HEADER_LEN..];
    if rest.len() < payload_len {
        return Err(CheckpointFileError::Corrupt("payload truncated"));
    }
    let (payload, rest) = rest.split_at(payload_len);
    if crc32(payload) != crc {
        return Err(CheckpointFileError::Corrupt("payload CRC mismatch"));
    }
    *input = rest;
    Ok(payload)
}

/// Frames `base` as the image of a new checkpoint log for `generation`:
/// the file a [`DurableCheckpointStore::save`] puts in place, before any
/// delta is appended.
pub fn encode_checkpoint_file(generation: u64, base: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(PREFIX_LEN + RECORD_HEADER_LEN + base.len());
    out.extend_from_slice(&CHECKPOINT_MAGIC);
    out.extend_from_slice(&generation.to_le_bytes());
    write_record(&mut out, base);
    out
}

/// What one checkpoint log file holds: the base payload and the payloads of
/// the delta records appended to it, in order, up to the first record that
/// is not intact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointLog {
    /// Generation of the base (one per [`DurableCheckpointStore::save`]).
    pub generation: u64,
    /// The base record's payload.
    pub base: Vec<u8>,
    /// The intact delta payloads, oldest first.
    pub deltas: Vec<Vec<u8>>,
}

/// Decodes a checkpoint log image.
///
/// Total: any byte sequence that does not start with an intact base —
/// wrong magic, truncation, a CRC mismatch from a bit flip — returns
/// [`CheckpointFileError::Corrupt`]. After the base, records are taken
/// while they are intact; a torn, bit-flipped or empty one ends the log
/// there (everything after it is unreachable, since record boundaries are
/// only known by walking them). No input panics.
pub fn decode_checkpoint_log(bytes: &[u8]) -> Result<CheckpointLog, CheckpointFileError> {
    if bytes.len() < PREFIX_LEN {
        return Err(CheckpointFileError::Corrupt("shorter than the header"));
    }
    if bytes[..8] != CHECKPOINT_MAGIC {
        return Err(CheckpointFileError::Corrupt("bad magic"));
    }
    let generation = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let mut input = &bytes[PREFIX_LEN..];
    let base = read_record(&mut input)?.to_vec();
    let mut deltas = Vec::new();
    while let Ok(payload) = read_record(&mut input) {
        // Eight zero bytes frame an "intact" empty record; no writer emits
        // one, so it marks a zero-filled tail, not a delta.
        if payload.is_empty() {
            break;
        }
        deltas.push(payload.to_vec());
    }
    Ok(CheckpointLog {
        generation,
        base,
        deltas,
    })
}

/// A per-worker durable checkpoint log backed by files in a directory:
/// `worker-{w}.ckpt` (current generation: a base plus appended deltas),
/// `worker-{w}.ckpt.prev` (the generation before it, complete up to the
/// close that preceded the current base), and a transient
/// `worker-{w}.ckpt.tmp` that exists only mid-save. See the module docs for
/// the crash-safety argument.
#[derive(Debug)]
pub struct DurableCheckpointStore {
    current: PathBuf,
    prev: PathBuf,
    tmp: PathBuf,
    generation: u64,
    /// The current log, open for appending — only once *this* store has
    /// written its base: a predecessor's log may end in a torn record, and
    /// anything appended after that would be unreachable.
    log: Option<fs::File>,
    /// Reused framing buffer, so an append is one `write_all`.
    frame: Vec<u8>,
}

impl DurableCheckpointStore {
    /// Opens (creating the directory if needed) worker `worker`'s slot
    /// under `dir`. If intact generations already exist — this process is
    /// a respawn — the next save continues the generation counter past
    /// the newest loadable one.
    pub fn open(dir: &Path, worker: usize) -> std::io::Result<Self> {
        fs::create_dir_all(dir)?;
        let base = dir.join(format!("worker-{worker}.ckpt"));
        let mut store = Self {
            prev: base.with_extension("ckpt.prev"),
            tmp: base.with_extension("ckpt.tmp"),
            current: base,
            generation: 0,
            log: None,
            frame: Vec::new(),
        };
        if let Some(log) = store.load() {
            store.generation = log.generation;
        }
        Ok(store)
    }

    /// Atomically replaces the current log with a new one holding only the
    /// base record `payload`, under the next generation number, keeping the
    /// previous log on disk. Returns the generation written.
    pub fn save(&mut self, payload: &[u8]) -> std::io::Result<u64> {
        // Whatever happens below, the old handle must not take appends
        // meant for the new base.
        self.log = None;
        let generation = self.generation + 1;
        let image = encode_checkpoint_file(generation, payload);
        let mut file = fs::File::create(&self.tmp)?;
        file.write_all(&image)?;
        file.sync_all()?;
        // Demote the current generation before promoting the new one: a
        // crash between the two renames leaves `.prev` intact and no
        // current file, which `load` handles by falling back.
        match fs::rename(&self.current, &self.prev) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        fs::rename(&self.tmp, &self.current)?;
        self.generation = generation;
        // The handle follows the file through the rename and sits at its
        // end, where the deltas go.
        self.log = Some(file);
        Ok(generation)
    }

    /// Appends one delta record to the current log and makes it durable.
    ///
    /// Errors without writing if this store has not [`save`](Self::save)d a
    /// base itself (see the `log` field), and after any failed append (the
    /// tail may be torn): the next `save` starts a clean log either way.
    ///
    /// # Panics
    /// Panics on an empty `payload`, which the log format reserves.
    pub fn append(&mut self, payload: &[u8]) -> std::io::Result<()> {
        assert!(!payload.is_empty(), "delta records must not be empty");
        let Some(mut file) = self.log.take() else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "no base saved by this store to append a delta to",
            ));
        };
        self.frame.clear();
        write_record(&mut self.frame, payload);
        file.write_all(&self.frame)?;
        file.sync_data()?;
        self.log = Some(file);
        Ok(())
    }

    /// Loads the newest intact log: the current file if its base decodes,
    /// else the previous generation if that does. Total — I/O errors,
    /// missing files, and corruption all fold into `None` (a worker with
    /// no loadable checkpoint starts from empty state and replays from
    /// sequence zero, which is always correct).
    pub fn load(&self) -> Option<CheckpointLog> {
        [&self.current, &self.prev]
            .into_iter()
            .find_map(|path| Self::load_path(path).ok())
    }

    /// Like [`load`](Self::load), but reporting *why* each generation was
    /// skipped: one result per generation file, newest first. Lets callers
    /// (and the proptests) distinguish "no checkpoint yet" from "current
    /// corrupt, recovered from previous".
    pub fn load_generations(&self) -> Vec<Result<CheckpointLog, CheckpointFileError>> {
        [&self.current, &self.prev]
            .into_iter()
            .map(|path| Self::load_path(path))
            .collect()
    }

    /// The generation the next save will write minus one: zero before any
    /// save, continuing across respawns.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Path of the current-generation file (tests corrupt it in place).
    pub fn current_path(&self) -> &Path {
        &self.current
    }

    /// Path of the transient mid-save file (a crashed save may leave it).
    pub fn tmp_path(&self) -> &Path {
        &self.tmp
    }

    fn load_path(path: &Path) -> Result<CheckpointLog, CheckpointFileError> {
        decode_checkpoint_log(&fs::read(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch_dir(name: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("slb-durable-{name}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn log(generation: u64, base: &[u8], deltas: &[&[u8]]) -> CheckpointLog {
        CheckpointLog {
            generation,
            base: base.to_vec(),
            deltas: deltas.iter().map(|d| d.to_vec()).collect(),
        }
    }

    #[test]
    fn crc32_matches_the_standard_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn save_then_load_round_trips_and_generations_advance() {
        let dir = scratch_dir("roundtrip");
        let mut store = DurableCheckpointStore::open(&dir, 3).unwrap();
        assert_eq!(store.load(), None);
        assert_eq!(store.save(b"alpha").unwrap(), 1);
        assert_eq!(store.load(), Some(log(1, b"alpha", &[])));
        assert_eq!(store.save(b"beta").unwrap(), 2);
        assert_eq!(store.load(), Some(log(2, b"beta", &[])));
        // The demoted generation is still on disk.
        let generations = store.load_generations();
        assert!(matches!(&generations[1], Ok(l) if *l == log(1, b"alpha", &[])));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn appended_deltas_load_in_order_and_a_new_base_demotes_the_whole_log() {
        let dir = scratch_dir("append");
        let mut store = DurableCheckpointStore::open(&dir, 0).unwrap();
        store.save(b"base-1").unwrap();
        store.append(b"d1").unwrap();
        store.append(b"d2").unwrap();
        assert_eq!(store.load(), Some(log(1, b"base-1", &[b"d1", b"d2"])));
        store.save(b"base-2").unwrap();
        store.append(b"d3").unwrap();
        assert_eq!(store.load(), Some(log(2, b"base-2", &[b"d3"])));
        let generations = store.load_generations();
        assert!(matches!(&generations[1], Ok(l) if *l == log(1, b"base-1", &[b"d1", b"d2"])));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_needs_a_base_saved_by_this_store() {
        let dir = scratch_dir("append-no-base");
        let mut store = DurableCheckpointStore::open(&dir, 0).unwrap();
        assert!(store.append(b"orphan").is_err());
        store.save(b"base").unwrap();
        store.append(b"d1").unwrap();
        drop(store);
        // A respawn must not extend its predecessor's log, whose tail it
        // cannot vouch for.
        let mut respawned = DurableCheckpointStore::open(&dir, 0).unwrap();
        assert!(respawned.append(b"d2").is_err());
        assert_eq!(respawned.load(), Some(log(1, b"base", &[b"d1"])));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_continues_the_generation_counter() {
        let dir = scratch_dir("reopen");
        let mut store = DurableCheckpointStore::open(&dir, 0).unwrap();
        store.save(b"one").unwrap();
        store.save(b"two").unwrap();
        drop(store);
        let mut respawned = DurableCheckpointStore::open(&dir, 0).unwrap();
        assert_eq!(respawned.load(), Some(log(2, b"two", &[])));
        assert_eq!(respawned.save(b"three").unwrap(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_base_falls_back_to_previous_generation() {
        let dir = scratch_dir("fallback");
        let mut store = DurableCheckpointStore::open(&dir, 1).unwrap();
        store.save(b"good-old").unwrap();
        store.append(b"old-delta").unwrap();
        store.save(b"good-new").unwrap();
        // Flip a payload bit in the current file's base.
        let mut bytes = fs::read(store.current_path()).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(store.current_path(), &bytes).unwrap();
        assert_eq!(store.load(), Some(log(1, b"good-old", &[b"old-delta"])));
        let generations = store.load_generations();
        assert!(matches!(
            &generations[0],
            Err(CheckpointFileError::Corrupt("payload CRC mismatch"))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_or_flipped_delta_ends_the_log_at_the_last_intact_record() {
        let dir = scratch_dir("torn-tail");
        let mut store = DurableCheckpointStore::open(&dir, 1).unwrap();
        store.save(b"base").unwrap();
        store.append(b"first").unwrap();
        store.append(b"second").unwrap();
        let image = fs::read(store.current_path()).unwrap();
        // Torn mid-append: every cut inside the last record drops just it.
        let second_at = image.len() - (RECORD_HEADER_LEN + b"second".len());
        for cut in second_at..image.len() {
            assert_eq!(
                decode_checkpoint_log(&image[..cut]).unwrap(),
                log(1, b"base", &[b"first"]),
                "cut {cut}"
            );
        }
        // A flipped bit in the first delta hides the second too.
        let mut flipped = image.clone();
        flipped[second_at - 1] ^= 1;
        assert_eq!(
            decode_checkpoint_log(&flipped).unwrap(),
            log(1, b"base", &[])
        );
        // A zero-filled tail is not a run of empty deltas.
        let mut zeros = image.clone();
        zeros.extend_from_slice(&[0; 32]);
        assert_eq!(
            decode_checkpoint_log(&zeros).unwrap(),
            log(1, b"base", &[b"first", b"second"])
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn leftover_tmp_file_is_ignored() {
        let dir = scratch_dir("tmp");
        let mut store = DurableCheckpointStore::open(&dir, 2).unwrap();
        store.save(b"committed").unwrap();
        // Simulate a crash mid-save: a torn tmp file never renamed.
        fs::write(store.tmp_path(), b"garbage from a dying writer").unwrap();
        assert_eq!(store.load(), Some(log(1, b"committed", &[])));
        drop(store);
        let reopened = DurableCheckpointStore::open(&dir, 2).unwrap();
        assert_eq!(reopened.load(), Some(log(1, b"committed", &[])));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn decode_rejects_everything_that_does_not_start_with_an_intact_base() {
        let image = encode_checkpoint_file(7, b"payload");
        assert_eq!(
            decode_checkpoint_log(&image).unwrap(),
            log(7, b"payload", &[])
        );
        for cut in 0..image.len() {
            assert!(decode_checkpoint_log(&image[..cut]).is_err(), "cut {cut}");
        }
        let mut bad_magic = image.clone();
        bad_magic[0] ^= 1;
        assert!(decode_checkpoint_log(&bad_magic).is_err());
        // Bytes after the base that are not a record are a torn tail.
        let mut trailing = image.clone();
        trailing.push(0);
        assert_eq!(
            decode_checkpoint_log(&trailing).unwrap(),
            log(7, b"payload", &[])
        );
    }
}
