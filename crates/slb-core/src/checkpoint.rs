//! Worker checkpoints: the durable records a worker writes at every window
//! finalization so that a crash loses at most the windows still in flight.
//!
//! A checkpoint captures everything the worker's deterministic result depends
//! on at a window boundary: how many windows it has finalized, its tuple and
//! per-phase counters and the per-source sequence cursors as of that
//! finalization (which prefix of every source's stream the finalized windows
//! cover), and the distinct-key set. The windows still in flight are not in
//! it: a restore replays them from the cursors. The layout keeps a list of
//! open windows ([`OpenWindowState`], each partial as a length-prefixed
//! [`WirePartial`](crate::wire::WirePartial) blob), which the engine's
//! worker always writes empty.
//!
//! ## Base and delta records
//!
//! Everything in a checkpoint is window-sized except the key set, which
//! grows with the whole run. So a worker's checkpoint log is one **base**
//! record — a full [`WorkerCheckpoint`] — followed by **delta** records
//! ([`CheckpointDelta`]): the same counters, cursors and open-window list, but
//! only the keys first seen since the previous record. The state at any
//! close is the base with every delta up to that close
//! [applied](WorkerCheckpoint::apply) in order; [`WorkerCheckpoint::restore`]
//! is that fold, shared by the simulated crash and the process respawn.
//!
//! A writer starts a new base when the deltas appended since the last one
//! outweigh it in bytes ([`deltas_outweigh_base`]). That keeps the log — what
//! a restore reads — within twice one base plus one record. And a base is
//! only rewritten after more delta bytes than it holds have been paid for,
//! so over a run the bases add at most twice the deltas' bytes to what is
//! written (once, in steady state, where a new base is no larger than the
//! old). Both bounds follow from the rule alone, so there is nothing to
//! tune.
//!
//! The worker stage encodes both record kinds straight from its live state
//! through [`CheckpointView`], into one reused buffer.
//!
//! Timing state (latency samples, phase spans) is deliberately *not*
//! checkpointed: it does not feed the deterministic windowed counts, and
//! snapshotting every latency sample at every window boundary would make
//! checkpointing O(run²). See `docs/FAULTS.md` for the recovery argument.
//!
//! The encoding follows the [`crate::wire`] conventions: little-endian fixed
//! width integers, `u32`-counted collections, self-delimiting, and total —
//! malformed bytes produce a [`PartialDecodeError`], never a panic.

use crate::wire::{
    read_count, read_u64, read_u64_list, read_u8, write_u32, write_u64, PartialDecodeError,
};

/// First byte of an encoded [`CheckpointDelta`]. A base record starts with
/// its worker index instead, so the two kinds cannot be decoded as each
/// other by a log reader that lost its place.
const DELTA_TAG: u8 = 0xD1;

/// The rebase rule: true when a log whose base record is `base_bytes` long
/// has accumulated more than that in delta records, so the next close
/// should write a fresh base instead of another delta.
pub fn deltas_outweigh_base(base_bytes: usize, delta_bytes: usize) -> bool {
    delta_bytes > base_bytes
}

/// Merges the ascending run `fresh` into the ascending `keys`, in place.
/// Works from the back, so it moves only the part of `keys` above the
/// smallest fresh key and needs no scratch buffer. The runs are expected to
/// be disjoint; equal keys are kept side by side.
pub fn merge_ascending(keys: &mut Vec<u64>, fresh: &[u64]) {
    let mut from = keys.len();
    // Exact: the set this maintains only grows to stay, and by doubling's
    // slack it would pin up to a second copy of itself.
    keys.reserve_exact(fresh.len());
    keys.resize(from + fresh.len(), 0);
    let mut to = keys.len();
    let mut pending = fresh.len();
    while pending > 0 {
        to -= 1;
        if from > 0 && keys[from - 1] > fresh[pending - 1] {
            from -= 1;
            keys[to] = keys[from];
        } else {
            pending -= 1;
            keys[to] = fresh[pending];
        }
    }
}

/// The state of one still-open window inside a checkpoint. The layout
/// carries it, but the engine's worker writes none: it records only the
/// finalized prefix and rebuilds its open windows by replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenWindowState {
    /// The window's id.
    pub window: u64,
    /// How many of the expected per-source `CloseWindow` markers have
    /// arrived for this window.
    pub closes_seen: u64,
    /// The in-flight partial aggregate, as its `WirePartial` encoding, or
    /// `None` when the window has seen close markers but no tuples yet.
    pub partial: Option<Vec<u8>>,
}

/// A consistent snapshot of a worker's deterministic state, taken at a
/// window-finalization boundary: the base record of a checkpoint log.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WorkerCheckpoint {
    /// Index of the worker that took the snapshot.
    pub worker: u64,
    /// Number of windows this worker has finalized and shipped downstream.
    pub windows_closed: u64,
    /// Total tuples processed so far.
    pub processed: u64,
    /// Tuples processed per scenario phase.
    pub phase_counts: Vec<u64>,
    /// Per-source cursor: the sequence number of the next message expected
    /// from each source. Sources replay from exactly these positions.
    pub next_seq: Vec<u64>,
    /// The distinct keys observed so far, sorted ascending (canonical form).
    pub state_keys: Vec<u64>,
    /// Still-open windows, sorted ascending by window id (canonical form).
    /// Empty in every record the engine's worker writes.
    pub open: Vec<OpenWindowState>,
}

/// What changed since the previous record of a checkpoint log: the counters,
/// cursors and open windows as of this close (they replace the previous
/// ones), and only the keys first seen since the previous record.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CheckpointDelta {
    /// Index of the worker that wrote the record.
    pub worker: u64,
    /// Windows finalized as of this close; strictly greater than the
    /// previous record's.
    pub windows_closed: u64,
    /// Total tuples processed so far.
    pub processed: u64,
    /// Tuples processed per scenario phase.
    pub phase_counts: Vec<u64>,
    /// Per-source sequence cursors as of this close.
    pub next_seq: Vec<u64>,
    /// Keys first seen since the previous record, sorted ascending; disjoint
    /// from every key the log already holds.
    pub fresh_keys: Vec<u64>,
    /// Still-open windows, sorted ascending by window id. Empty in every
    /// record the engine's worker writes.
    pub open: Vec<OpenWindowState>,
}

/// A checkpoint record's fields borrowed from live worker state, so the
/// worker encodes a record into its reused buffer without first copying the
/// key list into an owned [`WorkerCheckpoint`] / [`CheckpointDelta`]. A view
/// has no open window; its bytes are those the owned types produce with an
/// empty `open`.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointView<'a> {
    /// Index of the worker.
    pub worker: u64,
    /// Windows finalized as of this close.
    pub windows_closed: u64,
    /// Tuples of the finalized windows.
    pub processed: u64,
    /// Tuples of the finalized windows per scenario phase.
    pub phase_counts: &'a [u64],
    /// Per-source sequence cursors past the finalized windows.
    pub next_seq: &'a [u64],
    /// Every state key (for a base) or the keys first seen since the
    /// previous record (for a delta), sorted strictly ascending.
    pub keys: &'a [u64],
}

impl CheckpointView<'_> {
    /// Appends a base record: byte-for-byte [`WorkerCheckpoint::encode`].
    ///
    /// # Panics
    /// Panics if `keys` are not sorted strictly ascending.
    pub fn encode_base(&self, out: &mut Vec<u8>) {
        self.write_record(&[], out);
    }

    /// Appends a delta record: byte-for-byte [`CheckpointDelta::encode`].
    ///
    /// # Panics
    /// Panics if `keys` are not sorted strictly ascending.
    pub fn encode_delta(&self, out: &mut Vec<u8>) {
        out.push(DELTA_TAG);
        self.encode_base(out);
    }

    /// The layout both record kinds share.
    fn write_record(&self, open: &[OpenWindowState], out: &mut Vec<u8>) {
        assert!(
            self.keys.windows(2).all(|w| w[0] < w[1]),
            "checkpoint state keys must be sorted and distinct"
        );
        assert!(
            open.windows(2).all(|w| w[0].window < w[1].window),
            "checkpoint open windows must be sorted and distinct"
        );
        let lists = [self.phase_counts, self.next_seq, self.keys];
        out.reserve(24 + lists.iter().map(|list| 4 + 8 * list.len()).sum::<usize>());
        write_u64(out, self.worker);
        write_u64(out, self.windows_closed);
        write_u64(out, self.processed);
        for list in lists {
            write_u32(out, list.len() as u32);
            for &value in list {
                write_u64(out, value);
            }
        }
        write_u32(out, open.len() as u32);
        for w in open {
            write_u64(out, w.window);
            write_u64(out, w.closes_seen);
            match &w.partial {
                None => out.push(0),
                Some(blob) => {
                    out.push(1);
                    write_u32(out, blob.len() as u32);
                    out.extend_from_slice(blob);
                }
            }
        }
    }
}

impl WorkerCheckpoint {
    /// Appends the checkpoint's self-delimiting encoding to `out`.
    ///
    /// # Panics
    /// Panics if `state_keys` or `open` are not sorted strictly ascending —
    /// the canonical form the worker stage produces.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let view = CheckpointView {
            worker: self.worker,
            windows_closed: self.windows_closed,
            processed: self.processed,
            phase_counts: &self.phase_counts,
            next_seq: &self.next_seq,
            keys: &self.state_keys,
        };
        view.write_record(&self.open, out);
    }

    /// Decodes one checkpoint from the front of `input`, advancing it past
    /// the consumed bytes. Total: malformed input errors, never panics.
    pub fn decode(input: &mut &[u8]) -> Result<Self, PartialDecodeError> {
        let worker = read_u64(input)?;
        let windows_closed = read_u64(input)?;
        let processed = read_u64(input)?;
        let phase_counts = read_u64_list(input)?;
        let next_seq = read_u64_list(input)?;
        let state_keys = read_u64_list(input)?;
        if !state_keys.windows(2).all(|w| w[0] < w[1]) {
            return Err(PartialDecodeError("state keys not sorted and distinct"));
        }
        // Each open-window entry is at least 17 bytes: window, closes, flag.
        let windows = read_count(input, 17)?;
        let mut open = Vec::with_capacity(windows);
        let mut last_window = None;
        for _ in 0..windows {
            let window = read_u64(input)?;
            if last_window.is_some_and(|w| w >= window) {
                return Err(PartialDecodeError("open windows not sorted and distinct"));
            }
            last_window = Some(window);
            let closes_seen = read_u64(input)?;
            let partial = match read_u8(input)? {
                0 => None,
                1 => {
                    let len = read_count(input, 1)?;
                    let (blob, rest) = input.split_at(len);
                    *input = rest;
                    Some(blob.to_vec())
                }
                _ => return Err(PartialDecodeError("bad partial-presence flag")),
            };
            open.push(OpenWindowState {
                window,
                closes_seen,
                partial,
            });
        }
        Ok(Self {
            worker,
            windows_closed,
            processed,
            phase_counts,
            next_seq,
            state_keys,
            open,
        })
    }

    /// Advances this state by one delta: counters, cursors and open windows
    /// are replaced, the delta's fresh keys are merged into the key set.
    ///
    /// Errors — leaving `self` untouched — when the delta cannot be the next
    /// record of this log: another worker's, a `windows_closed` that does
    /// not advance, or a "fresh" key the state already holds.
    pub fn apply(&mut self, delta: &CheckpointDelta) -> Result<(), PartialDecodeError> {
        if delta.worker != self.worker {
            return Err(PartialDecodeError("delta belongs to another worker"));
        }
        if delta.windows_closed <= self.windows_closed {
            return Err(PartialDecodeError("delta does not advance windows_closed"));
        }
        let fresh = &delta.fresh_keys;
        if fresh
            .iter()
            .any(|key| self.state_keys.binary_search(key).is_ok())
        {
            return Err(PartialDecodeError(
                "delta re-adds a key already in the state",
            ));
        }
        merge_ascending(&mut self.state_keys, fresh);
        self.windows_closed = delta.windows_closed;
        self.processed = delta.processed;
        self.phase_counts.clone_from(&delta.phase_counts);
        self.next_seq.clone_from(&delta.next_seq);
        self.open.clone_from(&delta.open);
        Ok(())
    }

    /// Rebuilds the state a checkpoint log describes: decodes `base`, then
    /// applies every delta in order. Each slice of `deltas` holds zero or
    /// more back-to-back [`CheckpointDelta`] encodings, so an in-memory log
    /// passes its one concatenated buffer and an on-disk log its records.
    pub fn restore<'a>(
        base: &[u8],
        deltas: impl IntoIterator<Item = &'a [u8]>,
    ) -> Result<Self, PartialDecodeError> {
        let mut input = base;
        let mut state = Self::decode(&mut input)?;
        if !input.is_empty() {
            return Err(PartialDecodeError("trailing bytes after the base record"));
        }
        for mut records in deltas {
            while !records.is_empty() {
                state.apply(&CheckpointDelta::decode(&mut records)?)?;
            }
        }
        Ok(state)
    }
}

impl CheckpointDelta {
    /// Appends the delta's self-delimiting encoding to `out`: a tag byte,
    /// then the base record's layout with `fresh_keys` in the key list.
    ///
    /// # Panics
    /// Panics if `fresh_keys` or `open` are not sorted strictly ascending.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.push(DELTA_TAG);
        let view = CheckpointView {
            worker: self.worker,
            windows_closed: self.windows_closed,
            processed: self.processed,
            phase_counts: &self.phase_counts,
            next_seq: &self.next_seq,
            keys: &self.fresh_keys,
        };
        view.write_record(&self.open, out);
    }

    /// Decodes one delta from the front of `input`, advancing it past the
    /// consumed bytes. Total: malformed input errors, never panics.
    pub fn decode(input: &mut &[u8]) -> Result<Self, PartialDecodeError> {
        if read_u8(input)? != DELTA_TAG {
            return Err(PartialDecodeError("not a checkpoint delta"));
        }
        let body = WorkerCheckpoint::decode(input)?;
        Ok(Self {
            worker: body.worker,
            windows_closed: body.windows_closed,
            processed: body.processed,
            phase_counts: body.phase_counts,
            next_seq: body.next_seq,
            fresh_keys: body.state_keys,
            open: body.open,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WorkerCheckpoint {
        WorkerCheckpoint {
            worker: 3,
            windows_closed: 7,
            processed: 12_345,
            phase_counts: vec![5_000, 7_345],
            next_seq: vec![40, 41, 39],
            state_keys: vec![1, 5, 9, 200],
            open: vec![
                OpenWindowState {
                    window: 7,
                    closes_seen: 1,
                    partial: Some(vec![0xde, 0xad, 0xbe, 0xef]),
                },
                OpenWindowState {
                    window: 8,
                    closes_seen: 0,
                    partial: None,
                },
            ],
        }
    }

    #[test]
    fn roundtrips_and_is_self_delimiting() {
        let cp = sample();
        let mut buf = Vec::new();
        cp.encode(&mut buf);
        buf.extend_from_slice(b"trailing");
        let mut input = buf.as_slice();
        let back = WorkerCheckpoint::decode(&mut input).expect("own encoding decodes");
        assert_eq!(back, cp);
        assert_eq!(input, b"trailing");
    }

    #[test]
    fn empty_checkpoint_roundtrips() {
        let cp = WorkerCheckpoint::default();
        let mut buf = Vec::new();
        cp.encode(&mut buf);
        assert_eq!(
            WorkerCheckpoint::decode(&mut buf.as_slice()),
            Ok(cp),
            "default checkpoint must round-trip"
        );
    }

    #[test]
    fn every_strict_prefix_errors() {
        let mut buf = Vec::new();
        sample().encode(&mut buf);
        for cut in 0..buf.len() {
            let mut input = &buf[..cut];
            assert!(
                WorkerCheckpoint::decode(&mut input).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn unsorted_state_keys_error() {
        let mut cp = sample();
        cp.state_keys = vec![9, 1];
        let mut buf = Vec::new();
        write_u64(&mut buf, cp.worker);
        write_u64(&mut buf, cp.windows_closed);
        write_u64(&mut buf, cp.processed);
        write_u32(&mut buf, 0);
        write_u32(&mut buf, 0);
        write_u32(&mut buf, 2);
        write_u64(&mut buf, 9);
        write_u64(&mut buf, 1);
        write_u32(&mut buf, 0);
        assert!(WorkerCheckpoint::decode(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn bad_presence_flag_errors() {
        let mut buf = Vec::new();
        let cp = WorkerCheckpoint {
            open: vec![OpenWindowState {
                window: 0,
                closes_seen: 0,
                partial: None,
            }],
            ..WorkerCheckpoint::default()
        };
        cp.encode(&mut buf);
        *buf.last_mut().unwrap() = 7;
        assert_eq!(
            WorkerCheckpoint::decode(&mut buf.as_slice()),
            Err(PartialDecodeError("bad partial-presence flag"))
        );
    }

    fn sample_delta() -> CheckpointDelta {
        CheckpointDelta {
            worker: 3,
            windows_closed: 8,
            processed: 13_000,
            phase_counts: vec![5_000, 8_000],
            next_seq: vec![44, 45, 43],
            fresh_keys: vec![0, 7, 300],
            open: vec![OpenWindowState {
                window: 8,
                closes_seen: 2,
                partial: Some(vec![1, 2, 3]),
            }],
        }
    }

    #[test]
    fn delta_roundtrips_and_every_strict_prefix_errors() {
        let delta = sample_delta();
        let mut buf = Vec::new();
        delta.encode(&mut buf);
        for cut in 0..buf.len() {
            assert!(
                CheckpointDelta::decode(&mut &buf[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
        buf.extend_from_slice(b"next");
        let mut input = buf.as_slice();
        assert_eq!(CheckpointDelta::decode(&mut input), Ok(delta));
        assert_eq!(input, b"next");
    }

    #[test]
    fn base_and_delta_records_do_not_decode_as_each_other() {
        let mut base = Vec::new();
        sample().encode(&mut base);
        assert_eq!(
            CheckpointDelta::decode(&mut base.as_slice()),
            Err(PartialDecodeError("not a checkpoint delta"))
        );
        let mut delta = Vec::new();
        sample_delta().encode(&mut delta);
        assert!(WorkerCheckpoint::decode(&mut delta.as_slice()).is_err());
    }

    #[test]
    fn apply_merges_fresh_keys_and_replaces_the_rest() {
        let mut state = sample();
        let delta = sample_delta();
        state.apply(&delta).expect("the next record applies");
        assert_eq!(state.state_keys, vec![0, 1, 5, 7, 9, 200, 300]);
        assert_eq!(state.windows_closed, 8);
        assert_eq!(state.processed, 13_000);
        assert_eq!(state.phase_counts, delta.phase_counts);
        assert_eq!(state.next_seq, delta.next_seq);
        assert_eq!(state.open, delta.open);
    }

    #[test]
    fn apply_rejects_records_that_cannot_be_next_and_leaves_the_state_alone() {
        let base = sample();
        let stale = CheckpointDelta {
            windows_closed: base.windows_closed,
            ..sample_delta()
        };
        let foreign = CheckpointDelta {
            worker: 4,
            ..sample_delta()
        };
        let overlapping = CheckpointDelta {
            fresh_keys: vec![0, 9],
            ..sample_delta()
        };
        for bad in [stale, foreign, overlapping] {
            let mut state = base.clone();
            assert!(state.apply(&bad).is_err(), "{bad:?} must not apply");
            assert_eq!(state, base);
        }
    }

    #[test]
    fn restore_folds_concatenated_and_separate_delta_slices_alike() {
        let mut base = Vec::new();
        sample().encode(&mut base);
        let first = sample_delta();
        let second = CheckpointDelta {
            windows_closed: 9,
            fresh_keys: vec![2],
            open: Vec::new(),
            ..sample_delta()
        };
        let (mut a, mut b) = (Vec::new(), Vec::new());
        first.encode(&mut a);
        second.encode(&mut b);
        let mut expected = sample();
        expected.apply(&first).unwrap();
        expected.apply(&second).unwrap();
        let separate = WorkerCheckpoint::restore(&base, [a.as_slice(), b.as_slice()]);
        assert_eq!(separate.as_ref(), Ok(&expected));
        let joined = [a.clone(), b.clone()].concat();
        assert_eq!(
            WorkerCheckpoint::restore(&base, [joined.as_slice()]),
            Ok(expected)
        );
        assert_eq!(
            WorkerCheckpoint::restore(&base, std::iter::empty()),
            Ok(sample())
        );
        // Out of order, or a torn record, is an error rather than a mix.
        assert!(WorkerCheckpoint::restore(&base, [b.as_slice(), a.as_slice()]).is_err());
        assert!(WorkerCheckpoint::restore(&base, [&a[..a.len() - 1]]).is_err());
    }

    #[test]
    fn views_encode_the_same_bytes_as_the_owned_records() {
        let base = WorkerCheckpoint {
            open: Vec::new(),
            ..sample()
        };
        let delta = CheckpointDelta {
            open: Vec::new(),
            ..sample_delta()
        };
        let (mut owned, mut viewed) = (Vec::new(), Vec::new());
        base.encode(&mut owned);
        CheckpointView {
            worker: base.worker,
            windows_closed: base.windows_closed,
            processed: base.processed,
            phase_counts: &base.phase_counts,
            next_seq: &base.next_seq,
            keys: &base.state_keys,
        }
        .encode_base(&mut viewed);
        assert_eq!(viewed, owned);
        owned.clear();
        viewed.clear();
        delta.encode(&mut owned);
        CheckpointView {
            worker: delta.worker,
            windows_closed: delta.windows_closed,
            processed: delta.processed,
            phase_counts: &delta.phase_counts,
            next_seq: &delta.next_seq,
            keys: &delta.fresh_keys,
        }
        .encode_delta(&mut viewed);
        assert_eq!(viewed, owned);
        // The open-window count is written, as zero.
        assert_eq!(&viewed[viewed.len() - 4..], &[0; 4]);
    }

    #[test]
    fn rebase_rule_is_strictly_more_delta_than_base() {
        assert!(!deltas_outweigh_base(100, 0));
        assert!(!deltas_outweigh_base(100, 100));
        assert!(deltas_outweigh_base(100, 101));
    }

    #[test]
    fn oversized_length_prefixes_error_without_allocating() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 0);
        write_u64(&mut buf, 0);
        write_u64(&mut buf, 0);
        write_u32(&mut buf, u32::MAX);
        assert!(WorkerCheckpoint::decode(&mut buf.as_slice()).is_err());
    }
}
