//! Encoding hooks that let aggregate partials cross process boundaries.
//!
//! The engine's worker → aggregator hop ships per-window partial aggregates.
//! Inside one process they move by value through channels; a networked
//! transport (the `slb-net` crate) has to turn them into bytes instead.
//! [`WirePartial`] is the contract a partial type implements to be
//! transportable: a deterministic-length, self-delimiting binary encoding
//! against plain byte buffers, with decoding that reports malformed input as
//! an error rather than panicking (a remote peer's bytes are never trusted).
//!
//! The trait lives here — next to [`WindowAggregate`](crate::WindowAggregate)
//! — rather than in the transport crate so that every aggregate the engine
//! can run is transportable by construction, without the transport crate
//! needing to know each partial's internals.
//!
//! ## Format conventions
//!
//! All integers are little-endian fixed width. Collections are a `u32`
//! element count followed by the elements. The encoding is *self-delimiting*:
//! decoding consumes exactly the bytes encoding produced and leaves the rest
//! of the input untouched, so partials can be embedded inside larger frames.
//! Round-trip identity (`decode(encode(p)) == p` up to aggregate content) is
//! pinned by the wire property suite in `slb-net`, the exact bytes by its
//! `golden_bytes` fixture.
//!
//! ## Byte primitives
//!
//! The fixed-width readers and writers below, and [`read_count`] — the one
//! place a decoded element count is checked against the bytes present before
//! anything is allocated — are the only definitions of their kind in the
//! workspace: the checkpoint codec next door and the frame codec in `slb-net`
//! import them (`ci.sh` greps for strays).

use std::collections::HashMap;

use slb_sketch::space_saving::Counter;
use slb_sketch::{FrequencyEstimator, SpaceSaving};

/// Error produced when decoding a partial from untrusted bytes fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartialDecodeError(pub &'static str);

impl std::fmt::Display for PartialDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed partial: {}", self.0)
    }
}

impl std::error::Error for PartialDecodeError {}

/// Splits `N` bytes off the front of `input`, advancing it.
fn read_array<const N: usize>(
    input: &mut &[u8],
    what: &'static str,
) -> Result<[u8; N], PartialDecodeError> {
    if input.len() < N {
        return Err(PartialDecodeError(what));
    }
    let (bytes, rest) = input.split_at(N);
    *input = rest;
    Ok(bytes.try_into().expect("split at N"))
}

/// Reads one byte, advancing the input slice.
pub fn read_u8(input: &mut &[u8]) -> Result<u8, PartialDecodeError> {
    read_array::<1>(input, "truncated u8").map(|[byte]| byte)
}

/// Reads a little-endian `u16`, advancing the input slice.
pub fn read_u16(input: &mut &[u8]) -> Result<u16, PartialDecodeError> {
    read_array(input, "truncated u16").map(u16::from_le_bytes)
}

/// Reads a little-endian `u32`, advancing the input slice.
pub fn read_u32(input: &mut &[u8]) -> Result<u32, PartialDecodeError> {
    read_array(input, "truncated u32").map(u32::from_le_bytes)
}

/// Reads a little-endian `u64`, advancing the input slice.
pub fn read_u64(input: &mut &[u8]) -> Result<u64, PartialDecodeError> {
    read_array(input, "truncated u64").map(u64::from_le_bytes)
}

/// Appends a little-endian `u64`.
pub fn write_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Appends a little-endian `u32`.
pub fn write_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Reads a collection's `u32` element count and holds it against the bytes
/// actually present: every element encodes to at least `min_element_bytes`,
/// so a count the remaining input cannot back is an error *before* anything
/// is allocated for it. Every counted collection in the workspace — partial,
/// checkpoint, frame — decodes its count here.
pub fn read_count(
    input: &mut &[u8],
    min_element_bytes: usize,
) -> Result<usize, PartialDecodeError> {
    let count = read_u32(input)? as usize;
    if input.len() < count.saturating_mul(min_element_bytes) {
        return Err(PartialDecodeError("collection shorter than its length"));
    }
    Ok(count)
}

/// Reads a `u32`-counted list of little-endian `u64`s.
pub fn read_u64_list(input: &mut &[u8]) -> Result<Vec<u64>, PartialDecodeError> {
    let count = read_count(input, 8)?;
    let mut values = Vec::with_capacity(count);
    for _ in 0..count {
        values.push(read_u64(input)?);
    }
    Ok(values)
}

/// A per-window partial aggregate that can be transported as bytes.
///
/// Implementations must be self-delimiting and must reject malformed input
/// with [`PartialDecodeError`] instead of panicking. Decoding the bytes an
/// implementation produced must reproduce the partial's aggregate content
/// exactly (for the exact aggregates, structural equality; for SpaceSaving
/// summaries, identical counters, total, and capacity).
pub trait WirePartial: Sized {
    /// Appends this partial's encoding to `out`.
    fn encode_partial(&self, out: &mut Vec<u8>);

    /// Decodes one partial from the front of `input`, advancing it past the
    /// consumed bytes.
    fn decode_partial(input: &mut &[u8]) -> Result<Self, PartialDecodeError>;
}

/// [`crate::CountAggregate`] partials: `u32` entry count, then `(key, count)`
/// pairs. Entry order is not part of the content (it is a hash map), so
/// encodings of equal maps may differ byte-wise while decoding to equal maps.
impl WirePartial for HashMap<u64, u64> {
    fn encode_partial(&self, out: &mut Vec<u8>) {
        write_u32(out, self.len() as u32);
        for (&key, &count) in self {
            write_u64(out, key);
            write_u64(out, count);
        }
    }

    fn decode_partial(input: &mut &[u8]) -> Result<Self, PartialDecodeError> {
        let entries = read_count(input, 16)?;
        let mut map = HashMap::with_capacity(entries);
        for _ in 0..entries {
            let key = read_u64(input)?;
            let count = read_u64(input)?;
            if map.insert(key, count).is_some() {
                return Err(PartialDecodeError("duplicate key in count map"));
            }
        }
        Ok(map)
    }
}

/// [`crate::SumAggregate`] partials: one `u64`.
impl WirePartial for u64 {
    fn encode_partial(&self, out: &mut Vec<u8>) {
        write_u64(out, *self);
    }

    fn decode_partial(input: &mut &[u8]) -> Result<Self, PartialDecodeError> {
        read_u64(input)
    }
}

/// [`crate::TopKAggregate`] partials: capacity, total, then the monitored
/// counters as `(key, count, error)` triples. Decoding rebuilds the summary
/// with [`SpaceSaving::from_counters`], which preserves counters, estimates,
/// and totals exactly.
impl WirePartial for SpaceSaving<u64> {
    fn encode_partial(&self, out: &mut Vec<u8>) {
        write_u32(out, self.capacity() as u32);
        write_u64(out, self.total());
        // Sorted order keeps the encoding deterministic for equal summaries.
        let counters = self.sorted_counters();
        write_u32(out, counters.len() as u32);
        for c in &counters {
            write_u64(out, c.key);
            write_u64(out, c.count);
            write_u64(out, c.error);
        }
    }

    fn decode_partial(input: &mut &[u8]) -> Result<Self, PartialDecodeError> {
        let capacity = read_u32(input)? as usize;
        if capacity == 0 {
            return Err(PartialDecodeError("summary capacity must be positive"));
        }
        let total = read_u64(input)?;
        let counters = read_count(input, 24)?;
        if counters > capacity {
            return Err(PartialDecodeError("more counters than capacity"));
        }
        let mut list = Vec::with_capacity(counters);
        let mut seen = std::collections::HashSet::with_capacity(counters);
        for _ in 0..counters {
            let key = read_u64(input)?;
            let count = read_u64(input)?;
            let error = read_u64(input)?;
            if error > count {
                return Err(PartialDecodeError("counter error exceeds its count"));
            }
            // `from_counters` asserts on duplicates; untrusted input must
            // error here instead of tripping that assert.
            if !seen.insert(key) {
                return Err(PartialDecodeError("duplicate key in summary"));
            }
            list.push(Counter { key, count, error });
        }
        Ok(SpaceSaving::from_counters(capacity, total, list))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<P: WirePartial>(p: &P) -> P {
        let mut buf = Vec::new();
        p.encode_partial(&mut buf);
        let mut input = buf.as_slice();
        let back = P::decode_partial(&mut input).expect("decode of own encoding");
        assert!(input.is_empty(), "decode must consume exactly the encoding");
        back
    }

    #[test]
    fn count_map_roundtrips() {
        let mut map = HashMap::new();
        for k in 0..200u64 {
            map.insert(k * 7, k + 1);
        }
        assert_eq!(roundtrip(&map), map);
        assert_eq!(roundtrip(&HashMap::new()), HashMap::new());
    }

    #[test]
    fn sum_roundtrips_and_is_self_delimiting() {
        let mut buf = Vec::new();
        42u64.encode_partial(&mut buf);
        7u64.encode_partial(&mut buf);
        let mut input = buf.as_slice();
        assert_eq!(u64::decode_partial(&mut input), Ok(42));
        assert_eq!(u64::decode_partial(&mut input), Ok(7));
        assert!(input.is_empty());
    }

    #[test]
    fn space_saving_roundtrips_counters_total_capacity() {
        let mut s = SpaceSaving::<u64>::new(8);
        for i in 0..100u64 {
            s.observe(&(i % 13));
        }
        let back = roundtrip(&s);
        assert_eq!(back.capacity(), s.capacity());
        assert_eq!(back.total(), s.total());
        // Counter content is order-free: ties among equal counts may list in
        // any order, so compare key-sorted.
        let by_key = |summary: &SpaceSaving<u64>| {
            let mut counters = summary.sorted_counters();
            counters.sort_by_key(|c| c.key);
            counters
        };
        assert_eq!(by_key(&back), by_key(&s));
    }

    #[test]
    fn truncated_inputs_error_not_panic() {
        let mut map = HashMap::new();
        map.insert(1u64, 2u64);
        map.insert(3, 4);
        let mut buf = Vec::new();
        map.encode_partial(&mut buf);
        for cut in 0..buf.len() {
            let mut input = &buf[..cut];
            assert!(
                HashMap::<u64, u64>::decode_partial(&mut input).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn duplicate_summary_keys_error_not_panic() {
        // capacity=4, total=10, two counters with the same key: must be a
        // decode error, not the `from_counters` duplicate-key assert.
        let mut buf = Vec::new();
        write_u32(&mut buf, 4);
        write_u64(&mut buf, 10);
        write_u32(&mut buf, 2);
        for _ in 0..2 {
            write_u64(&mut buf, 7); // key
            write_u64(&mut buf, 5); // count
            write_u64(&mut buf, 0); // error
        }
        match SpaceSaving::<u64>::decode_partial(&mut buf.as_slice()) {
            Err(e) => assert_eq!(e, PartialDecodeError("duplicate key in summary")),
            Ok(_) => panic!("duplicate keys must not decode"),
        }
    }

    #[test]
    fn corrupt_summary_headers_error() {
        let mut s = SpaceSaving::<u64>::new(4);
        s.observe(&1u64);
        let mut buf = Vec::new();
        s.encode_partial(&mut buf);
        // Zero capacity.
        let mut corrupt = buf.clone();
        corrupt[..4].copy_from_slice(&0u32.to_le_bytes());
        assert!(SpaceSaving::<u64>::decode_partial(&mut corrupt.as_slice()).is_err());
        // Counter count past capacity.
        let mut corrupt = buf.clone();
        corrupt[12..16].copy_from_slice(&1000u32.to_le_bytes());
        assert!(SpaceSaving::<u64>::decode_partial(&mut corrupt.as_slice()).is_err());
    }

    #[test]
    fn huge_declared_capacity_does_not_allocate_by_the_field() {
        // capacity = u32::MAX, total 0, no counters: 16 well-formed bytes.
        // Sizing storage by the declared capacity aborts the process.
        let mut buf = Vec::new();
        write_u32(&mut buf, u32::MAX);
        write_u64(&mut buf, 0);
        write_u32(&mut buf, 0);
        if let Ok(summary) = SpaceSaving::<u64>::decode_partial(&mut buf.as_slice()) {
            assert!(summary.is_empty());
            assert_eq!(summary.total(), 0);
        }
    }

    #[test]
    fn oversized_length_prefix_errors_without_allocating() {
        let mut buf = Vec::new();
        write_u32(&mut buf, u32::MAX);
        assert!(HashMap::<u64, u64>::decode_partial(&mut buf.as_slice()).is_err());
    }
}
