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
//! and the one partial that implements it, [`crate::CountAggregate`]'s count
//! map — rather than in the transport crate, which stays generic over the
//! partial without knowing its internals.
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
/// exactly.
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
    fn oversized_length_prefix_errors_without_allocating() {
        let mut buf = Vec::new();
        write_u32(&mut buf, u32::MAX);
        assert!(HashMap::<u64, u64>::decode_partial(&mut buf.as_slice()).is_err());
    }
}
