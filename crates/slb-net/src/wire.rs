//! The length-prefixed binary wire format.
//!
//! Every message on an `slb-net` socket is one *frame*:
//!
//! ```text
//! ┌────────────┬─────────┬──────────────────────────────┐
//! │ len: u32le │ tag: u8 │ body: len−1 bytes            │
//! └────────────┴─────────┴──────────────────────────────┘
//! ```
//!
//! `len` counts the tag byte plus the body, so a reader can skip or buffer a
//! frame without understanding it. All integers are little-endian fixed
//! width; collections are a `u32` count followed by the elements; an
//! `Option` or `bool` is one flag byte (`0`/`1`), followed by the value when
//! set. There are three frame families:
//!
//! * **tuple frames** ([`TupleFrame`]) — the source → worker hop: tuple
//!   batches, window-close punctuation, and the end-of-stream marker.
//! * **partial frames** ([`PartialFrame`]) — the worker → aggregator hop:
//!   per-window partial aggregates, encoded through the
//!   [`WirePartial`] hook in `slb-core`, plus end-of-stream.
//! * **control frames** ([`ControlFrame`]) — the `slb-node` control plane:
//!   hello/start handshakes, supervision (a recovering worker's replay
//!   request is its `Rejoin`), metrics, and the per-stage end-of-run
//!   reports.
//!
//! Timestamps on the wire are microseconds since the run's shared epoch —
//! `Instant`s never cross a socket; the TCP layer converts at the edges.
//!
//! ## One codec mechanism
//!
//! Everything that crosses a socket implements [`Wire`]: an `encode` and a
//! `decode` that are each other's inverse. The trait is implemented by hand
//! only for the leaves — the integer widths, `bool`, `Option<T>`, `Vec<T>`
//! (the one place a decoded count meets [`read_count`]'s length guard),
//! pairs, and a `BTreeMap<u64, V>` written as its entries. Every struct and
//! every tagged frame enum gets both directions from **one** field list
//! through `wire_type!`: the types this module owns are
//! *declared* inside the macro, so the declaration is the layout; the
//! `slb-engine` stage reports and the `slb-telemetry` / `slb-core` structs
//! that ride in them list their fields once, in wire order — a report
//! crosses a socket as the struct the stage returned, with no twin type.
//! Adding a frame is one tag constant and one variant with its fields —
//! there is no second list to keep in step.
//!
//! [`encode_frame`], [`decode_payload`] and [`decode_frame`] are generic
//! over the frame family. The byte layout is pinned, field by field, by the
//! golden fixture in `tests/golden_bytes.rs`.
//!
//! Decoding is **total**: any byte sequence either decodes to a frame or
//! returns a [`WireError`] — truncated, oversized, mis-tagged, or otherwise
//! malformed input must never panic (the property suite in
//! `tests/wire_props.rs` pins this down, along with round-trip identity).

use std::collections::{BTreeMap, HashMap};
use std::io;

use slb_core::wire::{
    read_count, read_u16, read_u32, read_u64, read_u8, write_u32, PartialDecodeError, WirePartial,
};
use slb_core::{ControllerAction, ControllerEvent};
use slb_engine::{AggregatorStageReport, RecoveryMetrics, SourceStageReport, WorkerStageReport};
use slb_telemetry::{HopStats, LogHistogram, MetricsSnapshot, TraceEvent};

use crate::node::CountPartial;

/// Hard ceiling on one frame's payload (tag + body), defending the decoder
/// against allocating on a corrupt length prefix. Generous: the largest
/// legitimate frames are aggregator reports carrying every finalized
/// window's exact per-key counts.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Frame tags. Data-plane tags stay below 16; control-plane tags start at 16.
pub mod tag {
    /// A batch of same-window tuples.
    pub const BATCH: u8 = 1;
    /// Window-close punctuation.
    pub const CLOSE: u8 = 2;
    /// A per-window partial aggregate slice.
    pub const PARTIAL: u8 = 3;
    /// End of stream: the sender will write nothing further.
    pub const EOF: u8 = 4;
    // 5 is retired — it was a replay request on a worker → source data
    // socket, now `REJOIN` on the control plane — and must never be reused:
    // every decoder rejects it (`golden_bytes`, `wire_props`).
    /// Node → orchestrator: role, index, and data port.
    pub const HELLO: u8 = 16;
    /// Orchestrator → node: epoch, peer ports, and the run configuration.
    pub const START: u8 = 17;
    /// Source → orchestrator end-of-run report.
    pub const SOURCE_REPORT: u8 = 18;
    /// Worker → orchestrator end-of-run report.
    pub const WORKER_REPORT: u8 = 19;
    /// Aggregator → orchestrator end-of-run report.
    pub const AGGREGATOR_REPORT: u8 = 20;
    /// Worker → orchestrator liveness beacon (periodic while running).
    pub const HEARTBEAT: u8 = 21;
    /// Respawned worker → orchestrator (then orchestrator → sources): the
    /// worker is back, listening on `data_port`, restored to these cursors.
    pub const REJOIN: u8 = 22;
    /// Orchestrator → sources/aggregators: a worker is out of respawn
    /// budget; stop routing to it / finalize without it.
    pub const EXCLUDE: u8 = 23;
    /// Orchestrator → sources: no further rejoin can occur, stop waiting.
    pub const RELEASE: u8 = 24;
    /// Node → orchestrator: a live (or final) telemetry snapshot.
    pub const METRICS: u8 = 25;
}

/// Everything that can go wrong turning bytes into frames.
#[derive(Debug)]
pub enum WireError {
    /// The underlying reader/writer failed.
    Io(io::Error),
    /// The input ended inside a frame's header or before its body was whole.
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME_LEN`] (or is zero).
    BadLength(usize),
    /// The tag byte names no known frame type for this channel.
    BadTag(u8),
    /// The body violated a structural invariant, or ended inside a field.
    Malformed(&'static str),
    /// The body decoded to a frame with bytes left over.
    TrailingBytes(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o failed: {e}"),
            WireError::Truncated => f.write_str("frame truncated"),
            WireError::BadLength(len) => write!(f, "bad frame length {len}"),
            WireError::BadTag(tag) => write!(f, "unknown frame tag {tag}"),
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after frame body"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<PartialDecodeError> for WireError {
    fn from(e: PartialDecodeError) -> Self {
        WireError::Malformed(e.0)
    }
}

// ---------------------------------------------------------------------------
// The codec mechanism
// ---------------------------------------------------------------------------

/// A value with exactly one byte encoding: `decode` consumes what `encode`
/// appended and rebuilds the value, and reports anything else as a
/// [`WireError`] without panicking.
pub trait Wire: Sized {
    /// The fewest bytes an encoded value can occupy. `Vec<T>` holds a
    /// decoded element count against `T::MIN_BYTES` times that many bytes
    /// actually being present before it allocates.
    const MIN_BYTES: usize;

    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes one value from the front of `input`, advancing it past the
    /// consumed bytes.
    fn decode(input: &mut &[u8]) -> Result<Self, WireError>;
}

/// Little-endian fixed-width integers, read through the `slb-core`
/// primitives.
macro_rules! wire_int {
    ($($int:ty => $read:ident),*) => {$(
        impl Wire for $int {
            const MIN_BYTES: usize = std::mem::size_of::<$int>();

            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
                Ok($read(input)?)
            }
        }
    )*};
}

wire_int!(u8 => read_u8, u16 => read_u16, u32 => read_u32, u64 => read_u64);

/// One flag byte, `0` or `1`.
impl Wire for bool {
    const MIN_BYTES: usize = 1;

    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        match read_u8(input)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("flag byte must be 0 or 1")),
        }
    }
}

/// A presence flag, then the value when present.
impl<T: Wire> Wire for Option<T> {
    const MIN_BYTES: usize = 1;

    fn encode(&self, out: &mut Vec<u8>) {
        self.is_some().encode(out);
        if let Some(value) = self {
            value.encode(out);
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        bool::decode(input)?.then(|| T::decode(input)).transpose()
    }
}

/// A `u32` element count, then the elements. The count is untrusted: it is
/// checked against the bytes present before the vector is allocated.
impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = 4;

    fn encode(&self, out: &mut Vec<u8>) {
        write_u32(out, self.len() as u32);
        for element in self {
            element.encode(out);
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let count = read_count(input, T::MIN_BYTES)?;
        let mut elements = Vec::with_capacity(count);
        // A local cursor, written back once: through `input` every element
        // would store the advanced slice to memory (the batch hot path).
        let mut rest = *input;
        for _ in 0..count {
            elements.push(T::decode(&mut rest)?);
        }
        *input = rest;
        Ok(elements)
    }
}

/// Both halves, in order.
impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;

    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok((A::decode(input)?, B::decode(input)?))
    }
}

/// Writes a type's field list **once** and derives both codec directions
/// from it. Three forms:
///
/// * `pub struct Name { pub field: Type, .. }` declares the struct and
///   encodes its fields in declaration order;
/// * `impl Type { field: Type, .. }` does the same for a struct declared
///   elsewhere (another crate's), the list giving the wire order;
/// * `pub enum Name { Variant { field: Type, .. } = tag, .. }` declares a
///   frame family: each variant travels as its tag byte followed by its
///   fields, a `Variant(Inner)` as the tag followed by `Inner`, a bare
///   `Variant` as the tag alone, and an unknown tag decodes to
///   [`WireError::BadTag`]. A field written `name: P as partial` travels
///   through its [`WirePartial`] hook rather than [`Wire`].
macro_rules! wire_type {
    (impl $name:ty { $($field:ident: $fty:ty,)* }) => {
        impl Wire for $name {
            const MIN_BYTES: usize = 0 $(+ <$fty as Wire>::MIN_BYTES)*;

            fn encode(&self, out: &mut Vec<u8>) {
                $(self.$field.encode(out);)*
            }

            fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
                Ok(Self { $($field: Wire::decode(input)?,)* })
            }
        }
    };
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$fmeta:meta])* pub $field:ident: $fty:ty,)*
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$fmeta])* pub $field: $fty,)*
        }

        wire_type!(impl $name { $($field: $fty,)* });
    };
    (
        $(#[$meta:meta])*
        pub enum $name:ident $(<$param:ident: $bound:ident>)? {
            $(
                $(#[$vmeta:meta])*
                $variant:ident
                $({ $($(#[$fmeta:meta])* $field:ident: $fty:ty $(as $via:ident)?,)* })?
                $(($inner:ty))?
                = $tag:path,
            )*
        }
    ) => {
        $(#[$meta])*
        pub enum $name $(<$param>)? {
            $(
                $(#[$vmeta])*
                $variant $({ $($(#[$fmeta])* $field: $fty,)* })? $(($inner))?,
            )*
        }

        impl $(<$param: $bound>)? Wire for $name $(<$param>)? {
            const MIN_BYTES: usize = 1;

            fn encode(&self, out: &mut Vec<u8>) {
                match self {
                    $(
                        Self::$variant
                            $({ $($field,)* })?
                            $((wire_type!(@bind $inner, inner)))?
                        => {
                            out.push($tag);
                            $($(wire_type!(@put $field, out $(, $via)?);)*)?
                            $(<$inner as Wire>::encode(inner, out);)?
                        }
                    )*
                }
            }

            fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
                match read_u8(input)? {
                    $(
                        $tag => Ok(Self::$variant
                            $({ $($field: wire_type!(@take input $(, $via)?),)* })?
                            $((<$inner as Wire>::decode(input)?))?
                        ),
                    )*
                    other => Err(WireError::BadTag(other)),
                }
            }
        }
    };
    // Names the binding of a `Variant(Inner)` pattern (a repetition over
    // `$inner` has to mention it).
    (@bind $inner:ty, $binding:ident) => { $binding };
    (@put $field:ident, $out:ident) => { Wire::encode($field, $out) };
    (@put $field:ident, $out:ident, partial) => { WirePartial::encode_partial($field, $out) };
    (@take $input:ident) => { Wire::decode($input)? };
    (@take $input:ident, partial) => { WirePartial::decode_partial($input)? };
}

// ---------------------------------------------------------------------------
// What rides inside reports
// ---------------------------------------------------------------------------

/// A [`LogHistogram`] on the wire — the one encoding of every latency and
/// occupancy distribution a peer can send: exact scalars plus the sparse
/// nonzero `(bucket_index, count)` pairs (the 128-bit sum travels as a
/// low/high `u64` pair). Decoding checks the parts against each other
/// ([`LogHistogram::from_parts`]), so a decoded histogram can be merged and
/// summarized without panicking.
impl Wire for LogHistogram {
    const MIN_BYTES: usize = 5 * 8 + 4;

    fn encode(&self, out: &mut Vec<u8>) {
        let sum = self.sum();
        self.count().encode(out);
        (sum as u64, (sum >> 64) as u64).encode(out);
        (self.min(), self.max()).encode(out);
        self.nonzero_buckets().encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let count = u64::decode(input)?;
        let (sum_lo, sum_hi) = <(u64, u64)>::decode(input)?;
        let (min, max) = <(u64, u64)>::decode(input)?;
        let buckets = Vec::<(u32, u64)>::decode(input)?;
        let sum = (u128::from(sum_hi) << 64) | u128::from(sum_lo);
        LogHistogram::from_parts(&buckets, count, sum, min, max).map_err(WireError::Malformed)
    }
}

wire_type!(impl HopStats {
    batches_sent: u64,
    tuples_sent: u64,
    send_stall_us: u64,
    batches_received: u64,
    tuples_received: u64,
    recv_wait_us: u64,
    queue_depth_hwm: u64,
    ring_occupancy_hwm: u64,
    ring_capacity: u64,
    batch_occupancy: LogHistogram,
});

wire_type!(impl TraceEvent {
    stage: u8,
    instance: u32,
    seq: u64,
    kind: u8,
    window: u64,
    a: u64,
    b: u64,
});

wire_type!(impl MetricsSnapshot {
    stage: u8,
    instance: u32,
    seq: u64,
    finished: bool,
    items: u64,
    windows_closed: u64,
    checkpoints: u64,
    recovery: RecoveryMetrics,
    transport: HopStats,
    latency: LogHistogram,
});

/// One action byte.
impl Wire for ControllerAction {
    const MIN_BYTES: usize = 1;

    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            ControllerAction::ScaleOut => 0,
            ControllerAction::ScaleIn => 1,
            ControllerAction::Retune => 2,
        });
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        match read_u8(input)? {
            0 => Ok(ControllerAction::ScaleOut),
            1 => Ok(ControllerAction::ScaleIn),
            2 => Ok(ControllerAction::Retune),
            _ => Err(WireError::Malformed("unknown controller action")),
        }
    }
}

wire_type!(impl ControllerEvent {
    source: u32,
    window: u64,
    action: ControllerAction,
    workers: u32,
    d: u32,
});

/// The exact per-key counts in an aggregator report travel as the count
/// partial's [`WirePartial`] encoding.
impl Wire for HashMap<u64, u64> {
    const MIN_BYTES: usize = 4;

    fn encode(&self, out: &mut Vec<u8>) {
        self.encode_partial(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Self::decode_partial(input)?)
    }
}

/// A `u32` entry count, then the `(key, value)` entries in key order: what
/// the same entries in a `Vec<(u64, V)>` write.
impl<V: Wire> Wire for BTreeMap<u64, V> {
    const MIN_BYTES: usize = 4;

    fn encode(&self, out: &mut Vec<u8>) {
        write_u32(out, self.len() as u32);
        for (key, value) in self {
            key.encode(out);
            value.encode(out);
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Vec::<(u64, V)>::decode(input)?.into_iter().collect())
    }
}

wire_type!(impl RecoveryMetrics {
    restores: u64,
    replayed_items: u64,
    duplicates_dropped: u64,
    replay_requests: u64,
    transport_errors: u64,
});

// The stage reports, as the engine's stage functions return them (timestamps
// in them are already µs since the run epoch).

wire_type!(impl SourceStageReport {
    sent: u64,
    controller_events: Vec<ControllerEvent>,
    trace: Vec<TraceEvent>,
    transport: HopStats,
});

wire_type!(impl WorkerStageReport {
    processed: u64,
    phase_counts: Vec<u64>,
    phase_latencies: Vec<LogHistogram>,
    state_keys: u64,
    windows_closed: u64,
    phase_spans: Vec<Option<(u64, u64)>>,
    recovery: RecoveryMetrics,
    checkpoints: u64,
    checkpoint_bytes: u64,
    trace: Vec<TraceEvent>,
    transport: HopStats,
});

// `slb-node` runs the count aggregation — the one the differential proof is
// stated over — so a finalized window is its exact per-key counts.
wire_type!(impl AggregatorStageReport<CountPartial> {
    finalized: BTreeMap<u64, CountPartial>,
    latencies: LogHistogram,
    merged: u64,
    duplicates_dropped: u64,
    transport_errors: u64,
    trace: Vec<TraceEvent>,
    transport: HopStats,
});

// ---------------------------------------------------------------------------
// The three frame families
// ---------------------------------------------------------------------------

wire_type! {
    /// One message on a source → worker socket.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum TupleFrame {
        /// A batch of same-window tuples.
        Batch {
            /// The window every key belongs to.
            window: u64,
            /// Index of the source that emitted the batch.
            source: u32,
            /// Position in the per-(source, worker) message sequence.
            seq: u64,
            /// Batch emit time, µs since the run epoch.
            emitted_us: u64,
            /// The routed keys, in source emission order.
            keys: Vec<u64>,
        } = tag::BATCH,
        /// Punctuation: the sender finished `window`.
        Close {
            /// The finished window.
            window: u64,
            /// Index of the source that finished it.
            source: u32,
            /// Position in the per-(source, worker) message sequence.
            seq: u64,
        } = tag::CLOSE,
        /// End of stream.
        Eof = tag::EOF,
    }
}

wire_type! {
    /// One message on a worker → aggregator socket.
    #[derive(Debug, Clone, PartialEq)]
    pub enum PartialFrame<P: WirePartial> {
        /// One worker's finalized partial for one window, sliced to this
        /// aggregator's shard.
        Partial {
            /// The window the partial belongs to.
            window: u64,
            /// Index of the worker that finalized the window (the aggregator's
            /// dedup key, together with `window`).
            worker: u32,
            /// Worker close time, µs since the run epoch.
            closed_us: u64,
            /// The shard slice.
            partial: P as partial,
        } = tag::PARTIAL,
        /// End of stream.
        Eof = tag::EOF,
    }
}

wire_type! {
    /// One message on an `slb-node` control socket.
    #[derive(Debug, Clone, PartialEq)]
    pub enum ControlFrame {
        /// Node → orchestrator, immediately after connecting: who am I, and —
        /// for workers and aggregators — which port my data listener bound.
        Hello {
            /// Role byte (see `cluster::NodeRole`).
            role: u8,
            /// Index within the role (source 0..S, worker 0..W, aggregator 0..A).
            index: u32,
            /// Bound data port; 0 for sources (they only dial out).
            data_port: u16,
        } = tag::HELLO,
        /// Orchestrator → node: the run is fully assembled, go.
        Start {
            /// Shared run epoch, µs since `UNIX_EPOCH`; every node anchors its
            /// wire timestamps to this instant.
            epoch_unix_micros: u64,
            /// Data ports of workers 0..W (sources dial these).
            worker_ports: Vec<u16>,
            /// Data ports of aggregators 0..A (workers dial these).
            aggregator_ports: Vec<u16>,
            /// The run configuration: the orchestrator's text cluster spec
            /// (`ClusterSpec::render`), which every node parses back.
            config: Vec<u8>,
        } = tag::START,
        /// Source → orchestrator end-of-run report.
        SourceReport {
            /// Source index.
            index: u32,
            /// What the source stage returned.
            report: SourceStageReport,
        } = tag::SOURCE_REPORT,
        /// Worker → orchestrator end-of-run report.
        WorkerReport {
            /// Worker index within the spawned universe.
            index: u32,
            /// What the worker stage returned.
            report: WorkerStageReport,
        } = tag::WORKER_REPORT,
        /// Aggregator → orchestrator end-of-run report.
        AggregatorReport {
            /// Aggregator shard index.
            index: u32,
            /// What the aggregator stage returned.
            report: AggregatorStageReport<CountPartial>,
        } = tag::AGGREGATOR_REPORT,
        /// Worker → orchestrator: still alive (sent periodically while the
        /// stage runs; silence past the timeout marks the worker suspect).
        Heartbeat {
            /// Worker index.
            worker: u32,
        } = tag::HEARTBEAT,
        /// A respawned worker announcing itself — sent worker → orchestrator in
        /// place of `Hello`, then forwarded orchestrator → sources so they can
        /// re-dial and replay.
        Rejoin {
            /// Worker index.
            worker: u32,
            /// The respawned worker's (new) data listener port.
            data_port: u16,
            /// Restored per-source sequence cursors: for source `s`,
            /// `cursors[s]` is the next sequence number the worker expects —
            /// exactly where replay must start.
            cursors: Vec<u64>,
        } = tag::REJOIN,
        /// Orchestrator → sources and aggregators: worker `worker` is gone for
        /// good (respawn budget exhausted). Sources stop routing to it at the
        /// next window boundary; aggregators finalize windows without it.
        Exclude {
            /// Worker index.
            worker: u32,
        } = tag::EXCLUDE,
        /// Orchestrator → sources: every surviving worker has reported; no
        /// further rejoin/replay can be requested, stop waiting and exit.
        Release = tag::RELEASE,
        /// Node → orchestrator: one stage instance's telemetry — periodic
        /// while the stage runs (when a metrics interval is configured), and
        /// one exact `finished` snapshot right before the end-of-run report.
        Metrics(MetricsSnapshot) = tag::METRICS,
    }
}

// ---------------------------------------------------------------------------
// Framing over byte slices
// ---------------------------------------------------------------------------

/// Appends one complete frame — length prefix, tag, body — to `out`.
pub fn encode_frame<F: Wire>(frame: &F, out: &mut Vec<u8>) {
    let at = out.len();
    write_u32(out, 0); // patched once the payload's length is known
    frame.encode(out);
    let len = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Decodes a frame's payload (tag byte + body, the part after the length
/// prefix), which must be consumed exactly.
pub fn decode_payload<F: Wire>(payload: &[u8]) -> Result<F, WireError> {
    let mut input = payload;
    let frame = F::decode(&mut input)?;
    if !input.is_empty() {
        return Err(WireError::TrailingBytes(input.len()));
    }
    Ok(frame)
}

/// Decodes one complete frame from the front of `buf`, returning the frame
/// and the total bytes consumed (header included).
pub fn decode_frame<F: Wire>(buf: &[u8]) -> Result<(F, usize), WireError> {
    let payload = split_frame(buf)?;
    Ok((decode_payload(payload)?, 4 + payload.len()))
}

/// [`encode_frame`] for the source → worker hop, the data plane's hot path.
pub fn encode_tuple_frame(frame: &TupleFrame, out: &mut Vec<u8>) {
    encode_frame(frame, out);
}

/// [`decode_frame`] for the source → worker hop.
pub fn decode_tuple_frame(buf: &[u8]) -> Result<(TupleFrame, usize), WireError> {
    decode_frame(buf)
}

/// Splits the payload (tag + body) of the frame at the front of `buf`,
/// validating the length prefix.
pub fn split_frame(buf: &[u8]) -> Result<&[u8], WireError> {
    if buf.len() < 4 {
        return Err(WireError::Truncated);
    }
    let (header, rest) = buf.split_at(4);
    let len = u32::from_le_bytes(header.try_into().expect("4-byte split")) as usize;
    if len == 0 || len > MAX_FRAME_LEN {
        return Err(WireError::BadLength(len));
    }
    if rest.len() < len {
        return Err(WireError::Truncated);
    }
    Ok(&rest[..len])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuple_frames_round_trip() {
        for frame in [
            TupleFrame::Batch {
                window: 7,
                source: 3,
                seq: 42,
                emitted_us: 123_456,
                keys: vec![1, 2, 3, u64::MAX],
            },
            TupleFrame::Batch {
                window: 0,
                source: 0,
                seq: 0,
                emitted_us: 0,
                keys: vec![],
            },
            TupleFrame::Close {
                window: 99,
                source: 1,
                seq: u64::MAX,
            },
            TupleFrame::Eof,
        ] {
            let mut buf = Vec::new();
            encode_tuple_frame(&frame, &mut buf);
            let (back, consumed) = decode_tuple_frame(&buf).expect("own encoding decodes");
            assert_eq!(back, frame);
            assert_eq!(consumed, buf.len());
        }
    }

    #[test]
    fn frames_concatenate() {
        let close = TupleFrame::Close {
            window: 1,
            source: 0,
            seq: 5,
        };
        let mut buf = Vec::new();
        encode_tuple_frame(&close, &mut buf);
        encode_tuple_frame(&TupleFrame::Eof, &mut buf);
        let (first, consumed) = decode_tuple_frame(&buf).unwrap();
        assert_eq!(first, close);
        let (second, rest) = decode_tuple_frame(&buf[consumed..]).unwrap();
        assert_eq!(second, TupleFrame::Eof);
        assert_eq!(consumed + rest, buf.len());
    }

    #[test]
    fn zero_and_oversized_lengths_are_rejected() {
        assert!(matches!(
            split_frame(&[0, 0, 0, 0, 9]),
            Err(WireError::BadLength(0))
        ));
        let huge = (MAX_FRAME_LEN as u32 + 1).to_le_bytes();
        assert!(matches!(
            split_frame(&[huge[0], huge[1], huge[2], huge[3]]),
            Err(WireError::BadLength(_))
        ));
    }
}
