//! Golden bytes: the exact encoding of one frame per wire tag, of the count
//! partial payload, and of the two checkpoint record kinds.
//!
//! `wire_props` proves the codec round-trips; it would keep passing if a
//! field moved, a width changed, or a count became a `u64`, because both
//! directions would move together. This fixture pins the layout itself: the
//! hex literals were captured from the hand-written codec at commit
//! `d0bd728` (before the codec was folded onto the `Wire` trait) — except
//! tags 19, 20 and 25, re-captured in PR 19 when the reports became the
//! engine's own structs and every latency distribution a `LogHistogram` —
//! and every case checks both directions against them: the value encodes to
//! exactly these bytes, and these bytes decode to exactly the value.
//!
//! A deliberate format change updates a literal here in the same commit; an
//! accidental one fails with the full actual encoding printed.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Debug;

use slb_core::wire::WirePartial;
use slb_core::{
    CheckpointDelta, ControllerAction, ControllerEvent, OpenWindowState, WorkerCheckpoint,
};
use slb_engine::{AggregatorStageReport, RecoveryMetrics, SourceStageReport, WorkerStageReport};
use slb_net::wire::{
    decode_frame, encode_frame, ControlFrame, PartialFrame, TupleFrame, Wire, WireError,
};
use slb_telemetry::{HopStats, LogHistogram, MetricsSnapshot, TraceEvent};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Parses a hex literal, ignoring the whitespace that lays it out by field.
fn unhex(text: &str) -> Vec<u8> {
    let digits: Vec<u8> = text.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    assert!(digits.len() % 2 == 0, "odd number of hex digits");
    digits
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

/// One frame, both directions, against its golden bytes.
fn check_frame<F: Wire + PartialEq + Debug>(name: &str, frame: &F, golden: &str) {
    let golden = unhex(golden);
    let mut bytes = Vec::new();
    encode_frame(frame, &mut bytes);
    assert_eq!(hex(&bytes), hex(&golden), "{name}: encoding moved");
    let (back, consumed) = decode_frame::<F>(&golden).expect("golden bytes decode");
    assert_eq!(&back, frame, "{name}: decoding moved");
    assert_eq!(consumed, golden.len(), "{name}: frame length moved");
}

fn sample_trace() -> Vec<TraceEvent> {
    vec![
        TraceEvent {
            stage: 1,
            instance: 2,
            seq: 0,
            kind: 3,
            window: 7,
            a: 0x0a0b,
            b: 0,
        },
        TraceEvent {
            stage: 2,
            instance: 0x0102_0304,
            seq: 1,
            kind: 5,
            window: u64::MAX,
            a: 1,
            b: 0x1122_3344_5566_7788,
        },
    ]
}

fn sample_hop_stats() -> HopStats {
    let mut occupancy = LogHistogram::new();
    occupancy.record_n(32, 10);
    occupancy.record(7);
    HopStats {
        batches_sent: 11,
        tuples_sent: 327,
        send_stall_us: 42,
        batches_received: 9,
        tuples_received: 288,
        recv_wait_us: 1_000,
        batch_occupancy: occupancy,
        queue_depth_hwm: 12,
        ring_occupancy_hwm: 48,
        ring_capacity: 64,
    }
}

#[test]
fn data_plane_frames_are_byte_stable() {
    check_frame(
        "batch (tag 1)",
        &TupleFrame::Batch {
            window: 7,
            source: 3,
            seq: 42,
            emitted_us: 123_456,
            keys: vec![1, 2, u64::MAX],
        },
        "39000000 01
         0700000000000000 03000000 2a00000000000000 40e2010000000000
         03000000 0100000000000000 0200000000000000 ffffffffffffffff",
    );
    check_frame(
        "close (tag 2)",
        &TupleFrame::Close {
            window: 99,
            source: 1,
            seq: 0x0102_0304_0506_0708,
        },
        "15000000 02 6300000000000000 01000000 0807060504030201",
    );
    check_frame(
        "partial (tag 3)",
        &PartialFrame::Partial {
            window: 4,
            worker: 2,
            closed_us: 1_000,
            partial: HashMap::from([(5u64, 9u64)]),
        },
        "29000000 03 0400000000000000 02000000 e803000000000000
         01000000 0500000000000000 0900000000000000",
    );
    check_frame("tuple eof (tag 4)", &TupleFrame::Eof, "01000000 04");
    check_frame(
        "partial eof (tag 4)",
        &PartialFrame::<HashMap<u64, u64>>::Eof,
        "01000000 04",
    );
}

/// Tag 5 carried a worker's replay request over a data socket until PR 22
/// (a `Rejoin` control frame or an in-process event since). These are that
/// frame's golden bytes: retired, never reused, a bad tag to every decoder.
#[test]
fn retired_tag_5_decodes_nowhere() {
    let golden = unhex("0d000000 05 06000000 4d00000000000000");
    let bad_tag = |e| matches!(e, WireError::BadTag(5));
    assert!(decode_frame::<TupleFrame>(&golden).is_err_and(bad_tag));
    assert!(decode_frame::<PartialFrame<HashMap<u64, u64>>>(&golden).is_err_and(bad_tag));
    assert!(decode_frame::<ControlFrame>(&golden).is_err_and(bad_tag));
}

/// The hop-stats block every report ends with: nine counters, then the
/// occupancy histogram (count, 128-bit sum, min, max, sparse buckets).
const HOP_STATS: &str = "
    0b00000000000000 4701000000000000 2a00000000000000
    0900000000000000 2001000000000000 e803000000000000
    0c00000000000000 3000000000000000 4000000000000000
    0b00000000000000 4701000000000000 0000000000000000
    0700000000000000 2000000000000000
    02000000 07000000 0100000000000000 20000000 0a00000000000000";

/// Two 38-byte trace events behind their count.
const TRACE: &str = "
    02000000
    01 02000000 0000000000000000 03 0700000000000000 0b0a000000000000 0000000000000000
    02 04030201 0100000000000000 05 ffffffffffffffff 0100000000000000 8877665544332211";

#[test]
fn control_plane_frames_are_byte_stable() {
    check_frame(
        "hello (tag 16)",
        &ControlFrame::Hello {
            role: 1,
            index: 3,
            data_port: 40_123,
        },
        "08000000 10 01 03000000 bb9c",
    );
    check_frame(
        "start (tag 17)",
        &ControlFrame::Start {
            epoch_unix_micros: 1_234_567_890,
            worker_ports: vec![1000, 2000, 3000],
            aggregator_ports: vec![4000],
            config: b"mode engine\n".to_vec(),
        },
        "29000000 11 d202964900000000
         03000000 e803 d007 b80b
         01000000 a00f
         0c000000 6d6f646520656e67696e650a",
    );
    check_frame(
        "source report (tag 18)",
        &ControlFrame::SourceReport {
            index: 2,
            report: SourceStageReport {
                sent: 88,
                controller_events: vec![
                    ControllerEvent {
                        source: 2,
                        window: 5,
                        action: ControllerAction::ScaleOut,
                        workers: 6,
                        d: 2,
                    },
                    ControllerEvent {
                        source: 2,
                        window: 9,
                        action: ControllerAction::ScaleIn,
                        workers: 5,
                        d: 0,
                    },
                    ControllerEvent {
                        source: 2,
                        window: 11,
                        action: ControllerAction::Retune,
                        workers: 5,
                        d: 3,
                    },
                ],
                trace: sample_trace(),
                transport: sample_hop_stats(),
            },
        },
        &format!(
            "2c010000 12 02000000 5800000000000000
             03000000
             02000000 0500000000000000 00 06000000 02000000
             02000000 0900000000000000 01 05000000 00000000
             02000000 0b00000000000000 02 05000000 03000000
             {TRACE} {HOP_STATS}"
        ),
    );
    // Field order: index; processed, phase_counts, phase_latencies (each a
    // histogram: count, 128-bit sum, min, max, sparse buckets), state_keys,
    // windows_closed, phase_spans, recovery (restores, replayed_items,
    // duplicates_dropped, replay_requests, transport_errors), checkpoints,
    // checkpoint_bytes, trace, transport.
    let mut phase_latency = LogHistogram::new();
    phase_latency.record_n(5, 200);
    phase_latency.record_n(9, 100);
    check_frame(
        "worker report (tag 19)",
        &ControlFrame::WorkerReport {
            index: 1,
            report: WorkerStageReport {
                processed: 500,
                phase_counts: vec![300, 200],
                phase_latencies: vec![phase_latency, LogHistogram::new()],
                state_keys: 17,
                windows_closed: 4,
                phase_spans: vec![Some((10, 90)), None],
                recovery: RecoveryMetrics {
                    restores: 2,
                    replayed_items: 120,
                    duplicates_dropped: 3,
                    replay_requests: 4,
                    transport_errors: 1,
                },
                checkpoints: 5,
                checkpoint_bytes: 1_024,
                trace: sample_trace(),
                transport: sample_hop_stats(),
            },
        },
        &format!(
            "cf010000 13 01000000
             f401000000000000
             02000000 2c01000000000000 c800000000000000
             02000000
             2c01000000000000 6c07000000000000 0000000000000000
             0500000000000000 0900000000000000
             02000000 05000000 c800000000000000 09000000 6400000000000000
             0000000000000000 0000000000000000 0000000000000000
             0000000000000000 0000000000000000 00000000
             1100000000000000 0400000000000000
             02000000 01 0a00000000000000 5a00000000000000 00
             0200000000000000 7800000000000000 0300000000000000
             0400000000000000 0100000000000000
             0500000000000000 0004000000000000
             {TRACE} {HOP_STATS}"
        ),
    );
    // Field order: index; finalized (window → exact per-key counts, in
    // window order), latencies (one histogram), merged, duplicates_dropped,
    // transport_errors, trace, transport.
    let mut merge_latency = LogHistogram::new();
    merge_latency.record_n(2, 12);
    merge_latency.record(40);
    check_frame(
        "aggregator report (tag 20)",
        &ControlFrame::AggregatorReport {
            index: 1,
            report: AggregatorStageReport {
                finalized: BTreeMap::from([
                    (0, HashMap::from([(3u64, 14u64)])),
                    (1, HashMap::new()),
                ]),
                latencies: merge_latency,
                merged: 12,
                duplicates_dropped: 2,
                transport_errors: 1,
                trace: sample_trace(),
                transport: sample_hop_stats(),
            },
        },
        &format!(
            "69010000 14 01000000
             02000000
             0000000000000000 01000000 0300000000000000 0e00000000000000
             0100000000000000 00000000
             0d00000000000000 4000000000000000 0000000000000000
             0200000000000000 2800000000000000
             02000000 02000000 0c00000000000000 24000000 0100000000000000
             0c00000000000000 0200000000000000 0100000000000000
             {TRACE} {HOP_STATS}"
        ),
    );
    check_frame(
        "heartbeat (tag 21)",
        &ControlFrame::Heartbeat { worker: 3 },
        "05000000 15 03000000",
    );
    check_frame(
        "rejoin (tag 22)",
        &ControlFrame::Rejoin {
            worker: 1,
            data_port: 45_001,
            cursors: vec![17, 0, 9_000_000_000],
        },
        "23000000 16 01000000 c9af
         03000000 1100000000000000 0000000000000000 001a711802000000",
    );
    check_frame(
        "exclude (tag 23)",
        &ControlFrame::Exclude { worker: 2 },
        "05000000 17 02000000",
    );
    check_frame("release (tag 24)", &ControlFrame::Release, "01000000 18");
    let mut snapshot = MetricsSnapshot {
        stage: 1,
        instance: 3,
        seq: 9,
        finished: true,
        items: 4_096,
        windows_closed: 16,
        checkpoints: 15,
        recovery: RecoveryMetrics {
            restores: 1,
            replayed_items: 128,
            duplicates_dropped: 2,
            replay_requests: 3,
            transport_errors: 4,
        },
        transport: sample_hop_stats(),
        ..MetricsSnapshot::default()
    };
    snapshot.latency.record_n(900, 500);
    snapshot.latency.record(15_000);
    // Field order: stage, instance, seq, finished; items, windows_closed,
    // checkpoints; the recovery record (five counters); the hop record as
    // every report carries it (nine scalars, then `batch_occupancy` — the
    // three lines PR 23 inserted, every byte around them as before);
    // latency (one histogram: count, 128-bit sum, min, max, sparse buckets).
    check_frame(
        "metrics (tag 25)",
        &ControlFrame::Metrics(snapshot),
        "1f010000 19 01 03000000 0900000000000000 01
         0010000000000000 1000000000000000 0f00000000000000 0100000000000000
         8000000000000000 0200000000000000 0300000000000000 0400000000000000
         0b00000000000000 4701000000000000 2a00000000000000
         0900000000000000 2001000000000000 e803000000000000
         0c00000000000000 3000000000000000 4000000000000000
         0b00000000000000 4701000000000000 0000000000000000
         0700000000000000 2000000000000000
         02000000 07000000 0100000000000000 20000000 0a00000000000000
         f501000000000000 6818070000000000 0000000000000000
         8403000000000000 983a000000000000
         02000000 6c000000 f401000000000000 ad000000 0100000000000000",
    );
}

#[test]
fn partial_payloads_are_byte_stable() {
    let partial = HashMap::from([(5u64, 9u64)]);
    let golden = unhex("01000000 0500000000000000 0900000000000000");
    let mut bytes = Vec::new();
    partial.encode_partial(&mut bytes);
    assert_eq!(hex(&bytes), hex(&golden), "count map: encoding moved");
    let mut input = golden.as_slice();
    assert_eq!(HashMap::<u64, u64>::decode_partial(&mut input), Ok(partial));
    assert!(input.is_empty(), "count map: payload length moved");
    // A map with several entries encodes in hash order, so only its decode
    // direction can be pinned.
    let golden =
        unhex("02000000 0100000000000000 0200000000000000 0300000000000000 0400000000000000");
    assert_eq!(
        HashMap::<u64, u64>::decode_partial(&mut golden.as_slice()),
        Ok(HashMap::from([(1, 2), (3, 4)]))
    );
}

#[test]
fn checkpoint_records_are_byte_stable() {
    let open = vec![
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
    ];
    let open_bytes = "
        02000000
        0700000000000000 0100000000000000 01 04000000 deadbeef
        0800000000000000 0000000000000000 00";
    let base = WorkerCheckpoint {
        worker: 3,
        windows_closed: 7,
        processed: 12_345,
        phase_counts: vec![5_000, 7_345],
        next_seq: vec![40, 41, 39],
        state_keys: vec![1, 5, 9, 200],
        open: open.clone(),
    };
    let golden = unhex(&format!(
        "0300000000000000 0700000000000000 3930000000000000
         02000000 8813000000000000 b11c000000000000
         03000000 2800000000000000 2900000000000000 2700000000000000
         04000000 0100000000000000 0500000000000000 0900000000000000 c800000000000000
         {open_bytes}"
    ));
    let mut bytes = Vec::new();
    base.encode(&mut bytes);
    assert_eq!(hex(&bytes), hex(&golden), "base record: encoding moved");
    let mut input = golden.as_slice();
    assert_eq!(WorkerCheckpoint::decode(&mut input), Ok(base));
    assert!(input.is_empty());

    let delta = CheckpointDelta {
        worker: 3,
        windows_closed: 8,
        processed: 13_000,
        phase_counts: vec![5_000, 8_000],
        next_seq: vec![44, 45, 43],
        fresh_keys: vec![0, 7, 300],
        open,
    };
    let golden = unhex(&format!(
        "d1 0300000000000000 0800000000000000 c832000000000000
         02000000 8813000000000000 401f000000000000
         03000000 2c00000000000000 2d00000000000000 2b00000000000000
         03000000 0000000000000000 0700000000000000 2c01000000000000
         {open_bytes}"
    ));
    bytes.clear();
    delta.encode(&mut bytes);
    assert_eq!(hex(&bytes), hex(&golden), "delta record: encoding moved");
    let mut input = golden.as_slice();
    assert_eq!(CheckpointDelta::decode(&mut input), Ok(delta));
    assert!(input.is_empty());
}
