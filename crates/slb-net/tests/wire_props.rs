//! Property suite for the wire codec: round-trip identity and totality.
//!
//! Two families of properties, over randomly generated frames and partials:
//!
//! 1. **Round-trip identity** — `decode(encode(x)) == x` for every frame
//!    type (tuple, partial over the count partial, control), consuming exactly the bytes the encoder produced (so frames
//!    concatenate on a stream), and `parse(render(spec)) == spec` bit for bit
//!    for the text cluster spec the `Start` frame carries.
//! 2. **Totality on bad input** — every strict prefix of a valid encoding
//!    decodes to an *error*, flipped tags decode to an error, and arbitrary
//!    byte soup or text never panics a decoder or the spec parser. A remote
//!    peer's bytes are untrusted; decoding must fail loudly but gracefully.
//! 3. **Decoded means usable** — whatever control frame soup, a damaged
//!    valid frame or a hostile histogram decodes to is then put through what
//!    the orchestrator does with it ([`use_like_the_orchestrator`]: metrics
//!    rollup and export, `assemble_result` for the stage reports) without
//!    panicking: a frame that would is an error at the decoder, and a
//!    counter that would overflow saturates.
//!
//! The exact bytes are pinned separately, by `golden_bytes.rs`.
//!
//! The offline proptest shim has no `prop_map`, so frames are constructed
//! in the test bodies from primitive inputs; coverage across frame variants
//! comes from one property per variant.

use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

use slb_core::wire::WirePartial;
use slb_core::{
    CheckpointDelta, ControllerAction, ControllerConfig, ControllerEvent, OpenWindowState,
    PartitionerKind, SolverMode, WorkerCheckpoint,
};
use slb_engine::{
    assemble_result, AggregatorStageReport, EngineConfig, RecoveryMetrics, ScenarioConfig,
    SourceStageReport, StagePlan, WorkerStageReport,
};
use slb_net::cluster::{ClusterSpec, RunSpec};
use slb_net::wire::{
    decode_frame, decode_tuple_frame, encode_frame, encode_tuple_frame, ControlFrame, PartialFrame,
    TupleFrame, WireError,
};
use slb_telemetry::{HopStats, LogHistogram, MetricsSnapshot, TraceEvent};
use slb_workloads::{Arrival, Scenario, ScenarioPhase};

/// Deterministically derives a count map from a key vector (the shim has no
/// tuple strategies; the derived counts still cover 1..2¹⁶ widely).
fn counts_from(keys: &[u64]) -> HashMap<u64, u64> {
    keys.iter().map(|&k| (k, (k >> 16 & 0xFFFF) | 1)).collect()
}

/// Derives one of the three solver modes from a seed (the shim's input cap
/// leaves no room for a dedicated strategy parameter).
fn solver_from(seed: u64) -> SolverMode {
    match seed % 3 {
        0 => SolverMode::Online,
        1 => SolverMode::Fixed(2 + (seed % 7) as usize),
        _ => SolverMode::External,
    }
}

/// Derives an optional, always-valid controller config from a seed.
fn controller_from(seed: u64, workers: usize) -> Option<ControllerConfig> {
    if seed % 2 != 0 {
        return None;
    }
    let min = 1 + (seed % 3) as usize;
    Some(ControllerConfig {
        min_workers: min,
        max_workers: min + workers + (seed % 5) as usize,
        worker_capacity: 1 + seed % 10_000,
        scale_in_occupancy: 0.25 + (seed % 8) as f64 / 16.0,
        patience: 1 + (seed % 4) as u32,
        cooldown: (seed % 4) as u32,
        step: 1 + (seed % 2) as usize,
        epsilon: 1e-4 + (seed % 9) as f64 * 1e-5,
    })
}

/// The bit patterns of a controller's two float knobs (`PartialEq` on the
/// config compares them as floats).
fn controller_bits(controller: &Option<ControllerConfig>) -> Option<(u64, u64)> {
    controller
        .as_ref()
        .map(|c| (c.scale_in_occupancy.to_bits(), c.epsilon.to_bits()))
}

/// One engine and one scenario spec using every optional text field.
fn sample_specs() -> [ClusterSpec; 2] {
    let engine = EngineConfig::smoke(PartitionerKind::DChoices, 1.4)
        .with_solver(SolverMode::Fixed(3))
        .with_controller(ControllerConfig::new(2, 6, 1_000));
    let scenario = Scenario::new("soup", 2, 64, 7)
        .phase(ScenarioPhase::new(2, 100, 1.5, 2).with_worker_speed(vec![2.0, 1.0]))
        .phase(
            ScenarioPhase::new(2, 100, 0.5, 3)
                .with_drift_epochs(2)
                .with_arrival(Arrival::Bursty {
                    burst_tuples: 32,
                    pause_us: 5,
                }),
        );
    [
        ClusterSpec {
            run: RunSpec::Engine(engine),
        },
        ClusterSpec {
            run: RunSpec::Scenario(ScenarioConfig::new(PartitionerKind::WChoices, scenario)),
        },
    ]
}

/// Derives a logical trace from the sample vector: every sample becomes one
/// event, exercising wide `window`/payload values and all kind bytes.
fn trace_from(samples: &[u64], raw: &[u64]) -> Vec<TraceEvent> {
    samples
        .iter()
        .enumerate()
        .map(|(i, &s)| TraceEvent {
            stage: (s % 3) as u8,
            instance: (s % 7) as u32,
            seq: i as u64,
            kind: (s % 6) as u8,
            window: raw.get(i % raw.len().max(1)).copied().unwrap_or(u64::MAX),
            a: s.wrapping_mul(31),
            b: s.rotate_left(17),
        })
        .collect()
}

/// Derives a populated histogram from the sample vector (empty when the
/// samples are empty, covering the zero-count wire path too).
fn histogram_from(samples: &[u64]) -> LogHistogram {
    let mut hist = LogHistogram::new();
    for &s in samples {
        hist.record(s.wrapping_mul(2_654_435_761).wrapping_add(1));
    }
    hist
}

/// Derives per-hop transport stats, histogram included, from raw material.
fn hop_stats_from(raw: &[u64], samples: &[u64]) -> HopStats {
    let at = |i: usize| raw.get(i).copied().unwrap_or(0);
    HopStats {
        batches_sent: at(0),
        tuples_sent: at(1),
        send_stall_us: at(2),
        batches_received: at(3),
        tuples_received: at(4),
        recv_wait_us: at(5),
        batch_occupancy: histogram_from(samples),
        queue_depth_hwm: at(6),
        ring_occupancy_hwm: at(7),
        ring_capacity: at(8),
    }
}

/// Derives a full metrics snapshot — every scalar populated, latency
/// histogram included — from raw material.
fn metrics_from(raw: &[u64], samples: &[u64]) -> MetricsSnapshot {
    let at = |i: usize| raw.get(i).copied().unwrap_or(0);
    MetricsSnapshot {
        stage: (at(0) % 4) as u8,
        instance: at(1) as u32,
        seq: at(2),
        finished: at(3) % 2 == 0,
        items: at(4),
        windows_closed: at(5),
        checkpoints: at(6),
        recovery: RecoveryMetrics {
            restores: at(7),
            replayed_items: at(8),
            duplicates_dropped: at(9),
            replay_requests: at(10),
            transport_errors: at(11),
        },
        transport: hop_stats_from(raw, samples),
        latency: histogram_from(samples),
    }
}

/// Builds one of each control-frame variant from primitive raw material, so
/// every variant round-trips under the same random inputs.
fn control_frames(raw: &[u64], ports: &[u16], samples: &[u64], keys: &[u64]) -> Vec<ControlFrame> {
    let at = |i: usize| raw.get(i).copied().unwrap_or(0);
    vec![
        ControlFrame::Hello {
            role: at(0) as u8,
            index: at(1) as u32,
            data_port: at(2) as u16,
        },
        ControlFrame::Start {
            epoch_unix_micros: at(3),
            worker_ports: ports.to_vec(),
            aggregator_ports: ports.iter().rev().copied().collect(),
            config: samples.iter().map(|&s| s as u8).collect(),
        },
        ControlFrame::SourceReport {
            index: at(4) as u32,
            report: SourceStageReport {
                sent: at(5),
                controller_events: raw
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| ControllerEvent {
                        source: at(4) as u32,
                        window: v,
                        action: match i % 3 {
                            0 => ControllerAction::ScaleOut,
                            1 => ControllerAction::ScaleIn,
                            _ => ControllerAction::Retune,
                        },
                        workers: (v % 64) as u32,
                        d: (v % 8) as u32,
                    })
                    .collect(),
                trace: trace_from(samples, raw),
                transport: hop_stats_from(raw, samples),
            },
        },
        ControlFrame::WorkerReport {
            index: at(6) as u32,
            report: WorkerStageReport {
                processed: at(7),
                phase_counts: raw.to_vec(),
                phase_latencies: vec![
                    histogram_from(samples),
                    LogHistogram::new(),
                    histogram_from(raw),
                ],
                state_keys: at(8),
                windows_closed: at(9),
                phase_spans: raw
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| (i % 3 != 0).then_some((v, v.saturating_add(i as u64))))
                    .collect(),
                recovery: RecoveryMetrics {
                    restores: at(14),
                    replayed_items: at(15),
                    duplicates_dropped: at(16),
                    replay_requests: at(17),
                    transport_errors: at(19),
                },
                checkpoints: at(18),
                checkpoint_bytes: at(13),
                trace: trace_from(samples, raw),
                transport: hop_stats_from(raw, samples),
            },
        },
        ControlFrame::AggregatorReport {
            index: at(10) as u32,
            report: AggregatorStageReport {
                finalized: BTreeMap::from([(at(12), counts_from(keys)), (at(13), HashMap::new())]),
                latencies: histogram_from(samples),
                merged: at(11),
                duplicates_dropped: at(20),
                transport_errors: at(21),
                trace: trace_from(samples, raw),
                transport: hop_stats_from(raw, samples),
            },
        },
        ControlFrame::Heartbeat {
            worker: at(22) as u32,
        },
        ControlFrame::Metrics(metrics_from(raw, samples)),
        ControlFrame::Rejoin {
            worker: at(23) as u32,
            data_port: at(24) as u16,
            cursors: raw.to_vec(),
        },
        ControlFrame::Exclude {
            worker: at(25) as u32,
        },
        ControlFrame::Release,
    ]
}

/// The plan decoded reports are assembled under: three phases, as the
/// worker reports [`control_frames`] builds have, over 1, 3 and 2 of three
/// workers — so a report assembled as every worker's claims tuples in
/// phases its worker was not active in.
fn orchestrator_plan() -> StagePlan {
    let scenario = [1, 3, 2]
        .iter()
        .fold(Scenario::new("wire", 2, 64, 1), |scenario, &workers| {
            scenario.phase(ScenarioPhase::new(1, 64, 1.0, workers))
        });
    ScenarioConfig::new(PartitionerKind::Pkg, scenario).stage_plan()
}

/// What the orchestrator does with a decoded frame: a snapshot is exported
/// as JSON and folded into the cluster `rollup`, which is exported too; a
/// stage report goes through `assemble_result` — here as the report of every
/// instance of its role, so that each counter in it is also added to itself,
/// every window it finalized is claimed by every aggregator, and every worker
/// counts tuples in every phase. None of it may panic, whatever the peer
/// sent.
fn use_like_the_orchestrator(frame: ControlFrame, rollup: &mut MetricsSnapshot, plan: &StagePlan) {
    // One report per stage instance, as the orchestrator insists before it
    // assembles; the roles the frame says nothing about report nothing.
    let assemble = |sources: Option<SourceStageReport>,
                    workers: Option<WorkerStageReport>,
                    aggregators: Option<AggregatorStageReport<_>>| {
        let _ = assemble_result(
            plan,
            vec![sources.unwrap_or_default(); plan.sources],
            vec![workers.unwrap_or_default(); plan.spawned_workers],
            vec![aggregators.unwrap_or_default(); plan.aggregators.max(2)],
            1.0,
        );
    };
    match frame {
        ControlFrame::Metrics(snapshot) => {
            let _ = snapshot.to_json();
            rollup.merge(&snapshot);
            rollup.merge(&snapshot);
            let _ = rollup.to_json();
        }
        ControlFrame::SourceReport { report, .. } => assemble(Some(report), None, None),
        ControlFrame::WorkerReport { report, .. } => assemble(None, Some(report), None),
        ControlFrame::AggregatorReport { report, .. } => assemble(None, None, Some(report)),
        _ => {}
    }
}

/// An empty histogram on the wire: count, 128-bit sum, min, max, bucket
/// count.
const EMPTY_HISTOGRAM_BYTES: usize = 8 + 16 + 8 + 8 + 4;

/// A well-formed `Metrics` frame around a hand-written histogram — the parts
/// a peer chooses freely, none of them checked by the encoder — in the place
/// of one of the two (empty) histograms a default snapshot ends with: the
/// hop record's `batch_occupancy`, `from_end == 2`, or `latency`, the last.
fn metrics_frame_with_histogram(
    from_end: usize,
    (count, sum, min, max): (u64, u128, u64, u64),
    buckets: &[(u32, u64)],
) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_frame(&ControlFrame::Metrics(MetricsSnapshot::default()), &mut buf);
    let tail = buf.split_off(buf.len() - (from_end - 1) * EMPTY_HISTOGRAM_BYTES);
    buf.truncate(buf.len() - EMPTY_HISTOGRAM_BYTES);
    for word in [count, sum as u64, (sum >> 64) as u64, min, max] {
        buf.extend_from_slice(&word.to_le_bytes());
    }
    buf.extend_from_slice(&(buckets.len() as u32).to_le_bytes());
    for &(index, n) in buckets {
        buf.extend_from_slice(&index.to_le_bytes());
        buf.extend_from_slice(&n.to_le_bytes());
    }
    buf.extend_from_slice(&tail);
    let len = (buf.len() - 4) as u32;
    buf[..4].copy_from_slice(&len.to_le_bytes());
    buf
}

fn metrics_frame_with_latency(parts: (u64, u128, u64, u64), buckets: &[(u32, u64)]) -> Vec<u8> {
    metrics_frame_with_histogram(1, parts, buckets)
}

fn assert_malformed(name: &str, frame: &[u8]) {
    match decode_frame::<ControlFrame>(frame) {
        Err(WireError::Malformed(_)) => {}
        other => panic!("{name}: expected Malformed, got {other:?}"),
    }
}

/// At the parent commit this frame decoded, reached `Action::Export →
/// MetricsSnapshot::to_json → quantile`, and aborted the orchestrator in a
/// release build: `clamp(min, max)` with `min > max`.
#[test]
fn histogram_with_min_above_max_is_malformed() {
    let frame = metrics_frame_with_latency((1, 0, 10, 5), &[(3, 1)]);
    assert_malformed("min > max", &frame);
}

/// At the parent commit the two counts were added into one bucket: "attempt
/// to add with overflow" in dev and test builds.
#[test]
fn histogram_with_a_repeated_bucket_is_malformed() {
    let frame = metrics_frame_with_latency((u64::MAX, 0, 0, 0), &[(0, u64::MAX), (0, 1)]);
    assert_malformed("duplicate bucket", &frame);
}

/// At the parent commit any `count` and `sum` were believed, and merging two
/// snapshots that claimed `u64::MAX` / `u128::MAX` overflowed. Now a count
/// its buckets do not add up to is malformed; one they do add up to decodes,
/// and merging two of those saturates.
#[test]
fn histogram_scalars_must_match_the_buckets_and_merge_saturates() {
    let claimed = (u64::MAX, u128::MAX, 0, 0);
    assert_malformed("unbacked count", &metrics_frame_with_latency(claimed, &[]));
    assert_malformed(
        "short count",
        &metrics_frame_with_latency(claimed, &[(0, 1)]),
    );
    let backed = metrics_frame_with_latency(claimed, &[(0, u64::MAX)]);
    let (frame, _) = decode_frame::<ControlFrame>(&backed).expect("a consistent histogram");
    let (mut rollup, plan) = (MetricsSnapshot::default(), orchestrator_plan());
    use_like_the_orchestrator(frame.clone(), &mut rollup, &plan);
    use_like_the_orchestrator(frame, &mut rollup, &plan);
    assert_eq!(rollup.latency.count(), u64::MAX);
    assert_eq!(rollup.latency.sum(), u128::MAX);
}

/// A snapshot contains the whole hop record, so its `batch_occupancy`
/// histogram crosses the wire with it (at the parent commit the snapshot
/// copied the record's nine scalars and the histogram never left the node).
#[test]
fn metrics_frame_carries_the_hop_records_batch_occupancy() {
    let mut occupancy = LogHistogram::new();
    occupancy.record_n(64, 9);
    occupancy.record(17);
    let snapshot = MetricsSnapshot {
        transport: HopStats {
            batches_sent: 10,
            batch_occupancy: occupancy.clone(),
            ..HopStats::default()
        },
        ..MetricsSnapshot::default()
    };
    let mut buf = Vec::new();
    encode_frame(&ControlFrame::Metrics(snapshot.clone()), &mut buf);
    let (decoded, _) = decode_frame::<ControlFrame>(&buf).expect("own encoding decodes");
    assert_eq!(decoded, ControlFrame::Metrics(snapshot));
    let ControlFrame::Metrics(decoded) = decoded else {
        unreachable!()
    };
    assert_eq!(decoded.transport.batch_occupancy, occupancy);
    // And it folds: a rollup of two such snapshots holds both populations.
    let (mut rollup, plan) = (MetricsSnapshot::default(), orchestrator_plan());
    use_like_the_orchestrator(ControlFrame::Metrics(decoded), &mut rollup, &plan);
    assert_eq!(rollup.transport.batch_occupancy.count(), 20);
}

/// The histogram inside the embedded hop record is as much a peer's word as
/// the latency one after it: the same inconsistencies are `Malformed` there,
/// and a consistent extreme one decodes, exports and merges (saturating).
#[test]
fn hostile_histograms_inside_the_embedded_hop_record_are_malformed() {
    let occupancy = |parts, buckets: &[(u32, u64)]| metrics_frame_with_histogram(2, parts, buckets);
    assert_malformed("min > max", &occupancy((1, 0, 10, 5), &[(3, 1)]));
    let twice = [(0, u64::MAX), (0, 1)];
    assert_malformed("duplicate bucket", &occupancy((u64::MAX, 0, 0, 0), &twice));
    let claimed = (u64::MAX, u128::MAX, 0, 0);
    assert_malformed("unbacked count", &occupancy(claimed, &[]));
    assert_malformed(
        "bucket out of range",
        &occupancy((1, 0, 0, 0), &[(u32::MAX, 1)]),
    );
    let backed = occupancy(claimed, &[(0, u64::MAX)]);
    let (frame, _) = decode_frame::<ControlFrame>(&backed).expect("a consistent histogram");
    let (mut rollup, plan) = (MetricsSnapshot::default(), orchestrator_plan());
    use_like_the_orchestrator(frame.clone(), &mut rollup, &plan);
    use_like_the_orchestrator(frame, &mut rollup, &plan);
    assert_eq!(rollup.transport.batch_occupancy.count(), u64::MAX);
    assert_eq!(rollup.transport.batch_occupancy.sum(), u128::MAX);
    assert!(rollup.latency.is_empty());
}

/// Each of these two decoded reports once panicked `assemble_result` in a
/// debug build: a window claimed by two aggregators added its counts with a
/// plain `+` (now the owner's report is kept and the other counted; nothing
/// is added), and a worker counting tuples in a phase it was not active in
/// tripped a `debug_assert`.
#[test]
fn decoded_reports_claiming_a_window_twice_or_an_inactive_phase_assemble() {
    let plan = orchestrator_plan();
    assert!(plan.phases[0].workers < plan.spawned_workers);
    let frames = [
        ControlFrame::AggregatorReport {
            index: 0,
            report: AggregatorStageReport {
                finalized: BTreeMap::from([(0, HashMap::from([(7, u64::MAX)]))]),
                ..AggregatorStageReport::default()
            },
        },
        ControlFrame::WorkerReport {
            index: 0,
            report: WorkerStageReport {
                processed: 3,
                phase_counts: vec![1, 1, 1],
                ..WorkerStageReport::default()
            },
        },
    ];
    for frame in frames {
        let mut buf = Vec::new();
        encode_frame(&frame, &mut buf);
        let (decoded, _) = decode_frame::<ControlFrame>(&buf).expect("own encoding decodes");
        assert_eq!(decoded, frame);
        use_like_the_orchestrator(decoded, &mut MetricsSnapshot::default(), &plan);
    }
}

proptest! {
    // 64 cases locally; ci.sh raises this via PROPTEST_CASES.
    #![proptest_config(ProptestConfig::with_cases_env(64))]

    #[test]
    fn batch_frames_round_trip(
        window in any::<u64>(),
        source in any::<u32>(),
        seq in any::<u64>(),
        emitted_us in any::<u64>(),
        keys in proptest::collection::vec(any::<u64>(), 0..600),
    ) {
        let frame = TupleFrame::Batch { window, source, seq, emitted_us, keys: keys.clone() };
        let mut buf = Vec::new();
        encode_tuple_frame(&frame, &mut buf);
        let (back, consumed) = decode_tuple_frame(&buf).expect("own encoding decodes");
        prop_assert_eq!(back, frame);
        prop_assert_eq!(consumed, buf.len());
    }

    #[test]
    fn close_and_eof_frames_round_trip_and_concatenate(
        window in any::<u64>(),
        source in any::<u32>(),
        seq in any::<u64>(),
    ) {
        let close = TupleFrame::Close { window, source, seq };
        let mut buf = Vec::new();
        encode_tuple_frame(&close, &mut buf);
        encode_tuple_frame(&TupleFrame::Eof, &mut buf);
        let (first, consumed) = decode_tuple_frame(&buf).expect("first frame decodes");
        prop_assert_eq!(first, close);
        let (second, rest) = decode_tuple_frame(&buf[consumed..]).expect("second frame decodes");
        prop_assert_eq!(second, TupleFrame::Eof);
        prop_assert_eq!(consumed + rest, buf.len());
    }

    #[test]
    fn tuple_frame_prefixes_error_not_panic(
        window in any::<u64>(),
        keys in proptest::collection::vec(any::<u64>(), 0..64),
        fraction in 0.0f64..1.0,
    ) {
        let frame = TupleFrame::Batch { window, source: 2, seq: 11, emitted_us: 7, keys: keys.clone() };
        let mut buf = Vec::new();
        encode_tuple_frame(&frame, &mut buf);
        let cut = ((buf.len() - 1) as f64 * fraction) as usize;
        prop_assert!(decode_tuple_frame(&buf[..cut]).is_err(), "prefix of {} bytes decoded", cut);
    }

    #[test]
    fn tuple_frame_bad_tags_error(window in any::<u64>(), tag in 5u8..255) {
        // Tags 5.. are never valid on a tuple channel.
        let mut buf = Vec::new();
        encode_tuple_frame(&TupleFrame::Close { window, source: 0, seq: 0 }, &mut buf);
        buf[4] = tag; // corrupt the tag byte; length prefix stays valid
        prop_assert!(decode_tuple_frame(&buf).is_err());
    }

    /// Tag 5 was the worker → source replay request (`worker: u32`,
    /// `from_seq: u64`). It is retired, not free: what used to be a valid
    /// frame is a bad tag to every decoder that is left, whatever its body.
    #[test]
    fn retired_tag_5_is_rejected_by_every_decoder(
        worker in any::<u32>(),
        from_seq in any::<u64>(),
        body in proptest::collection::vec(any::<u8>(), 0..40),
    ) {
        let old = [&13u32.to_le_bytes()[..], &[5], &worker.to_le_bytes(), &from_seq.to_le_bytes()].concat();
        let soup = [&(body.len() as u32 + 1).to_le_bytes()[..], &[5], &body].concat();
        for frame in [old, soup] {
            prop_assert!(matches!(decode_tuple_frame(&frame), Err(WireError::BadTag(5))));
            prop_assert!(matches!(decode_frame::<PartialFrame<HashMap<u64, u64>>>(&frame), Err(WireError::BadTag(5))));
            prop_assert!(matches!(decode_frame::<ControlFrame>(&frame), Err(WireError::BadTag(5))));
        }
    }

    #[test]
    fn worker_checkpoints_round_trip_and_truncations_error(
        worker in any::<u64>(),
        windows_closed in any::<u64>(),
        processed in any::<u64>(),
        phase_counts in proptest::collection::vec(any::<u64>(), 0..6),
        next_seq in proptest::collection::vec(any::<u64>(), 0..6),
        keys in proptest::collection::vec(any::<u64>(), 0..64),
        open_windows in proptest::collection::vec(0u64..1_000, 0..4),
        partial_keys in proptest::collection::vec(any::<u64>(), 0..32),
    ) {
        // The encoder demands sorted state keys and open windows.
        let mut state_keys = keys.clone();
        state_keys.sort_unstable();
        state_keys.dedup();
        let mut windows = open_windows.clone();
        windows.sort_unstable();
        windows.dedup();
        let open: Vec<OpenWindowState> = windows
            .iter()
            .enumerate()
            .map(|(i, &window)| OpenWindowState {
                window,
                closes_seen: i as u64,
                partial: (i % 2 == 0).then(|| {
                    let mut blob = Vec::new();
                    counts_from(&partial_keys).encode_partial(&mut blob);
                    blob
                }),
            })
            .collect();
        let checkpoint = WorkerCheckpoint {
            worker,
            windows_closed,
            processed,
            phase_counts: phase_counts.clone(),
            next_seq: next_seq.clone(),
            state_keys,
            open,
        };
        let mut buf = Vec::new();
        checkpoint.encode(&mut buf);
        let mut input = buf.as_slice();
        let back = WorkerCheckpoint::decode(&mut input).expect("own encoding decodes");
        prop_assert!(input.is_empty(), "decode consumed exactly the encoding");
        prop_assert_eq!(back, checkpoint);
        // Totality: every strict prefix errors, never panics.
        for cut in 0..buf.len() {
            let mut slice = &buf[..cut];
            prop_assert!(WorkerCheckpoint::decode(&mut slice).is_err(), "cut at {}", cut);
        }
    }

    #[test]
    fn checkpoint_deltas_round_trip_and_reject_what_cannot_be_next(
        worker in any::<u64>(),
        windows_closed in 1u64..u64::MAX,
        processed in any::<u64>(),
        phase_counts in proptest::collection::vec(any::<u64>(), 0..6),
        next_seq in proptest::collection::vec(any::<u64>(), 0..6),
        keys in proptest::collection::vec(any::<u64>(), 2..64),
        open_windows in proptest::collection::vec(0u64..1_000, 0..4),
        partial_keys in proptest::collection::vec(any::<u64>(), 0..32),
    ) {
        // The encoder demands sorted fresh keys and open windows.
        let mut fresh_keys = keys.clone();
        fresh_keys.sort_unstable();
        fresh_keys.dedup();
        let mut windows = open_windows.clone();
        windows.sort_unstable();
        windows.dedup();
        let open: Vec<OpenWindowState> = windows
            .iter()
            .enumerate()
            .map(|(i, &window)| OpenWindowState {
                window,
                closes_seen: i as u64,
                partial: (i % 2 == 0).then(|| {
                    let mut blob = Vec::new();
                    counts_from(&partial_keys).encode_partial(&mut blob);
                    blob
                }),
            })
            .collect();
        let delta = CheckpointDelta {
            worker,
            windows_closed,
            processed,
            phase_counts: phase_counts.clone(),
            next_seq: next_seq.clone(),
            fresh_keys: fresh_keys.clone(),
            open,
        };
        let mut buf = Vec::new();
        delta.encode(&mut buf);
        let mut input = buf.as_slice();
        let back = CheckpointDelta::decode(&mut input).expect("own encoding decodes");
        prop_assert!(input.is_empty(), "decode consumed exactly the encoding");
        prop_assert_eq!(&back, &delta);
        // Totality: every strict prefix errors, never panics.
        for cut in 0..buf.len() {
            let mut slice = &buf[..cut];
            prop_assert!(CheckpointDelta::decode(&mut slice).is_err(), "cut at {}", cut);
        }
        // The leading tag is what tells a delta from a base record.
        let mut untagged = buf.clone();
        untagged[0] ^= 1;
        prop_assert!(CheckpointDelta::decode(&mut untagged.as_slice()).is_err());
        // Unsorted or duplicated fresh keys are rejected on decode. The key
        // list sits after the tag, three counters and two counted lists.
        if fresh_keys.len() >= 2 {
            let keys_at = 1 + 24 + 4 + 8 * phase_counts.len() + 4 + 8 * next_seq.len() + 4;
            let (first, second) = (keys_at..keys_at + 8, keys_at + 8..keys_at + 16);
            let mut swapped = buf.clone();
            swapped.copy_within(second.clone(), keys_at);
            swapped[second.clone()].copy_from_slice(&buf[first.clone()]);
            prop_assert!(CheckpointDelta::decode(&mut swapped.as_slice()).is_err());
            let mut duplicated = buf.clone();
            duplicated.copy_within(first, keys_at + 8);
            prop_assert!(CheckpointDelta::decode(&mut duplicated.as_slice()).is_err());
        }
        // Applying: only onto the same worker's state, only forward, and
        // only keys the state does not already hold.
        let before = WorkerCheckpoint {
            worker,
            windows_closed: windows_closed - 1,
            ..WorkerCheckpoint::default()
        };
        let mut state = before.clone();
        prop_assert!(state.apply(&delta).is_ok());
        prop_assert_eq!(&state.state_keys, &fresh_keys);
        for bad in [
            WorkerCheckpoint { windows_closed, ..before.clone() },
            WorkerCheckpoint { windows_closed: u64::MAX, ..before.clone() },
            WorkerCheckpoint { worker: worker.wrapping_add(1), ..before.clone() },
            WorkerCheckpoint { state_keys: vec![fresh_keys[0]], ..before.clone() },
        ] {
            let mut state = bad.clone();
            prop_assert!(state.apply(&delta).is_err(), "applied onto {:?}", bad);
            prop_assert_eq!(state, bad);
        }
    }

    #[test]
    fn count_partial_frames_round_trip(
        window in any::<u64>(),
        closed_us in any::<u64>(),
        keys in proptest::collection::vec(any::<u64>(), 0..400),
    ) {
        let frame = PartialFrame::Partial { window, worker: 5, closed_us, partial: counts_from(&keys) };
        let mut buf = Vec::new();
        encode_frame(&frame, &mut buf);
        let (back, consumed) = decode_frame::<PartialFrame<HashMap<u64, u64>>>(&buf).expect("decodes");
        prop_assert_eq!(back, frame);
        prop_assert_eq!(consumed, buf.len());
    }

    #[test]
    fn partial_frame_prefixes_error_not_panic(
        keys in proptest::collection::vec(any::<u64>(), 0..200),
        fraction in 0.0f64..1.0,
    ) {
        let frame = PartialFrame::Partial { window: 3, worker: 0, closed_us: 4, partial: counts_from(&keys) };
        let mut buf = Vec::new();
        encode_frame(&frame, &mut buf);
        let cut = ((buf.len() - 1) as f64 * fraction) as usize;
        prop_assert!(decode_frame::<PartialFrame<HashMap<u64, u64>>>(&buf[..cut]).is_err());
    }

    #[test]
    fn control_frames_round_trip(
        raw in proptest::collection::vec(any::<u64>(), 14..20),
        ports in proptest::collection::vec(any::<u16>(), 0..16),
        samples in proptest::collection::vec(0u64..100, 0..200),
        keys in proptest::collection::vec(any::<u64>(), 0..100),
    ) {
        for frame in control_frames(&raw, &ports, &samples, &keys) {
            let mut buf = Vec::new();
            encode_frame(&frame, &mut buf);
            let (back, consumed) = decode_frame::<ControlFrame>(&buf).expect("own encoding decodes");
            prop_assert_eq!(back, frame);
            prop_assert_eq!(consumed, buf.len());
        }
    }

    #[test]
    fn control_frame_prefixes_error_not_panic(
        raw in proptest::collection::vec(any::<u64>(), 14..20),
        ports in proptest::collection::vec(any::<u16>(), 0..16),
        samples in proptest::collection::vec(0u64..100, 0..200),
        keys in proptest::collection::vec(any::<u64>(), 0..100),
        fraction in 0.0f64..1.0,
    ) {
        for frame in control_frames(&raw, &ports, &samples, &keys) {
            let mut buf = Vec::new();
            encode_frame(&frame, &mut buf);
            let cut = ((buf.len() - 1) as f64 * fraction) as usize;
            prop_assert!(decode_frame::<ControlFrame>(&buf[..cut]).is_err());
        }
    }

    #[test]
    fn byte_soup_never_panics_any_decoder(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        // The result may be Ok (the bytes can accidentally form a frame) —
        // the property is that no input panics.
        let _ = decode_tuple_frame(&bytes);
        let _ = decode_frame::<PartialFrame<HashMap<u64, u64>>>(&bytes);
        let _ = WorkerCheckpoint::decode(&mut bytes.as_slice());
        let _ = CheckpointDelta::decode(&mut bytes.as_slice());
        // A delta tag followed by soup reaches the body decoder too.
        let tagged = [&[0xD1][..], &bytes].concat();
        let _ = CheckpointDelta::decode(&mut tagged.as_slice());
        // A control frame that does decode is then used. Soup alone rarely
        // gets past the length prefix, so it also rides behind a valid
        // prefix and each tag that carries a histogram.
        let (mut rollup, plan) = (MetricsSnapshot::default(), orchestrator_plan());
        if let Ok((frame, _)) = decode_frame::<ControlFrame>(&bytes) {
            use_like_the_orchestrator(frame, &mut rollup, &plan);
        }
        for tag in [18u8, 19, 20, 25] {
            let len = (bytes.len() + 1) as u32;
            let framed = [&len.to_le_bytes()[..], &[tag], &bytes].concat();
            if let Ok((frame, _)) = decode_frame::<ControlFrame>(&framed) {
                use_like_the_orchestrator(frame, &mut rollup, &plan);
            }
        }
    }

    #[test]
    fn damaged_control_frames_decode_to_an_error_or_to_something_usable(
        raw in proptest::collection::vec(any::<u64>(), 14..20),
        samples in proptest::collection::vec(0u64..100, 0..40),
        damage in proptest::collection::vec(any::<u64>(), 1..24),
    ) {
        let (mut rollup, plan) = (MetricsSnapshot::default(), orchestrator_plan());
        for frame in control_frames(&raw, &[7], &samples, &raw) {
            let mut buf = Vec::new();
            encode_frame(&frame, &mut buf);
            let body = buf.len() - 4;
            for &d in &damage {
                // One byte replaced, or eight set to 0xff (a counter near its
                // ceiling), anywhere behind the length prefix.
                let mut damaged = buf.clone();
                let at = 4 + (d >> 16) as usize % body;
                if d & 1 == 0 {
                    damaged[at] = (d >> 8) as u8;
                } else {
                    let end = (at + 8).min(damaged.len());
                    damaged[at..end].fill(0xff);
                }
                if let Ok((frame, _)) = decode_frame::<ControlFrame>(&damaged) {
                    use_like_the_orchestrator(frame, &mut rollup, &plan);
                }
            }
        }
    }

    #[test]
    fn report_histograms_survive_the_wire_exactly(
        values in proptest::collection::vec(any::<u64>(), 3..60),
        small in proptest::collection::vec(0u64..5_000, 3..200),
    ) {
        // Three phases, 10⁶ recordings each: microsecond-sized values in
        // bulk, as a worker records a batch, plus a few from anywhere in u64.
        let phase = |p: usize| {
            let mut hist = LogHistogram::new();
            let chosen: Vec<u64> = small.iter().skip(p).step_by(3).copied().collect();
            let share = 1_000_000 / chosen.len() as u64;
            for &v in &chosen {
                hist.record_n(v, share);
            }
            hist.record_n(values[p], 1_000_000 - share * chosen.len() as u64);
            hist
        };
        let worker = WorkerStageReport {
            processed: 3_000_000,
            phase_counts: vec![1_000_000; 3],
            phase_latencies: vec![phase(0), phase(1), phase(2)],
            phase_spans: vec![Some((1, 2)), None, Some((3, 4))],
            checkpoint_bytes: values[0],
            ..WorkerStageReport::default()
        };
        let aggregator = AggregatorStageReport {
            latencies: histogram_from(&values),
            merged: values.len() as u64,
            ..AggregatorStageReport::default()
        };
        let sent = worker.phase_latencies.iter().chain([&aggregator.latencies]);
        let sent: Vec<LogHistogram> = sent.cloned().collect();
        prop_assert!(sent[..3].iter().all(|hist| hist.count() == 1_000_000));
        let frames = [
            ControlFrame::WorkerReport { index: 2, report: worker },
            ControlFrame::AggregatorReport { index: 1, report: aggregator },
        ];
        let mut received = Vec::new();
        for frame in frames {
            let mut buf = Vec::new();
            encode_frame(&frame, &mut buf);
            let (back, consumed) = decode_frame::<ControlFrame>(&buf).expect("own encoding decodes");
            prop_assert_eq!(consumed, buf.len());
            prop_assert_eq!(&back, &frame);
            match back {
                ControlFrame::WorkerReport { report, .. } => received.extend(report.phase_latencies),
                ControlFrame::AggregatorReport { report, .. } => received.push(report.latencies),
                _ => unreachable!("a report went in"),
            }
        }
        // `==` on histograms already says this; spelled out, it is what the
        // orchestrator's mean, max and max-avg are computed from.
        prop_assert_eq!(received.len(), sent.len());
        for (got, want) in received.iter().zip(&sent) {
            prop_assert_eq!(got.count(), want.count());
            prop_assert_eq!(got.sum(), want.sum());
            prop_assert_eq!((got.min(), got.max()), (want.min(), want.max()));
            prop_assert_eq!(got.nonzero_buckets(), want.nonzero_buckets());
        }
    }

    #[test]
    fn engine_run_specs_round_trip_bit_exactly(
        kind_idx in 0usize..6,
        sources in 1usize..6,
        workers in 1usize..9,
        keys in 1usize..5_000,
        messages in 0u64..400_000,
        skew in 0.0f64..2.5,
        window_size in 1u64..5_000,
        queue_capacity in 1usize..2_000,
        batch_size in 1usize..1_024,
        service_time_us in 0u64..10_000,
        aggregators in 1usize..5,
        seed in any::<u64>(),
    ) {
        let spec = ClusterSpec {
            run: RunSpec::Engine(EngineConfig {
                kind: PartitionerKind::ALL[kind_idx],
                sources,
                workers,
                keys,
                skew,
                messages,
                service_time_us,
                queue_capacity,
                seed,
                batch_size,
                window_size,
                aggregators,
                solver: solver_from(seed),
                controller: controller_from(seed, workers),
            }),
        };
        let back = ClusterSpec::parse(&spec.render()).expect("own rendering parses");
        prop_assert_eq!(&back, &spec);
        // PartialEq compares floats; additionally pin the bit patterns.
        let (RunSpec::Engine(a), RunSpec::Engine(b)) = (&back.run, &spec.run) else {
            panic!("variant changed in round trip");
        };
        prop_assert_eq!(a.skew.to_bits(), b.skew.to_bits());
        prop_assert_eq!(controller_bits(&a.controller), controller_bits(&b.controller));
    }

    #[test]
    fn scenario_run_specs_round_trip_bit_exactly(
        kind_idx in 0usize..6,
        name in ".{0,12}",
        sources in 1usize..5,
        window_size in 1u64..512,
        seed in any::<u64>(),
        phase_windows in proptest::collection::vec(1u64..5, 1..4),
        phase_keys in proptest::collection::vec(1usize..2_000, 1..4),
        phase_skews in proptest::collection::vec(0.0f64..2.5, 1..4),
        phase_workers in proptest::collection::vec(1usize..8, 1..4),
        burst in proptest::collection::vec(0u64..500, 1..4),
        speed_len in 0usize..8,
        service_time_us in 0u64..200,
    ) {
        // Derived rather than drawn: the shim's debug tuple caps at 12 inputs.
        let aggregators = 1 + speed_len % 3;
        let n = phase_windows.len();
        // What the text form can carry: non-empty, one line, no edge whitespace.
        let name = format!("<{name}>");
        let mut scenario = Scenario::new(name, sources, window_size, seed);
        for p in 0..n {
            let keys = phase_keys[p % phase_keys.len()];
            let skew = phase_skews[p % phase_skews.len()];
            let workers = phase_workers[p % phase_workers.len()];
            let mut phase = ScenarioPhase::new(phase_windows[p], keys, skew, workers);
            if speed_len > 0 && p == 0 {
                phase = phase.with_worker_speed(
                    (0..workers).map(|w| 1.0 + (w % speed_len.max(1)) as f64 * 0.5).collect(),
                );
            }
            let burst_tuples = burst[p % burst.len()];
            if burst_tuples > 0 {
                phase = phase.with_arrival(Arrival::Bursty { burst_tuples, pause_us: burst_tuples / 3 });
            }
            scenario = scenario.phase(phase);
        }
        let mut cfg = ScenarioConfig::new(PartitionerKind::ALL[kind_idx], scenario)
            .with_service_time_us(service_time_us)
            .with_aggregators(aggregators)
            .with_solver(solver_from(seed));
        if let Some(controller) = controller_from(seed, phase_workers.iter().copied().max().unwrap_or(1)) {
            cfg = cfg.with_controller(controller);
        }
        let spec = ClusterSpec { run: RunSpec::Scenario(cfg) };
        let back = ClusterSpec::parse(&spec.render()).expect("own rendering parses");
        prop_assert_eq!(&back, &spec);
        let (RunSpec::Scenario(a), RunSpec::Scenario(b)) = (&back.run, &spec.run) else {
            panic!("variant changed in round trip");
        };
        for (pa, pb) in a.scenario.phases.iter().zip(&b.scenario.phases) {
            prop_assert_eq!(pa.skew.to_bits(), pb.skew.to_bits());
            let bits = |speeds: &[f64]| speeds.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&pa.worker_speed), bits(&pb.worker_speed));
        }
        prop_assert_eq!(controller_bits(&a.controller), controller_bits(&b.controller));
    }

    #[test]
    fn spec_text_never_panics_the_parser(
        lines in proptest::collection::vec(".{0,40}", 0..12),
        soup in ".{0,40}",
    ) {
        // The result may be Ok or Err — the property is that nothing a spec
        // file or a `Start` frame can say panics `ClusterSpec::parse`.
        let _ = ClusterSpec::parse(&lines.join("\n"));
        for spec in sample_specs() {
            let text = spec.render();
            // Every prefix (a torn config), …
            for (cut, _) in text.char_indices() {
                let _ = ClusterSpec::parse(&text[..cut]);
            }
            // … and every line's value in turn replaced by soup.
            let rendered: Vec<&str> = text.lines().collect();
            for i in 0..rendered.len() {
                let key = rendered[i].split(' ').next().unwrap_or_default();
                let mut mutated = rendered.clone();
                let line = format!("{key} {soup}");
                mutated[i] = &line;
                let _ = ClusterSpec::parse(&mutated.join("\n"));
            }
        }
    }

    #[test]
    fn partial_encodings_are_self_delimiting(
        keys_a in proptest::collection::vec(any::<u64>(), 0..200),
        keys_b in proptest::collection::vec(any::<u64>(), 0..200),
    ) {
        // Two partials concatenated decode back as exactly two partials.
        let (a, b) = (counts_from(&keys_a), counts_from(&keys_b));
        let mut buf = Vec::new();
        a.encode_partial(&mut buf);
        b.encode_partial(&mut buf);
        let mut input = buf.as_slice();
        let first = HashMap::<u64, u64>::decode_partial(&mut input).expect("first decodes");
        let second = HashMap::<u64, u64>::decode_partial(&mut input).expect("second decodes");
        prop_assert!(input.is_empty());
        prop_assert_eq!(first, a);
        prop_assert_eq!(second, b);
    }
}
