//! CI perf smoke: the batched engine hot path must clear a throughput floor.
//!
//! Three measurements, all at zero per-tuple service time so that routing,
//! batching, channel transport, and worker state updates are what is being
//! timed:
//!
//! 1. **Single-phase run** — the original floor. Set far under the
//!    ~30 Melem/s the batched transport measures on a developer machine, but
//!    well above the ~2.5 Melem/s the tuple-at-a-time transport topped out
//!    at, so a regression that reintroduces per-tuple channel round-trips
//!    cannot land silently.
//! 2. **Scenario run** — the phased run loop executing a two-phase scale-out
//!    scenario (boxed drifting streams, per-phase service lookup, partitioner
//!    rescale at the boundary). Its floor guards the scenario path's own
//!    overheads: a per-tuple virtual stream call is expected and priced in,
//!    but an accidental per-tuple allocation or re-hash would drop below it.
//! 3. **TCP-backend run** — the same single-phase config over the `slb-net`
//!    loopback TCP transport: frame encode/decode, one write syscall per
//!    batch, and each stage reading its own sockets through one `poll(2)`
//!    loop (no reader threads, no merge queue). Its floor is far below the
//!    in-process one by design — sockets are not crossbeam — but well above
//!    what a per-tuple (rather than per-batch) framing bug or an accidental
//!    per-frame flush storm would deliver.
//! 4. **SPSC-backend run** — the same single-phase config over the
//!    thread-per-core SPSC ring transport (lock-free rings, batch
//!    recycling, core pinning). Gated two ways: an absolute floor, and a
//!    relative gate against the interleaved InProc run of the same pair —
//!    the SPSC backend must not lose to the lock-based backend it exists
//!    to beat (a small tolerance absorbs scheduler noise; on multi-core
//!    machines the margin is a multiple, not a percentage).
//! 5. **Checkpoint overhead** — the single-phase config against the same
//!    config with per-window checkpoint persistence disabled (the
//!    measurement-only baseline, `run_windowed_without_checkpoints`),
//!    measured as five back-to-back A/B pairs. The always-on checkpoint
//!    path — sequence bookkeeping plus one encoded `WorkerCheckpoint` per
//!    window close — must cost less than 10% of fault-free throughput in
//!    the best pair; a regression that makes checkpointing per-tuple (or
//!    starts cloning worker state wholesale) lands far outside the budget
//!    in every pair. That config holds ~1 k keys, so it prices the
//!    per-close bookkeeping and says nothing about state size. A second
//!    gate runs the pair at the repo benchmark's `state_cold` shape —
//!    shuffle grouping, Zipf 0.6 over 100 k keys, 8 workers on the SPSC
//!    backend, so every worker ends up holding most of the key space — and
//!    demands a 0.80 ratio: a close that costs O(state) instead of
//!    O(window) (re-encoding, re-sorting or rewriting the whole key set)
//!    measures ≈ 0.2 there while still passing the small-state gate.
//! 6. **Telemetry overhead** — the single-phase config against the same
//!    config with telemetry collection disabled (the measurement-only
//!    baseline, `run_windowed_without_telemetry`), as five interleaved A/B
//!    pairs. The always-on observability layer — per-batch hop counters,
//!    occupancy histogram updates, and logical trace pushes — must stay
//!    within 5% of baseline throughput in the best pair; anything that
//!    moves telemetry into the per-tuple path (or adds an allocation per
//!    batch) is a multiple, not a percentage.
//! 7. **Controller overhead** — a static single-phase scenario with the
//!    elasticity controller enabled (worker count pinned, capacity
//!    effectively infinite: the controller observes every window, snapshots
//!    the head, re-solves `d`, and decides to do nothing) against the same
//!    scenario with the controller off, as five interleaved A/B pairs.
//!    The always-on cost — one `PerWindowLoads::record` per tuple plus the
//!    per-window observe/snapshot/solve step — must stay within 5% in the
//!    best pair; an accidental per-tuple snapshot or solver call is a
//!    multiple, not a percentage.
//!
//! The best of three runs (for the floors) and the best of five A/B pairs
//! (for the overhead ratio) are compared against the limits to damp
//! scheduler noise on loaded CI machines. See `docs/PERF.md` for the
//! measurement history.

use slb_core::{ControllerConfig, CountAggregate, PartitionerKind};
use slb_engine::{EngineConfig, InProc, ScenarioConfig, Spsc, Topology};
use slb_net::tcp::TcpTransport;
use slb_workloads::{Scenario, ScenarioPhase};

/// Conservative single-phase floor, in events per second.
const FLOOR_EPS: f64 = 5.0e6;

/// Conservative scenario-path floor, in events per second. The scenario run
/// pays a virtual call per tuple for the boxed drifting stream plus the
/// drift remap, so its floor sits below the single-phase one.
const SCENARIO_FLOOR_EPS: f64 = 4.0e6;

/// Conservative TCP-backend floor, in events per second: loopback sockets
/// with one frame per 256-tuple batch comfortably exceed this on any
/// machine; per-tuple framing regressions land an order of magnitude under.
const TCP_FLOOR_EPS: f64 = 1.0e6;

/// Maximum fraction of fault-free throughput the checkpoint path may cost:
/// the best checkpointed-vs-baseline pair must clear a 0.90 ratio.
const CHECKPOINT_MAX_OVERHEAD: f64 = 0.10;

/// The best checkpointed/baseline pair at `state_cold`'s shape must clear
/// this ratio. Looser than the small-state gate: the deltas really do carry
/// every new key once, and at this shape a third of the tuples bring one.
const CHECKPOINT_LARGE_STATE_MIN_RATIO: f64 = 0.80;

/// Maximum fraction of throughput the enabled-but-idle elasticity
/// controller may cost on a static scenario: the best controlled-vs-off
/// pair must clear a 0.95 ratio.
const CONTROLLER_MAX_OVERHEAD: f64 = 0.05;

/// Maximum fraction of throughput the always-on telemetry layer may cost:
/// the best instrumented-vs-baseline pair must clear a 0.95 ratio.
const TELEMETRY_MAX_OVERHEAD: f64 = 0.05;

/// Conservative SPSC-backend absolute floor, in events per second.
const SPSC_FLOOR_EPS: f64 = 5.0e6;

/// The best SPSC/InProc pairwise ratio must clear this: the lock-free
/// backend must at least match the lock-based one (0.95 leaves room for
/// scheduler noise on single-core CI runners, where both backends are
/// serialized onto one CPU and the SPSC win shrinks to the lock savings).
const SPSC_MIN_RATIO: f64 = 0.95;

fn best_of_three(label: &str, run: impl Fn() -> (f64, u64, f64)) -> f64 {
    let mut best: f64 = 0.0;
    for attempt in 0..3 {
        let (throughput, processed, elapsed) = run();
        println!(
            "perf_smoke {label} run {}: {:.2} Melem/s ({} tuples in {:.4}s)",
            attempt + 1,
            throughput / 1e6,
            processed,
            elapsed
        );
        best = best.max(throughput);
    }
    best
}

fn main() {
    let single = best_of_three("single-phase", || {
        let cfg = EngineConfig::smoke(PartitionerKind::Pkg, 2.0)
            .with_messages(400_000)
            .with_service_time_us(0);
        let r = Topology::new(cfg).run();
        (r.throughput_eps, r.processed, r.elapsed_secs)
    });

    // Two-phase scale-out scenario at a similar tuple budget: 2 sources ×
    // (24 + 24) windows × 4096 tuples ≈ 393k tuples, workers 4 → 8.
    let scenario = Scenario::new("perf", 2, 4_096, 42)
        .phase(ScenarioPhase::new(24, 1_000, 2.0, 4))
        .phase(ScenarioPhase::new(24, 1_000, 2.0, 8).with_drift_epochs(2));
    let scenario_best = best_of_three("scenario", || {
        let r = ScenarioConfig::new(PartitionerKind::Pkg, scenario.clone()).run();
        (r.throughput_eps, r.processed, r.elapsed_secs)
    });

    let tcp_best = best_of_three("tcp-backend", || {
        let cfg = EngineConfig::smoke(PartitionerKind::Pkg, 2.0)
            .with_messages(400_000)
            .with_service_time_us(0);
        let r = Topology::new(cfg)
            .run_windowed_on(CountAggregate, &TcpTransport::loopback())
            .result;
        (r.throughput_eps, r.processed, r.elapsed_secs)
    });

    // SPSC vs InProc A/B: interleaved pairs, best pairwise ratio — the same
    // noise-cancelling structure as the checkpoint gate below. The absolute
    // SPSC floor comes from the best SPSC side of any pair.
    let mut spsc_best: f64 = 0.0;
    let mut spsc_best_ratio: f64 = 0.0;
    for attempt in 0..3 {
        let cfg = || {
            EngineConfig::smoke(PartitionerKind::Pkg, 2.0)
                .with_messages(400_000)
                .with_service_time_us(0)
        };
        let spsc = Topology::new(cfg())
            .run_windowed_on(CountAggregate, &Spsc)
            .result;
        let inproc = Topology::new(cfg())
            .run_windowed_on(CountAggregate, &InProc)
            .result;
        let ratio = spsc.throughput_eps / inproc.throughput_eps;
        println!(
            "perf_smoke spsc pair {}: spsc {:.2} Melem/s vs inproc {:.2} Melem/s (ratio {:.3})",
            attempt + 1,
            spsc.throughput_eps / 1e6,
            inproc.throughput_eps / 1e6,
            ratio
        );
        spsc_best = spsc_best.max(spsc.throughput_eps);
        spsc_best_ratio = spsc_best_ratio.max(ratio);
    }

    // Checkpoint overhead A/B: the same config with durable checkpoint
    // writes elided. The two sides run *interleaved* (checkpointed,
    // baseline, checkpointed, …) and the gate takes the best *pairwise*
    // ratio: each ratio compares two runs launched back to back under the
    // same machine load, so time-varying CI load cancels within a pair
    // instead of turning into a phantom overhead. Taking the best of five
    // pairs damps the residual per-pair jitter — a real budget-busting
    // regression (per-tuple checkpointing, wholesale state clones) is a
    // multiple-of-throughput cost that no pair would survive, while a few
    // percent of true overhead plus noise must not flake the build.
    let mut checkpoint_best_ratio: f64 = 0.0;
    for attempt in 0..5 {
        let cfg = || {
            EngineConfig::smoke(PartitionerKind::Pkg, 2.0)
                .with_messages(400_000)
                .with_service_time_us(0)
        };
        let cp = Topology::new(cfg()).run_windowed(CountAggregate).result;
        let uncp = Topology::new(cfg())
            .run_windowed_without_checkpoints(CountAggregate, &InProc)
            .result;
        let ratio = cp.throughput_eps / uncp.throughput_eps;
        println!(
            "perf_smoke checkpoint pair {}: checkpointed {:.2} Melem/s vs baseline \
             {:.2} Melem/s (ratio {:.3})",
            attempt + 1,
            cp.throughput_eps / 1e6,
            uncp.throughput_eps / 1e6,
            ratio
        );
        checkpoint_best_ratio = checkpoint_best_ratio.max(ratio);
    }

    // The same A/B where worker state is large: the repo benchmark's
    // `state_cold` shape (benchmark/README.md) at a third of its length.
    let mut checkpoint_large_best_ratio: f64 = 0.0;
    for attempt in 0..5 {
        let cfg = || EngineConfig {
            workers: 8,
            keys: 100_000,
            queue_capacity: 1_024,
            window_size: 4_096,
            ..EngineConfig::smoke(PartitionerKind::ShuffleGrouping, 0.6)
                .with_messages(425_984)
                .with_service_time_us(0)
        };
        let cp = Topology::new(cfg())
            .run_windowed_on(CountAggregate, &Spsc)
            .result;
        let uncp = Topology::new(cfg())
            .run_windowed_without_checkpoints(CountAggregate, &Spsc)
            .result;
        let ratio = cp.throughput_eps / uncp.throughput_eps;
        println!(
            "perf_smoke large-state checkpoint pair {}: checkpointed {:.2} Melem/s vs baseline \
             {:.2} Melem/s (ratio {:.3})",
            attempt + 1,
            cp.throughput_eps / 1e6,
            uncp.throughput_eps / 1e6,
            ratio
        );
        checkpoint_large_best_ratio = checkpoint_large_best_ratio.max(ratio);
    }

    // Telemetry overhead A/B: the same config with the observability layer
    // (hop counters, occupancy histograms, trace pushes) disabled. Same
    // interleaved best-pairwise-ratio structure as the checkpoint gate:
    // telemetry is per-batch and per-window by construction, so its true
    // cost is a few percent at worst, and a regression that instruments the
    // per-tuple path fails every pair by a multiple.
    let mut telemetry_best_ratio: f64 = 0.0;
    for attempt in 0..5 {
        let cfg = || {
            EngineConfig::smoke(PartitionerKind::Pkg, 2.0)
                .with_messages(400_000)
                .with_service_time_us(0)
        };
        let on = Topology::new(cfg()).run_windowed(CountAggregate).result;
        let off = Topology::new(cfg())
            .run_windowed_without_telemetry(CountAggregate)
            .result;
        let ratio = on.throughput_eps / off.throughput_eps;
        println!(
            "perf_smoke telemetry pair {}: instrumented {:.2} Melem/s vs baseline \
             {:.2} Melem/s (ratio {:.3})",
            attempt + 1,
            on.throughput_eps / 1e6,
            off.throughput_eps / 1e6,
            ratio
        );
        telemetry_best_ratio = telemetry_best_ratio.max(ratio);
    }

    // Controller overhead A/B: a *static* single-phase scenario — the
    // controller has nothing useful to do, so the measurement isolates its
    // standing cost (per-tuple window-load recording, per-window
    // observe/snapshot/re-solve). D-Choices so the head snapshot and solver
    // are actually exercised; worker count pinned and capacity effectively
    // infinite so no rescale fires and both sides route the same stream
    // shape. Same interleaved best-pairwise-ratio structure as above.
    let controller_scenario =
        Scenario::new("perf-controller", 2, 4_096, 42).phase(ScenarioPhase::new(48, 1_000, 2.0, 4));
    let mut controller_best_ratio: f64 = 0.0;
    for attempt in 0..5 {
        let base = ScenarioConfig::new(PartitionerKind::DChoices, controller_scenario.clone());
        let on = base
            .clone()
            .with_controller(ControllerConfig::new(4, 4, u64::MAX))
            .run_windowed_on(CountAggregate, &InProc)
            .result;
        let off = base.run_windowed_on(CountAggregate, &InProc).result;
        let ratio = on.throughput_eps / off.throughput_eps;
        println!(
            "perf_smoke controller pair {}: controlled {:.2} Melem/s vs off {:.2} Melem/s \
             (ratio {:.3})",
            attempt + 1,
            on.throughput_eps / 1e6,
            off.throughput_eps / 1e6,
            ratio
        );
        controller_best_ratio = controller_best_ratio.max(ratio);
    }

    let mut failed = false;
    if single < FLOOR_EPS {
        eprintln!(
            "perf_smoke FAILED: single-phase best {:.2} Melem/s is below the {:.1} Melem/s \
             floor — the batched hot path has regressed",
            single / 1e6,
            FLOOR_EPS / 1e6
        );
        failed = true;
    }
    if scenario_best < SCENARIO_FLOOR_EPS {
        eprintln!(
            "perf_smoke FAILED: scenario best {:.2} Melem/s is below the {:.1} Melem/s \
             floor — the phased run loop has regressed",
            scenario_best / 1e6,
            SCENARIO_FLOOR_EPS / 1e6
        );
        failed = true;
    }
    if tcp_best < TCP_FLOOR_EPS {
        eprintln!(
            "perf_smoke FAILED: TCP-backend best {:.2} Melem/s is below the {:.1} Melem/s \
             floor — the networked transport has regressed",
            tcp_best / 1e6,
            TCP_FLOOR_EPS / 1e6
        );
        failed = true;
    }
    if spsc_best < SPSC_FLOOR_EPS {
        eprintln!(
            "perf_smoke FAILED: SPSC-backend best {:.2} Melem/s is below the {:.1} Melem/s \
             floor — the thread-per-core transport has regressed",
            spsc_best / 1e6,
            SPSC_FLOOR_EPS / 1e6
        );
        failed = true;
    }
    if spsc_best_ratio < SPSC_MIN_RATIO {
        eprintln!(
            "perf_smoke FAILED: best SPSC/InProc pair ratio {:.3} is below {:.2} — \
             the lock-free backend is losing to the lock-based one",
            spsc_best_ratio, SPSC_MIN_RATIO
        );
        failed = true;
    }
    if checkpoint_best_ratio < 1.0 - CHECKPOINT_MAX_OVERHEAD {
        eprintln!(
            "perf_smoke FAILED: best checkpointed/baseline pair ratio {:.3} is below \
             {:.2} — the checkpoint path costs more than 10% of fault-free throughput",
            checkpoint_best_ratio,
            1.0 - CHECKPOINT_MAX_OVERHEAD
        );
        failed = true;
    }
    if checkpoint_large_best_ratio < CHECKPOINT_LARGE_STATE_MIN_RATIO {
        eprintln!(
            "perf_smoke FAILED: best large-state checkpointed/baseline pair ratio {:.3} is \
             below {:.2} — a window close costs O(state), not O(window)",
            checkpoint_large_best_ratio, CHECKPOINT_LARGE_STATE_MIN_RATIO
        );
        failed = true;
    }
    if telemetry_best_ratio < 1.0 - TELEMETRY_MAX_OVERHEAD {
        eprintln!(
            "perf_smoke FAILED: best instrumented/baseline pair ratio {:.3} is below \
             {:.2} — the telemetry layer costs more than 5% of throughput",
            telemetry_best_ratio,
            1.0 - TELEMETRY_MAX_OVERHEAD
        );
        failed = true;
    }
    if controller_best_ratio < 1.0 - CONTROLLER_MAX_OVERHEAD {
        eprintln!(
            "perf_smoke FAILED: best controlled/off pair ratio {:.3} is below {:.2} — \
             the idle elasticity controller costs more than 5% of throughput",
            controller_best_ratio,
            1.0 - CONTROLLER_MAX_OVERHEAD
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "perf_smoke OK: single-phase {:.2} Melem/s clears {:.1}, scenario {:.2} Melem/s \
         clears {:.1}, tcp-backend {:.2} Melem/s clears {:.1}, spsc-backend {:.2} Melem/s \
         clears {:.1} at {:.2}x InProc, checkpoint overhead {:.1}% within the 10% budget \
         ({:.2} of baseline at large state, clears {:.2}), \
         telemetry overhead {:.1}% within the 5% budget, \
         controller overhead {:.1}% within the 5% budget",
        single / 1e6,
        FLOOR_EPS / 1e6,
        scenario_best / 1e6,
        SCENARIO_FLOOR_EPS / 1e6,
        tcp_best / 1e6,
        TCP_FLOOR_EPS / 1e6,
        spsc_best / 1e6,
        SPSC_FLOOR_EPS / 1e6,
        spsc_best_ratio,
        (1.0 - checkpoint_best_ratio).max(0.0) * 100.0,
        checkpoint_large_best_ratio,
        CHECKPOINT_LARGE_STATE_MIN_RATIO,
        (1.0 - telemetry_best_ratio).max(0.0) * 100.0,
        (1.0 - controller_best_ratio).max(0.0) * 100.0
    );
}
