//! CI perf smoke: six absolute throughput floors, all at zero per-tuple
//! service time so that routing, batching, transport and worker state
//! updates are what is being timed. A floor catches order-of-magnitude
//! breakage cheaply; it cannot size a 10 % change on a shared box (one run
//! is 25–90 ms and pairs of identical runs scatter 0.7–1.4, docs/PERF.md
//! "PR 20"). Comparing two builds is the repo benchmark's job
//! (`benchmark/`, `BENCHMARK.json`), which the PR pipeline runs on parent
//! and change.
//!
//! Each floor takes the best of three runs and names the regression it
//! exists for. The ranges are single runs on the 2-core reference box (18
//! per floor, docs/PERF.md "PR 20"); every floor is at most half the lowest.
//!
//! 1. **single-phase** (PKG, InProc; 8.6–18.1 Melem/s) — a per-tuple
//!    channel round-trip tops out near 2.5 Melem/s. Telemetry and
//!    checkpointing are always on, so per-tuple counters, trace pushes or
//!    checkpoint writes land here too.
//! 2. **scenario** (PKG, two-phase scale-out with drift; 12.7–20.6) — the
//!    phased loop's boxed stream call per tuple is priced in; a per-tuple
//!    allocation or re-hash is not.
//! 3. **tcp-backend** (the single-phase config over loopback TCP; 3.4–9.3)
//!    — per-tuple framing or a flush per frame is an order of magnitude
//!    under.
//! 4. **spsc-backend** (the same over the SPSC rings; 15.7–26.5) — a ring
//!    that degrades to a lock or to spinning on a shared line. Whether SPSC
//!    beats InProc is the benchmark's `engine.{spsc,inproc}.hop_ns_per_tuple`.
//! 5. **large-state** (the benchmark's `state_cold` shape: shuffle grouping,
//!    Zipf 0.6 over 100 k keys, 8 workers, SPSC, so every worker ends up
//!    holding most of the key space; 3.4–6.2) — a window close that costs
//!    O(state) instead of O(window). Windows are 1,024 tuples, a quarter
//!    of `state_cold`'s, so that closes are frequent enough for the
//!    difference to be a multiple at CI length: re-sorting the key set at
//!    every close (what the engine did before PR 12) measures 0.8–1.25
//!    here and fails; at 4,096 it measures 2.3–3.0 against 4.4–5.5 and no
//!    floor could tell. A close that merely re-encodes every key (a few ns
//!    each) stays above the floor at 2.1–3.7; that one is for the
//!    benchmark's `state_cold` to catch, whose runs are long enough to
//!    fill the state (`cpu_ns_per_tuple` +22–48 %, `latency_p50_us`
//!    +27–45 % against 0.25 bounds, docs/PERF.md "PR 20").
//! 6. **controlled** (D-Choices on a static scenario with the elasticity
//!    controller attached, worker count pinned and capacity effectively
//!    infinite: it observes every window, snapshots the head, re-solves `d`
//!    and decides to do nothing; 8.7–16.1) — a head snapshot or a solver
//!    call per tuple rather than per window is a multiple, not a
//!    percentage.

use slb_core::{ControllerConfig, CountAggregate, PartitionerKind};
use slb_engine::{EngineConfig, EngineResult, ScenarioConfig, Spsc, Topology};
use slb_net::tcp::TcpTransport;
use slb_workloads::{Scenario, ScenarioPhase};

/// One floor: its label, the events per second its best run must reach,
/// what has regressed when it does not, and the run itself.
type Floor<'a> = (&'a str, f64, &'a str, &'a dyn Fn() -> EngineResult);

fn single_phase() -> Topology {
    Topology::new(
        EngineConfig::smoke(PartitionerKind::Pkg, 2.0)
            .with_messages(400_000)
            .with_service_time_us(0),
    )
}

fn large_state() -> Topology {
    Topology::new(EngineConfig {
        workers: 8,
        keys: 100_000,
        queue_capacity: 1_024,
        window_size: 1_024,
        ..EngineConfig::smoke(PartitionerKind::ShuffleGrouping, 0.6)
            .with_messages(425_984)
            .with_service_time_us(0)
    })
}

fn main() {
    // 2 sources × (24 + 24) windows × 4096 tuples ≈ 393k tuples, workers
    // 4 → 8; the controlled scenario is the same budget in one static phase.
    let scale_out = Scenario::new("perf", 2, 4_096, 42)
        .phase(ScenarioPhase::new(24, 1_000, 2.0, 4))
        .phase(ScenarioPhase::new(24, 1_000, 2.0, 8).with_drift_epochs(2));
    let static_phase =
        Scenario::new("perf-controller", 2, 4_096, 42).phase(ScenarioPhase::new(48, 1_000, 2.0, 4));
    let floors: [Floor; 6] = [
        ("single-phase", 5.0e6, "the batched hot path", &|| {
            single_phase().run()
        }),
        ("scenario", 4.0e6, "the phased run loop", &|| {
            ScenarioConfig::new(PartitionerKind::Pkg, scale_out.clone()).run()
        }),
        ("tcp-backend", 1.0e6, "the networked transport", &|| {
            single_phase()
                .run_windowed_on(CountAggregate, &TcpTransport::loopback())
                .result
        }),
        ("spsc-backend", 5.0e6, "the SPSC ring transport", &|| {
            single_phase().run_windowed_on(CountAggregate, &Spsc).result
        }),
        (
            "large-state",
            1.7e6,
            "the window close (O(state), not O(window)?)",
            &|| large_state().run_windowed_on(CountAggregate, &Spsc).result,
        ),
        (
            "controlled",
            4.0e6,
            "the idle elasticity controller (per-tuple snapshot or solve?)",
            &|| {
                ScenarioConfig::new(PartitionerKind::DChoices, static_phase.clone())
                    .with_controller(ControllerConfig::new(4, 4, u64::MAX))
                    .run()
            },
        ),
    ];

    let mut failed = false;
    for (label, floor, subject, run) in floors {
        let mut best: f64 = 0.0;
        for attempt in 1..=3 {
            let r = run();
            println!(
                "perf_smoke {label} run {attempt}: {:.2} Melem/s ({} tuples in {:.4}s)",
                r.throughput_eps / 1e6,
                r.processed,
                r.elapsed_secs
            );
            best = best.max(r.throughput_eps);
        }
        if best < floor {
            eprintln!(
                "perf_smoke FAILED: {label} best {:.2} Melem/s is below the {:.1} Melem/s \
                 floor — {subject} has regressed",
                best / 1e6,
                floor / 1e6
            );
            failed = true;
        } else {
            println!(
                "perf_smoke {label}: {:.2} Melem/s clears {:.1}",
                best / 1e6,
                floor / 1e6
            );
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("perf_smoke OK: six floors cleared");
}
