#!/usr/bin/env bash
# CI gate for the SLB workspace. Run from the repo root.
#
# Mirrors what a fresh-checkout pipeline should enforce, in cheap-to-expensive
# order. Everything is offline-friendly: the workspace has no registry
# dependencies (see vendor/README.md).
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> one codec: byte primitives only in slb-core/src/wire.rs, no second run-spec form"
if grep -rnE 'fn (read|take|write)_(u8|u16|u32|u64|f64|str|u64_list)\b' \
    crates/slb-core/src crates/slb-engine/src crates/slb-net/src |
    grep -v '^crates/slb-core/src/wire.rs'; then
    echo "byte primitives are defined once, in crates/slb-core/src/wire.rs: import them"
    exit 1
fi
if grep -rnE 'encode_run_spec|decode_run_spec' crates; then
    echo "the Start frame carries the text cluster spec; the binary run-spec codec was deleted"
    exit 1
fi

echo "==> one receive path: slb-net's tcp.rs owns no thread and no merge queue"
# Everything above the unit-test module: each stage reads its own sockets
# through the reactor's one poll(2) loop.
if sed '/^#\[cfg(test)\]/,$d' crates/slb-net/src/tcp.rs | grep -nE 'thread::spawn|crossbeam_channel'; then
    echo "tcp.rs must not start threads or queue between them: receivers are read by the stage that owns them"
    exit 1
fi

echo "==> one poll loop on the control plane: no sleeps, no locks, no shim channels, one thread, a process-free supervisor"
# The same cut as above: everything before each file's unit-test module.
control_plane="crates/slb-net/src/node.rs crates/slb-net/src/orchestrator.rs crates/slb-net/src/supervisor.rs"
for file in $control_plane; do
    if sed '/^#\[cfg(test)\]/,$d' "$file" | grep -nE 'thread::sleep|Mutex|crossbeam_channel'; then
        echo "$file: the control plane waits in poll(2) and shares nothing: no sleep, no lock, no shim channel"
        exit 1
    fi
done
spawns=$(for file in crates/slb-net/src/*.rs crates/slb-net/src/bin/*.rs; do
    sed '/^#\[cfg(test)\]/,$d' "$file"
done | grep -c 'thread::spawn' || true)
if [ "$spawns" != 1 ]; then
    echo "slb-net starts $spawns threads; exactly one is allowed, the node's control loop"
    exit 1
fi
if sed '/^#\[cfg(test)\]/,$d' crates/slb-net/src/supervisor.rs |
    grep -nE 'TcpStream|TcpListener|Child|Command|Instant::now|SystemTime'; then
    echo "supervisor.rs is policy only: no socket, no process, no clock read (the driver in orchestrator.rs has those)"
    exit 1
fi

echo "==> one heavy-hitter structure: SpaceSaving over one sorted array, no second estimator, no linked slabs"
if grep -rnE 'MisraGries|misra_gries|MergedSummary' crates; then
    echo "SpaceSaving is the only heavy-hitter summary"
    exit 1
fi
if grep -rnE 'struct (Node|Bucket)|free_(nodes|buckets)|NIL' crates/slb-sketch/src; then
    echo "space_saving.rs keeps its counters in one sorted Vec: no nodes, buckets, free lists or NIL links"
    exit 1
fi

echo "==> a key stream's tables are shared, and TCP back-pressure is the credit window"
# A source snapshots its stream by cloning it at every window close: a table
# held by value is a 2.4 MB copy per close at 100k keys.
if sed -n '/^pub struct ZipfGenerator {/,/^}/p' crates/slb-workloads/src/zipf.rs |
    grep -nE ':[[:space:]]*(ZipfDistribution|AliasTable)\b'; then
    echo "ZipfGenerator holds its immutable sampler tables behind Arc, so a clone copies a cursor"
    exit 1
fi
if grep -rnE 'SO_SNDBUF|SO_RCVBUF' crates/slb-net/src; then
    echo "frames in flight are bounded by tcp.rs's credit window, not by socket-buffer sizes"
    exit 1
fi

echo "==> one latency recorder, reports encode themselves: a LogHistogram everywhere, no raw samples, no twin report types"
# The JSON key "latency_buckets" (a string literal in to_json and the tests
# that read it) is the one allowed hit.
gone='LatencyTracker|SLB_LATENCY_RETAIN|sample_retention|value_runs|rle_encode|tracker_from_rle|ReportWire|_report_(to|from)_wire|latency_buckets'
if grep -rnE "$gone" crates src tests examples |
    sed -E 's/\\?"latency_buckets\\?"//g' | grep -E "$gone"; then
    echo "a latency distribution is a LogHistogram (recorded, reported, on the wire, in a snapshot); stage reports cross the wire as the engine's own structs"
    exit 1
fi

echo "==> one measurement system: telemetry and checkpointing have no off switch, perf_smoke gates floors only, a layer is measured in benchmark/"
# \bemit_json\b: the expt binary's own EXPT_*.json hook (slb-bench/src/table.rs,
# tested by tables_are_mirrored_to_json_via_the_env_hook) is a different thing.
if grep -rnE 'run_windowed_without_|plan\.telemetry|plan\.checkpointing|TraceBuf::disabled|_MAX_OVERHEAD|_MIN_RATIO|\bemit_json\b|json_sink' \
    crates vendor/criterion; then
    echo "no A/B switch in the plan, no ratio gate in perf_smoke, no BENCH_<name>.json mirror in the criterion shim: compare builds with the repo benchmark"
    exit 1
fi
if ls docs/BENCH_*.json docs/BENCH_baseline_* docs/BENCH_pr*_pairs.jsonl 2>/dev/null | grep .; then
    echo "the criterion-era bench files and the hand-written pair files were deleted; every measured change is one bench_compare row of docs/BENCH_history.jsonl"
    exit 1
fi

echo "==> every PERF.md citation names a heading docs/PERF.md still has"
# A citation is PERF.md "<title>" or PERF "<title>" (also `docs/PERF.md`,
# "<title>" and [PERF.md](PERF.md) "<title>"), possibly across a line break
# inside a doc comment; it names the heading that starts with <title>.
perf_headings=$(sed -nE 's/^#+ //p' docs/PERF.md)
stale=$(grep -rlE 'PERF' crates docs README.md ROADMAP.md .claude/skills |
    while read -r file; do
        sed -E 's%^[[:space:]]*(//[/!]?|#)[[:space:]]?%%' "$file" | tr '\n' ' ' |
            { grep -oE 'PERF(\.md)?`?(\]\(PERF\.md\))?,?[[:space:]]+"[^"]+"' || true; } |
            sed -E 's/^[^"]*"//; s/"$//' |
            while read -r title; do
                if ! printf '%s\n' "$perf_headings" |
                    awk -v t="$title" 'index($0, t) == 1 && substr($0, length(t) + 1, 1) !~ /[[:alnum:]]/ { found = 1 } END { exit !found }'; then
                    echo "$file: PERF.md \"$title\""
                fi
            done
    done)
if [ -n "$stale" ]; then
    echo "$stale"
    echo "these citations name no heading of docs/PERF.md: keep the heading or cite the one that holds the text now"
    exit 1
fi

echo "==> one Greedy-2, one head cut: the tail choice is PKG's function, the threshold arithmetic is carried"
if grep -rn 'choices_into(key, 2' crates/slb-core/src; then
    echo "two choices are pkg.rs's greedy_two (one digest, two integer mixes), not a scratch Vec of two"
    exit 1
fi
greedy=$(grep -rn 'choice_from_digest(digest, 1)' crates/slb-core/src | wc -l)
if [ "$greedy" != 1 ]; then
    echo "the Greedy-2 decision is written $greedy times under crates/slb-core/src; exactly once, in pkg.rs's greedy_two"
    exit 1
fi
# The warm-up length is a constant of the tracker: computed where it is built,
# never on the per-tuple path.
warmups=$(grep -c '2\.0 / ' crates/slb-core/src/head.rs || true)
in_new=$(sed -n '/    pub fn new(/,/^    }/p' crates/slb-core/src/head.rs | grep -c '2\.0 / ' || true)
if [ "$warmups" != 1 ] || [ "$in_new" != 1 ]; then
    echo "head.rs divides by theta $warmups times ($in_new in HeadTracker::new); exactly once, in new"
    exit 1
fi

echo "==> one way to build a partitioner: build_partitioner, also at every rebuild; one routing loop, the trait's"
# A scheme keeps no routing table, so a new worker count is a fresh build. The
# trait carries what its callers use; route_batch is its provided method only.
if grep -rnE 'fn rescale\b|\.rescale\(' crates src examples tests ||
    sed -n '/^pub trait Partitioner/,/^}/p' crates/slb-core/src/partitioner.rs |
    grep -nE 'fn (name|workers|rescale)\(' ||
    grep -rn 'fn route_batch' crates/slb-core/src | grep -v '^crates/slb-core/src/partitioner.rs:'; then
    echo "a partitioner is built, and rebuilt for a new worker count, by build_partitioner(kind, &config) only;"
    echo "the Partitioner trait has no rescale / name / workers, and no scheme outside partitioner.rs overrides route_batch"
    exit 1
fi

echo "==> one recovery plane: no worker -> source hop on any transport, no replay-request frame"
# trace_kind::REPLAY_REQUEST (slb-telemetry, used by slb-engine's worker) is
# the logical trace event of a worker asking, and stays; the wire tag of that
# name lived in slb-net.
if grep -rnE 'Feedback(Sender|Receiver|Frame|Tx|Rx)|TcpFeedback|feedback_channel|NoFeedback|ReplayRequest' \
    crates src tests examples || grep -rn 'REPLAY_REQUEST' crates/slb-net; then
    echo "a replay request is a \`SourceControlEvent::Rejoin\`: std mpsc in process, the control plane across processes"
    exit 1
fi

echo "==> one node protocol: every slb-node runs the supervised data plane, --fault-tolerant decides only durability and respawn"
if grep -rnE 'NoRecovery|fn recoverable|WorkerRecovery::none|fn run_node\b' crates src tests examples; then
    echo "every source is released by its control, every slb-node worker returns at the plan's last window"
    exit 1
fi
# The orchestrator's option stays; a node never asks which kind of run it is in.
if sed '/^#\[cfg(test)\]/,$d' crates/slb-net/src/node.rs | grep -n 'fault_tolerant'; then
    echo "node.rs: a worker persists iff it was given --ckpt-dir; no node branches on fault tolerance"
    exit 1
fi

echo "==> one end of stage, one TCP sender: workers and aggregators leave at the plan's last window, and TcpSender detaches and reattaches itself"
if grep -rnE 'exit_at_last_window|Mutex<Option<TcpTupleSender>>|fn is_attached|fn with_epoch\b|with_fixed_d' \
    crates src tests examples || grep -n 'Option<&mpsc::Receiver' crates/slb-engine/src/topology/aggregator.rs; then
    echo "no stage drains to EOF on any backend; a TcpSender holds its own detachable connection, one lock per send;"
    echo "a static d is with_solver(SolverMode::Fixed(d)), and TcpTransport has one constructor, loopback"
    exit 1
fi

echo "==> figure 9 routes through the partitioner: its search runs D-Choices with the solver pinned"
if grep -rn 'run_greedy_d_fixed' crates src tests examples; then
    echo "the empirical minimal d is searched on PartitionConfig::with_solver(SolverMode::Fixed(d)) through the Simulator"
    exit 1
fi

echo "==> one telemetry record: a snapshot contains its records, a stage is handed its HopTelemetry, the interval and the heartbeat timeout have one way in each"
if grep -rnE 'set_transport|fn live\(|AggregatorSupervision|SLB_METRICS_INTERVAL_MS|metrics_interval_from_env|SLB_HEARTBEAT_TIMEOUT_MS|heartbeat_timeout_from_env|millis_from_env' \
    crates src tests examples docs/OBSERVABILITY.md docs/DISTRIBUTED.md ||
    sed -n '/^pub struct MetricsSnapshot {/,/^}/p' crates/slb-telemetry/src/metrics.rs |
    grep -nE 'batches_sent|send_stall_us|recv_wait_us|restores|replay_requests'; then
    echo "a snapshot contains the hop and recovery records; a stage is handed its \`HopTelemetry\`;"
    echo "the metrics interval is --metrics-interval-ms and the heartbeat timeout OrchestrateOptions::heartbeat_timeout, no env var"
    exit 1
fi

echo "==> one aggregation, the count: no second aggregate, no summary merge, no partial codec only they used"
if grep -rnE 'SumAggregate|TopKAggregate|merge_space_saving|from_counters|observe_many' \
    crates src tests examples ||
    sed -n '/^pub trait WindowAggregate/,/^}/p' crates/slb-core/src/aggregate.rs | grep -n 'fn name'; then
    echo "CountAggregate is the one aggregate: every run merges exact per-key counts, and WindowAggregate has no name"
    exit 1
fi

echo "==> one probe per tuple at the worker: the whole-run key set is filled at a window close, not per tuple"
# Everything above the unit-test module. A key new to its window is queued;
# drain_arrived files the queue into the set, called by save_checkpoint and
# once more at stage exit.
worker=$(sed '/^#\[cfg(test)\]/,$d' crates/slb-engine/src/topology/worker.rs)
stage=$(sed -n '/^pub fn run_worker_stage/,/^}/p' <<<"$worker")
inserts=$(grep -c 'keys\.insert' <<<"$worker" || true)
in_drain=$(sed -n '/    fn drain_arrived(/,/^    }/p' <<<"$worker" | grep -c 'keys\.insert' || true)
in_save=$(sed -n '/    fn save_checkpoint/,/^    }/p' <<<"$worker" | grep -c 'drain_arrived()' || true)
in_stage=$(grep -c 'drain_arrived()' <<<"$stage" || true)
if [ "$inserts" != 1 ] || [ "$in_drain" != 1 ] || [ "$in_save" != 1 ] || [ "$in_stage" != 1 ] ||
    grep -n 'keys\.insert' <<<"$stage"; then
    echo "worker.rs: the key set is inserted into only by drain_arrived, from save_checkpoint and the exit drain"
    echo "(found $inserts inserts, $in_drain in drain_arrived; drain_arrived called $in_save times in save_checkpoint, $in_stage in run_worker_stage)."
    echo "A per-tuple probe of the ~67k-key set missed cache on state_cold: it was the unexplained part of budget.residual_share."
    exit 1
fi

echo "==> a checkpoint covers the finalized prefix: a worker record holds no open window, and replay rebuilds the windows in flight"
# Everything above worker.rs's unit-test module: no partial is encoded into,
# or decoded from, a checkpoint.
if grep -rn 'OpenWindowView' crates ||
    sed '/^#\[cfg(test)\]/,$d' crates/slb-engine/src/topology/worker.rs | grep -nE 'encode_partial|decode_partial'; then
    echo "a worker's checkpoint records its counters, cursors and keys as of the last finalized window and no open window;"
    echo "a restore starts with none and the replay from the recorded cursors rebuilds them (docs/FAULTS.md)"
    exit 1
fi

echo "==> one aggregator per window: a worker ships each window whole to its owner, and assembly merges no partial"
# Everything above each file's unit-test module: no engine or net code
# shards a partial by key. In assemble_result a two-argument merge( is a
# partial merge (the telemetry merges take one argument).
sharding=$(for file in $(find crates/slb-engine/src crates/slb-net/src -name '*.rs' | sort); do
    sed '/^#\[cfg(test)\]/,$d' "$file" | grep -nE 'shard_of\(|\.shard\(|SHARD_SEED' | sed "s|^|$file:|" || true
done)
assembly=$(sed -n '/^pub fn assemble_result/,/^}/p' crates/slb-engine/src/topology/runner.rs |
    grep -nE '\bmerge\(.*,|WindowAggregate' || true)
if [ -n "$sharding$assembly" ]; then
    printf '%s\n' "$sharding" "$assembly"
    echo "aggregator window mod A owns each window: a worker ships its partial whole there, nothing shards by key,"
    echo "and assemble_result inserts the owners' disjoint windows (docs/PERF.md: one aggregator per window)"
    exit 1
fi

echo "==> thread placement is the scheduler's: no core pinning, no FFI in the engine"
if grep -rnE 'CorePinning|StageRole|core_pinning|pin_current_thread|sched_setaffinity' \
    crates src tests examples; then
    echo "stage threads are placed by the OS scheduler on every backend; pinning was measured neutral on every Spsc workload (docs/PERF.md)"
    exit 1
fi
# The rings' five sites are the engine's only unsafe code, the ones the model
# suite below covers; sync.rs hands them raw pointers and holds none itself.
if grep -rnE 'extern "C"|unsafe' crates/slb-engine/src | grep -v '^crates/slb-engine/src/spsc.rs:'; then
    echo "slb-engine declares no FFI, and its unsafe code is spsc.rs's alone"
    exit 1
fi

echo "==> spsc.rs reaches its concurrency through crate::sync"
# Everything above spsc.rs's unit-test module: an atomic, lock, Arc, slot
# cell or backoff step taken from std directly is one the model never sees.
# A std::{..} group could hide one, so none is allowed either.
if sed '/^#\[cfg(test)\]/,$d' crates/slb-engine/src/spsc.rs |
    grep -nE 'std::(\{|sync|thread|hint)|std::cell::[^;]*UnsafeCell'; then
    echo "spsc.rs takes its atomics, Arc, Mutex, UnsafeCell, spin_loop, yield_now and sleep from crate::sync, so the model checker sees them"
    exit 1
fi

echo "==> one list of stage codes: slb_telemetry::stage"
if grep -rn 'snapshot_stage' crates src tests examples; then
    echo "TraceEvent.stage, MetricsSnapshot.stage and NodeRole's wire byte all read slb_telemetry::stage"
    exit 1
fi

echo "==> no no-op serde derives"
if grep -rnE '\b(Serialize|Deserialize)\b|use serde' crates src tests examples; then
    echo "the vendored serde_derive expands to nothing and nothing serialises through serde: the wire is wire_type!"
    exit 1
fi

echo "==> one experiment binary: every figure is a registered experiment of expt, every table one Table"
extra=$(ls crates/slb-bench/src/bin | grep -vxE 'expt\.rs|perf_smoke\.rs|bench_compare\.rs' || true)
if [ -n "$extra" ]; then
    echo "$extra"
    echo "slb-bench has three binaries: an experiment is a function in the EXPERIMENTS registry of expt, not a binary"
    exit 1
fi
if grep -rn 'JsonValue' crates; then
    echo "a table prints and records one row of cells through slb-bench's Table, written with slb_benchmark::json::Value"
    exit 1
fi

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> release build"
cargo build --release

echo "==> workspace tests (all crates; superset of the tier-1 \`cargo test -q\`; includes the golden_bytes wire fixture)"
# The golden suite inside this run executes every experiment of the expt
# binary at smoke scale and asserts the deterministic scheme orderings in their output
# (crates/slb-bench/tests/golden.rs), so there is no separate exit-code-only
# experiment loop anymore.
cargo test -q --workspace

echo "==> differential seed matrix (key-splitting soundness per seed, static + scenario + cross-backend)"
for seed in 1 42 1337; do
    echo "    SLB_TEST_SEED=$seed"
    SLB_TEST_SEED="$seed" cargo test -q -p slb-engine --test differential --test scenario_differential
    # Cross-backend: the same configs over the SPSC ring backend and TCP
    # loopback must merge bit-identical windows (and the multi-process
    # slb-node golden run re-verifies against the exact reference at this
    # seed).
    SLB_TEST_SEED="$seed" cargo test -q -p slb-net --test backend_differential --test node_golden
    # Closed-loop elasticity: controlled runs must stay bit-identical to the
    # exact reference on every backend, beat the static-d baselines on
    # drift, and produce one decision log everywhere (engine == simulator,
    # InProc == SPSC == TCP, any batch size, with or without faults).
    SLB_TEST_SEED="$seed" cargo test -q -p slb-net --test controller_differential
    # Logical traces: the telemetry event stream must be bit-identical
    # across backends, reruns, and batch sizes (docs/OBSERVABILITY.md).
    SLB_TEST_SEED="$seed" cargo test -q -p slb-net --test trace_differential
done

echo "==> fault-injection seed matrix (exactly-once under kills and losses, every backend)"
for seed in 1 42 1337; do
    echo "    SLB_TEST_SEED=$seed"
    SLB_TEST_SEED="$seed" cargo test -q -p slb-net --test fault_injection
    # Process-level faults: SIGKILL a live worker, respawn from the durable
    # checkpoint, verify bit-identical counts; then exhaust the budget and
    # verify degrade-instead-of-hang. The hard wall-clock cap turns any
    # supervision deadlock into a CI failure rather than a stuck pipeline.
    SLB_TEST_SEED="$seed" timeout 300 cargo test -q -p slb-net --test node_faults
done

echo "==> property suites at CI case counts"
PROPTEST_CASES=256 cargo test -q -p slb-core --test batch_equivalence --test aggregate_props --test checkpoint_props --test durable_props --test controller_props --test head_props
# Routing decisions against literals captured before PR 21 (no cases to raise:
# two fixed streams, six schemes, both sides of the D-Choices solver).
cargo test -q -p slb-core --test routing_golden
PROPTEST_CASES=256 cargo test -q -p slb-sketch --test proptests
PROPTEST_CASES=256 cargo test -q -p slb-workloads --test scenario_props
PROPTEST_CASES=256 cargo test -q -p slb-engine --test scenario_props --test ring_props --test replay_props --test latency_props
# The SPSC rings under the model checker, by name: every schedule up to the
# preemption bound of each scenario, plus the checker's own tests
# (docs/TESTING.md, "Model checking the SPSC rings").
cargo test -q -p slb-engine --lib -- model::
# What a recoverable source allocates per window close (counting allocator).
cargo test -q -p slb-engine --test snapshot_cost
PROPTEST_CASES=256 cargo test -q -p slb-telemetry --test histogram_props
PROPTEST_CASES=256 cargo test -q -p slb-net --test wire_props --test reactor_props
# The TCP credit window, by name. Unit tests: a full window holds the next
# send, a vanished receiver ends the wait, a large last frame survives the
# sender's drop, a reattached connection starts with a full window.
# reactor_props: unread credits cost nothing (g), each connection is credited
# with exactly its own frames (f).
PROPTEST_CASES=256 cargo test -q -p slb-net --lib --test reactor_props -- \
    window_ reattachable_sender connections_with_frames_waiting
# The orchestrator's state machine under arbitrary event sequences (no
# process, no socket: the whole module's tests run in well under a second).
PROPTEST_CASES=256 cargo test -q -p slb-net --lib supervisor

echo "==> rustdoc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> examples (quickstart and imbalance_study already ran via tests/examples_smoke.rs)"
cargo run --quiet --release --example trending_topics > /dev/null
cargo run --quiet --release --example storm_like_topology > /dev/null

echo "==> perf smoke (six best-of-three throughput floors at zero service time: single-phase, scenario, TCP, SPSC, large-state close, idle controller)"
cargo run --quiet --release -p slb-bench --bin perf_smoke

echo "==> criterion benches (quick mode, compile + run: bench_partitioners, bench_bound)"
# Named, so cargo does not also build the crate's 21 binaries as bench targets.
SLB_BENCH_QUICK=1 cargo bench -p slb-bench --quiet --bench bench_partitioners --bench bench_bound > /dev/null

echo "==> benchmark package builds and smoke-tests against the workspace (an engine API change that breaks benchmark/ fails here, not at the benchmark gate)"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test -q --offline --manifest-path benchmark/Cargo.toml
if [ -n "$(git status --porcelain -- benchmark)" ]; then
    echo "benchmark/ is dirty after its build and tests:"
    git status --short -- benchmark
    exit 1
fi

echo "CI PASSED"
