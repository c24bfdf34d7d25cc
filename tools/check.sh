#!/usr/bin/env bash
# Builds and tests the three configurations:
#   build/          RelWithDebInfo (the tier-1 configuration)
#   build-sanitize/ Debug + ASan/UBSan, with GRF_DCHECK assertions live
#   build-tsan/     Debug + ThreadSanitizer (task pool + parallel executor)
#
# The tier-1 configuration re-runs the graph and differential suites with
# the worker count pinned to 1 and to 4. The sanitize and tsan
# configurations additionally re-run the graph
# differential suite (1 worker vs. 4 workers as exact row sequences, both
# against a brute-force reference) with the SPScan invariant tests
# and the fault-injection fuzz (random failpoints + random cancellation
# against the robustness invariants) twice: once with built-in fixed seeds
# and once with a fresh random seed exported through GRF_FUZZ_SEED, so every
# CI run explores new graphs and fault schedules.
#
# Usage: tools/check.sh [--fast]
#   --fast  tier-1 configuration only
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"

run_config() {
  local dir="$1"; shift
  cmake -B "$dir" -S . "$@" >/dev/null
  cmake --build "$dir" -j "$JOBS"
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
}

# Graph differential + fault-injection suites under one instrumented build:
# fixed seeds first (reproducible), then one random seed (printed so failures
# can be replayed with GRF_FUZZ_SEED=<seed>).
run_graph_diff() {
  local dir="$1"
  ctest --test-dir "$dir" --output-on-failure \
    -R 'GraphDiff|Frontier|TaskPool|FaultInjection|Failpoint|Cancellation|Session|PlanCache|Prepared|Concurrency|Snapshot|Recovery|CrashRecover|Server|StatusCodeWire|RowBatch|ActiveQueries|StatementStats|ExplainTrace|EngineMetrics|PathSemantics|SpScan|DfsScan|BfsDeepening|EdgeColumn|PathRun|OuterCopy|ExplainPathProperty|MorselAgg|CsrVertexLookup|FrontierEarlyEmit|FrontierMemory|FrontierOverlay|SpScanEarlyDrop|PointBound|LeafRun'
  local seed="${GRF_FUZZ_SEED:-$RANDOM$RANDOM}"
  echo "== graph differential + fault-injection suites, random seed ${seed} =="
  GRF_FUZZ_SEED="$seed" ctest --test-dir "$dir" --output-on-failure \
    -R 'GraphDiffFuzzEnvTest|FrontierDiffFuzzEnvTest|PointBoundDiffEnvTest|FaultInjectionFuzzEnvTest|PlanCacheChurnFuzzEnvTest|SnapshotFuzzEnvTest|CrashRecoverFuzzEnvTest'
}

echo "== tier-1 (RelWithDebInfo) =="
run_config build -DCMAKE_BUILD_TYPE=RelWithDebInfo

# Graph and differential suites with the worker count pinned to 1 and to 4
# (GRF_TEST_MAX_PARALLELISM, honoured by the test fixtures and
# tests/sql_test_util.h), so both the serial and the parallel paths run on
# any host, whatever its core count.
echo "== graph + differential suites at 1 and 4 workers =="
for workers in 1 4; do
  GRF_TEST_MAX_PARALLELISM="$workers" ctest --test-dir build \
    --output-on-failure -j "$JOBS" \
    -R 'GraphSql|PathSemantics|SpScan|DfsScan|BfsDeepening|GraphDiff|FrontierDiff|SqlFuzz|CrossValidation|GraphAlg|Executor|Optimizer|EdgeColumn|PathRun|OuterCopy|ExplainPathProperty|MorselAgg|CsrVertexLookup|FrontierEarlyEmit|FrontierMemory|FrontierOverlay|SpScanEarlyDrop|PointBound|LeafRun'
done

# Session-layer throughput smoke: exercises the plan cache, prepared
# statements, and multi-session shared-read execution end to end, and leaves
# BENCH_throughput.json behind for inspection.
echo "== throughput smoke (plan cache + sessions) =="
GRF_BENCH_MIN_TIME="${GRF_BENCH_MIN_TIME:-0.05}" ./build/bench/throughput

# MVCC smoke: snapshot readers racing a committing writer. Leaves
# BENCH_throughput_mvcc.json behind (read-only vs. mixed read QPS and the
# writer's commit rate); the schema check below validates it.
echo "== mixed read/write throughput smoke (MVCC snapshots) =="
GRF_BENCH_MIN_TIME="${GRF_BENCH_MIN_TIME:-0.05}" ./build/bench/throughput --mixed

# Durability smoke: DML commit rate memory-only vs. WAL under each sync mode
# (plus a 4-writer group-commit sweep — fsyncs-per-commit below 1.0 is the
# batching working). Leaves BENCH_throughput_wal.json behind.
echo "== durability throughput smoke (WAL + group commit) =="
GRF_BENCH_MIN_TIME="${GRF_BENCH_MIN_TIME:-0.05}" ./build/bench/throughput --durability

# Server smoke: multi-process load against the wire protocol — 4 client
# processes, mixed prepared point reads + writes, durable group-commit WAL
# database. Exits non-zero on any client-visible error; leaves
# BENCH_server.json behind (QPS, p50/p99 latency).
echo "== server load smoke (wire protocol, 4 processes) =="
GRF_SERVER_LOAD_CLIENTS="${GRF_SERVER_LOAD_CLIENTS:-4}" \
  GRF_SERVER_LOAD_SECONDS="${GRF_SERVER_LOAD_SECONDS:-1}" \
  ./build/bench/server_load

# Observability smoke: re-run the bench briefly with the trace sink armed
# (sample every query), then validate the emitted Chrome trace documents and
# the BENCH_*.json reports with the schema checker.
if command -v python3 >/dev/null 2>&1; then
  echo "== trace sink smoke (GRF_TRACE_DIR) =="
  TRACE_DIR="$(mktemp -d)"
  trap 'rm -rf "$TRACE_DIR"' EXIT
  GRF_TRACE_DIR="$TRACE_DIR" GRF_TRACE_SAMPLE=1 \
    GRF_BENCH_MIN_TIME=0.01 ./build/bench/throughput >/dev/null
  python3 tools/validate_trace.py --require-traces "$TRACE_DIR" \
    BENCH_*.json
else
  echo "== trace sink smoke skipped (python3 not found) =="
fi

if [[ "${1:-}" != "--fast" ]]; then
  echo "== sanitize (Debug + ASan/UBSan) =="
  run_config build-sanitize -DCMAKE_BUILD_TYPE=Debug -DGRF_SANITIZE=ON
  run_graph_diff build-sanitize

  echo "== tsan (Debug + ThreadSanitizer) =="
  run_config build-tsan -DCMAKE_BUILD_TYPE=Debug -DGRF_TSAN=ON
  run_graph_diff build-tsan
fi

echo "All checks passed."
