#!/usr/bin/env bash
# CI gate: build + full test suite in the default config, then rebuild with
# ThreadSanitizer and re-run the concurrency-sensitive suites. The TSan pass
# is what keeps the multi-session server honest — the stress tests exercise
# submitters -> admission queue -> drivers -> shared WorkerGroup -> RA at
# once, so any missing synchronization shows up as a race report here.
# Last, an AddressSanitizer + UndefinedBehaviorSanitizer build runs the full
# suite.
#
# Usage: scripts/ci.sh [jobs]
#
# Every step runs, whatever an earlier one did: a failing bench gate must not
# hide the sanitizer steps behind it. Each step stops at its own first failing
# command; the script then lists the failed steps and exits nonzero.
#
# Step 3 repeats the full default-config suite 10x in parallel and fails on
# the first non-deterministic result. Before cutting a release, run the
# longer audit (20x, ~2 min on a 4-core host) —
#   ctest --test-dir build --output-on-failure -j "$(nproc)" \
#     --repeat until-fail:20
set -uo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

step_1() {
echo "=== [1/17] configure + build (default, warnings are errors) ==="
cmake --preset default -DRBC_WERROR=ON >/dev/null
cmake --build --preset default -j "$JOBS"
}

step_2() {
echo "=== [2/17] ctest (default) ==="
ctest --test-dir build --output-on-failure -j "$JOBS"
}

step_3() {
echo "=== [3/17] flake gate: full suite repeated 10x in parallel ==="
# Every test must pass 10 times over while the others load the host: a
# wall-clock comparison or an ordering race that passes once by luck fails
# here. ~5 s per pass on a 4-core host.
ctest --test-dir build --output-on-failure -j "$JOBS" --repeat until-fail:10
}

step_4() {
echo "=== [4/17] batched-hash equivalence under forced dispatch levels ==="
# The auto run above already covered the host's best level; re-run the batch
# suite, the search oracle (every search path against brute force), the
# candidate-stream contract, the fused, ordered, GPU-emu, hetero and
# distributed suites, and the multi-stream SHAKE suite with the key
# generators' golden keys (which expand their streams through it) with the
# RBC_HASH_SIMD knob capping dispatch so the scalar and (on AVX-512 hosts,
# where auto picks avx512) AVX2 code paths are exercised too.
for level in scalar avx2; do
  echo "--- RBC_HASH_SIMD=$level ---"
  RBC_HASH_SIMD="$level" ctest --test-dir build --output-on-failure \
    -j "$JOBS" \
    -R 'HashBatch|SearchOracle|StreamContract|Fusion|Ordered|SaltedKernel|HeteroCoSearch|DistSearch|ShakeMulti|KeygenGoldenVectors'
done
}

step_5() {
echo "=== [5/17] schedule equivalence: every search path == brute-force oracle ==="
# The one-cursor tile scheduler (docs/scheduler.md) must be a pure
# performance change: found/seed/distance and exhaustive seeds_hashed equal
# to the brute-force oracle's for every iterator family and unit count,
# tile plans lossless down to the ragged last tile, and the heterogeneous
# co-search, GPU-emu kernel, fused engine and distributed ranks agreeing
# with the same oracle (SearchOracle). An explicit re-run so a filter edit
# elsewhere can never silently drop the gate.
ctest --test-dir build --output-on-failure -j "$JOBS" \
  -R 'SearchOracle|ScheduleEquivalence|SeekEquivalence|HeteroCoSearch|ShellTiler|TileScheduler'
}

step_6() {
echo "=== [6/17] chaos smoke: fault injection + fuzz regression corpus ==="
# The deterministic chaos harness (docs/server.md "Fault model & retry
# policy"): fixed-seed fault plans through every layer — FaultPlan contract,
# channel fault semantics, ARQ survival/replay, and the 4-shard chaos run —
# plus the mutated-frame corpus as a deterministic parser regression. An
# explicit re-run so a filter edit elsewhere can never silently drop the
# seed-reproducibility gate.
ctest --test-dir build --output-on-failure -j "$JOBS" \
  -R 'ChaosPlan|ChaosChannel|ChaosProtocol|ChaosServer|FuzzDeserialize|FuzzSeqFrame|WireGolden'
}

step_7() {
echo "=== [7/17] bench smoke: Release bench build + batched hash throughput ==="
# Release-configured build of every bench, warnings are errors: -O3 inlines
# across more calls than the default build and can warn where it does not.
# Then one quick repetition proves the batched and heads-only kernels run at
# every advertised level, the scan runs over every candidate source, the
# multi-stream SHAKE runs at every level, the key generators run on it, and
# enrollment and the client's PUF reads run (full numbers: docs/perf.md).
if [[ "${RBC_CI_BENCH:-1}" == "1" ]]; then
  cmake --preset release -DRBC_WERROR=ON >/dev/null
  cmake --build --preset release -j "$JOBS" --target benches
  ./build-release/bench/bench_hash_throughput \
    --benchmark_filter='SeedBatched|SeedHeadsBatched|SeedFixed|ScanShell|Keygen|ShakeMulti|EnrollDevice|PufRespond' \
    --benchmark_min_time=0.05
else
  echo "(skipped: RBC_CI_BENCH=0)"
fi
}

step_8() {
echo "=== [8/17] bench smoke: server shard sweep -> build-release/BENCH_PR6.json ==="
# The sharded serving layer's acceptance run: 1/2/4/8 shards at equal total
# resources. The binary exits nonzero if sharded p95 regresses >10% against
# the single-queue baseline or any session registers a corrupt key. Steps
# 8/10/11/12 write their JSON under build-release/, so a CI run never
# overwrites the archived BENCH_PR*.json at the repository root (step 13
# tabulates those archives).
if [[ "${RBC_CI_BENCH:-1}" == "1" ]]; then
  cmake --build --preset release -j "$JOBS" --target bench_server_throughput
  ./build-release/bench/bench_server_throughput --sweep-only \
    --json build-release/BENCH_PR6.json
else
  echo "(skipped: RBC_CI_BENCH=0)"
fi
}

step_9() {
echo "=== [9/17] bench smoke: chaos p95 degradation sweep ==="
# Fixed-seed chaos run at drop rates 0/2/5/10%: every session must resolve
# (submitted == rejected + completed at each point) and no lossy session may
# register a corrupt key. The binary exits nonzero otherwise.
if [[ "${RBC_CI_BENCH:-1}" == "1" ]]; then
  ./build-release/bench/bench_server_throughput --chaos-only
else
  echo "(skipped: RBC_CI_BENCH=0)"
fi
}

step_10() {
echo "=== [10/17] bench smoke: lane fusion -> build-release/BENCH_PR8.json ==="
# The fusion engine's acceptance run: the 4096-session SHA-3 d=2 burst solo
# and fused (every session's scan in 64-lane turns on the shard's one pump
# thread). The binary exits nonzero unless fused throughput is >= 1.3x solo
# with lane occupancy >= 0.9 and zero corrupt registrations.
if [[ "${RBC_CI_BENCH:-1}" == "1" ]]; then
  ./build-release/bench/bench_server_throughput --fusion-only \
    --json build-release/BENCH_PR8.json
else
  echo "(skipped: RBC_CI_BENCH=0)"
fi
}

step_11() {
echo "=== [11/17] bench smoke: reliability-ordered search -> build-release/BENCH_PR9.json ==="
# The reliability-guided ordering acceptance run: a 192-session injected-d=3
# burst replayed under canonical and maximum-likelihood-first order. The
# binary exits nonzero unless the ordered run hashes >= 5x fewer seeds per
# authenticated session and serves >= 1.5x the sessions/s with per-session
# verdicts identical and zero corrupt registrations.
if [[ "${RBC_CI_BENCH:-1}" == "1" ]]; then
  ./build-release/bench/bench_server_throughput --ordering-only \
    --json build-release/BENCH_PR9.json
else
  echo "(skipped: RBC_CI_BENCH=0)"
fi
}

step_12() {
echo "=== [12/17] bench smoke: observability -> build-release/BENCH_PR10.json + metrics export ==="
# The observability layer's acceptance run: the dispatch-overhead burst
# untraced vs traced (span tracer + flight recorder armed), 5 back-to-back
# pairs alternating which side runs first. The binary exits nonzero unless
# the median pair's traced p95 stays within the 5% overhead gate with zero
# corruptions; the exported rbc.metrics.v1 JSON document and its Prometheus
# sidecar are then validated structurally (and cross-checked against each
# other) by scripts/check_metrics.py.
if [[ "${RBC_CI_BENCH:-1}" == "1" ]]; then
  ./build-release/bench/bench_server_throughput --obs-only \
    --obs-sessions 1024 --json build-release/BENCH_PR10.json \
    --metrics-out build-release/metrics.json
  if command -v python3 >/dev/null 2>&1; then
    python3 scripts/check_metrics.py build-release/metrics.json
  else
    echo "(metrics validation skipped: python3 not available)"
  fi
else
  echo "(skipped: RBC_CI_BENCH=0)"
fi
}

step_13() {
echo "=== [13/17] bench trajectory: merge archived BENCH_*.json ==="
# One table across every archived acceptance run; exits nonzero if any
# archived acceptance_* gate reads false (stale or regressed archive).
if command -v python3 >/dev/null 2>&1; then
  python3 scripts/bench_trend.py
else
  echo "(skipped: python3 not available)"
fi
}

step_14() {
echo "=== [14/17] configure + build (ThreadSanitizer) ==="
cmake --preset tsan >/dev/null
cmake --build --preset tsan -j "$JOBS"
}

step_15() {
echo "=== [15/17] ctest (tsan: concurrency suites) ==="
# TSan slows execution ~5-15x; run the suites that exercise cross-thread
# seams rather than the whole (mostly single-threaded) matrix. ShardStress
# runs the sharded server (shards > 1) through concurrent submit/stats/
# shutdown; ChaosServer does the same over lossy channels with per-session
# fault forks; EnrollmentDatabaseConcurrency hammers the striped store;
# FusionEngine/FusionServer drive the fused engine's pump from many drivers;
# StreamContract checks every candidate stream's cursor;
# OrderedSearch/OrderedFusion/OrderedServer run the reliability-ordered
# stream through multi-threaded solo scans, mixed-order fused sessions and
# a full server burst; ChasePlanCache and SingleFlightCache cover the
# process-wide tile-plan cache (concurrent first fetches, cut walks, waiters
# polling their own deadline, LRU eviction);
# ShardStress includes concurrent same-device submits drawing their salts;
# Obs* covers the lock-free trace ring under concurrent writers/snapshots
# and mid-traffic metrics export;
# SearchOracle runs every threaded search path against brute force.
# (ctest registers gtest CASE names, so the filter matches suite prefixes.)
TSAN_OPTIONS="halt_on_error=1" ctest --test-dir build-tsan \
  --output-on-failure -j "$JOBS" \
  -R 'SearchOracle|WorkerGroup|SearchContext|ServerStress|ShardStress|ChaosProtocol|ChaosServer|EnrollmentDatabaseConcurrency|RbcSearch|Backend|Protocol|LaunchKernel|SaltedKernel|DistSearch|Communicator|HashBatch|TileScheduler|TileSchedulerStress|ScheduleEquivalence|HeteroCoSearch|SeekEquivalence|ShellTiler|StreamContract|FusionStream|FusionEngine|FusionServer|OrderedSearch|OrderedFusion|OrderedServer|ChasePlanCache|SingleFlightCache|Obs'
}

step_16() {
echo "=== [16/17] configure + build (AddressSanitizer + UBSan, warnings are errors) ==="
cmake --preset asan -DRBC_SANITIZE=address,undefined -DRBC_WERROR=ON >/dev/null
cmake --build --preset asan -j "$JOBS"
}

step_17() {
echo "=== [17/17] ctest (asan + ubsan: full suite) ==="
# Memory and UB errors anywhere in the library: out-of-bounds offsets into
# ciphertext and hash buffers, overflowing shifts and multiplies, misaligned
# loads. halt_on_error turns every report into a test failure.
ASAN_OPTIONS="halt_on_error=1" \
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ctest --test-dir build-asan --output-on-failure -j "$JOBS"
}

FAILED=()
for n in $(seq 1 17); do
  (set -e; "step_$n")
  status=$?
  if ((status != 0)); then
    echo "--- step $n failed (exit $status)"
    FAILED+=("$n")
  fi
done

if ((${#FAILED[@]} > 0)); then
  echo "CI: failed steps: ${FAILED[*]}"
  exit 1
fi
echo "CI: all gates green"
