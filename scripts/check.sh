#!/usr/bin/env bash
# One-command correctness + performance smoke: configure, build, run the
# tier-1 test suite, then run the simulator throughput harness (which
# writes BENCH_simulator.json next to the build tree), and end by checking
# that the committed BENCH_*.json artifacts are fresh.
#
# Environment knobs:
#   BUILD_DIR        build tree (default: <repo>/build)
#   CANVAS_SANITIZE  address|undefined|address,undefined -> sanitized build
#   CANVAS_QUICK=1   pass --quick to the throughput harness
#   CANVAS_NO_ASAN_FAULT=1  skip the extra ASan+UBSan fault-suite pass
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${BUILD_DIR:-$ROOT/build}"
JOBS="$(nproc 2>/dev/null || echo 2)"

cmake -B "$BUILD" -S "$ROOT" \
  ${CANVAS_SANITIZE:+-DCANVAS_SANITIZE=$CANVAS_SANITIZE}
cmake --build "$BUILD" -j"$JOBS"
ctest --test-dir "$BUILD" --output-on-failure -j"$JOBS"

# Sanitized pass over the fault + trace + orchestrator + remote + serving
# + tier + churn suites (ctest labels): the chaos/property tests drive the
# retry/failover paths where request-lifetime bugs would hide, the trace
# suite exercises the ring and exporters, the orchestrator suite runs
# multi-threaded sweeps, the remote suite churns slab migration/eviction
# under harvesting, the serving suite runs the open-loop SLO observer, the
# tier suite admits and releases pages across the hybrid local tier, and the
# churn suite retires and reaps tenants mid-run (where stale-slot
# use-after-frees would hide), and the object suite churns the object
# registry and pins/unpins behaviour read-sets through the cooperative
# channel, the cli suite feeds canvasctl malformed flags, unknown axis
# names and unreadable plans, the mem and sched suites drive the swap
# cache's LRU relinking and the timeliness tracker's sorted window with
# seeded random differentials, the sim suite runs the event queue's
# differential (wheel cascades, overflow heap, backlog), the rdma suite
# checks that a freed pooled request is poisoned, and the core and
# property suites drive SwapSystem's request path (fault, rescue, reclaim,
# writeback) end to end, so they always also run under ASan+UBSan.
# Skipped when the main build is already sanitized.
if [ -z "${CANVAS_SANITIZE:-}" ] && [ "${CANVAS_NO_ASAN_FAULT:-0}" != "1" ]; then
  SAN_BUILD="${SAN_BUILD_DIR:-$ROOT/build-asan}"
  cmake -B "$SAN_BUILD" -S "$ROOT" -DCANVAS_SANITIZE=address,undefined
  cmake --build "$SAN_BUILD" -j"$JOBS" \
    --target fault_injection_test fault_property_test trace_test \
             orchestrator_test remote_test serving_test workload_test \
             tier_test churn_test object_test mem_test sched_test sim_test \
             rdma_test core_test faultpath_test property_test canvasctl \
             throughput_harness paper
  ctest --test-dir "$SAN_BUILD" \
    -L 'fault|trace|orchestrator|remote|serving|tier|churn|object|cli|mem|sched|sim|rdma|core|property' \
    --output-on-failure -j"$JOBS"
fi

# TSan pass over the threaded suites: the SweepEngine races whole runs
# across worker threads (label `orchestrator`), and the serving, tier,
# churn and object suites (labels `serving` / `tier` / `churn` /
# `object`) race their sweeps at --jobs=1 vs a wider pool with
# byte-identity differentials on the deterministic report; the `sim` /
# `determinism` labels pull in the event-order and repeat-run checks.
# Label `workload` covers the open-loop stream's draw-ahead helper thread
# (chunk handoff, inline fill over the helper cap, destruction while the
# helper waits or fills). TSan cannot be combined with ASan — separate
# build. CANVAS_NO_TSAN=1 skips it.
if [ -z "${CANVAS_SANITIZE:-}" ] && [ "${CANVAS_NO_TSAN:-0}" != "1" ]; then
  TSAN_BUILD="${TSAN_BUILD_DIR:-$ROOT/build-tsan}"
  cmake -B "$TSAN_BUILD" -S "$ROOT" -DCANVAS_SANITIZE=thread
  cmake --build "$TSAN_BUILD" -j"$JOBS" \
    --target orchestrator_test sim_test determinism_test \
             fault_injection_test trace_test remote_test serving_test \
             workload_test tier_test churn_test object_test
  ctest --test-dir "$TSAN_BUILD" \
    -L 'orchestrator|sim|determinism|serving|tier|churn|object|workload' \
    --output-on-failure -j"$JOBS"
fi

# The repository benchmark (perfbench/) compiles against the simulator's
# types and mirrors serving::RunServing and orchestrator::RunChurn step for
# step. Build it in its own Release tree and run its driver_equivalence
# self-test, so a src/ change that breaks its build or its mirrors fails
# here rather than only when the benchmark runs.
PERF_BUILD="$BUILD-perfbench"
cmake -B "$PERF_BUILD" -S "$ROOT/perfbench" -DCMAKE_BUILD_TYPE=Release
cmake --build "$PERF_BUILD" -j"$JOBS"
ctest --test-dir "$PERF_BUILD" -R driver_equivalence --output-on-failure

HARNESS_ARGS=()
[ "${CANVAS_QUICK:-0}" = "1" ] && HARNESS_ARGS+=(--quick)
CANVAS_BENCH_JSON="${CANVAS_BENCH_JSON:-$BUILD/BENCH_simulator.json}" \
  "$BUILD/bench/throughput_harness" ${HARNESS_ARGS[@]+"${HARNESS_ARGS[@]}"}

# Sweep orchestrator benchmark: serial vs parallel over the same 32-run
# grid, with a hard byte-identity check on the aggregated results.
CANVAS_SWEEP_JSON="${CANVAS_SWEEP_JSON:-$BUILD/BENCH_sweep.json}" \
  "$BUILD/bench/sweep_bench" ${HARNESS_ARGS[@]+"${HARNESS_ARGS[@]}"}

# Remote memory-server pool benchmark: placement policies under harvest
# churn plus the tiered-topology blackout comparison, with hard checks
# (deterministic reports, slab-table audit, zero stale reads,
# p2c_imbalance_below_first_fit — p2c's peak placement imbalance below
# first-fit's, not a makespan claim — and tier failover latency strictly
# below failover-to-disk).
CANVAS_REMOTE_JSON="${CANVAS_REMOTE_JSON:-$BUILD/BENCH_remote.json}" \
  "$BUILD/bench/remote_pool" ${HARNESS_ARGS[@]+"${HARNESS_ARGS[@]}"}

# Online-serving tail-latency benchmark: {poisson, flash} x {pool4,
# pool4-harvest} plus fault-plan grid points (blackout + latency spike on
# the harvested topology), with the QoS plane judging SLO windows and hard
# checks (all runs ok, frontend served throughout the fault).
CANVAS_SERVING_JSON="${CANVAS_SERVING_JSON:-$BUILD/BENCH_serving.json}" \
  "$BUILD/bench/serving_bench" ${HARNESS_ARGS[@]+"${HARNESS_ARGS[@]}"}

# The same checks across workload seeds 1-11 in quick mode (~0.3 s each),
# so a verdict that holds only at the default seed fails here.
SEED_TMP="$(mktemp -d)"
for seed in $(seq 1 11); do
  log="$SEED_TMP/serving_$seed.log"
  if ! CANVAS_SEED="$seed" CANVAS_SERVING_JSON="$SEED_TMP/serving_$seed.json" \
      "$BUILD/bench/serving_bench" --quick >"$log" 2>&1; then
    cat "$log" >&2
    rm -rf "$SEED_TMP"
    echo "check.sh: serving_bench failed at CANVAS_SEED=$seed" >&2
    exit 1
  fi
done
rm -rf "$SEED_TMP"

# Cluster-day churn benchmark: ~1000 tenants arrive and depart on a
# diurnal schedule over {steady, closed-loop} harvests, with hard checks
# (every tenant retired and reaped, registry slots + RSS bounded by the
# concurrency high-water mark rather than the admitted count, and
# byte-identical reports at --jobs=1 vs --jobs=4).
CANVAS_CLUSTER_JSON="${CANVAS_CLUSTER_JSON:-$BUILD/BENCH_cluster.json}" \
  "$BUILD/bench/cluster_day" ${HARNESS_ARGS[@]+"${HARNESS_ARGS[@]}"}

# Object-granularity showdown: page-demand vs cooperative-object on the
# behaviour-structured pointer-chasing workload on pool4 across {none,
# cxl} local tiers, with hard checks (cooperative-object
# beats page-demand on BOTH p99 fault-stall latency and demand-fault
# count on every grid point, and --jobs=1 vs --jobs=4 reports stay
# byte-identical).
CANVAS_OBJECT_JSON="${CANVAS_OBJECT_JSON:-$BUILD/BENCH_object.json}" \
  "$BUILD/bench/object_granularity" ${HARNESS_ARGS[@]+"${HARNESS_ARGS[@]}"}

# Freshness of the committed BENCH_{remote,cluster,object,serving}.json:
# regenerate each in full mode from this build and byte-compare it with the
# committed file, so a local run catches simulated-output drift.
BUILD_DIR="$BUILD" "$ROOT/scripts/check_bench_fresh.sh"

echo "check.sh: all green"
