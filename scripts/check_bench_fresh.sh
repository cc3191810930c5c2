#!/usr/bin/env bash
# Freshness check for the committed benchmark artifacts: regenerate
# BENCH_{remote,cluster,object,serving}.json in full mode into a temporary
# directory and byte-compare each with the committed file. The simulation is
# deterministic, so the bytes are machine-independent; any difference means
# the program's simulated output moved (or the artifact was not refreshed).
#
# Exits 1 naming every file that is untracked, differs, or whose bench
# failed its own hard checks; 0 when all four match. Takes ~10 s on 4 CPUs.
# bench/paper_output.txt is gated separately, by `ctest -L paper`.
#
# Environment knobs:
#   BUILD_DIR  build tree holding bench/ (default: <repo>/build)
set -uo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${BUILD_DIR:-$ROOT/build}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

status=0
# artifact name, bench binary, env var naming the bench's JSON output
for spec in remote:remote_pool:CANVAS_REMOTE_JSON \
            cluster:cluster_day:CANVAS_CLUSTER_JSON \
            object:object_granularity:CANVAS_OBJECT_JSON \
            serving:serving_bench:CANVAS_SERVING_JSON; do
  IFS=: read -r name bench var <<<"$spec"
  file="BENCH_$name.json"
  if ! git -C "$ROOT" ls-files --error-unmatch "$file" >/dev/null 2>&1; then
    echo "check_bench_fresh: $file is not tracked" >&2
    status=1
    continue
  fi
  # Full mode: a CANVAS_QUICK in the caller's environment would shrink it.
  if ! env -u CANVAS_QUICK "$var=$TMP/$file" "$BUILD/bench/$bench" \
      >"$TMP/$name.log" 2>&1; then
    cat "$TMP/$name.log" >&2
    echo "check_bench_fresh: $bench failed; $file not regenerated" >&2
    status=1
    continue
  fi
  if ! cmp -s "$TMP/$file" "$ROOT/$file"; then
    diff "$ROOT/$file" "$TMP/$file" | head -20 >&2
    echo "check_bench_fresh: $file differs from a fresh $bench run" >&2
    status=1
  fi
done

[ "$status" = 0 ] && echo "check_bench_fresh: all four artifacts fresh"
exit "$status"
