#!/usr/bin/env python3
"""The simulator's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload corun --seed 1 --seconds 25 --trace 0

Builds perfbench/ (and the simulator sources it compiles) into .bench_build/
on first use, checks the benchmark's drivers against the library's own once
per build, then measures one workload:

  --trace 0  end-to-end metrics, taken with tracing off. The seed expands
             into SUBSEEDS workload seeds; the simulation runs once per
             workload seed, in its own process, in whole cycles over the
             seeds for as long as the next cycle fits into --seconds (at
             least one). Host metrics are medians over the cycles' runs, so
             every workload seed weighs the same on any host; simulated
             metrics, which repeat exactly per workload seed, are means over
             the workload seeds.
  --trace 1  per-layer metrics: counters and host timers from an untraced run
             of the first workload seed, simulated-time layer latencies from
             a traced run of the same seed, and the layer replays.

Every run must pass the correctness gate (all tenants finish, no stale read,
the system is quiescent, the workload's own invariants hold), repeat its
counters and simulated metrics exactly at one seed, and give the same
simulated results traced and untraced; otherwise the command exits 1.
Metric names and units are those BENCHMARK.json registers; the command fails
if the program reports any other set. Human-readable lines come first; the
last line of stdout is the JSON result.
"""
import argparse
import fcntl
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD = HERE.parent / ".bench_build" / "perfbench"
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
# name -> unit, in BENCHMARK.json order.
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
SUBSEEDS = 7
RUN_TIMEOUT_S = 150

class GateFailure(Exception):
    """A correctness check failed; the run reports correct=false."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure and build once per checkout; rerun the driver self-test
    whenever its binary changed."""
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").exists():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True, timeout=300)
        subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                       stdout=sys.stderr, check=True, timeout=800)
        selftest = BUILD / "perfbench_selftest"
        stamp = BUILD / "selftest.passed"
        if not stamp.exists() or stamp.stat().st_mtime < selftest.stat().st_mtime:
            subprocess.run([str(selftest)], stdout=sys.stderr, check=True,
                           timeout=300)
            stamp.touch()


def workload_seeds(seed):
    """The workload seeds one benchmark seed stands for."""
    return [int(hashlib.sha256(f"{seed}/{i}".encode()).hexdigest()[:15], 16)
            for i in range(SUBSEEDS)]


def run_once(workload, wseed, ring=0):
    cmd = [str(BUILD / "perfbench"), "run", workload, str(wseed)]
    if ring:
        cmd += ["--trace", str(ring)]
    p = subprocess.run(cmd, capture_output=True, text=True,
                       timeout=RUN_TIMEOUT_S)
    if p.stderr:
        log(p.stderr.rstrip())
    lines = p.stdout.strip().splitlines()
    if not lines:
        raise GateFailure(f"{workload} seed {wseed}: no output (exit {p.returncode})")
    out = json.loads(lines[-1])
    failed = [name for name, ok in out["checks"].items() if not ok]
    if p.returncode != 0 or failed:
        raise GateFailure(f"{workload} seed {wseed}: checks failed: {failed} "
                          f"(exit {p.returncode})")
    out["m"] = {name: (value, unit, kind)
                for name, value, unit, kind in out["metrics"]}
    return out


def deterministic(run):
    """What must repeat exactly at one seed: simulated metrics, counters and
    the operation counts."""
    vals = {k: v[0] for k, v in run["m"].items() if v[2] in "sC"}
    vals["attempted"] = run["attempted"]
    vals["failed"] = run["failed"]
    return vals


def check_same(a, b, what):
    diff = {k: (a[k], b.get(k)) for k in a if a[k] != b.get(k)}
    if diff or a.keys() != b.keys():
        raise GateFailure(f"{what}: results differ: {diff}")


def check_registered(units, registered, what):
    """The program must report exactly the metrics BENCHMARK.json registers,
    with the same units."""
    if units != registered:
        raise GateFailure(f"{what} differ from BENCHMARK.json: "
                          f"{sorted(set(units.items()) ^ set(registered.items()))}")


def measure_end_to_end(workload, seed, seconds):
    seeds = workload_seeds(seed)
    runs, first = [], {}
    start = time.monotonic()
    while True:
        cycle_start = time.monotonic()
        for wseed in seeds:
            run = run_once(workload, wseed)
            if wseed in first:
                check_same(deterministic(first[wseed]), deterministic(run),
                           f"repeat of workload seed {wseed}")
            else:
                first[wseed] = run
            runs.append(run)
        now = time.monotonic()
        if now - start + (now - cycle_start) > seconds:
            break
    checked = runs
    if len(runs) == SUBSEEDS:
        # One cycle repeated no seed. Repeat one for the exactness check only,
        # outside the medians.
        again = run_once(workload, seeds[0])
        check_same(deterministic(first[seeds[0]]), deterministic(again),
                   f"repeat of workload seed {seeds[0]}")
        checked = runs + [again]

    kinds = {name: kind for name, (_, _, kind) in runs[0]["m"].items()
             if kind in "es"}
    check_registered({name: runs[0]["m"][name][1] for name in kinds},
                     END_TO_END, "end-to-end metrics")
    metrics = {}
    for name, unit in END_TO_END.items():
        if kinds[name] == "e":
            value = statistics.median(r["m"][name][0] for r in runs)
        else:
            value = statistics.fmean(r["m"][name][0] for r in first.values())
        if value <= 0:
            raise GateFailure(f"{name} is {value}")
        metrics[name] = (value, unit)
    fault_samples = statistics.median(r["m"]["core.fault_samples"][0]
                                      for r in first.values())
    attempted = sum(r["attempted"] for r in checked)
    failed = sum(r["failed"] for r in checked)
    print(f"perfbench {workload} --seed {seed}: {len(runs) // SUBSEEDS} "
          f"cycle(s) over {SUBSEEDS} workload seeds, {len(checked)} runs, "
          f"{time.monotonic() - start:.1f} s")
    for name, (value, unit) in metrics.items():
        kind = "host, median over runs" if kinds[name] == "e" else \
            "simulated, mean over workload seeds"
        print(f"  {name:<24} {value:>14.6g} {unit:<4} {kind}")
    print(f"  {'fault samples':<24} {fault_samples:>14.6g}      median per workload seed")
    print(f"  {'failed_pct':<24} {100.0 * failed / attempted:>14.6g} %")
    return metrics, attempted, failed


def measure_per_layer(workload, seed, seconds):
    wseed = workload_seeds(seed)[0]
    start = time.monotonic()
    base = run_once(workload, wseed)
    events = int(base["m"]["sim.events"][0])
    # Records run at about one per event; the margin keeps the ring from
    # wrapping (a dropped record fails the gate).
    ring = events + events // 2 + 65536
    untraced, traced = [base], []
    while not traced or time.monotonic() - start < seconds:
        with_trace = len(traced) < len(untraced)
        run = run_once(workload, wseed, ring if with_trace else 0)
        check_same(deterministic(base), deterministic(run),
                   "traced vs untraced" if with_trace else "untraced repeat")
        if with_trace and traced:
            check_same({k: v for k, v in traced[0]["m"].items() if v[2] == "T"},
                       {k: v for k, v in run["m"].items() if v[2] == "T"},
                       "traced repeat")
        (traced if with_trace else untraced).append(run)
    if traced[0]["m"]["trace.dropped"][0] != 0:
        raise GateFailure("trace ring dropped records")

    p = subprocess.run([str(BUILD / "perfbench"), "replay"], capture_output=True,
                       text=True, timeout=RUN_TIMEOUT_S, check=True)
    replays = json.loads(p.stdout.strip().splitlines()[-1])

    def med(runs, name):
        return statistics.median(r["m"][name][0] for r in runs)

    metrics, tags = {}, {}
    for name, (value, unit, kind) in base["m"].items():
        if kind == "C":
            metrics[name] = (value, unit)
        elif kind == "H":
            metrics[name] = (med(untraced, name), unit)
        else:
            continue
        tags[name] = kind
    for name, (value, unit, kind) in traced[0]["m"].items():
        if kind == "T":
            metrics[name], tags[name] = (value, unit), "T"
    overhead = 100.0 * (med(traced, "wall_s") / med(untraced, "wall_s") - 1.0)
    metrics["trace.overhead_pct"], tags["trace.overhead_pct"] = (overhead, "%"), "H"
    mirrors = {}
    for name, ns, mirrored in replays:
        metrics[name], tags[name] = (ns, "ns"), "R"
        mirrors[name] = mirrored
    check_registered({name: unit for name, (_, unit) in metrics.items()},
                     PER_LAYER, "per-layer metrics")

    print(f"perfbench {workload} --seed {seed} --trace 1: workload seed {wseed}, "
          f"{len(untraced)} untraced + {len(traced)} traced runs, ring {ring}")
    for name in PER_LAYER:
        value, unit = metrics[name]
        note = f"  (mirrors {mirrors[name]})" if name in mirrors else ""
        print(f"  [{tags[name]}] {name:<32} {value:>14.6g} {unit}{note}")
    attempted = sum(r["attempted"] for r in untraced + traced)
    failed = sum(r["failed"] for r in untraced + traced)
    return metrics, attempted, failed


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    try:
        build()
    except (OSError, subprocess.SubprocessError) as e:
        log(f"build failed: {e}")
        return 1
    measure = measure_per_layer if args.trace else measure_end_to_end
    try:
        metrics, attempted, failed = measure(args.workload, args.seed,
                                             args.seconds)
    except (GateFailure, OSError, subprocess.SubprocessError, ValueError) as e:
        log(f"correctness gate failed: {e}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
