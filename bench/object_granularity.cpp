// Object-granularity showdown (DESIGN.md §16).
//
// Head-to-head on the behaviour-structured pointer-chasing workload
// (`chase`): classic page-granular demand swapping versus cooperative
// object-granular fetching, across the {pool4, pool4-harvest} topology
// axis and the {none, cxl} local-tier axis. Every grid point pairs a
// `page` run with an `object` run that differs ONLY in
// SystemConfig::objects.enabled — same preset, same topology, same tier,
// same seed — so the deltas isolate the granularity switch.
//
// The committed BENCH_object.json holds the deterministic sweep payload
// only (per-app counters + fault percentiles), so the artifact is stable
// across machines and job counts; wall-clock and RSS go to stderr.
//
// Headlines, enforced by the exit code:
//   - on every grid point the cooperative-object run beats page-demand on
//     BOTH axes of the showdown: lower p99 fault-stall latency AND fewer
//     demand (major) faults — read-sets declared ahead of dispatch turn
//     depth-chained dependent faults into batched, overlapped fetches;
//   - the whole grid is bit-for-bit deterministic across sweep workers:
//     the --jobs=1 and --jobs=4 replays must produce byte-identical
//     deterministic reports.
//
// CANVAS_QUICK=1 (or --quick) shrinks the workload for CI smoke;
// CANVAS_OBJECT_JSON works like the other bench env knobs.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "orchestrator/sweep.h"

using namespace canvas;
using namespace canvas::bench;

namespace {

std::uint64_t PeakRssBytes() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return std::uint64_t(ru.ru_maxrss) * 1024;
}

orchestrator::ScenarioSpec Scenario(bool quick, std::uint64_t seed) {
  orchestrator::ScenarioSpec sc;
  sc.systems = {"canvas"};
  sc.topologies = {"pool4", "pool4-harvest"};
  sc.tiers = {"none", "cxl"};
  // The axis under test. Expansion nests granularity innermost of the
  // environment axes, so runs come out as adjacent (page, object) pairs.
  sc.granularities = {"page", "object"};
  sc.ratios = {0.25};
  sc.scales = {quick ? 0.15 : ScaleFromEnv(0.3)};
  sc.seeds = {seed};
  sc.deadline = 600 * kSecond;
  sc.apps = {Build("chase", /*scale=*/0, /*ratio=*/0)};
  return sc;
}

std::string Aggregate(const orchestrator::SweepResult& r) {
  std::ostringstream os;
  r.WriteJson(os, /*include_timing=*/false);
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = (argc > 1 && std::strcmp(argv[1], "--quick") == 0) ||
               std::getenv("CANVAS_QUICK");
  std::uint64_t seed = SeedFromEnv();
  const char* env = std::getenv("CANVAS_OBJECT_JSON");
  std::string json_path = env ? env : "BENCH_object.json";

  PrintBanner("Pointer-chasing showdown: page-demand vs cooperative-object");

  auto run_grid = [&](unsigned jobs) {
    orchestrator::SweepOptions opts;
    opts.jobs = jobs;
    return orchestrator::SweepEngine(opts).Run(Scenario(quick, seed));
  };

  orchestrator::SweepResult grid = run_grid(1);
  bool all_ok = grid.all_ok;

  // Expansion order pairs each page run (even index) with the object run
  // (odd index) that shares its topology/tier/seed point.
  TablePrinter t({"pair", "p99-page", "p99-obj", "major-page", "major-obj",
                  "obj-fetches", "hit-rate", "stall"});
  bool faster = true, fewer = true;
  for (std::size_t i = 0; i + 1 < grid.runs.size(); i += 2) {
    const orchestrator::RunResult& page = grid.runs[i];
    const orchestrator::RunResult& obj = grid.runs[i + 1];
    if (!page.executed() || !obj.executed() || page.apps.empty() ||
        obj.apps.empty()) {
      all_ok = false;
      continue;
    }
    const core::AppMetrics& pm = page.apps.front().metrics;
    const core::AppMetrics& om = obj.apps.front().metrics;
    std::uint64_t p99_page = pm.fault_latency.Percentile(99);
    std::uint64_t p99_obj = om.fault_latency.Percentile(99);
    faster = faster && p99_obj < p99_page;
    fewer = fewer && om.faults_major < pm.faults_major;
    std::uint64_t declared = om.object_fetches + om.object_fetch_hits;
    t.AddRow({page.label, FormatTime(SimTime(p99_page)),
              FormatTime(SimTime(p99_obj)), std::to_string(pm.faults_major),
              std::to_string(om.faults_major),
              std::to_string(om.object_fetches),
              declared ? Pct(100.0 * double(om.object_fetch_hits) /
                             double(declared))
                       : "-",
              FormatTime(om.behaviour_stall)});
  }
  t.Print();

  // Headline 1: cooperative-object wins both showdown axes everywhere.
  std::printf("latency: object p99 fault-stall %s page-demand on every "
              "grid point\n",
              faster ? "beats" : "DOES NOT BEAT");
  std::printf("faults:  object demand-fault count %s page-demand on every "
              "grid point\n",
              fewer ? "undercuts" : "DOES NOT UNDERCUT");

  // Headline 2: bit-for-bit determinism across sweep worker counts.
  orchestrator::SweepResult wide = run_grid(4);
  bool deterministic = wide.all_ok && Aggregate(grid) == Aggregate(wide);
  std::printf("determinism: jobs=1 vs jobs=4 reports %s\n",
              deterministic ? "byte-identical" : "DIVERGED");
  all_ok = all_ok && faster && fewer && deterministic;

  std::ofstream os(json_path);
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  grid.WriteJson(os, /*include_timing=*/false);
  std::fprintf(stderr,
               "wrote %s (%zu runs); %.2fs wall, peak RSS %.1f MiB\n",
               json_path.c_str(), grid.runs.size(), grid.wall_sec,
               double(PeakRssBytes()) / (1 << 20));
  return all_ok ? 0 : 1;
}
