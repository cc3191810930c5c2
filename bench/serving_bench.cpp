// Online-serving tail-latency bench (DESIGN.md §13).
//
// Runs a frontend tenant with an SLO plus a best-effort batch tenant
// through the serving harness over the grid {poisson, flash} x {pool4,
// pool4-harvest}, plus two fault-plan points on pool4-harvest, with the QoS
// plane judging every tenant's SLO windows. Prints the per-tenant tail
// table and writes BENCH_serving.json (deterministic payload only, so the
// committed artifact is stable across machines and sweep job counts).
//
// Hard checks: every run finishes, and the frontend keeps being served
// through the injected fabric faults.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/report.h"
#include "fault/fault_plan.h"
#include "serving/harness.h"

using namespace canvas;
using namespace canvas::bench;

namespace {

orchestrator::ServingScenarioSpec Scenario(SimTime horizon, double rate_scale,
                                           std::uint64_t seed) {
  orchestrator::ServingScenarioSpec sc;
  sc.systems = {"canvas"};
  sc.topologies = {"pool4", "pool4-harvest"};
  sc.arrivals = {"poisson", "flash"};
  sc.seeds = {seed};
  sc.qos.control_period = 50 * kMillisecond;

  serving::TenantSpec fe;
  fe.name = "frontend";
  fe.arrival.rate_rps = 150'000 * rate_scale;
  // Put the flash burst inside the horizon (the default window assumes
  // multi-second runs).
  fe.arrival.flash_start = horizon / 2;
  fe.arrival.flash_duration = horizon / 4;
  fe.horizon = horizon;
  fe.threads = 4;
  fe.footprint_pages = 16384;
  fe.ratio = 0.25;
  fe.slo.p99_ns = 10 * kMicrosecond;
  fe.slo.p999_ns = 50 * kMicrosecond;
  fe.load_tenant = true;

  serving::TenantSpec batch;
  batch.name = "batch";
  batch.arrival.rate_rps = 50'000 * rate_scale;
  batch.horizon = horizon;
  batch.threads = 2;
  batch.footprint_pages = 16384;
  batch.ratio = 0.25;
  batch.best_effort = true;

  sc.tenants = {fe, batch};
  return sc;
}

// Fault-plan grid points: the same tenants under an injected fabric fault
// — a single-server blackout in the first half of the run, then an
// all-server latency spike in the second — restricted to the harvested
// topology so the fault composes with harvest churn. Times derive from
// the horizon, so quick and full runs see the same fault phases. Expanded
// specs are stamped with the plan and a "/fault" label suffix.
std::vector<serving::ServingSpec> FaultSpecs(SimTime horizon,
                                             double rate_scale,
                                             std::uint64_t seed) {
  orchestrator::ServingScenarioSpec sc = Scenario(horizon, rate_scale, seed);
  sc.topologies = {"pool4-harvest"};
  auto plan = std::make_shared<fault::FaultPlan>();
  plan->AddBlackout(horizon / 4, horizon / 4 + horizon / 8, /*server=*/0);
  plan->AddLatencySpike(5 * horizon / 8, 3 * horizon / 4,
                        20 * kMicrosecond);
  std::vector<serving::ServingSpec> specs = sc.Expand();
  for (serving::ServingSpec& s : specs) {
    s.config.fault_plan = plan;
    s.label += "/fault";
  }
  return specs;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  double rate_scale = ScaleFromEnv(1.0);
  std::uint64_t seed = SeedFromEnv();
  SimTime horizon = quick ? 300 * kMillisecond : 1 * kSecond;
  const char* env = std::getenv("CANVAS_SERVING_JSON");
  std::string json_path = env ? env : "BENCH_serving.json";

  PrintBanner("Online serving: open-loop tails, SLOs and the QoS plane");

  orchestrator::SweepOptions opts;
  opts.jobs = JobsFromEnv();
  orchestrator::SweepEngine engine(opts);

  auto healthy = engine.Run(Scenario(horizon, rate_scale, seed));
  auto faulted = engine.Run(FaultSpecs(horizon, rate_scale, seed));
  bool all_ok = healthy.all_ok && faulted.all_ok;

  // One report: the fault-plan points follow the healthy grid in index
  // order.
  std::vector<serving::ServingResult> runs = healthy.runs;
  for (serving::ServingResult r : faulted.runs) {
    r.index = runs.size();
    runs.push_back(std::move(r));
  }

  TablePrinter t({"run", "tenant", "offered", "p50", "p99", "p99.9",
                  "viol-rate", "max-lag"});
  for (const serving::ServingResult& r : runs)
    for (const serving::TenantResult& tr : r.tenants)
      t.AddRow({r.label, tr.name, std::to_string(tr.offered),
                FormatTime(SimTime(tr.fault_p50_ns)),
                FormatTime(SimTime(tr.fault_p99_ns)),
                FormatTime(SimTime(tr.fault_p999_ns)),
                TablePrinter::Num(tr.violation_rate, 3),
                FormatTime(tr.max_lag)});
  t.Print();
  std::printf("runs: %s\n", all_ok ? "every run ok" : "A RUN FAILED");

  // Fault-plan points: the frontend must keep being served through the
  // blackout + spike on every point (the open loop never stalls out).
  bool fault_served = true;
  for (const serving::ServingResult& r : faulted.runs)
    fault_served = fault_served && !r.tenants.empty() &&
                   r.tenants[0].served > 0;
  std::printf("fault points: %s\n",
              fault_served ? "frontend served throughout" : "STARVED");
  all_ok = all_ok && fault_served;

  std::ofstream os(json_path);
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  serving::WriteServingJson(os, runs, /*include_timing=*/false);
  os.close();
  std::printf("wrote %s (%zu runs, %u jobs, %.2fs + %.2fs)\n",
              json_path.c_str(), runs.size(), healthy.jobs,
              healthy.wall_sec, faulted.wall_sec);
  return all_ok ? 0 : 1;
}
