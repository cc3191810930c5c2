// Online-serving tail-latency bench (DESIGN.md §13).
//
// Runs a protected frontend tenant plus a best-effort batch tenant through
// the serving harness over the grid {poisson, flash} x {pool4,
// pool4-harvest}, each grid point twice: once with the QoS/admission plane
// enabled and once observe-only. Prints the per-tenant tail table and
// writes BENCH_serving.json (deterministic payload only, so the committed
// artifact is stable across machines and sweep job counts).
//
// The headline is the QoS plane earning its keep under pressure: with the
// plane on, the frontend's windowed SLO violation rate must not exceed the
// observe-only run's rate on any grid point, and on at least one it should
// strictly improve (weight boosts win NIC arbitration, shedding relieves
// the best-effort load, migration drains the hottest server).
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
                                           std::uint64_t seed, bool qos_on) {
  orchestrator::ServingScenarioSpec sc;
  sc.systems = {"canvas"};
  sc.topologies = {"pool4", "pool4-harvest"};
  sc.arrivals = {"poisson", "flash"};
  sc.seeds = {seed};
  // The comparison arm keeps the plane attached (so windows are judged and
  // violation rates are comparable) but never escalates.
  sc.qos_enabled = true;
  sc.qos.escalate = qos_on;
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
// specs are stamped with the plan and a "/fault" label suffix, mirroring
// the "/noqos" suffix convention.
std::vector<serving::ServingSpec> FaultSpecs(SimTime horizon,
                                             double rate_scale,
                                             std::uint64_t seed,
                                             bool qos_on) {
  orchestrator::ServingScenarioSpec sc =
      Scenario(horizon, rate_scale, seed, qos_on);
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

  auto with_qos = engine.Run(Scenario(horizon, rate_scale, seed, true));
  auto no_qos = engine.Run(Scenario(horizon, rate_scale, seed, false));
  auto fault_qos =
      engine.Run(FaultSpecs(horizon, rate_scale, seed, true));
  auto fault_noqos =
      engine.Run(FaultSpecs(horizon, rate_scale, seed, false));
  bool all_ok = with_qos.all_ok && no_qos.all_ok && fault_qos.all_ok &&
                fault_noqos.all_ok;

  // Merge into one report: QoS-off runs get a "/noqos" label suffix and
  // follow the QoS-on runs in index order; fault-plan points (already
  // "/fault"-labelled) follow with the same on/off pairing.
  std::vector<serving::ServingResult> runs = with_qos.runs;
  for (serving::ServingResult r : no_qos.runs) {
    r.label += "/noqos";
    r.index = runs.size();
    runs.push_back(std::move(r));
  }
  for (serving::ServingResult r : fault_qos.runs) {
    r.index = runs.size();
    runs.push_back(std::move(r));
  }
  for (serving::ServingResult r : fault_noqos.runs) {
    r.label += "/noqos";
    r.index = runs.size();
    runs.push_back(std::move(r));
  }

  TablePrinter t({"run", "tenant", "offered", "shed", "p50", "p99", "p99.9",
                  "viol-rate", "boosts", "migrated", "max-lag"});
  for (const serving::ServingResult& r : runs)
    for (const serving::TenantResult& tr : r.tenants)
      t.AddRow({r.label, tr.name, std::to_string(tr.offered),
                std::to_string(tr.shed), FormatTime(SimTime(tr.fault_p50_ns)),
                FormatTime(SimTime(tr.fault_p99_ns)),
                FormatTime(SimTime(tr.fault_p999_ns)),
                TablePrinter::Num(tr.violation_rate, 3),
                std::to_string(tr.weight_boosts),
                std::to_string(tr.slabs_migrated),
                FormatTime(tr.max_lag)});
  t.Print();

  // Headline: per grid point, the plane must never hurt the frontend's
  // violation rate, and the best-effort tenant pays for the protection
  // whenever the plane had to act.
  bool never_worse = true;
  bool acted = false;
  for (std::size_t i = 0; i < with_qos.runs.size(); ++i) {
    const serving::TenantResult& on = with_qos.runs[i].tenants[0];
    const serving::TenantResult& off = no_qos.runs[i].tenants[0];
    if (on.violation_rate > off.violation_rate) never_worse = false;
    acted = acted || on.weight_boosts > 0 || on.slabs_migrated > 0 ||
            with_qos.runs[i].tenants[1].shed > 0;
    std::printf("%-28s frontend viol-rate %.3f (qos) vs %.3f (noqos)\n",
                with_qos.runs[i].label.c_str(), on.violation_rate,
                off.violation_rate);
  }
  std::printf("qos plane: %s, %s\n",
              never_worse ? "never worse than observe-only" : "WORSE SOMEWHERE",
              acted ? "levers engaged" : "NO LEVERS ENGAGED");
  all_ok = all_ok && never_worse && acted;

  // Fault-plan points: the frontend must keep being served through the
  // blackout + spike on every point (the open loop never stalls out), and
  // the plane must not make its violation rate worse than observe-only
  // while the fabric is degraded.
  bool fault_served = true;
  bool fault_never_worse = true;
  for (std::size_t i = 0; i < fault_qos.runs.size(); ++i) {
    const serving::TenantResult& on = fault_qos.runs[i].tenants[0];
    const serving::TenantResult& off = fault_noqos.runs[i].tenants[0];
    fault_served = fault_served && on.served > 0 && off.served > 0;
    if (on.violation_rate > off.violation_rate) fault_never_worse = false;
    std::printf("%-28s frontend viol-rate %.3f (qos) vs %.3f (noqos)\n",
                fault_qos.runs[i].label.c_str(), on.violation_rate,
                off.violation_rate);
  }
  std::printf("fault points: %s, %s\n",
              fault_served ? "frontend served throughout" : "STARVED",
              fault_never_worse ? "qos never worse under faults"
                                : "WORSE SOMEWHERE");
  all_ok = all_ok && fault_served && fault_never_worse;

  std::ofstream os(json_path);
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  serving::WriteServingJson(os, runs, /*include_timing=*/false);
  os.close();
  std::printf("wrote %s (%zu runs, %u jobs, %.2fs + %.2fs)\n",
              json_path.c_str(), runs.size(), with_qos.jobs,
              with_qos.wall_sec, no_qos.wall_sec);
  return all_ok ? 0 : 1;
}
