// Cluster-day tenant churn bench (DESIGN.md §15).
//
// Simulates a compressed cluster day: ~1000 small tenants arrive on a
// diurnal schedule, live a few hundred simulated milliseconds, and depart,
// over the {steady, closed-loop} harvest axis on the pool4 topology. The
// committed BENCH_cluster.json holds the deterministic payload only
// (tenant/event/fault counters), so the artifact is stable across machines
// and job counts; events/sec and RSS go to stderr.
//
// Headlines, enforced by the exit code:
//   - every run fully drains: tenants_retired == tenants_started, nothing
//     live or pending at the end, and the pool slab audit passes;
//   - memory is O(active tenants): the registry slot count tracks the
//     concurrency high-water mark (not tenants-ever-admitted), and the
//     process RSS delta across the thousand-tenant run stays bounded by
//     the high-water mark's footprint, not the admitted count's;
//   - the whole day is bit-for-bit deterministic across sweep workers:
//     the --jobs=1 and --jobs=4 replays must produce byte-identical
//     deterministic reports.
//
// CANVAS_QUICK=1 (or --quick) shrinks the day for CI smoke;
// CANVAS_CLUSTER_JSON works like the other bench env knobs.
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
#include "workload/churn.h"

using namespace canvas;
using namespace canvas::bench;

namespace {

std::uint64_t PeakRssBytes() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return std::uint64_t(ru.ru_maxrss) * 1024;
}

// Sanitizer shadow memory dwarfs the real working set, so the physical-RSS
// headline only binds in plain builds; the structural slot bound always does.
constexpr bool kRssCheckMeaningful =
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
    false;
#else
    true;
#endif
#else
    true;
#endif

orchestrator::ChurnScenarioSpec Scenario(bool quick, std::uint64_t seed) {
  orchestrator::ChurnScenarioSpec sc;
  sc.systems = {"canvas"};
  sc.topologies = {"pool4"};
  sc.harvests = {"steady", "closed-loop"};
  sc.seeds = {seed};
  sc.deadline = 600 * kSecond;

  workload::ChurnSpec& c = sc.churn;
  c.kind = workload::ChurnKind::kDiurnal;
  c.diurnal_amplitude = 0.6;
  // One "day" = the horizon: the arrival rate swings through a full
  // diurnal cycle over the run.
  c.horizon = quick ? 1 * kSecond : 8 * kSecond;
  c.diurnal_period = c.horizon;
  c.arrival_rate_per_sec = quick ? 150 : 140;
  c.mean_lifetime = 150 * kMillisecond;
  c.min_lifetime = 20 * kMillisecond;
  c.max_tenants = quick ? 120 : 1000;
  c.max_concurrent = quick ? 24 : 48;

  // Small-tenant mix. Scales sit above CgroupFor's 512-page local-memory
  // floor so every tenant genuinely swaps — reaping then has to hand real
  // remote-homed entries back to the servers, not just empty partitions.
  workload::TenantTemplate cache;
  cache.app = "memcached";
  cache.weight = 3;
  cache.scale = 0.05;
  cache.local_ratio = 0.3;
  workload::TenantTemplate batch;
  batch.app = "snappy";
  batch.weight = 1;
  batch.scale = 0.04;
  batch.local_ratio = 0.25;
  c.templates = {cache, batch};
  return sc;
}

std::string Aggregate(const orchestrator::ChurnSweepResult& r) {
  std::ostringstream os;
  r.WriteJson(os, /*include_timing=*/false);
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = (argc > 1 && std::strcmp(argv[1], "--quick") == 0) ||
               std::getenv("CANVAS_QUICK");
  std::uint64_t seed = SeedFromEnv();
  const char* env = std::getenv("CANVAS_CLUSTER_JSON");
  std::string json_path = env ? env : "BENCH_cluster.json";

  PrintBanner("Cluster day: tenant churn at scale");

  auto run_day = [&](unsigned jobs) {
    orchestrator::SweepOptions opts;
    opts.jobs = jobs;
    return orchestrator::SweepEngine(opts).RunChurn(Scenario(quick, seed));
  };

  std::uint64_t rss_before = PeakRssBytes();
  orchestrator::ChurnSweepResult day = run_day(1);
  std::uint64_t rss_after = PeakRssBytes();
  bool all_ok = day.all_ok;

  TablePrinter t({"run", "tenants", "dropped", "high-water", "slots",
                  "faults", "swapouts", "parts-freed", "harvests",
                  "returns"});
  std::uint64_t events = 0;
  for (const orchestrator::ChurnResult& r : day.runs) {
    t.AddRow({r.label, std::to_string(r.tenants_started),
              std::to_string(r.dropped_arrivals),
              std::to_string(r.active_high_water),
              std::to_string(r.registry_slots), std::to_string(r.faults),
              std::to_string(r.swapouts),
              std::to_string(r.partitions_released),
              std::to_string(r.control_harvests + r.harvest_events),
              std::to_string(r.control_returns)});
    events += r.sim_events;
  }
  t.Print();

  // Headline 1: every run fully drained and audited clean.
  bool drained = true;
  for (const orchestrator::ChurnResult& r : day.runs)
    drained = drained && r.status == orchestrator::ChurnResult::Status::kOk &&
              r.tenants_retired == r.tenants_started &&
              r.active_at_end == 0 && r.pending_at_end == 0;
  std::printf("drain: %s\n", drained ? "every tenant retired and reaped"
                                     : "TENANTS LEFT BEHIND");

  // Headline 2: O(active tenants) memory. Structurally, registry slots
  // must track the concurrency peak; physically, the process RSS delta
  // across the day must scale with the high-water mark (generous per-slot
  // allowance), never with the admitted-tenant count.
  bool bounded = true;
  std::uint64_t peak_high_water = 0;
  for (const orchestrator::ChurnResult& r : day.runs) {
    bounded = bounded && r.registry_slots <= r.active_high_water + 1 &&
              r.registry_slots < r.tenants_started;
    peak_high_water = std::max(peak_high_water, r.active_high_water);
  }
  std::uint64_t rss_delta = rss_after - rss_before;
  std::uint64_t rss_bound =
      96ull * 1024 * 1024 + peak_high_water * 8ull * 1024 * 1024;
  bool rss_ok = kRssCheckMeaningful ? rss_delta <= rss_bound : true;
  std::printf("memory: slots %s; day RSS delta %.1f MiB vs bound %.1f MiB "
              "(high-water %llu)%s\n",
              bounded ? "track the high-water mark" : "GREW WITH ADMISSIONS",
              double(rss_delta) / (1 << 20), double(rss_bound) / (1 << 20),
              (unsigned long long)peak_high_water,
              kRssCheckMeaningful ? "" : " [RSS bound waived: sanitizer]");

  // Headline 3: bit-for-bit determinism across sweep worker counts.
  orchestrator::ChurnSweepResult wide = run_day(4);
  bool deterministic = wide.all_ok && Aggregate(day) == Aggregate(wide);
  std::printf("determinism: jobs=1 vs jobs=4 reports %s\n",
              deterministic ? "byte-identical" : "DIVERGED");
  all_ok = all_ok && drained && bounded && rss_ok && deterministic;

  std::ofstream os(json_path);
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  day.WriteJson(os, /*include_timing=*/false);
  std::fprintf(stderr,
               "wrote %s (%zu runs); %.2fs wall, %.0f events/sec, peak RSS "
               "%.1f MiB\n",
               json_path.c_str(), day.runs.size(), day.wall_sec,
               day.wall_sec > 0 ? double(events) / day.wall_sec : 0.0,
               double(rss_after) / (1 << 20));
  return all_ok ? 0 : 1;
}
