// Simulator throughput harness.
//
// Measures what every figure reproduction ultimately pays for: events/sec
// through the DES engine. All sections are written to BENCH_simulator.json
// (path overridable via CANVAS_BENCH_JSON):
//
//  1. micro: an identical self-rescheduling event churn run through (a) a
//     faithful replica of the seed engine (std::function callbacks in a
//     std::priority_queue — see LegacySimulator below) and (b) the current
//     sim::Simulator. The ratio is the headline "fast-path speedup"; the
//     harness exits 1 if its median falls below the 2x regression floor.
//  2. scenarios: representative runs of fig02 (Linux 5.5 co-run), fig10
//     (Canvas full co-run) and fig13 (Memcached alloc scaling) measured in
//     wall-clock seconds and simulated events/sec.
//  3. fault_overhead / trace_overhead: cost of the fault and tracing hooks
//     on a healthy fig10 run.
//  4. hardware_concurrency (the host CPU count the timings came from) and
//     peak_rss_bytes (max resident set over the whole harness run).
//
// Sections 1 and 2 repeat kRepeats times (the micro engines alternate) and
// report the median with the min and max, so one noisy run on a shared
// host cannot set the number.
//
// Honours CANVAS_SCALE / CANVAS_SEED like every other bench binary.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include <thread>

#include "bench_util.h"
#include "common/run.h"
#include "fault/fault_plan.h"
#include "orchestrator/sweep.h"
#include "sim/simulator.h"

namespace canvas::bench {
namespace {

// ---------------------------------------------------------------------------
// Seed-engine replica (the pre-fast-path Simulator, verbatim semantics):
// one heap-allocating std::function per event, std::priority_queue over
// fat Event structs. Kept here so the baseline stays measurable in the
// same binary forever, not just in git history.
// ---------------------------------------------------------------------------
class LegacySimulator {
 public:
  using Callback = std::function<void()>;

  SimTime Now() const { return now_; }
  void Schedule(SimDuration delay, Callback fn) {
    queue_.push(Event{now_ + delay, next_seq_++, std::move(fn)});
  }
  void Run() {
    while (!queue_.empty()) {
      Event ev = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      now_ = ev.when;
      ++executed_;
      ev.fn();
    }
  }
  std::uint64_t events_executed() const { return executed_; }

 private:
  struct Event {
    SimTime when;
    std::uint64_t seq;
    Callback fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

using Clock = std::chrono::steady_clock;

constexpr int kRepeats = 5;
constexpr double kSpeedupFloor = 2.0;

/// Median, min and max of a set of repeats.
struct Spread {
  double median = 0;
  double min = 0;
  double max = 0;
};

Spread SpreadOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  Spread s;
  s.median = n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
  s.min = v.front();
  s.max = v.back();
  return s;
}

// Event churn modeled on the real call sites: each chain reschedules
// itself with a pseudo-random small delay. The capture mirrors the typical
// fault-path closure (this + a handful of pointers/scalars, ~48 bytes —
// far over std::function's 16-byte SBO, inside InlineCallback's 56), and
// `chains` pending events keep the heap at co-run depth.
template <typename Sim>
class Churn {
 public:
  double EventsPerSec(std::uint64_t total_events, unsigned chains) {
    remaining_ = total_events;
    for (unsigned c = 0; c < chains; ++c) Kick(c + 1, c % 7, c, c + 2, c);
    auto t0 = Clock::now();
    sim_.Run();
    double secs = SecondsSince(t0);
    return double(sim_.events_executed()) / secs;
  }

 private:
  void Kick(std::uint64_t delay, std::uint64_t salt, std::uint64_t acc,
            std::uint64_t page, std::uint64_t core) {
    sim_.Schedule(delay, [this, delay, salt, acc, page, core] {
      if (remaining_ == 0) return;
      --remaining_;
      // LCG delay scramble keeps the heap busy and deterministic.
      std::uint64_t next =
          ((delay * 6364136223846793005ull + salt) & 1023) + 1;
      Kick(next, salt + 1, acc + page, page ^ next, core);
    });
  }

  Sim sim_;
  std::uint64_t remaining_ = 0;
};

struct ScenarioResult {
  std::string name;
  double wall_sec = 0;
  std::uint64_t sim_events = 0;
  double events_per_sec = 0;
  std::vector<double> finish_sec;
};

/// One figure scenario over the repeats: wall seconds and the events/sec
/// they imply (simulated results repeat exactly, so one copy is kept).
struct ScenarioSpread {
  std::string name;
  std::uint64_t sim_events = 0;
  std::vector<double> finish_sec;
  std::vector<double> walls;
};

/// The micro churn over the repeats, in events/sec, with the per-repeat
/// fast/seed ratios.
struct MicroSpread {
  std::uint64_t events = 0;
  std::vector<double> legacy_eps;
  std::vector<double> fast_eps;
  std::vector<double> speedups;
};

ScenarioResult RunScenario(const std::string& name, core::SystemConfig cfg,
                           std::vector<core::AppSpec> apps) {
  auto t0 = Clock::now();
  core::Experiment e(std::move(cfg), std::move(apps));
  e.Run();
  ScenarioResult r;
  r.name = name;
  r.wall_sec = SecondsSince(t0);
  r.sim_events = e.simulator().events_executed();
  r.events_per_sec = r.wall_sec > 0 ? double(r.sim_events) / r.wall_sec : 0;
  for (std::size_t i = 0; i < e.system().app_count(); ++i)
    r.finish_sec.push_back(e.FinishSeconds(i));
  return r;
}

/// Fault-subsystem overhead on a healthy run: fig10 with no fault plan vs
/// the same run with an *empty* plan attached (injector constructed, every
/// hook live but on its constant fast path). Best-of-N wall times keep the
/// measurement stable; the acceptance bar is < 3% events/sec regression.
struct FaultOverhead {
  double plain_wall_sec = 0;
  double attached_wall_sec = 0;
  double overhead_pct = 0;
};

FaultOverhead MeasureFaultOverhead(double scale, int reps) {
  FaultOverhead o;
  double plain = 1e30, attached = 1e30;
  for (int rep = 0; rep < reps; ++rep) {
    auto r1 = RunScenario(
        "plain", core::SystemConfig::CanvasFull(),
        core::BuildApps(CorunBuilds("spark-lr", scale, 0.25)));
    auto cfg = core::SystemConfig::CanvasFull();
    cfg.fault_plan = std::make_shared<fault::FaultPlan>();
    auto r2 = RunScenario(
        "attached", std::move(cfg),
        core::BuildApps(CorunBuilds("spark-lr", scale, 0.25)));
    plain = std::min(plain, r1.wall_sec);
    attached = std::min(attached, r2.wall_sec);
  }
  o.plain_wall_sec = plain;
  o.attached_wall_sec = attached;
  o.overhead_pct = plain > 0 ? (attached - plain) / plain * 100.0 : 0.0;
  return o;
}

/// Tracing-subsystem overhead on fig10: plain vs tracer attached but
/// disabled (the hot path pays one predictable branch per record site;
/// bar < 1%) vs fully enabled with the sampler on (records + ring stores;
/// bar < 10%). Best-of-N wall times, like MeasureFaultOverhead.
struct TraceOverhead {
  double plain_wall_sec = 0;
  double disabled_wall_sec = 0;
  double enabled_wall_sec = 0;
  double disabled_overhead_pct = 0;
  double enabled_overhead_pct = 0;
};

TraceOverhead MeasureTraceOverhead(double scale, int reps) {
  TraceOverhead o;
  double plain = 1e30, disabled = 1e30, enabled = 1e30;
  for (int rep = 0; rep < reps; ++rep) {
    auto r1 = RunScenario(
        "plain", core::SystemConfig::CanvasFull(),
        core::BuildApps(CorunBuilds("spark-lr", scale, 0.25)));
    // Disabled is the default TraceConfig — same config object, toggle off.
    auto cfg_off = core::SystemConfig::CanvasFull();
    cfg_off.trace.enabled = false;
    auto r2 = RunScenario(
        "trace_disabled", std::move(cfg_off),
        core::BuildApps(CorunBuilds("spark-lr", scale, 0.25)));
    auto cfg_on = core::SystemConfig::CanvasFull();
    cfg_on.trace.enabled = true;
    auto r3 = RunScenario(
        "trace_enabled", std::move(cfg_on),
        core::BuildApps(CorunBuilds("spark-lr", scale, 0.25)));
    plain = std::min(plain, r1.wall_sec);
    disabled = std::min(disabled, r2.wall_sec);
    enabled = std::min(enabled, r3.wall_sec);
  }
  o.plain_wall_sec = plain;
  o.disabled_wall_sec = disabled;
  o.enabled_wall_sec = enabled;
  o.disabled_overhead_pct =
      plain > 0 ? (disabled - plain) / plain * 100.0 : 0.0;
  o.enabled_overhead_pct =
      plain > 0 ? (enabled - plain) / plain * 100.0 : 0.0;
  return o;
}

void PrintSpread(std::FILE* f, const char* key, const Spread& sp,
                 const char* fmt, const char* tail) {
  std::fprintf(f, "\"%s\": ", key);
  std::fprintf(f, fmt, sp.median);
  std::fprintf(f, ", \"%s_min\": ", key);
  std::fprintf(f, fmt, sp.min);
  std::fprintf(f, ", \"%s_max\": ", key);
  std::fprintf(f, fmt, sp.max);
  std::fprintf(f, "%s", tail);
}

void WriteJson(const std::string& path, const MicroSpread& micro,
               const std::vector<ScenarioSpread>& scenarios,
               const FaultOverhead& fault, const TraceOverhead& trace) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"benchmark\": \"simulator_throughput\",\n");
  std::fprintf(f, "  \"repeats\": %d,\n", kRepeats);
  std::fprintf(f, "  \"micro\": {\n");
  std::fprintf(f, "    \"events\": %llu,\n",
               (unsigned long long)micro.events);
  std::fprintf(f, "    ");
  PrintSpread(f, "baseline_seed_events_per_sec", SpreadOf(micro.legacy_eps),
              "%.0f", ",\n    ");
  PrintSpread(f, "fastpath_events_per_sec", SpreadOf(micro.fast_eps), "%.0f",
              ",\n    ");
  PrintSpread(f, "speedup", SpreadOf(micro.speedups), "%.3f", "\n");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"scenarios\": [\n");
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const ScenarioSpread& s = scenarios[i];
    const Spread wall = SpreadOf(s.walls);
    std::fprintf(f, "    {\"name\": \"%s\", ", s.name.c_str());
    PrintSpread(f, "wall_sec", wall, "%.3f", ", ");
    std::fprintf(f, "\"sim_events\": %llu, \"events_per_sec\": %.0f, "
                 "\"finish_sim_sec\": [",
                 (unsigned long long)s.sim_events,
                 double(s.sim_events) / wall.median);
    for (std::size_t j = 0; j < s.finish_sec.size(); ++j)
      std::fprintf(f, "%s%.3f", j ? ", " : "", s.finish_sec[j]);
    std::fprintf(f, "]}%s\n", i + 1 < scenarios.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"fault_overhead\": {\n");
  std::fprintf(f, "    \"plain_wall_sec\": %.3f,\n", fault.plain_wall_sec);
  std::fprintf(f, "    \"empty_plan_wall_sec\": %.3f,\n",
               fault.attached_wall_sec);
  std::fprintf(f, "    \"fault_overhead_pct\": %.2f\n", fault.overhead_pct);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"trace_overhead\": {\n");
  std::fprintf(f, "    \"plain_wall_sec\": %.3f,\n", trace.plain_wall_sec);
  std::fprintf(f, "    \"disabled_wall_sec\": %.3f,\n",
               trace.disabled_wall_sec);
  std::fprintf(f, "    \"enabled_wall_sec\": %.3f,\n",
               trace.enabled_wall_sec);
  std::fprintf(f, "    \"trace_disabled_overhead_pct\": %.2f,\n",
               trace.disabled_overhead_pct);
  std::fprintf(f, "    \"trace_overhead_pct\": %.2f\n",
               trace.enabled_overhead_pct);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"peak_rss_bytes\": %llu\n",
               (unsigned long long)PeakRssBytes());
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace
}  // namespace canvas::bench

int main(int argc, char** argv) {
  using namespace canvas;
  using namespace canvas::bench;

  // Reject anything but an optional --quick before running: a mistyped
  // flag would otherwise run the full harness and overwrite its JSON.
  bool quick = argc == 2 && std::strcmp(argv[1], "--quick") == 0;
  if (argc > 1 && !quick) {
    std::fprintf(stderr, "usage: %s [--quick]\n", argv[0]);
    return 2;
  }
  const char* env = std::getenv("CANVAS_BENCH_JSON");
  std::string json_path = env ? env : "BENCH_simulator.json";

  PrintBanner("Simulator throughput harness");

  // --- micro: same churn through both engines, alternating ---
  MicroSpread micro;
  micro.events = quick ? 400'000 : 4'000'000;
  const unsigned kChains = 2048;  // pending events at co-run depth
  for (int rep = 0; rep < kRepeats; ++rep) {
    double legacy =
        Churn<LegacySimulator>{}.EventsPerSec(micro.events, kChains);
    double fast = Churn<sim::Simulator>{}.EventsPerSec(micro.events, kChains);
    micro.legacy_eps.push_back(legacy);
    micro.fast_eps.push_back(fast);
    micro.speedups.push_back(fast / legacy);
  }
  const Spread legacy_eps = SpreadOf(micro.legacy_eps);
  const Spread fast_eps = SpreadOf(micro.fast_eps);
  const Spread speedup = SpreadOf(micro.speedups);
  std::printf("micro churn (%llu events, 2048 chains, median [min, max] of "
              "%d):\n"
              "  seed engine     %12.0f events/sec [%.0f, %.0f]\n"
              "  fast-path engine%12.0f events/sec [%.0f, %.0f]\n"
              "  speedup         %12.2fx [%.2f, %.2f]\n",
              (unsigned long long)micro.events, kRepeats, legacy_eps.median,
              legacy_eps.min, legacy_eps.max, fast_eps.median, fast_eps.min,
              fast_eps.max, speedup.median, speedup.min, speedup.max);

  // --- representative figure scenarios ---
  // Composed as RunSpecs and executed by the SweepEngine with jobs=1: the
  // per-run wall clock is the quantity being measured, so runs must not
  // contend with each other for cores.
  double scale = ScaleFromEnv(quick ? 0.05 : 0.15);
  std::vector<orchestrator::RunSpec> scenario_specs;
  AddRun(scenario_specs, "fig02_linux55_corun", core::SystemConfig::Linux55(),
         CorunBuilds("spark-lr", scale, 0.25));
  AddRun(scenario_specs, "fig10_canvas_corun", core::SystemConfig::CanvasFull(),
         CorunBuilds("spark-lr", scale, 0.25));
  {
    core::AppBuild b = Build("memcached", scale, 0.25, /*cores=*/16);
    b.threads = 16;
    AddRun(scenario_specs, "fig13_memcached_16c",
           core::SystemConfig::CanvasFull(), {std::move(b)});
  }
  std::vector<ScenarioSpread> scenarios;
  for (int rep = 0; rep < kRepeats; ++rep) {
    auto sweep = RunSweep(scenario_specs, /*jobs=*/1);
    scenarios.resize(sweep.runs.size());
    for (std::size_t i = 0; i < sweep.runs.size(); ++i) {
      const orchestrator::RunResult& r = sweep.runs[i];
      ScenarioSpread& s = scenarios[i];
      s.walls.push_back(r.wall_sec);
      if (rep > 0) continue;
      s.name = r.label;
      s.sim_events = r.sim_events;
      for (const orchestrator::AppResult& a : r.apps)
        s.finish_sec.push_back(double(a.metrics.finish_time) /
                               double(kSecond));
    }
  }

  TablePrinter table({"scenario", "wall sec (median)", "min", "max",
                      "sim events", "events/sec"});
  for (const ScenarioSpread& s : scenarios) {
    const Spread wall = SpreadOf(s.walls);
    table.AddRow({s.name, TablePrinter::Num(wall.median, 3),
                  TablePrinter::Num(wall.min, 3),
                  TablePrinter::Num(wall.max, 3), std::to_string(s.sim_events),
                  TablePrinter::Num(double(s.sim_events) / wall.median, 0)});
  }
  table.Print();

  // --- fault-subsystem overhead with faults disabled ---
  FaultOverhead fault = MeasureFaultOverhead(scale, quick ? 1 : 3);
  std::printf("fault subsystem overhead (empty plan vs no plan, fig10, "
              "best of %d): %.2f%%\n",
              quick ? 1 : 3, fault.overhead_pct);

  // --- tracing overhead, disabled and fully enabled ---
  // More reps than the fault measurement: the per-run deltas are small
  // enough that best-of-N needs a deeper N to sink below scheduler noise.
  int trace_reps = quick ? 3 : 6;
  TraceOverhead trace = MeasureTraceOverhead(scale, trace_reps);
  std::printf("trace subsystem overhead (fig10, best of %d): "
              "disabled %.2f%%, enabled %.2f%%\n",
              trace_reps, trace.disabled_overhead_pct,
              trace.enabled_overhead_pct);

  std::printf("host CPUs: %u\n", std::thread::hardware_concurrency());
  std::printf("peak RSS: %s\n", FormatBytes(double(PeakRssBytes())).c_str());

  WriteJson(json_path, micro, scenarios, fault, trace);
  if (speedup.median < kSpeedupFloor) {
    std::fprintf(stderr, "FAIL: fast-path speedup %.2fx is below the %.1fx "
                 "floor\n", speedup.median, kSpeedupFloor);
    return 1;
  }
  return 0;
}
