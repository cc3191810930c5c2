// SweepEngine: parallel execution of independent experiment runs
// (DESIGN.md §10).
//
// Each run owns its own Simulator + SwapSystem + trace state, so N runs
// are embarrassingly parallel: `jobs` worker threads pull RunSpecs from a
// shared cursor, execute them, snapshot the results into a pre-sized slot
// vector indexed by spec index, and tear the live system down before
// taking the next run. Aggregation therefore depends only on the specs —
// the sweep report is byte-identical for any thread count and any
// completion order (enforced by tests/orchestrator_test.cc). Wall-clock
// and RSS are captured per run but live in a separate, clearly
// non-deterministic "timing" section that deterministic consumers omit.
//
// Resource bounds: `max_live` caps the number of concurrently constructed
// swap systems (memory high-water), independent of `jobs`; cancellation
// on first failure stops the cursor so a broken sweep fails fast instead
// of burning the remaining grid.
#pragma once

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "orchestrator/churn.h"
#include "orchestrator/scenario.h"

namespace canvas::orchestrator {

struct SweepOptions {
  /// Worker threads. 0 = std::thread::hardware_concurrency().
  unsigned jobs = 1;
  /// Cap on concurrently live swap systems (memory bound). 0 = jobs.
  unsigned max_live = 0;
  /// Stop dispatching new runs after the first failed run (deadline miss
  /// or exception); undispatched runs report Status::kCancelled.
  bool cancel_on_failure = false;
  /// Emit a single-line progress indicator to stderr as runs complete.
  bool progress = false;
};

/// Deterministic per-application snapshot taken before the run's
/// SwapSystem is destroyed.
struct AppResult {
  core::AppMetrics metrics;  ///< full metric copy (incl. fault histogram)
  std::uint64_t sched_drops = 0;         ///< scheduler drops for this cgroup
  double alloc_latency_mean_ns = 0;      ///< allocator lock-path mean
  std::uint64_t ingress_bytes = 0;
  std::uint64_t egress_bytes = 0;
};

struct RunResult {
  enum class Status : std::uint8_t {
    kOk,         ///< ran, all apps finished
    kDeadline,   ///< ran, at least one app missed the deadline
    kError,      ///< threw (unknown app name, ...); see `error`
    kCancelled,  ///< never dispatched (sweep cancelled first)
  };

  std::size_t index = 0;
  std::string label;
  std::string system;  ///< SystemConfig::name of the resolved config
  Status status = Status::kCancelled;
  std::string error;

  // --- deterministic payload ---
  std::vector<AppResult> apps;
  double wmmr_ingress = 0;
  std::uint64_t sched_drops = 0;
  std::uint64_t sim_events = 0;

  // --- timing payload (never byte-stable; excluded from deterministic
  // aggregation) ---
  double wall_sec = 0;
  std::uint64_t peak_rss_bytes = 0;  ///< process peak RSS at run completion

  bool executed() const {
    return status == Status::kOk || status == Status::kDeadline;
  }
};

const char* StatusName(RunResult::Status s);

struct SweepResult {
  std::vector<RunResult> runs;  ///< spec-index order, one slot per RunSpec
  bool all_ok = false;          ///< every run executed and finished
  bool cancelled = false;       ///< cancel_on_failure tripped
  double wall_sec = 0;          ///< whole-sweep wall clock
  unsigned jobs = 1;            ///< worker threads actually used

  /// Aggregated machine-readable report (schema_version from core/report).
  /// With include_timing=false the output is a pure function of the
  /// RunSpecs — byte-identical across thread counts; include_timing=true
  /// appends the per-run wall/RSS section and sweep totals.
  void WriteJson(std::ostream& os, bool include_timing = true) const;
};

/// Serving-sweep aggregate (DESIGN.md §13): same index-slot contract as
/// SweepResult — the deterministic report depends only on the specs.
struct ServingSweepResult {
  std::vector<serving::ServingResult> runs;  ///< spec-index order
  bool all_ok = false;
  bool cancelled = false;
  double wall_sec = 0;
  unsigned jobs = 1;

  /// include_timing=false -> byte-identical across jobs counts.
  void WriteJson(std::ostream& os, bool include_timing = true) const {
    serving::WriteServingJson(os, runs, include_timing);
  }
};

class SweepEngine {
 public:
  explicit SweepEngine(SweepOptions opts = {});

  /// Execute all runs; blocks until done or cancelled. Slots in the
  /// returned result line up 1:1 with `specs` by index.
  SweepResult Run(std::vector<RunSpec> specs);

  /// Convenience: expand + run a declarative scenario.
  SweepResult Run(const ScenarioSpec& scenario) {
    return Run(scenario.Expand());
  }

  /// Serving counterpart of Run: same worker pool and live cap, over
  /// serving::RunServing.
  ServingSweepResult RunServing(std::vector<serving::ServingSpec> specs);
  ServingSweepResult RunServing(const ServingScenarioSpec& scenario) {
    return RunServing(scenario.Expand());
  }

  /// Churn counterpart (DESIGN.md §15): same worker pool and live cap, over
  /// RunChurn.
  ChurnSweepResult RunChurn(std::vector<ChurnRunSpec> specs);
  ChurnSweepResult RunChurn(const ChurnScenarioSpec& scenario) {
    return RunChurn(scenario.Expand());
  }

  /// Highest number of simultaneously live swap systems observed during
  /// the last Run() (tests assert <= max_live).
  unsigned live_high_water() const { return live_high_water_; }

  /// Execute one spec in the calling thread (no pool); used by callers
  /// that want the deterministic snapshot shape without a sweep.
  static RunResult ExecuteOne(const RunSpec& spec);

 private:
  SweepOptions opts_;
  unsigned live_high_water_ = 0;
};

}  // namespace canvas::orchestrator
