// SweepEngine: parallel execution of independent runs (DESIGN.md §10).
//
// Each run owns its own Simulator + SwapSystem + trace state, so N runs
// are embarrassingly parallel: `jobs` worker threads pull specs from a
// shared cursor, execute them, snapshot the results into a pre-sized slot
// vector indexed by spec index, and tear the live system down before
// taking the next run. One worker pool serves all three run kinds — batch
// co-runs (RunSpec), serving runs (serving::ServingSpec) and churn runs
// (ChurnRunSpec) — and each kind's report depends only on its specs: it
// is byte-identical for any thread count and any completion order
// (enforced by tests/orchestrator_test.cc). Wall-clock and RSS are
// captured per run but live in a separate, clearly non-deterministic
// "timing" section that deterministic consumers omit.
//
// Resource bounds: `max_live` caps the number of concurrently constructed
// swap systems (memory high-water), independent of `jobs`; cancellation
// on first failure stops the cursor so a broken sweep fails fast instead
// of burning the remaining grid.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "common/run.h"
#include "core/metrics.h"
#include "orchestrator/scenario.h"
#include "trace/histogram.h"

namespace canvas::orchestrator {

struct SweepOptions {
  /// Worker threads. 0 = std::thread::hardware_concurrency().
  unsigned jobs = 1;
  /// Cap on concurrently live swap systems (memory bound). 0 = jobs.
  unsigned max_live = 0;
  /// Stop dispatching new runs after the first failed run (deadline miss
  /// or exception); undispatched runs report RunStatus::kCancelled.
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

/// Deterministic snapshot of one batch co-run.
struct RunResult : RunRecord {
  std::vector<AppResult> apps;
  double wmmr_ingress = 0;
  std::uint64_t sched_drops = 0;
  std::uint64_t sim_events = 0;
  // NIC-wide figures the paper benches read (Fig. 5, 6, 11, 14); the JSON
  // report leaves them out.
  double ingress_mean_rate = 0;      ///< bytes/s over the run
  double egress_mean_rate = 0;       ///< bytes/s over the run
  trace::LogHistogram demand_latency;    ///< per-request, demand reads
  trace::LogHistogram prefetch_latency;  ///< per-request, prefetch reads
};

/// Deterministic snapshot of one churn run (DESIGN.md §15). kOk means the
/// schedule was fully replayed and every tenant drained and reaped;
/// kError also covers a failed pool slab audit.
struct ChurnResult : RunRecord {
  std::uint64_t tenants_scheduled = 0;   ///< admitted into the schedule
  std::uint64_t tenants_started = 0;     ///< arrival events replayed
  std::uint64_t tenants_retired = 0;     ///< retired AND reaped
  std::uint64_t dropped_arrivals = 0;    ///< admission-control drops
  std::uint64_t schedule_high_water = 0; ///< peak live in the schedule
  std::uint64_t active_high_water = 0;   ///< peak live in the SwapSystem
  std::uint64_t active_at_end = 0;
  std::uint64_t pending_at_end = 0;
  std::uint64_t registry_slots = 0;          ///< CgroupRegistry::size()
  std::uint64_t registry_retired_total = 0;  ///< retire ops (incl. reuse)
  std::uint64_t accesses = 0;
  std::uint64_t faults = 0;
  std::uint64_t faults_major = 0;
  std::uint64_t swapouts = 0;
  std::uint64_t failovers = 0;
  std::uint64_t sched_drops = 0;
  std::uint64_t sim_events = 0;
  // Pool-side counters. `pool` is false on the default `single` topology,
  // whose report omits them.
  bool pool = false;
  std::uint64_t partitions_released = 0;
  std::uint64_t slabs_released = 0;
  std::uint64_t harvest_events = 0;
  std::uint64_t control_ticks = 0;
  std::uint64_t control_harvests = 0;
  std::uint64_t control_returns = 0;
};

/// A finished sweep of one run kind.
template <typename Result>
struct Sweep {
  std::vector<Result> runs;  ///< spec-index order, one slot per spec
  bool all_ok = false;       ///< every run executed and finished
  bool cancelled = false;    ///< cancel_on_failure tripped
  double wall_sec = 0;       ///< whole-sweep wall clock
  unsigned jobs = 1;         ///< worker threads actually used

  /// The kind's machine-readable report. With include_timing=false the
  /// output is a pure function of the specs — byte-identical across
  /// thread counts; include_timing=true appends the per-run wall/RSS
  /// section. Each kind has its own schema (specializations below).
  void WriteJson(std::ostream& os, bool include_timing = true) const;
};

using SweepResult = Sweep<RunResult>;
using ServingSweepResult = Sweep<serving::ServingResult>;
using ChurnSweepResult = Sweep<ChurnResult>;

template <>
void Sweep<RunResult>::WriteJson(std::ostream& os, bool include_timing) const;
template <>
void Sweep<serving::ServingResult>::WriteJson(std::ostream& os,
                                              bool include_timing) const;
template <>
void Sweep<ChurnResult>::WriteJson(std::ostream& os,
                                   bool include_timing) const;

class SweepEngine {
 public:
  explicit SweepEngine(SweepOptions opts = {});

  /// Execute all runs; blocks until done or cancelled. Slots in the
  /// returned result line up 1:1 with `specs` by index.
  SweepResult Run(std::vector<RunSpec> specs);
  ServingSweepResult Run(std::vector<serving::ServingSpec> specs);
  ChurnSweepResult Run(std::vector<ChurnRunSpec> specs);

  /// Convenience: expand + run a declarative scenario.
  SweepResult Run(const ScenarioSpec& s) { return Run(s.Expand()); }
  ServingSweepResult Run(const ServingScenarioSpec& s) {
    return Run(s.Expand());
  }
  ChurnSweepResult Run(const ChurnScenarioSpec& s) { return Run(s.Expand()); }

  /// Highest number of simultaneously live swap systems observed during
  /// the last Run() (tests assert <= max_live).
  unsigned live_high_water() const { return live_high_water_; }

  /// Execute one batch spec in the calling thread (no pool); used by
  /// callers that want the deterministic snapshot shape without a sweep.
  static RunResult ExecuteOne(const RunSpec& spec);

 private:
  template <typename Result, typename Spec, typename Execute>
  Sweep<Result> RunPool(const std::vector<Spec>& specs, const char* tag,
                        Execute execute);

  SweepOptions opts_;
  unsigned live_high_water_ = 0;
};

}  // namespace canvas::orchestrator
