// Experiment runner: builds a simulator + SwapSystem for one co-run
// scenario, runs it to completion (or a deadline), and exposes results.
// Every bench binary and integration test drives experiments through this
// class, making runs reproducible from (config, app specs, seed).
//
// Two construction paths:
//  - the original (SystemConfig, vector<AppSpec>) form, for callers that
//    build workloads by hand, and
//  - the declarative ExperimentSpec form, where each application is named
//    by an AppBuild (name + scale/ratio/cores/seed) and the workload is
//    materialized here. The orchestrator, canvasctl and every bench binary
//    compose runs through the spec path, so a run is fully described by a
//    plain value that can be expanded, shipped to a worker thread, or
//    serialized into a report label.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/swap_system.h"

namespace canvas::core {

/// Cores per application, following the paper's §6 setup: managed apps 24,
/// XGBoost 16, Memcached 4, Snappy 1.
std::uint32_t PaperCores(const std::string& name);

/// Declarative description of one application in a co-run: everything
/// needed to materialize (workload, cgroup) without touching the workload
/// factories directly. Zero means "use the default" for cores/threads/seed.
struct AppBuild {
  std::string name;           ///< Table 2 short name ("spark-lr", ...)
  double scale = 1.0;         ///< workload scale factor
  double ratio = 0.25;        ///< local memory fraction of working set
  std::uint32_t cores = 0;    ///< cgroup cores (0 = PaperCores(name))
  std::uint32_t threads = 0;  ///< worker-thread override (0 = app default)
  std::uint64_t seed = 0;     ///< workload seed (0 = 7, the bench default)
  double rdma_weight = 0.0;   ///< cgroup RDMA weight (0 = cores)
};

/// A complete, self-contained run description.
struct ExperimentSpec {
  SystemConfig config;
  std::vector<AppBuild> apps;
  SimTime deadline = 600 * kSecond;
};

/// Materialize the workloads + cgroups named by `builds`.
std::vector<AppSpec> BuildApps(const std::vector<AppBuild>& builds);

class Experiment {
 public:
  /// `deadline` bounds runaway configurations; results of unfinished apps
  /// report finish_time == 0.
  Experiment(SystemConfig cfg, std::vector<AppSpec> apps,
             SimTime deadline = 600 * kSecond);

  /// Spec-driven construction: materializes every AppBuild via BuildApps.
  explicit Experiment(const ExperimentSpec& spec);

  /// Run to completion. Returns true if all applications finished.
  bool Run();

  sim::Simulator& simulator() { return sim_; }
  const SwapSystem& system() const { return *system_; }
  SwapSystem& system() { return *system_; }

  /// Always false; kept only for perfbench/, and goes in the next benchmark
  /// change.
  bool parallel() const { return false; }

  /// Makespan of app `i` (0 if it did not finish before the deadline).
  SimTime FinishTime(std::size_t i) const {
    return system_->metrics(i).finish_time;
  }

  /// Convenience: finish time in (simulated) seconds.
  double FinishSeconds(std::size_t i) const {
    return double(FinishTime(i)) / double(kSecond);
  }

 private:
  sim::Simulator sim_;
  SimTime deadline_;
  std::unique_ptr<SwapSystem> system_;
};

/// Slowdown of `t` relative to baseline `base` (>= 1 means slower).
inline double Slowdown(SimTime t, SimTime base) {
  return base ? double(t) / double(base) : 0.0;
}

}  // namespace canvas::core
