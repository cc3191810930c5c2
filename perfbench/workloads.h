// The benchmark's three workloads, composed from the simulator's public entry
// points so that every phase can be timed from outside the library.
//
//   corun          Fig. 10 co-run (spark-lr + snappy + memcached + xgboost at
//                  25% local memory) on the `canvas` preset, single-server
//                  fabric, closed loop.
//   serving-flash  protected open-loop Zipf `frontend` with a flash crowd plus
//                  a best-effort `batch` tenant on `canvas`/pool4, QoS plane
//                  attached with every lever on.
//   cluster-day    diurnal churn of small memcached/snappy tenants on
//                  `canvas`/pool4 with the `steady` harvest schedule.
//
// Each spec builder derives every workload input from the one seed it is
// given. The serving and churn runners mirror serving::RunServing and
// orchestrator::RunChurn step for step (selftest.cc checks that their
// deterministic payloads are identical) but split set-up from the run and
// time the lifecycle calls.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.h"
#include "orchestrator/churn.h"
#include "serving/harness.h"

namespace perfbench {

enum class Workload { kCorun, kServingFlash, kClusterDay };

std::optional<Workload> WorkloadFromName(std::string_view name);
const char* WorkloadName(Workload w);

/// Host-side timings taken around the driver's own calls into the library.
struct HostTimes {
  /// Set-up is repeated kSetups times per run (each copy discarded but the
  /// last); these hold one sample per repetition.
  std::vector<double> build_samples;      ///< workload materialization
  std::vector<double> construct_samples;  ///< system construction
  double run_s = 0;  ///< simulation phase
  /// Tenants built inside the run (cluster-day): their materialization time
  /// is part of run_s, and also reported separately here.
  double run_build_s = 0;
  double add_app_s = 0;
  std::uint64_t add_app_calls = 0;
  double retire_app_s = 0;
  std::uint64_t retire_app_calls = 0;
  /// Heap allocations made during the simulation phase.
  std::uint64_t run_allocs = 0;

  double build_s() const;      ///< median build sample
  double construct_s() const;  ///< median construct sample
  double setup_s() const;      ///< median of build + construct per repetition
};

/// Set-up repetitions per run.
inline constexpr int kSetups = 5;

/// Called after the run while the system is still alive, so the caller can
/// read counters through the public accessors. It may advance the simulator
/// once it has read them (to let in-flight work drain).
using Inspect = std::function<void(const canvas::core::SwapSystem&,
                                   canvas::sim::Simulator&)>;

/// Heap allocations made by this process so far (operator new replacement
/// in alloc_counter.cc).
std::uint64_t HeapAllocations();

// --- workload specs (all inputs derive from `seed`) ---
canvas::core::ExperimentSpec CorunSpec(std::uint64_t seed);
canvas::serving::ServingSpec ServingFlashSpec(std::uint64_t seed);
canvas::orchestrator::ChurnRunSpec ClusterDaySpec(std::uint64_t seed);

// --- timed runners ---
/// Returns true if every tenant finished before the deadline.
bool RunCorun(const canvas::core::ExperimentSpec& spec, HostTimes& host,
              const Inspect& inspect);
canvas::serving::ServingResult RunServingTimed(
    const canvas::serving::ServingSpec& spec, HostTimes& host,
    const Inspect& inspect);
canvas::orchestrator::ChurnResult RunChurnTimed(
    const canvas::orchestrator::ChurnRunSpec& spec, HostTimes& host,
    const Inspect& inspect);

}  // namespace perfbench
