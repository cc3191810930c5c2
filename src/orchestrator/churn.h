// Cluster-day churn driver (DESIGN.md §15): replays a pre-sampled
// workload::ChurnSchedule against one SwapSystem — arrival -> AddApp,
// departure -> RetireApp — on the DES clock, then snapshots a deterministic
// result. The schedule is pure data sampled before the run starts, so the
// whole simulation is bit-for-bit identical at any --jobs count; wall clock
// and RSS live in a separate timing payload like the other sweep surfaces.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "orchestrator/scenario.h"
#include "workload/churn.h"

namespace canvas::orchestrator {

/// One fully resolved churn run.
struct ChurnRunSpec {
  std::size_t index = 0;
  std::string label;
  core::SystemConfig config;
  workload::ChurnSpec churn;
  SimTime deadline = 600 * kSecond;
};

/// Declarative churn-sweep surface: the shared axis block plus a harvest
/// axis (churn runs pair tenant arrival/departure with supply-side capacity
/// dynamics) and the churn timeline itself. Nesting order: system (outer)
/// -> topology -> tier -> harvest -> seed (inner). The seed axis is stamped
/// onto ChurnSpec::seed, re-sampling the whole arrival timeline per seed.
struct ChurnScenarioSpec : AxisSpec {
  ChurnScenarioSpec() { topologies = {"pool4"}; }

  /// Harvest-schedule axis, resolved via remote::HarvestConfig::FromName
  /// ("none" | "steady" | "bursty" | "closed-loop"). The default pairs
  /// churn with the supply/demand control loop.
  std::vector<std::string> harvests = {"closed-loop"};
  workload::ChurnSpec churn;

  std::size_t RunCount() const {
    return systems.size() * topologies.size() * tiers.size() *
           harvests.size() * seeds.size();
  }

  /// Expand the grid into ChurnRunSpecs, index-ordered. Throws
  /// std::invalid_argument on an unknown preset name.
  std::vector<ChurnRunSpec> Expand() const;
};

/// Label for one churn grid point, e.g. "canvas/pool4/closed-loop/seed7"
/// (the default "single" topology and "none" tier segments are omitted;
/// the harvest segment is always present).
std::string ChurnRunLabel(const std::string& system,
                          const std::string& topology,
                          const std::string& harvest, std::uint64_t seed,
                          const std::string& tier = "none");

/// Deterministic snapshot of one churn run. Every field above the timing
/// section is a pure function of the ChurnRunSpec.
struct ChurnResult {
  enum class Status : std::uint8_t {
    kOk,         ///< schedule fully replayed, every tenant drained + reaped
    kDeadline,   ///< deadline hit with tenants still live or unreaped
    kError,      ///< threw, or the pool slab audit failed; see `error`
    kCancelled,  ///< never dispatched (sweep cancelled first)
  };

  std::size_t index = 0;
  std::string label;
  std::string system;
  std::string topology;
  Status status = Status::kCancelled;
  std::string error;

  // --- deterministic payload ---
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
  // Pool-side counters (zero when the topology has no server pool).
  bool pool = false;
  std::uint64_t partitions_released = 0;
  std::uint64_t slabs_released = 0;
  std::uint64_t harvest_events = 0;
  std::uint64_t control_ticks = 0;
  std::uint64_t control_harvests = 0;
  std::uint64_t control_returns = 0;

  // --- timing payload (never byte-stable) ---
  double wall_sec = 0;
  std::uint64_t peak_rss_bytes = 0;

  bool executed() const {
    return status == Status::kOk || status == Status::kDeadline;
  }
};

const char* ChurnStatusName(ChurnResult::Status s);

/// Execute one churn run in the calling thread: sample the schedule, build
/// an (initially empty) SwapSystem, replay arrivals/departures on the DES
/// clock, drain, audit the pool, snapshot.
ChurnResult RunChurn(const ChurnRunSpec& spec);

/// Churn-sweep aggregate: same index-slot contract as SweepResult — the
/// deterministic report depends only on the specs.
struct ChurnSweepResult {
  std::vector<ChurnResult> runs;  ///< spec-index order
  bool all_ok = false;
  bool cancelled = false;
  double wall_sec = 0;
  unsigned jobs = 1;

  /// include_timing=false -> byte-identical across jobs counts.
  void WriteJson(std::ostream& os, bool include_timing = true) const;
};

}  // namespace canvas::orchestrator
