// Online-serving harness (DESIGN.md §13): declarative multi-tenant serving
// runs over the swap system.
//
// A ServingSpec names a system preset + topology, a set of tenants (each an
// open-loop Zipfian key-value service with its own arrival process, SLO and
// cgroup limits), and a QoS configuration. RunServing materializes the
// tenants as AppWorkloads of OpenLoopZipfStream threads, runs them through
// the standard core::Experiment path (so fault plans and topologies apply
// unchanged), attaches the QosPlane, and snapshots a deterministic
// per-tenant result: offered/deferred/served request counts, cumulative
// fault-latency percentiles and windowed SLO violation rates.
//
// Like RunSpec/RunResult, everything here is a plain value: a serving
// sweep report is a pure function of its ServingSpecs, byte-identical
// across sweep jobs counts.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/run.h"
#include "core/config.h"
#include "serving/qos.h"
#include "workload/arrival.h"

namespace canvas::serving {

struct TenantSpec {
  std::string name = "tenant";
  /// Tenant-level arrival process; the rate is split evenly across threads
  /// (Poisson superposition keeps the aggregate exact).
  workload::ArrivalConfig arrival;
  /// Arrivals stop here; the run ends when every tenant drains.
  SimTime horizon = 2 * kSecond;
  std::uint32_t threads = 4;
  PageId footprint_pages = 24576;
  double theta = 0.99;
  double write_fraction = 0.1;
  /// On-CPU service time per request.
  std::uint32_t service_ns = 300;
  /// Local-memory fraction of the footprint (cgroup sizing).
  double ratio = 0.25;
  std::uint32_t cores = 4;
  SloConfig slo;
  /// Marks the tenant best-effort in the report; no effect on the run.
  bool best_effort = false;
  /// Initial admission gate (0 = admitted from the start).
  SimTime admit_after = 0;
  /// Marks the tenant whose arrival process a scenario's arrival axis
  /// overrides (orchestrator/scenario.h). No effect on the run itself.
  bool load_tenant = false;
};

struct ServingSpec {
  std::string label;
  std::size_t index = 0;
  core::SystemConfig config;  ///< includes topology and fault_plan
  std::vector<TenantSpec> tenants;
  QosConfig qos;
  bool qos_enabled = true;
  std::uint64_t seed = 7;
  SimTime deadline = 600 * kSecond;
};

/// Deterministic per-tenant snapshot.
struct TenantResult {
  std::string name;
  bool best_effort = false;
  // --- open-loop load ---
  std::uint64_t offered = 0;
  std::uint64_t deferred = 0;
  std::uint64_t served = 0;
  SimDuration max_lag = 0;
  // --- fault latency (cumulative over the run) ---
  std::uint64_t faults = 0;
  std::uint64_t fault_p50_ns = 0;
  std::uint64_t fault_p99_ns = 0;
  std::uint64_t fault_p999_ns = 0;
  // --- windowed SLO verdicts ---
  std::uint64_t windows_judged = 0;
  std::uint64_t windows_skipped = 0;
  std::uint64_t windows_violated = 0;
  double violation_rate = 0;
  SimTime finish_ns = 0;
  // Always zero and not written to the report; kept only for perfbench/,
  // which reads them (ROADMAP item 9).
  std::uint64_t shed = 0;
  std::uint64_t weight_boosts = 0;
  std::uint64_t shed_steps = 0;
  std::uint64_t deferrals = 0;
  std::uint64_t slabs_migrated = 0;
};

struct ServingResult : RunRecord {
  // --- deterministic payload ---
  std::vector<TenantResult> tenants;
  std::uint64_t qos_ticks = 0;
  std::uint64_t pool_migrations = 0;
  std::uint64_t pool_evictions_to_disk = 0;
  std::uint64_t pool_harvest_events = 0;
  std::uint64_t sim_events = 0;
  /// Always false; kept only for perfbench/, and goes in the next benchmark
  /// change.
  bool parallel = false;
};

/// Execute one serving spec in the calling thread.
ServingResult RunServing(const ServingSpec& spec);

/// Aggregated serving report. With include_timing=false the output is a
/// pure function of the specs (byte-identical across jobs counts).
void WriteServingJson(std::ostream& os,
                      const std::vector<ServingResult>& results,
                      bool include_timing = true);

}  // namespace canvas::serving
