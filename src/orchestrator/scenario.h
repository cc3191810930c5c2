// Declarative sweep description (DESIGN.md §10).
//
// A ScenarioSpec names WHAT to run — system presets (plus feature
// overrides), a co-run application template, and sweep axes (local-memory
// ratio, workload scale, seed) — and Expand() turns it into the flat,
// index-ordered list of RunSpecs the SweepEngine executes. The expansion
// order is part of the contract: results are aggregated by spec index, so
// the same ScenarioSpec always produces the same run list and therefore
// the same aggregated report, regardless of how many worker threads
// execute it.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "serving/harness.h"

namespace canvas::orchestrator {

/// Feature toggles applied on top of a resolved preset (the canvasctl
/// `--no-adaptive` / `--prefetcher=` surface, made composable).
struct FeatureOverrides {
  std::optional<bool> adaptive_alloc;
  std::optional<bool> horizontal_sched;
  std::optional<core::PrefetcherKind> prefetcher;
  std::optional<core::SchedulerKind> scheduler;
  std::optional<bool> isolated_partitions;
  std::optional<bool> isolated_caches;

  void Apply(core::SystemConfig& cfg) const;
  bool Any() const;
};

/// Parse a prefetcher name ("none" | "readahead" | "leap" | "two-tier").
std::optional<core::PrefetcherKind> PrefetcherFromName(
    const std::string& name);

/// One fully resolved run: position in the expanded grid, a human-readable
/// label, and the complete experiment description.
struct RunSpec {
  std::size_t index = 0;
  std::string label;
  core::ExperimentSpec exp;
};

/// Sweep axes shared by every scenario surface (batch, serving, churn).
/// Each derived spec adds its own workload template and extra axes but the
/// system/topology/tier/seed block — and the canvasctl flags that fill it —
/// is declared exactly once, here.
struct AxisSpec {
  /// Preset names resolved via SystemConfig::FromName.
  std::vector<std::string> systems = {"canvas"};
  FeatureOverrides overrides;
  /// Server-topology axis (DESIGN.md §11), resolved via
  /// remote::PoolConfig::FromName. The default {"single"} keeps the
  /// single-infinite-server fast path and leaves run labels unchanged.
  /// (ServingScenarioSpec re-defaults this to {"pool4"} in its ctor.)
  std::vector<std::string> topologies = {"single"};
  /// Hybrid-local-tier axis (DESIGN.md §14), resolved via
  /// tier::TierConfig::FromName and composing with the topology axis. The
  /// default {"none"} disables the tier and leaves run labels unchanged.
  std::vector<std::string> tiers = {"none"};
  /// Swap-granularity axis (DESIGN.md §16): "page" = classic demand paging,
  /// "object" = SystemConfig::objects.enabled (behaviour-scheduled
  /// object fetching for workloads that ship a registry, e.g. "chase").
  /// The default {"page"} leaves config and run labels unchanged.
  std::vector<std::string> granularities = {"page"};
  std::vector<std::uint64_t> seeds = {7};
  SimTime deadline = 600 * kSecond;
};

/// The declarative experiment surface. Axes combine as a full grid in
/// fixed nesting order: system (outer) -> topology -> tier -> granularity
/// -> ratio -> scale -> seed (inner).
struct ScenarioSpec : AxisSpec {
  /// Co-run template. Each AppBuild's ratio/scale/seed fields are
  /// overwritten by the axis values at expansion; name/cores/threads are
  /// taken as-is.
  std::vector<core::AppBuild> apps;
  std::vector<double> ratios = {0.25};
  std::vector<double> scales = {0.3};

  std::size_t RunCount() const {
    return systems.size() * topologies.size() * tiers.size() *
           granularities.size() * ratios.size() * scales.size() *
           seeds.size();
  }

  /// Expand the grid into RunSpecs, index-ordered. Throws
  /// std::invalid_argument on an unknown preset name.
  std::vector<RunSpec> Expand() const;
};

/// Label for one grid point, e.g. "canvas/r0.25/s0.30/seed7". A
/// non-default topology is appended as a trailing "/pool4" segment, a
/// non-default tier as "/cxl" after it, and the non-default "object"
/// granularity last; the defaults ("single", "none", "page") leave the
/// label exactly as before, so existing sweep reports keep their keys.
/// Used both for progress output and as the stable per-run key in sweep
/// reports.
std::string RunLabel(const std::string& system, const std::string& topology,
                     double ratio, double scale, std::uint64_t seed,
                     const std::string& tier = "none",
                     const std::string& granularity = "page");

/// Declarative serving-sweep surface (DESIGN.md §13): like ScenarioSpec but
/// over serving::ServingSpecs, with an arrival-process axis instead of the
/// ratio/scale axes. Nesting order: system (outer) -> topology -> tier ->
/// arrival -> seed (inner).
struct ServingScenarioSpec : AxisSpec {
  ServingScenarioSpec() { topologies = {"pool4"}; }

  /// Arrival-kind axis ("poisson" | "diurnal" | "flash"), applied to the
  /// tenants marked `load_tenant` — or to every tenant when none is
  /// marked. Non-load tenants keep their template arrival process, so a
  /// quiet protected tenant stays quiet across the axis.
  std::vector<std::string> arrivals = {"poisson"};
  /// Tenant template (serving::TenantSpec carries its own SLO + cgroup
  /// sizing; nothing is overwritten except the arrival kind above).
  std::vector<serving::TenantSpec> tenants;
  serving::QosConfig qos;
  bool qos_enabled = true;

  std::size_t RunCount() const {
    return systems.size() * topologies.size() * tiers.size() *
           granularities.size() * arrivals.size() * seeds.size();
  }

  /// Expand into index-ordered ServingSpecs. Throws std::invalid_argument
  /// on unknown system/topology/arrival names.
  std::vector<serving::ServingSpec> Expand() const;
};

/// Label for one serving grid point, e.g. "canvas/pool4/poisson/seed7"
/// (the default "single" topology and "none" tier segments are omitted,
/// like RunLabel, so pre-tier serving reports keep their keys).
std::string ServingRunLabel(const std::string& system,
                            const std::string& topology,
                            const std::string& arrival, std::uint64_t seed,
                            const std::string& tier = "none",
                            const std::string& granularity = "page");

/// Resolve a granularity-axis name to the SystemConfig::objects.enabled
/// setting: "page" -> false, "object" -> true; nullopt otherwise.
std::optional<bool> GranularityFromName(const std::string& name);

}  // namespace canvas::orchestrator
