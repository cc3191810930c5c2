// Declarative sweep description (DESIGN.md §10).
//
// A scenario names WHAT to run — system presets (plus feature overrides),
// a workload template, and sweep axes — and Expand() turns it into the
// flat, index-ordered list of run specs the SweepEngine executes. There are
// three scenario kinds (batch co-run, serving, churn). They share one axis
// block, AxisSpec, and one expansion of it, AxisSpec::Points(); each kind
// only adds its own inner axes and workload template. The expansion order
// is part of the contract: results are aggregated by spec index, so the
// same scenario always produces the same run list and therefore the same
// aggregated report, regardless of how many worker threads execute it.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "serving/harness.h"
#include "workload/churn.h"

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

/// Resolve a granularity-axis name to the SystemConfig::objects.enabled
/// setting: "page" -> false, "object" -> true; nullopt otherwise.
std::optional<bool> GranularityFromName(const std::string& name);

/// One point of the shared axis grid, fully resolved.
struct AxisPoint {
  /// Preset plus overrides, with the topology, tier and granularity
  /// applied.
  core::SystemConfig config;
  /// The system name as given on the axis: every label's first segment.
  std::string system;
  /// "/topology/tier" label segments. The defaults ("single", "none")
  /// are omitted, so labels from before those axes keep their keys.
  std::string placement;
  /// "/object", or empty for the default "page" granularity.
  std::string granularity;
};

/// Sweep axes shared by every scenario kind (batch, serving, churn). Each
/// derived spec adds its own workload template and inner axes, but the
/// system/topology/tier/granularity/seed block — and the canvasctl flags
/// that fill it — is declared exactly once, here.
struct AxisSpec {
  /// Preset names resolved via SystemConfig::FromName.
  std::vector<std::string> systems = {"canvas"};
  FeatureOverrides overrides;
  /// Server-topology axis (DESIGN.md §11), resolved via
  /// remote::PoolConfig::FromName. The default {"single"} keeps the
  /// single-infinite-server fast path. (The serving and churn scenarios
  /// re-default it to {"pool4"}.)
  std::vector<std::string> topologies = {"single"};
  /// Hybrid-local-tier axis (DESIGN.md §14), resolved via
  /// tier::TierConfig::FromName. The default {"none"} disables the tier.
  std::vector<std::string> tiers = {"none"};
  /// Swap-granularity axis (DESIGN.md §16): "page" = classic demand paging,
  /// "object" = SystemConfig::objects.enabled (behaviour-scheduled
  /// object fetching for workloads that ship a registry, e.g. "chase").
  std::vector<std::string> granularities = {"page"};
  /// Innermost axis of every kind.
  std::vector<std::uint64_t> seeds = {7};
  SimTime deadline = 600 * kSecond;

  /// The system (outer) -> topology -> tier -> granularity (inner) grid.
  /// Throws std::invalid_argument on an unknown name on any of the four
  /// axes.
  std::vector<AxisPoint> Points() const;

  /// Points().size() * seeds.size(): the run count before a kind's own
  /// axes multiply in.
  std::size_t AxisRunCount() const {
    return systems.size() * topologies.size() * tiers.size() *
           granularities.size() * seeds.size();
  }
};

/// One fully resolved batch run: position in the expanded grid, a
/// human-readable label, and the complete experiment description.
struct RunSpec {
  std::size_t index = 0;
  std::string label;
  core::ExperimentSpec exp;
};

/// The batch co-run scenario. Nesting order: the shared axes, then ratio
/// -> scale -> seed (inner). Labels read "canvas/r0.25/s0.30/seed7", with
/// the placement and granularity segments appended.
struct ScenarioSpec : AxisSpec {
  /// Co-run template. Each AppBuild's ratio/scale/seed fields are
  /// overwritten by the axis values at expansion; name/cores/threads are
  /// taken as-is.
  std::vector<core::AppBuild> apps;
  std::vector<double> ratios = {0.25};
  std::vector<double> scales = {0.3};

  std::size_t RunCount() const {
    return AxisRunCount() * ratios.size() * scales.size();
  }
  std::vector<RunSpec> Expand() const;
};

/// The serving scenario (DESIGN.md §13), over serving::ServingSpecs, with
/// an arrival-process axis instead of ratio/scale. Nesting order: the
/// shared axes, then arrival -> seed (inner). Labels read
/// "canvas/pool4/poisson/seed7" (placement and granularity segments before
/// the arrival).
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

  std::size_t RunCount() const { return AxisRunCount() * arrivals.size(); }
  /// Also throws std::invalid_argument on an unknown arrival name.
  std::vector<serving::ServingSpec> Expand() const;
};

/// One fully resolved churn run.
struct ChurnRunSpec {
  std::size_t index = 0;
  std::string label;
  core::SystemConfig config;
  workload::ChurnSpec churn;
  SimTime deadline = 600 * kSecond;
};

/// The churn scenario (DESIGN.md §15): the shared axes plus a harvest axis
/// (churn runs pair tenant arrival/departure with supply-side capacity
/// dynamics) and the churn timeline itself. Nesting order: the shared
/// axes, then harvest -> seed (inner). The seed axis is stamped onto
/// ChurnSpec::seed, re-sampling the whole arrival timeline per seed.
/// Labels read "canvas/pool4/closed-loop/seed7" (placement segments before
/// the harvest, the granularity segment last).
struct ChurnScenarioSpec : AxisSpec {
  ChurnScenarioSpec() { topologies = {"pool4"}; }

  /// Harvest-schedule axis, resolved via remote::HarvestConfig::FromName
  /// ("none" | "steady" | "bursty" | "closed-loop"). The default pairs
  /// churn with the supply/demand control loop.
  std::vector<std::string> harvests = {"closed-loop"};
  workload::ChurnSpec churn;

  std::size_t RunCount() const { return AxisRunCount() * harvests.size(); }
  /// Also throws std::invalid_argument on an unknown harvest name.
  std::vector<ChurnRunSpec> Expand() const;
};

/// The system config of a resolved spec of any kind.
template <typename Spec>
auto& ConfigOf(Spec& spec) {
  if constexpr (requires { spec.exp; })
    return spec.exp.config;
  else
    return spec.config;
}

}  // namespace canvas::orchestrator
