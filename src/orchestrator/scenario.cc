#include "orchestrator/scenario.h"

#include <cstdio>
#include <stdexcept>

#include "remote/harvest.h"

namespace canvas::orchestrator {

void FeatureOverrides::Apply(core::SystemConfig& cfg) const {
  if (adaptive_alloc) cfg.adaptive_alloc = *adaptive_alloc;
  if (horizontal_sched) cfg.horizontal_sched = *horizontal_sched;
  if (prefetcher) cfg.prefetcher = *prefetcher;
  if (scheduler) cfg.scheduler = *scheduler;
  if (isolated_partitions) cfg.isolated_partitions = *isolated_partitions;
  if (isolated_caches) cfg.isolated_caches = *isolated_caches;
}

bool FeatureOverrides::Any() const {
  return adaptive_alloc || horizontal_sched || prefetcher || scheduler ||
         isolated_partitions || isolated_caches;
}

std::optional<core::PrefetcherKind> PrefetcherFromName(
    const std::string& name) {
  if (name == "none") return core::PrefetcherKind::kNone;
  if (name == "readahead") return core::PrefetcherKind::kReadahead;
  if (name == "leap") return core::PrefetcherKind::kLeap;
  if (name == "two-tier") return core::PrefetcherKind::kTwoTier;
  return std::nullopt;
}

std::optional<bool> GranularityFromName(const std::string& name) {
  if (name == "page") return false;
  if (name == "object") return true;
  return std::nullopt;
}

std::vector<AxisPoint> AxisSpec::Points() const {
  std::vector<AxisPoint> points;
  points.reserve(systems.size() * topologies.size() * tiers.size() *
                 granularities.size());
  for (const std::string& sys : systems) {
    auto preset = core::SystemConfig::FromName(sys);
    if (!preset)
      throw std::invalid_argument("unknown system preset: " + sys);
    overrides.Apply(*preset);
    for (const std::string& topo : topologies) {
      // Throws std::invalid_argument on an unknown topology name.
      remote::PoolConfig pool = remote::PoolConfig::FromName(topo);
      for (const std::string& tier_name : tiers) {
        // Throws std::invalid_argument on an unknown tier preset.
        tier::TierConfig tier_cfg = tier::TierConfig::FromName(tier_name);
        for (const std::string& gran : granularities) {
          auto objects_on = GranularityFromName(gran);
          if (!objects_on)
            throw std::invalid_argument("unknown granularity: " + gran);
          AxisPoint& p = points.emplace_back();
          p.config = *preset;
          p.config.remote = pool;
          p.config.tier = tier_cfg;
          p.config.objects.enabled = *objects_on;
          p.system = sys;
          if (topo != "single") p.placement += "/" + topo;
          if (tier_cfg.name != "none") p.placement += "/" + tier_name;
          if (gran != "page") p.granularity = "/" + gran;
        }
      }
    }
  }
  return points;
}

namespace {

std::string SeedSegment(std::uint64_t seed) {
  return "/seed" + std::to_string(seed);
}

}  // namespace

std::vector<RunSpec> ScenarioSpec::Expand() const {
  std::vector<RunSpec> runs;
  runs.reserve(RunCount());
  for (const AxisPoint& p : Points()) {
    for (double ratio : ratios) {
      for (double scale : scales) {
        for (std::uint64_t seed : seeds) {
          char buf[64];
          std::snprintf(buf, sizeof(buf), "/r%.2f/s%.2f", ratio, scale);
          RunSpec& r = runs.emplace_back();
          r.index = runs.size() - 1;
          r.label = p.system + buf + SeedSegment(seed) + p.placement +
                    p.granularity;
          r.exp.config = p.config;
          r.exp.deadline = deadline;
          r.exp.apps = apps;
          for (core::AppBuild& b : r.exp.apps) {
            b.ratio = ratio;
            b.scale = scale;
            b.seed = seed;
          }
        }
      }
    }
  }
  return runs;
}

std::vector<serving::ServingSpec> ServingScenarioSpec::Expand() const {
  std::vector<workload::ArrivalKind> kinds;
  for (const std::string& arr : arrivals) {
    auto kind = workload::ArrivalKindFromName(arr);
    if (!kind) throw std::invalid_argument("unknown arrival process: " + arr);
    kinds.push_back(*kind);
  }
  // The arrival axis retargets the load tenants (all tenants when none is
  // marked); the template's rates/windows are kept.
  bool any_marked = false;
  for (const serving::TenantSpec& t : tenants)
    any_marked = any_marked || t.load_tenant;

  std::vector<serving::ServingSpec> runs;
  runs.reserve(RunCount());
  for (const AxisPoint& p : Points()) {
    for (std::size_t a = 0; a < arrivals.size(); ++a) {
      for (std::uint64_t seed : seeds) {
        serving::ServingSpec& s = runs.emplace_back();
        s.index = runs.size() - 1;
        s.label = p.system + p.placement + p.granularity + "/" +
                  arrivals[a] + SeedSegment(seed);
        s.config = p.config;
        s.tenants = tenants;
        for (serving::TenantSpec& t : s.tenants)
          if (!any_marked || t.load_tenant) t.arrival.kind = kinds[a];
        s.qos = qos;
        s.qos_enabled = qos_enabled;
        s.seed = seed;
        s.deadline = deadline;
      }
    }
  }
  return runs;
}

std::vector<ChurnRunSpec> ChurnScenarioSpec::Expand() const {
  std::vector<remote::HarvestConfig> schedules;
  // Throws std::invalid_argument on an unknown harvest schedule.
  for (const std::string& hv : harvests)
    schedules.push_back(remote::HarvestConfig::FromName(hv));

  std::vector<ChurnRunSpec> runs;
  runs.reserve(RunCount());
  for (const AxisPoint& p : Points()) {
    for (std::size_t h = 0; h < harvests.size(); ++h) {
      for (std::uint64_t seed : seeds) {
        ChurnRunSpec& r = runs.emplace_back();
        r.index = runs.size() - 1;
        r.label = p.system + p.placement + "/" + harvests[h] +
                  SeedSegment(seed) + p.granularity;
        r.config = p.config;
        r.config.remote.harvest = schedules[h];
        r.churn = churn;
        // The seed axis re-samples the whole arrival timeline.
        r.churn.seed = seed;
        r.deadline = deadline;
      }
    }
  }
  return runs;
}

}  // namespace canvas::orchestrator
