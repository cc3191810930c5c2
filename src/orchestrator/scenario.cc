#include "orchestrator/scenario.h"

#include <cstdio>
#include <stdexcept>

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

std::string RunLabel(const std::string& system, const std::string& topology,
                     double ratio, double scale, std::uint64_t seed,
                     const std::string& tier,
                     const std::string& granularity) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s/r%.2f/s%.2f/seed%llu",
                system.c_str(), ratio, scale, (unsigned long long)seed);
  std::string label = buf;
  // The default topology, tier, and granularity stay invisible so older
  // sweep reports keep their per-run keys byte-for-byte.
  if (topology != "single") label += "/" + topology;
  if (tier != "none" && !tier.empty()) label += "/" + tier;
  if (granularity != "page" && !granularity.empty())
    label += "/" + granularity;
  return label;
}

std::string ServingRunLabel(const std::string& system,
                            const std::string& topology,
                            const std::string& arrival, std::uint64_t seed,
                            const std::string& tier,
                            const std::string& granularity) {
  std::string label = system;
  if (topology != "single") label += "/" + topology;
  if (tier != "none" && !tier.empty()) label += "/" + tier;
  if (granularity != "page" && !granularity.empty())
    label += "/" + granularity;
  label += "/" + arrival;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/seed%llu", (unsigned long long)seed);
  return label + buf;
}

std::vector<serving::ServingSpec> ServingScenarioSpec::Expand() const {
  std::vector<serving::ServingSpec> runs;
  runs.reserve(RunCount());
  for (const std::string& sys : systems) {
    auto preset = core::SystemConfig::FromName(sys);
    if (!preset)
      throw std::invalid_argument("unknown system preset: " + sys);
    overrides.Apply(*preset);
    for (const std::string& topo : topologies) {
      remote::PoolConfig pool = remote::PoolConfig::FromName(topo);
      for (const std::string& tier_name : tiers) {
        tier::TierConfig tier_cfg = tier::TierConfig::FromName(tier_name);
        for (const std::string& gran : granularities) {
          auto objects_on = GranularityFromName(gran);
          if (!objects_on)
            throw std::invalid_argument("unknown granularity: " + gran);
          for (const std::string& arr : arrivals) {
            auto kind = workload::ArrivalKindFromName(arr);
            if (!kind)
              throw std::invalid_argument("unknown arrival process: " + arr);
            for (std::uint64_t seed : seeds) {
              serving::ServingSpec s;
              s.index = runs.size();
              s.label =
                  ServingRunLabel(sys, topo, arr, seed, tier_name, gran);
              s.config = *preset;
              s.config.remote = pool;
              s.config.tier = tier_cfg;
              s.config.objects.enabled = *objects_on;
              s.tenants = tenants;
              // The arrival axis retargets the load tenants (all tenants
              // when none is marked); the template's rates/windows are
              // kept.
              bool any_marked = false;
              for (const serving::TenantSpec& t : tenants)
                any_marked = any_marked || t.load_tenant;
              for (serving::TenantSpec& t : s.tenants)
                if (!any_marked || t.load_tenant) t.arrival.kind = *kind;
              s.qos = qos;
              s.qos_enabled = qos_enabled;
              s.seed = seed;
              s.deadline = deadline;
              runs.push_back(std::move(s));
            }
          }
        }
      }
    }
  }
  return runs;
}

std::vector<RunSpec> ScenarioSpec::Expand() const {
  std::vector<RunSpec> runs;
  runs.reserve(RunCount());
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
          for (double ratio : ratios) {
            for (double scale : scales) {
              for (std::uint64_t seed : seeds) {
                RunSpec r;
                r.index = runs.size();
                r.label =
                    RunLabel(sys, topo, ratio, scale, seed, tier_name, gran);
                r.exp.config = *preset;
                r.exp.config.remote = pool;
                r.exp.config.tier = tier_cfg;
                r.exp.config.objects.enabled = *objects_on;
                r.exp.deadline = deadline;
                r.exp.apps = apps;
                for (core::AppBuild& b : r.exp.apps) {
                  b.ratio = ratio;
                  b.scale = scale;
                  b.seed = seed;
                }
                runs.push_back(std::move(r));
              }
            }
          }
        }
      }
    }
  }
  return runs;
}

}  // namespace canvas::orchestrator
