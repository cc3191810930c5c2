#include "core/experiment.h"

#include "workload/apps.h"

namespace canvas::core {

std::uint32_t PaperCores(const std::string& name) {
  if (name == "xgboost") return 16;
  if (name == "memcached") return 4;
  if (name == "snappy") return 1;
  if (name == "chase") return 4;
  return 24;
}

std::vector<AppSpec> BuildApps(const std::vector<AppBuild>& builds) {
  std::vector<AppSpec> apps;
  apps.reserve(builds.size());
  for (const AppBuild& b : builds) {
    workload::AppParams p;
    p.scale = b.scale;
    p.threads = b.threads;
    p.seed = b.seed ? b.seed : 7;
    auto w = workload::MakeByName(b.name, p);
    auto cg = workload::CgroupFor(w, b.ratio,
                                  b.cores ? b.cores : PaperCores(b.name),
                                  b.rdma_weight);
    apps.push_back(AppSpec{std::move(w), std::move(cg)});
  }
  return apps;
}

Experiment::Experiment(SystemConfig cfg, std::vector<AppSpec> apps,
                       SimTime deadline)
    : deadline_(deadline),
      system_(std::make_unique<SwapSystem>(sim_, std::move(cfg),
                                           std::move(apps))) {}

Experiment::Experiment(const ExperimentSpec& spec)
    : Experiment(spec.config, BuildApps(spec.apps), spec.deadline) {}

bool Experiment::Run() {
  system_->Start();
  // Advance in slices so the run can stop as soon as it is no longer
  // active (periodic maintenance events would otherwise keep the queue
  // non-empty until the deadline).
  constexpr SimTime kSlice = 20 * kMillisecond;
  while (sim_.Now() < deadline_) {
    SimTime next = std::min(deadline_, sim_.Now() + kSlice);
    bool drained = sim_.RunUntil(next);
    if (!system_->RunActive() || drained) break;
  }
  return !system_->RunActive();
}

}  // namespace canvas::core
