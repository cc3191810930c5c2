// QoS plane for online serving (DESIGN.md §13).
//
// A periodic SLO observer on the DES clock. Every control period it takes
// the windowed view of each tenant's fault-latency histogram (SloTracker /
// LogHistogram::Since) and judges it against the tenant's SLO. It takes no
// action: each application's swap path is isolated and its RDMA weight is
// fixed by its cgroup (§5.3), so the plane only reports how often each
// tenant's windows violated.
//
// Determinism: the tick is an ordinary event on the run's DES clock and
// reads nothing but histograms, so serving runs replay byte-identically.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "serving/slo.h"
#include "workload/arrival.h"

namespace canvas::core {
class SwapSystem;
}
namespace canvas::sim {
class Simulator;
}

namespace canvas::serving {

struct QosConfig {
  SimDuration control_period = 50 * kMillisecond;
};

/// One application under SLO observation.
struct QosTenant {
  std::size_t app = 0;  ///< index in the SwapSystem
  SloConfig slo;
  // Unread; kept only for perfbench/, which sets them (ROADMAP item 9).
  std::shared_ptr<workload::LoadControl> control;
  bool best_effort = false;
};

class QosPlane {
 public:
  /// Always zero; kept only for perfbench/, which reads them (ROADMAP
  /// item 9).
  struct TenantStats {
    std::uint64_t weight_boosts = 0;
    std::uint64_t shed_steps = 0;
    std::uint64_t deferrals = 0;
    std::uint64_t slabs_migrated = 0;
  };

  explicit QosPlane(QosConfig cfg = {}) : cfg_(cfg) {}

  /// Register a tenant (before Attach).
  void AddTenant(QosTenant t);

  /// Bind to a running system and schedule the recurring control tick.
  /// Must be called before the simulator starts draining (the usual flow:
  /// construct Experiment, Attach, then Experiment::Run).
  void Attach(sim::Simulator& sim, core::SwapSystem& sys);

  const SloTracker& tracker(std::size_t tenant) const {
    return trackers_.at(tenant);
  }
  const TenantStats& stats(std::size_t tenant) const {
    return stats_.at(tenant);
  }
  std::uint64_t ticks() const { return ticks_; }

 private:
  void Tick();

  QosConfig cfg_;
  sim::Simulator* sim_ = nullptr;
  core::SwapSystem* sys_ = nullptr;
  std::vector<QosTenant> tenants_;
  std::vector<SloTracker> trackers_;
  std::vector<TenantStats> stats_;
  std::uint64_t ticks_ = 0;
};

}  // namespace canvas::serving
