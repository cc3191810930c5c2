#include "serving/qos.h"

#include "core/swap_system.h"
#include "sim/simulator.h"

namespace canvas::serving {

void QosPlane::AddTenant(QosTenant t) {
  trackers_.emplace_back(t.slo);
  stats_.emplace_back();
  tenants_.push_back(std::move(t));
}

void QosPlane::Attach(sim::Simulator& sim, core::SwapSystem& sys) {
  sim_ = &sim;
  sys_ = &sys;
  sim.Schedule(cfg_.control_period, [this] { Tick(); });
}

void QosPlane::Tick() {
  ++ticks_;
  for (std::size_t i = 0; i < tenants_.size(); ++i)
    trackers_[i].Observe(sys_->metrics(tenants_[i].app).fault_latency);
  if (!sys_->AllFinished())
    sim_->Schedule(cfg_.control_period, [this] { Tick(); });
}

}  // namespace canvas::serving
