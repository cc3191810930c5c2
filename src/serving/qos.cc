#include "serving/qos.h"

#include <algorithm>

#include "core/swap_system.h"
#include "sched/two_dim.h"
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
  base_weight_.resize(tenants_.size(), 1.0);
  sched::TwoDimScheduler* wfq = sys.two_dim_scheduler();
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    base_weight_[i] = sys.cgroup(tenants_[i].app).spec().rdma_weight;
    stats_[i].current_weight =
        wfq ? wfq->Weight(sys.cgroup_of(tenants_[i].app)) : 0.0;
  }
  sim.Schedule(cfg_.control_period, [this] { Tick(); });
}

void QosPlane::Tick() {
  ++ticks_;
  // The supply curve rescales every tenant's SLO bounds for this window
  // (1.0 with the default empty curve, leaving the verdicts untouched).
  double scale = cfg_.supply.ScaleAt(sim_->Now());
  last_scale_ = scale;
  if (scale != 1.0) ++scaled_ticks_;
  // Judge every tenant's window (best-effort included, for reporting), then
  // act on protected violations. Judging first keeps each tracker's window
  // aligned to the tick even when several tenants violate at once.
  std::vector<bool> violated(tenants_.size(), false);
  for (std::size_t i = 0; i < tenants_.size(); ++i)
    violated[i] = trackers_[i].Observe(
        sys_->metrics(tenants_[i].app).fault_latency, scale);
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    if (tenants_[i].best_effort || !cfg_.escalate) continue;
    if (violated[i]) {
      Escalate(i);
    } else if (trackers_[i].clean_run() >= cfg_.heal_windows) {
      Heal(i);
    }
  }
  if (!sys_->AllFinished())
    sim_->Schedule(cfg_.control_period, [this] { Tick(); });
}

void QosPlane::Escalate(std::size_t victim) {
  const QosTenant& t = tenants_[victim];
  SimTime now = sim_->Now();
  // 1. WFQ weight boost for the victim.
  if (sched::TwoDimScheduler* wfq = sys_->two_dim_scheduler()) {
    CgroupId cg = sys_->cgroup_of(t.app);
    double cap = base_weight_[victim] * cfg_.boost_cap;
    double w = std::min(cap, wfq->Weight(cg) * cfg_.boost_factor);
    if (w > wfq->Weight(cg)) {
      wfq->SetWeight(cg, w);
      ++stats_[victim].weight_boosts;
    }
    stats_[victim].current_weight = wfq->Weight(cg);
  }
  // 2 + 3. Push load off the best-effort tenants.
  for (std::size_t j = 0; j < tenants_.size(); ++j) {
    if (!tenants_[j].best_effort || !tenants_[j].control) continue;
    workload::LoadControl& ctl = *tenants_[j].control;
    if (ctl.shed_fraction < cfg_.shed_max) {
      ctl.shed_fraction =
          std::min(cfg_.shed_max, ctl.shed_fraction + cfg_.shed_step);
      ++stats_[j].shed_steps;
    }
    if (ctl.admit_time > now) {
      ctl.admit_time += cfg_.admission_defer;
      ++stats_[j].deferrals;
    }
  }
  // 4. Spread the victim's slabs off its hottest server.
  stats_[victim].slabs_migrated += sys_->mutable_pool()->RebalanceTenant(
        sys_->partition(t.app).pool_id(), cfg_.migrate_slabs);
}

void QosPlane::Heal(std::size_t tenant) {
  // One unwind step per clean tick: weight decays toward base, and the
  // shed/defer pressure this tenant caused releases one step.
  if (sched::TwoDimScheduler* wfq = sys_->two_dim_scheduler()) {
    CgroupId cg = sys_->cgroup_of(tenants_[tenant].app);
    double w = std::max(base_weight_[tenant],
                        wfq->Weight(cg) / cfg_.boost_factor);
    wfq->SetWeight(cg, w);
    stats_[tenant].current_weight = wfq->Weight(cg);
  }
  for (std::size_t j = 0; j < tenants_.size(); ++j) {
    if (!tenants_[j].best_effort || !tenants_[j].control) continue;
    workload::LoadControl& ctl = *tenants_[j].control;
    ctl.shed_fraction = std::max(0.0, ctl.shed_fraction - cfg_.shed_step);
  }
}

}  // namespace canvas::serving
