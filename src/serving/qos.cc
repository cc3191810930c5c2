#include "serving/qos.h"

#include <algorithm>

#include "core/swap_system.h"
#include "sched/two_dim.h"
#include "sim/simulator.h"

namespace canvas::serving {

namespace {
/// Shed fraction added to best-effort tenants per violated window (and
/// released per heal step), capped at kShedMax.
constexpr double kShedStep = 0.25;
constexpr double kShedMax = 0.9;
/// Weight multiplier per violated window; total boost capped at kBoostCap
/// times the base weight.
constexpr double kBoostFactor = 2.0;
constexpr double kBoostCap = 8.0;
/// Slabs migrated off the victim tenant's hottest server per violation.
constexpr std::uint64_t kMigrateSlabs = 4;
/// Clean judged windows before escalation starts unwinding.
constexpr std::uint64_t kHealWindows = 4;
/// How far a violation pushes a still-waiting tenant's admission gate.
constexpr SimDuration kAdmissionDefer = 100 * kMillisecond;
}  // namespace

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
    } else if (trackers_[i].clean_run() >= kHealWindows) {
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
    double cap = base_weight_[victim] * kBoostCap;
    double w = std::min(cap, wfq->Weight(cg) * kBoostFactor);
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
    if (ctl.shed_fraction < kShedMax) {
      ctl.shed_fraction =
          std::min(kShedMax, ctl.shed_fraction + kShedStep);
      ++stats_[j].shed_steps;
    }
    if (ctl.admit_time > now) {
      ctl.admit_time += kAdmissionDefer;
      ++stats_[j].deferrals;
    }
  }
  // 4. Spread the victim's slabs off its hottest server.
  stats_[victim].slabs_migrated += sys_->mutable_pool()->RebalanceTenant(
        sys_->partition(t.app).pool_id(), kMigrateSlabs);
}

void QosPlane::Heal(std::size_t tenant) {
  // One unwind step per clean tick: weight decays toward base, and the
  // shed/defer pressure this tenant caused releases one step.
  if (sched::TwoDimScheduler* wfq = sys_->two_dim_scheduler()) {
    CgroupId cg = sys_->cgroup_of(tenants_[tenant].app);
    double w = std::max(base_weight_[tenant],
                        wfq->Weight(cg) / kBoostFactor);
    wfq->SetWeight(cg, w);
    stats_[tenant].current_weight = wfq->Weight(cg);
  }
  for (std::size_t j = 0; j < tenants_.size(); ++j) {
    if (!tenants_[j].best_effort || !tenants_[j].control) continue;
    workload::LoadControl& ctl = *tenants_[j].control;
    ctl.shed_fraction = std::max(0.0, ctl.shed_fraction - kShedStep);
  }
}

}  // namespace canvas::serving
