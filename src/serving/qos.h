// QoS / admission plane for online serving (DESIGN.md §13).
//
// A periodic controller on the DES clock. Every control period it takes the
// windowed view of each tenant's fault-latency histogram (SloTracker /
// LogHistogram::Since) and, when a protected tenant's window violates its
// SLO, escalates through four levers in order of increasing cost:
//
//   1. weight boost  — multiply the tenant's WFQ weight (TwoDimScheduler::
//                      SetWeight), up to a cap, so its demand reads win NIC
//                      arbitration;
//   2. shedding      — raise best-effort tenants' LoadControl shed fraction,
//                      dropping a slice of their offered load at arrival;
//   3. deferral      — push the admission gate of best-effort tenants that
//                      are still waiting to be admitted;
//   4. migration     — ServerPool::RebalanceTenant spreads the victim's
//                      slabs off its hottest server (per-server queueing is
//                      the congestion the NIC-level WFQ cannot see).
//
// After `heal_windows` consecutive clean windows the escalation unwinds one
// step per tick (weights decay toward base, shed fractions release).
//
// Determinism: the controller is an ordinary event on the run's DES clock
// and RebalanceTenant draws no placement RNG, so serving runs replay
// byte-identically.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "serving/slo.h"
#include "serving/supply_curve.h"
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
  bool enable_weight_boost = true;
  bool enable_shedding = true;
  bool enable_deferral = true;
  bool enable_migration = true;
  /// Shed fraction added to best-effort tenants per violated window (and
  /// released per heal step), capped at `shed_max`.
  double shed_step = 0.25;
  double shed_max = 0.9;
  /// Weight multiplier per violated window; total boost capped at
  /// `boost_cap` times the base weight.
  double boost_factor = 2.0;
  double boost_cap = 8.0;
  /// Slabs migrated off the victim tenant's hottest server per violation.
  std::uint64_t migrate_slabs = 4;
  /// Clean judged windows before escalation starts unwinding.
  std::uint64_t heal_windows = 4;
  /// How far a violation pushes a still-waiting tenant's admission gate.
  SimDuration admission_defer = 100 * kMillisecond;
  /// Optional per-window latency/supply curve (Memtrade cmanager_latency
  /// style): each tick the current scale multiplies every tenant's SLO
  /// bounds before the window is judged, so escalation thresholds track
  /// the supply. The default empty curve scales by exactly 1.0 and keeps
  /// the plane's behaviour byte-identical to a curve-free build.
  SupplyCurve supply;
};

/// One application under QoS management.
struct QosTenant {
  std::size_t app = 0;  ///< index in the SwapSystem
  /// The tenant's open-loop valve; null for closed-loop tenants (they can
  /// be protected but not shed/deferred).
  std::shared_ptr<workload::LoadControl> control;
  SloConfig slo;
  /// Best-effort tenants are never judged for protection; they are the
  /// shed/defer victims when a protected tenant violates.
  bool best_effort = false;
};

class QosPlane {
 public:
  /// Per-tenant action counters (for reports and tests).
  struct TenantStats {
    std::uint64_t weight_boosts = 0;
    std::uint64_t shed_steps = 0;
    std::uint64_t deferrals = 0;
    std::uint64_t slabs_migrated = 0;
    double current_weight = 0;  ///< live WFQ weight (0 = no WFQ scheduler)
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
  std::size_t tenant_count() const { return tenants_.size(); }
  std::uint64_t ticks() const { return ticks_; }
  /// Supply-curve scale applied at the most recent tick (1.0 before the
  /// first tick or with an empty curve).
  double last_scale() const { return last_scale_; }
  /// Ticks whose windows were judged under a non-1.0 supply scale.
  std::uint64_t scaled_ticks() const { return scaled_ticks_; }

 private:
  void Tick();
  void Escalate(std::size_t victim);
  void Heal(std::size_t tenant);

  QosConfig cfg_;
  sim::Simulator* sim_ = nullptr;
  core::SwapSystem* sys_ = nullptr;
  std::vector<QosTenant> tenants_;
  std::vector<SloTracker> trackers_;
  std::vector<TenantStats> stats_;
  std::vector<double> base_weight_;
  std::uint64_t ticks_ = 0;
  double last_scale_ = 1.0;
  std::uint64_t scaled_ticks_ = 0;
};

}  // namespace canvas::serving
