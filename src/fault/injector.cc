#include "fault/injector.h"

namespace canvas::fault {

FaultInjector::FaultInjector(sim::Simulator& sim, FaultPlan plan,
                             std::uint64_t seed)
    : sim_(sim), plan_(std::move(plan)), rng_(seed) {}

void FaultInjector::Start() {
  // Blackout edges fire control-plane callbacks. Scheduling only happens
  // for windows the plan actually contains, so an empty plan adds zero
  // events to the simulation.
  for (const Blackout& b : plan_.blackouts()) {
    sim_.ScheduleAt(b.window.start, [this, server = b.server] {
      for (auto& cb : down_cbs_) cb(server);
    });
    sim_.ScheduleAt(b.window.end, [this, server = b.server] {
      for (auto& cb : up_cbs_) cb(server);
    });
  }
}

bool FaultInjector::FabricDown(SimTime now) const {
  for (const Blackout& b : plan_.blackouts())
    if (b.server == kAllServers && b.window.Covers(now)) return true;
  return false;
}

bool FaultInjector::BlackoutOverlaps(SimTime a, SimTime b, int server) {
  for (const Blackout& bo : plan_.blackouts()) {
    if (ServerMatches(bo.server, server) && bo.window.Overlaps(a, b)) {
      ++stats_.blackout_kills;
      return true;
    }
  }
  return false;
}

SimDuration FaultInjector::ExtraLatency(int dir, SimTime now,
                                        int server) const {
  SimDuration extra = 0;
  for (const LatencySpike& s : plan_.latency_spikes())
    if ((s.dir == kBothDirections || s.dir == dir) &&
        ServerMatches(s.server, server) && s.window.Covers(now))
      extra += s.extra;
  return extra;
}

double FaultInjector::BandwidthFactor(int dir, SimTime now) const {
  double factor = 1.0;
  for (const BandwidthDegrade& d : plan_.bandwidth_degrades())
    if ((d.dir == kBothDirections || d.dir == dir) && d.window.Covers(now))
      factor *= d.factor;
  return factor;
}

SimTime FaultInjector::StalledUntil(int dir, SimTime now) {
  SimTime until = 0;
  for (const QpStall& s : plan_.qp_stalls())
    if (s.server == kAllServers &&
        (s.dir == kBothDirections || s.dir == dir) && s.window.Covers(now))
      until = std::max(until, s.window.end);
  if (until) ++stats_.stalled_pumps;
  return until;
}

SimDuration FaultInjector::TargetedStallExtra(int server, int dir,
                                              SimTime now) const {
  SimTime until = 0;
  for (const QpStall& s : plan_.qp_stalls())
    if (s.server != kAllServers && ServerMatches(s.server, server) &&
        (s.dir == kBothDirections || s.dir == dir) && s.window.Covers(now))
      until = std::max(until, s.window.end);
  return until > now ? until - now : 0;
}

bool FaultInjector::DrawCompletionError(int op, SimTime now) {
  // Combine overlapping windows as independent failure sources; the RNG is
  // consumed once per covering window so the draw sequence depends only on
  // the (deterministic) dispatch sequence.
  bool failed = false;
  for (const ErrorBurst& e : plan_.error_bursts()) {
    if ((e.op != kAllOps && e.op != op) || !e.window.Covers(now)) continue;
    if (rng_.NextBool(e.probability)) failed = true;
  }
  if (failed) ++stats_.cqe_errors_drawn;
  return failed;
}

}  // namespace canvas::fault
