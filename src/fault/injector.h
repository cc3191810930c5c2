// FaultInjector: evaluates a FaultPlan against the DES clock and answers
// the transport-level questions the NIC asks at dispatch time.
//
// All randomness (CQE error draws, retry-backoff jitter) comes from one
// SplitMix64 generator seeded from the experiment config, and every draw
// happens inside a deterministic event, so an identical (plan, seed) pair
// replays bit-identically. With an empty plan every query collapses to a
// constant — the hooks cost one branch on the healthy fast path.
//
// Blackout windows also drive the control plane: at each window edge the
// injector fires the server-down / server-up callbacks the swap system uses
// for proactive failover and failback.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "fault/fault_plan.h"
#include "sim/simulator.h"

namespace canvas::fault {

class FaultInjector {
 public:
  struct Stats {
    std::uint64_t cqe_errors_drawn = 0;  ///< error draws that came up failed
    std::uint64_t blackout_kills = 0;    ///< attempts overlapping a blackout
    std::uint64_t stalled_pumps = 0;     ///< lane pumps deferred by a stall
  };

  FaultInjector(sim::Simulator& sim, FaultPlan plan, std::uint64_t seed);

  /// Schedule the blackout edge callbacks. Call once before Simulator::Run.
  void Start();

  /// True if the plan contains any fault at all.
  bool active() const { return !plan_.empty(); }

  const FaultPlan& plan() const { return plan_; }
  const Stats& stats() const { return stats_; }

  // --- transport queries (hot path, called by the NIC at dispatch) ---
  //
  // `server` narrows a query to windows that target that memory server
  // (plus all untargeted windows). The default kAllServers preserves the
  // pre-pool behavior: every window applies.

  /// True while an untargeted (fabric-wide) blackout window covers `now`.
  /// A server-targeted blackout downs only its server, whose slabs move
  /// to disk.
  bool FabricDown(SimTime now) const;
  /// True if any blackout window intersects the attempt span [a, b]: the
  /// request's completion would never arrive, so it dies by timeout.
  bool BlackoutOverlaps(SimTime a, SimTime b, int server = kAllServers);
  /// Additional one-way latency for a transfer dispatched at `now`.
  SimDuration ExtraLatency(int dir, SimTime now,
                           int server = kAllServers) const;
  /// Link-rate multiplier at `now` (1.0 = healthy; compounding windows
  /// multiply).
  double BandwidthFactor(int dir, SimTime now) const;
  /// End of an untargeted QP stall window covering `now`, or 0 if the
  /// lane may dispatch. Server-targeted stalls do not freeze the shared
  /// lane — they surface per-request via TargetedStallExtra instead.
  SimTime StalledUntil(int dir, SimTime now);
  /// Extra service delay a request bound for `server` pays at `now` from
  /// stall windows targeting that server (the remote QP is wedged until
  /// the window closes, but the local lane keeps dispatching to others).
  SimDuration TargetedStallExtra(int server, int dir, SimTime now) const;
  /// Draw a CQE completion error for op `op` at `now` (consumes RNG state
  /// only when an error window covers `now`).
  bool DrawCompletionError(int op, SimTime now);

  /// Uniform [0,1) draw for the NIC's retry-backoff jitter. Lives here so
  /// the whole fault path shares one seeded, replay-deterministic stream.
  double JitterDraw() { return rng_.NextDouble(); }

  // --- control-plane subscriptions (blackout edges) ---
  // The callback argument is the blackout's server target (kAllServers for
  // untargeted windows — the whole-fabric blackout of pre-pool plans).
  void OnServerDown(std::function<void(int)> cb) {
    down_cbs_.push_back(std::move(cb));
  }
  void OnServerUp(std::function<void(int)> cb) {
    up_cbs_.push_back(std::move(cb));
  }

 private:
  sim::Simulator& sim_;
  FaultPlan plan_;
  Rng rng_;
  Stats stats_;
  std::vector<std::function<void(int)>> down_cbs_;
  std::vector<std::function<void(int)>> up_cbs_;
};

}  // namespace canvas::fault
