// FaultPlan: a deterministic, declarative description of fabric degradation
// over simulated time.
//
// A plan is a set of timed windows, each describing one class of fault the
// injector applies to the RDMA transport:
//
//   latency    — add a fixed one-way latency to every transfer in a window
//                (GC pause / congestion on the memory server)
//   bandwidth  — scale the link rate by a factor < 1 (incast, link flaps)
//   error      — complete requests with a simulated CQE error with some
//                probability (drawn from the injector's seeded RNG)
//   stall      — the queue pair stops dispatching entirely (QP error ->
//                recovery, firmware hiccup)
//   blackout   — the memory server is unreachable: no completion ever
//                arrives, requests die by timeout until the window ends
//
// Plans are plain data: they can be built programmatically (the builder
// methods below) or parsed from a small line-oriented config format (see
// Parse). Identical plan + identical seed ⇒ bit-identical simulation.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"

namespace canvas::fault {

/// Half-open window [start, end) in simulated nanoseconds.
struct TimeWindow {
  SimTime start = 0;
  SimTime end = 0;
  bool Covers(SimTime t) const { return t >= start && t < end; }
  /// True if [a, b] intersects the window.
  bool Overlaps(SimTime a, SimTime b) const { return a < end && b >= start; }
};

/// Direction filter: -1 = both lanes, otherwise int(rdma::Direction).
inline constexpr int kBothDirections = -1;
/// Op filter: -1 = every op, otherwise int(rdma::Op).
inline constexpr int kAllOps = -1;
/// Server filter: -1 = every memory server. Matches remote::kNoServer, so
/// a request no pool routed (a standalone NIC's) is hit by every window.
inline constexpr int kAllServers = -1;

/// True when a window targeting `target` applies to a request bound for
/// `server`. Untargeted windows hit everything; targeted windows hit only
/// their server (an un-pooled caller passes kAllServers and sees all).
inline bool ServerMatches(int target, int server) {
  return target == kAllServers || server == kAllServers || target == server;
}

struct LatencySpike {
  TimeWindow window;
  SimDuration extra = 0;
  int dir = kBothDirections;
  int server = kAllServers;
};

struct BandwidthDegrade {
  TimeWindow window;
  double factor = 1.0;  ///< multiplies the configured link rate (0 < f <= 1)
  int dir = kBothDirections;
};

struct ErrorBurst {
  TimeWindow window;
  double probability = 0.0;  ///< per-request CQE failure probability
  int op = kAllOps;
};

struct QpStall {
  TimeWindow window;
  int dir = kBothDirections;
  int server = kAllServers;
};

struct Blackout {
  TimeWindow window;
  int server = kAllServers;
};

/// Extra fixed latency on the hybrid local tier (DESIGN.md §14) — a busy
/// CXL switch or NVM media stall. Evaluated by tier::TierBackend as a pure
/// function of simulated time (no RNG), so tiered fault runs replay
/// bit-identically.
struct TierLatencySpike {
  TimeWindow window;
  SimDuration extra = 0;
};

/// The local tier stops admitting new residents for the window (device in
/// a management/wear-leveling pause). In-tier copies remain readable;
/// rejected admissions spill to the remote pool or disk.
struct TierFreeze {
  TimeWindow window;
};

class FaultPlan {
 public:
  FaultPlan() = default;

  // --- programmatic builders (times in ns; return *this for chaining) ---
  FaultPlan& AddLatencySpike(SimTime start, SimTime end, SimDuration extra,
                             int dir = kBothDirections,
                             int server = kAllServers);
  FaultPlan& AddBandwidthDegrade(SimTime start, SimTime end, double factor,
                                 int dir = kBothDirections);
  FaultPlan& AddErrorBurst(SimTime start, SimTime end, double probability,
                           int op = kAllOps);
  FaultPlan& AddQpStall(SimTime start, SimTime end, int dir = kBothDirections,
                        int server = kAllServers);
  FaultPlan& AddBlackout(SimTime start, SimTime end, int server = kAllServers);
  FaultPlan& AddTierLatencySpike(SimTime start, SimTime end,
                                 SimDuration extra);
  FaultPlan& AddTierFreeze(SimTime start, SimTime end);

  bool empty() const {
    return latency_.empty() && bandwidth_.empty() && errors_.empty() &&
           stalls_.empty() && blackouts_.empty() && tier_latency_.empty() &&
           tier_freezes_.empty();
  }

  const std::vector<LatencySpike>& latency_spikes() const { return latency_; }
  const std::vector<BandwidthDegrade>& bandwidth_degrades() const {
    return bandwidth_;
  }
  const std::vector<ErrorBurst>& error_bursts() const { return errors_; }
  const std::vector<QpStall>& qp_stalls() const { return stalls_; }
  const std::vector<Blackout>& blackouts() const { return blackouts_; }
  const std::vector<TierLatencySpike>& tier_latency_spikes() const {
    return tier_latency_;
  }
  const std::vector<TierFreeze>& tier_freezes() const { return tier_freezes_; }

  /// Parse the line-oriented config format. Times are microseconds, one
  /// fault per line, '#' starts a comment:
  ///
  ///   latency   <start_us> <end_us> <extra_us> [in|out|both] [server=N]
  ///   bandwidth <start_us> <end_us> <factor>   [in|out|both]
  ///   error     <start_us> <end_us> <prob>     [demand|prefetch|swapout|all]
  ///   stall     <start_us> <end_us>            [in|out|both] [server=N]
  ///   blackout  <start_us> <end_us>            [server=N]
  ///   tier-latency <start_us> <end_us> <extra_us>
  ///   tier-freeze  <start_us> <end_us>
  ///
  /// The optional trailing `server=N` (latency / stall / blackout) targets
  /// memory server N of the remote pool (N below the topology's server
  /// count, see CheckServerTargets); omitted means every server, so
  /// pre-pool plan files parse to identical plans.
  ///
  /// Every window must end after it starts, no time may be negative or
  /// exceed kMaxParsedNs, and nothing may follow a line's fields. Returns
  /// nullopt on malformed input and, when `err` is non-null, a message
  /// naming the offending line.
  static std::optional<FaultPlan> Parse(const std::string& text,
                                        std::string* err = nullptr);

  /// Throws std::invalid_argument, naming the window, if a latency, stall
  /// or blackout window targets a server at or past `servers`, the server
  /// count of `topology`.
  void CheckServerTargets(std::size_t servers,
                          const std::string& topology) const;

  /// Parse() over the contents of `path`.
  static std::optional<FaultPlan> LoadFile(const std::string& path,
                                           std::string* err = nullptr);

 private:
  std::vector<LatencySpike> latency_;
  std::vector<BandwidthDegrade> bandwidth_;
  std::vector<ErrorBurst> errors_;
  std::vector<QpStall> stalls_;
  std::vector<Blackout> blackouts_;
  std::vector<TierLatencySpike> tier_latency_;
  std::vector<TierFreeze> tier_freezes_;
};

}  // namespace canvas::fault
