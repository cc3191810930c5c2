// Leap prefetcher (Maruf & Chowdhury, ATC '20), as characterized in the
// paper: majority-vote trend detection over a window of recent fault
// deltas, with an *aggressive* fallback — when no trend wins the vote, Leap
// still prefetches a run of contiguous pages. The aggressiveness helps
// array-heavy native code and hurts pointer-chasing managed code (useless
// pages waste RDMA bandwidth and evict useful swap-cache content), which is
// what Table 5 and the §6.4.2 "Leap slows managed apps by 1.4x" result show.
#pragma once

#include <deque>

#include "common/flat_map.h"
#include "common/rng.h"
#include "prefetch/prefetcher.h"

namespace canvas::prefetch {

class LeapPrefetcher : public Prefetcher {
 public:
  struct Config {
    ContextMode mode = ContextMode::kGlobal;
    std::uint32_t fallback_run = 8;  // contiguous pages when no majority
    /// Leap's no-pattern fallback reads pages at contiguous *swap offsets*.
    /// On a partition shared by co-running applications, swap-entry
    /// adjacency reflects interleaved swap-out order, not one app's page
    /// adjacency — so the fallback lands on effectively unrelated pages.
    /// Modeled as a deterministic jittered run near the faulting page.
    bool shared_partition_fallback = false;
  };

  explicit LeapPrefetcher(Config cfg) : cfg_(cfg) {}

  void OnFault(const FaultInfo& fault, std::vector<PageId>& out) override;
  void Forget(CgroupId app) override {
    if (cfg_.mode == ContextMode::kPerApp) states_.Erase(app);
  }
  const char* name() const override { return "leap"; }

  std::uint64_t trend_hits() const { return trend_hits_; }
  std::uint64_t fallbacks() const { return fallbacks_; }

 private:
  static constexpr std::uint32_t kHistory = 32;    // delta window H
  static constexpr std::uint32_t kMaxWindow = 16;  // prefetch window cap
  /// Seed of the shared-partition fallback's jitter stream.
  static constexpr std::uint64_t kJitterSeed = 0x1EAF;

  struct State {
    PageId last_page = kInvalidPage;
    std::deque<std::int64_t> deltas;
    std::uint32_t window = 1;
  };

  State& StateFor(CgroupId app);
  /// Boyer-Moore majority vote over the delta history; returns 0 when no
  /// delta holds a strict majority.
  static std::int64_t MajorityDelta(const std::deque<std::int64_t>& deltas);

  Config cfg_;
  FlatMap64<State> states_;  // keyed by cgroup (0 in global mode)
  Rng jitter_{kJitterSeed};
  std::uint64_t trend_hits_ = 0;
  std::uint64_t fallbacks_ = 0;
};

}  // namespace canvas::prefetch
