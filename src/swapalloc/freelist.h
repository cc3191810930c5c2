// Single-lock free-list allocator (Linux <= 5.5 / Infiniswap era).
//
// All allocations serialize on one mutex; the critical-section length grows
// with partition utilization because the free-list scan must skip more
// allocated entries to find a free one. Combined with SimMutex's contention
// penalty this produces the throughput collapse of the paper's Figure 4(b).
#pragma once

#include <vector>

#include "sim/sim_mutex.h"
#include "sim/slot_pool.h"
#include "swapalloc/allocator.h"

namespace canvas::swapalloc {

class FreelistAllocator : public SwapEntryAllocator {
 public:
  struct Config {
    /// Cap on the modeled critical section.
    SimDuration max_hold = 25 * kMicrosecond;
  };

  FreelistAllocator(sim::Simulator& sim, std::uint64_t capacity, Config cfg);

  void Allocate(CoreId core, Done done) override;
  void Free(SwapEntryId entry) override;

  std::uint64_t capacity() const override { return capacity_; }
  std::uint64_t used() const override { return used_; }

  const sim::SimMutex& mutex() const { return mutex_; }

  /// Modeled critical-section length at the current utilization.
  SimDuration CurrentHold() const;

 private:
  sim::Simulator& sim_;
  std::uint64_t capacity_;
  Config cfg_;
  sim::SimMutex mutex_;
  std::uint64_t used_ = 0;
  std::vector<SwapEntryId> free_;  // stack of free entries
  sim::SlotPool<Done> pending_;    // callers queued on mutex_
};

}  // namespace canvas::swapalloc
