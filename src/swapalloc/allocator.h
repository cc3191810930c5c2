// Swap-entry allocator interface.
//
// Every swap-out must obtain a swap entry; the strategies below reproduce
// the designs the paper measures against each other:
//   - FreelistAllocator: single-lock free-list scan (Linux <= 5.5 default,
//     Infiniswap-era kernels).
//   - ClusterAllocator: per-core cluster allocation (Intel patch [48],
//     merged in 5.8) with core-collision behaviour at high core counts.
//   - BatchAllocator: batched refill under one lock (Intel patch [46]);
//     combined with clusters this is the "Linux 5.14" configuration of
//     Appendix B.
// The Canvas adaptive reservation scheme (§5.1) is not an allocator: it is a
// bypass layer (ReservationManager) that eliminates most allocator calls.
//
// Allocation is asynchronous in simulated time because it may queue on a
// SimMutex; completion delivers the entry plus the wait/hold breakdown that
// feeds the "time spent on swap entry allocation" metrics (Fig. 15).
#pragma once

#include <cstdint>
#include <memory>

#include "common/types.h"
#include "sim/inline_callback.h"
#include "sim/simulator.h"

namespace canvas::swapalloc {

struct AllocResult {
  SwapEntryId entry = kInvalidEntry;  // kInvalidEntry => partition full
  SimDuration wait = 0;               // time queued on allocation locks
  SimDuration hold = 0;               // time inside critical sections
};

class SwapEntryAllocator {
 public:
  /// Move-only and inline: implementations park it in a sim::SlotPool
  /// while the request queues on their locks, so no hop allocates.
  using Done = sim::InlineFunction<void(AllocResult)>;

  virtual ~SwapEntryAllocator() = default;

  /// Allocate one entry on behalf of `core`; `done` fires when the
  /// allocation path (including lock queueing) completes.
  virtual void Allocate(CoreId core, Done done) = 0;

  /// Return an entry to the free pool (synchronous; freeing is cheap and
  /// not a contention point in the paper).
  virtual void Free(SwapEntryId entry) = 0;

  virtual std::uint64_t capacity() const = 0;
  virtual std::uint64_t used() const = 0;
  double Utilization() const {
    return capacity() ? double(used()) / double(capacity()) : 0.0;
  }

  // --- shared statistics ---
  std::uint64_t allocations() const { return allocations_; }
  SimDuration total_alloc_time() const { return total_alloc_time_; }
  /// Mean wait + hold per allocation in ns (0 before the first). Equal bit
  /// for bit to an insertion-order double sum of the samples over their
  /// count while the total stays below 2^53 ns: that sum of integers is
  /// then exact.
  double mean_alloc_time() const {
    return allocations_
               ? double(total_alloc_time_) / double(allocations_)
               : 0.0;
  }

 protected:
  void RecordAlloc(const AllocResult& r) {
    ++allocations_;
    total_alloc_time_ += r.wait + r.hold;
  }

 private:
  std::uint64_t allocations_ = 0;
  SimDuration total_alloc_time_ = 0;
};

}  // namespace canvas::swapalloc
