#include "swapalloc/freelist.h"

#include <algorithm>
#include <cassert>

namespace canvas::swapalloc {

namespace {
/// Uncontended allocation critical section at an empty partition.
constexpr SimDuration kBaseHold = 1500;  // 1.5us
/// Scan-lengthening coefficient as the partition fills.
constexpr double kScanCoeff = 1.5;
/// SimMutex cacheline-bouncing factor.
constexpr double kContentionAlpha = 0.15;
}  // namespace

FreelistAllocator::FreelistAllocator(sim::Simulator& sim,
                                     std::uint64_t capacity, Config cfg)
    : sim_(sim), capacity_(capacity), cfg_(cfg),
      mutex_(sim, kContentionAlpha) {
  free_.reserve(capacity);
  // Populate in reverse so entry 0 is allocated first.
  for (std::uint64_t i = capacity; i-- > 0;) free_.push_back(i);
}

SimDuration FreelistAllocator::CurrentHold() const {
  double util = Utilization();
  // Free-slot search cost ~ 1/(1-util): with u fraction allocated, the scan
  // inspects ~1/(1-u) slots on average.
  double factor = 1.0 + kScanCoeff * (1.0 / std::max(0.02, 1.0 - util) - 1.0);
  auto hold = SimDuration(double(kBaseHold) * factor);
  return std::min(hold, cfg_.max_hold);
}

void FreelistAllocator::Allocate(CoreId /*core*/, Done done) {
  std::uint32_t slot = pending_.Put(std::move(done));
  mutex_.Execute(CurrentHold(), [this, slot](SimDuration wait,
                                             SimDuration hold) {
    AllocResult r;
    r.wait = wait;
    r.hold = hold;
    if (!free_.empty()) {
      r.entry = free_.back();
      free_.pop_back();
      ++used_;
      RecordAlloc(r);
    }
    pending_.Take(slot)(r);
  });
}

void FreelistAllocator::Free(SwapEntryId entry) {
  assert(used_ > 0);
  --used_;
  free_.push_back(entry);
}

}  // namespace canvas::swapalloc
