#include "swapalloc/partition.h"

namespace canvas::swapalloc {

SwapPartition::SwapPartition(sim::Simulator& sim, std::string name,
                             std::uint64_t capacity, AllocatorKind kind)
    : name_(std::move(name)), capacity_(capacity), meta_(capacity) {
  if (kind == AllocatorKind::kFreelist) {
    allocator_ = std::make_unique<FreelistAllocator>(
        sim, capacity, FreelistAllocator::Config{});
    return;
  }
  ClusterAllocator::Config c;
  // Linux 5.14 batch allocation: 16 entries per lock acquisition.
  if (kind == AllocatorKind::kClusterBatch) c.batch_size = 16;
  allocator_ = std::make_unique<ClusterAllocator>(sim, capacity, c);
}

}  // namespace canvas::swapalloc
