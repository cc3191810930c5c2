// Swap partition: a region of remote memory exposed through the swap
// interface, owning its entry allocator and per-entry metadata.
//
// In Linux all applications share one partition; Canvas creates one per
// cgroup plus a global partition for shared pages (§4). The per-entry
// metadata carries the timestamp/valid fields the horizontal RDMA scheduler
// uses to detect and drop stale prefetches (§5.3).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "swapalloc/allocator.h"
#include "swapalloc/cluster.h"
#include "swapalloc/freelist.h"

namespace canvas::swapalloc {

enum class AllocatorKind {
  kFreelist,      // Linux <= 5.5 single-lock free list
  kCluster,       // Linux 5.8 per-core clusters
  kClusterBatch,  // Linux 5.14 clusters + batch allocation
};

inline const char* AllocatorKindName(AllocatorKind k) {
  switch (k) {
    case AllocatorKind::kFreelist: return "freelist";
    case AllocatorKind::kCluster: return "cluster";
    case AllocatorKind::kClusterBatch: return "cluster+batch";
  }
  return "?";
}

/// Per-swap-entry metadata (§5.3). `prefetch_ts` is set when a prefetch for
/// this entry is enqueued; kTimeNever means no prefetch outstanding (a
/// faulting thread then blocks instead of reissuing). `valid` is cleared by
/// a rescuing thread so the stale prefetch discards itself on return.
///
/// Fields are ordered widest first so the struct packs into 16 bytes: one
/// per swap entry of every partition.
struct EntryMeta {
  SimTime prefetch_ts = kTimeNever;
  /// Content version of the data last written to this entry (the chaos
  /// suite's no-stale-read oracle; see mem::Page::content_version).
  std::uint32_t content_version = 0;
  bool valid = true;
  /// Where the entry's copy of record lives (mirrors mem::Page::home); a
  /// swap-in must be served by that backend.
  SwapBackend home = SwapBackend::kRemote;
};
static_assert(sizeof(EntryMeta) == 16);

class SwapPartition {
 public:
  SwapPartition(sim::Simulator& sim, std::string name, std::uint64_t capacity,
                AllocatorKind kind);

  const std::string& name() const { return name_; }
  std::uint64_t capacity() const { return capacity_; }
  SwapEntryAllocator& allocator() { return *allocator_; }
  const SwapEntryAllocator& allocator() const { return *allocator_; }

  EntryMeta& meta(SwapEntryId e) { return meta_.at(e); }
  const EntryMeta& meta(SwapEntryId e) const { return meta_.at(e); }

  /// Remote-pool partition id assigned at registration (DESIGN.md §11);
  /// kNoPoolId until the swap system registers it with its pool.
  static constexpr std::uint32_t kNoPoolId = 0xFFFF'FFFFu;
  std::uint32_t pool_id() const { return pool_id_; }
  void set_pool_id(std::uint32_t id) { pool_id_ = id; }

 private:
  std::string name_;
  std::uint64_t capacity_;
  std::unique_ptr<SwapEntryAllocator> allocator_;
  std::vector<EntryMeta> meta_;
  std::uint32_t pool_id_ = kNoPoolId;
};

}  // namespace canvas::swapalloc
