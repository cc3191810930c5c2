// Per-core cluster allocator (Intel patch [48], Linux 5.8+).
//
// The partition is divided into 256-entry clusters. Each core owns a current
// cluster and allocates from it under that cluster's (fine-grained) lock;
// when the cluster is exhausted the core takes a short global lock to grab a
// new one. When no fully-free clusters remain, cores are assigned random
// partially-free clusters and begin *colliding* — several cores sharing one
// cluster lock. The paper (Appendix B, Fig. 16) shows this makes per-entry
// allocation cost grow super-linearly beyond ~24 cores; that behaviour
// emerges here from the shared SimMutexes.
#pragma once

#include <memory>
#include <vector>

#include "common/rng.h"
#include "sim/sim_mutex.h"
#include "sim/slot_pool.h"
#include "swapalloc/allocator.h"

namespace canvas::swapalloc {

class ClusterAllocator : public SwapEntryAllocator {
 public:
  struct Config {
    std::uint32_t cluster_size = 256;
    /// Entries grabbed per lock acquisition (Intel batch patch [46]).
    /// 1 disables batching; the "Linux 5.14" configuration uses 8-64.
    std::uint32_t batch_size = 1;
  };

  /// Cost of popping a pre-batched entry from the per-core cache.
  static constexpr SimDuration kCachePopCost = 60;

  ClusterAllocator(sim::Simulator& sim, std::uint64_t capacity, Config cfg);

  void Allocate(CoreId core, Done done) override;
  void Free(SwapEntryId entry) override;

  std::uint64_t capacity() const override { return capacity_; }
  std::uint64_t used() const override { return used_; }

  /// Number of clusters currently assigned to more than one core (the
  /// collision metric of Appendix B).
  std::uint64_t CollidingClusters() const;
  std::uint64_t fallback_allocations() const { return fallbacks_; }

 private:
  struct Cluster {
    std::vector<SwapEntryId> free;
    std::unique_ptr<sim::SimMutex> mutex;
    std::uint32_t owners = 0;  // cores currently assigned here
    bool in_free_list = false;
  };

  /// One allocation in progress. Every lock hop captures only its slot, so
  /// the continuation is never re-wrapped (and never heap-allocated).
  struct Pending {
    Done done;
    CoreId core = 0;
    /// Lock time spent on hops before a cluster switch. The caller sees it
    /// added to the result; RecordAlloc does not (it records only the
    /// cluster lock and the global-lock hop that led to it).
    SimDuration carry_wait = 0;
    SimDuration carry_hold = 0;
  };

  static constexpr std::uint32_t kNoCluster = 0xFFFFFFFFu;

  void AllocateFromCluster(std::uint32_t slot, std::uint32_t ci,
                           SimDuration prior_wait, SimDuration prior_hold);
  /// Retry on another cluster, carrying `wait`/`hold` spent so far.
  void SwitchCluster(std::uint32_t slot, SimDuration wait, SimDuration hold);
  /// Deliver `r` (plus carried time) to the caller and free the slot.
  void Finish(std::uint32_t slot, AllocResult r);
  std::uint32_t PickSharedCluster();
  void DetachCore(CoreId core);

  sim::Simulator& sim_;
  std::uint64_t capacity_;
  Config cfg_;
  Rng rng_;
  sim::SimMutex global_mutex_;
  std::vector<Cluster> clusters_;
  std::vector<std::uint32_t> free_clusters_;  // fully-free, unassigned
  std::vector<std::uint32_t> core_cluster_;   // per-core current cluster
  std::vector<std::vector<SwapEntryId>> core_cache_;  // batched entries
  sim::SlotPool<Pending> pending_;
  std::uint64_t used_ = 0;
  std::uint64_t fallbacks_ = 0;
};

}  // namespace canvas::swapalloc
