#include "swapalloc/cluster.h"

#include <algorithm>
#include <cassert>

namespace canvas::swapalloc {

namespace {
/// Critical section for an allocation within an owned cluster.
constexpr SimDuration kClusterHold = 400;  // 0.4us
/// Critical section for taking the global lock to switch clusters.
constexpr SimDuration kGlobalHold = 800;  // 0.8us
/// Extra scan time when falling back to a shared, fragmented cluster.
constexpr SimDuration kSharedScanHold = 2 * kMicrosecond;
/// Every allocation briefly takes the swap_info lock (si->lock /
/// swap_avail_lock) for counter updates even on the per-core cluster
/// fast path — the serializer that makes per-entry cost grow
/// super-linearly with core count in Figures 13(b)/16(b).
constexpr SimDuration kSiLockHold = 250;
/// Mild scan lengthening as the partition fills; the dominant cost is
/// contention, not utilization (clusters keep free-slot counters).
constexpr double kUtilScanCoeff = 0.1;
constexpr SimDuration kMaxHold = 60 * kMicrosecond;
constexpr double kContentionAlpha = 0.25;
constexpr std::uint64_t kRngSeed = 42;
/// Extra scan time per additional batched entry while holding the lock.
constexpr double kBatchScanCoeff = 0.08;
}  // namespace

ClusterAllocator::ClusterAllocator(sim::Simulator& sim, std::uint64_t capacity,
                                   Config cfg)
    : sim_(sim), capacity_(capacity), cfg_(cfg), rng_(kRngSeed),
      global_mutex_(sim, kContentionAlpha) {
  auto num_clusters =
      std::uint32_t((capacity + cfg.cluster_size - 1) / cfg.cluster_size);
  clusters_.resize(num_clusters);
  for (std::uint32_t c = 0; c < num_clusters; ++c) {
    Cluster& cl = clusters_[c];
    std::uint64_t lo = std::uint64_t(c) * cfg.cluster_size;
    std::uint64_t hi = std::min<std::uint64_t>(lo + cfg.cluster_size, capacity);
    cl.free.reserve(hi - lo);
    for (std::uint64_t e = hi; e-- > lo;) cl.free.push_back(e);
    cl.mutex = std::make_unique<sim::SimMutex>(sim, kContentionAlpha);
    cl.in_free_list = true;
    free_clusters_.push_back(c);
  }
  core_cluster_.assign(256, kNoCluster);
  core_cache_.resize(256);
}

std::uint64_t ClusterAllocator::CollidingClusters() const {
  std::uint64_t n = 0;
  for (const Cluster& c : clusters_)
    if (c.owners > 1) ++n;
  return n;
}

void ClusterAllocator::DetachCore(CoreId core) {
  std::uint32_t ci = core_cluster_[core];
  if (ci == kNoCluster) return;
  assert(clusters_[ci].owners > 0);
  --clusters_[ci].owners;
  core_cluster_[core] = kNoCluster;
}

void ClusterAllocator::Allocate(CoreId core, Done done) {
  if (core >= core_cluster_.size()) {
    core_cluster_.resize(core + 1, kNoCluster);
    core_cache_.resize(core + 1);
  }
  std::uint32_t slot = pending_.Put(Pending{std::move(done), core});
  // Batched entries from a previous lock acquisition are handed out without
  // touching any lock.
  if (!core_cache_[core].empty()) {
    SwapEntryId e = core_cache_[core].back();
    core_cache_[core].pop_back();
    sim_.Schedule(kCachePopCost, [this, e, slot] {
      AllocResult r;
      r.entry = e;
      r.hold = kCachePopCost;
      RecordAlloc(r);
      Finish(slot, r);
    });
    return;
  }
  // si->lock: brief global critical section on every allocation path
  // (availability counters), before the per-cluster work.
  global_mutex_.Execute(kSiLockHold, [this, slot](SimDuration wait,
                                                  SimDuration hold) {
    std::uint32_t ci = core_cluster_[pending_[slot].core];
    if (ci != kNoCluster && !clusters_[ci].free.empty()) {
      AllocateFromCluster(slot, ci, wait, hold);
      return;
    }
    SwitchCluster(slot, wait, hold);
  });
}

void ClusterAllocator::Finish(std::uint32_t slot, AllocResult r) {
  Pending p = pending_.Take(slot);
  r.wait += p.carry_wait;
  r.hold += p.carry_hold;
  p.done(r);
}

void ClusterAllocator::AllocateFromCluster(std::uint32_t slot,
                                           std::uint32_t ci,
                                           SimDuration prior_wait,
                                           SimDuration prior_hold) {
  Cluster& cl = clusters_[ci];
  // A cluster shared by several cores costs more per allocation: its free
  // slots are interleaved with other cores' allocations, and the scan
  // lengthens further as the partition fills (fewer free slots to find).
  SimDuration hold = kClusterHold;
  if (cl.owners > 1) {
    double util = Utilization();
    double factor =
        1.0 + kUtilScanCoeff * (1.0 / std::max(0.02, 1.0 - util) - 1.0);
    hold = std::min(SimDuration(double(kSharedScanHold) * factor),
                    kMaxHold);
  }
  if (cfg_.batch_size > 1)
    hold = SimDuration(double(hold) *
                       (1.0 + kBatchScanCoeff * (cfg_.batch_size - 1)));
  cl.mutex->Execute(hold, [this, slot, ci, prior_wait,
                           prior_hold](SimDuration wait,
                                       SimDuration hold_actual) {
    Cluster& cl2 = clusters_[ci];
    CoreId core = pending_[slot].core;
    AllocResult r;
    r.wait = prior_wait + wait;
    r.hold = prior_hold + hold_actual;
    if (!cl2.free.empty()) {
      r.entry = cl2.free.back();
      cl2.free.pop_back();
      ++used_;
      // Batch patch: scan additional free entries while holding the lock and
      // stash them in the per-core cache for lock-free handout later.
      auto& cache = core_cache_[core];
      while (cfg_.batch_size > 1 && cache.size() + 1 < cfg_.batch_size &&
             !cl2.free.empty()) {
        cache.push_back(cl2.free.back());
        cl2.free.pop_back();
        ++used_;
      }
      RecordAlloc(r);
      Finish(slot, r);
      return;
    }
    // Raced with another core that drained the cluster: switch and retry,
    // carrying the accumulated cost through the retry.
    DetachCore(core);
    SwitchCluster(slot, r.wait, r.hold);
  });
}

std::uint32_t ClusterAllocator::PickSharedCluster() {
  // Random probing, as in the patch: pick a random cluster with free space.
  for (int probe = 0; probe < 16; ++probe) {
    auto ci = std::uint32_t(rng_.NextBounded(clusters_.size()));
    if (!clusters_[ci].free.empty()) return ci;
  }
  // Linear fallback scan.
  for (std::uint32_t ci = 0; ci < clusters_.size(); ++ci)
    if (!clusters_[ci].free.empty()) return ci;
  return kNoCluster;
}

void ClusterAllocator::SwitchCluster(std::uint32_t slot, SimDuration wait,
                                     SimDuration hold) {
  pending_[slot].carry_wait += wait;
  pending_[slot].carry_hold += hold;
  global_mutex_.Execute(kGlobalHold, [this, slot](SimDuration wait,
                                                  SimDuration hold) {
    CoreId core = pending_[slot].core;
    // A concurrent allocation from this core may have attached a cluster
    // while we queued on the global lock: use it instead of switching.
    std::uint32_t cur = core_cluster_[core];
    if (cur != kNoCluster && !clusters_[cur].free.empty()) {
      AllocateFromCluster(slot, cur, wait, hold);
      return;
    }
    DetachCore(core);
    std::uint32_t ci;
    if (!free_clusters_.empty()) {
      ci = free_clusters_.back();
      free_clusters_.pop_back();
      clusters_[ci].in_free_list = false;
    } else {
      ci = PickSharedCluster();
      ++fallbacks_;
    }
    if (ci == kNoCluster) {
      AllocResult r;  // partition full
      r.wait = wait;
      r.hold = hold;
      Finish(slot, r);
      return;
    }
    core_cluster_[core] = ci;
    ++clusters_[ci].owners;
    AllocateFromCluster(slot, ci, wait, hold);
  });
}

void ClusterAllocator::Free(SwapEntryId entry) {
  assert(used_ > 0);
  --used_;
  auto ci = std::uint32_t(entry / cfg_.cluster_size);
  Cluster& cl = clusters_[ci];
  cl.free.push_back(entry);
  // A fully-free, unowned cluster returns to the free-cluster list.
  std::uint64_t lo = std::uint64_t(ci) * cfg_.cluster_size;
  std::uint64_t hi = std::min<std::uint64_t>(lo + cfg_.cluster_size, capacity_);
  if (cl.owners == 0 && !cl.in_free_list && cl.free.size() == hi - lo) {
    cl.in_free_list = true;
    free_clusters_.push_back(ci);
  }
}

}  // namespace canvas::swapalloc
