// cgroup model: the resource-accounting unit Canvas extends.
//
// The paper adds three swap-resource constraints to cgroup: swap-partition
// size, swap-cache budget, and RDMA bandwidth weight. This module provides
// the bookkeeping; enforcement lives in the subsystems (partition allocator,
// swap cache, scheduler) that consult it.
#pragma once

#include <cassert>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/types.h"

namespace canvas {

struct CgroupSpec {
  std::string name;
  /// Local memory budget in 4KB frames (resident pages + private swap cache
  /// are charged against this, matching the paper's "swap cache charged to
  /// the memory budget").
  std::uint64_t local_mem_pages = 0;
  /// Remote memory (swap partition) limit in entries.
  std::uint64_t swap_entry_limit = 0;
  /// Initial private swap-cache budget in pages (paper default: 32MB).
  std::uint64_t swap_cache_pages = 8192;
  /// Weight for vertical (inter-application) RDMA fair scheduling.
  double rdma_weight = 1.0;
  /// Cores assigned (drives simulated thread concurrency).
  std::uint32_t cores = 1;
};

/// Runtime accounting for one cgroup.
class Cgroup {
 public:
  Cgroup(CgroupId id, CgroupSpec spec) : id_(id), spec_(std::move(spec)) {}

  CgroupId id() const { return id_; }
  const CgroupSpec& spec() const { return spec_; }

  // --- failover state (transitions driven by core::SwapSystem) ---
  /// Where the cgroup's swap-outs currently go (DESIGN.md §8).
  SwapBackend backend() const { return backend_; }
  void SetBackend(SwapBackend b) { backend_ = b; }
  /// Counts consecutive retry-exhausted requests since the last success
  /// (reset on any completed remote transfer; crossing the failover
  /// threshold triggers failover) and returns the count.
  std::uint32_t NoteExhausted() { return ++consecutive_exhausted_; }
  void NoteRemoteSuccess() { consecutive_exhausted_ = 0; }

  // --- local memory (frames) ---
  std::uint64_t resident_pages() const { return resident_; }
  std::uint64_t cache_pages() const { return cache_; }
  std::uint64_t charged_pages() const { return resident_ + cache_; }
  bool OverMemoryLimit() const {
    return charged_pages() >= spec_.local_mem_pages;
  }
  /// Frames that must be reclaimed before `extra` new charges fit.
  std::uint64_t MemoryDeficit(std::uint64_t extra) const;

  void ChargeResident() { ++resident_; }
  void UnchargeResident() {
    assert(resident_ > 0);
    --resident_;
  }
  void ChargeCache() { ++cache_; }
  void UnchargeCache() {
    assert(cache_ > 0);
    --cache_;
  }

  // --- remote memory (swap entries) ---
  std::uint64_t remote_entries() const { return remote_; }
  double RemoteUtilization() const {
    return spec_.swap_entry_limit
               ? double(remote_) / double(spec_.swap_entry_limit)
               : 0.0;
  }
  void ChargeRemote() { ++remote_; }
  void UnchargeRemote() {
    assert(remote_ > 0);
    --remote_;
  }

 private:
  CgroupId id_;
  CgroupSpec spec_;
  std::uint64_t resident_ = 0;
  std::uint64_t cache_ = 0;
  std::uint64_t remote_ = 0;
  SwapBackend backend_ = SwapBackend::kRemote;
  std::uint32_t consecutive_exhausted_ = 0;
};

/// Generation-checked reference to a registry slot. Retiring a cgroup bumps
/// the slot's generation, so a handle held across a retire/reuse cycle
/// resolves to nullptr instead of silently aliasing the next tenant that
/// recycled the id.
struct CgroupHandle {
  CgroupId id = kInvalidCgroup;
  std::uint32_t generation = 0;
};

/// Owns all cgroups of one experiment, including the special shared cgroup.
/// Deque storage keeps Cgroup references stable across Create() calls
/// (subsystems hold references for a tenant's lifetime).
///
/// Tenant lifecycle (DESIGN.md §15): Retire() frees a slot and Create()
/// reuses the lowest retired slot before growing the deque, so under churn
/// the slot count tracks the concurrent-tenant high-water mark, not the
/// total ever created — the property that keeps every per-cgroup table
/// downstream O(active tenants). Slot reuse is deterministic (lowest id
/// first), which the swap system relies on to keep its "cgroup id == app
/// slot" invariant across arrivals and departures.
class CgroupRegistry {
 public:
  CgroupId Create(CgroupSpec spec);
  /// Frees `id` for reuse and bumps its generation. The caller must have
  /// dropped every reference into the slot first; the paired accounting
  /// asserts are the debug-mode check that charges were unwound.
  void Retire(CgroupId id);

  Cgroup& Get(CgroupId id);
  const Cgroup& Get(CgroupId id) const;

  bool Alive(CgroupId id) const {
    return id < groups_.size() && alive_[id];
  }
  std::uint32_t generation(CgroupId id) const { return gens_.at(id); }
  CgroupHandle HandleFor(CgroupId id) const { return {id, gens_.at(id)}; }
  /// nullptr if the slot was retired (or retired-and-reused) since the
  /// handle was taken.
  Cgroup* Resolve(CgroupHandle h);
  const Cgroup* Resolve(CgroupHandle h) const;

  /// Slots ever created (high-water mark, not the live count).
  std::size_t size() const { return groups_.size(); }
  std::size_t active_count() const { return groups_.size() - free_.size(); }
  std::uint64_t retired_total() const { return retired_total_; }

 private:
  std::deque<Cgroup> groups_;
  std::deque<std::uint32_t> gens_;
  std::deque<bool> alive_;
  /// Retired slots as a min-heap (std::greater) so Create pops the lowest.
  std::vector<CgroupId> free_;
  std::uint64_t retired_total_ = 0;
};

}  // namespace canvas
