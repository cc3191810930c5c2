// Swap cache: the staging buffer between local memory and the swap
// partition.
//
// Holds unmapped pages that (a) were just swapped in or prefetched, or
// (b) are being written back during eviction. In Linux there is one swap
// cache (radix trees over swap-entry blocks) shared by all applications;
// Canvas gives each cgroup a private cache plus one global cache for shared
// pages. Both roles are instances of this class — isolation is expressed by
// who owns the instance.
//
// Pages arrive `locked` while their RDMA transfer is in flight; only
// unlocked pages are eligible for capacity shrinking. An internal LRU
// provides the shrink order, and only unlocked entries are on it: a locked
// entry joins the head when it is unlocked and leaves the list when it is
// (re-)locked, so the tail is always the next shrink victim and a shrink
// pop is O(1) however many transfers are in flight.
//
// Layout: entries live in a slot pool (flat vector + free list); unlocked
// slots are threaded into an intrusive doubly-linked LRU; the (cgroup,
// page) index is a flat open-addressing map over the packed 64-bit key.
// The per-page hot path (lookup / insert / lock / unlock / remove / pop)
// allocates nothing in steady state.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/flat_map.h"
#include "common/types.h"

namespace canvas::mem {

class SwapCache {
 public:
  struct Entry {
    CgroupId app;
    PageId page;
    bool locked;
    bool prefetched;  // inserted by the prefetcher (vs demand / writeback)
    SimTime inserted;
  };

  SwapCache(std::string name, std::uint64_t capacity_pages)
      : name_(std::move(name)), capacity_(capacity_pages) {}

  const std::string& name() const { return name_; }
  std::uint64_t capacity() const { return capacity_; }
  void set_capacity(std::uint64_t pages) { capacity_ = pages; }
  std::uint64_t size() const { return index_.size(); }
  bool OverCapacity() const { return size() > capacity_; }

  bool Contains(CgroupId app, PageId page) const;
  /// Returns the entry or nullptr. Does not affect LRU order. The pointer
  /// is invalidated by the next mutating call.
  const Entry* Lookup(CgroupId app, PageId page) const;

  /// Insert a page (must not already be present).
  void Insert(CgroupId app, PageId page, bool locked, bool prefetched,
              SimTime now);

  /// Mark an in-flight page's data as arrived; links it at the LRU head
  /// (an already-unlocked entry moves to the head).
  void Unlock(CgroupId app, PageId page);

  /// Re-lock a present entry (cooperative pin, DESIGN.md §16): it leaves
  /// the LRU, so it is exempt from PopLruUnlocked shrinking until the next
  /// Unlock. No-op if absent or already locked.
  void Lock(CgroupId app, PageId page);

  /// Remove a page (mapped into the process, writeback finished, or
  /// released). Returns false if absent.
  bool Remove(CgroupId app, PageId page);

  /// Pop the unlocked entry least recently inserted-unlocked or unlocked
  /// (the LRU tail), or return false if every entry is locked. O(1).
  /// Used by the shrink path; the caller transitions the page state.
  bool PopLruUnlocked(Entry& out);

  // --- statistics ---
  std::uint64_t lookups() const { return lookups_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t inserts() const { return inserts_; }
  std::uint64_t shrunk() const { return shrunk_; }

 private:
  static constexpr std::uint32_t kNil = ~0u;

  struct Node {
    Entry entry{};
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;  // also threads the free list
  };

  std::uint32_t AcquireSlot();
  void ReleaseSlot(std::uint32_t slot);
  void LinkFront(std::uint32_t slot);
  void UnlinkNode(std::uint32_t slot);

  std::string name_;
  std::uint64_t capacity_;
  std::vector<Node> pool_;
  std::uint32_t free_head_ = kNil;
  std::uint32_t head_ = kNil;  // most recent unlocked entry
  std::uint32_t tail_ = kNil;  // least recent unlocked entry
  FlatMap64<std::uint32_t> index_;  // PackAppPage(app, page) -> pool slot
  mutable std::uint64_t lookups_ = 0;
  mutable std::uint64_t hits_ = 0;
  std::uint64_t inserts_ = 0;
  std::uint64_t shrunk_ = 0;
};

}  // namespace canvas::mem
