// Object registry: object id -> page-span mapping (DESIGN.md §16).
//
// Canvas swaps at page granularity; the cooperative tier (ROADMAP item 4,
// after verona-rt's cown swapper) needs the runtime's knowledge of *object*
// boundaries so behaviours can declare read-sets and the scheduler can
// fetch/pin/unpin whole objects. The registry is that mapping, layered on
// the structures RuntimeInfo already models: spans are groups of
// consecutive pages (the paper's §5.2 page groups), and ImportLargeArrays
// turns the existing large-array search tree into object spans directly.
//
// Invariants the property suite enforces (tests/object_test.cc):
//   - spans never overlap: Register rejects any span intersecting a live one;
//   - pin/unpin balance: every successful Pin has exactly one Unpin, and
//     pinned_pages() returns to zero when all behaviours complete;
//   - quota conservation: live objects/pages never exceed RegistryConfig
//     maxima, and Release/Clear return the budget;
//   - generation-checked handles: Clear (tenant reap, DESIGN.md §15) bumps
//     the generation, so handles that outlive the tenant fail Find/Pin
//     safely instead of touching recycled state.
#pragma once

#include <cstdint>
#include <map>

#include "common/flat_map.h"
#include "common/types.h"
#include "runtime/runtime_info.h"

namespace canvas::object {

using ObjectId = std::uint64_t;
using BehaviourId = std::uint64_t;
inline constexpr ObjectId kInvalidObject = ~0ull;
inline constexpr BehaviourId kNoBehaviour = ~0ull;

/// Generation-checked reference to a registered object. Handles are cheap
/// value types the workload streams embed in behaviour read-sets; a handle
/// minted before a Clear() no longer resolves afterwards.
struct ObjectHandle {
  ObjectId id = kInvalidObject;
  std::uint32_t generation = 0;

  bool valid() const { return id != kInvalidObject; }
  friend bool operator==(const ObjectHandle& a, const ObjectHandle& b) {
    return a.id == b.id && a.generation == b.generation;
  }
};

/// A contiguous run of virtual pages belonging to one object.
struct ObjectSpan {
  PageId first = kInvalidPage;
  std::uint32_t pages = 0;
};

struct RegistryConfig {
  /// Per-cgroup quotas; 0 = unbounded.
  std::uint64_t max_objects = 0;
  std::uint64_t max_pages = 0;
};

class ObjectRegistry {
 public:
  explicit ObjectRegistry(RegistryConfig cfg = {}) : cfg_(cfg) {}

  /// Register [first, first+pages) as one object. Returns an invalid handle
  /// if the span is empty, overlaps a live object, or would exceed a quota.
  ObjectHandle Register(PageId first, std::uint32_t pages);

  /// Unregister a live, unpinned object; false for stale handles or while
  /// pinned (a behaviour still holds it).
  bool Release(ObjectHandle h);

  /// Span of a live object; null for stale/unknown handles.
  const ObjectSpan* Find(ObjectHandle h) const;

  /// Handle of the live object covering `page`, or an invalid handle.
  ObjectHandle At(PageId page) const;

  /// Pin/unpin for a behaviour's duration. Pins nest (two overlapping
  /// behaviours may hold the same object); Unpin without a matching Pin is
  /// rejected. Both fail safely on stale handles.
  bool Pin(ObjectHandle h);
  bool Unpin(ObjectHandle h);
  std::uint32_t PinCount(ObjectHandle h) const;

  /// Drop every object and bump the generation (tenant reap/churn): all
  /// outstanding handles become stale. Pin counts are discarded with the
  /// entries — the owner must have completed its behaviours first.
  void Clear();

  /// Layer the registry on RuntimeInfo's large-array table: each registered
  /// array becomes objects of at most `split_pages` pages (0 = one object
  /// per array). Returns how many objects were registered (quota-bounded).
  std::size_t ImportLargeArrays(const runtime::RuntimeInfo& info,
                                std::uint32_t split_pages = 0);

  std::uint32_t generation() const { return generation_; }
  std::size_t object_count() const { return spans_.size(); }
  std::uint64_t page_count() const { return total_pages_; }
  /// Pages of objects currently pinned at least once.
  std::uint64_t pinned_pages() const { return pinned_pages_; }
  std::uint64_t pins_issued() const { return pins_issued_; }
  std::uint64_t pins_released() const { return pins_released_; }
  std::uint64_t rejected_overlap() const { return rejected_overlap_; }
  std::uint64_t rejected_quota() const { return rejected_quota_; }

 private:
  struct Entry {
    ObjectId id = kInvalidObject;
    ObjectSpan span;
    std::uint32_t pins = 0;
  };

  Entry* Resolve(ObjectHandle h);
  const Entry* Resolve(ObjectHandle h) const {
    return const_cast<ObjectRegistry*>(this)->Resolve(h);
  }

  RegistryConfig cfg_;
  std::uint32_t generation_ = 1;
  ObjectId next_id_ = 0;
  /// first page -> entry; ordered so overlap checks are O(log n) neighbour
  /// lookups and iteration order is deterministic.
  std::map<PageId, Entry> spans_;
  /// object id -> first page (spans_ key).
  FlatMap64<PageId> by_id_;
  std::uint64_t total_pages_ = 0;
  std::uint64_t pinned_pages_ = 0;
  std::uint64_t pins_issued_ = 0;
  std::uint64_t pins_released_ = 0;
  std::uint64_t rejected_overlap_ = 0;
  std::uint64_t rejected_quota_ = 0;
};

}  // namespace canvas::object
