// Managed-runtime model: the semantic information the Canvas application-tier
// prefetcher obtains from the language runtime (§5.2).
//
// In the paper this lives in a modified OpenJDK: write barriers and the GC
// record references between page groups in a summary graph, a search tree
// tracks large arrays, and the JVM's user/kernel thread map distinguishes
// application threads from GC/JIT threads. Here the workload generators
// populate the same structures with ground truth as they build their heaps,
// which is exactly the information the real barriers would capture.
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/types.h"

namespace canvas::runtime {

enum class ThreadKind : std::uint8_t {
  kApplication,  // user worker thread
  kGc,           // garbage collection / JIT / other auxiliary runtime thread
};

class RuntimeInfo {
 public:
  /// Pages per summary-graph node ("consecutive group of pages", §5.2).
  /// Small groups keep reference prefetching page-accurate; large groups
  /// over-fetch entire neighbourhoods.
  static constexpr PageId kGroupPages = 4;

  static std::uint32_t GroupOf(PageId page) {
    return std::uint32_t(page / kGroupPages);
  }

  // --- thread map ---
  void RegisterThread(ThreadId tid, ThreadKind kind) { threads_[tid] = kind; }
  ThreadKind KindOf(ThreadId tid) const;
  std::size_t app_thread_count() const;

  // --- write-barrier summary graph ---
  /// Record a reference from an object on page `from` to one on page `to`
  /// (invoked for every a.f = b crossing page groups, like the paper's
  /// write barrier).
  void RecordReference(PageId from, PageId to);

  /// Pages reachable within `hops` page-group hops of `page`'s group, up to
  /// `max_pages`, excluding the faulting group itself. Cycles are not
  /// followed (visited-set BFS).
  void ReachablePages(PageId page, int hops, std::size_t max_pages,
                      std::vector<PageId>& out) const;

  std::size_t edge_count() const { return edge_count_; }

  // --- large-array registry (search tree over [start, start+len) pages) ---
  void RegisterLargeArray(PageId start_page, PageId num_pages);
  bool InLargeArray(PageId page) const;
  std::size_t large_array_count() const { return arrays_.size(); }
  /// The registered arrays as (start page -> length) in address order; the
  /// object registry (src/object) layers its spans on this table.
  const std::map<PageId, PageId>& large_arrays() const { return arrays_; }

 private:
  std::unordered_map<ThreadId, ThreadKind> threads_;
  // group -> neighbouring groups (deduplicated adjacency, insertion order).
  // Indexed by group: a tenant's pages are dense from 0, so a vector sized
  // to the highest source group seen costs one slot per group.
  std::vector<std::vector<std::uint32_t>> graph_;
  std::size_t edge_count_ = 0;
  // start page -> length (pages); non-overlapping by construction.
  std::map<PageId, PageId> arrays_;
};

}  // namespace canvas::runtime
