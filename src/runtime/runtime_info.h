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
  /// Registering a tid again replaces its kind.
  void RegisterThread(ThreadId tid, ThreadKind kind);
  ThreadKind KindOf(ThreadId tid) const;
  std::size_t app_thread_count() const { return app_threads_; }

  // --- write-barrier summary graph ---
  /// Record a reference from an object on page `from` to one on page `to`
  /// (invoked for every a.f = b crossing page groups, like the paper's
  /// write barrier).
  /// Appends in place when `from`'s group is the last source group so far
  /// (or beyond it); an earlier group takes an O(groups) insert.
  void RecordReference(PageId from, PageId to);

  /// Record `degree` references out of each of the `count` pages from
  /// `first` on: page first + i refers to targets[i * degree + j]. The
  /// graph is the one RecordReference over those edges in that order
  /// builds, in one pass when `first`'s group is the last source group so
  /// far (or beyond it), as it is for a heap built in address order.
  void RecordPageEdges(PageId first, PageId count, std::uint32_t degree,
                       const PageId* targets);

  /// Pages reachable within `hops` page-group hops of `page`'s group, up to
  /// `max_pages`, excluding the faulting group itself. Cycles are not
  /// followed (visited-set BFS).
  void ReachablePages(PageId page, int hops, std::size_t max_pages,
                      std::vector<PageId>& out) const;

  std::size_t edge_count() const { return targets_.size(); }

  // --- large-array registry (search tree over [start, start+len) pages) ---
  void RegisterLargeArray(PageId start_page, PageId num_pages);
  bool InLargeArray(PageId page) const;
  std::size_t large_array_count() const { return arrays_.size(); }
  /// The registered arrays as (start page -> length) in address order; the
  /// object registry (src/object) layers its spans on this table.
  const std::map<PageId, PageId>& large_arrays() const { return arrays_; }

 private:
  /// Source groups with a (possibly empty) adjacency range.
  std::size_t group_count() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  /// Extend the table so that `g` is its last group.
  void OpenGroup(std::uint32_t g);
  /// Whether group `g`'s adjacency range already holds `target`.
  bool HasEdge(std::uint32_t g, std::uint32_t target) const;

  std::unordered_map<ThreadId, ThreadKind> threads_;
  std::size_t app_threads_ = 0;
  // group -> neighbouring groups (deduplicated adjacency, insertion order),
  // as one CSR table: group g's targets are
  // targets_[offsets_[g], offsets_[g + 1]). A tenant's pages are dense from
  // 0 and its heap records its edges in address order, so the table grows
  // at its end; both arrays stay empty until the first edge.
  std::vector<std::uint32_t> offsets_;
  std::vector<std::uint32_t> targets_;
  // start page -> length (pages); non-overlapping by construction.
  std::map<PageId, PageId> arrays_;
};

}  // namespace canvas::runtime
