// Unit tests for the managed-runtime model (thread map, summary graph,
// large-array registry).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "runtime/runtime_info.h"

namespace canvas::runtime {
namespace {

TEST(ThreadMap, KindsAndCounts) {
  RuntimeInfo info;
  info.RegisterThread(1, ThreadKind::kApplication);
  info.RegisterThread(2, ThreadKind::kApplication);
  info.RegisterThread(3, ThreadKind::kGc);
  EXPECT_EQ(info.KindOf(1), ThreadKind::kApplication);
  EXPECT_EQ(info.KindOf(3), ThreadKind::kGc);
  EXPECT_EQ(info.app_thread_count(), 2u);
}

TEST(ThreadMap, ReRegisteringMovesTheCount) {
  RuntimeInfo info;
  info.RegisterThread(1, ThreadKind::kApplication);
  info.RegisterThread(1, ThreadKind::kApplication);  // same kind again
  EXPECT_EQ(info.app_thread_count(), 1u);
  info.RegisterThread(1, ThreadKind::kGc);
  EXPECT_EQ(info.app_thread_count(), 0u);
  EXPECT_EQ(info.KindOf(1), ThreadKind::kGc);
  info.RegisterThread(2, ThreadKind::kGc);
  info.RegisterThread(2, ThreadKind::kApplication);
  info.RegisterThread(3, ThreadKind::kApplication);
  EXPECT_EQ(info.app_thread_count(), 2u);
}

TEST(ThreadMap, UnknownThreadDefaultsToApplication) {
  RuntimeInfo info;
  EXPECT_EQ(info.KindOf(99), ThreadKind::kApplication);
}

TEST(SummaryGraph, IntraGroupReferencesIgnored) {
  RuntimeInfo info;
  // Pages 0 and 1 share a group (kGroupPages >= 2): no edge.
  info.RecordReference(0, 1);
  EXPECT_EQ(info.edge_count(), 0u);
}

TEST(SummaryGraph, EdgesDeduplicated) {
  RuntimeInfo info;
  info.RecordReference(0, 100);
  info.RecordReference(1, 101);  // same group pair
  EXPECT_EQ(info.edge_count(), 1u);
}

TEST(SummaryGraph, ReachableWithinHops) {
  RuntimeInfo info;
  const PageId g = RuntimeInfo::kGroupPages;
  info.RecordReference(0, 10 * g);       // hop 1
  info.RecordReference(10 * g, 20 * g);  // hop 2
  info.RecordReference(20 * g, 30 * g);  // hop 3
  info.RecordReference(30 * g, 40 * g);  // hop 4 (beyond)
  std::vector<PageId> out;
  info.ReachablePages(0, 3, 1000, out);
  auto has = [&](PageId p) {
    return std::find(out.begin(), out.end(), p) != out.end();
  };
  EXPECT_TRUE(has(10 * g));
  EXPECT_TRUE(has(20 * g));
  EXPECT_TRUE(has(30 * g));
  EXPECT_FALSE(has(40 * g));
}

TEST(SummaryGraph, FaultingGroupExcluded) {
  RuntimeInfo info;
  info.RecordReference(0, 100);
  std::vector<PageId> out;
  info.ReachablePages(0, 3, 1000, out);
  for (PageId p : out) EXPECT_GE(p, RuntimeInfo::kGroupPages);
}

TEST(SummaryGraph, CyclesDoNotLoop) {
  RuntimeInfo info;
  const PageId g = RuntimeInfo::kGroupPages;
  info.RecordReference(0, 10 * g);
  info.RecordReference(10 * g, 0);  // cycle back
  std::vector<PageId> out;
  info.ReachablePages(0, 3, 1000, out);
  // Each group's pages appear exactly once.
  std::vector<PageId> sorted = out;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
}

TEST(SummaryGraph, MaxPagesCapRespected) {
  RuntimeInfo info;
  const PageId g = RuntimeInfo::kGroupPages;
  for (PageId i = 1; i <= 50; ++i) info.RecordReference(0, i * 10 * g);
  std::vector<PageId> out;
  info.ReachablePages(0, 3, 12, out);
  EXPECT_LE(out.size(), 12u);
}

TEST(SummaryGraph, GroupsRecordedOutOfOrder) {
  RuntimeInfo info;
  const PageId g = RuntimeInfo::kGroupPages;
  // A high source group first, then lower ones: the table grows to the
  // highest and the lower groups keep their own edges.
  info.RecordReference(90 * g, 3 * g);
  info.RecordReference(5 * g, 60 * g);
  info.RecordReference(2 * g, 90 * g);
  info.RecordReference(5 * g, 60 * g + 1);  // same group pair: deduplicated
  EXPECT_EQ(info.edge_count(), 3u);
  std::vector<PageId> out;
  info.ReachablePages(5 * g, 1, 100, out);
  EXPECT_EQ(out, (std::vector<PageId>{60 * g, 60 * g + 1, 60 * g + 2,
                                      60 * g + 3}));
  info.ReachablePages(90 * g + 2, 1, 100, out);
  EXPECT_EQ(out, (std::vector<PageId>{3 * g, 3 * g + 1, 3 * g + 2, 3 * g + 3}));
}

TEST(SummaryGraph, QueryBeyondTheTableIsEmpty) {
  RuntimeInfo info;
  const PageId g = RuntimeInfo::kGroupPages;
  info.RecordReference(0, 10 * g);
  std::vector<PageId> out{7};
  info.ReachablePages(10 * g, 3, 100, out);  // a target, never a source
  EXPECT_TRUE(out.empty());
  info.ReachablePages(1'000'000 * g, 3, 100, out);
  EXPECT_TRUE(out.empty());
}

TEST(SummaryGraph, ReachableOrderIsBreadthFirstInInsertionOrder) {
  RuntimeInfo info;
  const PageId g = RuntimeInfo::kGroupPages;
  // 1 -> {7, 3}, 7 -> {2, 3}, 3 -> {9}; edges recorded out of group order.
  info.RecordReference(3 * g, 9 * g);
  info.RecordReference(1 * g, 7 * g);
  info.RecordReference(7 * g, 2 * g);
  info.RecordReference(1 * g, 3 * g);
  info.RecordReference(7 * g, 3 * g);
  std::vector<PageId> out;
  info.ReachablePages(1 * g, 2, 100, out);
  std::vector<PageId> groups;
  for (std::size_t i = 0; i < out.size(); i += g) groups.push_back(out[i] / g);
  // Hop 1 in insertion order (7, 3), then hop 2 from 7 (2; 3 was seen) and
  // from 3 (9).
  EXPECT_EQ(groups, (std::vector<PageId>{7, 3, 2, 9}));
  EXPECT_EQ(out.size(), 4 * g);
  // The cap cuts inside a group, keeping page order.
  info.ReachablePages(1 * g, 2, 6, out);
  EXPECT_EQ(out, (std::vector<PageId>{7 * g, 7 * g + 1, 7 * g + 2, 7 * g + 3,
                                      3 * g, 3 * g + 1}));
}

TEST(SummaryGraph, NoEdgesMeansNoPages) {
  RuntimeInfo info;
  std::vector<PageId> out{1, 2, 3};
  info.ReachablePages(500, 3, 100, out);
  EXPECT_TRUE(out.empty());  // cleared and nothing added
}

/// The summary graph as one deduplicated adjacency vector per group, the
/// layout the CSR table replaced: the reference the table must match.
class ReferenceGraph {
 public:
  void Record(PageId from, PageId to) {
    std::uint32_t g1 = RuntimeInfo::GroupOf(from);
    std::uint32_t g2 = RuntimeInfo::GroupOf(to);
    if (g1 == g2) return;
    if (g1 >= graph_.size()) graph_.resize(std::size_t(g1) + 1);
    auto& adj = graph_[g1];
    if (std::find(adj.begin(), adj.end(), g2) != adj.end()) return;
    adj.push_back(g2);
    ++edges_;
  }

  void Reachable(PageId page, int hops, std::size_t max_pages,
                 std::vector<PageId>& out) const {
    out.clear();
    std::uint32_t start = RuntimeInfo::GroupOf(page);
    std::unordered_set<std::uint32_t> visited{start};
    std::deque<std::pair<std::uint32_t, int>> frontier{{start, 0}};
    const PageId gp = RuntimeInfo::kGroupPages;
    while (!frontier.empty() && out.size() < max_pages) {
      auto [g, depth] = frontier.front();
      frontier.pop_front();
      if (depth >= hops || g >= graph_.size()) continue;
      for (std::uint32_t next : graph_[g]) {
        if (!visited.insert(next).second) continue;
        for (PageId p = PageId(next) * gp;
             p < PageId(next + 1) * gp && out.size() < max_pages; ++p)
          out.push_back(p);
        frontier.emplace_back(next, depth + 1);
      }
    }
  }

  std::size_t edges() const { return edges_; }

 private:
  std::vector<std::vector<std::uint32_t>> graph_;
  std::size_t edges_ = 0;
};

// Seeded random mixes of bulk and single-edge recording, against the
// reference: bulk regions that start and end mid-group, single edges in
// and out of group order, bulk calls that continue a group singles opened
// (or start before the last group and take the edge-by-edge path), and
// out-degrees 1-8 with targets near, far and below the region.
TEST(SummaryGraph, CsrMatchesReferenceOnRandomSequences) {
  constexpr PageId kPages = 1536;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    RuntimeInfo info;
    ReferenceGraph ref;
    PageId cursor = rng.NextBounded(9);  // where the next "heap" starts
    for (int op = 0; op < 40; ++op) {
      const std::uint64_t kind = rng.NextBounded(4);
      if (kind == 0) {
        // A burst of single edges: in order from the cursor, or anywhere.
        const bool in_order = rng.NextBool(0.5);
        for (int i = 0, n = 1 + int(rng.NextBounded(30)); i < n; ++i) {
          PageId from = in_order ? std::min(kPages - 1, cursor + PageId(i / 3))
                                 : rng.NextBounded(kPages);
          PageId to = rng.NextBounded(kPages);
          info.RecordReference(from, to);
          ref.Record(from, to);
        }
        if (in_order) cursor = std::min(kPages - 1, cursor + 10);
        continue;
      }
      // A bulk region: mostly from the cursor on (continuing its group),
      // sometimes from an earlier page.
      PageId first = kind == 1 ? rng.NextBounded(kPages) : cursor;
      PageId count = std::min<PageId>(1 + rng.NextBounded(120), kPages - first);
      std::uint32_t degree = 1 + std::uint32_t(rng.NextBounded(8));
      std::vector<PageId> targets(std::size_t(count) * degree);
      for (std::size_t i = 0; i < targets.size(); ++i) {
        PageId p = first + PageId(i / degree);
        std::uint64_t how = rng.NextBounded(3);
        if (how == 0)  // near: often the same or a neighbouring group
          targets[i] = p - std::min<PageId>(p, 6) + rng.NextBounded(13);
        else if (how == 1)
          targets[i] = rng.NextBounded(kPages);
        else  // inside the region, so duplicates recur
          targets[i] = first + rng.NextBounded(count);
        targets[i] = std::min(targets[i], kPages - 1);
      }
      info.RecordPageEdges(first, count, degree, targets.data());
      for (std::size_t i = 0; i < targets.size(); ++i)
        ref.Record(first + PageId(i / degree), targets[i]);
      if (kind != 1)
        cursor = std::min(kPages - 1, first + count - rng.NextBounded(2));
      if (rng.NextBool(0.1)) cursor = rng.NextBounded(kPages);
    }
    ASSERT_EQ(info.edge_count(), ref.edges());
    std::vector<PageId> got, want;
    for (PageId g = 0; g <= kPages / RuntimeInfo::kGroupPages + 1; ++g) {
      for (int hops = 1; hops <= 3; ++hops) {
        for (std::size_t cap : {std::size_t(7), std::size_t(1) << 20}) {
          PageId page = g * RuntimeInfo::kGroupPages + g % 4;
          info.ReachablePages(page, hops, cap, got);
          ref.Reachable(page, hops, cap, want);
          ASSERT_EQ(got, want) << "group " << g << " hops " << hops
                               << " cap " << cap;
        }
      }
    }
  }
}

TEST(SummaryGraph, BulkEdgesDeduplicateAndSkipTheirOwnGroup) {
  RuntimeInfo info;
  const PageId g = RuntimeInfo::kGroupPages;
  // Pages 4g+2 .. 4g+5 span groups 4 and 5 (first and last group partial).
  const PageId targets[] = {
      40 * g, 40 * g + 1, 4 * g,      // page 4g+2: group 40 twice, own group
      40 * g + 3, 41 * g, 0,          // page 4g+3: group 40 again, 41, 0
      5 * g, 4 * g, 41 * g + 2,       // page 5g: own group, 4, 41
      4 * g + 1, 4 * g + 2, 4 * g + 3,  // page 5g+1: group 4 three times
  };
  info.RecordPageEdges(4 * g + 2, 4, 3, targets);
  EXPECT_EQ(info.edge_count(), 5u);
  std::vector<PageId> out;
  info.ReachablePages(4 * g, 1, 100, out);
  EXPECT_EQ(out, (std::vector<PageId>{40 * g, 40 * g + 1, 40 * g + 2,
                                      40 * g + 3, 41 * g, 41 * g + 1,
                                      41 * g + 2, 41 * g + 3, 0, 1, 2, 3}));
  info.ReachablePages(5 * g + 3, 1, 100, out);
  EXPECT_EQ(out, (std::vector<PageId>{4 * g, 4 * g + 1, 4 * g + 2, 4 * g + 3,
                                      41 * g, 41 * g + 1, 41 * g + 2,
                                      41 * g + 3}));
}

TEST(LargeArrays, MembershipBoundaries) {
  RuntimeInfo info;
  info.RegisterLargeArray(1000, 500);
  EXPECT_FALSE(info.InLargeArray(999));
  EXPECT_TRUE(info.InLargeArray(1000));
  EXPECT_TRUE(info.InLargeArray(1499));
  EXPECT_FALSE(info.InLargeArray(1500));
}

TEST(LargeArrays, MultipleArraysSearchTree) {
  RuntimeInfo info;
  info.RegisterLargeArray(100, 50);
  info.RegisterLargeArray(1000, 50);
  info.RegisterLargeArray(10000, 50);
  EXPECT_TRUE(info.InLargeArray(120));
  EXPECT_FALSE(info.InLargeArray(500));
  EXPECT_TRUE(info.InLargeArray(1020));
  EXPECT_TRUE(info.InLargeArray(10049));
  EXPECT_FALSE(info.InLargeArray(10050));
  EXPECT_EQ(info.large_array_count(), 3u);
}

TEST(LargeArrays, EmptyRegistry) {
  RuntimeInfo info;
  EXPECT_FALSE(info.InLargeArray(0));
  EXPECT_FALSE(info.InLargeArray(123456));
}

TEST(GroupOf, MapsPagesToGroups) {
  EXPECT_EQ(RuntimeInfo::GroupOf(0), 0u);
  EXPECT_EQ(RuntimeInfo::GroupOf(RuntimeInfo::kGroupPages - 1), 0u);
  EXPECT_EQ(RuntimeInfo::GroupOf(RuntimeInfo::kGroupPages), 1u);
}

}  // namespace
}  // namespace canvas::runtime
