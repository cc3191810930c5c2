// Unit tests for the managed-runtime model (thread map, summary graph,
// large-array registry).
#include <gtest/gtest.h>

#include <algorithm>

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
