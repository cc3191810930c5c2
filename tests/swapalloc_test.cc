// Unit tests for swap partitions and the entry-allocator family.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "common/rng.h"
#include "sim/simulator.h"
#include "swapalloc/cluster.h"
#include "swapalloc/freelist.h"
#include "swapalloc/partition.h"

namespace canvas::swapalloc {
namespace {

TEST(Freelist, AllocatesUniqueEntries) {
  sim::Simulator sim;
  FreelistAllocator a(sim, 64, {});
  std::set<SwapEntryId> got;
  for (int i = 0; i < 64; ++i)
    a.Allocate(0, [&](AllocResult r) { got.insert(r.entry); });
  sim.Run();
  EXPECT_EQ(got.size(), 64u);
  EXPECT_EQ(a.used(), 64u);
  EXPECT_DOUBLE_EQ(a.Utilization(), 1.0);
}

TEST(Freelist, FullPartitionReturnsInvalid) {
  sim::Simulator sim;
  FreelistAllocator a(sim, 2, {});
  std::vector<SwapEntryId> got;
  for (int i = 0; i < 3; ++i)
    a.Allocate(0, [&](AllocResult r) { got.push_back(r.entry); });
  sim.Run();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_NE(got[0], kInvalidEntry);
  EXPECT_NE(got[1], kInvalidEntry);
  EXPECT_EQ(got[2], kInvalidEntry);
}

TEST(Freelist, FreeMakesEntryReusable) {
  sim::Simulator sim;
  FreelistAllocator a(sim, 1, {});
  SwapEntryId first = kInvalidEntry;
  a.Allocate(0, [&](AllocResult r) { first = r.entry; });
  sim.Run();
  a.Free(first);
  EXPECT_EQ(a.used(), 0u);
  SwapEntryId second = kInvalidEntry;
  a.Allocate(0, [&](AllocResult r) { second = r.entry; });
  sim.Run();
  EXPECT_EQ(second, first);
}

TEST(Freelist, HoldGrowsWithUtilization) {
  sim::Simulator sim;
  FreelistAllocator a(sim, 100, {});
  SimDuration empty_hold = a.CurrentHold();
  for (int i = 0; i < 90; ++i) a.Allocate(0, [](AllocResult) {});
  sim.Run();
  // At 90% utilization the free-slot scan is ~10x longer.
  EXPECT_GT(a.CurrentHold(), empty_hold * 3);
}

TEST(Freelist, HoldCapped) {
  FreelistAllocator::Config cfg;
  cfg.max_hold = 5 * kMicrosecond;
  sim::Simulator sim;
  FreelistAllocator a(sim, 100, cfg);
  for (int i = 0; i < 99; ++i) a.Allocate(0, [](AllocResult) {});
  sim.Run();
  EXPECT_LE(a.CurrentHold(), 5 * kMicrosecond);
}

TEST(Freelist, ContentionSerializesAllocations) {
  sim::Simulator sim;
  FreelistAllocator a(sim, 1024, {});
  std::vector<SimDuration> waits;
  for (int i = 0; i < 8; ++i)
    a.Allocate(CoreId(i), [&](AllocResult r) { waits.push_back(r.wait); });
  sim.Run();
  // All but the first wait on the single lock.
  EXPECT_EQ(waits.front(), 0u);
  EXPECT_GT(waits.back(), 0u);
  EXPECT_EQ(a.allocations(), 8u);
  EXPECT_GT(a.total_alloc_time(), 0u);
}

ClusterAllocator::Config SmallClusters() {
  ClusterAllocator::Config cfg;
  cfg.cluster_size = 16;
  return cfg;
}

TEST(Cluster, AllocatesUniqueEntries) {
  sim::Simulator sim;
  ClusterAllocator a(sim, 256, SmallClusters());
  std::set<SwapEntryId> got;
  for (int i = 0; i < 256; ++i)
    a.Allocate(CoreId(i % 4), [&](AllocResult r) { got.insert(r.entry); });
  sim.Run();
  EXPECT_EQ(got.size(), 256u);
  EXPECT_EQ(a.used(), 256u);
}

TEST(Cluster, CoresGetSeparateClusters) {
  sim::Simulator sim;
  ClusterAllocator a(sim, 256, SmallClusters());
  SwapEntryId e0 = kInvalidEntry, e1 = kInvalidEntry;
  a.Allocate(0, [&](AllocResult r) { e0 = r.entry; });
  a.Allocate(1, [&](AllocResult r) { e1 = r.entry; });
  sim.Run();
  // Different cores allocate from different 16-entry clusters.
  EXPECT_NE(e0 / 16, e1 / 16);
  EXPECT_EQ(a.CollidingClusters(), 0u);
}

TEST(Cluster, SameCoreStaysInCluster) {
  sim::Simulator sim;
  ClusterAllocator a(sim, 256, SmallClusters());
  std::vector<SwapEntryId> got;
  // Sequential allocations, as a single core performs them.
  std::function<void()> next = [&] {
    if (got.size() >= 16) return;
    a.Allocate(0, [&](AllocResult r) {
      got.push_back(r.entry);
      next();
    });
  };
  next();
  sim.Run();
  ASSERT_EQ(got.size(), 16u);
  for (SwapEntryId e : got) EXPECT_EQ(e / 16, got[0] / 16);
}

TEST(Cluster, FallbackSharingWhenExhausted) {
  sim::Simulator sim;
  auto cfg = SmallClusters();
  ClusterAllocator a(sim, 64, cfg);  // 4 clusters only
  // 8 cores each grab a cluster: free clusters run out, fallbacks happen.
  for (int i = 0; i < 48; ++i)
    a.Allocate(CoreId(i % 8), [](AllocResult) {});
  sim.Run();
  EXPECT_GT(a.fallback_allocations(), 0u);
}

TEST(Cluster, FullReturnsInvalid) {
  sim::Simulator sim;
  ClusterAllocator a(sim, 16, SmallClusters());
  std::vector<SwapEntryId> got;
  for (int i = 0; i < 18; ++i)
    a.Allocate(0, [&](AllocResult r) { got.push_back(r.entry); });
  sim.Run();
  EXPECT_EQ(got.back(), kInvalidEntry);
  EXPECT_EQ(std::count(got.begin(), got.end(), kInvalidEntry), 2);
}

TEST(Cluster, FreeReturnsClusterToPool) {
  sim::Simulator sim;
  ClusterAllocator a(sim, 32, SmallClusters());
  std::vector<SwapEntryId> got;
  for (int i = 0; i < 32; ++i)
    a.Allocate(CoreId(i / 16), [&](AllocResult r) { got.push_back(r.entry); });
  sim.Run();
  EXPECT_EQ(a.used(), 32u);
  for (SwapEntryId e : got) a.Free(e);
  EXPECT_EQ(a.used(), 0u);
  // All entries allocatable again.
  std::set<SwapEntryId> again;
  for (int i = 0; i < 32; ++i)
    a.Allocate(0, [&](AllocResult r) { again.insert(r.entry); });
  sim.Run();
  EXPECT_EQ(again.size(), 32u);
}

TEST(Cluster, BatchModeUsesPerCoreCache) {
  sim::Simulator sim;
  auto cfg = SmallClusters();
  cfg.batch_size = 8;
  ClusterAllocator a(sim, 256, cfg);
  std::vector<AllocResult> results;
  std::function<void()> next = [&] {
    if (results.size() >= 8) return;
    a.Allocate(0, [&](AllocResult r) {
      results.push_back(r);
      next();
    });
  };
  next();
  sim.Run();
  ASSERT_EQ(results.size(), 8u);
  // First allocation takes locks; the next 7 come from the core cache with
  // only the pop cost and no wait.
  EXPECT_GT(results[0].hold, ClusterAllocator::kCachePopCost);
  for (int i = 1; i < 8; ++i) {
    EXPECT_EQ(results[std::size_t(i)].wait, 0u);
    EXPECT_EQ(results[std::size_t(i)].hold, ClusterAllocator::kCachePopCost);
  }
  std::set<SwapEntryId> unique;
  for (auto& r : results) unique.insert(r.entry);
  EXPECT_EQ(unique.size(), 8u);
}

TEST(Cluster, ContentionGrowsWithCoreCount) {
  // Per-entry allocation cost grows with core count (si->lock queueing +
  // cluster collisions). The macro-level super-linear shape of Appendix B
  // is asserted by the fig13/fig16 benches on full workloads; here we check
  // the monotone degradation on a closed allocate/free churn.
  auto mean_alloc_ns = [](std::uint32_t cores) {
    sim::Simulator sim;
    ClusterAllocator::Config cfg;
    cfg.cluster_size = 64;
    ClusterAllocator a(sim, 2048, cfg);  // 32 clusters
    // Each core performs a fixed number of allocate/free rounds (steady
    // churn); the per-entry mean then covers every core's full run.
    std::function<void(CoreId, int)> churn = [&](CoreId c, int left) {
      a.Allocate(c, [&, c, left](AllocResult r) {
        if (r.entry != kInvalidEntry) a.Free(r.entry);
        if (left > 1) churn(c, left - 1);
      });
    };
    for (CoreId c = 0; c < cores; ++c) churn(c, 60);
    sim.Run();
    return a.mean_alloc_time();
  };
  double t8 = mean_alloc_ns(8);
  double t48 = mean_alloc_ns(48);
  EXPECT_GT(t48, t8 * 1.3);
}

TEST(Partition, ConstructsEachKind) {
  sim::Simulator sim;
  for (auto kind : {AllocatorKind::kFreelist, AllocatorKind::kCluster,
                    AllocatorKind::kClusterBatch}) {
    SwapPartition p(sim, "t", 512, kind);
    EXPECT_EQ(p.capacity(), 512u);
    SwapEntryId got = kInvalidEntry;
    p.allocator().Allocate(0, [&](AllocResult r) { got = r.entry; });
    sim.Run();
    EXPECT_NE(got, kInvalidEntry);
  }
}

TEST(Partition, EntryMetadataPersists) {
  sim::Simulator sim;
  SwapPartition p(sim, "t", 16, AllocatorKind::kCluster);
  p.meta(3).prefetch_ts = 12345;
  p.meta(3).valid = false;
  EXPECT_EQ(p.meta(3).prefetch_ts, 12345u);
  EXPECT_FALSE(p.meta(3).valid);
  EXPECT_EQ(p.meta(4).prefetch_ts, kTimeNever);
  EXPECT_TRUE(p.meta(4).valid);
}

// One per swap entry of every partition: field order packs it.
static_assert(sizeof(EntryMeta) == 16);

TEST(Partition, AllocatorKindNames) {
  EXPECT_STREQ(AllocatorKindName(AllocatorKind::kFreelist), "freelist");
  EXPECT_STREQ(AllocatorKindName(AllocatorKind::kCluster), "cluster");
  EXPECT_STREQ(AllocatorKindName(AllocatorKind::kClusterBatch),
               "cluster+batch");
}

TEST(Allocators, AllocSeriesRecordsRate) {
  sim::Simulator sim;
  FreelistAllocator a(sim, 64, {});
  for (int i = 0; i < 10; ++i) a.Allocate(0, [](AllocResult) {});
  sim.Run();
  EXPECT_EQ(a.allocations(), 10u);
}

/// Feeds allocation results straight into the shared statistics.
class RecordingAllocator : public SwapEntryAllocator {
 public:
  void Allocate(CoreId, Done) override {}
  void Free(SwapEntryId) override {}
  std::uint64_t capacity() const override { return 0; }
  std::uint64_t used() const override { return 0; }
  using SwapEntryAllocator::RecordAlloc;
};

TEST(Allocators, MeanAllocTimeMatchesDoubleSumBitForBit) {
  RecordingAllocator a;
  EXPECT_EQ(a.mean_alloc_time(), 0.0);
  // Reference: the samples summed as doubles in insertion order, over the
  // count.
  double ref_sum = 0;
  std::uint64_t ref_count = 0;
  Rng rng(20231);
  for (int i = 0; i < 5000; ++i) {
    AllocResult r;
    // Mostly short uncontended holds, some long lock queues.
    r.wait = rng.NextBool(0.2) ? rng.NextBounded(2'000'000) : 0;
    r.hold = 50 + rng.NextBounded(rng.NextBool(0.1) ? 100'000 : 400);
    a.RecordAlloc(r);
    ref_sum += double(r.wait + r.hold);
    ++ref_count;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.mean_alloc_time()),
              std::bit_cast<std::uint64_t>(ref_sum / double(ref_count)))
        << "after " << i + 1 << " samples";
  }
  EXPECT_EQ(a.allocations(), ref_count);
}

}  // namespace
}  // namespace canvas::swapalloc
