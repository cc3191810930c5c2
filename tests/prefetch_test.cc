// Unit tests for the prefetcher family: kernel readahead, Leap, and the
// Canvas two-tier adaptive prefetcher.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "prefetch/leap.h"
#include "prefetch/readahead.h"
#include "prefetch/two_tier.h"

namespace canvas::prefetch {
namespace {

using canvas::Rng;

std::vector<PageId> Fire(Prefetcher& p, CgroupId app, PageId page,
                         ThreadId tid = 0, SimTime now = 0) {
  std::vector<PageId> out;
  p.OnFault(FaultInfo{app, page, tid, now, false}, out);
  return out;
}

// --- Readahead ---

TEST(Readahead, SequentialPatternPrefetchesAhead) {
  ReadaheadPrefetcher p({ContextMode::kPerApp, 0});
  Fire(p, 1, 100);
  Fire(p, 1, 101);
  auto out = Fire(p, 1, 102);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out[0], 103u);
}

TEST(Readahead, WindowDoublesUpToMax) {
  ReadaheadPrefetcher p({ContextMode::kPerApp, 0});
  std::size_t prev = 0;
  PageId page = 0;
  Fire(p, 1, page++);
  for (int i = 0; i < 6; ++i) {
    auto out = Fire(p, 1, page++);
    EXPECT_GE(out.size(), prev);
    prev = out.size();
  }
  EXPECT_EQ(prev, 8u);  // capped at kMaxWindow
}

TEST(Readahead, StridedPatternDetected) {
  ReadaheadPrefetcher p({ContextMode::kPerApp, 0});
  Fire(p, 1, 0);
  Fire(p, 1, 7);
  auto out = Fire(p, 1, 14);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out[0], 21u);
  EXPECT_TRUE(out.size() < 2 || out[1] == 28u);
}

TEST(Readahead, BrokenPatternShrinksToNothing) {
  ReadaheadPrefetcher p({ContextMode::kPerApp, 0});
  Fire(p, 1, 0);
  Fire(p, 1, 1);
  Fire(p, 1, 2);
  EXPECT_FALSE(Fire(p, 1, 3).empty());
  // Random jumps: window halves until no prefetch at all.
  Rng rng(5);
  std::size_t last = 99;
  for (int i = 0; i < 10; ++i) last = Fire(p, 1, rng.NextBounded(100000)).size();
  EXPECT_EQ(last, 0u);
}

TEST(Readahead, NegativeStrideClampsAtZero) {
  ReadaheadPrefetcher p({ContextMode::kPerApp, 0});
  Fire(p, 1, 10);
  Fire(p, 1, 5);
  auto out = Fire(p, 1, 0);
  // Candidates below page 0 are not emitted.
  EXPECT_TRUE(out.empty());
}

TEST(Readahead, GlobalModeMixesApplications) {
  // The shared-detector interference of Figure 3: interleaved faults from
  // two apps destroy each other's sequential patterns.
  ReadaheadPrefetcher global({ContextMode::kGlobal, 0});
  ReadaheadPrefetcher isolated({ContextMode::kPerApp, 0});
  std::size_t global_pf = 0, isolated_pf = 0;
  Rng rng(3);
  PageId a = 0, b = 50000;
  for (int i = 0; i < 200; ++i) {
    global_pf += Fire(global, 1, a).size();
    global_pf += Fire(global, 2, b).size();
    isolated_pf += Fire(isolated, 1, a).size();
    isolated_pf += Fire(isolated, 2, b).size();
    ++a;
    b += 3;
  }
  EXPECT_GT(isolated_pf, global_pf * 5);
}

TEST(Readahead, VmaZonesSeparateThreadRegions) {
  // Two threads scanning different 1024-page zones of the SAME app keep
  // independent detectors under the per-VMA policy.
  ReadaheadPrefetcher zoned({ContextMode::kPerApp, 1024});
  ReadaheadPrefetcher flat({ContextMode::kPerApp, 0});
  std::size_t zoned_pf = 0, flat_pf = 0;
  PageId a = 0, b = 8192;
  for (int i = 0; i < 100; ++i) {
    zoned_pf += Fire(zoned, 1, a).size();
    zoned_pf += Fire(zoned, 1, b).size();
    flat_pf += Fire(flat, 1, a).size();
    flat_pf += Fire(flat, 1, b).size();
    ++a;
    ++b;
  }
  EXPECT_GT(zoned_pf, flat_pf * 3);
}

// --- Leap ---

TEST(Leap, MajorityVoteFindsStride) {
  LeapPrefetcher p({ContextMode::kPerApp, 8});
  PageId page = 0;
  std::vector<PageId> out;
  for (int i = 0; i < 8; ++i) {
    out = Fire(p, 1, page);
    page += 3;
  }
  ASSERT_FALSE(out.empty());
  // Prefetches follow the majority stride (+3).
  EXPECT_EQ(out[0] % 3, (page - 3 + 3) % 3);
  EXPECT_EQ(out[0], page - 3 + 3);
  EXPECT_GT(p.trend_hits(), 0u);
}

TEST(Leap, SurvivesMinorityNoise) {
  LeapPrefetcher p({ContextMode::kPerApp, 8});
  Rng rng(9);
  PageId page = 1000;
  std::vector<PageId> out;
  for (int i = 0; i < 40; ++i) {
    // 70% stride-1, 30% random jumps: majority still wins.
    if (rng.NextBool(0.7)) {
      page += 1;
    } else {
      page = rng.NextBounded(100000);
    }
    out = Fire(p, 1, page);
  }
  EXPECT_GT(p.trend_hits(), 5u);
}

TEST(Leap, AggressiveFallbackWithoutPattern) {
  LeapPrefetcher p({ContextMode::kPerApp, 8});
  Rng rng(7);
  std::size_t total = 0;
  for (int i = 0; i < 50; ++i)
    total += Fire(p, 1, rng.NextBounded(1 << 30)).size();
  // Unlike readahead, Leap keeps prefetching contiguous runs with no
  // pattern — the aggressiveness Table 5 penalizes.
  EXPECT_GT(p.fallbacks(), 20u);
  EXPECT_GT(total, 100u);
}

TEST(Leap, FallbackPrefetchesContiguousRun) {
  LeapPrefetcher p({ContextMode::kPerApp, 4});
  Rng rng(7);
  std::vector<PageId> out;
  PageId last = 0;
  for (int i = 0; i < 30; ++i) {
    last = rng.NextBounded(1 << 20);
    out = Fire(p, 1, last);
  }
  ASSERT_EQ(out.size(), 4u);
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i], last + i + 1);
}

TEST(Leap, GlobalModePollutedByCorunners) {
  LeapPrefetcher global({ContextMode::kGlobal, 8});
  PageId a = 0;
  Rng rng(13);
  std::uint64_t trend_hits_before;
  for (int i = 0; i < 100; ++i) {
    Fire(global, 1, a++);                            // sequential app
    Fire(global, 2, rng.NextBounded(1 << 30));       // random app
  }
  trend_hits_before = global.trend_hits();
  // Interleaved deltas alternate stream/random: majority vote cannot find
  // the sequential app's trend.
  EXPECT_EQ(trend_hits_before, 0u);
}

// --- Two-tier ---

class TwoTierTest : public ::testing::Test {
 protected:
  TwoTierTest() : p_(Cfg()) {
    info_.RegisterThread(1, runtime::ThreadKind::kApplication);
    info_.RegisterThread(2, runtime::ThreadKind::kApplication);
    for (ThreadId t = 3; t < 11; ++t)
      info_.RegisterThread(t, runtime::ThreadKind::kApplication);
    info_.RegisterThread(99, runtime::ThreadKind::kGc);
  }

  static TwoTierPrefetcher::Config Cfg() {
    TwoTierPrefetcher::Config cfg;
    cfg.consecutive_faults = 3;
    cfg.many_threads = 8;
    return cfg;
  }

  std::vector<PageId> Fault(PageId page, ThreadId tid) {
    std::vector<PageId> out;
    p_.OnFault(FaultInfo{7, page, tid, 0, false}, out);
    return out;
  }

  runtime::RuntimeInfo info_;
  TwoTierPrefetcher p_;
};

TEST_F(TwoTierTest, ForwardingStartsAfterNIneffectiveFaults) {
  p_.RegisterApp(7, &info_, true);
  Rng rng(5);
  EXPECT_FALSE(p_.IsForwarding(7));
  for (int i = 0; i < 4; ++i) Fault(rng.NextBounded(1 << 30), 1);
  EXPECT_TRUE(p_.IsForwarding(7));
  EXPECT_GT(p_.forwarded_faults(), 0u);
}

TEST_F(TwoTierTest, ForwardingStopsWhenKernelTierRecovers) {
  p_.RegisterApp(7, &info_, true);
  Rng rng(5);
  for (int i = 0; i < 5; ++i) Fault(rng.NextBounded(1 << 30), 1);
  ASSERT_TRUE(p_.IsForwarding(7));
  // Sequential faults re-establish the kernel tier.
  for (PageId pg = 1000; pg < 1010; ++pg) Fault(pg, 1);
  EXPECT_FALSE(p_.IsForwarding(7));
}

TEST_F(TwoTierTest, GcThreadsGetNoAppTierPrefetch) {
  p_.RegisterApp(7, &info_, true);
  info_.RecordReference(500, 900);
  Rng rng(5);
  for (int i = 0; i < 4; ++i) Fault(rng.NextBounded(1 << 30), 99);
  ASSERT_TRUE(p_.IsForwarding(7));
  auto out = Fault(500, 99);  // GC thread fault near recorded refs
  EXPECT_TRUE(out.empty());
}

TEST_F(TwoTierTest, ReferenceBasedFollowsSummaryGraph) {
  p_.RegisterApp(7, &info_, true);
  info_.RecordReference(500, 900);
  info_.RecordReference(900, 1300);
  Rng rng(5);
  for (int i = 0; i < 4; ++i) Fault(rng.NextBounded(1 << 30), 1);
  auto out = Fault(500, 1);
  // Pages of the groups holding 900 (1 hop) and 1300 (2 hops) appear.
  EXPECT_NE(std::find(out.begin(), out.end(), 900u), out.end());
  EXPECT_NE(std::find(out.begin(), out.end(), 1300u), out.end());
  EXPECT_GT(p_.ref_tier_prefetches(), 0u);
}

TEST_F(TwoTierTest, ThreadBasedForLargeArrayFaults) {
  p_.RegisterApp(7, &info_, true);
  info_.RegisterLargeArray(10000, 900);
  // Threads 2 and 3 stride through the SAME VMA zone of the array: their
  // interleaved faults break the kernel tier's zone detector (alternating
  // deltas), so faults get forwarded and the per-thread majority vote
  // recovers each thread's stride — the §5.2 thread-based analysis.
  std::vector<PageId> out2, out;
  PageId a = 10000, b = 10001;
  for (int i = 0; i < 12; ++i) {
    out2 = Fault(a, 2);
    out = Fault(b, 3);
    a += 4;
    b += 6;
  }
  EXPECT_TRUE(p_.IsForwarding(7));
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out[0], b - 6 + 6);  // next page along thread 3's stride
  EXPECT_GT(p_.thread_tier_prefetches(), 0u);
}

TEST_F(TwoTierTest, NativeAppUsesThreadBasedOnly) {
  runtime::RuntimeInfo native;
  native.RegisterThread(1, runtime::ThreadKind::kApplication);
  native.RecordReference(500, 900);  // even if edges exist...
  TwoTierPrefetcher p(Cfg());
  p.RegisterApp(3, &native, /*managed=*/false);
  std::vector<PageId> out;
  Rng rng(5);
  for (int i = 0; i < 4; ++i) {
    out.clear();
    p.OnFault(FaultInfo{3, rng.NextBounded(1 << 30), 1, 0, false}, out);
  }
  out.clear();
  p.OnFault(FaultInfo{3, 500, 1, 0, false}, out);
  // ...the reference tier never runs for native apps.
  EXPECT_EQ(std::find(out.begin(), out.end(), 900u), out.end());
  EXPECT_EQ(p.ref_tier_prefetches(), 0u);
}

TEST_F(TwoTierTest, UnregisteredAppFallsBackToKernelTier) {
  // No RegisterApp: kernel tier still works.
  Fault(100, 1);
  Fault(101, 1);
  auto out = Fault(102, 1);
  EXPECT_FALSE(out.empty());
  EXPECT_FALSE(p_.IsForwarding(7));
}

TEST_F(TwoTierTest, AccuracyGateClosesAppTier) {
  auto cfg = Cfg();
  cfg.accuracy_min_samples = 8;
  cfg.min_accuracy = 0.5;
  cfg.reprobe_interval = 1000000;  // effectively never re-probe
  TwoTierPrefetcher p(cfg);
  p.RegisterApp(7, &info_, true);
  info_.RecordReference(500, 900);
  // Report terrible accuracy.
  for (int i = 0; i < 20; ++i) p.OnPrefetchWasted(7, 0);
  Rng rng(5);
  std::vector<PageId> out;
  for (int i = 0; i < 4; ++i) {
    out.clear();
    p.OnFault(FaultInfo{7, rng.NextBounded(1 << 30), 1, 0, false}, out);
  }
  out.clear();
  p.OnFault(FaultInfo{7, 500, 1, 0, false}, out);
  EXPECT_TRUE(out.empty());  // gate closed
}

TEST_F(TwoTierTest, AccuracyGateReopensOnProbe) {
  auto cfg = Cfg();
  cfg.accuracy_min_samples = 8;
  cfg.min_accuracy = 0.5;
  cfg.reprobe_interval = 5;
  TwoTierPrefetcher p(cfg);
  p.RegisterApp(7, &info_, true);
  info_.RecordReference(500, 900);
  for (int i = 0; i < 20; ++i) p.OnPrefetchWasted(7, 0);
  Rng rng(5);
  std::vector<PageId> out;
  // Enough forwarded faults to cross the reprobe interval.
  for (int i = 0; i < 12; ++i) {
    out.clear();
    p.OnFault(FaultInfo{7, rng.NextBounded(1 << 30), 1, 0, false}, out);
  }
  out.clear();
  p.OnFault(FaultInfo{7, 500, 1, 0, false}, out);
  EXPECT_FALSE(out.empty());  // probe reopened the tier
}

}  // namespace
}  // namespace canvas::prefetch
