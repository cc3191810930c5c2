// Targeted fault-path scenario tests: the §5.3 drop/rescue protocol,
// writeback blocking, shared-page routing, kswapd watermark behaviour, and
// stale-completion safety. Scenarios are built from small custom streams so
// each mechanism is driven deterministically.
#include <gtest/gtest.h>

#include "core/experiment.h"
#include "workload/apps.h"
#include "workload/patterns.h"

namespace canvas::core {
namespace {

using workload::Access;
using workload::SequentialScanStream;
using workload::ThreadStream;

/// Stream replaying an explicit access list.
class ListStream : public workload::ThreadStream {
 public:
  explicit ListStream(std::vector<Access> accesses)
      : accesses_(std::move(accesses)) {}
  std::optional<Access> Next() override {
    if (idx_ >= accesses_.size()) return std::nullopt;
    return accesses_[idx_++];
  }

 private:
  std::vector<Access> accesses_;
  std::size_t idx_ = 0;
};

AppSpec CustomApp(std::vector<std::unique_ptr<ThreadStream>> threads,
                  PageId pages, std::uint64_t local, std::uint64_t swap,
                  double shared_fraction = 0.0) {
  workload::AppWorkload w;
  w.name = "custom";
  w.footprint_pages = pages;
  w.shared_fraction = shared_fraction;
  w.runtime = std::make_shared<runtime::RuntimeInfo>();
  for (auto& t : threads) {
    w.threads.push_back(std::move(t));
    w.thread_kinds.push_back(runtime::ThreadKind::kApplication);
  }
  CgroupSpec cg;
  cg.name = "custom";
  cg.local_mem_pages = local;
  cg.swap_entry_limit = swap;
  cg.swap_cache_pages = 64;
  cg.cores = 4;
  return AppSpec{std::move(w), std::move(cg)};
}

std::vector<AppSpec> One(AppSpec s) {
  std::vector<AppSpec> v;
  v.push_back(std::move(s));
  return v;
}

/// A scan whose working set far exceeds local memory, repeated.
std::vector<std::unique_ptr<ThreadStream>> ScanThreads(int n, PageId pages,
                                                       std::uint32_t passes,
                                                       double write = 0.5) {
  std::vector<std::unique_ptr<ThreadStream>> out;
  for (int t = 0; t < n; ++t) {
    SequentialScanStream::Params p;
    p.region = {PageId(t) * (pages / PageId(n)), pages / PageId(n)};
    p.passes = passes;
    p.write_fraction = write;
    p.seed = std::uint64_t(t) + 1;
    out.push_back(std::make_unique<SequentialScanStream>(p));
  }
  return out;
}

TEST(FaultPath, WritebackBlockedFaultsResolve) {
  // Threads repeatedly fault on pages that may be mid-writeback; all
  // accesses must still complete (waiter wake + re-fault path).
  std::vector<Access> hot;
  for (int r = 0; r < 200; ++r)
    for (PageId p = 0; p < 64; ++p) hot.push_back({p, true, 100});
  std::vector<std::unique_ptr<ThreadStream>> threads;
  threads.push_back(std::make_unique<ListStream>(hot));
  threads.push_back(std::make_unique<ListStream>(hot));
  Experiment e(SystemConfig::CanvasFull(),
               One(CustomApp(std::move(threads), 64, 16, 80)));
  ASSERT_TRUE(e.Run());
  EXPECT_TRUE(e.system().Quiescent());
  EXPECT_EQ(e.system().metrics(0).accesses, 2u * 200u * 64u);
}

TEST(FaultPath, RescueFiresWhenPrefetchesStall) {
  // A tiny NIC makes prefetches slow; with horizontal scheduling, threads
  // faulting on in-flight prefetched pages rescue themselves via demand
  // requests (§5.3).
  auto cfg = SystemConfig::CanvasFull();
  cfg.prefetcher = PrefetcherKind::kLeap;  // volume
  cfg.prefetcher_shared_state = false;
  cfg.nic.bandwidth_bytes_per_sec = 2e8;  // 20us per page: very slow
  cfg.timeliness.initial_threshold = 30 * kMicrosecond;
  cfg.timeliness.floor = 30 * kMicrosecond;
  cfg.timeliness.ceiling = 60 * kMicrosecond;
  Experiment e(cfg, One(CustomApp(ScanThreads(4, 1024, 4, 0.2), 1024, 256,
                                  1100)));
  ASSERT_TRUE(e.Run());
  const auto& m = e.system().metrics(0);
  EXPECT_GT(m.prefetch_issued, 100u);
  EXPECT_GT(m.rescues + m.prefetch_dropped + m.prefetch_discarded, 0u);
  EXPECT_TRUE(e.system().Quiescent());
}

TEST(FaultPath, DropsNeverStrandWaiters) {
  // Same stressed setup; every access must complete even when prefetches
  // are dropped while threads block on them.
  auto cfg = SystemConfig::CanvasFull();
  cfg.prefetcher = PrefetcherKind::kLeap;
  cfg.nic.bandwidth_bytes_per_sec = 2e8;
  cfg.timeliness.floor = 20 * kMicrosecond;
  cfg.timeliness.ceiling = 40 * kMicrosecond;
  auto spec = CustomApp(ScanThreads(4, 1024, 3, 0.2), 1024, 256, 1100);
  std::uint64_t expected = 0;
  {
    auto threads = ScanThreads(4, 1024, 3, 0.2);
    for (auto& t : threads)
      while (t->Next()) ++expected;
  }
  Experiment e(cfg, One(std::move(spec)));
  ASSERT_TRUE(e.Run());
  EXPECT_EQ(e.system().metrics(0).accesses, expected);
  EXPECT_TRUE(e.system().Quiescent());
}

TEST(FaultPath, SharedPagesFlowThroughGlobalResources) {
  // 25% of pages shared: they must be charged to the shared cgroup's cache
  // and swap through the global partition.
  Experiment e(SystemConfig::CanvasFull(),
               One(CustomApp(ScanThreads(2, 512, 3, 0.8), 512, 128, 600,
                             /*shared_fraction=*/0.25)));
  ASSERT_TRUE(e.Run());
  double shared_egress = e.system().nic().cgroup_bytes(
      e.system().shared_cgroup_id(), rdma::Direction::kEgress);
  EXPECT_GT(shared_egress, 0.0);
  EXPECT_TRUE(e.system().Quiescent());
}

TEST(FaultPath, SharedPagesNotPrefetched) {
  Experiment e(SystemConfig::CanvasFull(),
               One(CustomApp(ScanThreads(1, 512, 4, 0.1), 512, 128, 600,
                             /*shared_fraction=*/1.0)));
  ASSERT_TRUE(e.Run());
  // All pages shared: the private prefetch path is skipped entirely.
  EXPECT_EQ(e.system().metrics(0).prefetch_issued, 0u);
}

TEST(FaultPath, KswapdKeepsHeadroom) {
  auto cfg = SystemConfig::CanvasFull();
  cfg.kswapd_headroom = 24;
  Experiment e(cfg, One(CustomApp(ScanThreads(2, 1024, 2, 0.5), 1024, 256,
                                  1100)));
  ASSERT_TRUE(e.Run());
  const Cgroup& cg = e.system().cgroup(0);
  // After quiescence, background reclaim has restored the watermark.
  EXPECT_LE(cg.charged_pages() + cfg.kswapd_headroom,
            cg.spec().local_mem_pages + kReclaimBatch);
}

TEST(FaultPath, TinyCacheStillCompletes) {
  auto spec = CustomApp(ScanThreads(4, 1024, 3, 0.5), 1024, 256, 1200);
  spec.cgroup.swap_cache_pages = 8;  // pathological cache budget
  Experiment e(SystemConfig::CanvasFull(), One(std::move(spec)));
  EXPECT_TRUE(e.Run());
  EXPECT_TRUE(e.system().Quiescent());
}

TEST(FaultPath, SingleFrameAppMakesProgress) {
  // Degenerate: 2 frames of local memory, many pages.
  auto spec = CustomApp(ScanThreads(1, 64, 2, 0.5), 64, 2, 80);
  Experiment e(SystemConfig::Linux55(), One(std::move(spec)));
  EXPECT_TRUE(e.Run());
  EXPECT_EQ(e.system().metrics(0).accesses, 2u * 64u);
}

TEST(FaultPath, ZeroPrefetchConfigNeverRescues) {
  auto cfg = SystemConfig::CanvasFull();
  cfg.prefetcher = PrefetcherKind::kNone;
  Experiment e(cfg, One(CustomApp(ScanThreads(2, 512, 3, 0.5), 512, 128,
                                  600)));
  ASSERT_TRUE(e.Run());
  const auto& m = e.system().metrics(0);
  EXPECT_EQ(m.prefetch_issued, 0u);
  EXPECT_EQ(m.rescues, 0u);
  EXPECT_EQ(m.faults_minor_prefetched, 0u);
}

TEST(FaultPath, ReadOnlyWorkloadNeedsOneWritebackPerPage) {
  // Pure reads: each page is written back at most once (first eviction has
  // no remote copy); later evictions are clean drops or keep-threshold
  // rewrites, never growing past the structural bound.
  auto spec = CustomApp(ScanThreads(1, 512, 4, 0.0), 512, 128, 600);
  Experiment e(SystemConfig::CanvasFull(), One(std::move(spec)));
  ASSERT_TRUE(e.Run());
  const auto& m = e.system().metrics(0);
  EXPECT_GT(m.clean_drops, 0u);
  // First-touch pages are dirty by definition; afterwards reads stay clean.
  EXPECT_LT(m.swapouts, 512u * 2u);
}

TEST(FaultPath, WmmrPerfectForIdenticalApps) {
  // Two identical apps with equal weights: WMMR close to 1.
  std::vector<AppSpec> apps;
  for (int i = 0; i < 2; ++i) {
    auto spec = CustomApp(ScanThreads(2, 1024, 3, 0.5), 1024, 256, 1150);
    spec.cgroup.rdma_weight = 1.0;
    apps.push_back(std::move(spec));
  }
  Experiment e(SystemConfig::CanvasFull(), std::move(apps));
  ASSERT_TRUE(e.Run());
  EXPECT_GT(e.system().Wmmr(rdma::Direction::kIngress), 0.8);
}

TEST(FaultPath, MetricsAttributePerApp) {
  std::vector<AppSpec> apps;
  apps.push_back(CustomApp(ScanThreads(1, 256, 2, 0.5), 256, 64, 300));
  apps.push_back(CustomApp(ScanThreads(1, 1024, 2, 0.5), 1024, 256, 1150));
  Experiment e(SystemConfig::CanvasFull(), std::move(apps));
  ASSERT_TRUE(e.Run());
  // The bigger app does proportionally more work.
  EXPECT_GT(e.system().metrics(1).accesses,
            e.system().metrics(0).accesses * 3);
  EXPECT_GT(e.system().nic().cgroup_bytes(e.system().cgroup_of(1),
                                          rdma::Direction::kIngress),
            e.system().nic().cgroup_bytes(e.system().cgroup_of(0),
                                          rdma::Direction::kIngress));
}

TEST(FaultPath, HugeComputeMakesSwapIrrelevant) {
  // Compute-bound workload: runtime ~ busy time regardless of system.
  std::vector<Access> slow;
  for (PageId p = 0; p < 256; ++p) slow.push_back({p % 32, false, 50000});
  std::vector<std::unique_ptr<ThreadStream>> threads;
  threads.push_back(std::make_unique<ListStream>(slow));
  Experiment e(SystemConfig::Linux55(),
               One(CustomApp(std::move(threads), 32, 64, 64)));
  ASSERT_TRUE(e.Run());
  const auto& m = e.system().metrics(0);
  EXPECT_GE(m.finish_time, 256u * 50000u);
  EXPECT_LT(m.finish_time, 256u * 50000u * 11 / 10);
}

TEST(FaultPath, DeterministicUnderStress) {
  auto run = [] {
    auto cfg = SystemConfig::CanvasFull();
    cfg.prefetcher = PrefetcherKind::kLeap;
    cfg.nic.bandwidth_bytes_per_sec = 5e8;
    Experiment e(cfg, One(CustomApp(ScanThreads(4, 1024, 3, 0.5), 1024, 256,
                                    1150)));
    EXPECT_TRUE(e.Run());
    return e.FinishTime(0);
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace canvas::core
