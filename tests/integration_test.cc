// Integration tests: multi-application co-runs across the full stack,
// checking the paper's qualitative results hold on scaled-down workloads.
#include <gtest/gtest.h>

#include "core/experiment.h"
#include "workload/apps.h"
#include "workload/patterns.h"

namespace canvas::core {
namespace {

AppSpec Spec(const std::string& name, double scale, double ratio,
             std::uint32_t cores, std::uint64_t seed = 7) {
  workload::AppParams p;
  p.scale = scale;
  p.seed = seed;
  auto w = workload::MakeByName(name, p);
  auto cg = workload::CgroupFor(w, ratio, cores);
  return AppSpec{std::move(w), std::move(cg)};
}

std::vector<AppSpec> CorunSet(double scale) {
  std::vector<AppSpec> apps;
  apps.push_back(Spec("spark-lr", scale, 0.25, 24));
  apps.push_back(Spec("snappy", scale, 0.25, 1));
  apps.push_back(Spec("memcached", scale, 0.25, 4));
  apps.push_back(Spec("xgboost", scale, 0.25, 16));
  return apps;
}

constexpr double kScale = 0.15;

SimTime SoloTime(const std::string& name, std::uint32_t cores,
                 const SystemConfig& cfg) {
  std::vector<AppSpec> apps;
  apps.push_back(Spec(name, kScale, 0.25, cores));
  Experiment e(cfg, std::move(apps));
  EXPECT_TRUE(e.Run());
  return e.FinishTime(0);
}

TEST(Corun, AllSystemsCompleteAndQuiesce) {
  for (auto mk : {SystemConfig::Linux55, SystemConfig::Infiniswap,
                  SystemConfig::InfiniswapLeap, SystemConfig::Fastswap,
                  SystemConfig::CanvasIsolation, SystemConfig::CanvasFull}) {
    Experiment e(mk(), CorunSet(kScale));
    EXPECT_TRUE(e.Run()) << mk().name;
    EXPECT_TRUE(e.system().Quiescent()) << mk().name;
    for (std::size_t i = 0; i < e.system().app_count(); ++i)
      EXPECT_GT(e.FinishTime(i), 0u) << mk().name;
  }
}

TEST(Corun, InterferenceSlowsVictimsOnLinux) {
  // The §3 motivation: co-running slows latency-sensitive small apps
  // dramatically on the shared swap system.
  SimTime solo = SoloTime("memcached", 4, SystemConfig::Linux55());
  Experiment e(SystemConfig::Linux55(), CorunSet(kScale));
  ASSERT_TRUE(e.Run());
  double slowdown = Slowdown(e.FinishTime(2), solo);  // index 2 = memcached
  EXPECT_GT(slowdown, 1.5);
}

TEST(Corun, CanvasReducesVictimSlowdown) {
  SimTime solo = SoloTime("memcached", 4, SystemConfig::Linux55());
  Experiment linux(SystemConfig::Linux55(), CorunSet(kScale));
  Experiment canvas(SystemConfig::CanvasFull(), CorunSet(kScale));
  ASSERT_TRUE(linux.Run());
  ASSERT_TRUE(canvas.Run());
  double linux_sd = Slowdown(linux.FinishTime(2), solo);
  double canvas_sd = Slowdown(canvas.FinishTime(2), solo);
  EXPECT_LT(canvas_sd, linux_sd);
}

TEST(Corun, IsolationAloneReducesSlowdown) {
  SimTime solo = SoloTime("memcached", 4, SystemConfig::Linux55());
  Experiment linux(SystemConfig::Linux55(), CorunSet(kScale));
  Experiment iso(SystemConfig::CanvasIsolation(), CorunSet(kScale));
  ASSERT_TRUE(linux.Run());
  ASSERT_TRUE(iso.Run());
  EXPECT_LT(Slowdown(iso.FinishTime(2), solo),
            Slowdown(linux.FinishTime(2), solo));
}

TEST(Corun, CanvasImprovesFairness) {
  Experiment linux(SystemConfig::Linux55(), CorunSet(kScale));
  Experiment canvas(SystemConfig::CanvasFull(), CorunSet(kScale));
  ASSERT_TRUE(linux.Run());
  ASSERT_TRUE(canvas.Run());
  EXPECT_GT(canvas.system().Wmmr(rdma::Direction::kIngress),
            linux.system().Wmmr(rdma::Direction::kIngress));
}

TEST(Corun, PerCgroupPartitionsInIsolatedMode) {
  Experiment e(SystemConfig::CanvasFull(), CorunSet(kScale));
  ASSERT_TRUE(e.Run());
  // Each app has its own partition object with its own capacity.
  EXPECT_NE(&e.system().partition(0), &e.system().partition(1));
  EXPECT_NE(&e.system().cache(0), &e.system().cache(1));
}

TEST(Corun, SharedPartitionInLinuxMode) {
  Experiment e(SystemConfig::Linux55(), CorunSet(kScale));
  ASSERT_TRUE(e.Run());
  EXPECT_EQ(&e.system().partition(0), &e.system().partition(1));
  EXPECT_EQ(&e.system().cache(0), &e.system().cache(3));
}

TEST(Corun, HorizontalSchedulingDropsStalePrefetches) {
  Experiment e(SystemConfig::CanvasFull(), CorunSet(kScale));
  ASSERT_TRUE(e.Run());
  // Under co-run pressure some prefetches exceed their timeliness budget.
  std::uint64_t total_issued = 0;
  for (std::size_t i = 0; i < e.system().app_count(); ++i)
    total_issued += e.system().metrics(i).prefetch_issued;
  EXPECT_GT(total_issued, 0u);
  // Drop counter wired through (may be zero on lucky runs, so only check
  // the accounting identity per app).
  for (std::size_t i = 0; i < e.system().app_count(); ++i) {
    const auto& m = e.system().metrics(i);
    EXPECT_LE(m.prefetch_completed + m.prefetch_dropped +
                  m.prefetch_discarded,
              m.prefetch_issued);
  }
}

TEST(Corun, PerAppBandwidthAccounted) {
  Experiment e(SystemConfig::CanvasFull(), CorunSet(kScale));
  ASSERT_TRUE(e.Run());
  double total = 0;
  for (std::size_t i = 0; i < e.system().app_count(); ++i)
    total += e.system().nic().cgroup_bytes(e.system().cgroup_of(i),
                                           rdma::Direction::kIngress);
  double global = double(e.system().nic().bytes(rdma::Direction::kIngress));
  // Per-cgroup ingress bytes (plus shared-cgroup traffic) sum to the total.
  EXPECT_LE(total, global + 1.0);
  EXPECT_GT(total, global * 0.9);
}

TEST(Corun, DeterministicAcrossRuns) {
  Experiment a(SystemConfig::CanvasFull(), CorunSet(kScale));
  Experiment b(SystemConfig::CanvasFull(), CorunSet(kScale));
  ASSERT_TRUE(a.Run());
  ASSERT_TRUE(b.Run());
  for (std::size_t i = 0; i < a.system().app_count(); ++i)
    EXPECT_EQ(a.FinishTime(i), b.FinishTime(i));
}

TEST(Corun, TwoManagedAppsCoexist) {
  std::vector<AppSpec> apps;
  apps.push_back(Spec("cassandra", kScale, 0.25, 24));
  apps.push_back(Spec("neo4j", kScale, 0.25, 24));
  Experiment e(SystemConfig::CanvasFull(), std::move(apps));
  EXPECT_TRUE(e.Run());
  EXPECT_TRUE(e.system().Quiescent());
}

TEST(Corun, FiftyPercentMemoryHelpsTheLatencySensitiveApp) {
  auto build = [](double ratio) {
    std::vector<AppSpec> apps;
    apps.push_back(Spec("spark-km", kScale, ratio, 24));
    apps.push_back(Spec("memcached", kScale, ratio, 4));
    return apps;
  };
  Experiment poor(SystemConfig::CanvasFull(), build(0.25));
  Experiment rich(SystemConfig::CanvasFull(), build(0.50));
  ASSERT_TRUE(poor.Run());
  ASSERT_TRUE(rich.Run());
  // Memcached (Zipfian, latency-sensitive) reliably benefits from more
  // local memory. Spark-KM's mid-range is subject to the reclaim-
  // parallelism artifact (see EXPERIMENTS.md), so only an envelope holds.
  EXPECT_LT(rich.FinishTime(1), poor.FinishTime(1));
  EXPECT_LT(double(rich.FinishTime(0)), double(poor.FinishTime(0)) * 2.5);
}

/// A scan thread that records when it drained its stream.
class DrainFlagStream : public workload::ThreadStream {
 public:
  DrainFlagStream(workload::SequentialScanStream::Params p, bool* drained)
      : scan_(p), drained_(drained) {}
  std::optional<workload::Access> Next() override {
    auto acc = scan_.Next();
    if (!acc) *drained_ = true;
    return acc;
  }

 private:
  workload::SequentialScanStream scan_;
  bool* drained_;
};

TEST(Experiment, PartlyFinishedAppReportsNoFinishTime) {
  // One app, two scan threads: a short one over 8 pages and a long one of
  // 20 passes over 512 pages with a quarter of them local.
  auto run = [](SimTime deadline, bool* short_done, bool* long_done) {
    workload::AppWorkload w;
    w.name = "two-threads";
    w.footprint_pages = 520;
    w.runtime = std::make_shared<runtime::RuntimeInfo>();
    workload::SequentialScanStream::Params sp;
    sp.region = {0, 8};
    w.threads.push_back(std::make_unique<DrainFlagStream>(sp, short_done));
    sp.region = {8, 512};
    sp.passes = 20;
    w.threads.push_back(std::make_unique<DrainFlagStream>(sp, long_done));
    CgroupSpec cg;
    cg.name = w.name;
    cg.local_mem_pages = 128;
    cg.swap_entry_limit = 1024;
    cg.swap_cache_pages = 64;
    cg.cores = 2;
    std::vector<AppSpec> apps;
    apps.push_back(AppSpec{std::move(w), std::move(cg)});
    auto e = std::make_unique<Experiment>(SystemConfig::CanvasFull(),
                                          std::move(apps), deadline);
    e->Run();
    return e;
  };
  bool short_done = false, long_done = false;
  auto full = run(600 * kSecond, &short_done, &long_done);
  ASSERT_TRUE(short_done && long_done);
  SimTime finish = full->FinishTime(0);
  ASSERT_GT(finish, 1 * kMillisecond);

  // A deadline after the short thread drained but before the long one did.
  short_done = long_done = false;
  auto cut = run(1 * kMillisecond, &short_done, &long_done);
  ASSERT_TRUE(short_done);
  ASSERT_FALSE(long_done);
  EXPECT_FALSE(cut->system().AllFinished());
  EXPECT_EQ(cut->FinishTime(0), 0u);
}

}  // namespace
}  // namespace canvas::core
