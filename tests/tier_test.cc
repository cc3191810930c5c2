// Hybrid local tier test suite (DESIGN.md §14): preset registry, report
// schema gating (tier-off output must stay byte-for-byte schema v2),
// tiered determinism, and the tier invariants — single home (a page's
// swapped copy lives in exactly one of {tier, pool, disk}: mem::Page::home
// and swapalloc::EntryMeta::home agree, and the tier's resident index holds
// exactly the tier-homed pages; the disk half is also checked on runs
// without a tier), per-cgroup quotas never exceeded, and the
// content_version oracle holding across tier writebacks and blackout
// failover; a reap hands every retired tenant's tier residency back. Plus
// the local device's lane arithmetic and the --jobs byte-identity
// differential on tiered pooled sweeps.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "core/experiment.h"
#include "core/report.h"
#include "fault/fault_plan.h"
#include "fault/local_device.h"
#include "orchestrator/sweep.h"
#include "remote/pool.h"
#include "sim/simulator.h"
#include "tier/tier.h"
#include "workload/apps.h"

namespace canvas::core {
namespace {

AppSpec Spec(const std::string& name, double scale, double ratio,
             std::uint32_t cores, std::uint64_t seed) {
  workload::AppParams p;
  p.scale = scale;
  p.seed = seed;
  auto w = workload::MakeByName(name, p);
  auto cg = workload::CgroupFor(w, ratio, cores);
  return AppSpec{std::move(w), std::move(cg)};
}

std::vector<AppSpec> Corun(double scale, std::uint64_t seed) {
  std::vector<AppSpec> apps;
  apps.push_back(Spec("memcached", scale, 0.25, 4, seed));
  apps.push_back(Spec("snappy", scale, 0.25, 1, seed));
  return apps;
}

/// Drain in-flight writebacks and failback probes after the last thread
/// finishes (bounded; cf. fault_injection_test::Settle).
void Settle(Experiment& e) {
  e.simulator().RunUntil(e.simulator().Now() + 200 * kMillisecond);
}

/// Full report (CSV + JSON) for byte comparison.
std::string ReportOf(const Experiment& e) {
  std::ostringstream os;
  WriteCsv(os, e.system(), "run", /*header=*/true);
  WriteJson(os, e.system(), "run");
  return os.str();
}

// --- preset registry --------------------------------------------------------

TEST(TierConfig, PresetRegistry) {
  tier::TierConfig none = tier::TierConfig::FromName("none");
  EXPECT_FALSE(none.enabled());
  EXPECT_EQ(none.capacity_pages, 0u);

  tier::TierConfig cxl = tier::TierConfig::FromName("cxl");
  EXPECT_TRUE(cxl.enabled());
  EXPECT_EQ(cxl.name, "cxl");
  EXPECT_GT(cxl.capacity_pages, 0u);

  tier::TierConfig nvm = tier::TierConfig::FromName("nvm");
  EXPECT_TRUE(nvm.enabled());
  // NVM trades latency for capacity relative to the CXL preset.
  EXPECT_GT(nvm.latency, cxl.latency);
  EXPECT_GT(nvm.capacity_pages, cxl.capacity_pages);
  // Both presets stay far below the disk backstop's service latency, so
  // failover-to-tier beats failover-to-disk by construction.
  fault::LocalDevice::Config disk;
  EXPECT_LT(cxl.latency, disk.latency);
  EXPECT_LT(nvm.latency, disk.latency);

  EXPECT_THROW(tier::TierConfig::FromName("optane9000"),
               std::invalid_argument);
  EXPECT_EQ(tier::TierConfig::ListTiers().size(), 3u);
}

TEST(TierConfig, CgroupQuotaIsFractionOfCapacity) {
  tier::TierConfig cfg = tier::TierConfig::FromName("cxl");
  EXPECT_EQ(cfg.CgroupQuota(),
            std::uint64_t(double(cfg.capacity_pages) * cfg.quota_frac));
  cfg.capacity_pages = 1;
  cfg.quota_frac = 0.1;
  EXPECT_EQ(cfg.CgroupQuota(), 1u);  // never rounds down to zero
}

// --- report schema gating ---------------------------------------------------

TEST(TierReport, DisabledTierKeepsSchemaV2) {
  // The tier-off report must be indistinguishable from a pre-tier build:
  // schema v2, no tier columns, no tier JSON section — and an explicit
  // "none" preset must be byte-identical to an untouched config.
  SystemConfig cfg = SystemConfig::CanvasFull();
  Experiment plain(cfg, Corun(0.05, 7));
  ASSERT_TRUE(plain.Run());
  Settle(plain);
  std::string report = ReportOf(plain);

  EXPECT_EQ(report.rfind("# schema: v2", 0), 0u) << "CSV schema line";
  EXPECT_EQ(report.find("tier_"), std::string::npos);
  EXPECT_NE(report.find("\"schema_version\": 2"), std::string::npos);
  EXPECT_EQ(report.find("\"tier\""), std::string::npos);

  SystemConfig explicit_none = SystemConfig::CanvasFull();
  explicit_none.tier = tier::TierConfig::FromName("none");
  Experiment none(explicit_none, Corun(0.05, 7));
  ASSERT_TRUE(none.Run());
  Settle(none);
  EXPECT_EQ(ReportOf(none), report);
}

TEST(TierReport, EnabledTierEmitsSchemaV3) {
  SystemConfig cfg = SystemConfig::CanvasFull();
  cfg.tier = tier::TierConfig::FromName("cxl");
  Experiment e(cfg, Corun(0.05, 7));
  ASSERT_TRUE(e.Run());
  Settle(e);
  std::string report = ReportOf(e);

  EXPECT_EQ(report.rfind("# schema: v3", 0), 0u) << "CSV schema line";
  EXPECT_NE(report.find("tier_swapins"), std::string::npos);
  EXPECT_NE(report.find("\"schema_version\": 3"), std::string::npos);
  EXPECT_NE(report.find("\"tier\""), std::string::npos);
  EXPECT_NE(report.find("\"preset\": \"cxl\""), std::string::npos);
  ASSERT_NE(e.system().tier(), nullptr);
  // The tier actually absorbed writebacks (it is first in the writeback
  // path, not a dead config knob).
  EXPECT_GT(e.system().tier()->device().writes(), 0u);
}

// --- determinism ------------------------------------------------------------

TEST(TierDeterminism, SameSeedSameBytes) {
  // Tiered run under a fault plan (blackout drives failover-to-tier, a
  // tier-latency window exercises the tier's own fault hooks): two runs
  // with the same seed must produce byte-identical reports.
  SystemConfig cfg = SystemConfig::CanvasFull();
  cfg.tier = tier::TierConfig::FromName("cxl");
  auto plan = std::make_shared<fault::FaultPlan>();
  plan->AddBlackout(1 * kMillisecond, 6 * kMillisecond);
  plan->AddTierLatencySpike(2 * kMillisecond, 4 * kMillisecond,
                            10 * kMicrosecond);
  cfg.fault_plan = plan;

  std::string first;
  for (int rep = 0; rep < 2; ++rep) {
    Experiment e(cfg, Corun(0.05, 7));
    ASSERT_TRUE(e.Run());
    Settle(e);
    if (rep == 0)
      first = ReportOf(e);
    else
      EXPECT_EQ(ReportOf(e), first);
  }
  EXPECT_FALSE(first.empty());
}

// --- tier invariants --------------------------------------------------------

/// Walk every page of every app and check the single-home mirrors: a page
/// with a swap entry has the home its entry metadata records, a tier-homed
/// page has an entry and is never shared, and the tier's resident index
/// (when there is a tier) is exactly the set of tier-homed pages. Returns
/// how many pages with an entry are homed on each backend, indexed by
/// SwapBackend, so a caller can check the walk was not vacuous.
std::array<std::uint64_t, 3> CheckResidencyMirrors(const SwapSystem& sys) {
  const tier::TierBackend* t = sys.tier();
  std::array<std::uint64_t, 3> homed{};
  std::uint64_t tier_homed = 0;
  for (std::size_t app = 0; app < sys.app_count(); ++app) {
    for (PageId p = 0; p < sys.page_count(app); ++p) {
      const mem::Page& pg = sys.page(app, p);
      bool on_tier = pg.home == SwapBackend::kLocalTier;
      EXPECT_EQ(t && t->Contains(PackAppPage(CgroupId(app), p)), on_tier)
          << "app " << app << " page " << p;
      if (on_tier) {
        ++tier_homed;
        EXPECT_FALSE(pg.shared) << "app " << app << " page " << p;
        EXPECT_NE(pg.entry, kInvalidEntry) << "app " << app << " page " << p;
      }
      if (pg.entry == kInvalidEntry) continue;
      const swapalloc::SwapPartition& part =
          pg.shared ? sys.shared_partition() : sys.partition(app);
      EXPECT_EQ(part.meta(pg.entry).home, pg.home)
          << "app " << app << " page " << p;
      ++homed[std::size_t(pg.home)];
    }
  }
  if (t) {
    EXPECT_EQ(t->used_pages(), tier_homed);
    EXPECT_LE(t->used_pages(), t->config().capacity_pages);
    EXPECT_LE(t->peak_used(), t->config().capacity_pages);
  }
  return homed;
}

TEST(TierProperty, SingleResidencyMirrorsAfterChurn) {
  // A deliberately tiny tier forces constant admit/reject/release churn;
  // at quiescence every mirror of residency must agree.
  SystemConfig cfg = SystemConfig::CanvasFull();
  tier::TierConfig tiny;
  tiny.capacity_pages = 256;
  tiny.name = "tiny";
  cfg.tier = tiny;
  Experiment e(cfg, Corun(0.08, 7));
  ASSERT_TRUE(e.Run());
  Settle(e);
  EXPECT_TRUE(e.system().Quiescent());
  CheckResidencyMirrors(e.system());
  // The bound actually bound: the co-run's footprint dwarfs 256 pages, so
  // the tier must have turned writebacks away.
  std::uint64_t rejects = 0;
  for (std::size_t i = 0; i < e.system().app_count(); ++i)
    rejects += e.system().metrics(i).tier_rejects;
  EXPECT_GT(rejects, 0u);
}

TEST(TierProperty, CgroupQuotaNeverExceeded) {
  SystemConfig cfg = SystemConfig::CanvasFull();
  tier::TierConfig tiny;
  tiny.capacity_pages = 128;
  tiny.quota_frac = 0.5;
  tiny.name = "tiny";
  cfg.tier = tiny;
  Experiment e(cfg, Corun(0.08, 7));
  ASSERT_TRUE(e.Run());
  Settle(e);
  const tier::TierBackend* t = e.system().tier();
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->quota(), 64u);
  for (std::size_t i = 0; i < e.system().app_count(); ++i)
    EXPECT_LE(t->cgroup_used(e.system().cgroup_of(i)), t->quota())
        << e.system().app_name(i);
  EXPECT_LE(t->used_pages(), tiny.capacity_pages);
  EXPECT_LE(t->peak_used(), tiny.capacity_pages);
}

TEST(TierProperty, OracleHoldsAcrossTierWritebackAndFailover) {
  // Blackout long enough to exhaust retries: cgroups fail over to the
  // tier (not the disk), keep running at tier latency, fail back after
  // the fabric heals — with zero stale reads across every tier writeback,
  // tier read and failover transition, and residency mirrors intact.
  SystemConfig cfg = SystemConfig::CanvasFull();
  cfg.tier = tier::TierConfig::FromName("cxl");
  auto plan = std::make_shared<fault::FaultPlan>();
  plan->AddBlackout(1 * kMillisecond, 8 * kMillisecond);
  cfg.fault_plan = plan;
  Experiment e(cfg, Corun(0.05, 7));
  ASSERT_TRUE(e.Run());
  Settle(e);
  EXPECT_TRUE(e.system().Quiescent());

  std::uint64_t stale = 0, tier_failovers = 0, failovers = 0, disk_out = 0,
                disk_in = 0, tier_in = 0, tier_out = 0, rescues = 0,
                dropped = 0, discarded = 0, exhausted = 0;
  for (std::size_t i = 0; i < e.system().app_count(); ++i) {
    const AppMetrics& m = e.system().metrics(i);
    stale += m.stale_reads;
    tier_failovers += m.tier_failovers;
    failovers += m.failovers;
    disk_out += m.disk_swapouts;
    disk_in += m.disk_swapins;
    tier_in += m.tier_swapins;
    tier_out += m.tier_swapouts;
    rescues += m.rescues;
    dropped += m.prefetch_dropped;
    discarded += m.prefetch_discarded;
    exhausted += m.rdma_exhausted;
  }
  EXPECT_EQ(stale, 0u);
  EXPECT_GE(failovers, 1u);
  // With a tier configured, every failover lands on the tier, not disk.
  EXPECT_EQ(tier_failovers, failovers);
  EXPECT_EQ(disk_out, 0u);
  EXPECT_GT(tier_out, 0u);
  EXPECT_GT(tier_in, 0u);
  // Exact routing totals: a change to how a read or writeback picks its
  // backend moves at least one of these.
  EXPECT_EQ(tier_in, 3023u);
  EXPECT_EQ(tier_out, 3422u);
  EXPECT_EQ(disk_in, 0u);
  EXPECT_EQ(rescues, 0u);
  EXPECT_EQ(dropped, 0u);
  EXPECT_EQ(discarded, 0u);
  EXPECT_EQ(exhausted, 0u);
  CheckResidencyMirrors(e.system());
  // After the fabric heals the failback probe returns every cgroup to the
  // remote backend.
  for (std::size_t i = 0; i < e.system().app_count(); ++i)
    EXPECT_EQ(e.system().cgroup(i).backend(), SwapBackend::kRemote)
        << e.system().app_name(i);
}

TEST(TierProperty, ReapReleasesTierResidency) {
  // Tenants that retire while holding tier pages must hand every one back:
  // the reap drops each tier-homed page's residency, so the tier ends empty
  // with every admit matched by a release and no quota charge left behind.
  SystemConfig cfg = SystemConfig::CanvasFull();
  cfg.remote = remote::PoolConfig::FromName("pool4");
  cfg.tier = tier::TierConfig::FromName("cxl");
  Experiment e(cfg, Corun(0.05, 7));
  ASSERT_TRUE(e.Run());
  SwapSystem& sys = e.system();
  const tier::TierBackend* t = sys.tier();
  ASSERT_NE(t, nullptr);
  ASSERT_GT(t->used_pages(), 0u);  // the reap has residency to release
  for (std::size_t i = 0; i < sys.app_count(); ++i) sys.RetireApp(i);
  Settle(e);

  EXPECT_EQ(sys.retired_count(), sys.app_count());
  EXPECT_EQ(t->used_pages(), 0u);
  EXPECT_EQ(t->admits(), t->releases());
  for (const RetiredAppRecord& r : sys.retired())
    EXPECT_EQ(t->cgroup_used(r.cg), 0u) << r.name;
}

TEST(HomeMirror, DiskHalfHoldsWithoutATier) {
  // No tier, so every moved copy goes to the disk: a server-0 blackout on
  // pool2 evicts that server's slabs there (per-server failover), and an
  // untargeted blackout on `single` fails every cgroup over to it. Pages
  // and entries must agree on the new home.
  struct Case {
    const char* topology;
    int server;
  };
  for (Case c : {Case{"pool2", 0}, Case{"single", fault::kAllServers}}) {
    SCOPED_TRACE(c.topology);
    SystemConfig cfg = SystemConfig::CanvasFull();
    cfg.remote = remote::PoolConfig::FromName(c.topology);
    auto plan = std::make_shared<fault::FaultPlan>();
    plan->AddBlackout(1 * kMillisecond, 8 * kMillisecond, c.server);
    cfg.fault_plan = plan;
    Experiment e(cfg, Corun(0.05, 7));
    ASSERT_TRUE(e.Run());
    Settle(e);
    EXPECT_TRUE(e.system().Quiescent());
    ASSERT_EQ(e.system().tier(), nullptr);
    std::uint64_t stale = 0;
    for (std::size_t i = 0; i < e.system().app_count(); ++i)
      stale += e.system().metrics(i).stale_reads;
    EXPECT_EQ(stale, 0u);
    std::array<std::uint64_t, 3> homed = CheckResidencyMirrors(e.system());
    EXPECT_GT(homed[std::size_t(SwapBackend::kLocalDisk)], 0u);
    EXPECT_EQ(homed[std::size_t(SwapBackend::kLocalTier)], 0u);
  }
}

// --- the local device ---------------------------------------------------------

/// Submit one page transfer of `op` to `submit`, recording its completion
/// time and the backend it was stamped with.
template <typename Submit>
void SubmitPage(sim::Simulator& sim, rdma::Op op, Submit&& submit,
                std::vector<std::pair<SimTime, SwapBackend>>& done) {
  auto req = std::make_unique<rdma::Request>();
  req->op = op;
  req->created = sim.Now();
  req->on_complete = [&done](const rdma::Request& r) {
    done.emplace_back(r.completed, r.served_by);
  };
  submit(std::move(req));
}

TEST(LocalDevice, OneLaneCompletionStampAndCounters) {
  sim::Simulator sim;
  // 4 MiB/s: one 4 KiB page serializes in 976,562.5 ns, truncated.
  fault::LocalDevice dev(sim, SwapBackend::kLocalDisk,
                         {4096.0 * 1024, 10 * kMicrosecond});
  constexpr SimDuration kSer = 976'562;
  std::vector<std::pair<SimTime, SwapBackend>> done;
  auto submit = [&dev](rdma::RequestPtr r) { dev.Submit(std::move(r)); };
  // Two back-to-back transfers at t=0: the second queues behind the first.
  SubmitPage(sim, rdma::Op::kDemandIn, submit, done);
  SubmitPage(sim, rdma::Op::kSwapOut, submit, done);
  EXPECT_EQ(dev.reads(), 1u);
  EXPECT_EQ(dev.writes(), 1u);
  EXPECT_EQ(dev.inflight(), 2u);
  sim.Run();
  EXPECT_EQ(dev.inflight(), 0u);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].first, kSer + 10 * kMicrosecond);
  EXPECT_EQ(done[1].first, 2 * kSer + 10 * kMicrosecond);
  // An idle lane starts at now, and `extra` lands on top of the latency.
  SimTime now = sim.Now();
  auto late = [&dev](rdma::RequestPtr r) {
    dev.Submit(std::move(r), 5 * kMicrosecond);
  };
  SubmitPage(sim, rdma::Op::kPrefetchIn, late, done);
  EXPECT_EQ(dev.reads(), 2u);
  sim.Run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[2].first, now + kSer + 15 * kMicrosecond);
  for (const auto& d : done) EXPECT_EQ(d.second, SwapBackend::kLocalDisk);
  EXPECT_EQ(dev.latency().count(), 3u);
  EXPECT_EQ(dev.latency().max(), 2 * kSer + 10 * kMicrosecond);
}

TEST(LocalDevice, TierAddsItsLatencySpikeOnlyInsideTheWindow) {
  sim::Simulator sim;
  tier::TierConfig cfg = tier::TierConfig::FromName("cxl");
  cfg.bandwidth_bytes_per_sec = 4096.0 * 1024;
  constexpr SimDuration kSer = 976'562;
  auto plan = std::make_shared<fault::FaultPlan>();
  plan->AddTierLatencySpike(0, 1 * kMillisecond, 7 * kMicrosecond);
  tier::TierBackend t(sim, cfg, plan);
  std::vector<std::pair<SimTime, SwapBackend>> done;
  auto submit = [&t](rdma::RequestPtr r) { t.Submit(std::move(r)); };
  SubmitPage(sim, rdma::Op::kSwapOut, submit, done);
  // Past the window: no extra.
  constexpr SimTime kLater = 2 * kMillisecond;
  sim.ScheduleAt(kLater, [&] {
    SubmitPage(sim, rdma::Op::kDemandIn, submit, done);
  });
  sim.Run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].first, kSer + cfg.latency + 7 * kMicrosecond);
  EXPECT_EQ(done[1].first, kLater + kSer + cfg.latency);
  for (const auto& d : done) EXPECT_EQ(d.second, SwapBackend::kLocalTier);
  EXPECT_EQ(t.device().reads(), 1u);
  EXPECT_EQ(t.device().writes(), 1u);
  EXPECT_EQ(t.device().inflight(), 0u);
}

// --- jobs differential -------------------------------------------------------

TEST(TierSweep, TieredPool4ByteIdenticalAcrossJobs) {
  // Tiered pooled runs racing on sweep worker threads share no state: the
  // deterministic sweep report is the same at --jobs=1 and --jobs=4.
  orchestrator::ScenarioSpec sc;
  sc.topologies = {"pool4"};
  sc.tiers = {"cxl"};
  sc.scales = {0.05};
  sc.seeds = {7, 8, 9, 10};
  sc.apps = {AppBuild{"memcached"}, AppBuild{"snappy"}};

  auto report = [&](unsigned jobs) {
    orchestrator::SweepOptions opts;
    opts.jobs = jobs;
    orchestrator::SweepResult r = orchestrator::SweepEngine(opts).Run(sc);
    EXPECT_TRUE(r.all_ok) << "jobs=" << jobs;
    std::ostringstream os;
    r.WriteJson(os, /*include_timing=*/false);
    return os.str();
  };
  EXPECT_EQ(report(1), report(4));
}

}  // namespace
}  // namespace canvas::core
