// Hybrid local tier test suite (DESIGN.md §14): preset registry, report
// schema gating (tier-off output must stay byte-for-byte schema v2),
// tiered determinism, and the tier invariants — single residency (a page's
// remote copy lives in exactly one of {tier, pool, disk}, mirrored
// consistently across mem::Page, swapalloc::EntryMeta and the tier's
// resident index), per-cgroup quotas never exceeded, and the
// content_version oracle holding across promotion / demotion / blackout
// failover. Plus the --jobs byte-identity differential on tiered pooled
// sweeps.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/flat_map.h"
#include "core/experiment.h"
#include "core/report.h"
#include "fault/fault_plan.h"
#include "orchestrator/sweep.h"
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

/// Drain in-flight writebacks, failback probes and policy ticks after the
/// last thread finishes (bounded; cf. fault_injection_test::Settle).
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
  fault::DiskBackend::Config disk;
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
  EXPECT_GT(e.system().tier()->writes(), 0u);
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

/// Walk every page of every app and check the single-residency mirrors:
/// tier_backed implies not disk_backed, the entry metadata agrees, and the
/// tier's resident index matches page state exactly.
void CheckResidencyMirrors(const SwapSystem& sys) {
  const tier::TierBackend* t = sys.tier();
  ASSERT_NE(t, nullptr);
  std::uint64_t tier_backed_pages = 0;
  for (std::size_t app = 0; app < sys.app_count(); ++app) {
    for (PageId p = 0; p < sys.page_count(app); ++p) {
      const mem::Page& pg = sys.page(app, p);
      std::uint64_t key = PackAppPage(CgroupId(app), p);
      if (pg.shared) {
        // Shared pages are never tier residents.
        EXPECT_FALSE(pg.tier_backed) << "app " << app << " page " << p;
        EXPECT_FALSE(t->Contains(key)) << "app " << app << " page " << p;
        continue;
      }
      EXPECT_EQ(t->Contains(key), pg.tier_backed)
          << "app " << app << " page " << p;
      if (pg.tier_backed) {
        ++tier_backed_pages;
        EXPECT_FALSE(pg.disk_backed) << "app " << app << " page " << p;
        ASSERT_NE(pg.entry, kInvalidEntry) << "app " << app << " page " << p;
      }
      if (pg.entry != kInvalidEntry) {
        const swapalloc::EntryMeta& m = sys.partition(app).meta(pg.entry);
        EXPECT_EQ(m.on_tier, pg.tier_backed)
            << "app " << app << " page " << p;
        EXPECT_FALSE(m.on_tier && m.on_disk)
            << "app " << app << " page " << p;
      }
    }
  }
  EXPECT_EQ(t->used_pages(), tier_backed_pages);
  EXPECT_LE(t->used_pages(), t->config().capacity_pages);
  EXPECT_LE(t->peak_used(), t->config().capacity_pages);
}

TEST(TierProperty, SingleResidencyMirrorsAfterChurn) {
  // A deliberately tiny tier forces constant admit/reject/demote churn;
  // at quiescence every mirror of residency must agree.
  SystemConfig cfg = SystemConfig::CanvasFull();
  tier::TierConfig tiny;
  tiny.capacity_pages = 256;
  tiny.name = "tiny";
  tiny.cold_age = 2 * kMillisecond;  // demote aggressively
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

TEST(TierProperty, OracleHoldsAcrossPromotionDemotionFailover) {
  // Blackout long enough to exhaust retries: cgroups fail over to the
  // tier (not the disk), keep running at tier latency, fail back after
  // the fabric heals — with zero stale reads across every promotion,
  // demotion and failover transition, and residency mirrors intact.
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
                tier_in = 0, tier_out = 0;
  for (std::size_t i = 0; i < e.system().app_count(); ++i) {
    const AppMetrics& m = e.system().metrics(i);
    stale += m.stale_reads;
    tier_failovers += m.tier_failovers;
    failovers += m.failovers;
    disk_out += m.disk_swapouts;
    tier_in += m.tier_swapins;
    tier_out += m.tier_swapouts;
  }
  EXPECT_EQ(stale, 0u);
  EXPECT_GE(failovers, 1u);
  // With a tier configured, every failover lands on the tier, not disk.
  EXPECT_EQ(tier_failovers, failovers);
  EXPECT_EQ(disk_out, 0u);
  EXPECT_GT(tier_out, 0u);
  EXPECT_GT(tier_in, 0u);
  CheckResidencyMirrors(e.system());
  // After the fabric heals the failback probe returns every cgroup to the
  // remote backend.
  for (std::size_t i = 0; i < e.system().app_count(); ++i)
    EXPECT_EQ(e.system().cgroup(i).backend(), SwapBackend::kRemote)
        << e.system().app_name(i);
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
