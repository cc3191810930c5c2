// Chaos tests for the fault-injection subsystem and the robust swap path
// (DESIGN.md §8): every injected failure is retried to success or failed
// over to the local disk, no swap-in ever serves stale or wrongly-routed
// page contents, blackout recovery is deterministic, and a zero-fault plan
// leaves the simulation byte-identical to a run without the fault
// subsystem.
#include <gtest/gtest.h>

#include <sstream>

#include "core/experiment.h"
#include "core/report.h"
#include "fault/fault_plan.h"
#include "mutate.h"
#include "workload/apps.h"
#include "workload/patterns.h"

namespace canvas::core {
namespace {

using workload::Access;
using workload::SequentialScanStream;
using workload::ThreadStream;

AppSpec CustomApp(std::vector<std::unique_ptr<ThreadStream>> threads,
                  PageId pages, std::uint64_t local, std::uint64_t swap) {
  workload::AppWorkload w;
  w.name = "custom";
  w.footprint_pages = pages;
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

std::uint64_t ExpectedAccesses(int n, PageId pages, std::uint32_t passes,
                               double write = 0.5) {
  std::uint64_t total = 0;
  for (auto& t : ScanThreads(n, pages, passes, write))
    while (t->Next()) ++total;
  return total;
}

/// Experiment::Run() returns at the first scheduling slice where every
/// thread has finished; swap-outs, retries, or failback probes may still be
/// in flight at that instant. Drain them before checking quiescence
/// invariants (bounded: periodic maintenance cannot hold the clock).
void Settle(Experiment& e) {
  e.simulator().RunUntil(e.simulator().Now() + 200 * kMillisecond);
}

/// Full report (CSV + JSON) of a finished experiment, for byte comparison.
std::string ReportOf(const Experiment& e) {
  std::ostringstream os;
  WriteCsv(os, e.system(), "chaos", /*header=*/true);
  WriteJson(os, e.system(), "chaos");
  return os.str();
}

/// Sum of the fault-recovery counters that must account for every injected
/// failure's resolution.
struct Recovery {
  std::uint64_t exhausted = 0, reissues = 0, failovers = 0, failbacks = 0,
                disk_in = 0, disk_out = 0, stale = 0, tier_in = 0,
                tier_out = 0, rescues = 0, prefetch_dropped = 0,
                prefetch_discarded = 0;
  bool operator==(const Recovery&) const = default;
  friend std::ostream& operator<<(std::ostream& os, const Recovery& r) {
    return os << "{exhausted=" << r.exhausted << " reissues=" << r.reissues
              << " failovers=" << r.failovers << " failbacks=" << r.failbacks
              << " disk_in=" << r.disk_in << " disk_out=" << r.disk_out
              << " stale=" << r.stale << " tier_in=" << r.tier_in
              << " tier_out=" << r.tier_out << " rescues=" << r.rescues
              << " prefetch_dropped=" << r.prefetch_dropped
              << " prefetch_discarded=" << r.prefetch_discarded << "}";
  }
};
Recovery RecoveryOf(const Experiment& e) {
  Recovery r;
  for (std::size_t i = 0; i < e.system().app_count(); ++i) {
    const auto& m = e.system().metrics(i);
    r.exhausted += m.rdma_exhausted;
    r.reissues += m.demand_reissues;
    r.failovers += m.failovers;
    r.failbacks += m.failbacks;
    r.disk_in += m.disk_swapins;
    r.disk_out += m.disk_swapouts;
    r.stale += m.stale_reads;
    r.tier_in += m.tier_swapins;
    r.tier_out += m.tier_swapouts;
    r.rescues += m.rescues;
    r.prefetch_dropped += m.prefetch_dropped;
    r.prefetch_discarded += m.prefetch_discarded;
  }
  return r;
}

// --- FaultPlan config format -----------------------------------------------

TEST(FaultPlanParse, AcceptsEveryFaultKind) {
  std::string err;
  auto plan = fault::FaultPlan::Parse(
      "# comment line\n"
      "latency 100 200 50 in\n"
      "bandwidth 100 300 0.25 both\n"
      "error 0 1000 0.5 demand\n"
      "stall 400 450 out\n"
      "blackout 500 900\n",
      &err);
  ASSERT_TRUE(plan.has_value()) << err;
  EXPECT_EQ(plan->latency_spikes().size(), 1u);
  EXPECT_EQ(plan->bandwidth_degrades().size(), 1u);
  EXPECT_EQ(plan->error_bursts().size(), 1u);
  EXPECT_EQ(plan->qp_stalls().size(), 1u);
  EXPECT_EQ(plan->blackouts().size(), 1u);
  // Times are microseconds in the file, nanoseconds in the plan.
  EXPECT_EQ(plan->blackouts()[0].window.start, 500 * kMicrosecond);
  EXPECT_EQ(plan->blackouts()[0].window.end, 900 * kMicrosecond);
  EXPECT_EQ(plan->latency_spikes()[0].extra, 50 * kMicrosecond);
  EXPECT_FALSE(plan->empty());
}

TEST(FaultPlanParse, RejectsMalformedInput) {
  std::string err;
  EXPECT_FALSE(fault::FaultPlan::Parse("latency 100 50 10\n", &err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(fault::FaultPlan::Parse("bandwidth 0 10 1.5\n"));
  EXPECT_FALSE(fault::FaultPlan::Parse("error 0 10 -0.1\n"));
  EXPECT_FALSE(fault::FaultPlan::Parse("frobnicate 0 10\n"));
  EXPECT_FALSE(fault::FaultPlan::Parse("blackout 0\n"));
  // Bandwidth windows take no server target; it must not be ignored.
  EXPECT_FALSE(fault::FaultPlan::Parse("bandwidth 0 10 0.5 in server=2\n"));
  EXPECT_FALSE(fault::FaultPlan::Parse("blackout 500 500\n"));  // empty
  // 1e20 us is 1e23 ns: converting it to a SimTime would be undefined.
  EXPECT_FALSE(fault::FaultPlan::Parse("blackout 0 99999999999999999999\n"));
  EXPECT_FALSE(fault::FaultPlan::Parse("latency 0 10 1e300\n"));
  EXPECT_FALSE(fault::FaultPlan::Parse("tier-latency 0 10 1e300\n"));
}

TEST(FaultPlanParse, EmptyTextIsEmptyPlan) {
  auto plan = fault::FaultPlan::Parse("  \n# only comments\n");
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan->empty());
}

// Seeded mutations of the valid plans above: each case is either rejected
// with a message or parses to a plan whose every window is non-empty, in
// range, and whose filters and factors are in their documented domains.
TEST(FaultPlanParse, SeededMutationsRejectOrKeepInvariants) {
  const std::string valid[] = {
      "# comment line\n"
      "latency 100 200 50 in\n"
      "bandwidth 100 300 0.25 both\n"
      "error 0 1000 0.5 demand\n"
      "stall 400 450 out\n"
      "blackout 500 900\n",
      "latency 10 20 5 in server=2\n"
      "latency 10 20 5 server=1\n"
      "stall 30 40 server=0\n"
      "blackout 50 60 server=3\n",
      "tier-latency 2000 4000 3\n"
      "tier-freeze 5000 6000\n"
      "error 10 20 0.1 swapout\n",
  };
  auto window_ok = [](const fault::TimeWindow& w) {
    return w.start < w.end && double(w.end) <= kMaxParsedNs;
  };
  auto dir_ok = [](int d) { return d >= fault::kBothDirections && d <= 1; };
  std::mt19937_64 rng(0xFA17'5EED);
  int accepted = 0, rejected = 0;
  for (int i = 0; i < 3000; ++i) {
    std::string text = test::Mutate(valid[i % 3], rng);
    SCOPED_TRACE("case " + std::to_string(i) + ":\n" + text);
    std::string err;
    std::optional<fault::FaultPlan> plan = fault::FaultPlan::Parse(text, &err);
    if (!plan) {
      EXPECT_FALSE(err.empty());
      ++rejected;
      continue;
    }
    ++accepted;
    for (const auto& x : plan->latency_spikes()) {
      EXPECT_TRUE(window_ok(x.window));
      EXPECT_LE(double(x.extra), kMaxParsedNs);
      EXPECT_TRUE(dir_ok(x.dir));
      EXPECT_GE(x.server, fault::kAllServers);
    }
    for (const auto& x : plan->bandwidth_degrades()) {
      EXPECT_TRUE(window_ok(x.window));
      EXPECT_GT(x.factor, 0.0);
      EXPECT_LE(x.factor, 1.0);
      EXPECT_TRUE(dir_ok(x.dir));
    }
    for (const auto& x : plan->error_bursts()) {
      EXPECT_TRUE(window_ok(x.window));
      EXPECT_GE(x.probability, 0.0);
      EXPECT_LE(x.probability, 1.0);
      EXPECT_GE(x.op, fault::kAllOps);
      EXPECT_LE(x.op, 2);
    }
    for (const auto& x : plan->qp_stalls()) {
      EXPECT_TRUE(window_ok(x.window));
      EXPECT_TRUE(dir_ok(x.dir));
      EXPECT_GE(x.server, fault::kAllServers);
    }
    for (const auto& x : plan->blackouts()) {
      EXPECT_TRUE(window_ok(x.window));
      EXPECT_GE(x.server, fault::kAllServers);
    }
    for (const auto& x : plan->tier_latency_spikes()) {
      EXPECT_TRUE(window_ok(x.window));
      EXPECT_LE(double(x.extra), kMaxParsedNs);
    }
    for (const auto& x : plan->tier_freezes())
      EXPECT_TRUE(window_ok(x.window));
  }
  // Both outcomes occur, so the mutations reach past the first token.
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 1000);
}

// --- chaos runs ------------------------------------------------------------

TEST(FaultInjection, ErrorBurstsRetriedToCompletion) {
  // A heavy CQE-error burst over the whole run: every failed attempt must
  // be retried (or the request failed over) and every access must still
  // complete with correct contents.
  auto cfg = SystemConfig::CanvasFull();
  auto plan = std::make_shared<fault::FaultPlan>();
  plan->AddErrorBurst(0, 600 * kSecond, 0.3);
  cfg.fault_plan = plan;
  Experiment e(cfg, One(CustomApp(ScanThreads(2, 512, 3), 512, 128, 600)));
  ASSERT_TRUE(e.Run());
  Settle(e);
  EXPECT_TRUE(e.system().Quiescent());
  EXPECT_EQ(e.system().metrics(0).accesses, ExpectedAccesses(2, 512, 3));
  EXPECT_GT(e.system().nic().cqe_errors(), 0u);
  EXPECT_GT(e.system().nic().retries(), 0u);
  EXPECT_EQ(RecoveryOf(e).stale, 0u);
}

TEST(FaultInjection, DegradedFabricStillCompletes) {
  // Latency spikes + bandwidth collapse + QP stalls, all overlapping.
  auto cfg = SystemConfig::CanvasFull();
  auto plan = std::make_shared<fault::FaultPlan>();
  plan->AddLatencySpike(500 * kMicrosecond, 4 * kMillisecond,
                        30 * kMicrosecond);
  plan->AddBandwidthDegrade(1 * kMillisecond, 5 * kMillisecond, 0.1);
  plan->AddQpStall(2 * kMillisecond, 2200 * kMicrosecond);
  cfg.fault_plan = plan;
  Experiment e(cfg, One(CustomApp(ScanThreads(2, 512, 3), 512, 128, 600)));
  ASSERT_TRUE(e.Run());
  Settle(e);
  EXPECT_TRUE(e.system().Quiescent());
  EXPECT_EQ(e.system().metrics(0).accesses, ExpectedAccesses(2, 512, 3));
  EXPECT_EQ(RecoveryOf(e).stale, 0u);
}

TEST(FaultInjection, BlackoutFailsOverAndRecovers) {
  // A memory-server blackout long enough to exhaust demand retries: the
  // cgroup must fail over (writebacks absorbed by the disk), demand reads
  // must be reissued until the fabric heals, and the cgroup must fail back
  // after recovery — with zero stale reads throughout.
  auto cfg = SystemConfig::CanvasFull();
  auto plan = std::make_shared<fault::FaultPlan>();
  plan->AddBlackout(1 * kMillisecond, 9 * kMillisecond);
  cfg.fault_plan = plan;
  Experiment e(cfg, One(CustomApp(ScanThreads(2, 512, 4), 512, 128, 600)));
  ASSERT_TRUE(e.Run());
  Settle(e);
  EXPECT_TRUE(e.system().Quiescent());
  EXPECT_EQ(e.system().metrics(0).accesses, ExpectedAccesses(2, 512, 4));
  Recovery r = RecoveryOf(e);
  EXPECT_GE(r.failovers, 1u);
  EXPECT_GE(r.failbacks, 1u);
  EXPECT_GT(r.disk_out, 0u);
  EXPECT_GT(e.system().nic().timeouts(), 0u);
  EXPECT_EQ(r.stale, 0u);
  EXPECT_EQ(r, (Recovery{.exhausted = 7, .reissues = 2, .failovers = 1,
                          .failbacks = 1, .disk_in = 15, .disk_out = 9,
                          .prefetch_dropped = 13}));
  // Failover/failback leave the cgroup on the remote backend at the end.
  EXPECT_EQ(e.system().cgroup(0).backend(), SwapBackend::kRemote);
}

TEST(FaultInjection, DiskBackedPagesReadBackFromDisk) {
  // Pages written back during the blackout live on the disk; faulting on
  // them afterwards must be served by the disk backend (route oracle).
  auto cfg = SystemConfig::CanvasFull();
  auto plan = std::make_shared<fault::FaultPlan>();
  plan->AddBlackout(500 * kMicrosecond, 6 * kMillisecond);
  cfg.fault_plan = plan;
  Experiment e(cfg, One(CustomApp(ScanThreads(2, 512, 4), 512, 128, 600)));
  ASSERT_TRUE(e.Run());
  Settle(e);
  Recovery r = RecoveryOf(e);
  ASSERT_GT(r.disk_out, 0u);
  EXPECT_GT(r.disk_in, 0u);
  EXPECT_GT(e.system().disk()->reads(), 0u);
  EXPECT_EQ(r.stale, 0u);
  EXPECT_EQ(r, (Recovery{.exhausted = 2, .reissues = 2, .failovers = 1,
                          .failbacks = 1, .disk_in = 64, .disk_out = 31,
                          .prefetch_dropped = 15}));
}

TEST(FaultInjection, InflightRequestsNeverLeakAcrossBlackout) {
  // Regression: requests in flight (or queued) at blackout onset must be
  // completed-with-error, re-queued, or drained — never leaked as
  // permanent entries in the waiter/prefetch maps. An aggressive
  // prefetcher plus a slow NIC keeps many requests in flight when the
  // blackout hits; afterwards the system must be fully quiescent and every
  // access resolved.
  auto cfg = SystemConfig::CanvasFull();
  cfg.prefetcher = PrefetcherKind::kLeap;  // volume of in-flight prefetches
  cfg.prefetcher_shared_state = false;
  cfg.nic.bandwidth_bytes_per_sec = 5e8;  // slow: deep in-flight window
  auto plan = std::make_shared<fault::FaultPlan>();
  plan->AddBlackout(1 * kMillisecond, 8 * kMillisecond);
  plan->AddBlackout(15 * kMillisecond, 20 * kMillisecond);
  cfg.fault_plan = plan;
  Experiment e(cfg, One(CustomApp(ScanThreads(4, 1024, 3, 0.3), 1024, 256,
                                  1100)));
  ASSERT_TRUE(e.Run());
  Settle(e);
  EXPECT_TRUE(e.system().Quiescent());
  EXPECT_EQ(e.system().metrics(0).accesses,
            ExpectedAccesses(4, 1024, 3, 0.3));
  EXPECT_EQ(e.system().nic().pending_retries(), 0u);
  EXPECT_EQ(e.system().disk()->inflight(), 0u);
  EXPECT_EQ(RecoveryOf(e).stale, 0u);
  EXPECT_EQ(RecoveryOf(e), (Recovery{.exhausted = 5, .reissues = 4,
                                    .failovers = 2, .failbacks = 2,
                                    .disk_in = 1579, .disk_out = 966}));
}

// --- determinism -----------------------------------------------------------

TEST(FaultInjection, IdenticalSeedIdenticalTrace) {
  // Identical (plan, seed) must replay bit-identically: full reports match
  // byte for byte across two fresh processes' worth of state.
  auto make = [] {
    auto cfg = SystemConfig::CanvasFull();
    auto plan = std::make_shared<fault::FaultPlan>();
    plan->AddBlackout(1 * kMillisecond, 7 * kMillisecond);
    plan->AddErrorBurst(8 * kMillisecond, 20 * kMillisecond, 0.2);
    plan->AddLatencySpike(0, 2 * kMillisecond, 10 * kMicrosecond);
    cfg.fault_plan = plan;
    cfg.fault_seed = 0xfeed'beef'cafe'f00dull;
    return cfg;
  };
  auto run = [&make] {
    Experiment e(make(),
                 One(CustomApp(ScanThreads(2, 512, 3), 512, 128, 600)));
    EXPECT_TRUE(e.Run());
    Settle(e);
    return ReportOf(e);
  };
  EXPECT_EQ(run(), run());
}

TEST(FaultInjection, ZeroFaultPlanByteIdenticalToNoPlan) {
  // The differential guarantee: attaching the fault subsystem with an
  // empty plan must not perturb the simulation at all — reports are
  // byte-identical to a run without any fault plan.
  auto run = [](bool attach_empty_plan) {
    auto cfg = SystemConfig::CanvasFull();
    if (attach_empty_plan)
      cfg.fault_plan = std::make_shared<fault::FaultPlan>();
    Experiment e(cfg, One(CustomApp(ScanThreads(2, 512, 3), 512, 128, 600)));
    EXPECT_TRUE(e.Run());
    Settle(e);
    return ReportOf(e);
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(FaultInjection, HealthyRunHasZeroFaultCounters) {
  Experiment e(SystemConfig::CanvasFull(),
               One(CustomApp(ScanThreads(2, 512, 2), 512, 128, 600)));
  ASSERT_TRUE(e.Run());
  EXPECT_EQ(e.system().nic().retries(), 0u);
  EXPECT_EQ(e.system().nic().timeouts(), 0u);
  EXPECT_EQ(e.system().nic().cqe_errors(), 0u);
  EXPECT_EQ(e.system().nic().exhausted(), 0u);
  Recovery r = RecoveryOf(e);
  EXPECT_EQ(r.exhausted + r.reissues + r.failovers + r.failbacks + r.disk_in +
                r.disk_out + r.stale,
            0u);
}

}  // namespace
}  // namespace canvas::core
