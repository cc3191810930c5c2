// Property tests for the robust swap path, driven by randomly generated
// fault plans (DESIGN.md §8). Invariants checked on every random run:
//   - no swap entry is lost or duplicated across retries and failover:
//     every allocated entry is held by exactly one page;
//   - a request's failed-attempt count never exceeds the configured retry
//     budget (max_retries + 1 attempts per cycle);
//   - per-request backoff is monotonically non-decreasing within a retry
//     cycle and never exceeds the configured cap;
//   - every in-flight request resolves by the end of the simulation
//     (quiescent NIC, empty retry queues, idle disk backend);
//   - no swap-in ever serves stale or wrongly-routed contents.
#include <gtest/gtest.h>

#include <random>
#include <set>
#include <unordered_map>
#include <vector>

#include "core/experiment.h"
#include "fault/fault_plan.h"
#include "rdma/nic.h"
#include "workload/apps.h"
#include "workload/patterns.h"

namespace canvas::core {
namespace {

using workload::SequentialScanStream;
using workload::ThreadStream;

AppSpec CustomApp(std::vector<std::unique_ptr<ThreadStream>> threads,
                  PageId pages, std::uint64_t local, std::uint64_t swap) {
  workload::AppWorkload w;
  w.name = "prop";
  w.footprint_pages = pages;
  w.runtime = std::make_shared<runtime::RuntimeInfo>();
  for (auto& t : threads) {
    w.threads.push_back(std::move(t));
    w.thread_kinds.push_back(runtime::ThreadKind::kApplication);
  }
  CgroupSpec cg;
  cg.name = "prop";
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

/// Drain in-flight writebacks/retries/failback probes left at the instant
/// Experiment::Run() observed every thread finished.
void Settle(Experiment& e) {
  e.simulator().RunUntil(e.simulator().Now() + 200 * kMillisecond);
}

// --- pure backoff properties -----------------------------------------------

TEST(FaultProperty, BackoffMonotoneNonDecreasingAndCapped) {
  // For any policy with jitter_frac <= 1, the backoff sequence over
  // attempts 1..n is monotonically non-decreasing for *any* jitter draws,
  // strictly positive, and never exceeds the cap.
  std::mt19937_64 rng(0x5eed'0001);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int iter = 0; iter < 200; ++iter) {
    rdma::RetryPolicy p;
    p.backoff_base = 1 + SimDuration(rng() % (100 * kMicrosecond));
    p.backoff_cap = p.backoff_base * (1 + SimDuration(rng() % 256));
    p.jitter_frac = unit(rng);
    SimDuration prev = 0;
    for (std::uint32_t attempt = 1; attempt <= 12; ++attempt) {
      SimDuration b = rdma::ComputeBackoff(p, attempt, unit(rng));
      EXPECT_GE(b, prev) << "attempt " << attempt << " iter " << iter;
      EXPECT_LE(b, p.backoff_cap);
      EXPECT_GT(b, 0);
      prev = b;
    }
  }
}

// --- randomized chaos runs -------------------------------------------------

std::shared_ptr<fault::FaultPlan> RandomPlan(std::mt19937_64& rng) {
  auto plan = std::make_shared<fault::FaultPlan>();
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  auto dur = [&](SimDuration lo, SimDuration hi) {
    return lo + SimDuration(rng() % std::uint64_t(hi - lo));
  };
  // Up to two blackouts in the first 12ms, each 0.5-3ms long.
  SimTime cursor = dur(200 * kMicrosecond, 2 * kMillisecond);
  for (std::uint64_t i = 0, n = rng() % 3; i < n; ++i) {
    SimTime start = cursor + dur(0, 2 * kMillisecond);
    SimTime end = start + dur(500 * kMicrosecond, 3 * kMillisecond);
    plan->AddBlackout(start, end);
    cursor = end + dur(1 * kMillisecond, 3 * kMillisecond);
  }
  for (std::uint64_t i = 0, n = rng() % 3; i < n; ++i) {
    SimTime start = dur(0, 10 * kMillisecond);
    plan->AddErrorBurst(start, start + dur(500 * kMicrosecond, 4 * kMillisecond),
                        0.05 + 0.35 * unit(rng));
  }
  for (std::uint64_t i = 0, n = rng() % 3; i < n; ++i) {
    SimTime start = dur(0, 10 * kMillisecond);
    plan->AddLatencySpike(start, start + dur(200 * kMicrosecond, 3 * kMillisecond),
                          dur(5 * kMicrosecond, 50 * kMicrosecond));
  }
  for (std::uint64_t i = 0, n = rng() % 3; i < n; ++i) {
    SimTime start = dur(0, 10 * kMillisecond);
    plan->AddBandwidthDegrade(
        start, start + dur(200 * kMicrosecond, 3 * kMillisecond),
        0.1 + 0.9 * unit(rng));
  }
  for (std::uint64_t i = 0, n = rng() % 3; i < n; ++i) {
    SimTime start = dur(0, 10 * kMillisecond);
    plan->AddQpStall(start, start + dur(20 * kMicrosecond, 300 * kMicrosecond));
  }
  return plan;
}

TEST(FaultProperty, RandomPlansPreserveSwapInvariants) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed * 0x9e37'79b9'7f4a'7c15ull);

    auto cfg = SystemConfig::CanvasFull();
    // Reservations pin entries to pages outside the `entry` field; disable
    // the adaptive allocator so "every allocated entry is held by exactly
    // one page's entry" is the complete conservation law.
    cfg.adaptive_alloc = false;
    cfg.fault_plan = RandomPlan(rng);
    cfg.fault_seed = seed;

    Experiment e(cfg, One(CustomApp(ScanThreads(2, 512, 2), 512, 128, 600)));

    // Per-request retry-cycle tracking. A request object persists across
    // its retries, so its address keys the cycle; `attempts == 1` marks a
    // fresh cycle (first failure after issue or reissue) and resets the
    // tracking — which also makes address reuse across requests safe.
    struct Cycle {
      SimDuration last_backoff = 0;
    };
    std::unordered_map<const rdma::Request*, Cycle> cycles;
    std::uint64_t budget_violations = 0;
    std::uint64_t monotonic_violations = 0;
    e.system().mutable_nic().SetRetryObserver(
        [&](const rdma::Request& r, SimDuration backoff) {
          if (r.attempts > rdma::MaxRetries(r.op) + 1) ++budget_violations;
          Cycle& c = cycles[&r];
          if (r.attempts == 1) c = Cycle{};
          if (backoff > 0) {  // 0 signals retry-budget exhaustion, not a wait
            if (backoff < c.last_backoff) ++monotonic_violations;
            c.last_backoff = backoff;
          }
        });

    ASSERT_TRUE(e.Run());
    Settle(e);

    // Every in-flight request resolved.
    EXPECT_TRUE(e.system().Quiescent());
    EXPECT_EQ(e.system().nic().pending_retries(), 0u);
    EXPECT_EQ(e.system().disk()->inflight(), 0u);

    // Every access completed, none served stale contents.
    EXPECT_EQ(e.system().metrics(0).accesses, ExpectedAccesses(2, 512, 2));
    EXPECT_EQ(e.system().metrics(0).stale_reads, 0u);

    // Retry budget respected, backoff monotone per cycle.
    EXPECT_EQ(budget_violations, 0u);
    EXPECT_EQ(monotonic_violations, 0u);

    // Entry conservation: no entry lost or duplicated across retries and
    // failover — the allocator's live count equals the number of pages
    // holding an entry, and no two pages hold the same one.
    for (std::size_t a = 0; a < e.system().app_count(); ++a) {
      std::set<SwapEntryId> seen;
      std::uint64_t held = 0;
      for (PageId p = 0; p < e.system().page_count(a); ++p) {
        const mem::Page& pg = e.system().page(a, p);
        if (pg.entry == kInvalidEntry) continue;
        ++held;
        EXPECT_TRUE(seen.insert(pg.entry).second)
            << "entry " << pg.entry << " duplicated at page " << p;
      }
      EXPECT_EQ(e.system().partition(a).allocator().used(), held)
          << "app " << a << ": allocator live-count disagrees with pages";
    }
  }
}

}  // namespace
}  // namespace canvas::core
