// Machine-independent host-cost gate: heap allocations per simulated event
// and events per fault on a fixed small canvas co-run and a fixed small
// pool4 churn, the allocations and peak live heap of setting that co-run
// up, plus the live heap each retired churn tenant leaves behind.
// Unlike wall time and RSS, all are exact on any machine (for one C++
// runtime), so tier-1 can pin them: allocations per event, the set-up's
// allocations and peak, and retained bytes per tenant must stay at or below
// committed bounds (ratchet them down when a change removes allocations or
// retained state), and the event and fault counts must equal the committed
// values (a change that moves them changes the simulation, and must say so
// by updating them here).
//
// This binary replaces the global operator new/delete to count calls and
// live bytes, so it is its own executable and stays out of the sanitizer
// passes (label `perf`).
#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>

#include "common/rng.h"
#include "core/experiment.h"
#include "orchestrator/churn.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
// Live bytes as malloc sized them (usable size, counted the same on both
// sides) and their high-water mark. The runs below are single-threaded;
// the atomics only keep gtest's own threads, if any, well defined.
std::atomic<std::int64_t> g_live_bytes{0};
std::atomic<std::int64_t> g_peak_live_bytes{0};

void* Counted(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n ? n : 1);
  if (!p) throw std::bad_alloc();
  auto size = std::int64_t(malloc_usable_size(p));
  std::int64_t live =
      g_live_bytes.fetch_add(size, std::memory_order_relaxed) + size;
  std::int64_t peak = g_peak_live_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_live_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

void Uncounted(void* p) noexcept {
  if (!p) return;
  g_live_bytes.fetch_sub(std::int64_t(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t n) { return Counted(n); }
void* operator new[](std::size_t n) { return Counted(n); }
void operator delete(void* p) noexcept { Uncounted(p); }
void operator delete[](void* p) noexcept { Uncounted(p); }
void operator delete(void* p, std::size_t) noexcept { Uncounted(p); }
void operator delete[](void* p, std::size_t) noexcept { Uncounted(p); }

namespace canvas {
namespace {

struct Cost {
  std::uint64_t allocations = 0;
  std::uint64_t events = 0;
  std::uint64_t faults = 0;
  double AllocsPerEvent() const { return double(allocations) / double(events); }
};

void Report(const char* what, const Cost& c) {
  std::printf("%s: %llu allocations, %llu events, %llu faults: "
              "%.4f allocations/event, %.4f events/fault\n",
              what, (unsigned long long)c.allocations,
              (unsigned long long)c.events, (unsigned long long)c.faults,
              c.AllocsPerEvent(), double(c.events) / double(c.faults));
}

// Fig. 10 group on the canvas preset, single-server fabric, scaled down.
core::ExperimentSpec CorunSpec() {
  core::ExperimentSpec spec;
  spec.config = core::SystemConfig::CanvasFull();
  Rng seeds(1);
  for (const char* name : {"spark-lr", "snappy", "memcached", "xgboost"}) {
    core::AppBuild b;
    b.name = name;
    b.scale = 0.1;
    b.ratio = 0.25;
    b.seed = seeds.Next() | 1;
    spec.apps.push_back(b);
  }
  return spec;
}

// Only the run is counted: construction allocates the page tables.
TEST(AllocGate, CanvasCorun) {
  core::ExperimentSpec spec = CorunSpec();
  core::Experiment e(spec);
  std::uint64_t before = g_allocations.load();
  ASSERT_TRUE(e.Run());
  Cost c;
  c.allocations = g_allocations.load() - before;
  c.events = e.simulator().events_executed();
  for (std::size_t i = 0; i < e.system().app_count(); ++i)
    c.faults += e.system().metrics(i).faults;
  Report("canvas co-run", c);
  EXPECT_EQ(c.events, 293395u);
  EXPECT_EQ(c.faults, 30361u);
  // Measured 0.0525 (0.0527 while the NIC kept exact latency multisets,
  // 0.0674 before the reference prefetcher reused its traversal scratch,
  // 0.2586 before rdma::Request was pooled): waiter lists, workload
  // buffers and the request pool's growth to its peak.
  EXPECT_LE(c.AllocsPerEvent(), 0.0615);
}

// Building the co-run's workloads and constructing its experiment. The
// first set-up fills per-thread memos (the Zipfian normaliser), so a warm-up
// set-up runs first and the second is counted: the count then does not
// depend on which tests ran before in this process.
TEST(AllocGate, CorunSetUp) {
  const core::ExperimentSpec spec = CorunSpec();
  auto set_up = [&] {
    return std::make_unique<core::Experiment>(
        spec.config, core::BuildApps(spec.apps), spec.deadline);
  };
  set_up().reset();
  std::uint64_t before = g_allocations.load();
  std::int64_t live_before = g_live_bytes.load();
  g_peak_live_bytes.store(live_before);
  auto e = set_up();
  std::uint64_t allocations = g_allocations.load() - before;
  std::int64_t peak = g_peak_live_bytes.load() - live_before;
  std::printf("co-run set-up: %llu allocations, %.1f KiB peak live heap\n",
              (unsigned long long)allocations, double(peak) / 1024);
  // Measured 604 allocations and 1,580 KiB (5,626 and 1,747 KiB while the
  // summary graph kept one vector per page group and each swap entry's
  // metadata took 24 bytes).
  EXPECT_LE(allocations, 604u);
  EXPECT_LE(peak, std::int64_t(1582) * 1024);
}

// A small pool4 churn: tenants arrive, fault, swap to a harvested 4-server
// pool and are reaped. At most 8 run at once; arrivals stop at `horizon`
// or after `max_tenants` admissions.
struct ChurnRun {
  orchestrator::ChurnResult result;
  Cost cost;
  std::int64_t peak_live_bytes = 0;  ///< above the live heap at the start
};

ChurnRun RunPool4Churn(std::uint64_t max_tenants, SimDuration horizon) {
  orchestrator::ChurnScenarioSpec sc;
  sc.systems = {"canvas"};
  sc.topologies = {"pool4"};
  sc.harvests = {"steady"};
  sc.seeds = {5};
  workload::ChurnSpec& c = sc.churn;
  c.kind = workload::ChurnKind::kPoisson;
  c.arrival_rate_per_sec = 400;
  c.mean_lifetime = 30 * kMillisecond;
  c.min_lifetime = 5 * kMillisecond;
  c.horizon = horizon;
  c.max_tenants = max_tenants;
  c.max_concurrent = 8;
  workload::TenantTemplate cache;
  cache.app = "memcached";
  cache.scale = 0.05;
  cache.local_ratio = 0.3;
  workload::TenantTemplate batch;
  batch.app = "snappy";
  batch.scale = 0.04;
  batch.local_ratio = 0.25;
  c.templates = {cache, batch};
  auto runs = sc.Expand();
  EXPECT_EQ(runs.size(), 1u);

  ChurnRun run;
  std::uint64_t before = g_allocations.load();
  std::int64_t live_before = g_live_bytes.load();
  g_peak_live_bytes.store(live_before);
  run.result = orchestrator::RunChurn(runs.at(0));
  run.peak_live_bytes = g_peak_live_bytes.load() - live_before;
  run.cost.allocations = g_allocations.load() - before;
  run.cost.events = run.result.sim_events;
  run.cost.faults = run.result.faults;
  return run;
}

// Tenant construction happens inside the run and is counted.
TEST(AllocGate, Pool4Churn) {
  ChurnRun run = RunPool4Churn(60, 200 * kMillisecond);
  ASSERT_EQ(run.result.status, orchestrator::ChurnResult::Status::kOk)
      << run.result.error;
  Report("pool4 churn", run.cost);
  EXPECT_EQ(run.cost.events, 642605u);
  EXPECT_EQ(run.cost.faults, 50558u);
  // Measured 0.0454 when run alone, 0.0445 after the co-run has warmed
  // this thread's request pool (0.0460 / 0.0449 while the NIC kept a
  // byte series per tenant and exact latency multisets, 0.2194 before
  // requests were pooled), tenant construction included.
  EXPECT_LE(run.cost.AllocsPerEvent(), 0.053);
}

// O(active tenants) memory (DESIGN.md §15): with the concurrency cap fixed,
// admitting 4x the tenants may grow the peak live heap only by what the
// run keeps per retired tenant — its ledger record and the reaped shell —
// plus latency histograms that grow with their highest bucket, not with
// samples.
TEST(AllocGate, Pool4ChurnRetainedHeapPerTenant) {
  ChurnRun small = RunPool4Churn(60, 200 * kMillisecond);
  ChurnRun large = RunPool4Churn(240, 800 * kMillisecond);
  for (const ChurnRun* r : {&small, &large})
    ASSERT_EQ(r->result.status, orchestrator::ChurnResult::Status::kOk)
        << r->result.error;
  // Arrivals past the concurrency cap are dropped, so the horizon ends
  // admissions first: 43 and 189 tenants retire, 146 apart.
  ASSERT_GT(large.result.tenants_retired, 3 * small.result.tenants_retired);
  ASSERT_EQ(small.result.active_high_water, large.result.active_high_water);
  double per_tenant =
      double(large.peak_live_bytes - small.peak_live_bytes) /
      double(large.result.tenants_retired - small.result.tenants_retired);
  std::printf("peak live heap: %.1f KiB at %llu tenants, %.1f KiB at %llu; "
              "%.1f KiB per extra retired tenant\n",
              double(small.peak_live_bytes) / 1024,
              (unsigned long long)small.result.tenants_retired,
              double(large.peak_live_bytes) / 1024,
              (unsigned long long)large.result.tenants_retired,
              per_tenant / 1024);
  // Measured 5.3-5.9 KiB, depending on which tests ran earlier in the
  // process (19.1-20.1 KiB while the NIC kept exact latency multisets that
  // grew with the run's distinct swap-out latencies, 113 KiB while every
  // retired tenant kept two full-range fault histograms and the NIC kept
  // every latency sample). The request pool keeps its peak, but both runs
  // share the same concurrency cap. Most of it is the ledger record's
  // fault histogram (300-450 buckets plus growth slack) and ~1.5 KiB the
  // 576-byte record and the 856-byte shell with its threads/frame_waiters
  // capacity; the rest is ledger growth slack.
  EXPECT_LE(per_tenant, 7.0 * 1024);
}

}  // namespace
}  // namespace canvas
