// Machine-independent host-cost gate: heap allocations per simulated event
// and events per fault on a fixed small canvas co-run and a fixed small
// pool4 churn. Unlike wall time, both are exact on any machine, so tier-1
// can pin them: allocations per event must stay at or below a committed
// bound (ratchet it down when a change removes allocations), and the event
// and fault counts must equal the committed values (a change that moves
// them changes the simulation, and must say so by updating them here).
//
// This binary replaces the global operator new to count calls, so it is its
// own executable and stays out of the sanitizer passes (label `perf`).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "common/rng.h"
#include "core/experiment.h"
#include "orchestrator/churn.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* Counted(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return Counted(n); }
void* operator new[](std::size_t n) { return Counted(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

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
// Only the run is counted: construction allocates the page tables.
TEST(AllocGate, CanvasCorun) {
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
  // Measured 0.2587: one Request per RDMA operation plus waiter lists and
  // workload buffers.
  EXPECT_LE(c.AllocsPerEvent(), 0.27);
}

// Tenants arrive, fault, swap to a harvested 4-server pool and are reaped;
// tenant construction happens inside the run and is counted.
TEST(AllocGate, Pool4Churn) {
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
  c.horizon = 200 * kMillisecond;
  c.max_tenants = 60;
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
  ASSERT_EQ(runs.size(), 1u);

  std::uint64_t before = g_allocations.load();
  orchestrator::ChurnResult r = orchestrator::RunChurn(runs[0]);
  Cost cost;
  cost.allocations = g_allocations.load() - before;
  ASSERT_EQ(r.status, orchestrator::ChurnResult::Status::kOk) << r.error;
  cost.events = r.sim_events;
  cost.faults = r.faults;
  Report("pool4 churn", cost);
  EXPECT_EQ(cost.events, 642605u);
  EXPECT_EQ(cost.faults, 50558u);
  // Measured 0.2198, tenant construction included.
  EXPECT_LE(cost.AllocsPerEvent(), 0.23);
}

}  // namespace
}  // namespace canvas
