// Micro-benchmarks (google-benchmark) for the hot paths of each substrate:
// ablation evidence for the design choices called out in DESIGN.md §4
// (intrusive LRU, hash-indexed swap cache, WFQ dequeue over the backlog,
// detector updates, event-queue throughput, the swap-cache shrink pop, the
// timeliness budget and the pressured hot-page scan tick).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "cgroup/cgroup.h"
#include "common/rng.h"
#include "mem/lru.h"
#include "mem/swap_cache.h"
#include "prefetch/leap.h"
#include "prefetch/readahead.h"
#include "runtime/runtime_info.h"
#include "sched/fastswap.h"
#include "sched/timeliness.h"
#include "sched/two_dim.h"
#include "sim/simulator.h"
#include "swapalloc/cluster.h"
#include "swapalloc/freelist.h"
#include "swapalloc/partition.h"
#include "swapalloc/reservation.h"

using namespace canvas;

static void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int count = 0;
    for (int i = 0; i < 1000; ++i) sim.Schedule(SimDuration(i), [&] { ++count; });
    sim.Run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorEventThroughput);

static void BM_LruTouch(benchmark::State& state) {
  std::vector<mem::Page> pages(4096);
  mem::LruLists lru(pages);
  for (PageId i = 0; i < 4096; ++i) {
    pages[i].state = mem::PageState::kResident;
    lru.AddActive(i);
  }
  Rng rng(1);
  for (auto _ : state) lru.Touch(rng.NextBounded(4096));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruTouch);

static void BM_LruEvictionCandidate(benchmark::State& state) {
  std::vector<mem::Page> pages(4096);
  mem::LruLists lru(pages);
  for (PageId i = 0; i < 4096; ++i) {
    pages[i].state = mem::PageState::kResident;
    lru.AddActive(i);
  }
  Rng rng(1);
  for (auto _ : state) {
    PageId v = lru.EvictionCandidate();
    benchmark::DoNotOptimize(v);
    lru.Touch(rng.NextBounded(4096));
  }
}
BENCHMARK(BM_LruEvictionCandidate);

static void BM_SwapCacheLookup(benchmark::State& state) {
  mem::SwapCache cache("bench", 8192);
  for (PageId p = 0; p < 4096; ++p) cache.Insert(1, p, false, false, 0);
  Rng rng(2);
  for (auto _ : state)
    benchmark::DoNotOptimize(cache.Lookup(1, rng.NextBounded(8192)));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SwapCacheLookup);

static void BM_SwapCacheInsertRemove(benchmark::State& state) {
  mem::SwapCache cache("bench", 8192);
  PageId p = 0;
  for (auto _ : state) {
    cache.Insert(1, p, false, false, 0);
    cache.Remove(1, p);
    ++p;
  }
}
BENCHMARK(BM_SwapCacheInsertRemove);

// Shrink pop plus the insert that refills the cache, with range(0) percent
// of a full per-cgroup cache held locked (in flight) throughout. The
// warm-up pass makes the locked entries the cache's oldest.
static void BM_SwapCachePopLru(benchmark::State& state) {
  const auto locked_pct = PageId(state.range(0));
  constexpr PageId kPages = 8192;
  mem::SwapCache cache("bench", kPages);
  PageId next = 0;
  for (; next < kPages; ++next)
    cache.Insert(1, next, next % 100 < locked_pct, false, 0);
  auto pop_refill = [&] {
    mem::SwapCache::Entry e;
    if (cache.PopLruUnlocked(e)) benchmark::DoNotOptimize(e.page);
    cache.Insert(1, next++, false, false, 0);
  };
  for (PageId i = 0; i < kPages; ++i) pop_refill();
  for (auto _ : state) pop_refill();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SwapCachePopLru)->Arg(0)->Arg(50)->Arg(90);

// One sample recorded into a full 256-sample window, then the budget read
// that every prefetch dequeue makes.
static void BM_TimelinessRecordThreshold(benchmark::State& state) {
  sched::TimelinessTracker t;
  Rng rng(3);
  for (int i = 0; i < 256; ++i)
    t.Record(1, SimDuration(rng.NextBounded(4000)) * kMicrosecond);
  for (auto _ : state) {
    t.Record(1, SimDuration(rng.NextBounded(4000)) * kMicrosecond);
    benchmark::DoNotOptimize(t.Threshold(1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TimelinessRecordThreshold);

static void BM_FreelistAllocate(benchmark::State& state) {
  sim::Simulator sim;
  swapalloc::FreelistAllocator alloc(sim, 1u << 20, {});
  for (auto _ : state) {
    SwapEntryId got = kInvalidEntry;
    alloc.Allocate(0, [&](swapalloc::AllocResult r) { got = r.entry; });
    sim.Run();
    alloc.Free(got);
  }
}
BENCHMARK(BM_FreelistAllocate);

static void BM_ClusterAllocate(benchmark::State& state) {
  sim::Simulator sim;
  swapalloc::ClusterAllocator alloc(sim, 1u << 20, {});
  for (auto _ : state) {
    SwapEntryId got = kInvalidEntry;
    alloc.Allocate(0, [&](swapalloc::AllocResult r) { got = r.entry; });
    sim.Run();
    alloc.Free(got);
  }
}
BENCHMARK(BM_ClusterAllocate);

static void BM_ReadaheadOnFault(benchmark::State& state) {
  prefetch::ReadaheadPrefetcher p({prefetch::ContextMode::kPerApp, 1024});
  std::vector<PageId> out;
  PageId page = 0;
  for (auto _ : state) {
    out.clear();
    p.OnFault({1, page++, 0, 0, false}, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReadaheadOnFault);

static void BM_LeapOnFault(benchmark::State& state) {
  prefetch::LeapPrefetcher p({prefetch::ContextMode::kPerApp, 8});
  std::vector<PageId> out;
  Rng rng(3);
  for (auto _ : state) {
    out.clear();
    p.OnFault({1, rng.NextBounded(1u << 20), 0, 0, false}, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LeapOnFault);

static void BM_SummaryGraphReachable(benchmark::State& state) {
  runtime::RuntimeInfo info;
  Rng rng(4);
  std::vector<std::pair<PageId, PageId>> refs(20000);
  for (auto& [from, to] : refs) {
    from = rng.NextBounded(1u << 16);
    to = rng.NextBounded(1u << 16);
  }
  // Record in source-group order, as a heap built in address order does;
  // the stable sort keeps each group's insertion order, so the graph is
  // the one the draw order gives.
  std::stable_sort(refs.begin(), refs.end(), [](const auto& a, const auto& b) {
    return runtime::RuntimeInfo::GroupOf(a.first) <
           runtime::RuntimeInfo::GroupOf(b.first);
  });
  for (const auto& [from, to] : refs) info.RecordReference(from, to);
  std::vector<PageId> out;
  for (auto _ : state) {
    info.ReachablePages(rng.NextBounded(1u << 16), 3, 32, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SummaryGraphReachable);

static rdma::RequestPtr MicroReq(rdma::Op op, CgroupId cg) {
  auto r = std::make_unique<rdma::Request>();
  r->op = op;
  r->cgroup = cg;
  return r;
}

static void BM_FastswapDequeue(benchmark::State& state) {
  sched::FastswapScheduler s;
  for (auto _ : state) {
    state.PauseTiming();
    for (int i = 0; i < 64; ++i)
      s.Enqueue(MicroReq(i % 2 ? rdma::Op::kDemandIn : rdma::Op::kPrefetchIn,
                         CgroupId(i % 4)));
    state.ResumeTiming();
    while (auto r = s.Dequeue(rdma::Direction::kIngress, 0))
      benchmark::DoNotOptimize(r.get());
  }
}
BENCHMARK(BM_FastswapDequeue);

// Dispatch with range(0) registered cgroups of which 3 are backlogged: the
// cost follows the backlog, so 4 and 64 registered should match.
static void BM_TwoDimDequeue(benchmark::State& state) {
  const auto registered = CgroupId(state.range(0));
  sched::TwoDimScheduler::Config cfg;
  cfg.horizontal = false;
  sched::TwoDimScheduler s(cfg);
  for (CgroupId c = 0; c < registered; ++c) s.RegisterCgroup(c, 1.0 + c % 4);
  const CgroupId busy[3] = {0, registered / 2, registered - 1};
  for (auto _ : state) {
    state.PauseTiming();
    for (int i = 0; i < 63; ++i)
      s.Enqueue(MicroReq(i % 2 ? rdma::Op::kDemandIn : rdma::Op::kPrefetchIn,
                         busy[i % 3]));
    state.ResumeTiming();
    while (auto r = s.Dequeue(rdma::Direction::kIngress, 0))
      benchmark::DoNotOptimize(r.get());
  }
  state.SetItemsProcessed(state.iterations() * 63);
}
BENCHMARK(BM_TwoDimDequeue)->Arg(4)->Arg(64);

// One pressured hot-page scan tick (remote usage above the 75% threshold,
// free slack above target: the tick bumps the scan generation and returns)
// plus the LRU churn between two ticks — four evictions whose pages fault
// straight back in at the active head — at scan windows of range(0)
// pages. The scan is incremental, so the cost is flat in the window size
// (an eager walk of the window costs a few ns per page).
static void BM_ReservationPressuredTick(benchmark::State& state) {
  constexpr PageId kPages = 16384;
  sim::Simulator sim;
  std::vector<mem::Page> pages(kPages);
  mem::LruLists lru(pages);
  for (PageId i = 0; i < kPages; ++i) {
    pages[i].state = mem::PageState::kResident;
    lru.AddActive(i);
  }
  swapalloc::SwapPartition partition(sim, "bench", 1000, {});
  for (int i = 0; i < 800; ++i)
    partition.allocator().Allocate(0, [](swapalloc::AllocResult) {});
  sim.Run();
  Cgroup cgroup(0, CgroupSpec{"bench", kPages, 1000, 64, 1.0, 1});
  swapalloc::ReservationManager::Config cfg;
  cfg.scan_pages = std::size_t(state.range(0));
  swapalloc::ReservationManager m(sim, pages, lru, partition, cgroup, cfg);
  m.Start();
  for (auto _ : state) {
    for (int i = 0; i < 4; ++i) {
      PageId v = lru.EvictionCandidate();
      lru.Remove(v);
      lru.AddActive(v);
    }
    sim.RunUntil(sim.Now() + cfg.scan_period);
  }
  if (m.scans() == 0) state.SkipWithError("the tick never ran pressured");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReservationPressuredTick)->Arg(512)->Arg(2048)->Arg(8192);

BENCHMARK_MAIN();
