#include "replay.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "mem/swap_cache.h"
#include "rdma/nic.h"
#include "sched/timeliness.h"
#include "sched/two_dim.h"
#include "sim/simulator.h"
#include "swapalloc/cluster.h"
#include "workload/arrival.h"

namespace perfbench {

using namespace canvas;

namespace {

using Clock = std::chrono::steady_clock;

/// Keeps the compiler from discarding a replay's results.
volatile std::uint64_t g_sink = 0;

/// Median host ns per call over several timed batches of `calls` calls each,
/// after one untimed warm-up batch.
template <typename Batch>
double NsPerCall(std::uint64_t calls, Batch&& batch) {
  constexpr int kBatches = 7;
  batch();
  std::vector<double> ns;
  for (int i = 0; i < kBatches; ++i) {
    auto t0 = Clock::now();
    batch();
    ns.push_back(std::chrono::duration<double, std::nano>(Clock::now() - t0)
                     .count() /
                 double(calls));
  }
  std::nth_element(ns.begin(), ns.begin() + kBatches / 2, ns.end());
  return ns[kBatches / 2];
}

// Per-cgroup swap-cache budget (CgroupSpec default: 32 MiB of pages).
constexpr std::uint64_t kCachePages = 8192;

/// PopLruUnlocked plus the insert that refills the cache, with `locked_pct`
/// of the entries held locked (in flight) for the whole replay. A warm-up
/// pass lets the locked entries drift to the LRU tail, where the pop has to
/// walk past them — the steady state of a cache full of starved prefetches.
double PopLru(int locked_pct) {
  mem::SwapCache cache("replay", kCachePages);
  PageId next = 0;
  for (; next < kCachePages; ++next)
    cache.Insert(1, next, int(next % 100) < locked_pct, false, 0);
  auto pop_refill = [&] {
    mem::SwapCache::Entry e;
    if (cache.PopLruUnlocked(e)) g_sink = g_sink + e.page;
    cache.Insert(1, next++, false, false, 0);
  };
  for (std::uint64_t i = 0; i < kCachePages; ++i) pop_refill();
  std::uint64_t calls = locked_pct ? 2000 : 200'000;
  return NsPerCall(calls, [&] {
    for (std::uint64_t i = 0; i < calls; ++i) pop_refill();
  });
}

/// Lookup over a full cache, half of the probes hitting.
double Lookup() {
  mem::SwapCache cache("replay", kCachePages);
  for (PageId p = 0; p < kCachePages; ++p) cache.Insert(1, p, false, false, 0);
  Rng rng(11);
  std::vector<PageId> probes(1 << 16);
  for (PageId& p : probes) p = rng.NextBounded(2 * kCachePages);
  constexpr std::uint64_t kCalls = 1'000'000;
  return NsPerCall(kCalls, [&] {
    std::uint64_t hits = 0;
    for (std::uint64_t i = 0; i < kCalls; ++i)
      hits += cache.Lookup(1, probes[i & (probes.size() - 1)]) != nullptr;
    g_sink = g_sink + hits;
  });
}

/// Insert into a full-sized cache plus the Remove that keeps it full.
double InsertRemove() {
  mem::SwapCache cache("replay", kCachePages);
  PageId next = 0;
  for (; next < kCachePages; ++next) cache.Insert(1, next, false, false, 0);
  PageId oldest = 0;
  constexpr std::uint64_t kCalls = 500'000;
  return NsPerCall(kCalls, [&] {
    for (std::uint64_t i = 0; i < kCalls; ++i) {
      cache.Insert(1, next++, false, false, 0);
      cache.Remove(1, oldest++);
    }
  });
}

/// Timeliness samples: log-uniform between 10 us and 5 ms.
std::vector<SimDuration> TimelinessSamples(std::size_t n) {
  Rng rng(12);
  std::vector<SimDuration> out(n);
  for (SimDuration& d : out)
    d = SimDuration(10'000.0 * std::pow(500.0, rng.NextDouble()));
  return out;
}

/// Record + Threshold with the 256-sample window already full.
double Threshold() {
  sched::TimelinessTracker t;
  std::vector<SimDuration> dt = TimelinessSamples(4096);
  for (std::size_t i = 0; i < 256; ++i) t.Record(1, dt[i]);
  constexpr std::uint64_t kCalls = 20'000;
  return NsPerCall(kCalls, [&] {
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < kCalls; ++i) {
      t.Record(1, dt[i & 4095]);
      sum += t.Threshold(1);
    }
    g_sink = g_sink + sum;
  });
}

/// Canvas two-dimensional scheduler, horizontal dropping on: four cgroups
/// with full timeliness windows, 64 queued ingress requests (half demand,
/// half prefetch); each call dequeues one and re-enqueues it. With a NIC
/// attached, every prefetch pop consults Threshold, as in a run; the NIC
/// takes the first request and then stays busy, since the simulator never
/// runs.
double EnqueueDequeue() {
  sim::Simulator sim;
  sched::TwoDimScheduler s;
  rdma::Nic nic(sim, rdma::Nic::Config{}, s);
  s.AttachNic(&nic);
  std::vector<SimDuration> dt = TimelinessSamples(256);
  for (CgroupId c = 0; c < 4; ++c) {
    s.RegisterCgroup(c, 1.0 + c);
    for (SimDuration d : dt) s.timeliness().Record(c, d);
  }
  for (int i = 0; i < 64; ++i) {
    auto r = std::make_unique<rdma::Request>();
    r->op = i % 2 ? rdma::Op::kDemandIn : rdma::Op::kPrefetchIn;
    r->cgroup = CgroupId(i % 4);
    s.Enqueue(std::move(r));
  }
  constexpr std::uint64_t kCalls = 50'000;
  return NsPerCall(kCalls, [&] {
    for (std::uint64_t i = 0; i < kCalls; ++i) {
      rdma::RequestPtr r = s.Dequeue(rdma::Direction::kIngress, 0);
      s.Enqueue(std::move(r));
    }
  });
}

/// Entry allocation on the `canvas` preset's cluster allocator (the lock
/// path the reservation manager bypasses), including the simulator drain
/// that delivers the entry, then Free.
double AllocateFree() {
  sim::Simulator sim;
  swapalloc::ClusterAllocator alloc(sim, 1u << 20, {});
  constexpr std::uint64_t kCalls = 100'000;
  return NsPerCall(kCalls, [&] {
    for (std::uint64_t i = 0; i < kCalls; ++i) {
      SwapEntryId got = kInvalidEntry;
      alloc.Allocate(CoreId(i & 3), [&](swapalloc::AllocResult r) {
        got = r.entry;
      });
      sim.Run();
      alloc.Free(got);
    }
  });
}

/// NextArrival for one serving-flash frontend thread (150k rps over four
/// threads, an 8x flash crowd over the third quarter of an 8 s horizon).
double NextArrival() {
  workload::ArrivalConfig cfg;
  cfg.kind = workload::ArrivalKind::kFlashCrowd;
  cfg.rate_rps = 150'000 / 4.0;
  cfg.flash_start = 4 * kSecond;
  cfg.flash_duration = 2 * kSecond;
  constexpr SimTime kHorizon = 8 * kSecond;
  std::uint64_t seed = 13;
  auto ap = std::make_unique<workload::ArrivalProcess>(cfg, seed);
  constexpr std::uint64_t kCalls = 500'000;
  return NsPerCall(kCalls, [&] {
    for (std::uint64_t i = 0; i < kCalls; ++i) {
      SimTime t = ap->NextArrival();
      if (t >= kHorizon)
        ap = std::make_unique<workload::ArrivalProcess>(cfg, ++seed);
    }
  });
}

/// Schedule + Run per event: 4096 events at random delays up to 100 us.
double ScheduleRun() {
  sim::Simulator sim;
  Rng rng(14);
  std::vector<SimDuration> delays(4096);
  for (SimDuration& d : delays) d = rng.NextBounded(100'000);
  std::uint64_t fired = 0;
  constexpr std::uint64_t kRounds = 64;
  return NsPerCall(kRounds * delays.size(), [&] {
    for (std::uint64_t r = 0; r < kRounds; ++r) {
      for (SimDuration d : delays) sim.Schedule(d, [&fired] { ++fired; });
      sim.Run();
    }
    g_sink = g_sink + fired;
  });
}

}  // namespace

std::vector<ReplayResult> RunReplays() {
  return {
      {"mem.pop_lru_ns.locked0", "corun", PopLru(0)},
      {"mem.pop_lru_ns.locked50", "corun", PopLru(50)},
      {"mem.pop_lru_ns.locked90", "corun", PopLru(90)},
      {"mem.lookup_ns", "corun", Lookup()},
      {"mem.insert_ns", "corun", InsertRemove()},
      {"sched.threshold_ns", "corun, cluster-day", Threshold()},
      {"sched.dequeue_ns", "corun", EnqueueDequeue()},
      {"swapalloc.allocate_ns", "corun", AllocateFree()},
      {"workload.arrival_ns", "serving-flash", NextArrival()},
      {"sim.schedule_run_ns", "serving-flash", ScheduleRun()},
  };
}

}  // namespace perfbench
