// Unit tests for workload pattern primitives and the Table 2 application
// models.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <set>
#include <thread>
#include <vector>

#include "cgroup/cgroup.h"
#include "workload/apps.h"
#include "workload/arrival.h"
#include "workload/patterns.h"

namespace canvas::workload {
namespace {

TEST(SequentialScan, VisitsEveryPageInOrder) {
  SequentialScanStream::Params p;
  p.region = {100, 10};
  p.passes = 1;
  SequentialScanStream s(p);
  for (PageId i = 0; i < 10; ++i) {
    auto a = s.Next();
    ASSERT_TRUE(a);
    EXPECT_EQ(a->page, 100 + i);
  }
  EXPECT_FALSE(s.Next());
}

TEST(SequentialScan, MultiplePassesRestart) {
  SequentialScanStream::Params p;
  p.region = {0, 4};
  p.passes = 3;
  SequentialScanStream s(p);
  int count = 0;
  while (s.Next()) ++count;
  EXPECT_EQ(count, 12);
}

TEST(SequentialScan, StrideSkipsPages) {
  SequentialScanStream::Params p;
  p.region = {0, 16};
  p.stride = 4;
  p.passes = 1;
  SequentialScanStream s(p);
  std::vector<PageId> pages;
  while (auto a = s.Next()) pages.push_back(a->page);
  EXPECT_EQ(pages, (std::vector<PageId>{0, 4, 8, 12}));
}

TEST(SequentialScan, NegativeStrideDescends) {
  SequentialScanStream::Params p;
  p.region = {0, 8};
  p.stride = -2;
  p.passes = 1;
  SequentialScanStream s(p);
  std::vector<PageId> pages;
  while (auto a = s.Next()) pages.push_back(a->page);
  EXPECT_EQ(pages, (std::vector<PageId>{7, 5, 3, 1}));
}

TEST(SequentialScan, WriteFractionRoughlyHonored) {
  SequentialScanStream::Params p;
  p.region = {0, 1000};
  p.passes = 10;
  p.write_fraction = 0.25;
  SequentialScanStream s(p);
  int writes = 0, total = 0;
  while (auto a = s.Next()) {
    writes += a->write;
    ++total;
  }
  EXPECT_NEAR(double(writes) / total, 0.25, 0.03);
}

TEST(Zipf, AllAccessesWithinRegion) {
  ZipfStream::Params p;
  p.region = {500, 100};
  p.accesses = 5000;
  ZipfStream s(p);
  int count = 0;
  while (auto a = s.Next()) {
    EXPECT_GE(a->page, 500u);
    EXPECT_LT(a->page, 600u);
    ++count;
  }
  EXPECT_EQ(count, 5000);
}

TEST(Zipf, SkewConcentratesOnFewPages) {
  ZipfStream::Params p;
  p.region = {0, 1000};
  p.accesses = 20000;
  p.theta = 0.99;
  ZipfStream s(p);
  std::map<PageId, int> counts;
  while (auto a = s.Next()) ++counts[a->page];
  std::vector<int> sorted;
  for (auto& [pg, c] : counts) sorted.push_back(c);
  std::sort(sorted.rbegin(), sorted.rend());
  int top100 = 0, total = 0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i < 100) top100 += sorted[i];
    total += sorted[i];
  }
  EXPECT_GT(double(top100) / total, 0.5);
}

TEST(Zipf, DeterministicWithSeed) {
  ZipfStream::Params p;
  p.region = {0, 100};
  p.accesses = 100;
  p.seed = 42;
  ZipfStream a(p), b(p);
  for (int i = 0; i < 100; ++i) {
    auto x = a.Next(), y = b.Next();
    ASSERT_TRUE(x && y);
    EXPECT_EQ(x->page, y->page);
    EXPECT_EQ(x->write, y->write);
  }
}

TEST(Uniform, CoverageAndTermination) {
  UniformStream::Params p;
  p.region = {0, 50};
  p.accesses = 5000;
  UniformStream s(p);
  std::set<PageId> seen;
  int count = 0;
  while (auto a = s.Next()) {
    seen.insert(a->page);
    ++count;
  }
  EXPECT_EQ(count, 5000);
  EXPECT_GT(seen.size(), 45u);  // nearly all pages touched
}

TEST(HeapGraph, EdgesStayInRegion) {
  Region r{1000, 500};
  HeapGraph g(r, 3, 7, nullptr);
  Rng rng(1);
  PageId cur = 1000;
  for (int i = 0; i < 1000; ++i) {
    cur = g.Step(cur, rng);
    EXPECT_GE(cur, 1000u);
    EXPECT_LT(cur, 1500u);
  }
}

// The draw loop picks base and span by mask; it must draw exactly what the
// branching form (coin by NextBool, then one bounded draw) drew, and record
// the summary graph RecordReference over the same edges builds.
TEST(HeapGraph, DrawsWhatTheBranchingLoopDrew) {
  for (std::uint32_t degree : {1u, 3u, 4u}) {
    for (Region r : {Region{491, 1500}, Region{0, 200}, Region{7, 1}}) {
      runtime::RuntimeInfo info, ref_info;
      HeapGraph g(r, degree, 99 + degree, &info);
      Rng rng(99 + degree);
      for (PageId p = 0; p < r.len; ++p) {
        for (std::uint32_t d = 0; d < degree; ++d) {
          PageId target;
          if (rng.NextBool(0.5)) {
            PageId lo = p > 128 ? p - 128 : 0;
            PageId hi = std::min<PageId>(p + 128, r.len - 1);
            target = lo + rng.NextBounded(hi - lo + 1);
          } else {
            target = rng.NextBounded(r.len);
          }
          ASSERT_EQ(g.Neighbors(r.start + p)[d], r.start + target);
          ref_info.RecordReference(r.start + p, r.start + target);
        }
      }
      ASSERT_EQ(info.edge_count(), ref_info.edge_count());
      std::vector<PageId> got, want;
      for (PageId p = r.start; p < r.end(); p += 3) {
        info.ReachablePages(p, 2, 1000, got);
        ref_info.ReachablePages(p, 2, 1000, want);
        ASSERT_EQ(got, want);
      }
    }
  }
}

TEST(HeapGraph, PopulatesRuntimeInfo) {
  runtime::RuntimeInfo info;
  HeapGraph g({0, 256}, 3, 7, &info);
  EXPECT_GT(info.edge_count(), 50u);
}

TEST(HeapGraph, NeighborsMatchStep) {
  Region r{0, 64};
  HeapGraph g(r, 4, 7, nullptr);
  Rng rng(2);
  const PageId* nbrs = g.Neighbors(10);
  for (int i = 0; i < 50; ++i) {
    PageId next = g.Step(10, rng);
    bool found = false;
    for (std::uint32_t d = 0; d < g.degree(); ++d)
      if (nbrs[d] == next) found = true;
    EXPECT_TRUE(found);
  }
}

TEST(PointerChase, DfsFollowsRecordedEdges) {
  runtime::RuntimeInfo info;
  HeapGraph g({0, 256}, 3, 7, &info);
  PointerChaseStream::Params p;
  p.graph = &g;
  p.accesses = 500;
  p.restart_prob = 0.0;
  PointerChaseStream s(p);
  auto prev = s.Next();
  ASSERT_TRUE(prev);
  int followed = 0, total = 0;
  while (auto a = s.Next()) {
    // Each visited page is a recorded out-neighbour of some recent page
    // (DFS worklist); verify reachability via the 1-hop group graph from
    // the previous access most of the time.
    ++total;
    const PageId* nbrs = g.Neighbors(prev->page);
    for (std::uint32_t d = 0; d < g.degree(); ++d)
      if (nbrs[d] == a->page) {
        ++followed;
        break;
      }
    prev = a;
  }
  // DFS: a large share of steps go to a direct out-neighbour.
  EXPECT_GT(double(followed) / total, 0.3);
}

TEST(PointerChase, RandomWalkMode) {
  HeapGraph g({0, 128}, 3, 7, nullptr);
  PointerChaseStream::Params p;
  p.graph = &g;
  p.accesses = 100;
  p.random_walk = true;
  PointerChaseStream s(p);
  int count = 0;
  while (s.Next()) ++count;
  EXPECT_EQ(count, 100);
}

TEST(GcStream, AlternatesTraceAndIdle) {
  HeapGraph g({100, 128}, 3, 7, nullptr);
  GcStream::Params p;
  p.graph = &g;
  p.metadata = {0, 8};
  p.cycles = 2;
  p.trace_accesses_per_cycle = 50;
  p.idle_accesses_per_cycle = 50;
  GcStream s(p);
  int in_heap = 0, in_meta = 0;
  while (auto a = s.Next()) {
    if (a->page >= 100)
      ++in_heap;
    else
      ++in_meta;
  }
  EXPECT_EQ(in_heap, 100);
  EXPECT_EQ(in_meta, 100);
}

TEST(GcStream, TraceAccessesAreWrites) {
  HeapGraph g({100, 64}, 3, 7, nullptr);
  GcStream::Params p;
  p.graph = &g;
  p.metadata = {0, 8};
  p.cycles = 1;
  p.trace_accesses_per_cycle = 20;
  p.idle_accesses_per_cycle = 0;
  GcStream s(p);
  while (auto a = s.Next()) EXPECT_TRUE(a->write);  // marking writes
}

TEST(Phased, ConcatenatesStreams) {
  SequentialScanStream::Params p1;
  p1.region = {0, 3};
  p1.passes = 1;
  SequentialScanStream::Params p2;
  p2.region = {100, 2};
  p2.passes = 1;
  std::vector<std::unique_ptr<ThreadStream>> phases;
  phases.push_back(std::make_unique<SequentialScanStream>(p1));
  phases.push_back(std::make_unique<SequentialScanStream>(p2));
  PhasedStream s(std::move(phases));
  std::vector<PageId> pages;
  while (auto a = s.Next()) pages.push_back(a->page);
  EXPECT_EQ(pages, (std::vector<PageId>{0, 1, 2, 100, 101}));
}

TEST(Mix, DrainsBothStreams) {
  SequentialScanStream::Params p1;
  p1.region = {0, 10};
  p1.passes = 1;
  SequentialScanStream::Params p2;
  p2.region = {100, 10};
  p2.passes = 1;
  MixStream s(std::make_unique<SequentialScanStream>(p1),
              std::make_unique<SequentialScanStream>(p2), 0.5, 3);
  int count = 0;
  while (s.Next()) ++count;
  EXPECT_EQ(count, 20);
}

// --- application factories ---

TEST(Apps, AllFourteenConstruct) {
  for (const char* name :
       {"spark-lr", "spark-km", "spark-pr", "spark-sg", "spark-tc",
        "mllib-bc", "graphx-cc", "graphx-pr", "graphx-sp", "cassandra",
        "neo4j", "xgboost", "snappy", "memcached"}) {
    AppParams p;
    p.scale = 0.1;
    auto w = MakeByName(name, p);
    EXPECT_EQ(w.name, name);
    EXPECT_GT(w.footprint_pages, 0u);
    EXPECT_FALSE(w.threads.empty());
    EXPECT_EQ(w.threads.size(), w.thread_kinds.size());
    ASSERT_NE(w.runtime, nullptr);
  }
}

TEST(Apps, UnknownNameThrows) {
  EXPECT_THROW(MakeByName("nginx", {}), std::invalid_argument);
}

TEST(Apps, ManagedAppsHaveGcThreads) {
  AppParams p;
  p.scale = 0.1;
  for (const char* name : {"spark-lr", "cassandra", "neo4j", "graphx-cc"}) {
    auto w = MakeByName(name, p);
    EXPECT_TRUE(w.managed);
    int gc = 0;
    for (auto k : w.thread_kinds)
      if (k == runtime::ThreadKind::kGc) ++gc;
    EXPECT_GT(gc, 0) << name;
  }
}

TEST(Apps, NativeAppsHaveNoGcThreads) {
  AppParams p;
  p.scale = 0.1;
  for (const char* name : {"xgboost", "snappy", "memcached"}) {
    auto w = MakeByName(name, p);
    EXPECT_FALSE(w.managed);
    for (auto k : w.thread_kinds)
      EXPECT_EQ(k, runtime::ThreadKind::kApplication);
  }
}

TEST(Apps, ThreadCountsMatchPaper) {
  AppParams p;
  p.scale = 0.1;
  EXPECT_EQ(MakeMemcached(p).threads.size(), 4u);
  EXPECT_EQ(MakeXgboost(p).threads.size(), 16u);
  EXPECT_EQ(MakeSnappy(p).threads.size(), 1u);
  EXPECT_GE(MakeSparkLR(p).threads.size(), 24u);
}

TEST(Apps, ThreadOverrideRespected) {
  AppParams p;
  p.scale = 0.1;
  p.threads = 8;
  EXPECT_EQ(MakeMemcached(p).threads.size(), 8u);
}

TEST(Apps, SparkRegistersLargeArrays) {
  AppParams p;
  p.scale = 0.1;
  auto w = MakeSparkLR(p);
  EXPECT_GT(w.runtime->large_array_count(), 0u);
}

TEST(Apps, GraphAppsRecordReferences) {
  AppParams p;
  p.scale = 0.1;
  for (const char* name : {"graphx-cc", "neo4j", "spark-pr"}) {
    auto w = MakeByName(name, p);
    EXPECT_GT(w.runtime->edge_count(), 100u) << name;
  }
}

TEST(Apps, StreamsStayWithinFootprint) {
  AppParams p;
  p.scale = 0.1;
  for (const char* name : {"spark-km", "cassandra", "xgboost", "snappy"}) {
    auto w = MakeByName(name, p);
    for (auto& t : w.threads) {
      for (int i = 0; i < 200; ++i) {
        auto a = t->Next();
        if (!a) break;
        EXPECT_LT(a->page, w.footprint_pages) << name;
      }
    }
  }
}

TEST(Apps, ScaleShrinksFootprint) {
  AppParams small, large;
  small.scale = 0.1;
  large.scale = 1.0;
  EXPECT_LT(MakeSparkLR(small).footprint_pages,
            MakeSparkLR(large).footprint_pages);
}

TEST(Apps, ManagedAppNamesListsEleven) {
  EXPECT_EQ(ManagedAppNames().size(), 11u);
}

TEST(CgroupFor, LimitsFollowRatio) {
  AppParams p;
  p.scale = 0.25;
  auto w = MakeMemcached(p);
  auto cg25 = CgroupFor(w, 0.25, 4);
  auto cg50 = CgroupFor(w, 0.50, 4);
  EXPECT_NEAR(double(cg25.local_mem_pages), 0.25 * double(w.footprint_pages),
              2.0);
  EXPECT_NEAR(double(cg50.local_mem_pages) / double(cg25.local_mem_pages),
              2.0, 0.01);
  EXPECT_EQ(cg25.cores, 4u);
}

TEST(CgroupFor, SlackExceedsSwapCache) {
  // Structural invariant from the deadlock analysis: entry capacity must
  // cover steady-state remote pages plus the swap cache.
  AppParams p;
  p.scale = 0.5;
  for (const char* name : {"spark-lr", "cassandra", "memcached", "snappy"}) {
    auto w = MakeByName(name, p);
    for (double ratio : {0.25, 0.5}) {
      auto cg = CgroupFor(w, ratio, 4);
      std::uint64_t remote_steady = w.footprint_pages - cg.local_mem_pages;
      ASSERT_GT(cg.swap_entry_limit, remote_steady) << name;
      EXPECT_GE(cg.swap_entry_limit - remote_steady, cg.swap_cache_pages)
          << name << " ratio " << ratio;
    }
  }
}

TEST(CgroupFor, WeightDefaultsProportionalToPartition) {
  AppParams p;
  p.scale = 0.25;
  auto small = CgroupFor(MakeMemcached(p), 0.25, 4);
  auto big = CgroupFor(MakeGraphxCC(p), 0.25, 24);
  EXPECT_GT(big.rdma_weight, small.rdma_weight);
  auto fixed = CgroupFor(MakeMemcached(p), 0.25, 4, 7.5);
  EXPECT_DOUBLE_EQ(fixed.rdma_weight, 7.5);
}

// ---------------------------------------------------------------------------
// Statistical sanity for the serving generators (ISSUE 7): SLO numbers are
// meaningless if the arrival process or the popularity skew is off, so pin
// both to their analytic moments across seeds.
// ---------------------------------------------------------------------------

class PoissonStats : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PoissonStats, InterArrivalMeanAndVarianceMatchExponential) {
  ArrivalConfig cfg;
  cfg.kind = ArrivalKind::kPoisson;
  cfg.rate_rps = 100'000;  // mean gap 10us
  ArrivalProcess proc(cfg, GetParam());
  const int kN = 50'000;
  std::vector<double> gaps;
  gaps.reserve(kN);
  SimTime prev = 0;
  for (int i = 0; i < kN; ++i) {
    SimTime t = proc.NextArrival();
    ASSERT_GT(t, prev);  // strictly monotone schedule
    gaps.push_back(double(t - prev));
    prev = t;
  }
  double mean = 0;
  for (double g : gaps) mean += g;
  mean /= kN;
  double var = 0;
  for (double g : gaps) var += (g - mean) * (g - mean);
  var /= kN - 1;
  const double expect_mean = 1e9 / cfg.rate_rps;  // ns
  // Exponential(1/lambda): mean = sd = 1/lambda, CV = 1. The sample mean of
  // 50k draws has sd mean/sqrt(50k) ~ 0.45%; 3% tolerance is > 6 sigma.
  EXPECT_NEAR(mean, expect_mean, 0.03 * expect_mean);
  double cv = std::sqrt(var) / mean;
  EXPECT_NEAR(cv, 1.0, 0.05);
}

TEST_P(PoissonStats, DiurnalAndFlashModulateTheRate) {
  std::uint64_t seed = GetParam();
  auto count_in = [&](const ArrivalConfig& cfg, SimTime lo, SimTime hi) {
    ArrivalProcess proc(cfg, seed);
    int n = 0;
    for (;;) {
      SimTime t = proc.NextArrival();
      if (t >= hi) break;
      if (t >= lo) ++n;
    }
    return n;
  };
  // Diurnal: the rate peaks a quarter-period in and troughs at three
  // quarters; compare arrivals in the two half-periods around them.
  ArrivalConfig di;
  di.kind = ArrivalKind::kDiurnal;
  di.rate_rps = 50'000;
  di.diurnal_amplitude = 0.8;
  di.diurnal_period = 100 * kMillisecond;
  int peak_half = count_in(di, 0, 50 * kMillisecond);
  int trough_half = count_in(di, 50 * kMillisecond, 100 * kMillisecond);
  EXPECT_GT(double(peak_half), 1.5 * double(trough_half));
  // Flash crowd: the burst window carries ~multiplier times the base rate.
  ArrivalConfig fl;
  fl.kind = ArrivalKind::kFlashCrowd;
  fl.rate_rps = 50'000;
  fl.flash_start = 100 * kMillisecond;
  fl.flash_duration = 100 * kMillisecond;
  fl.flash_multiplier = 6.0;
  int before = count_in(fl, 0, 100 * kMillisecond);
  int burst = count_in(fl, 100 * kMillisecond, 200 * kMillisecond);
  EXPECT_NEAR(double(burst) / double(before), fl.flash_multiplier, 1.0);
}

TEST_P(PoissonStats, ZipfRankFrequencySlopeMatchesTheta) {
  // Zipf(theta): frequency of rank r is proportional to r^-theta, so the
  // log-log rank-frequency regression over the head should have slope
  // ~ -theta. Use the raw generator so ranks are observed directly.
  const double theta = 0.99;
  const std::uint64_t kRanks = 10'000;
  ZipfianGenerator zipf(kRanks, theta);
  Rng rng(GetParam());
  std::vector<std::uint64_t> counts(kRanks, 0);
  for (int i = 0; i < 400'000; ++i) ++counts[zipf.Next(rng)];
  // Regress log(count) on log(rank+1) over the top 100 ranks (the head is
  // where the estimate is stable; the tail is noise at this sample size).
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  int n = 0;
  for (std::uint64_t r = 0; r < 100; ++r) {
    if (!counts[r]) continue;
    double x = std::log(double(r + 1));
    double y = std::log(double(counts[r]));
    sx += x; sy += y; sxx += x * x; sxy += x * y;
    ++n;
  }
  ASSERT_GT(n, 90);
  double slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
  EXPECT_NEAR(slope, -theta, 0.12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PoissonStats,
                         ::testing::Values<std::uint64_t>(1, 7, 42, 20260808));

// ---------------------------------------------------------------------------
// Open-loop stream semantics
// ---------------------------------------------------------------------------

OpenLoopZipfStream::Params ServeParams(std::shared_ptr<LoadControl> ctl) {
  OpenLoopZipfStream::Params p;
  p.region = {0, 512};
  p.arrival.rate_rps = 1e6;  // 1us mean gap
  p.horizon = 10 * kMillisecond;
  p.service_ns = 200;
  p.seed = 5;
  p.control = std::move(ctl);
  return p;
}

TEST(OpenLoop, PacesAgainstTheClockAndFinishesAtHorizon) {
  auto ctl = std::make_shared<LoadControl>();
  OpenLoopZipfStream s(ServeParams(ctl));
  SimTime now = 0;
  std::uint64_t served = 0;
  while (auto a = s.NextAt(now)) {
    now += a->compute_ns;  // caller executes the access, clock advances
    EXPECT_LT(a->page, 512u);
    ++served;
  }
  EXPECT_EQ(served, ctl->served);
  EXPECT_EQ(ctl->offered, ctl->served);
  // ~10k arrivals expected over the horizon at 1 rps/us.
  EXPECT_GT(served, 8'000u);
  EXPECT_LT(served, 12'000u);
  // The clock ends at the last arrival + service, within the horizon tail.
  EXPECT_GE(now, 9 * kMillisecond);
}

TEST(OpenLoop, LaggingConsumerRecordsLagNotSlowdown) {
  auto ctl = std::make_shared<LoadControl>();
  auto p = ServeParams(ctl);
  p.service_ns = 5'000;  // 5x the mean arrival gap: consumer must fall behind
  OpenLoopZipfStream s(p);
  SimTime now = 0;
  std::uint64_t served = 0;
  while (auto a = s.NextAt(now)) {
    now += a->compute_ns;
    ++served;
  }
  // Open loop: the overloaded consumer still serves every arrival in the
  // horizon (they queue), and the backlog shows up as lag, not as a
  // stretched arrival schedule.
  EXPECT_EQ(served, ctl->offered);
  EXPECT_GT(served, 8'000u);
  EXPECT_GT(ctl->max_lag, 10 * kMillisecond);
}

TEST(OpenLoop, AdmissionDeferralQueuesArrivalsAtTheGate) {
  auto ctl = std::make_shared<LoadControl>();
  ctl->admit_time = 5 * kMillisecond;
  OpenLoopZipfStream s(ServeParams(ctl));
  auto first = s.NextAt(0);
  ASSERT_TRUE(first);
  // The first request arrives ~1us in but is served at the admission gate:
  // its compute time covers the wait until admit_time.
  EXPECT_GT(first->compute_ns, 4'900'000u);
  EXPECT_GT(ctl->deferred, 0u);
}

TEST(OpenLoop, DeterministicAcrossInstancesAndNowValues) {
  // The emitted (page, write) sequence is a pure function of the seed —
  // the caller's clock only changes pacing, never the request stream.
  auto run = [&](SimTime skew) {
    OpenLoopZipfStream s(ServeParams(nullptr));
    std::vector<std::pair<PageId, bool>> seq;
    SimTime now = skew;
    while (auto a = s.NextAt(now)) {
      seq.emplace_back(a->page, a->write);
      now += a->compute_ns / 2 + 1;  // consumer persistently behind
    }
    return seq;
  };
  auto a = run(0), b = run(3 * kMicrosecond);
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// Draw-ahead stream vs the inline generator
// ---------------------------------------------------------------------------

/// The open-loop stream as an inline generator: every draw made in NextAt,
/// in the order arrival, Zipf rank, write. OpenLoopZipfStream draws ahead in
/// chunks (on a helper thread when it has one) and must emit exactly this.
class ReferenceOpenLoop {
 public:
  explicit ReferenceOpenLoop(OpenLoopZipfStream::Params p)
      : p_(p),
        arrivals_(p.arrival, p.seed ^ 0x5E121C0DEull),
        rng_(p.seed),
        zipf_(std::max<std::uint64_t>(p.region.len, 1), p.theta) {
    perm_.resize(p_.region.len);
    for (PageId i = 0; i < p_.region.len; ++i) perm_[i] = p_.region.start + i;
    Rng perm_rng(p.seed ^ 0xABCD1234u);
    Shuffle(perm_, perm_rng);
  }

  std::optional<Access> NextAt(SimTime now) {
    if (p_.region.len == 0) return std::nullopt;
    LoadControl* ctl = p_.control.get();
    for (;;) {
      SimTime t = arrivals_.NextArrival();
      if (t >= p_.horizon) return std::nullopt;
      if (ctl) {
        ++ctl->offered;
        if (t < ctl->admit_time) {
          ++ctl->deferred;
          t = ctl->admit_time;
          if (t >= p_.horizon) continue;
        }
      }
      std::uint64_t wait_ns = 0;
      if (t > now) {
        wait_ns = t - now;
      } else if (ctl) {
        ctl->max_lag = std::max<SimDuration>(ctl->max_lag, now - t);
      }
      std::uint64_t compute =
          std::min<std::uint64_t>(wait_ns + p_.service_ns,
                                  std::numeric_limits<std::uint32_t>::max());
      if (ctl) ++ctl->served;
      std::uint64_t rank = zipf_.Next(rng_);
      return Access{perm_[rank], rng_.NextBool(p_.write_fraction),
                    std::uint32_t(compute)};
    }
  }

 private:
  OpenLoopZipfStream::Params p_;
  ArrivalProcess arrivals_;
  Rng rng_;
  ZipfianGenerator zipf_;
  std::vector<PageId> perm_;
};

/// One emitted access plus the clock it was asked at.
struct Emitted {
  SimTime now;
  PageId page;
  bool write;
  std::uint32_t compute_ns;
  bool operator==(const Emitted&) const = default;
};

/// Drive `next` to the end the way SwapSystem does (the clock advances by
/// each access's compute time), stalling the consumer every 7th access so
/// it falls behind its schedule too.
template <typename Next>
std::vector<Emitted> Drain(Next&& next) {
  std::vector<Emitted> out;
  SimTime now = 0;
  while (auto a = next(now)) {
    out.push_back({now, a->page, a->write, a->compute_ns});
    now += a->compute_ns;
    if (out.size() % 7 == 0) now += 20 * kMicrosecond;
  }
  EXPECT_FALSE(next(now)) << "a finished stream stays finished";
  return out;
}

struct StreamCase {
  const char* name;
  OpenLoopZipfStream::Params params;
  bool with_control = true;
  SimTime admit_time = 0;
};

OpenLoopZipfStream::Params CaseParams(ArrivalKind kind, SimTime horizon) {
  OpenLoopZipfStream::Params p;
  p.region = {3, 4096};
  p.arrival.kind = kind;
  p.arrival.rate_rps = 1e6;
  p.arrival.diurnal_period = 2 * kMillisecond;
  p.arrival.flash_start = 2 * kMillisecond;
  p.arrival.flash_duration = 1 * kMillisecond;
  p.horizon = horizon;
  p.service_ns = 400;
  p.write_fraction = 0.3;
  p.seed = 1234;
  return p;
}

/// Checks `c` against the reference and returns the draws it consumed
/// (arrivals inside the horizon, plus the one that ended the stream).
std::uint64_t ExpectMatchesReference(const StreamCase& c) {
  SCOPED_TRACE(c.name);
  auto make_ctl = [&]() -> std::shared_ptr<LoadControl> {
    if (!c.with_control) return nullptr;
    auto ctl = std::make_shared<LoadControl>();
    ctl->admit_time = c.admit_time;
    return ctl;
  };
  OpenLoopZipfStream::Params sp = c.params, rp = c.params;
  sp.control = make_ctl();
  rp.control = make_ctl();
  OpenLoopZipfStream stream(sp);
  ReferenceOpenLoop ref(rp);
  auto got = Drain([&](SimTime now) { return stream.NextAt(now); });
  auto want = Drain([&](SimTime now) { return ref.NextAt(now); });
  EXPECT_EQ(got.size(), want.size());
  EXPECT_TRUE(got == want);
  if (!c.with_control) return 0;
  EXPECT_EQ(sp.control->offered, rp.control->offered);
  EXPECT_EQ(sp.control->deferred, rp.control->deferred);
  EXPECT_EQ(sp.control->served, rp.control->served);
  EXPECT_EQ(sp.control->max_lag, rp.control->max_lag);
  return rp.control->offered + 1;
}

TEST(OpenLoopDrawAhead, MatchesTheInlineGenerator) {
  const SimTime h = 9'300 * kMicrosecond;
  std::vector<StreamCase> cases = {
      {"poisson", CaseParams(ArrivalKind::kPoisson, h)},
      {"diurnal", CaseParams(ArrivalKind::kDiurnal, h)},
      {"flash", CaseParams(ArrivalKind::kFlashCrowd, h)},
      {"flash, gate mid-stream", CaseParams(ArrivalKind::kFlashCrowd, h),
       true, 2'500 * kMicrosecond},
      {"gate at the horizon", CaseParams(ArrivalKind::kPoisson, h), true, h},
      {"gate past the horizon", CaseParams(ArrivalKind::kDiurnal, h), true,
       2 * h},
      {"no control block", CaseParams(ArrivalKind::kFlashCrowd, h), false},
      {"short stream", CaseParams(ArrivalKind::kPoisson, 300 * kMicrosecond)},
  };
  std::uint64_t partial = 0;
  for (const StreamCase& c : cases) {
    std::uint64_t draws = ExpectMatchesReference(c);
    if (draws % OpenLoopZipfStream::kChunkDraws != 0) ++partial;
  }
  // Most streams end partway through a chunk; the full-chunk edges are
  // covered below.
  EXPECT_GE(partial, 4u);
}

TEST(OpenLoopDrawAhead, GateAtOrPastTheHorizonServesNothing) {
  for (SimTime gate : {9 * kMillisecond, 20 * kMillisecond}) {
    auto ctl = std::make_shared<LoadControl>();
    ctl->admit_time = gate;
    auto p = CaseParams(ArrivalKind::kPoisson, 9 * kMillisecond);
    p.control = ctl;
    OpenLoopZipfStream s(p);
    EXPECT_FALSE(s.NextAt(0));
    EXPECT_GT(ctl->offered, 8'000u);
    EXPECT_EQ(ctl->deferred, ctl->offered);
    EXPECT_EQ(ctl->served, 0u);
  }
}

TEST(OpenLoopDrawAhead, StreamsEndingOnAChunkEdgeMatch) {
  // Choose horizons so the stream's draws (arrivals plus the one at the
  // horizon) are exactly two chunks, and two chunks plus one.
  const std::uint64_t chunk = OpenLoopZipfStream::kChunkDraws;
  auto base = CaseParams(ArrivalKind::kFlashCrowd, kSecond);
  ArrivalProcess arrivals(base.arrival, base.seed ^ 0x5E121C0DEull);
  std::vector<SimTime> t(2 * chunk + 1);
  for (SimTime& x : t) x = arrivals.NextArrival();
  for (std::uint64_t draws : {2 * chunk, 2 * chunk + 1}) {
    // Arrivals 0 .. draws-2 fall inside, arrival draws-1 ends the stream.
    auto p = base;
    p.horizon = t[draws - 2] + 1;
    EXPECT_EQ(ExpectMatchesReference({"chunk edge", p}), draws);
  }
}

TEST(OpenLoopDrawAhead, EmptyRegionFinishesWithoutAHelper) {
  auto p = CaseParams(ArrivalKind::kPoisson, kMillisecond);
  p.region = {0, 0};
  OpenLoopZipfStream s(p);
  EXPECT_FALSE(s.NextAt(0));
  EXPECT_FALSE(s.has_helper());
}

// ---------------------------------------------------------------------------
// Helper lifetime and the process-wide cap
// ---------------------------------------------------------------------------

OpenLoopZipfStream::Params LongParams() {
  auto p = CaseParams(ArrivalKind::kPoisson, 100 * kMillisecond);
  p.control = std::make_shared<LoadControl>();
  return p;
}

TEST(OpenLoopHelper, DestroyedBeforeFirstNextAtStartsNoThread) {
  unsigned live = OpenLoopZipfStream::LiveHelpers();
  {
    OpenLoopZipfStream s(LongParams());
    EXPECT_FALSE(s.has_helper());
    EXPECT_EQ(OpenLoopZipfStream::LiveHelpers(), live);
  }
  EXPECT_EQ(OpenLoopZipfStream::LiveHelpers(), live);
}

TEST(OpenLoopHelper, DestroyedWhileTheHelperWaitsOnAFullRing) {
  unsigned live = OpenLoopZipfStream::LiveHelpers();
  {
    OpenLoopZipfStream s(LongParams());
    ASSERT_TRUE(s.NextAt(0));
    ASSERT_TRUE(s.has_helper());
    EXPECT_EQ(OpenLoopZipfStream::LiveHelpers(), live + 1);
    // The consumer still holds chunk 0, so the helper stops when the other
    // chunks are full and waits for space.
    while (s.ChunksFilledForTest() < OpenLoopZipfStream::kRingChunks)
      std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  EXPECT_EQ(OpenLoopZipfStream::LiveHelpers(), live);
}

TEST(OpenLoopHelper, DestroyedMidStream) {
  unsigned live = OpenLoopZipfStream::LiveHelpers();
  {
    OpenLoopZipfStream s(LongParams());
    SimTime now = 0;
    for (int i = 0; i < 5'000; ++i) {
      auto a = s.NextAt(now);
      ASSERT_TRUE(a);
      now += a->compute_ns;
    }
    EXPECT_TRUE(s.has_helper());
  }
  EXPECT_EQ(OpenLoopZipfStream::LiveHelpers(), live);
}

TEST(OpenLoopHelper, DestroyedAfterTheStreamEnds) {
  unsigned live = OpenLoopZipfStream::LiveHelpers();
  {
    auto p = LongParams();
    OpenLoopZipfStream s(p);
    SimTime now = 0;
    while (auto a = s.NextAt(now)) now += a->compute_ns;
    EXPECT_GT(p.control->served, 90'000u);
    EXPECT_TRUE(s.has_helper());
  }
  EXPECT_EQ(OpenLoopZipfStream::LiveHelpers(), live);
}

TEST(OpenLoopHelper, StreamOverTheCapFillsInlineAndMatches) {
  unsigned live = OpenLoopZipfStream::LiveHelpers();
  unsigned cap = OpenLoopZipfStream::SetHelperCapForTest(live + 1);
  {
    OpenLoopZipfStream first(LongParams());
    ASSERT_TRUE(first.NextAt(0));
    EXPECT_TRUE(first.has_helper());
    // The cap is reached: the next streams fill their chunks inline.
    OpenLoopZipfStream second(LongParams());
    ASSERT_TRUE(second.NextAt(0));
    EXPECT_FALSE(second.has_helper());
    EXPECT_EQ(OpenLoopZipfStream::LiveHelpers(), live + 1);
    ExpectMatchesReference({"over the cap", CaseParams(ArrivalKind::kFlashCrowd,
                                                       9 * kMillisecond)});
  }
  EXPECT_EQ(OpenLoopZipfStream::SetHelperCapForTest(cap), live + 1);
  EXPECT_EQ(OpenLoopZipfStream::LiveHelpers(), live);
}

}  // namespace
}  // namespace canvas::workload
