// Object registry + cooperative behaviour property suite (DESIGN.md §16).
//
// The registry-level properties under seeded random churn:
//   - span non-overlap: no two live objects ever share a page, and Register
//     rejects (rather than corrupts) intersecting spans;
//   - pin/unpin balance: pins nest, unmatched Unpins are rejected, and
//     pinned_pages() returns to zero when every pin is released;
//   - quota conservation: live object/page counts never exceed the
//     RegistryConfig maxima, and Release/Clear return the budget;
//   - generation-checked handles: Clear (tenant reap) bumps the generation
//     so stale handles fail Find/Pin/Release/At safely.
//
// Plus the end-to-end guarantees on the behaviour-structured `chase` app:
// cooperative runs actually engage the machinery (behaviours complete,
// object pins balance by run end), and a registry-on sweep on a pooled
// topology reports the same bytes at --jobs=1 and --jobs=4.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/experiment.h"
#include "object/registry.h"
#include "orchestrator/sweep.h"
#include "runtime/runtime_info.h"
#include "workload/apps.h"

namespace canvas::object {
namespace {

// --- registry churn model ---------------------------------------------------

/// Shadow model: live spans as [first, first+pages) intervals keyed by
/// first page, checked against the registry after every mutation.
struct Model {
  std::map<PageId, std::uint32_t> spans;  // first -> pages

  bool Overlaps(PageId first, std::uint32_t pages) const {
    for (const auto& [f, n] : spans)
      if (first < f + n && f < first + pages) return true;
    return false;
  }
  std::uint64_t TotalPages() const {
    std::uint64_t total = 0;
    for (const auto& [f, n] : spans) total += n;
    return total;
  }
};

TEST(ObjectRegistry, SpansNeverOverlapUnderChurn) {
  ObjectRegistry reg;
  Model model;
  std::vector<ObjectHandle> live;
  Rng rng(0xC0FFEEull);

  for (int step = 0; step < 2000; ++step) {
    if (live.empty() || rng.Next() % 3 != 0) {
      PageId first = rng.Next() % 4096;
      std::uint32_t pages = 1 + std::uint32_t(rng.Next() % 64);
      ObjectHandle h = reg.Register(first, pages);
      if (model.Overlaps(first, pages)) {
        EXPECT_FALSE(h.valid())
            << "registered an overlapping span at " << first;
      } else {
        ASSERT_TRUE(h.valid()) << "rejected a non-overlapping span";
        model.spans[first] = pages;
        live.push_back(h);
        // Every page of the new span resolves back to this object.
        EXPECT_EQ(reg.At(first), h);
        EXPECT_EQ(reg.At(first + pages - 1), h);
      }
    } else {
      std::size_t pick = rng.Next() % live.size();
      ObjectHandle h = live[pick];
      const ObjectSpan* span = reg.Find(h);
      ASSERT_NE(span, nullptr);
      PageId first = span->first;
      ASSERT_TRUE(reg.Release(h));
      model.spans.erase(first);
      live.erase(live.begin() + std::ptrdiff_t(pick));
      EXPECT_EQ(reg.Find(h), nullptr) << "released handle still resolves";
    }
    ASSERT_EQ(reg.object_count(), model.spans.size());
    ASSERT_EQ(reg.page_count(), model.TotalPages());
  }
  EXPECT_GT(reg.rejected_overlap(), 0u)
      << "churn never exercised the overlap check";
}

TEST(ObjectRegistry, PinsNestAndBalanceToZero) {
  ObjectRegistry reg;
  ObjectHandle a = reg.Register(0, 8);
  ObjectHandle b = reg.Register(100, 4);
  ASSERT_TRUE(a.valid());
  ASSERT_TRUE(b.valid());

  // Unpin before any pin is rejected and changes nothing.
  EXPECT_FALSE(reg.Unpin(a));
  EXPECT_EQ(reg.pinned_pages(), 0u);

  // Pins nest: two overlapping behaviours hold `a`, pages count once.
  EXPECT_TRUE(reg.Pin(a));
  EXPECT_TRUE(reg.Pin(a));
  EXPECT_TRUE(reg.Pin(b));
  EXPECT_EQ(reg.PinCount(a), 2u);
  EXPECT_EQ(reg.pinned_pages(), 12u);

  // A pinned object cannot be released out from under its behaviours.
  EXPECT_FALSE(reg.Release(a));
  ASSERT_NE(reg.Find(a), nullptr);

  EXPECT_TRUE(reg.Unpin(a));
  EXPECT_EQ(reg.pinned_pages(), 12u);  // still held once
  EXPECT_TRUE(reg.Unpin(a));
  EXPECT_EQ(reg.pinned_pages(), 4u);  // only b remains
  EXPECT_TRUE(reg.Unpin(b));
  EXPECT_EQ(reg.pinned_pages(), 0u);
  EXPECT_EQ(reg.pins_issued(), reg.pins_released());

  // With the pins drained the release goes through.
  EXPECT_TRUE(reg.Release(a));
  EXPECT_TRUE(reg.Release(b));
  EXPECT_EQ(reg.page_count(), 0u);
}

TEST(ObjectRegistry, QuotasConservedUnderChurnAndReap) {
  RegistryConfig quota;
  quota.max_objects = 16;
  quota.max_pages = 256;
  ObjectRegistry reg(quota);
  std::vector<ObjectHandle> live;
  Rng rng(0xBEEFull);
  PageId next_first = 0;

  for (int step = 0; step < 3000; ++step) {
    std::uint64_t roll = rng.Next() % 10;
    if (roll < 6) {
      // Disjoint-by-construction spans so only the quota can reject.
      std::uint32_t pages = 1 + std::uint32_t(rng.Next() % 48);
      ObjectHandle h = reg.Register(next_first, pages);
      bool fits = reg.object_count() < quota.max_objects &&
                  reg.page_count() + pages <= quota.max_pages;
      if (h.valid()) {
        live.push_back(h);
        next_first += pages;
      } else {
        EXPECT_FALSE(fits) << "quota rejected a span that fits";
      }
    } else if (roll < 9 && !live.empty()) {
      std::size_t pick = rng.Next() % live.size();
      ASSERT_TRUE(reg.Release(live[pick]));
      live.erase(live.begin() + std::ptrdiff_t(pick));
    } else if (roll == 9) {
      // Tenant reap: everything returns at once.
      reg.Clear();
      live.clear();
      EXPECT_EQ(reg.object_count(), 0u);
      EXPECT_EQ(reg.page_count(), 0u);
    }
    ASSERT_LE(reg.object_count(), quota.max_objects);
    ASSERT_LE(reg.page_count(), quota.max_pages);
  }
  EXPECT_GT(reg.rejected_quota(), 0u)
      << "churn never exercised the quota check";
}

TEST(ObjectRegistry, ClearInvalidatesOutstandingHandles) {
  ObjectRegistry reg;
  ObjectHandle h = reg.Register(10, 4);
  ASSERT_TRUE(h.valid());
  std::uint32_t gen_before = reg.generation();

  reg.Clear();
  EXPECT_GT(reg.generation(), gen_before);
  // The stale handle fails every operation safely...
  EXPECT_EQ(reg.Find(h), nullptr);
  EXPECT_FALSE(reg.Pin(h));
  EXPECT_FALSE(reg.Unpin(h));
  EXPECT_FALSE(reg.Release(h));
  EXPECT_FALSE(reg.At(11).valid());

  // ...even when the recycled id-space reuses its page range.
  ObjectHandle fresh = reg.Register(10, 4);
  ASSERT_TRUE(fresh.valid());
  EXPECT_EQ(reg.Find(h), nullptr) << "stale handle resolved recycled state";
  EXPECT_NE(h, fresh);
  EXPECT_TRUE(reg.Pin(fresh));
  EXPECT_TRUE(reg.Unpin(fresh));
}

TEST(ObjectRegistry, ImportsLargeArraysAsSplitSpans) {
  runtime::RuntimeInfo info;
  info.RegisterLargeArray(0, 100);
  info.RegisterLargeArray(1000, 17);

  ObjectRegistry reg;
  // Split at 32 pages: ceil(100/32) + ceil(17/32) = 4 + 1 objects.
  EXPECT_EQ(reg.ImportLargeArrays(info, 32), 5u);
  EXPECT_EQ(reg.object_count(), 5u);
  EXPECT_EQ(reg.page_count(), 117u);
  EXPECT_TRUE(reg.At(99).valid());
  EXPECT_TRUE(reg.At(1016).valid());
  EXPECT_FALSE(reg.At(500).valid());

  // No split: one object per array.
  ObjectRegistry whole;
  EXPECT_EQ(whole.ImportLargeArrays(info, 0), 2u);
  EXPECT_EQ(whole.page_count(), 117u);
}

// --- end-to-end: cooperative chase runs -------------------------------------

core::AppSpec ChaseSpec(double scale, std::uint64_t seed) {
  workload::AppParams p;
  p.scale = scale;
  p.seed = seed;
  auto w = workload::MakeByName("chase", p);
  auto cg = workload::CgroupFor(w, /*ratio=*/0.25, /*cores=*/4);
  return core::AppSpec{std::move(w), std::move(cg)};
}

TEST(ObjectRun, CooperativeChaseEngagesAndBalancesPins) {
  core::SystemConfig cfg = core::SystemConfig::CanvasFull();
  cfg.remote = remote::PoolConfig::FromName("pool4");
  cfg.objects.enabled = true;
  core::Experiment e(cfg, [] {
    std::vector<core::AppSpec> apps;
    apps.push_back(ChaseSpec(0.05, 7));
    return apps;
  }());
  ASSERT_TRUE(e.Run());
  e.simulator().RunUntil(e.simulator().Now() + 200 * kMillisecond);
  const core::AppMetrics& m = e.system().metrics(0);
  EXPECT_GT(m.behaviours_declared, 0u);
  EXPECT_GT(m.behaviours_completed, 0u);
  EXPECT_GT(m.object_fetches + m.object_fetch_hits, 0u);
  // Every pin taken over the run was released by completion/teardown.
  EXPECT_EQ(m.object_pins, m.object_unpins);
  EXPECT_GT(m.object_pins, 0u);
}

TEST(ObjectRun, RegistryOnSweepIsByteIdenticalAcrossJobs) {
  orchestrator::ScenarioSpec sc;
  sc.topologies = {"pool4"};
  sc.granularities = {"object"};
  sc.scales = {0.05};
  sc.seeds = {7, 8, 9, 10};
  sc.apps = {core::AppBuild{"chase"}};

  auto report = [&](unsigned jobs) {
    orchestrator::SweepOptions opts;
    opts.jobs = jobs;
    orchestrator::SweepResult r = orchestrator::SweepEngine(opts).Run(sc);
    EXPECT_TRUE(r.all_ok) << "jobs=" << jobs;
    std::ostringstream os;
    r.WriteJson(os, /*include_timing=*/false);
    return os.str();
  };
  const std::string serial = report(1);
  // Schema v5: the object counters are part of what must match.
  EXPECT_NE(serial.find("\"object_fetches\""), std::string::npos);
  EXPECT_EQ(serial, report(4));
}

}  // namespace
}  // namespace canvas::object
