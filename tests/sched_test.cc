// Unit tests for the RDMA dispatch schedulers and the timeliness tracker.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <random>
#include <stdexcept>

#include "sched/fastswap.h"
#include "sched/fifo.h"
#include "sched/timeliness.h"
#include "sched/two_dim.h"

namespace canvas::sched {
namespace {

rdma::RequestPtr MakeReq(rdma::Op op, CgroupId cg, SimTime created = 0,
                         std::function<void(const rdma::Request&)> drop = nullptr) {
  auto r = std::make_unique<rdma::Request>();
  r->op = op;
  r->cgroup = cg;
  r->created = created;
  r->on_drop = std::move(drop);
  return r;
}

TEST(Fifo, ArrivalOrderPreserved) {
  FifoScheduler s;
  s.Enqueue(MakeReq(rdma::Op::kPrefetchIn, 1));
  s.Enqueue(MakeReq(rdma::Op::kDemandIn, 2));
  s.Enqueue(MakeReq(rdma::Op::kDemandIn, 1));
  auto r1 = s.Dequeue(rdma::Direction::kIngress, 0);
  auto r2 = s.Dequeue(rdma::Direction::kIngress, 0);
  auto r3 = s.Dequeue(rdma::Direction::kIngress, 0);
  ASSERT_TRUE(r1 && r2 && r3);
  // FIFO: prefetch head-of-line-blocks the demands behind it.
  EXPECT_EQ(r1->op, rdma::Op::kPrefetchIn);
  EXPECT_EQ(r2->cgroup, 2u);
  EXPECT_EQ(r3->cgroup, 1u);
  EXPECT_EQ(s.Dequeue(rdma::Direction::kIngress, 0), nullptr);
}

TEST(Fifo, DirectionsSeparate) {
  FifoScheduler s;
  s.Enqueue(MakeReq(rdma::Op::kSwapOut, 1));
  EXPECT_EQ(s.Dequeue(rdma::Direction::kIngress, 0), nullptr);
  EXPECT_NE(s.Dequeue(rdma::Direction::kEgress, 0), nullptr);
}

TEST(Fastswap, DemandPreemptsQueuedPrefetch) {
  FastswapScheduler s;
  s.Enqueue(MakeReq(rdma::Op::kPrefetchIn, 1));
  s.Enqueue(MakeReq(rdma::Op::kPrefetchIn, 1));
  s.Enqueue(MakeReq(rdma::Op::kDemandIn, 2));
  auto r = s.Dequeue(rdma::Direction::kIngress, 0);
  ASSERT_TRUE(r);
  EXPECT_EQ(r->op, rdma::Op::kDemandIn);
}

TEST(Fastswap, PrefetchStarvesBehindDemand) {
  FastswapScheduler s;
  s.Enqueue(MakeReq(rdma::Op::kPrefetchIn, 1));
  for (int i = 0; i < 5; ++i) s.Enqueue(MakeReq(rdma::Op::kDemandIn, 2));
  for (int i = 0; i < 5; ++i) {
    auto r = s.Dequeue(rdma::Direction::kIngress, 0);
    ASSERT_TRUE(r);
    EXPECT_EQ(r->op, rdma::Op::kDemandIn);
  }
  auto last = s.Dequeue(rdma::Direction::kIngress, 0);
  ASSERT_TRUE(last);
  EXPECT_EQ(last->op, rdma::Op::kPrefetchIn);
}

TEST(Fastswap, SwapoutsOnEgress) {
  FastswapScheduler s;
  s.Enqueue(MakeReq(rdma::Op::kSwapOut, 1));
  EXPECT_NE(s.Dequeue(rdma::Direction::kEgress, 0), nullptr);
  EXPECT_EQ(s.Dequeue(rdma::Direction::kEgress, 0), nullptr);
}

TEST(Timeliness, InitialThresholdBeforeSamples) {
  TimelinessTracker t;
  EXPECT_EQ(t.Threshold(1), 2 * kMillisecond);
}

TEST(Timeliness, QuantileOfRecordedSamples) {
  TimelinessTracker::Config cfg;
  cfg.quantile = 0.5;
  cfg.floor = 0;
  cfg.ceiling = kSecond;
  TimelinessTracker t(cfg);
  for (SimDuration d = 1; d <= 101; ++d) t.Record(1, d * kMicrosecond);
  EXPECT_NEAR(double(t.Threshold(1)), 51.0 * kMicrosecond,
              2.0 * kMicrosecond);
  EXPECT_EQ(t.samples(1), 101u);
}

TEST(Timeliness, ClampsToFloorAndCeiling) {
  TimelinessTracker::Config cfg;
  cfg.floor = 100 * kMicrosecond;
  cfg.ceiling = kMillisecond;
  TimelinessTracker t(cfg);
  for (int i = 0; i < 50; ++i) t.Record(1, 1);  // tiny samples
  EXPECT_EQ(t.Threshold(1), 100 * kMicrosecond);
  for (int i = 0; i < 500; ++i) t.Record(2, 10 * kSecond);  // huge samples
  EXPECT_EQ(t.Threshold(2), kMillisecond);
}

TEST(Timeliness, PerCgroupIsolation) {
  TimelinessTracker::Config cfg;
  cfg.floor = 0;
  cfg.ceiling = kSecond;
  TimelinessTracker t(cfg);
  for (int i = 0; i < 100; ++i) t.Record(1, 10 * kMicrosecond);
  for (int i = 0; i < 100; ++i) t.Record(2, 900 * kMicrosecond);
  EXPECT_LT(t.Threshold(1), t.Threshold(2));
}

TEST(Timeliness, SlidingWindowForgetsOldSamples) {
  TimelinessTracker::Config cfg;
  cfg.window = 16;
  cfg.floor = 0;
  cfg.ceiling = kSecond;
  TimelinessTracker t(cfg);
  for (int i = 0; i < 16; ++i) t.Record(1, kMillisecond);
  for (int i = 0; i < 16; ++i) t.Record(1, kMicrosecond);
  EXPECT_LE(t.Threshold(1), kMicrosecond * 2);
}

TEST(Timeliness, RejectsEmptyWindow) {
  TimelinessTracker::Config cfg;
  cfg.window = 0;
  EXPECT_THROW(TimelinessTracker{cfg}, std::invalid_argument);
}

TEST(Timeliness, RejectsQuantileOutsideUnitInterval) {
  for (double q : {1.5, -0.1, std::nan("")}) {
    TimelinessTracker::Config cfg;
    cfg.quantile = q;
    EXPECT_THROW(TimelinessTracker{cfg}, std::invalid_argument) << q;
  }
  for (double q : {0.0, 1.0}) {
    TimelinessTracker::Config cfg;
    cfg.quantile = q;
    EXPECT_NO_THROW(TimelinessTracker{cfg}) << q;
  }
}

TEST(Timeliness, RejectsFloorAboveCeiling) {
  TimelinessTracker::Config cfg;
  cfg.floor = 2 * kMillisecond;
  cfg.ceiling = kMillisecond;
  EXPECT_THROW(TimelinessTracker{cfg}, std::invalid_argument);
  cfg.floor = cfg.ceiling;
  EXPECT_NO_THROW(TimelinessTracker{cfg});
}

/// Reference threshold: copy the cgroup's last `window` samples, sort,
/// index the quantile.
SimDuration ReferenceThreshold(const TimelinessTracker::Config& cfg,
                               const std::deque<SimDuration>& window) {
  if (window.empty()) return cfg.initial_threshold;
  std::vector<SimDuration> sorted(window.begin(), window.end());
  std::sort(sorted.begin(), sorted.end());
  auto idx = std::size_t(cfg.quantile * double(sorted.size() - 1));
  return std::clamp(sorted[idx], cfg.floor, cfg.ceiling);
}

// Random samples (with many duplicates) across several cgroups, windows
// that wrap many times, and Forget followed by reuse of the same id: the
// sorted-window threshold must equal copy-and-sort after every Record.
TEST(Timeliness, DifferentialAgainstCopyAndSort) {
  for (std::size_t window : {std::size_t(1), std::size_t(7), std::size_t(256)}) {
    for (double q : {0.0, 0.5, 0.9, 1.0}) {
      SCOPED_TRACE(testing::Message() << "window " << window << " q " << q);
      TimelinessTracker::Config cfg;
      cfg.window = window;
      cfg.quantile = q;
      cfg.floor = 3 * kMicrosecond;
      cfg.ceiling = 40 * kMicrosecond;
      TimelinessTracker t(cfg);
      std::map<CgroupId, std::deque<SimDuration>> ref;
      std::mt19937_64 rng(window * 1000 + std::uint64_t(q * 100));
      for (int step = 0; step < 4000; ++step) {
        CgroupId cg = CgroupId(rng() % 3);
        if (rng() % 500 == 0) {
          t.Forget(cg);
          ref.erase(cg);
          ASSERT_EQ(t.samples(cg), 0u);
          ASSERT_EQ(t.Threshold(cg), cfg.initial_threshold);
          continue;
        }
        // 0..49 us: below the floor, inside the clamp and above the
        // ceiling, with repeats.
        SimDuration dt = SimDuration(rng() % 50) * kMicrosecond;
        t.Record(cg, dt);
        auto& w = ref[cg];
        w.push_back(dt);
        if (w.size() > window) w.pop_front();
        for (CgroupId other = 0; other < 3; ++other)
          ASSERT_EQ(t.Threshold(other), ReferenceThreshold(cfg, ref[other]))
              << "step " << step << " cgroup " << other;
      }
    }
  }
}

class TwoDimTest : public ::testing::Test {
 protected:
  static TwoDimScheduler Make(bool horizontal) {
    TwoDimScheduler::Config cfg;
    cfg.horizontal = horizontal;
    return TwoDimScheduler(cfg);
  }
};

/// A NIC whose own source is empty: provides EstimateServiceDelay to the
/// scheduler under test without pulling its requests on Kick.
class IdleNicFixture {
 public:
  explicit IdleNicFixture(rdma::Nic::Config cfg = {})
      : nic_(sim_, cfg, null_source_) {}
  rdma::Nic& nic() { return nic_; }

 private:
  struct NullSource : rdma::RequestSource {
    rdma::RequestPtr Dequeue(rdma::Direction, SimTime) override {
      return nullptr;
    }
  };
  sim::Simulator sim_;
  NullSource null_source_;
  rdma::Nic nic_;
};

TEST_F(TwoDimTest, DemandBeforePrefetchWithinCgroup) {
  auto s = Make(false);
  s.RegisterCgroup(1, 1.0);
  s.Enqueue(MakeReq(rdma::Op::kPrefetchIn, 1));
  s.Enqueue(MakeReq(rdma::Op::kDemandIn, 1));
  auto r = s.Dequeue(rdma::Direction::kIngress, 0);
  ASSERT_TRUE(r);
  EXPECT_EQ(r->op, rdma::Op::kDemandIn);
}

TEST_F(TwoDimTest, WeightedFairInterleaving) {
  auto s = Make(false);
  s.RegisterCgroup(1, 1.0);
  s.RegisterCgroup(2, 3.0);
  for (int i = 0; i < 40; ++i) {
    s.Enqueue(MakeReq(rdma::Op::kDemandIn, 1));
    s.Enqueue(MakeReq(rdma::Op::kDemandIn, 2));
  }
  // Serve 40 slots; cgroup 2 (weight 3) should get ~3x the slots.
  int c1 = 0, c2 = 0;
  for (int i = 0; i < 40; ++i) {
    auto r = s.Dequeue(rdma::Direction::kIngress, 0);
    ASSERT_TRUE(r);
    (r->cgroup == 1 ? c1 : c2)++;
  }
  EXPECT_NEAR(double(c2) / double(c1), 3.0, 0.5);
}

TEST_F(TwoDimTest, WorkConservingWhenOneIdle) {
  auto s = Make(false);
  s.RegisterCgroup(1, 1.0);
  s.RegisterCgroup(2, 1.0);
  for (int i = 0; i < 5; ++i) s.Enqueue(MakeReq(rdma::Op::kDemandIn, 1));
  // Cgroup 2 idle: cgroup 1 gets every slot.
  for (int i = 0; i < 5; ++i) {
    auto r = s.Dequeue(rdma::Direction::kIngress, 0);
    ASSERT_TRUE(r);
    EXPECT_EQ(r->cgroup, 1u);
  }
}

TEST_F(TwoDimTest, IdleFlowCannotClaimRetroactiveBandwidth) {
  auto s = Make(false);
  s.RegisterCgroup(1, 1.0);
  s.RegisterCgroup(2, 1.0);
  // Cgroup 1 consumes many slots while 2 is idle.
  for (int i = 0; i < 50; ++i) s.Enqueue(MakeReq(rdma::Op::kDemandIn, 1));
  for (int i = 0; i < 50; ++i) s.Dequeue(rdma::Direction::kIngress, 0);
  // Now cgroup 2 wakes: it must share 50/50 from here, not monopolize.
  for (int i = 0; i < 20; ++i) {
    s.Enqueue(MakeReq(rdma::Op::kDemandIn, 1));
    s.Enqueue(MakeReq(rdma::Op::kDemandIn, 2));
  }
  int c1 = 0, c2 = 0;
  for (int i = 0; i < 20; ++i) {
    auto r = s.Dequeue(rdma::Direction::kIngress, 0);
    ASSERT_TRUE(r);
    (r->cgroup == 1 ? c1 : c2)++;
  }
  EXPECT_NEAR(c1, c2, 4);
}

TEST_F(TwoDimTest, EgressFairSchedulingOnly) {
  auto s = Make(true);
  s.RegisterCgroup(1, 1.0);
  s.Enqueue(MakeReq(rdma::Op::kSwapOut, 1));
  auto r = s.Dequeue(rdma::Direction::kEgress, 0);
  ASSERT_TRUE(r);
  EXPECT_EQ(r->op, rdma::Op::kSwapOut);
}

TEST_F(TwoDimTest, UnregisteredCgroupAutoRegistered) {
  auto s = Make(false);
  s.Enqueue(MakeReq(rdma::Op::kDemandIn, 42));
  auto r = s.Dequeue(rdma::Direction::kIngress, 0);
  ASSERT_TRUE(r);
  EXPECT_EQ(r->cgroup, 42u);
}

TEST_F(TwoDimTest, HorizontalDropsStalePrefetches) {
  TwoDimScheduler::Config cfg;
  cfg.horizontal = true;
  cfg.timeliness.floor = 10 * kMicrosecond;
  cfg.timeliness.initial_threshold = 10 * kMicrosecond;
  TwoDimScheduler s(cfg);
  IdleNicFixture idle;
  s.AttachNic(&idle.nic());
  s.RegisterCgroup(1, 1.0);
  int dropped = 0;
  // A prefetch created long ago (age >> threshold).
  s.Enqueue(MakeReq(rdma::Op::kPrefetchIn, 1, /*created=*/0,
                    [&](const rdma::Request&) { ++dropped; }));
  auto r = s.Dequeue(rdma::Direction::kIngress, /*now=*/kMillisecond);
  EXPECT_EQ(r, nullptr);  // the only request was dropped as stale
  EXPECT_EQ(dropped, 1);
  EXPECT_EQ(s.drops(), 1u);
  EXPECT_EQ(s.drops_for(1), 1u);
}

TEST_F(TwoDimTest, HorizontalKeepsFreshPrefetches) {
  TwoDimScheduler::Config cfg;
  cfg.horizontal = true;
  cfg.timeliness.initial_threshold = kMillisecond;
  cfg.timeliness.floor = kMillisecond;
  TwoDimScheduler s(cfg);
  IdleNicFixture idle;
  s.AttachNic(&idle.nic());
  s.RegisterCgroup(1, 1.0);
  s.Enqueue(MakeReq(rdma::Op::kPrefetchIn, 1, /*created=*/0));
  auto r = s.Dequeue(rdma::Direction::kIngress, /*now=*/kMicrosecond);
  EXPECT_NE(r, nullptr);
  EXPECT_EQ(s.drops(), 0u);
}

TEST_F(TwoDimTest, DropScanContinuesToNextFreshRequest) {
  TwoDimScheduler::Config cfg;
  cfg.horizontal = true;
  cfg.timeliness.floor = 10 * kMicrosecond;
  cfg.timeliness.initial_threshold = 10 * kMicrosecond;
  TwoDimScheduler s(cfg);
  IdleNicFixture idle;
  s.AttachNic(&idle.nic());
  s.RegisterCgroup(1, 1.0);
  s.Enqueue(MakeReq(rdma::Op::kPrefetchIn, 1, /*created=*/0));  // stale
  s.Enqueue(MakeReq(rdma::Op::kPrefetchIn, 1,
                    /*created=*/kMillisecond - kMicrosecond));  // fresh
  auto r = s.Dequeue(rdma::Direction::kIngress, kMillisecond);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->created, kMillisecond - kMicrosecond);
  EXPECT_EQ(s.drops(), 1u);
}

}  // namespace
}  // namespace canvas::sched
