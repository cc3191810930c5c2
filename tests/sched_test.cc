// Unit tests for the RDMA dispatch schedulers and the timeliness tracker.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <random>
#include <vector>
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

// ---------------------------------------------------------------------------
// Backlog dispatch: the per-direction backlogged-VQP list against the
// ascending-cgroup-id walk it replaced, kept here as the reference. Each
// request carries a unique tag in `page`; both sides must dequeue, drop and
// drain the same tags in the same order.
// ---------------------------------------------------------------------------

/// The pre-backlog TwoDimScheduler dispatch, verbatim: walk every
/// registered cgroup in id order and take the first strictly smallest
/// finish tag. Stale-prefetch decisions come from the scheduler under test
/// (same tracker, same NIC estimate), so only the choice of VQP differs.
class ReferenceTwoDim {
 public:
  struct Item {
    PageId tag;
    SimTime created;
    std::uint32_t bytes;
    rdma::Op op;
  };
  using Stale = std::function<bool(const Item&, CgroupId, SimTime)>;

  void Register(CgroupId cg, double weight) {
    vqps_[cg].weight = weight > 0 ? weight : 1.0;
  }
  void SetWeight(CgroupId cg, double weight) {
    auto it = vqps_.find(cg);
    if (it != vqps_.end()) it->second.weight = weight > 0 ? weight : 1.0;
  }
  bool Backlogged(CgroupId cg) const {
    auto it = vqps_.find(cg);
    return it != vqps_.end() && (it->second.Backlogged(0) ||
                                 it->second.Backlogged(1));
  }
  void Forget(CgroupId cg) { vqps_.erase(cg); }
  void Enqueue(CgroupId cg, const Item& item) {
    auto it = vqps_.find(cg);
    if (it == vqps_.end()) {
      Register(cg, 1.0);
      it = vqps_.find(cg);
    }
    Vqp& vqp = it->second;
    std::size_t d = item.op == rdma::Op::kSwapOut ? 1 : 0;
    if (!vqp.Backlogged(d)) vqp.finish[d] = std::max(vqp.finish[d], vclock_[d]);
    (item.op == rdma::Op::kDemandIn    ? vqp.demand
     : item.op == rdma::Op::kPrefetchIn ? vqp.prefetch
                                         : vqp.swapout)
        .push_back(item);
  }
  /// Returns the dispatched tag (or kInvalidPage); dropped tags go to
  /// `drops`.
  PageId Dequeue(std::size_t d, SimTime now, const Stale& stale,
                 std::vector<PageId>& drops) {
    for (;;) {
      Vqp* best = nullptr;
      CgroupId best_cg = 0;
      for (auto& [cg, vqp] : vqps_) {
        if (!vqp.Backlogged(d)) continue;
        if (!best || vqp.finish[d] < best->finish[d]) {
          best = &vqp;
          best_cg = cg;
        }
      }
      if (!best) return kInvalidPage;
      std::optional<Item> item;
      if (d == 1) {
        item = best->swapout.front();
        best->swapout.pop_front();
      } else if (!best->demand.empty()) {
        item = best->demand.front();
        best->demand.pop_front();
      } else {
        while (!best->prefetch.empty()) {
          Item p = best->prefetch.front();
          best->prefetch.pop_front();
          if (stale(p, best_cg, now)) {
            drops.push_back(p.tag);
            continue;
          }
          item = p;
          break;
        }
      }
      if (!item) continue;
      double start = std::max(best->finish[d], vclock_[d]);
      best->finish[d] = start + double(item->bytes) / best->weight;
      vclock_[d] = start;
      return item->tag;
    }
  }
  template <typename Pred>
  std::vector<PageId> Drain(Pred pred) {
    std::vector<PageId> out;
    for (auto& [cg, vqp] : vqps_)
      for (auto* q : {&vqp.demand, &vqp.prefetch, &vqp.swapout}) {
        std::deque<Item> kept;
        for (const Item& it : *q)
          (pred(it) ? out.push_back(it.tag) : kept.push_back(it));
        q->swap(kept);
      }
    return out;
  }

 private:
  struct Vqp {
    double weight = 1.0;
    std::deque<Item> demand, prefetch, swapout;
    double finish[2] = {0, 0};
    bool Backlogged(std::size_t d) const {
      return d == 1 ? !swapout.empty() : !(demand.empty() && prefetch.empty());
    }
  };
  std::map<CgroupId, Vqp> vqps_;
  double vclock_[2] = {0, 0};
};

/// Drives a TwoDimScheduler and the reference with one operation stream.
class BacklogDifferential {
 public:
  BacklogDifferential() : s_(MakeConfig()) { s_.AttachNic(&idle_.nic()); }

  static TwoDimScheduler::Config MakeConfig() {
    TwoDimScheduler::Config cfg;
    cfg.horizontal = true;
    // A fixed 50 us budget: prefetches older than ~50 us at dequeue drop.
    cfg.timeliness.initial_threshold = 50 * kMicrosecond;
    cfg.timeliness.floor = 50 * kMicrosecond;
    cfg.timeliness.ceiling = 50 * kMicrosecond;
    return cfg;
  }

  void Register(CgroupId cg, double w) {
    s_.RegisterCgroup(cg, w);
    ref_.Register(cg, w);
  }
  void SetWeight(CgroupId cg, double w) {
    s_.SetWeight(cg, w);
    ref_.SetWeight(cg, w);
  }
  void Enqueue(CgroupId cg, rdma::Op op, SimTime created,
               std::uint32_t bytes) {
    PageId tag = next_tag_++;
    auto r = MakeReq(op, cg, created, [this](const rdma::Request& req) {
      drops_.push_back(req.page);
    });
    r->page = tag;
    r->bytes = bytes;
    s_.Enqueue(std::move(r));
    ref_.Enqueue(cg, {tag, created, bytes, op});
  }
  void Dequeue(rdma::Direction dir, SimTime now) {
    auto stale = [&](const ReferenceTwoDim::Item& it, CgroupId cg,
                     SimTime t) {
      SimDuration est =
          (t - it.created) + idle_.nic().EstimateServiceDelay(dir, t);
      return est > s_.timeliness().Threshold(cg);
    };
    std::vector<PageId> ref_drops;
    PageId want = ref_.Dequeue(std::size_t(dir), now, stale, ref_drops);
    drops_.clear();
    auto got = s_.Dequeue(dir, now);
    ASSERT_EQ(got ? got->page : kInvalidPage, want);
    ASSERT_EQ(drops_, ref_drops);
    served_ += got != nullptr;
  }
  void Drain(PageId modulo) {
    auto pred = [modulo](PageId tag) { return tag % modulo == 0; };
    auto got = s_.DrainMatching(
        [&](const rdma::Request& r) { return pred(r.page); });
    auto want = ref_.Drain([&](const ReferenceTwoDim::Item& it) {
      return pred(it.tag);
    });
    std::vector<PageId> got_tags;
    for (auto& r : got) got_tags.push_back(r->page);
    ASSERT_EQ(got_tags, want);
  }
  /// Forget when idle (both sides), or check that a backlogged cgroup is
  /// refused without losing anything.
  void Forget(CgroupId cg) {
    if (ref_.Backlogged(cg)) {
      ASSERT_THROW(s_.ForgetCgroup(cg), std::logic_error);
      return;
    }
    s_.ForgetCgroup(cg);
    ref_.Forget(cg);
  }

  TwoDimScheduler s_;
  ReferenceTwoDim ref_;
  IdleNicFixture idle_;
  std::vector<PageId> drops_;
  PageId next_tag_ = 1;
  std::size_t served_ = 0;
};

// Random enqueue / dequeue / drain / reweight / forget-and-reuse sequences
// over a few cgroup populations. Byte sizes come from a small set, so equal
// finish tags (where the lowest cgroup id must win) are common, and stale
// prefetches empty VQPs in the middle of a dequeue.
TEST(TwoDimBacklog, DifferentialAgainstIdOrderWalk) {
  for (CgroupId n_cgroups : {CgroupId(3), CgroupId(16), CgroupId(64)}) {
    for (std::uint64_t seed : {1u, 2u}) {
      SCOPED_TRACE(testing::Message() << n_cgroups << " cgroups, seed "
                                      << seed);
      BacklogDifferential d;
      for (CgroupId cg = 0; cg < n_cgroups; ++cg)
        d.Register(cg, 1.0 + double(cg % 3));
      std::mt19937_64 rng(seed * 131 + n_cgroups);
      SimTime now = kMillisecond;
      // At most five cgroups, spread over the id range, carry traffic.
      auto busy = [&] {
        return CgroupId(rng() % std::min<CgroupId>(n_cgroups, 5)) *
               std::max<CgroupId>(1, n_cgroups / 5);
      };
      for (int step = 0; step < 5000; ++step) {
        now += rng() % 4 * kMicrosecond;
        std::uint32_t bytes = rng() % 2 ? kPageSize : 2 * kPageSize;
        switch (rng() % 12) {
          case 0: case 1: case 2:
            d.Enqueue(busy(), rdma::Op::kDemandIn, now, bytes);
            break;
          case 3: case 4:
            // Created up to 100 us ago: about half are stale at dequeue.
            d.Enqueue(busy(), rdma::Op::kPrefetchIn,
                      now - rng() % 100 * kMicrosecond, bytes);
            break;
          case 5:
            d.Enqueue(busy(), rdma::Op::kSwapOut, now, bytes);
            break;
          case 6: case 7: case 8:
            d.Dequeue(rdma::Direction::kIngress, now);
            break;
          case 9:
            d.Dequeue(rdma::Direction::kEgress, now);
            break;
          case 10:
            if (rng() % 8 == 0) d.Drain(2 + rng() % 5);
            else d.SetWeight(busy(), 0.5 + double(rng() % 4));
            break;
          default: {
            // Retire an id and re-register it (ids are recycled).
            CgroupId cg = busy();
            d.Forget(cg);
            if (!d.ref_.Backlogged(cg)) d.Register(cg, 1.0 + double(rng() % 3));
            break;
          }
        }
        if (::testing::Test::HasFatalFailure()) return;
      }
      // Drain both sides to empty.
      for (int i = 0; i < 20000; ++i) {
        d.Dequeue(rdma::Direction::kIngress, now);
        d.Dequeue(rdma::Direction::kEgress, now);
        if (::testing::Test::HasFatalFailure()) return;
      }
      EXPECT_GT(d.served_, 1000u);
    }
  }
}

TEST(TwoDimBacklog, EqualFinishTagsLowestCgroupIdWins) {
  BacklogDifferential d;
  for (CgroupId cg : {CgroupId(9), CgroupId(4), CgroupId(7)})
    d.Register(cg, 1.0);
  // Enqueued in descending-id order; all start at the same virtual time.
  for (CgroupId cg : {CgroupId(9), CgroupId(7), CgroupId(4)})
    d.Enqueue(cg, rdma::Op::kDemandIn, 0, kPageSize);
  auto first = d.s_.Dequeue(rdma::Direction::kIngress, 0);
  ASSERT_TRUE(first);
  EXPECT_EQ(first->cgroup, 4u);
}

TEST(TwoDimBacklog, StaleDropsEmptyAVqpThenItRejoins) {
  BacklogDifferential d;
  d.Register(1, 1.0);
  d.Register(2, 1.0);
  // Cgroup 1 holds only stale prefetches; cgroup 2 one demand.
  SimTime now = kMillisecond;
  for (int i = 0; i < 3; ++i) d.Enqueue(1, rdma::Op::kPrefetchIn, 0, kPageSize);
  d.Enqueue(2, rdma::Op::kDemandIn, now, 2 * kPageSize);
  d.Dequeue(rdma::Direction::kIngress, now);  // drops 1's three, serves 2
  EXPECT_EQ(d.s_.drops_for(1), 3u);
  EXPECT_EQ(d.s_.QueueDepth(1), 0u);
  d.Dequeue(rdma::Direction::kIngress, now);  // nothing left
  // The emptied VQP is backlogged again by its next request.
  d.Enqueue(1, rdma::Op::kDemandIn, now, kPageSize);
  d.Dequeue(rdma::Direction::kIngress, now);
  EXPECT_EQ(d.served_, 2u);
}

TEST(TwoDimBacklog, SixtyFourCgroupsThreeBacklogged) {
  BacklogDifferential d;
  for (CgroupId cg = 0; cg < 64; ++cg) d.Register(cg, 1.0 + double(cg % 4));
  for (int round = 0; round < 50; ++round)
    for (CgroupId cg : {CgroupId(5), CgroupId(33), CgroupId(60)})
      d.Enqueue(cg, rdma::Op::kDemandIn, 0, kPageSize);
  for (int i = 0; i < 160; ++i) d.Dequeue(rdma::Direction::kIngress, 0);
  EXPECT_EQ(d.served_, 150u);
}

TEST(TwoDimBacklog, DrainMatchingUnlistsEmptiedVqps) {
  BacklogDifferential d;
  d.Register(1, 1.0);
  d.Register(2, 1.0);
  d.Enqueue(1, rdma::Op::kSwapOut, 0, kPageSize);  // tag 1
  d.Enqueue(2, rdma::Op::kSwapOut, 0, kPageSize);  // tag 2
  d.Enqueue(2, rdma::Op::kSwapOut, 0, kPageSize);  // tag 3
  d.Drain(1);  // everything
  d.Dequeue(rdma::Direction::kEgress, 0);
  EXPECT_EQ(d.served_, 0u);
  d.Forget(1);  // idle now: must not throw
  d.Register(1, 2.0);
  d.Enqueue(1, rdma::Op::kSwapOut, 0, kPageSize);
  d.Dequeue(rdma::Direction::kEgress, 0);
  EXPECT_EQ(d.served_, 1u);
}

// Retiring a cgroup with queued requests must refuse in every build type
// (erasing them would lose their on_complete / on_drop), leave the queue
// intact, and keep dispatching it.
TEST(TwoDimBacklog, ForgetCgroupWithQueuedRequestsThrows) {
  TwoDimScheduler s;
  s.RegisterCgroup(3, 1.0);
  int dropped = 0;
  s.Enqueue(MakeReq(rdma::Op::kPrefetchIn, 3, 0,
                    [&](const rdma::Request&) { ++dropped; }));
  s.Enqueue(MakeReq(rdma::Op::kSwapOut, 3));
  EXPECT_THROW(s.ForgetCgroup(3), std::logic_error);
  EXPECT_EQ(s.QueueDepth(3), 2u);
  EXPECT_NE(s.Dequeue(rdma::Direction::kIngress, 0), nullptr);
  EXPECT_THROW(s.ForgetCgroup(3), std::logic_error);  // egress still queued
  EXPECT_NE(s.Dequeue(rdma::Direction::kEgress, 0), nullptr);
  EXPECT_NO_THROW(s.ForgetCgroup(3));
  EXPECT_EQ(s.QueueDepth(3), 0u);
  EXPECT_EQ(dropped, 0);
}

}  // namespace
}  // namespace canvas::sched
