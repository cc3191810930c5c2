// Unit tests for the simulated RDMA NIC: serialization, latency, per-cgroup
// accounting, late-binding dispatch.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <memory>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#include "common/rng.h"
#include "rdma/nic.h"
#include "sim/simulator.h"

namespace canvas::rdma {
namespace {

/// Minimal FIFO source for driving the NIC directly.
class TestSource : public RequestSource {
 public:
  RequestPtr Dequeue(Direction dir, SimTime) override {
    auto& q = queues_[std::size_t(dir)];
    if (q.empty()) return nullptr;
    RequestPtr r = std::move(q.front());
    q.pop_front();
    return r;
  }
  void Push(RequestPtr r) { queues_[std::size_t(DirectionOf(r->op))].push_back(std::move(r)); }

 private:
  std::deque<RequestPtr> queues_[2];
};

Nic::Config TestConfig() {
  Nic::Config cfg;
  cfg.bandwidth_bytes_per_sec = 4.096e9;  // 1us per 4KB page
  cfg.base_latency = 3 * kMicrosecond;
  return cfg;
}

RequestPtr MakeReq(Op op, CgroupId cg, sim::Simulator& sim,
                   std::function<void(const Request&)> done = nullptr) {
  auto r = std::make_unique<Request>();
  r->op = op;
  r->cgroup = cg;
  r->created = sim.Now();
  r->on_complete = std::move(done);
  return r;
}

TEST(Nic, SingleRequestLatency) {
  sim::Simulator sim;
  TestSource src;
  Nic nic(sim, TestConfig(), src);
  SimTime done = 0;
  src.Push(MakeReq(Op::kDemandIn, 1, sim,
                   [&](const Request& r) { done = r.completed; }));
  nic.Kick(Direction::kIngress);
  sim.Run();
  // 1us serialization + 3us latency.
  EXPECT_EQ(done, 4 * kMicrosecond);
  EXPECT_EQ(nic.completed_count(Op::kDemandIn), 1u);
}

TEST(Nic, BandwidthSerializesTransfers) {
  sim::Simulator sim;
  TestSource src;
  Nic nic(sim, TestConfig(), src);
  std::vector<SimTime> completions;
  for (int i = 0; i < 4; ++i)
    src.Push(MakeReq(Op::kDemandIn, 1, sim, [&](const Request& r) {
      completions.push_back(r.completed);
    }));
  nic.Kick(Direction::kIngress);
  sim.Run();
  ASSERT_EQ(completions.size(), 4u);
  // Serialization spaced 1us apart, each +3us latency: 4, 5, 6, 7us.
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(completions[std::size_t(i)], SimTime(4 + i) * kMicrosecond);
}

TEST(Nic, IngressAndEgressAreIndependent) {
  sim::Simulator sim;
  TestSource src;
  Nic nic(sim, TestConfig(), src);
  SimTime in_done = 0, out_done = 0;
  src.Push(MakeReq(Op::kDemandIn, 1, sim,
                   [&](const Request& r) { in_done = r.completed; }));
  src.Push(MakeReq(Op::kSwapOut, 1, sim,
                   [&](const Request& r) { out_done = r.completed; }));
  nic.Kick(Direction::kIngress);
  nic.Kick(Direction::kEgress);
  sim.Run();
  // Full duplex: both finish at 4us, neither queued behind the other.
  EXPECT_EQ(in_done, 4 * kMicrosecond);
  EXPECT_EQ(out_done, 4 * kMicrosecond);
}

TEST(Nic, LateBindingDispatch) {
  // A request enqueued while the lane is busy is dequeued only when the
  // lane frees, so the source can reorder (prioritize) in the meantime.
  sim::Simulator sim;
  TestSource src;
  Nic nic(sim, TestConfig(), src);
  std::vector<int> order;
  src.Push(MakeReq(Op::kPrefetchIn, 1, sim,
                   [&](const Request&) { order.push_back(1); }));
  nic.Kick(Direction::kIngress);
  // While the first transfer serializes, push two more.
  sim.Schedule(100, [&] {
    src.Push(MakeReq(Op::kPrefetchIn, 1, sim,
                     [&](const Request&) { order.push_back(2); }));
    nic.Kick(Direction::kIngress);
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Nic, PerCgroupByteAccounting) {
  sim::Simulator sim;
  TestSource src;
  Nic nic(sim, TestConfig(), src);
  for (int i = 0; i < 3; ++i) src.Push(MakeReq(Op::kDemandIn, 7, sim));
  for (int i = 0; i < 2; ++i) src.Push(MakeReq(Op::kSwapOut, 8, sim));
  nic.Kick(Direction::kIngress);
  nic.Kick(Direction::kEgress);
  sim.Run();
  EXPECT_DOUBLE_EQ(nic.cgroup_bytes(7, Direction::kIngress), 3.0 * kPageSize);
  EXPECT_DOUBLE_EQ(nic.cgroup_bytes(8, Direction::kEgress), 2.0 * kPageSize);
  EXPECT_DOUBLE_EQ(nic.cgroup_bytes(7, Direction::kEgress), 0.0);
  EXPECT_DOUBLE_EQ(nic.cgroup_bytes(9, Direction::kIngress), 0.0);
  // Retirement hands back the totals and zeroes the slot for the id's next
  // tenant; ids the NIC never saw have nothing to release.
  EXPECT_EQ(nic.ReleaseCgroup(8),
            (std::array<double, 2>{0.0, 2.0 * kPageSize}));
  EXPECT_DOUBLE_EQ(nic.cgroup_bytes(8, Direction::kEgress), 0.0);
  EXPECT_DOUBLE_EQ(nic.cgroup_bytes(7, Direction::kIngress), 3.0 * kPageSize);
  EXPECT_EQ(nic.ReleaseCgroup(1000), (std::array<double, 2>{0.0, 0.0}));
  EXPECT_EQ(nic.bytes(Direction::kEgress), 2u * kPageSize);
}

TEST(Nic, LatencyHistogramPerOp) {
  sim::Simulator sim;
  TestSource src;
  Nic nic(sim, TestConfig(), src);
  src.Push(MakeReq(Op::kDemandIn, 1, sim));
  src.Push(MakeReq(Op::kPrefetchIn, 1, sim));
  nic.Kick(Direction::kIngress);
  sim.Run();
  EXPECT_EQ(nic.latency(Op::kDemandIn).count(), 1u);
  EXPECT_EQ(nic.latency(Op::kPrefetchIn).count(), 1u);
  // Second request queued behind the first: higher latency.
  EXPECT_GT(nic.latency(Op::kPrefetchIn).Mean(),
            nic.latency(Op::kDemandIn).Mean());
}

TEST(Nic, EstimateServiceDelayReflectsBusyLane) {
  sim::Simulator sim;
  TestSource src;
  Nic nic(sim, TestConfig(), src);
  SimDuration idle = nic.EstimateServiceDelay(Direction::kIngress, 0);
  EXPECT_EQ(idle, 4 * kMicrosecond);  // 1us ser + 3us latency
  src.Push(MakeReq(Op::kDemandIn, 1, sim));
  nic.Kick(Direction::kIngress);
  SimDuration busy = nic.EstimateServiceDelay(Direction::kIngress, 0);
  EXPECT_GT(busy, idle);
}

TEST(Nic, BytesSeriesTracksThroughput) {
  sim::Simulator sim;
  TestSource src;
  auto cfg = TestConfig();
  cfg.series_bucket = 10 * kMicrosecond;
  Nic nic(sim, cfg, src);
  EXPECT_EQ(nic.mean_rate(Direction::kIngress), 0.0);  // nothing dispatched
  // Five pages dispatched 1us apart in bucket 0, a sixth at 25us (bucket 2):
  // the rate averages six pages over three whole 10us buckets.
  for (int i = 0; i < 5; ++i) src.Push(MakeReq(Op::kDemandIn, 1, sim));
  nic.Kick(Direction::kIngress);
  sim.ScheduleAt(25 * kMicrosecond, [&] {
    src.Push(MakeReq(Op::kDemandIn, 1, sim));
    nic.Kick(Direction::kIngress);
  });
  sim.Run();
  EXPECT_EQ(nic.bytes(Direction::kIngress), 6u * kPageSize);
  EXPECT_EQ(nic.mean_rate(Direction::kIngress),
            double(6 * kPageSize) * double(kSecond) /
                (double(10 * kMicrosecond) * 3.0));
  EXPECT_EQ(nic.bytes(Direction::kEgress), 0u);
  EXPECT_EQ(nic.mean_rate(Direction::kEgress), 0.0);
}

TEST(Nic, LatencyHistogramTracksExactOrderStatistics) {
  // Seeded arrivals of every op so the lanes queue and latencies spread
  // over many histogram buckets. The requests' own created -> completed
  // latencies are the exact reference.
  sim::Simulator sim;
  TestSource src;
  Nic nic(sim, TestConfig(), src);
  std::array<std::vector<SimDuration>, 3> exact;
  Rng rng(11);
  for (int i = 0; i < 600; ++i) {
    auto op = Op(rng.NextBounded(3));
    SimTime at = rng.NextBounded(300) * kMicrosecond;
    sim.ScheduleAt(at, [&, op] {
      src.Push(MakeReq(op, 1, sim, [&](const Request& r) {
        exact[std::size_t(r.op)].push_back(r.completed - r.created);
      }));
      nic.Kick(DirectionOf(op));
    });
  }
  sim.Run();
  for (Op op : {Op::kDemandIn, Op::kPrefetchIn, Op::kSwapOut}) {
    std::vector<SimDuration>& v = exact[std::size_t(op)];
    const trace::LogHistogram& h = nic.latency(op);
    ASSERT_FALSE(v.empty());
    EXPECT_EQ(h.count(), nic.completed_count(op));
    EXPECT_EQ(h.count(), v.size());
    std::sort(v.begin(), v.end());
    for (double p : {50.0, 99.0}) {
      // LogHistogram's rank: ceil(p% of n), 1-based.
      auto rank = std::max<std::size_t>(
          1, std::size_t(std::ceil(p / 100.0 * double(v.size()))));
      SimDuration want = v[rank - 1];
      SimDuration got = h.Percentile(p);
      EXPECT_LE(want, got) << "p" << p;
      EXPECT_LE(got - want, want / 32) << "p" << p;  // one sub-bucket
    }
  }
}

TEST(DirectionOf, MapsOps) {
  EXPECT_EQ(DirectionOf(Op::kDemandIn), Direction::kIngress);
  EXPECT_EQ(DirectionOf(Op::kPrefetchIn), Direction::kIngress);
  EXPECT_EQ(DirectionOf(Op::kSwapOut), Direction::kEgress);
}

// Outside AddressSanitizer builds requests recycle through a per-thread
// free list: a freed request's block is the next one handed out, and the
// recycled request is freshly constructed.
TEST(RequestPool, RecyclesFreedRequests) {
#if defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "the request pool steps aside under AddressSanitizer";
#else
  auto first = std::make_unique<Request>();
  first->attempts = 3;
  first->on_complete = [](const Request&) {};
  const void* block = first.get();
  first.reset();
  auto second = std::make_unique<Request>();
  EXPECT_EQ(static_cast<const void*>(second.get()), block);
  EXPECT_EQ(second->attempts, 0u);
  EXPECT_FALSE(second->on_complete);
#endif
}

// Under AddressSanitizer a freed request is poisoned from its first byte to
// its last, so a stale RequestPtr use is reported.
TEST(RequestPool, FreedRequestIsPoisonedUnderAsan) {
#if !defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "needs AddressSanitizer";
#else
  auto req = std::make_unique<Request>();
  char* raw = reinterpret_cast<char*>(req.get());
  EXPECT_EQ(__asan_region_is_poisoned(raw, sizeof(Request)), nullptr);
  req.reset();
  EXPECT_TRUE(__asan_address_is_poisoned(raw));
  EXPECT_TRUE(__asan_address_is_poisoned(raw + sizeof(Request) - 1));
  EXPECT_EQ(__asan_region_is_poisoned(raw, sizeof(Request)), raw);
#endif
}

TEST(OpName, Names) {
  EXPECT_STREQ(OpName(Op::kDemandIn), "demand-in");
  EXPECT_STREQ(OpName(Op::kPrefetchIn), "prefetch-in");
  EXPECT_STREQ(OpName(Op::kSwapOut), "swap-out");
}

}  // namespace
}  // namespace canvas::rdma
