// Unit tests for the discrete-event engine and the contention-modeling
// mutex.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/sim_mutex.h"
#include "sim/simulator.h"

namespace canvas::sim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(30, [&] { order.push_back(3); });
  sim.Schedule(10, [&] { order.push_back(1); });
  sim.Schedule(20, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30u);
}

TEST(Simulator, SameInstantFifoOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) sim.Schedule(5, [&, i] { order.push_back(i); });
  sim.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[std::size_t(i)], i);
}

TEST(Simulator, NestedSchedulingFromCallbacks) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.Schedule(10, [&] {
    times.push_back(sim.Now());
    sim.Schedule(5, [&] { times.push_back(sim.Now()); });
  });
  sim.Run();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 15}));
}

TEST(Simulator, ZeroDelayRunsAtCurrentTime) {
  Simulator sim;
  bool ran = false;
  sim.Schedule(7, [&] {
    sim.Schedule(0, [&] {
      ran = true;
      EXPECT_EQ(sim.Now(), 7u);
    });
  });
  sim.Run();
  EXPECT_TRUE(ran);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int count = 0;
  for (SimTime t = 10; t <= 100; t += 10) sim.Schedule(t, [&] { ++count; });
  bool drained = sim.RunUntil(50);
  EXPECT_FALSE(drained);
  EXPECT_EQ(count, 5);  // events at 10..50 inclusive
  EXPECT_EQ(sim.Now(), 50u);
  drained = sim.RunUntil(1000);
  EXPECT_TRUE(drained);
  EXPECT_EQ(count, 10);
}

TEST(Simulator, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.Step());
  sim.Schedule(1, [] {});
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
  EXPECT_EQ(sim.events_executed(), 1u);
}

// Differential check of the event queue: seeded random schedules run
// through the Simulator while a std::set of (when, seq) models the required
// delivery order. Every event that fires must be the set's minimum, at
// exactly its instant. The delays reach every wheel level and past the
// 2^48 ns horizon into the overflow heap; callbacks schedule onto their own
// instant and in same-instant bursts; and Drive() stops RunUntil at
// deadlines between events and schedules behind the advanced wheel cursor.
class QueueDifferential {
 public:
  QueueDifferential(std::uint64_t seed, unsigned population,
                    std::uint64_t budget)
      : rng_(seed), budget_(budget) {
    for (unsigned i = 0; i < population; ++i) Add(RandomDelay());
  }

  void Drive() {
    while (budget_ > 0 && !sim_.empty()) {
      if (sim_.RunUntil(sim_.Now() + RandomDelay())) break;
      // Now() is the deadline, which may lie behind the wheel cursor.
      const unsigned n = 1 + unsigned(rng_.NextBounded(3));
      for (unsigned i = 0; i < n; ++i) Add(rng_.NextBounded(3));
    }
    sim_.Run();
  }

  std::uint64_t scheduled() const { return next_seq_; }
  std::uint64_t executed() const { return sim_.events_executed(); }
  std::size_t pending_in_reference() const { return ref_.size(); }
  std::uint64_t errors() const { return errors_; }
  const std::string& first_error() const { return first_error_; }

 private:
  static constexpr SimTime kFar = SimTime(1) << 58;

  void Add(SimDuration delay) { AddAt(sim_.Now() + delay); }

  void AddAt(SimTime when) {
    const std::uint64_t seq = next_seq_++;
    if (budget_ > 0) --budget_;
    ref_.insert({when, seq});
    sim_.ScheduleAt(when, [this, when, seq] { Fire(when, seq); });
  }

  using Key = std::pair<SimTime, std::uint64_t>;

  static std::string Describe(const Key& k) {
    return "(" + std::to_string(k.first) + ", " + std::to_string(k.second) +
           ")";
  }

  void Fire(SimTime when, std::uint64_t seq) {
    const Key got{when, seq};
    if (ref_.empty() || *ref_.begin() != got || sim_.Now() != when) {
      if (errors_++ == 0)
        first_error_ = "fired " + Describe(got) + " at " +
                       std::to_string(sim_.Now()) + ", expected " +
                       (ref_.empty() ? "nothing" : Describe(*ref_.begin()));
    }
    ref_.erase(got);
    if (budget_ == 0) return;
    // One child on average keeps the population near its starting size.
    const std::uint64_t r = rng_.NextBounded(20);
    if (r < 6) return;
    if (r < 16) {
      Add(RandomDelay());
    } else if (r < 19) {
      Add(RandomDelay());
      Add(RandomDelay());
    } else {
      const SimTime burst = sim_.Now() + RandomDelay();
      for (int i = 0; i < 4; ++i) AddAt(burst);
    }
  }

  SimDuration Between(std::uint64_t lo, std::uint64_t hi) {
    return lo + rng_.NextBounded(hi - lo);
  }

  /// A delay from one of eight classes; the overflow class is dropped once
  /// the clock is far out, so deadlines never wrap.
  SimDuration RandomDelay() {
    switch (rng_.NextBounded(sim_.Now() < kFar ? 8 : 7)) {
      case 0: return 0;                                    // this instant
      case 1: return Between(1, 64);                       // near ticks
      case 2: return Between(1, SimTime(1) << 12);         // level 0
      case 3: return Between(SimTime(1) << 12, SimTime(1) << 24);  // level 1
      case 4: return Between(SimTime(1) << 24, SimTime(1) << 36);  // level 2
      case 5: return Between(SimTime(1) << 36, SimTime(1) << 48);  // level 3
      case 6: return Between(1, SimTime(1) << 14);  // across a level-0 block
      default: return Between(SimTime(1) << 48, SimTime(1) << 50);  // heap
    }
  }

  Simulator sim_;
  Rng rng_;
  std::uint64_t budget_;
  std::uint64_t next_seq_ = 0;
  std::set<Key> ref_;
  std::uint64_t errors_ = 0;
  std::string first_error_;
};

TEST(EventQueue, MatchesReferenceOrderOnRandomSchedules) {
  const unsigned kPopulations[] = {1, 16, 256, 2048};
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    QueueDifferential d(seed, kPopulations[seed % 4], 30'000);
    d.Drive();
    EXPECT_EQ(d.errors(), 0u) << "seed " << seed << ": " << d.first_error();
    EXPECT_EQ(d.executed(), d.scheduled()) << "seed " << seed;
    EXPECT_EQ(d.pending_in_reference(), 0u) << "seed " << seed;
  }
}

/// A callable that counts how often it is moved, copied and invoked.
struct MoveCounter {
  int* moves;
  int* copies;
  int* calls;
  MoveCounter(int* m, int* c, int* k) : moves(m), copies(c), calls(k) {}
  MoveCounter(const MoveCounter& o)
      : moves(o.moves), copies(o.copies), calls(o.calls) {
    ++*copies;
  }
  MoveCounter(MoveCounter&& o) noexcept
      : moves(o.moves), copies(o.copies), calls(o.calls) {
    ++*moves;
  }
  void operator()() const { ++*calls; }
};

TEST(Simulator, ScheduleBuildsCallbackInPlace) {
  Simulator sim;
  int moves = 0, copies = 0, calls = 0;
  // A temporary is moved once, straight into the event's node.
  sim.Schedule(5, MoveCounter(&moves, &copies, &calls));
  EXPECT_EQ(moves, 1);
  EXPECT_EQ(copies, 0);
  sim.ScheduleAt(7, MoveCounter(&moves, &copies, &calls));
  EXPECT_EQ(moves, 2);
  // An lvalue is copied once and never moved.
  const MoveCounter named(&moves, &copies, &calls);
  sim.Schedule(9, named);
  EXPECT_EQ(moves, 2);
  EXPECT_EQ(copies, 1);
  // Delivery invokes the callbacks where they were built.
  sim.Run();
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(moves, 2);
  EXPECT_EQ(copies, 1);
}

TEST(SimMutex, UncontendedRunsImmediately) {
  Simulator sim;
  SimMutex m(sim);
  SimDuration wait = 999, hold = 0;
  m.Execute(100, [&](SimDuration w, SimDuration h) {
    wait = w;
    hold = h;
  });
  sim.Run();
  EXPECT_EQ(wait, 0u);
  EXPECT_EQ(hold, 100u);
  EXPECT_EQ(sim.Now(), 100u);
}

TEST(SimMutex, FifoQueueing) {
  Simulator sim;
  SimMutex m(sim, /*alpha=*/0.0);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    m.Execute(10, [&, i](SimDuration, SimDuration) { order.push_back(i); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(sim.Now(), 50u);  // alpha 0: 5 x 10ns serialized
  EXPECT_EQ(m.acquisitions(), 5u);
}

TEST(SimMutex, WaitTimesGrowWithQueuePosition) {
  Simulator sim;
  SimMutex m(sim, 0.0);
  std::vector<SimDuration> waits;
  for (int i = 0; i < 4; ++i)
    m.Execute(10, [&](SimDuration w, SimDuration) { waits.push_back(w); });
  sim.Run();
  ASSERT_EQ(waits.size(), 4u);
  EXPECT_EQ(waits[0], 0u);
  for (std::size_t i = 1; i < waits.size(); ++i)
    EXPECT_GT(waits[i], waits[i - 1]);
}

TEST(SimMutex, ContentionInflatesHoldTime) {
  // With alpha > 0, a request granted while others wait holds longer than
  // its base time (cacheline bouncing model).
  Simulator sim;
  SimMutex m(sim, /*alpha=*/0.5);
  std::vector<SimDuration> holds;
  for (int i = 0; i < 3; ++i)
    m.Execute(100, [&](SimDuration, SimDuration h) { holds.push_back(h); });
  sim.Run();
  ASSERT_EQ(holds.size(), 3u);
  // The first request is granted before the others enqueue (0 waiters);
  // the second is granted while the third still waits: 100*(1+0.5) = 150.
  EXPECT_EQ(holds[0], 100u);
  EXPECT_EQ(holds[1], 150u);
  EXPECT_EQ(holds[2], 100u);
}

TEST(SimMutex, TotalWaitAccumulates) {
  Simulator sim;
  SimMutex m(sim, 0.0);
  for (int i = 0; i < 3; ++i) m.Execute(10, nullptr);
  sim.Run();
  // Waits: 0 + 10 + 20.
  EXPECT_EQ(m.total_wait(), 30u);
  EXPECT_EQ(m.acquisitions(), 3u);
}

TEST(SimMutex, ReleasedMutexServesLaterRequests) {
  Simulator sim;
  SimMutex m(sim, 0.0);
  SimTime second_done = 0;
  m.Execute(10, nullptr);
  sim.Schedule(100, [&] {
    m.Execute(10, [&](SimDuration w, SimDuration) {
      EXPECT_EQ(w, 0u);  // mutex long free
      second_done = sim.Now();
    });
  });
  sim.Run();
  EXPECT_EQ(second_done, 110u);
  EXPECT_FALSE(m.held());
}

}  // namespace
}  // namespace canvas::sim
