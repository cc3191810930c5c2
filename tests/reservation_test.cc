// Unit tests for the Canvas adaptive swap-entry reservation scheme (§5.1),
// including the Figure 7 page state machine.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "cgroup/cgroup.h"
#include "common/rng.h"
#include "mem/lru.h"
#include "sim/simulator.h"
#include "swapalloc/partition.h"
#include "swapalloc/reservation.h"

namespace canvas::swapalloc {
namespace {

class ReservationTest : public ::testing::Test {
 protected:
  ReservationTest()
      : pages_(128), lru_(pages_),
        partition_(sim_, "t", 96, {}),
        cgroup_(0, CgroupSpec{"t", 64, 96, 32, 1.0, 4}) {}

  ReservationManager MakeManager(ReservationManager::Config cfg = {}) {
    return ReservationManager(sim_, pages_, lru_, partition_, cgroup_, cfg);
  }

  /// Simulate a slow-path allocation + Remember for `page`. Uses a bounded
  /// run because the manager's periodic Tick keeps the event queue
  /// non-empty once Start() has been called.
  void AllocAndRemember(ReservationManager& m, PageId page) {
    bool done = false;
    partition_.allocator().Allocate(0, [&, page](AllocResult r) {
      ASSERT_NE(r.entry, kInvalidEntry);
      cgroup_.ChargeRemote();
      pages_[page].entry = r.entry;
      m.Remember(pages_[page], r.entry);
      done = true;
    });
    for (int i = 0; i < 10000 && !done; ++i) sim_.Step();
    ASSERT_TRUE(done);
  }

  void MakeResident(PageId id) {
    pages_[id].state = mem::PageState::kResident;
    lru_.AddActive(id);
  }

  sim::Simulator sim_;
  std::vector<mem::Page> pages_;
  mem::LruLists lru_;
  SwapPartition partition_;
  Cgroup cgroup_;
};

TEST_F(ReservationTest, FirstSwapOutTakesSlowPathThenRemembers) {
  auto m = MakeManager();
  // State 2 (no entry remembered): fast path misses.
  EXPECT_EQ(m.TakeReserved(pages_[1]), kInvalidEntry);
  AllocAndRemember(m, 1);
  // State 5: subsequent swap-outs are lock-free.
  SwapEntryId e = m.TakeReserved(pages_[1]);
  EXPECT_NE(e, kInvalidEntry);
  EXPECT_EQ(e, pages_[1].entry);
  EXPECT_EQ(m.lock_free_swapouts(), 1u);
}

TEST_F(ReservationTest, ReservationSurvivesRepeatedSwapouts) {
  auto m = MakeManager();
  AllocAndRemember(m, 1);
  for (int i = 0; i < 5; ++i)
    EXPECT_NE(m.TakeReserved(pages_[1]), kInvalidEntry);
  EXPECT_EQ(m.lock_free_swapouts(), 5u);
  EXPECT_EQ(partition_.allocator().used(), 1u);  // one entry, reused
}

TEST_F(ReservationTest, EmergencyReclaimCancelsResidentReservations) {
  auto m = MakeManager();
  for (PageId p = 0; p < 8; ++p) {
    AllocAndRemember(m, p);
    MakeResident(p);
  }
  EXPECT_EQ(partition_.allocator().used(), 8u);
  std::size_t freed = m.EmergencyReclaim(4);
  EXPECT_EQ(freed, 4u);
  EXPECT_EQ(partition_.allocator().used(), 4u);
  EXPECT_EQ(m.removals(), 4u);
  EXPECT_EQ(cgroup_.remote_entries(), 4u);
}

TEST_F(ReservationTest, CancelSkipsRemotePages) {
  auto m = MakeManager();
  AllocAndRemember(m, 1);
  pages_[1].state = mem::PageState::kRemote;  // entry holds the only copy
  EXPECT_EQ(m.EmergencyReclaim(8), 0u);
  EXPECT_NE(pages_[1].reserved, kInvalidEntry);
}

TEST_F(ReservationTest, CancelClearsEntryKeptCopy) {
  auto m = MakeManager();
  AllocAndRemember(m, 1);
  MakeResident(1);
  ASSERT_EQ(pages_[1].entry, pages_[1].reserved);
  EXPECT_EQ(m.EmergencyReclaim(1), 1u);
  // Losing the reservation also loses the clean remote copy.
  EXPECT_EQ(pages_[1].entry, kInvalidEntry);
  EXPECT_EQ(pages_[1].reserved, kInvalidEntry);
  EXPECT_TRUE(pages_[1].NeedsWriteback());
}

TEST_F(ReservationTest, NoScanBelowPressureThreshold) {
  ReservationManager::Config cfg;
  cfg.pressure_threshold = 0.75;
  cfg.scan_period = kMillisecond;
  auto m = MakeManager(cfg);
  m.Start();
  // Utilization 8/96 ~ 8%: ticks fire but never scan.
  for (PageId p = 0; p < 8; ++p) {
    AllocAndRemember(m, p);
    MakeResident(p);
  }
  sim_.RunUntil(10 * kMillisecond);
  EXPECT_EQ(m.scans(), 0u);
  EXPECT_EQ(m.removals(), 0u);
}

TEST_F(ReservationTest, HotPagesCancelledUnderPressure) {
  ReservationManager::Config cfg;
  cfg.pressure_threshold = 0.5;
  cfg.scan_period = kMillisecond;
  cfg.hot_scans = 2;
  // High slack target so a deficit exists (cancellation is deficit- and
  // debt-gated); the allocations below bank the matching debt.
  cfg.free_slack = 0.9;
  auto m = MakeManager(cfg);
  m.Start();
  for (PageId p = 0; p < 64; ++p) {
    AllocAndRemember(m, p);
    MakeResident(p);
  }
  ASSERT_GT(partition_.allocator().Utilization(), 0.5);
  // Pages stay untouched at the active head across consecutive scans, so
  // they become "hot" and get their reservations cancelled.
  sim_.RunUntil(sim_.Now() + 20 * kMillisecond);
  EXPECT_GE(m.scans(), 2u);
  EXPECT_GT(m.removals(), 0u);
}

TEST_F(ReservationTest, FreeSlackMaintainedUnderPressure) {
  ReservationManager::Config cfg;
  cfg.pressure_threshold = 0.5;
  cfg.scan_period = kMillisecond;
  cfg.free_slack = 0.10;
  auto m = MakeManager(cfg);
  m.Start();
  for (PageId p = 0; p < 96; ++p) {  // fill the partition completely
    AllocAndRemember(m, p);
    MakeResident(p);
  }
  ASSERT_DOUBLE_EQ(partition_.allocator().Utilization(), 1.0);
  sim_.RunUntil(5 * kMillisecond);
  auto& alloc = partition_.allocator();
  EXPECT_GE(alloc.capacity() - alloc.used(),
            std::uint64_t(0.10 * 96) - 1);
}

TEST_F(ReservationTest, StartIsIdempotent) {
  ReservationManager::Config cfg;
  cfg.scan_period = kMillisecond;
  auto m = MakeManager(cfg);
  m.Start();
  m.Start();
  sim_.RunUntil(5 * kMillisecond + 1);
  // One tick per period, not two.
  EXPECT_LE(sim_.events_executed(), 6u);
}

// The pressured tick walks the scan window in place and stops at the page
// that meets its deficit. Its reference is the eager walk it replaced: copy
// the whole window, then cancel hot dirty pages, then hot clean ones, over
// the copy, until the deficit is met.
TEST(ReservationTick, EarlyExitCancelsWhatAnEagerWindowWalkWould) {
  constexpr PageId kPages = 160;
  constexpr std::uint64_t kReserved = 100;
  std::size_t early_exits = 0, clean_cancels = 0;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    for (std::size_t max_removals : {1u, 4u, 12u, 40u}) {
      sim::Simulator sim;
      std::vector<mem::Page> pages(kPages);
      mem::LruLists lru(pages);
      SwapPartition partition(sim, "t", 128, {});
      Cgroup cgroup(0, CgroupSpec{"t", kPages, 128, 32, 1.0, 4});
      ReservationManager::Config cfg;
      cfg.pressure_threshold = 0.5;
      cfg.scan_period = kMillisecond;
      cfg.scan_pages = 64;
      cfg.hot_scans = 2;
      // Slack target 115 of 128 against 28 free, and debt 100: the deficit
      // is max_removals on the second tick.
      cfg.free_slack = 0.9;
      cfg.max_removals_per_scan = max_removals;
      ReservationManager m(sim, pages, lru, partition, cgroup, cfg);

      Rng rng(seed);
      std::vector<PageId> order(kPages);
      for (PageId p = 0; p < kPages; ++p) order[p] = p;
      Shuffle(order, rng);
      for (PageId p = 0; p < kReserved; ++p) {
        partition.allocator().Allocate(0, [&, p](AllocResult r) {
          cgroup.ChargeRemote();
          if (p % 3 == 0) pages[p].entry = r.entry;  // clean remote copy
          m.Remember(pages[p], r.entry);
        });
      }
      sim.Run();
      // Every page sits on the active list; some are in the swap cache
      // (not cancellable), and about half are dirty.
      for (PageId p : order) {
        pages[p].state = rng.NextBool(0.15) ? mem::PageState::kSwapCache
                                            : mem::PageState::kResident;
        pages[p].dirty = rng.NextBool(0.5);
        lru.AddActive(p);
      }
      m.Start();
      const SimTime t0 = sim.Now();  // ticks at t0 + 1 ms, t0 + 2 ms, ...
      sim.RunUntil(t0 + kMillisecond + kMillisecond / 2);  // nothing hot yet
      ASSERT_EQ(m.scans(), 1u);
      // Re-touch some pages so the window mixes hot and fresh pages.
      for (int i = 0; i < 24; ++i) {
        PageId p = order[rng.NextBounded(kPages)];
        lru.Remove(p);
        lru.AddActive(p);
      }

      std::vector<PageId> window;
      lru.ScanActiveHead(cfg.scan_pages, window);
      std::vector<bool> had(kPages);
      for (PageId p = 0; p < kPages; ++p)
        had[p] = pages[p].reserved != kInvalidEntry;
      sim.RunUntil(t0 + 2 * kMillisecond + kMillisecond / 2);  // compared
      ASSERT_EQ(m.scans(), 2u);

      // Cancel does not relink the lists, so ScanHits after the tick is
      // what the tick saw.
      auto candidate = [&](PageId p) {
        return lru.ScanHits(p) >= cfg.hot_scans && had[p] &&
               pages[p].state == mem::PageState::kResident;
      };
      std::set<PageId> expect;
      for (PageId p : window) {  // pass 1: hot + dirty
        if (expect.size() >= max_removals) break;
        if (candidate(p) && pages[p].dirty) expect.insert(p);
      }
      for (PageId p : window) {  // pass 2: hot (clean) pages
        if (expect.size() >= max_removals) break;
        if (candidate(p) && expect.insert(p).second) ++clean_cancels;
      }
      std::size_t hot = 0;
      for (PageId p : window) hot += candidate(p);
      if (expect.size() == max_removals && hot > max_removals) ++early_exits;

      std::set<PageId> got;
      for (PageId p = 0; p < kPages; ++p)
        if (had[p] && pages[p].reserved == kInvalidEntry) got.insert(p);
      EXPECT_EQ(got, expect) << "seed " << seed << " max " << max_removals;
      EXPECT_EQ(m.removals(), expect.size());
    }
  }
  // Both the early exit and the clean-page pass were exercised.
  EXPECT_GT(early_exits, 0u);
  EXPECT_GT(clean_cancels, 0u);
}

}  // namespace
}  // namespace canvas::swapalloc
