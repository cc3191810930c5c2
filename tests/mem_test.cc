// Unit tests for the memory substrate: LRU lists and swap cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <random>
#include <string>
#include <vector>

#include "mem/lru.h"
#include "mem/swap_cache.h"

namespace canvas::mem {
namespace {

class LruTest : public ::testing::Test {
 protected:
  LruTest() : pages_(64), lru_(pages_) {}

  void MakeResident(PageId id) {
    pages_[id].state = PageState::kResident;
    lru_.AddActive(id);
  }

  std::vector<Page> pages_;
  LruLists lru_;
};

TEST_F(LruTest, AddAndCount) {
  MakeResident(1);
  MakeResident(2);
  EXPECT_EQ(lru_.active_count(), 2u);
  EXPECT_EQ(lru_.total(), 2u);
  EXPECT_EQ(pages_[1].list, LruList::kActive);
}

TEST_F(LruTest, RemoveUnlinksPage) {
  MakeResident(1);
  MakeResident(2);
  lru_.Remove(1);
  EXPECT_EQ(lru_.total(), 1u);
  EXPECT_EQ(pages_[1].list, LruList::kNone);
  lru_.Remove(1);  // idempotent
  EXPECT_EQ(lru_.total(), 1u);
}

TEST_F(LruTest, EvictionPrefersOldest) {
  for (PageId i = 0; i < 12; ++i) MakeResident(i);
  // Rebalancing demotes the oldest (tail) pages to inactive; eviction takes
  // the inactive tail = page 0.
  EXPECT_EQ(lru_.EvictionCandidate(), 0u);
}

TEST_F(LruTest, TouchProtectsFromEviction) {
  for (PageId i = 0; i < 12; ++i) MakeResident(i);
  PageId victim1 = lru_.EvictionCandidate();  // demotes a batch to inactive
  EXPECT_EQ(victim1, 0u);
  // Referencing page 0 twice while inactive promotes it back to active.
  lru_.Touch(0);
  lru_.Touch(0);
  EXPECT_EQ(pages_[0].list, LruList::kActive);
  EXPECT_NE(lru_.EvictionCandidate(), 0u);
}

TEST_F(LruTest, SecondChanceClearsReferenced) {
  for (PageId i = 0; i < 12; ++i) MakeResident(i);
  lru_.EvictionCandidate();  // populate inactive
  // Single touch on an inactive page sets referenced without promoting.
  lru_.Touch(0);
  EXPECT_EQ(pages_[0].list, LruList::kInactive);
  EXPECT_TRUE(pages_[0].referenced);
  // Eviction gives it a second chance: promoted, referenced cleared.
  PageId v = lru_.EvictionCandidate();
  EXPECT_NE(v, 0u);
  EXPECT_EQ(pages_[0].list, LruList::kActive);
}

TEST_F(LruTest, RebalanceKeepsInactiveShare) {
  for (PageId i = 0; i < 30; ++i) MakeResident(i);
  lru_.EvictionCandidate();  // triggers rebalance
  EXPECT_GE(lru_.inactive_count() * 3, lru_.total());
}

TEST_F(LruTest, EmptyListsYieldInvalid) {
  EXPECT_EQ(lru_.EvictionCandidate(), kInvalidPage);
}

TEST_F(LruTest, SinglePageEvictable) {
  MakeResident(5);
  EXPECT_EQ(lru_.EvictionCandidate(), 5u);
}

TEST_F(LruTest, ScanActiveHeadReturnsMostRecent) {
  for (PageId i = 0; i < 10; ++i) MakeResident(i);
  std::vector<PageId> head;
  lru_.ScanActiveHead(3, head);
  // Most recently added first.
  EXPECT_EQ(head, (std::vector<PageId>{9, 8, 7}));
}

TEST_F(LruTest, ScanClampsToListSize) {
  MakeResident(1);
  std::vector<PageId> head;
  lru_.ScanActiveHead(100, head);
  EXPECT_EQ(head.size(), 1u);
}

// ---------------------------------------------------------------------------
// Hot-page scan window: the incremental window (one generation bump per
// scan, hits folded lazily) against the eager walk it replaced, kept here
// as the reference. The reference runs on a second LruLists without a
// window, fed the same operations, so both lists hold the same order; its
// per-page hit counters are updated exactly as the old scan did.
// ---------------------------------------------------------------------------

class EagerScanReference {
 public:
  explicit EagerScanReference(std::size_t n_pages)
      : pages_(n_pages), lru_(pages_), hits_(n_pages), last_(n_pages) {}

  LruLists& lru() { return lru_; }
  std::vector<Page>& pages() { return pages_; }

  /// The old ReservationManager::Tick bookkeeping, verbatim.
  void Scan(std::size_t window) {
    ++generation_;
    lru_.ScanActiveHead(window, buf_);
    for (PageId id : buf_) {
      hits_[id] = (last_[id] + 1 == generation_) ? std::uint8_t(hits_[id] + 1)
                                                 : std::uint8_t(1);
      last_[id] = generation_;
    }
  }
  std::uint8_t hits(PageId id) const { return hits_[id]; }

 private:
  std::vector<Page> pages_;
  LruLists lru_;
  std::vector<std::uint8_t> hits_;
  std::vector<std::uint32_t> last_;
  std::uint32_t generation_ = 0;
  std::vector<PageId> buf_;
};

/// The two cancel passes of a scan tick (hot + dirty, then hot), as the
/// ordered list of pages they would consider cancelling.
template <typename HitsFn>
std::vector<PageId> CancelOrder(const std::vector<PageId>& head,
                                const std::vector<Page>& pages, HitsFn hits) {
  std::vector<PageId> order;
  for (PageId id : head)
    if (hits(id) >= 2 && pages[id].dirty) order.push_back(id);
  for (PageId id : head)
    if (hits(id) >= 2 && !pages[id].dirty) order.push_back(id);
  return order;
}

class ScanWindowDifferential {
 public:
  ScanWindowDifferential(std::size_t n_pages, std::size_t window)
      : window_(window), pages_(n_pages), lru_(pages_), ref_(n_pages) {
    lru_.SetScanWindow(window);
  }

  bool Listed(PageId id) const { return pages_[id].list != LruList::kNone; }

  void Add(PageId id) {
    pages_[id].state = ref_.pages()[id].state = PageState::kResident;
    lru_.AddActive(id);
    ref_.lru().AddActive(id);
  }
  void Touch(PageId id) {
    lru_.Touch(id);
    ref_.lru().Touch(id);
  }
  void Remove(PageId id) {
    lru_.Remove(id);
    ref_.lru().Remove(id);
  }
  void Evict() {
    PageId v = lru_.EvictionCandidate();
    ASSERT_EQ(v, ref_.lru().EvictionCandidate());
    if (v != kInvalidPage) Remove(v);
  }
  void SetDirty(PageId id, bool dirty) {
    pages_[id].dirty = ref_.pages()[id].dirty = dirty;
  }
  void SetPins(PageId id, std::uint16_t pins) {
    pages_[id].pins = ref_.pages()[id].pins = pins;
  }
  void Scan() {
    lru_.AdvanceScan();
    ref_.Scan(window_);
  }

  /// Every page's hits, the window membership, and the cancel-pass order.
  void Check(const std::string& where) {
    SCOPED_TRACE(where);
    for (PageId id = 0; id < pages_.size(); ++id)
      ASSERT_EQ(int(lru_.ScanHits(id)), int(ref_.hits(id))) << "page " << id;
    std::vector<PageId> head, ref_head;
    lru_.ScanActiveHead(window_, head);
    ref_.lru().ScanActiveHead(window_, ref_head);
    ASSERT_EQ(head, ref_head);
    std::size_t in_window = 0;
    for (PageId id = 0; id < pages_.size(); ++id)
      in_window += pages_[id].in_scan_window;
    ASSERT_EQ(in_window, head.size());
    for (PageId id : head) ASSERT_TRUE(pages_[id].in_scan_window);
    ASSERT_EQ(CancelOrder(head, pages_,
                          [&](PageId id) { return lru_.ScanHits(id); }),
              CancelOrder(ref_head, ref_.pages(),
                          [&](PageId id) { return ref_.hits(id); }));
  }

  std::size_t window_;
  std::vector<Page> pages_;
  LruLists lru_;
  EagerScanReference ref_;
};

// Random AddActive / Touch / Remove / EvictionCandidate sequences with scan
// generations interleaved, at window sizes 1, 7 and larger than the list.
// Touch twice on an inactive page promotes it (re-push at the active
// head); eviction's second chance promotes referenced and pinned pages.
TEST(ScanWindow, DifferentialAgainstEagerWalk) {
  constexpr std::size_t kPages = 64;
  for (std::size_t window : {std::size_t(1), std::size_t(7), std::size_t(100)}) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      ScanWindowDifferential d(kPages, window);
      std::mt19937_64 rng(seed * 7919 + window);
      for (int step = 0; step < 6000; ++step) {
        PageId id = rng() % kPages;
        switch (rng() % 10) {
          case 0:
          case 1:
            if (!d.Listed(id)) d.Add(id);
            break;
          case 2:
          case 3:
            if (d.Listed(id)) d.Touch(id);
            break;
          case 4:
            d.Remove(id);
            break;
          case 5:
            d.Evict();
            break;
          case 6: {
            // An in-window page unlinked and re-pushed between two scans.
            std::vector<PageId> head;
            d.lru_.ScanActiveHead(window, head);
            if (!head.empty()) {
              PageId h = head[rng() % head.size()];
              d.Remove(h);
              d.Add(h);
            }
            break;
          }
          case 7:
            d.SetDirty(id, rng() % 2);
            d.SetPins(id, rng() % 8 == 0);
            break;
          default:
            d.Scan();
            break;
        }
        if (step % 50 == 0) d.Check("step " + std::to_string(step));
      }
      d.Check("end");
    }
  }
}

// Scan-hit counts live in a uint8_t: 300 consecutive scans of one page
// must wrap exactly as the old per-scan increment did (300 mod 256 = 44).
TEST(ScanWindow, HitCountWrapsModulo256) {
  ScanWindowDifferential d(8, 4);
  d.Add(3);
  for (int i = 1; i <= 300; ++i) {
    d.Scan();
    ASSERT_EQ(int(d.lru_.ScanHits(3)), i % 256) << "scan " << i;
    if (i % 37 == 0) {
      // Leave and re-enter between scans: the run continues.
      d.Remove(3);
      d.Add(3);
    }
  }
  d.Check("after 300 scans");
  // A missed scan restarts the run at 1.
  d.Remove(3);
  d.Scan();
  d.Add(3);
  d.Scan();
  EXPECT_EQ(d.lru_.ScanHits(3), 1u);
  d.Check("restarted");
}

// A page pushed out of the window by newer pages keeps the hits it had;
// one that comes back after a missed scan starts over.
TEST(ScanWindow, PushedOutPageKeepsCountUntilItReturns) {
  ScanWindowDifferential d(16, 2);
  d.Add(0);
  d.Scan();
  d.Scan();
  EXPECT_EQ(d.lru_.ScanHits(0), 2u);
  d.Add(1);
  d.Add(2);  // page 0 falls out of the 2-page window
  EXPECT_FALSE(d.pages_[0].in_scan_window);
  d.Scan();
  EXPECT_EQ(d.lru_.ScanHits(0), 2u);
  d.Check("pushed out");
}

// Windows set after pages are already listed start from the list head.
TEST(ScanWindow, SetScanWindowOnPopulatedList) {
  std::vector<Page> pages(10);
  LruLists lru(pages);
  for (PageId i = 0; i < 10; ++i) {
    pages[i].state = PageState::kResident;
    lru.AddActive(i);
  }
  lru.SetScanWindow(3);
  for (PageId i = 0; i < 10; ++i)
    EXPECT_EQ(pages[i].in_scan_window, i >= 7) << i;
  lru.AdvanceScan();
  EXPECT_EQ(lru.ScanHits(9), 1u);
  EXPECT_EQ(lru.ScanHits(6), 0u);
  lru.SetScanWindow(0);  // fold and drop the window
  for (PageId i = 0; i < 10; ++i) EXPECT_FALSE(pages[i].in_scan_window);
  EXPECT_EQ(pages[9].scan_hits, 1u);
  lru.AdvanceScan();
  EXPECT_EQ(lru.ScanHits(9), 1u);
}

TEST(SwapCacheTest, InsertLookupRemove) {
  SwapCache c("t", 10);
  c.Insert(1, 100, false, false, 0);
  EXPECT_TRUE(c.Contains(1, 100));
  EXPECT_FALSE(c.Contains(1, 101));
  EXPECT_FALSE(c.Contains(2, 100));  // keyed by (app, page)
  EXPECT_TRUE(c.Remove(1, 100));
  EXPECT_FALSE(c.Contains(1, 100));
  EXPECT_FALSE(c.Remove(1, 100));
}

TEST(SwapCacheTest, HitMissStatistics) {
  SwapCache c("t", 10);
  c.Insert(1, 100, false, false, 0);
  std::uint64_t pre_hits = c.hits();  // release builds skip debug asserts
  std::uint64_t pre_lookups = c.lookups();
  c.Lookup(1, 100);
  c.Lookup(1, 999);
  EXPECT_EQ(c.hits() - pre_hits, 1u);
  EXPECT_EQ(c.lookups() - pre_lookups, 2u);
  EXPECT_EQ(c.inserts(), 1u);
}

TEST(SwapCacheTest, LockedEntriesSkippedByShrink) {
  SwapCache c("t", 10);
  c.Insert(1, 1, /*locked=*/true, false, 0);
  c.Insert(1, 2, /*locked=*/false, false, 1);
  SwapCache::Entry victim;
  ASSERT_TRUE(c.PopLruUnlocked(victim));
  EXPECT_EQ(victim.page, 2u);
  EXPECT_FALSE(c.PopLruUnlocked(victim));  // only the locked one remains
  EXPECT_EQ(c.size(), 1u);
}

TEST(SwapCacheTest, PopTakesLeastRecent) {
  SwapCache c("t", 10);
  for (PageId p = 0; p < 5; ++p) c.Insert(1, p, false, false, SimTime(p));
  SwapCache::Entry victim;
  ASSERT_TRUE(c.PopLruUnlocked(victim));
  EXPECT_EQ(victim.page, 0u);  // first inserted = LRU tail
}

TEST(SwapCacheTest, UnlockRefreshesRecency) {
  SwapCache c("t", 10);
  c.Insert(1, 1, /*locked=*/true, false, 0);
  c.Insert(1, 2, false, false, 1);
  c.Unlock(1, 1);  // arrival: page 1 becomes most recent
  SwapCache::Entry victim;
  ASSERT_TRUE(c.PopLruUnlocked(victim));
  EXPECT_EQ(victim.page, 2u);
}

TEST(SwapCacheTest, PrefetchFlagPreserved) {
  SwapCache c("t", 10);
  c.Insert(3, 7, true, /*prefetched=*/true, 42);
  const SwapCache::Entry* e = c.Lookup(3, 7);
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->prefetched);
  EXPECT_TRUE(e->locked);
  EXPECT_EQ(e->inserted, 42u);
}

TEST(SwapCacheTest, OverCapacityFlag) {
  SwapCache c("t", 2);
  c.Insert(1, 1, false, false, 0);
  c.Insert(1, 2, false, false, 0);
  EXPECT_FALSE(c.OverCapacity());
  c.Insert(1, 3, false, false, 0);
  EXPECT_TRUE(c.OverCapacity());
  c.set_capacity(5);
  EXPECT_FALSE(c.OverCapacity());
}

TEST(SwapCacheTest, ShrunkCounter) {
  SwapCache c("t", 10);
  c.Insert(1, 1, false, false, 0);
  SwapCache::Entry victim;
  c.PopLruUnlocked(victim);
  EXPECT_EQ(c.shrunk(), 1u);
}

/// Reference swap cache: one recency list holding every entry, locked or
/// not; a shrink pop walks from the tail past locked entries.
class ReferenceSwapCache {
 public:
  struct Item {
    CgroupId app;
    PageId page;
    bool locked;
  };

  std::list<Item>::iterator Find(CgroupId app, PageId page) {
    return std::find_if(items_.begin(), items_.end(), [&](const Item& i) {
      return i.app == app && i.page == page;
    });
  }
  const Item* Get(CgroupId app, PageId page) {
    auto it = Find(app, page);
    return it == items_.end() ? nullptr : &*it;
  }
  bool Contains(CgroupId app, PageId page) { return Get(app, page); }
  void Insert(CgroupId app, PageId page, bool locked) {
    items_.push_front({app, page, locked});
  }
  void Unlock(CgroupId app, PageId page) {
    auto it = Find(app, page);
    it->locked = false;
    items_.splice(items_.begin(), items_, it);
  }
  void Lock(CgroupId app, PageId page) {
    auto it = Find(app, page);
    if (it != items_.end()) it->locked = true;
  }
  bool Remove(CgroupId app, PageId page) {
    auto it = Find(app, page);
    if (it == items_.end()) return false;
    items_.erase(it);
    return true;
  }
  bool PopLruUnlocked(Item& out) {
    for (auto it = items_.rbegin(); it != items_.rend(); ++it) {
      if (it->locked) continue;
      out = *it;
      items_.erase(std::next(it).base());
      ++shrunk_;
      return true;
    }
    return false;
  }
  std::size_t size() const { return items_.size(); }
  std::uint64_t shrunk() const { return shrunk_; }

 private:
  std::list<Item> items_;
  std::uint64_t shrunk_ = 0;
};

// Random Insert / Lock / Unlock / Remove / PopLruUnlocked on one cache
// shared by two cgroups must pop exactly what the all-entries reference
// pops, in the same order.
TEST(SwapCacheTest, DifferentialAgainstAllEntriesReference) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    SwapCache c("t", 64);
    ReferenceSwapCache ref;
    auto pick = [&](std::uint64_t n) { return rng() % n; };
    for (int step = 0; step < 20000; ++step) {
      CgroupId app = CgroupId(1 + pick(2));
      PageId page = PageId(pick(48));
      const bool present = ref.Contains(app, page);
      switch (pick(6)) {
        case 0:
        case 1:
          if (!present) {
            bool locked = pick(2) == 0;
            c.Insert(app, page, locked, false, SimTime(step));
            ref.Insert(app, page, locked);
          }
          break;
        case 2:  // also unlocks already-unlocked entries
          if (present) {
            c.Unlock(app, page);
            ref.Unlock(app, page);
          }
          break;
        case 3:  // absent entries are a no-op on both
          c.Lock(app, page);
          ref.Lock(app, page);
          break;
        case 4:  // removes locked and unlocked entries alike
          ASSERT_EQ(c.Remove(app, page), ref.Remove(app, page));
          break;
        case 5: {
          SwapCache::Entry got;
          ReferenceSwapCache::Item want;
          bool popped = c.PopLruUnlocked(got);
          ASSERT_EQ(popped, ref.PopLruUnlocked(want)) << "step " << step;
          if (popped) {
            ASSERT_EQ(got.app, want.app) << "step " << step;
            ASSERT_EQ(got.page, want.page) << "step " << step;
            ASSERT_FALSE(got.locked);
          }
          break;
        }
      }
      ASSERT_EQ(c.size(), ref.size()) << "step " << step;
      ASSERT_EQ(c.shrunk(), ref.shrunk()) << "step " << step;
      const SwapCache::Entry* e = c.Lookup(app, page);
      const ReferenceSwapCache::Item* want = ref.Get(app, page);
      ASSERT_EQ(e != nullptr, want != nullptr);
      if (e) {
        ASSERT_EQ(e->locked, want->locked);
      }
    }
    // Drain: the remaining unlocked entries pop in reference order too.
    SwapCache::Entry got;
    ReferenceSwapCache::Item want;
    while (ref.PopLruUnlocked(want)) {
      ASSERT_TRUE(c.PopLruUnlocked(got));
      ASSERT_EQ(got.app, want.app);
      ASSERT_EQ(got.page, want.page);
    }
    EXPECT_FALSE(c.PopLruUnlocked(got));
    EXPECT_EQ(c.size(), ref.size());
  }
}

}  // namespace
}  // namespace canvas::mem
