// Canvas adaptive swap-entry reservation (§5.1).
//
// Pages keep a one-to-one reserved swap entry recorded in their metadata:
// the (lock-protected) allocator runs only on the *first* swap-out; every
// later swap-out of the page reuses its reserved entry lock-free. When
// remote-memory usage crosses the pressure threshold (75% in the paper), a
// periodic scan of the LRU active-list head identifies hot pages — pages
// seen near the head in consecutive scans — and cancels their reservations,
// returning entries to the free list (time/space trade-off). The LRU keeps
// the scanned head window incrementally (mem/lru.h), so a scan is one
// generation bump; the window is walked in order only when a tick cancels. The page state
// machine of the paper's Figure 7 is realized by the page.reserved field:
//   state 2 (no entry remembered)  -> swap-out takes the allocator path,
//                                     then remembers the new entry (state 5)
//   state 5 (entry remembered)     -> swap-out is lock-free
//   state 3 (became hot)           -> scan cancels the reservation
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "cgroup/cgroup.h"
#include "common/types.h"
#include "mem/lru.h"
#include "mem/page.h"
#include "sim/simulator.h"
#include "swapalloc/partition.h"

namespace canvas::swapalloc {

class ReservationManager {
 public:
  struct Config {
    /// Remote-usage fraction at which reservation removal starts.
    double pressure_threshold = 0.75;
    /// Period of the hot-page detection scan. Short relative to the paper's
    /// (minutes-long runs used coarser periods); our scaled runs last a few
    /// hundred milliseconds.
    SimDuration scan_period = 2 * kMillisecond;
    /// Pages examined from the active-list head per scan.
    std::size_t scan_pages = 2048;
    /// Consecutive scans a page must appear in to be declared hot.
    std::uint8_t hot_scans = 2;
    /// Upper bound on reservations cancelled per scan.
    std::size_t max_removals_per_scan = 2048;
    /// Fraction of partition capacity kept free by proactive cancellation
    /// so first-time swap-outs rarely hit a full partition.
    double free_slack = 0.05;
  };

  ReservationManager(sim::Simulator& sim, std::vector<mem::Page>& pages,
                     mem::LruLists& lru, SwapPartition& partition,
                     Cgroup& cgroup, Config cfg);

  /// Begin periodic scanning.
  void Start();

  /// Tenant retirement (DESIGN.md §15): the manager may be destroyed while
  /// a scan tick is still pending on the DES clock. The tick holds the
  /// alive token and becomes a no-op once the manager is gone, so
  /// destruction at reap time is safe without draining the event queue.
  ~ReservationManager() {
    if (alive_) *alive_ = false;
  }

  /// Swap-out fast path: returns the reserved entry (lock-free) or
  /// kInvalidEntry if the page must take the allocation path.
  SwapEntryId TakeReserved(mem::Page& page);

  /// Called after the slow path allocated `entry` for `page`: remember it
  /// (transition to state 5 in Fig. 7). Each slow-path allocation consumes
  /// one free entry, creating one unit of cancellation debt that a future
  /// cancel repays.
  void Remember(mem::Page& page, SwapEntryId entry);

  /// Cancel-on-arrival (swap-in boundary): if the free pool is below the
  /// slack target AND outstanding cancellation debt exists, the arriving
  /// page gives up its reservation — it is the resident whose next
  /// swap-out lies furthest in the future. Debt-matching keeps cancels ==
  /// allocations, so reservations recycle round-robin instead of being
  /// stripped from every arriving page. Returns true if cancelled.
  bool MaybeCancelOnArrival(mem::Page& page);

  /// Cancel up to `n` reservations of *resident* pages immediately (used
  /// when the allocator reports a full partition). Returns entries freed.
  std::size_t EmergencyReclaim(std::size_t n);

  /// Hook invoked when a cancel frees the entry that also held the page's
  /// clean remote copy (`page.entry`), just before the entry is dropped.
  /// The SwapSystem uses it to release hybrid-tier residency (DESIGN.md
  /// §14) — the tier's resident index must not outlive the entry.
  void SetEntryLostHook(std::function<void(mem::Page&)> fn) {
    entry_lost_ = std::move(fn);
  }

  // --- statistics ---
  std::uint64_t lock_free_swapouts() const { return lock_free_; }
  std::uint64_t removals() const { return removals_; }
  std::uint64_t scans() const { return scans_; }

 private:
  void Tick();
  /// Cancel one page's reservation; returns true if an entry was freed.
  bool Cancel(mem::Page& page);

  sim::Simulator& sim_;
  std::vector<mem::Page>& pages_;
  mem::LruLists& lru_;
  SwapPartition& partition_;
  Cgroup& cgroup_;
  Config cfg_;
  std::function<void(mem::Page&)> entry_lost_;
  std::int64_t cancel_debt_ = 0;
  PageId emergency_cursor_ = 0;
  std::vector<PageId> scan_buf_;
  std::uint64_t lock_free_ = 0;
  std::uint64_t removals_ = 0;
  std::uint64_t scans_ = 0;
  bool started_ = false;
  /// Liveness token captured by pending scan ticks (see ~ReservationManager).
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace canvas::swapalloc
