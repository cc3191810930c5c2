#include "swapalloc/reservation.h"

namespace canvas::swapalloc {

ReservationManager::ReservationManager(sim::Simulator& sim,
                                       std::vector<mem::Page>& pages,
                                       mem::LruLists& lru,
                                       SwapPartition& partition,
                                       Cgroup& cgroup, Config cfg)
    : sim_(sim), pages_(pages), lru_(lru), partition_(partition),
      cgroup_(cgroup), cfg_(cfg) {
  lru_.SetScanWindow(cfg_.scan_pages);
}

void ReservationManager::Start() {
  if (started_) return;
  started_ = true;
  sim_.Schedule(cfg_.scan_period, [this, alive = alive_] {
    if (*alive) Tick();
  });
}

SwapEntryId ReservationManager::TakeReserved(mem::Page& page) {
  if (page.reserved == kInvalidEntry) return kInvalidEntry;
  ++lock_free_;
  return page.reserved;
}

void ReservationManager::Remember(mem::Page& page, SwapEntryId entry) {
  page.reserved = entry;
  // Debt is capped at the slack size: the start-up phase (every page's
  // first allocation) must not bank enough debt to cancel every future
  // arrival.
  auto cap = std::int64_t(cfg_.free_slack *
                          double(partition_.allocator().capacity()));
  cancel_debt_ = std::min(cancel_debt_ + 1, std::max<std::int64_t>(cap, 64));
}

bool ReservationManager::MaybeCancelOnArrival(mem::Page& page) {
  if (cancel_debt_ <= 0) return false;
  if (page.reserved == kInvalidEntry) return false;
  auto& alloc = partition_.allocator();
  std::uint64_t free_now = alloc.capacity() - alloc.used();
  auto target = std::uint64_t(cfg_.free_slack * double(alloc.capacity()));
  if (free_now >= target) return false;
  if (!Cancel(page)) return false;
  --cancel_debt_;
  return true;
}

bool ReservationManager::Cancel(mem::Page& page) {
  if (page.reserved == kInvalidEntry) return false;
  // Only a resident page's entry holds no data we still need: a Remote or
  // in-cache page's entry carries (or is receiving) its only copy.
  if (page.state != mem::PageState::kResident) return false;
  SwapEntryId e = page.reserved;
  page.reserved = kInvalidEntry;
  if (page.entry == e) {
    // The entry also held the clean remote copy (entry-keeping); losing it
    // means the next eviction must write the page back.
    if (entry_lost_) entry_lost_(page);
    page.entry = kInvalidEntry;
  }
  partition_.allocator().Free(e);
  cgroup_.UnchargeRemote();
  ++removals_;
  return true;
}

void ReservationManager::Tick() {
  sim_.Schedule(cfg_.scan_period, [this, alive = alive_] {
    if (*alive) Tick();
  });
  auto& alloc = partition_.allocator();
  if (alloc.Utilization() < cfg_.pressure_threshold) return;
  ++scans_;
  // Hot-page bookkeeping: "hot" = seen near the active head in consecutive
  // scans. The LRU tracks its head window incrementally, so the scan itself
  // is one generation bump; the ordered walk below runs only on ticks that
  // actually cancel.
  lru_.AdvanceScan();
  // Cancel only while free entries are scarce, and only up to the slack
  // target: over-cancelling churns — every cancelled page pays the lock
  // path at its next swap-out (the §5.1 time/space trade-off).
  std::uint64_t free_now = alloc.capacity() - alloc.used();
  auto target = std::uint64_t(cfg_.free_slack * double(alloc.capacity()));
  if (free_now >= target) return;
  // Gate on cancellation debt: cancels track actual allocation demand.
  // Without the gate the scan chases the slack target forever, generating
  // cancel->writeback->allocate churn even when nothing needs entries.
  if (cancel_debt_ <= 0) return;
  std::size_t deficit = std::min<std::size_t>(
      {target - free_now, cfg_.max_removals_per_scan,
       std::size_t(cancel_debt_)});
  std::size_t removed = 0;
  // The periodic scan only cancels genuinely HOT pages (stable working
  // set, e.g. a Zipfian head) — their reservations are parked capacity.
  // Dirty pages first: their entry holds stale data, so the cancellation
  // costs only a future allocation, whereas cancelling a CLEAN page also
  // destroys its remote copy (a free clean-drop becomes a writeback).
  // Everything else is handled by debt-matched cancel-on-arrival and, on
  // allocation failure, EmergencyReclaim.
  // Pass 1 walks the window in place and stops at its last cancel; it
  // keeps the hot pages it did not cancel, in order, for pass 2. A page
  // pass 1 cancelled has no reservation left, so pass 2 would skip it.
  scan_buf_.clear();
  lru_.WalkActiveHead(cfg_.scan_pages, [&](PageId id) {  // pass 1: hot + dirty
    if (removed >= deficit) return false;
    if (lru_.ScanHits(id) < cfg_.hot_scans) return true;
    mem::Page& p = pages_[id];
    if (p.dirty && Cancel(p))
      ++removed;
    else
      scan_buf_.push_back(id);
    return true;
  });
  for (PageId id : scan_buf_) {  // pass 2: hot (clean) pages
    if (removed >= deficit) break;
    if (Cancel(pages_[id])) ++removed;
  }
  cancel_debt_ -= std::int64_t(removed);
}

std::size_t ReservationManager::EmergencyReclaim(std::size_t n) {
  // Strip reservations from the hottest (active-head) pages first; they are
  // the least likely to need a fast swap-out soon.
  lru_.ScanActiveHead(std::max<std::size_t>(n * 4, 1024), scan_buf_);
  std::size_t removed = 0;
  for (PageId id : scan_buf_) {
    if (removed >= n) break;
    if (Cancel(pages_[id])) ++removed;
  }
  if (removed > 0) return removed;
  // The active head held no reservations: sweep the whole page table from a
  // rotating cursor. Any resident page's reservation is safe to cancel, and
  // slack always exists because local + remote exceeds the working set.
  for (PageId i = 0; i < pages_.size() && removed < n; ++i) {
    PageId idx = (emergency_cursor_ + i) % pages_.size();
    if (Cancel(pages_[idx])) ++removed;
    if (i + 1 == pages_.size() || removed >= n)
      emergency_cursor_ = (idx + 1) % pages_.size();
  }
  return removed;
}

}  // namespace canvas::swapalloc
