// Two-list (active/inactive) page reclaim model, following the Linux anon
// LRU design closely enough for the paper's mechanisms to apply:
//  - new and re-faulted pages enter the active list head;
//  - a balancing pass demotes cold active-tail pages so the inactive list
//    stays at roughly 1/3 of resident pages;
//  - eviction takes from the inactive tail with a second-chance pass over
//    the referenced bit;
//  - the Canvas hot-page detector (§5.1) scans the active-list head.
//
// The hot-page scan is incremental. The lists track the scan window — the
// first `n` active pages — as they change: a boundary pointer to the n-th
// active page plus a per-page in-window bit. A scan is then one generation
// bump (AdvanceScan); each page's consecutive-scan count is folded in only
// when it leaves the window or a reader asks (ScanHits), from the
// generation at which it entered. The counts equal an eager walk of the
// first n pages at every scan, modulo 256 like the uint8_t they live in.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "mem/page.h"

namespace canvas::mem {

class LruLists {
 public:
  explicit LruLists(std::vector<Page>& pages) : pages_(pages) {}

  /// Insert a (newly resident) page at the active head.
  void AddActive(PageId id);

  /// Remove a page from whichever list holds it (no-op if none).
  void Remove(PageId id);

  /// Record an access to a resident page: sets the referenced bit and
  /// promotes inactive+referenced pages, like mark_page_accessed().
  void Touch(PageId id);

  /// Pick the next eviction victim (inactive tail with second chance, after
  /// rebalancing). Returns kInvalidPage when both lists are empty. The
  /// victim is NOT removed; callers unmap it and then call Remove().
  PageId EvictionCandidate();

  /// Copy the first `n` pages from the active-list head into `out`, in
  /// list order (emergency reclaim).
  void ScanActiveHead(std::size_t n, std::vector<PageId>& out) const;

  /// Visit the first `n` pages from the active-list head in list order,
  /// stopping early when `visit(id)` returns false (the scan's cancel pass).
  /// `visit` must not relink the lists.
  template <typename Visit>
  void WalkActiveHead(std::size_t n, Visit&& visit) const {
    PageId cur = active_.head;
    for (std::size_t i = 0; i < n && cur != kInvalidPage; ++i) {
      if (!visit(cur)) return;
      cur = pages_[cur].lru_next;
    }
  }

  /// Track the first `n` active pages as the hot-page scan window (0 = no
  /// window, the default: systems without a scan pay nothing).
  void SetScanWindow(std::size_t n);
  /// One hot-page scan of the window: O(1) whatever its size.
  void AdvanceScan() { ++scan_gen_; }
  /// Consecutive scans, up to the latest, that found `id` in the window
  /// (mod 256; 0 if never seen).
  std::uint8_t ScanHits(PageId id) const;

  std::uint64_t active_count() const { return active_.count; }
  std::uint64_t inactive_count() const { return inactive_.count; }
  std::uint64_t total() const { return active_.count + inactive_.count; }

 private:
  struct List {
    PageId head = kInvalidPage;
    PageId tail = kInvalidPage;
    std::uint64_t count = 0;
  };

  List& ListFor(LruList which) {
    return which == LruList::kActive ? active_ : inactive_;
  }

  void PushHead(List& l, LruList which, PageId id);
  void Unlink(List& l, PageId id);
  void Rebalance();
  void EnterWindow(PageId id);
  void LeaveWindow(PageId id);
  /// `p`'s consecutive-scan count as of generation `gen`.
  static std::uint8_t HitsAt(const Page& p, std::uint32_t gen);
  /// Write the scans since `p` entered the window into its stored count.
  void FoldScanHits(Page& p);

  std::vector<Page>& pages_;
  List active_;
  List inactive_;
  // Scan window: its capacity, occupancy, and last (n-th) page.
  std::size_t window_ = 0;
  std::size_t window_count_ = 0;
  PageId window_last_ = kInvalidPage;
  std::uint32_t scan_gen_ = 0;
};

}  // namespace canvas::mem
