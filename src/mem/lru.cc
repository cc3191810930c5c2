#include "mem/lru.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace canvas::mem {

void LruLists::PushHead(List& l, LruList which, PageId id) {
  Page& p = pages_[id];
  if (p.list != LruList::kNone) {
    std::fprintf(stderr,
                 "LRU double-add: page=%llu state=%d list=%d in_flight=%d "
                 "wb=%d pf=%d dirty=%d\n",
                 (unsigned long long)id, int(p.state), int(p.list),
                 int(p.in_flight), int(p.under_writeback),
                 int(p.in_flight_prefetch), int(p.dirty));
    std::abort();
  }
  p.list = which;
  p.lru_prev = kInvalidPage;
  p.lru_next = l.head;
  if (l.head != kInvalidPage) pages_[l.head].lru_prev = id;
  l.head = id;
  if (l.tail == kInvalidPage) l.tail = id;
  ++l.count;
  if (which != LruList::kActive || window_ == 0) return;
  // The new head enters the scan window; a full window sheds its last page.
  EnterWindow(id);
  if (window_count_ < window_) {
    ++window_count_;
    if (window_last_ == kInvalidPage) window_last_ = id;
  } else {
    PageId out = window_last_;
    window_last_ = pages_[out].lru_prev;
    LeaveWindow(out);
  }
}

void LruLists::Unlink(List& l, PageId id) {
  Page& p = pages_[id];
  if (p.in_scan_window) {
    // The first active page past the window moves up into it.
    PageId next_in = pages_[window_last_].lru_next;
    LeaveWindow(id);
    if (next_in != kInvalidPage) {
      EnterWindow(next_in);
      window_last_ = next_in;
    } else {
      --window_count_;
      if (window_last_ == id) window_last_ = p.lru_prev;
    }
  }
  if (p.lru_prev != kInvalidPage)
    pages_[p.lru_prev].lru_next = p.lru_next;
  else
    l.head = p.lru_next;
  if (p.lru_next != kInvalidPage)
    pages_[p.lru_next].lru_prev = p.lru_prev;
  else
    l.tail = p.lru_prev;
  p.lru_prev = p.lru_next = kInvalidPage;
  p.list = LruList::kNone;
  assert(l.count > 0);
  --l.count;
}

void LruLists::AddActive(PageId id) { PushHead(active_, LruList::kActive, id); }

void LruLists::Remove(PageId id) {
  Page& p = pages_[id];
  if (p.list == LruList::kNone) return;
  Unlink(ListFor(p.list), id);
}

void LruLists::Touch(PageId id) {
  Page& p = pages_[id];
  if (p.list == LruList::kInactive) {
    if (p.referenced) {
      // Second access while inactive: promote (mark_page_accessed()).
      Unlink(inactive_, id);
      p.referenced = false;
      PushHead(active_, LruList::kActive, id);
      return;
    }
    p.referenced = true;
    return;
  }
  p.referenced = true;
}

void LruLists::Rebalance() {
  // Keep the inactive list at >= 1/3 of resident pages so eviction always
  // has aged candidates, mirroring inactive_is_low() in the kernel.
  std::uint64_t resident = total();
  while (inactive_.count * 3 < resident && active_.count > 1) {
    PageId victim = active_.tail;
    Page& p = pages_[victim];
    Unlink(active_, victim);
    p.referenced = false;  // demotion clears the referenced bit
    PushHead(inactive_, LruList::kInactive, victim);
  }
}

PageId LruLists::EvictionCandidate() {
  Rebalance();
  // Second-chance scan, bounded so a fully referenced list still yields.
  for (int pass = 0; pass < 8; ++pass) {
    PageId victim = inactive_.tail;
    if (victim == kInvalidPage) break;
    Page& p = pages_[victim];
    if (p.referenced || p.pins != 0) {
      // Second chance; cooperatively pinned pages cycle like referenced
      // ones (a behaviour's read-set must stay resident, DESIGN.md §16).
      Unlink(inactive_, victim);
      p.referenced = false;
      PushHead(active_, LruList::kActive, victim);
      Rebalance();
      continue;
    }
    return victim;
  }
  // Last resort: take the coldest unpinned tail page, inactive first.
  for (PageId v = inactive_.tail; v != kInvalidPage; v = pages_[v].lru_prev)
    if (pages_[v].pins == 0) return v;
  for (PageId v = active_.tail; v != kInvalidPage; v = pages_[v].lru_prev)
    if (pages_[v].pins == 0) return v;
  return kInvalidPage;
}

void LruLists::EnterWindow(PageId id) {
  Page& p = pages_[id];
  p.in_scan_window = true;
  p.scan_enter_gen = scan_gen_;
}

void LruLists::LeaveWindow(PageId id) {
  Page& p = pages_[id];
  FoldScanHits(p);
  p.in_scan_window = false;
}

std::uint8_t LruLists::HitsAt(const Page& p, std::uint32_t gen) {
  std::uint32_t scans = p.in_scan_window ? gen - p.scan_enter_gen : 0;
  if (scans == 0) return p.scan_hits;
  // Seen at every generation after it entered. If the page was also seen at
  // the generation it entered on (it left and came back between two scans,
  // or never left), the run continues; otherwise a new run starts.
  return p.last_scan_gen == p.scan_enter_gen
             ? std::uint8_t(p.scan_hits + scans)
             : std::uint8_t(scans);
}

void LruLists::FoldScanHits(Page& p) {
  if (p.scan_enter_gen == scan_gen_) return;
  p.scan_hits = HitsAt(p, scan_gen_);
  p.last_scan_gen = scan_gen_;
  p.scan_enter_gen = scan_gen_;
}

std::uint8_t LruLists::ScanHits(PageId id) const {
  return HitsAt(pages_[id], scan_gen_);
}

void LruLists::SetScanWindow(std::size_t n) {
  // Fold and clear the old window, then mark the new one from the head.
  for (PageId cur = active_.head;
       cur != kInvalidPage && pages_[cur].in_scan_window;
       cur = pages_[cur].lru_next)
    LeaveWindow(cur);
  window_ = n;
  window_count_ = 0;
  window_last_ = kInvalidPage;
  for (PageId cur = active_.head; cur != kInvalidPage && window_count_ < n;
       cur = pages_[cur].lru_next) {
    EnterWindow(cur);
    window_last_ = cur;
    ++window_count_;
  }
}

void LruLists::ScanActiveHead(std::size_t n, std::vector<PageId>& out) const {
  out.clear();
  WalkActiveHead(n, [&out](PageId id) {
    out.push_back(id);
    return true;
  });
}

}  // namespace canvas::mem
