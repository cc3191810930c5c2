// Per-page metadata (the simulation's `struct page` + PTE combined).
//
// Each application owns a dense vector of Page records indexed by PageId.
// The Canvas adaptive allocator stores its reserved swap-entry ID directly
// in this metadata, mirroring the paper's "write the entry ID into the page
// metadata (struct page)".
#pragma once

#include <cstdint>

#include "common/types.h"

namespace canvas::mem {

enum class PageState : std::uint8_t {
  kUntouched,  // never accessed; first touch allocates a zeroed frame
  kResident,   // mapped, occupies a frame, linked into an LRU list
  kSwapCache,  // unmapped but present in a swap cache (frame charged to cache)
  kRemote,     // only copy lives in the swap partition
};

enum class LruList : std::uint8_t { kNone, kActive, kInactive };

struct Page {
  PageState state = PageState::kUntouched;
  LruList list = LruList::kNone;

  /// Dirtied since the last writeback (or since swap-in).
  bool dirty = false;
  /// Referenced bit, set on access and consumed by LRU aging.
  bool referenced = false;
  /// Mapped by more than one process; handled via the global partition/cache.
  bool shared = false;
  /// Swap-in (or prefetch) currently in flight for this page.
  bool in_flight = false;
  /// Writeback RDMA in flight (page sits locked in the swap cache).
  bool under_writeback = false;
  /// The in-flight request is a prefetch (vs a demand read).
  bool in_flight_prefetch = false;
  /// Page currently sits in a swap cache due to a *prefetch* and has not yet
  /// been mapped; used for contribution/accuracy accounting.
  bool prefetched_unused = false;

  /// Where the page's swapped copy of record lives: remote memory, the
  /// hybrid local tier (DESIGN.md §14) or the local-disk fallback (§8).
  /// The next swap-in is routed there.
  SwapBackend home = SwapBackend::kRemote;

  /// Hot-page detection (§5.1): count of consecutive active-list scans that
  /// found this page near the head (mod 256), and the scan generation that
  /// last saw it (used to detect "consecutive"). While the page sits in the
  /// LRU's scan window both are stale by the scans since `scan_enter_gen`;
  /// read them through LruLists::ScanHits.
  std::uint8_t scan_hits = 0;

  /// Cooperative pin count (object subsystem, DESIGN.md §16): while
  /// non-zero the page belongs to an open behaviour's read-set — the LRU
  /// skips it for eviction and its swap-cache entry stays locked. Always
  /// zero with the object registry off.
  std::uint16_t pins = 0;

  /// Among the first `scan_pages` active pages (LruLists scan window).
  bool in_scan_window = false;

  /// Swap entry holding the current (or last written) remote copy;
  /// kInvalidEntry if the page has no remote copy.
  SwapEntryId entry = kInvalidEntry;
  /// Canvas reservation: entry permanently paired with this page while the
  /// reservation holds (equals `entry` when both are set).
  SwapEntryId reserved = kInvalidEntry;

  /// Scan generation that last saw the page (see scan_hits).
  std::uint32_t last_scan_gen = 0;
  /// Scan generation current when the page last entered the scan window
  /// (or had its hits folded); meaningful only while in_scan_window.
  std::uint32_t scan_enter_gen = 0;

  /// Content oracle for the chaos tests: bumped every time the page's
  /// (simulated) contents change, i.e. on each store to a mapped page.
  /// Writeback records the value into the swap entry's metadata; swap-in
  /// checks the recorded value against the page's — a mismatch means a
  /// stale or wrong copy was served and is counted as a `stale_read`.
  std::uint32_t content_version = 0;

  /// Incarnation counter: bumped whenever the page changes residence
  /// (mapped, released, evicted, re-fetched). In-flight swap-in completions
  /// capture the value at issue time and discard themselves if the page has
  /// moved on — the simulation analogue of the kernel's page-lock +
  /// swap-cache revalidation.
  std::uint32_t seq = 0;

  /// Intrusive LRU linkage (indices into the owning app's page vector).
  PageId lru_prev = kInvalidPage;
  PageId lru_next = kInvalidPage;

  bool NeedsWriteback() const { return dirty || entry == kInvalidEntry; }
};

// One page record per simulated 4 KB page: the per-tenant page table is the
// largest allocation in a run, so the record must stay one cache line.
static_assert(sizeof(Page) == 64, "mem::Page must stay 64 bytes");

}  // namespace canvas::mem
