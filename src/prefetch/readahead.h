// Linux VMA-style swap readahead.
//
// Tracks the delta between consecutive fault addresses per context. A
// repeated delta (sequential or strided access) doubles the readahead
// window up to a maximum; a broken pattern halves it, down to zero — the
// kernel "reduces the number of prefetched pages until it stops prefetching
// completely" (§2). Conservative: no pattern, no prefetch.
#pragma once

#include "common/flat_map.h"
#include "prefetch/prefetcher.h"

namespace canvas::prefetch {

class ReadaheadPrefetcher : public Prefetcher {
 public:
  struct Config {
    ContextMode mode = ContextMode::kGlobal;
    /// Per-VMA readahead (the "per-VMA prefetching policy" the paper tunes
    /// Linux 5.5 with): detector state is additionally keyed by a
    /// `vma_zone_pages` region of the address space, so each thread's
    /// working area has its own stream detector. 0 disables (one state per
    /// context — the pre-5.x physical readahead behaviour).
    PageId vma_zone_pages = 1024;
  };

  /// Readahead window cap (pages).
  static constexpr std::uint32_t kMaxWindow = 8;

  explicit ReadaheadPrefetcher(Config cfg) : cfg_(cfg) {}

  void OnFault(const FaultInfo& fault, std::vector<PageId>& out) override;
  void Forget(CgroupId app) override;
  const char* name() const override { return "readahead"; }

 private:
  struct State {
    PageId last_page = kInvalidPage;
    std::int64_t last_delta = 0;
    std::uint32_t window = 1;
  };

  std::uint64_t KeyFor(CgroupId app, PageId page) const;
  State& StateFor(CgroupId app, PageId page);

  Config cfg_;
  FlatMap64<State> states_;  // packed (context, vma-zone) key
};

}  // namespace canvas::prefetch
