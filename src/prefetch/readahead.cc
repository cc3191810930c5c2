#include "prefetch/readahead.h"

#include <cstdlib>

namespace canvas::prefetch {

std::uint64_t ReadaheadPrefetcher::KeyFor(CgroupId app, PageId page) const {
  std::uint64_t key =
      cfg_.mode == ContextMode::kGlobal ? 0 : (std::uint64_t(app) + 1) << 40;
  if (cfg_.vma_zone_pages > 0) key |= page / cfg_.vma_zone_pages;
  return key;
}

ReadaheadPrefetcher::State& ReadaheadPrefetcher::StateFor(CgroupId app,
                                                          PageId page) {
  return states_[KeyFor(app, page)];
}

void ReadaheadPrefetcher::Forget(CgroupId app) {
  if (cfg_.mode == ContextMode::kGlobal) return;
  // Every vma-zone key of this context shares the (app+1) << 40 prefix;
  // collect first — FlatMap64 forbids erasing mid-iteration.
  std::uint64_t prefix = (std::uint64_t(app) + 1) << 40;
  std::vector<std::uint64_t> keys;
  states_.ForEach([&](std::uint64_t key, const State&) {
    if ((key >> 40) == (prefix >> 40)) keys.push_back(key);
  });
  for (std::uint64_t key : keys) states_.Erase(key);
}

void ReadaheadPrefetcher::OnFault(const FaultInfo& fault,
                                  std::vector<PageId>& out) {
  State& st = StateFor(fault.app, fault.page);
  if (st.last_page == kInvalidPage) {
    st.last_page = fault.page;
    return;
  }
  auto delta = std::int64_t(fault.page) - std::int64_t(st.last_page);
  if (delta != 0 && delta == st.last_delta) {
    st.window = std::min(st.window == 0 ? 1 : st.window * 2, kMaxWindow);
    for (std::uint32_t i = 1; i <= st.window; ++i) {
      auto next = std::int64_t(fault.page) + delta * std::int64_t(i);
      if (next < 0) break;
      out.push_back(PageId(next));
    }
  } else {
    st.window /= 2;  // pattern broken: shrink toward no prefetching
  }
  st.last_delta = delta;
  st.last_page = fault.page;
}

}  // namespace canvas::prefetch
