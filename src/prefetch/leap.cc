#include "prefetch/leap.h"

namespace canvas::prefetch {

LeapPrefetcher::State& LeapPrefetcher::StateFor(CgroupId app) {
  CgroupId key = cfg_.mode == ContextMode::kGlobal ? 0 : app;
  return states_[key];
}

std::int64_t LeapPrefetcher::MajorityDelta(
    const std::deque<std::int64_t>& deltas) {
  std::int64_t candidate = 0;
  int count = 0;
  for (std::int64_t d : deltas) {
    if (count == 0) {
      candidate = d;
      count = 1;
    } else if (d == candidate) {
      ++count;
    } else {
      --count;
    }
  }
  if (candidate == 0) return 0;
  // Verify strict majority.
  std::size_t votes = 0;
  for (std::int64_t d : deltas)
    if (d == candidate) ++votes;
  return votes * 2 > deltas.size() ? candidate : 0;
}

void LeapPrefetcher::OnFault(const FaultInfo& fault,
                             std::vector<PageId>& out) {
  State& st = StateFor(fault.app);
  if (st.last_page != kInvalidPage) {
    st.deltas.push_back(std::int64_t(fault.page) -
                        std::int64_t(st.last_page));
    if (st.deltas.size() > kHistory) st.deltas.pop_front();
  }
  st.last_page = fault.page;
  if (st.deltas.size() < 4) return;

  std::int64_t trend = MajorityDelta(st.deltas);
  if (trend != 0) {
    ++trend_hits_;
    st.window = std::min(st.window * 2, kMaxWindow);
    for (std::uint32_t i = 1; i <= st.window; ++i) {
      auto next = std::int64_t(fault.page) + trend * std::int64_t(i);
      if (next < 0) break;
      out.push_back(PageId(next));
    }
  } else {
    // Aggressive fallback: prefetch a contiguous run even with no pattern.
    ++fallbacks_;
    st.window = std::max<std::uint32_t>(st.window / 2, 1);
    PageId base = fault.page;
    if (cfg_.shared_partition_fallback) {
      // Swap-offset contiguity on a shared partition: the run starts at an
      // effectively unrelated nearby page (interleaved swap-out order).
      base = fault.page + jitter_.NextInRange(16, 4096);
    }
    for (std::uint32_t i = 1; i <= cfg_.fallback_run; ++i)
      out.push_back(base + i);
  }
}

}  // namespace canvas::prefetch
