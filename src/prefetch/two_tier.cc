#include "prefetch/two_tier.h"

namespace canvas::prefetch {

namespace {
/// A fault is "ineffective" if the kernel tier produced fewer candidates
/// than this.
constexpr std::size_t kIneffectiveThreshold = 1;
/// Reference-based analysis: summary-graph hops and page cap (§5.2).
constexpr int kRefHops = 3;
constexpr std::size_t kRefMaxPages = 32;
/// Thread-based analysis: per-thread delta window and prefetch window cap.
constexpr std::uint32_t kThreadHistory = 16;
constexpr std::uint32_t kThreadMaxWindow = 8;
}  // namespace

TwoTierPrefetcher::TwoTierPrefetcher(Config cfg)
    : cfg_(cfg),
      kernel_tier_(ReadaheadPrefetcher::Config{ContextMode::kPerApp}) {}

void TwoTierPrefetcher::RegisterApp(CgroupId app,
                                    const runtime::RuntimeInfo* info,
                                    bool managed) {
  apps_[app] = AppState{info, managed, 0, false, false};
}

bool TwoTierPrefetcher::IsForwarding(CgroupId app) const {
  const AppState* st = apps_.Find(app);
  return st && st->forwarding;
}

void TwoTierPrefetcher::SetCooperative(CgroupId app, bool on) {
  if (AppState* st = apps_.Find(app)) st->cooperative = on;
}

void TwoTierPrefetcher::NoteCooperativeBatch(CgroupId, std::size_t pages) {
  ++coop_batches_;
  coop_pages_ += pages;
}

void TwoTierPrefetcher::OnFault(const FaultInfo& fault,
                                std::vector<PageId>& out) {
  if (const AppState* pre = apps_.Find(fault.app); pre && pre->cooperative)
    return;  // read-sets arrive cooperatively: speculation is redundant
  std::size_t before = out.size();
  kernel_tier_.OnFault(fault, out);
  std::size_t kernel_pages = out.size() - before;

  AppState* found = apps_.Find(fault.app);
  if (!found) return;  // no runtime attached: kernel tier only
  AppState& st = *found;

  if (kernel_pages >= kIneffectiveThreshold) {
    // Kernel tier effective again: stop forwarding (it is free, the app
    // tier costs compute).
    st.ineffective_streak = 0;
    st.forwarding = false;
    return;
  }
  if (++st.ineffective_streak >= cfg_.consecutive_faults)
    st.forwarding = true;
  if (st.forwarding) {
    ++forwarded_;
    AppTier(st, fault, out);
  }
}

void TwoTierPrefetcher::OnPrefetchUsed(CgroupId app, PageId) {
  if (AppState* st = apps_.Find(app)) st->used += 1.0;
}

void TwoTierPrefetcher::OnPrefetchWasted(CgroupId app, PageId) {
  if (AppState* st = apps_.Find(app)) st->wasted += 1.0;
}

void TwoTierPrefetcher::AppTier(AppState& st, const FaultInfo& fault,
                                std::vector<PageId>& out) {
  const runtime::RuntimeInfo& info = *st.info;
  // GC and other auxiliary threads get no prefetching: "prefetching for a
  // GC thread has zero benefit" (§3).
  if (info.KindOf(fault.thread) == runtime::ThreadKind::kGc) return;

  // Accuracy gate: if recent prefetches are mostly wasted, the application's
  // current phase has no exploitable semantic pattern — stand down, but
  // re-probe periodically so a pattern change re-enables the tier.
  double total = st.used + st.wasted;
  if (total > 1024) {  // decay so the gate tracks the current phase
    st.used *= 0.5;
    st.wasted *= 0.5;
    total = st.used + st.wasted;
  }
  if (total >= double(cfg_.accuracy_min_samples) &&
      st.used / total < cfg_.min_accuracy) {
    if (++st.since_probe < cfg_.reprobe_interval) return;
    // Probe: discard the stale evidence and run a fresh trial window (the
    // gate stays open until accuracy_min_samples of new feedback arrive —
    // feedback is delayed, so a single-fault probe could never reopen it).
    st.since_probe = 0;
    st.used = 0;
    st.wasted = 0;
  }

  bool many_threads = info.app_thread_count() >= cfg_.many_threads;
  bool in_array = info.InLargeArray(fault.page);

  if (!st.managed || (many_threads && in_array)) {
    ThreadBased(fault, out);
    return;
  }
  // Reference-based: traverse the summary graph up to 3 hops.
  std::size_t before = out.size();
  thread_local std::vector<PageId> reach;  // reused across faults
  info.ReachablePages(fault.page, kRefHops, kRefMaxPages, reach);
  out.insert(out.end(), reach.begin(), reach.end());
  ref_pf_ += out.size() - before;
}

void TwoTierPrefetcher::ThreadBased(const FaultInfo& fault,
                                    std::vector<PageId>& out) {
  ThreadState& ts = thread_states_[fault.thread];
  if (ts.last_page != kInvalidPage) {
    ts.deltas.push_back(std::int64_t(fault.page) -
                        std::int64_t(ts.last_page));
    if (ts.deltas.size() > kThreadHistory) ts.deltas.pop_front();
  }
  ts.last_page = fault.page;
  if (ts.deltas.size() < 4) return;

  // Majority vote over this single thread's deltas (Leap's algorithm
  // applied per user thread, §5.2).
  std::int64_t candidate = 0;
  int count = 0;
  for (std::int64_t d : ts.deltas) {
    if (count == 0) {
      candidate = d;
      count = 1;
    } else if (d == candidate) {
      ++count;
    } else {
      --count;
    }
  }
  std::size_t votes = 0;
  for (std::int64_t d : ts.deltas)
    if (d == candidate) ++votes;
  if (candidate == 0 || votes * 2 <= ts.deltas.size()) {
    ts.window = std::max<std::uint32_t>(ts.window / 2, 1);
    return;  // conservative: no pattern, no prefetch
  }
  ts.window = std::min(ts.window * 2, kThreadMaxWindow);
  for (std::uint32_t i = 1; i <= ts.window; ++i) {
    auto next = std::int64_t(fault.page) + candidate * std::int64_t(i);
    if (next < 0) break;
    out.push_back(PageId(next));
    ++thread_pf_;
  }
}

}  // namespace canvas::prefetch
