#include "runtime/runtime_info.h"

#include <algorithm>
#include <deque>

namespace canvas::runtime {

ThreadKind RuntimeInfo::KindOf(ThreadId tid) const {
  auto it = threads_.find(tid);
  return it == threads_.end() ? ThreadKind::kApplication : it->second;
}

std::size_t RuntimeInfo::app_thread_count() const {
  std::size_t n = 0;
  for (const auto& [tid, kind] : threads_)
    if (kind == ThreadKind::kApplication) ++n;
  return n;
}

void RuntimeInfo::RecordReference(PageId from, PageId to) {
  std::uint32_t g1 = GroupOf(from), g2 = GroupOf(to);
  if (g1 == g2) return;
  if (g1 >= graph_.size()) graph_.resize(std::size_t(g1) + 1);
  auto& adj = graph_[g1];
  if (std::find(adj.begin(), adj.end(), g2) == adj.end()) {
    adj.push_back(g2);
    ++edge_count_;
  }
}

void RuntimeInfo::ReachablePages(PageId page, int hops, std::size_t max_pages,
                                 std::vector<PageId>& out) const {
  out.clear();
  std::uint32_t start = GroupOf(page);
  std::unordered_set<std::uint32_t> visited{start};
  std::deque<std::pair<std::uint32_t, int>> frontier{{start, 0}};
  while (!frontier.empty() && out.size() < max_pages) {
    auto [g, depth] = frontier.front();
    frontier.pop_front();
    if (depth >= hops) continue;
    if (g >= graph_.size()) continue;
    for (std::uint32_t next : graph_[g]) {
      if (!visited.insert(next).second) continue;
      for (PageId p = PageId(next) * kGroupPages;
           p < PageId(next + 1) * kGroupPages && out.size() < max_pages; ++p) {
        out.push_back(p);
      }
      frontier.emplace_back(next, depth + 1);
    }
  }
}

void RuntimeInfo::RegisterLargeArray(PageId start_page, PageId num_pages) {
  arrays_[start_page] = num_pages;
}

bool RuntimeInfo::InLargeArray(PageId page) const {
  auto it = arrays_.upper_bound(page);
  if (it == arrays_.begin()) return false;
  --it;
  return page < it->first + it->second;
}

}  // namespace canvas::runtime
