#include "runtime/runtime_info.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

namespace canvas::runtime {

ThreadKind RuntimeInfo::KindOf(ThreadId tid) const {
  auto it = threads_.find(tid);
  return it == threads_.end() ? ThreadKind::kApplication : it->second;
}

void RuntimeInfo::RegisterThread(ThreadId tid, ThreadKind kind) {
  auto [it, inserted] = threads_.try_emplace(tid, kind);
  if (!inserted) {
    if (it->second == ThreadKind::kApplication) --app_threads_;
    it->second = kind;
  }
  if (kind == ThreadKind::kApplication) ++app_threads_;
}

void RuntimeInfo::OpenGroup(std::uint32_t g) {
  if (offsets_.empty()) offsets_.push_back(0);
  if (std::size_t(g) + 2 > offsets_.size())
    offsets_.resize(std::size_t(g) + 2, offsets_.back());
}

bool RuntimeInfo::HasEdge(std::uint32_t g, std::uint32_t target) const {
  auto begin = targets_.begin() + offsets_[g];
  auto end = targets_.begin() + offsets_[std::size_t(g) + 1];
  return std::find(begin, end, target) != end;
}

void RuntimeInfo::RecordReference(PageId from, PageId to) {
  std::uint32_t g1 = GroupOf(from), g2 = GroupOf(to);
  if (g1 == g2) return;
  if (std::size_t(g1) + 1 >= group_count()) {
    OpenGroup(g1);
    if (HasEdge(g1, g2)) return;
    targets_.push_back(g2);
    ++offsets_.back();
    return;
  }
  if (HasEdge(g1, g2)) return;
  targets_.insert(targets_.begin() + offsets_[std::size_t(g1) + 1], g2);
  for (std::size_t i = std::size_t(g1) + 1; i < offsets_.size(); ++i)
    ++offsets_[i];
}

void RuntimeInfo::RecordPageEdges(PageId first, PageId count,
                                  std::uint32_t degree,
                                  const PageId* targets) {
  if (count == 0 || degree == 0) return;
  const std::uint32_t g_first = GroupOf(first);
  if (std::size_t(g_first) + 1 < group_count()) {
    // Into groups that already have successors: edge by edge.
    for (PageId i = 0; i < count; ++i)
      for (std::uint32_t j = 0; j < degree; ++j)
        RecordReference(first + i, targets[i * degree + j]);
    return;
  }
  const std::size_t edges = std::size_t(count) * degree;
  if (targets_.size() + edges > std::numeric_limits<std::uint32_t>::max())
    throw std::length_error("RuntimeInfo: summary graph exceeds 2^32 edges");
  const std::uint32_t g_last = GroupOf(first + count - 1);
  OpenGroup(g_first);
  offsets_.reserve(std::size_t(g_last) + 2);
  targets_.reserve(targets_.size() + edges);

  // Dedupe by stamp over the groups the pages span: stamp[t - g_first]
  // holds g - g_first + 1 once group g refers to group t. Targets outside
  // that window fall back to a scan of g's range.
  std::vector<std::uint32_t> stamp(std::size_t(g_last - g_first) + 1, 0);
  for (std::uint32_t i = offsets_[g_first]; i < targets_.size(); ++i) {
    std::uint32_t off = targets_[i] - g_first;
    if (off < stamp.size()) stamp[off] = 1;
  }
  const PageId end = first + count;
  PageId page = first;
  for (std::uint32_t g = g_first;; ++g) {
    const std::uint32_t mark = g - g_first + 1;
    const std::uint32_t begin = offsets_[g];
    const PageId group_end = std::min(end, (PageId(g) + 1) * kGroupPages);
    for (; page < group_end; ++page) {
      const PageId* t = targets + std::size_t(page - first) * degree;
      for (std::uint32_t j = 0; j < degree; ++j) {
        const std::uint32_t tg = GroupOf(t[j]);
        if (tg == g) continue;
        const std::uint32_t off = tg - g_first;  // wraps below the window
        if (off < stamp.size()) {
          if (stamp[off] == mark) continue;
          stamp[off] = mark;
        } else if (std::find(targets_.begin() + begin, targets_.end(), tg) !=
                   targets_.end()) {
          continue;
        }
        targets_.push_back(tg);
      }
    }
    offsets_.back() = std::uint32_t(targets_.size());
    if (g == g_last) break;
    offsets_.push_back(std::uint32_t(targets_.size()));
  }
}

void RuntimeInfo::ReachablePages(PageId page, int hops, std::size_t max_pages,
                                 std::vector<PageId>& out) const {
  out.clear();
  std::uint32_t start = GroupOf(page);
  // A group past the table has no successors: nothing is reachable.
  if (hops <= 0 || start >= group_count()) return;
  // Scratch reused across calls, one per thread: a RuntimeInfo shared by
  // runs on several sweep threads stays read-only. Every group this call
  // marks enters the frontier, which unmarks them all at the end.
  thread_local std::vector<std::uint8_t> visited;
  thread_local std::vector<std::pair<std::uint32_t, int>> frontier;
  if (visited.size() < group_count()) visited.resize(group_count(), 0);
  visited[start] = 1;
  frontier.assign(1, {start, 0});
  for (std::size_t head = 0; head < frontier.size() && out.size() < max_pages;
       ++head) {
    auto [g, depth] = frontier[head];
    if (depth >= hops) continue;
    if (g >= group_count()) continue;
    for (std::uint32_t i = offsets_[g]; i < offsets_[std::size_t(g) + 1];
         ++i) {
      std::uint32_t next = targets_[i];
      // Targets need not be sources, so they can lie past the table.
      if (next >= visited.size()) visited.resize(std::size_t(next) + 1, 0);
      if (visited[next]) continue;
      visited[next] = 1;
      for (PageId p = PageId(next) * kGroupPages;
           p < PageId(next + 1) * kGroupPages && out.size() < max_pages; ++p) {
        out.push_back(p);
      }
      frontier.emplace_back(next, depth + 1);
    }
  }
  for (const auto& [g, depth] : frontier) visited[g] = 0;
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
