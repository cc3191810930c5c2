#include "workload/patterns.h"

#include <cassert>

namespace canvas::workload {

// --- SequentialScanStream ---

SequentialScanStream::SequentialScanStream(Params p)
    : p_(p), rng_(p.seed) {
  assert(p_.stride != 0);
}

std::optional<Access> SequentialScanStream::Next() {
  if (pass_ >= p_.passes || p_.region.len == 0) return std::nullopt;
  auto steps = PageId((p_.region.len + std::uint64_t(std::abs(p_.stride)) - 1) /
                      std::uint64_t(std::abs(p_.stride)));
  PageId page;
  if (p_.stride > 0) {
    page = p_.region.start + offset_ * PageId(p_.stride);
  } else {
    page = p_.region.end() - 1 - offset_ * PageId(-p_.stride);
  }
  if (++offset_ >= steps) {
    offset_ = 0;
    ++pass_;
  }
  return Access{page, rng_.NextBool(p_.write_fraction), p_.compute_ns};
}

// --- ZipfStream ---

ZipfStream::ZipfStream(Params p)
    : p_(p), rng_(p.seed), zipf_(std::max<std::uint64_t>(p.region.len, 1),
                                 p.theta) {
  // Scatter popularity ranks across the region so the hot set is not one
  // contiguous run (defeats trivial readahead, like real hash layouts).
  perm_.resize(p_.region.len);
  for (PageId i = 0; i < p_.region.len; ++i) perm_[i] = p_.region.start + i;
  Rng perm_rng(p.seed ^ 0xABCD1234u);
  Shuffle(perm_, perm_rng);
}

std::optional<Access> ZipfStream::Next() {
  if (done_ >= p_.accesses || p_.region.len == 0) return std::nullopt;
  ++done_;
  std::uint64_t rank = zipf_.Next(rng_);
  assert(rank < perm_.size());  // zipf_ spans the whole (non-empty) region
  return Access{perm_[rank], rng_.NextBool(p_.write_fraction), p_.compute_ns};
}

// --- UniformStream ---

UniformStream::UniformStream(Params p) : p_(p), rng_(p.seed) {}

std::optional<Access> UniformStream::Next() {
  if (done_ >= p_.accesses || p_.region.len == 0) return std::nullopt;
  ++done_;
  PageId page = p_.region.start + rng_.NextBounded(p_.region.len);
  return Access{page, rng_.NextBool(p_.write_fraction), p_.compute_ns};
}

// --- HeapGraph ---

HeapGraph::HeapGraph(Region region, std::uint32_t out_degree,
                     std::uint64_t seed, runtime::RuntimeInfo* info)
    : region_(region), degree_(std::max(out_degree, 1u)) {
  Rng rng(seed);
  edges_.resize(std::size_t(region.len) * degree_);
  PageId* edge = edges_.data();
  for (PageId p = 0; p < region.len; ++p) {
    // Mild locality: half the references stay within a 256-page
    // neighbourhood (allocation locality), half go anywhere in the heap.
    // Each reference draws a fair coin, then its target. The coin is
    // rng.NextBool(0.5) computed exactly in integers (the draw is below
    // 2^63), and masks pick base and span, so it never steers a branch:
    // as a branch it mispredicted half the time.
    const PageId lo = p > 128 ? p - 128 : 0;
    const PageId near_span = std::min<PageId>(p + 128, region.len - 1) - lo + 1;
    for (std::uint32_t d = 0; d < degree_; ++d) {
      const PageId near_mask = PageId(0) - PageId(rng.Next() < (1ull << 63));
      const PageId base = lo & near_mask;
      const PageId span = region.len ^ ((region.len ^ near_span) & near_mask);
      *edge++ = region.start + base + rng.NextBounded(span);
    }
  }
  if (info)
    info->RecordPageEdges(region.start, region.len, degree_, edges_.data());
}

PageId HeapGraph::Step(PageId page, Rng& rng) const {
  assert(page >= region_.start && page < region_.end());
  std::size_t base = std::size_t(page - region_.start) * degree_;
  return edges_[base + rng.NextBounded(degree_)];
}

const PageId* HeapGraph::Neighbors(PageId page) const {
  assert(page >= region_.start && page < region_.end());
  return &edges_[std::size_t(page - region_.start) * degree_];
}

// --- PointerChaseStream ---

PointerChaseStream::PointerChaseStream(Params p)
    : p_(p), rng_(p.seed),
      current_(p.graph->region().start +
               Rng(p.seed ^ 0x5555).NextBounded(p.graph->region().len)) {}

std::optional<Access> PointerChaseStream::Next() {
  if (done_ >= p_.accesses) return std::nullopt;
  ++done_;
  Access acc{current_, rng_.NextBool(p_.write_fraction), p_.compute_ns};
  if (rng_.NextBool(p_.restart_prob)) {
    current_ = p_.graph->region().start +
               rng_.NextBounded(p_.graph->region().len);
    stack_.clear();
    return acc;
  }
  if (p_.random_walk) {
    current_ = p_.graph->Step(current_, rng_);
    return acc;
  }
  // DFS edge iteration: visit every out-reference of the current page in
  // order, like an analytics kernel walking adjacency lists.
  const PageId* nbrs = p_.graph->Neighbors(current_);
  for (std::uint32_t d = p_.graph->degree(); d-- > 0;)
    stack_.push_back(nbrs[d]);
  if (stack_.size() > 64) stack_.erase(stack_.begin(), stack_.end() - 32);
  current_ = stack_.back();
  stack_.pop_back();
  return acc;
}

// --- GcStream ---

GcStream::GcStream(Params p)
    : p_(p), rng_(p.seed), current_(p.graph->region().start) {}

std::optional<Access> GcStream::Next() {
  for (;;) {
    if (cycle_ >= p_.cycles) return std::nullopt;
    std::uint64_t cycle_len =
        p_.trace_accesses_per_cycle + p_.idle_accesses_per_cycle;
    if (in_cycle_ >= cycle_len) {
      in_cycle_ = 0;
      ++cycle_;
      continue;
    }
    std::uint64_t i = in_cycle_++;
    if (i < p_.trace_accesses_per_cycle) {
      // Tracing: pointer-order heap walk; marks are writes.
      Access acc{current_, true, p_.trace_compute_ns};
      current_ = rng_.NextBool(0.05)
                     ? p_.graph->region().start +
                           rng_.NextBounded(p_.graph->region().len)
                     : p_.graph->Step(current_, rng_);
      return acc;
    }
    // Idle: touch only the metadata region.
    PageId page = p_.metadata.len
                      ? p_.metadata.start + rng_.NextBounded(p_.metadata.len)
                      : p_.graph->region().start;
    return Access{page, false, p_.idle_compute_ns};
  }
}

// --- PhasedStream / MixStream ---

std::optional<Access> PhasedStream::Next() {
  while (idx_ < phases_.size()) {
    if (auto acc = phases_[idx_]->Next()) return acc;
    ++idx_;
  }
  return std::nullopt;
}

std::optional<Access> MixStream::Next() {
  bool first = rng_.NextBool(p_);
  if (first) {
    if (auto acc = a_->Next()) return acc;
    return b_->Next();
  }
  if (auto acc = b_->Next()) return acc;
  return a_->Next();
}

}  // namespace canvas::workload
