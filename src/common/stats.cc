#include "common/stats.h"

#include <cmath>

namespace canvas {

double StreamingStats::stddev() const { return std::sqrt(variance()); }

void StreamingStats::Merge(const StreamingStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  double delta = other.mean_ - mean_;
  std::uint64_t total = n_ + other.n_;
  m2_ += other.m2_ +
         delta * delta * double(n_) * double(other.n_) / double(total);
  mean_ += delta * double(other.n_) / double(total);
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ = total;
}

}  // namespace canvas
