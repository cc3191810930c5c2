// StreamingStats: count/mean/stddev/min/max in O(1) memory (Welford).
// Latency distributions use trace::LogHistogram; totals are plain counters.
#pragma once

#include <algorithm>
#include <cstdint>

namespace canvas {

/// Welford online mean/variance plus min/max.
class StreamingStats {
 public:
  void Add(double x) {
    ++n_;
    double d = x - mean_;
    mean_ += d / double(n_);
    m2_ += d * (x - mean_);
    min_ = n_ == 1 ? x : std::min(min_, x);
    max_ = n_ == 1 ? x : std::max(max_, x);
  }

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const { return n_ > 1 ? m2_ / double(n_ - 1) : 0.0; }
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return mean_ * double(n_); }

  void Merge(const StreamingStats& other);

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0, m2_ = 0, min_ = 0, max_ = 0;
};

}  // namespace canvas
