// Streaming statistics utilities used across metrics collection:
//  - StreamingStats: count/mean/stddev/min/max in O(1) memory (Welford).
//  - LatencyRecorder: exact percentile queries and CDF export over a
//    multiset of sample values (memory per distinct value, not per sample).
//  - Histogram: fixed-bucket counting for distribution shape checks.
//  - TimeSeries: time-bucketed accumulation (bandwidth / throughput curves).
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "common/types.h"

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

/// Exact order statistics over every recorded sample, stored as a multiset:
/// one (value, count) entry per distinct value, so memory follows the number
/// of distinct latencies rather than the number of samples (the simulator's
/// latencies are integral nanoseconds, and repeat heavily). Queries return
/// exactly what sorting every sample would: each order statistic is found by
/// binary search over cumulative counts, rebuilt lazily after an Add.
/// -0.0 is recorded as +0.0; a NaN sample throws std::invalid_argument.
class LatencyRecorder {
 public:
  void Add(double v) {
    if (std::isnan(v)) throw std::invalid_argument("LatencyRecorder: NaN");
    if (v == 0.0) v = 0.0;  // one key for both zeros
    ++counts_[std::bit_cast<std::uint64_t>(v)];
    ++count_;
    sum_ += v;
    ranks_stale_ = true;
  }

  std::uint64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// p in [0, 100]. Returns 0 for an empty recorder.
  double Percentile(double p) const;
  /// Sum in insertion order over the count.
  double Mean() const { return count_ ? sum_ / double(count_) : 0.0; }
  double Max() const;

  /// Fraction of samples <= threshold.
  double FractionBelow(double threshold) const;

  /// Export a CDF as (value, cumulative fraction) pairs at the given number
  /// of evenly spaced quantiles.
  std::vector<std::pair<double, double>> Cdf(int points = 100) const;

 private:
  /// Value of the sample at 0-based `rank` in ascending order.
  double At(std::uint64_t rank) const;
  void EnsureRanks() const;

  FlatMap64<std::uint64_t> counts_;  ///< value bit pattern -> multiplicity
  std::uint64_t count_ = 0;
  double sum_ = 0;
  /// Distinct values ascending, each with the count of samples <= it.
  mutable std::vector<std::pair<double, std::uint64_t>> ranks_;
  mutable bool ranks_stale_ = false;
};

/// Fixed-width bucket histogram over [lo, hi); out-of-range values clamp to
/// the edge buckets.
class Histogram {
 public:
  Histogram(double lo, double hi, int buckets);

  void Add(double v);
  std::uint64_t BucketCount(int i) const { return counts_.at(std::size_t(i)); }
  int buckets() const { return int(counts_.size()); }
  double BucketLow(int i) const { return lo_ + width_ * i; }
  std::uint64_t total() const { return total_; }

 private:
  double lo_, hi_, width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// Accumulates a quantity (e.g. bytes transferred) into fixed time buckets so
/// benches can print bandwidth-over-time curves like the paper's Figures 4/5.
class TimeSeries {
 public:
  explicit TimeSeries(SimDuration bucket_width = 100 * kMillisecond)
      : width_(bucket_width) {}

  void Add(SimTime t, double amount);

  SimDuration bucket_width() const { return width_; }
  std::size_t num_buckets() const { return buckets_.size(); }
  double Bucket(std::size_t i) const {
    return i < buckets_.size() ? buckets_[i] : 0.0;
  }
  /// Per-second rate within bucket i.
  double Rate(std::size_t i) const;
  double Total() const;
  /// Mean per-second rate over the series' non-empty extent.
  double MeanRate() const;
  /// Maximum per-second bucket rate.
  double PeakRate() const;

 private:
  SimDuration width_;
  std::vector<double> buckets_;
};

}  // namespace canvas
