#include "trace/histogram.h"

#include <algorithm>
#include <cmath>

namespace canvas::trace {

std::uint64_t LogHistogram::Percentile(double p) const {
  if (count_ == 0) return 0;
  p = std::clamp(p, 0.0, 100.0);
  // Rank of the requested order statistic, 1-based ceil like HdrHistogram.
  std::uint64_t rank =
      std::max<std::uint64_t>(1, std::uint64_t(std::ceil(p / 100.0 *
                                                         double(count_))));
  std::uint64_t cum = 0;
  for (std::uint32_t i = 0; i < counts_.size(); ++i) {
    cum += counts_[i];
    if (cum >= rank) {
      // Upper edge of the bucket, clamped to the recorded extremes.
      std::uint64_t hi =
          i + 1 < kNumBuckets ? BucketLow(i + 1) - 1 : max_;
      return std::clamp(hi, min_, max_);
    }
  }
  return max_;
}

LogHistogram LogHistogram::Since(const LogHistogram& start) const {
  LogHistogram out;
  out.count_ = count_ - start.count_;
  out.sum_ = sum_ - start.sum_;
  if (out.count_ == 0) return out;
  // `start` is an earlier snapshot, so its stored prefix is no longer than
  // ours.
  out.counts_.resize(counts_.size());
  std::uint32_t lo = kNumBuckets, hi = 0;
  for (std::uint32_t i = 0; i < counts_.size(); ++i) {
    std::uint64_t d = counts_[i] - start.BucketCount(i);
    out.counts_[i] = d;
    if (d) {
      if (i < lo) lo = i;
      hi = i;
    }
  }
  out.counts_.resize(hi + 1);
  // The exact interval extremes are unrecoverable from two cumulative
  // snapshots; reconstruct them from the occupied bucket edges so every
  // interval sample still satisfies min_ <= v <= max_ within the bucket
  // quantization bound. The top bucket's upper edge would overflow uint64,
  // so fall back to the cumulative max there (an upper bound: the interval
  // max lives in the same bucket).
  out.min_ = BucketLow(lo);
  out.max_ = hi + 1 < kNumBuckets ? BucketLow(hi + 1) - 1 : max_;
  return out;
}

void LogHistogram::Merge(const LogHistogram& other) {
  if (other.count_ == 0) return;
  if (other.counts_.size() > counts_.size())
    counts_.resize(other.counts_.size());
  for (std::uint32_t i = 0; i < other.counts_.size(); ++i)
    counts_[i] += other.counts_[i];
  if (count_ == 0 || other.min_ < min_) min_ = other.min_;
  max_ = std::max(max_, other.max_);
  count_ += other.count_;
  sum_ += other.sum_;
}

}  // namespace canvas::trace
