// Log-bucketed latency histogram (HdrHistogram-style, DESIGN.md §9).
//
// Values are binned into 32 sub-buckets per power of two, giving a fixed
// <= 1/32 (~3.1%) relative quantization error across the full uint64 range.
// Counts live in a flat array that holds only the prefix up to the highest
// bucket used (nanosecond latencies up to 1ms need 510 of the 1920 buckets),
// so an idle or small histogram costs a fraction of the full range. O(1) Add
// (allocating only when a new highest bucket is reached), O(buckets)
// percentile queries, and exact deterministic Merge (used to aggregate
// per-cgroup fault-latency distributions into report sections).
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

namespace canvas::trace {

class LogHistogram {
 public:
  static constexpr std::uint32_t kSubBits = 5;
  static constexpr std::uint32_t kSubCount = 1u << kSubBits;  // 32
  /// Values below 2*kSubCount get exact unit-width buckets; above, each
  /// power of two splits into kSubCount sub-buckets. Max index for any
  /// uint64 value is 1919.
  static constexpr std::uint32_t kNumBuckets = 1920;

  /// Bucket index for a value (total order preserving).
  static std::uint32_t BucketIndex(std::uint64_t v) {
    if (v < 2 * kSubCount) return std::uint32_t(v);
    std::uint32_t exp = std::uint32_t(std::bit_width(v)) - 1 - kSubBits;
    return (exp + 1) * kSubCount + std::uint32_t(v >> exp) - kSubCount;
  }

  /// Smallest value mapping to bucket `i`.
  static std::uint64_t BucketLow(std::uint32_t i) {
    if (i < 2 * kSubCount) return i;
    std::uint32_t level = i / kSubCount - 1;
    return std::uint64_t(kSubCount + i % kSubCount) << level;
  }

  void Add(std::uint64_t v) {
    std::uint32_t b = BucketIndex(v);
    if (b >= counts_.size()) counts_.resize(b + 1);
    ++counts_[b];
    ++count_;
    sum_ += v;
    if (v > max_) max_ = v;
    if (count_ == 1 || v < min_) min_ = v;
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t max() const { return max_; }
  std::uint64_t min() const { return count_ ? min_ : 0; }
  double Mean() const { return count_ ? double(sum_) / double(count_) : 0.0; }

  /// p in [0, 100]. Returns the upper edge of the bucket holding the
  /// rank-p sample (clamped to the recorded max), 0 when empty. The result
  /// is therefore within one sub-bucket (<= ~3.1% relative) of the exact
  /// order statistic, and bit-identical across runs and merges.
  std::uint64_t Percentile(double p) const;

  /// Exact: merged histogram == histogram of the concatenated samples.
  void Merge(const LogHistogram& other);

  /// Forget every recorded sample (windowed consumers that keep the
  /// histogram itself as the window).
  void Reset() { *this = LogHistogram{}; }

  /// Interval view: the samples added to *this since `start` was copied
  /// from it. `start` MUST be an earlier snapshot of the same histogram
  /// (every bucket count <= the current one). Bucket counts, count and sum
  /// are exact differences; min/max cannot be recovered from two cumulative
  /// snapshots, so they are reconstructed from the occupied bucket edges —
  /// still within the <= 1/32 relative quantization bound, so interval
  /// Percentile() keeps the same error contract as the cumulative one.
  /// This is the primitive behind windowed SLO percentiles (DESIGN.md §13):
  /// pre-window samples can never contaminate the interval distribution.
  LogHistogram Since(const LogHistogram& start) const;

  /// Count in bucket `i` (any i < kNumBuckets; 0 past the stored prefix).
  std::uint64_t BucketCount(std::uint32_t i) const {
    return i < counts_.size() ? counts_[i] : 0;
  }

 private:
  /// Buckets 0..highest bucket added; every later bucket is zero.
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
  std::uint64_t min_ = 0;
};

}  // namespace canvas::trace
