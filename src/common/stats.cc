#include "common/stats.h"

#include <cmath>
#include <iterator>

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

void LatencyRecorder::EnsureRanks() const {
  if (!ranks_stale_) return;
  ranks_.clear();
  ranks_.reserve(counts_.size());
  counts_.ForEach([this](std::uint64_t bits, std::uint64_t n) {
    ranks_.emplace_back(std::bit_cast<double>(bits), n);
  });
  std::sort(ranks_.begin(), ranks_.end());
  std::uint64_t cum = 0;
  for (auto& [value, n] : ranks_) n = cum += n;
  ranks_stale_ = false;
}

double LatencyRecorder::At(std::uint64_t rank) const {
  auto it = std::upper_bound(
      ranks_.begin(), ranks_.end(), rank,
      [](std::uint64_t r, const auto& e) { return r < e.second; });
  return it->first;
}

double LatencyRecorder::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  EnsureRanks();
  double rank = p / 100.0 * double(count_ - 1);
  auto lo = std::uint64_t(rank);
  auto hi = std::min(lo + 1, count_ - 1);
  double frac = rank - double(lo);
  return At(lo) * (1.0 - frac) + At(hi) * frac;
}

double LatencyRecorder::Max() const {
  if (count_ == 0) return 0.0;
  EnsureRanks();
  return ranks_.back().first;
}

double LatencyRecorder::FractionBelow(double threshold) const {
  if (count_ == 0) return 0.0;
  EnsureRanks();
  auto it = std::upper_bound(
      ranks_.begin(), ranks_.end(), threshold,
      [](double t, const auto& e) { return t < e.first; });
  std::uint64_t below = it == ranks_.begin() ? 0 : std::prev(it)->second;
  return double(below) / double(count_);
}

std::vector<std::pair<double, double>> LatencyRecorder::Cdf(int points) const {
  std::vector<std::pair<double, double>> out;
  if (count_ == 0 || points <= 0) return out;
  EnsureRanks();
  out.reserve(std::size_t(points));
  for (int i = 1; i <= points; ++i) {
    double frac = double(i) / double(points);
    auto idx = std::uint64_t(frac * double(count_ - 1));
    out.emplace_back(At(idx), frac);
  }
  return out;
}

Histogram::Histogram(double lo, double hi, int buckets)
    : lo_(lo), hi_(hi), width_((hi - lo) / buckets),
      counts_(std::size_t(buckets), 0) {}

void Histogram::Add(double v) {
  int idx;
  if (v < lo_) {
    idx = 0;
  } else if (v >= hi_) {
    idx = int(counts_.size()) - 1;
  } else {
    idx = int((v - lo_) / width_);
  }
  ++counts_[std::size_t(idx)];
  ++total_;
}

void TimeSeries::Add(SimTime t, double amount) {
  auto idx = std::size_t(t / width_);
  if (idx >= buckets_.size()) buckets_.resize(idx + 1, 0.0);
  buckets_[idx] += amount;
}

double TimeSeries::Rate(std::size_t i) const {
  return Bucket(i) * double(kSecond) / double(width_);
}

double TimeSeries::Total() const {
  double s = 0;
  for (double b : buckets_) s += b;
  return s;
}

double TimeSeries::MeanRate() const {
  if (buckets_.empty()) return 0.0;
  return Total() * double(kSecond) / (double(width_) * double(buckets_.size()));
}

double TimeSeries::PeakRate() const {
  double peak = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i)
    peak = std::max(peak, Rate(i));
  return peak;
}

}  // namespace canvas
