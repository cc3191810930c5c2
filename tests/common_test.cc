// Unit tests for src/common: RNG, statistics, table printing, formatting.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/types.h"

namespace canvas {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.Next() == b.Next()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, BoundedStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(r.NextBounded(17), 17u);
}

TEST(Rng, RangeInclusive) {
  Rng r(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.NextInRange(3, 5));
  EXPECT_EQ(seen, (std::set<std::uint64_t>{3, 4, 5}));
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(9);
  for (int i = 0; i < 10000; ++i) {
    double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliFrequencyRoughlyMatches) {
  Rng r(11);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += r.NextBool(0.3);
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(5);
  Rng child = a.Fork();
  // The child stream should not reproduce the parent's next values.
  Rng b(5);
  b.Next();  // advance like parent
  EXPECT_NE(child.Next(), b.Next());
}

TEST(Zipfian, ValuesWithinDomain) {
  Rng r(3);
  ZipfianGenerator z(100, 0.99);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(z.Next(r), 100u);
}

TEST(Zipfian, SkewPrefersLowRanks) {
  Rng r(3);
  ZipfianGenerator z(1000, 0.99);
  std::uint64_t head = 0, total = 100000;
  for (std::uint64_t i = 0; i < total; ++i)
    if (z.Next(r) < 100) ++head;  // top 10% of ranks
  // Zipf(0.99): top 10% of keys draw well over half the accesses.
  EXPECT_GT(double(head) / double(total), 0.5);
}

TEST(Zipfian, ThetaZeroIsNearUniform) {
  Rng r(3);
  ZipfianGenerator z(10, 0.01);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) ++counts[z.Next(r)];
  for (int c : counts) EXPECT_NEAR(c / 100000.0, 0.1, 0.05);
}

// The direct sum the memo stands in for.
double DirectZeta(std::uint64_t n, double theta) {
  double sum = 0;
  for (std::uint64_t i = 1; i <= n; ++i) sum += 1.0 / std::pow(double(i), theta);
  return sum;
}

TEST(Zeta, MemoisedSumIsTheDirectSumBitForBit) {
  // Keys no other test uses, so the first call computes and the second hits.
  const std::pair<std::uint64_t, double> keys[] = {
      {1, 0.99}, {2, 0.99}, {7777, 0.99}, {7777, 0.5}, {7778, 0.5},
      {4096, 1e-9}, {12345, 1.5}};
  for (auto [n, theta] : keys) {
    auto direct = std::bit_cast<std::uint64_t>(DirectZeta(n, theta));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(Zeta(n, theta)), direct) << n;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(Zeta(n, theta)), direct) << n;
  }
  // A fresh thread starts with an empty memo and sums the same double.
  double other = 0;
  std::thread([&] { other = Zeta(7777, 0.99); }).join();
  EXPECT_EQ(std::bit_cast<std::uint64_t>(other),
            std::bit_cast<std::uint64_t>(DirectZeta(7777, 0.99)));
}

TEST(Zeta, ThetaKeyedByBitPattern) {
  // Two thetas one ulp apart are distinct keys.
  double theta = 0.9;
  double next = std::nextafter(theta, 1.0);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(Zeta(9000, theta)),
            std::bit_cast<std::uint64_t>(DirectZeta(9000, theta)));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(Zeta(9000, next)),
            std::bit_cast<std::uint64_t>(DirectZeta(9000, next)));
}

TEST(Zipfian, SameKeyDrawsIdenticallyAroundOtherKeys) {
  auto draws = [](const ZipfianGenerator& proto) {
    ZipfianGenerator z = proto;
    Rng r(21);
    std::vector<std::uint64_t> out;
    for (int i = 0; i < 2000; ++i) out.push_back(z.Next(r));
    return out;
  };
  ZipfianGenerator first(5555, 0.99);
  ZipfianGenerator other_n(5556, 0.99);
  ZipfianGenerator other_theta(5555, 0.8);
  ZipfianGenerator second(5555, 0.99);
  EXPECT_EQ(draws(first), draws(second));
  EXPECT_NE(draws(first), draws(other_n));
  EXPECT_NE(draws(first), draws(other_theta));
}

TEST(Shuffle, IsPermutation) {
  Rng r(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  Shuffle(v, r);
  auto copy = v;
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(copy, sorted);
}

TEST(StreamingStats, MeanAndStddev) {
  StreamingStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // sample stddev
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(StreamingStats, MergeMatchesCombined) {
  StreamingStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    a.Add(i);
    all.Add(i);
  }
  for (int i = 50; i < 120; ++i) {
    b.Add(i * 1.5);
    all.Add(i * 1.5);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
}

TEST(StreamingStats, MergeWithEmpty) {
  StreamingStats a, b;
  a.Add(3.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.Merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 3.0);
}

TEST(LatencyRecorder, PercentilesOnKnownData) {
  LatencyRecorder r;
  for (int i = 1; i <= 100; ++i) r.Add(i);
  EXPECT_NEAR(r.Percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(r.Percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(r.Percentile(50), 50.5, 1.0);
  EXPECT_NEAR(r.Percentile(99), 99.0, 1.1);
}

TEST(LatencyRecorder, EmptyIsZero) {
  LatencyRecorder r;
  EXPECT_EQ(r.Percentile(50), 0.0);
  EXPECT_EQ(r.Mean(), 0.0);
  EXPECT_EQ(r.FractionBelow(1.0), 0.0);
}

TEST(LatencyRecorder, FractionBelow) {
  LatencyRecorder r;
  for (int i = 1; i <= 10; ++i) r.Add(i);
  EXPECT_DOUBLE_EQ(r.FractionBelow(5.0), 0.5);
  EXPECT_DOUBLE_EQ(r.FractionBelow(0.5), 0.0);
  EXPECT_DOUBLE_EQ(r.FractionBelow(100.0), 1.0);
}

TEST(LatencyRecorder, CdfMonotonic) {
  LatencyRecorder r;
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) r.Add(double(rng.NextBounded(10000)));
  auto cdf = r.Cdf(50);
  ASSERT_EQ(cdf.size(), 50u);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].first, cdf[i - 1].first);
    EXPECT_GT(cdf[i].second, cdf[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

// Differential: LatencyRecorder keeps a value -> count multiset; the
// reference below is the full-sample recorder it replaced (every sample in a
// vector, sorted on query). Every answer must be the same double.
class FullSampleRecorder {
 public:
  void Add(double v) { samples_.push_back(v); sorted_ = false; }
  std::uint64_t count() const { return samples_.size(); }
  double Percentile(double p) const {
    if (samples_.empty()) return 0.0;
    EnsureSorted();
    double rank = p / 100.0 * double(samples_.size() - 1);
    auto lo = std::size_t(rank);
    auto hi = std::min(lo + 1, samples_.size() - 1);
    double frac = rank - double(lo);
    return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
  }
  double Mean() const {
    if (samples_.empty()) return 0.0;
    double s = 0;
    for (double v : samples_) s += v;
    return s / double(samples_.size());
  }
  double Max() const {
    if (samples_.empty()) return 0.0;
    EnsureSorted();
    return samples_.back();
  }
  double FractionBelow(double threshold) const {
    if (samples_.empty()) return 0.0;
    EnsureSorted();
    auto it = std::upper_bound(samples_.begin(), samples_.end(), threshold);
    return double(it - samples_.begin()) / double(samples_.size());
  }
  std::vector<std::pair<double, double>> Cdf(int points) const {
    std::vector<std::pair<double, double>> out;
    if (samples_.empty() || points <= 0) return out;
    EnsureSorted();
    for (int i = 1; i <= points; ++i) {
      double frac = double(i) / double(points);
      auto idx = std::size_t(frac * double(samples_.size() - 1));
      out.emplace_back(samples_[idx], frac);
    }
    return out;
  }
  /// Distinct sample values, ascending.
  std::vector<double> Distinct() const {
    EnsureSorted();
    std::vector<double> d(samples_);
    d.erase(std::unique(d.begin(), d.end()), d.end());
    return d;
  }

 private:
  void EnsureSorted() const {
    if (!sorted_) {
      std::sort(samples_.begin(), samples_.end());
      sorted_ = true;
    }
  }
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

void ExpectSameAnswers(const LatencyRecorder& got,
                       const FullSampleRecorder& want) {
  ASSERT_EQ(got.count(), want.count());
  EXPECT_EQ(got.empty(), want.count() == 0);
  // Mean first: the reference sums in insertion order until a query sorts
  // it, and after that in sorted order — equal sums for integral samples.
  EXPECT_EQ(got.Mean(), want.Mean());
  for (double p : {0.0, 0.1, 1.0, 50.0, 99.0, 99.9, 100.0})
    EXPECT_EQ(got.Percentile(p), want.Percentile(p)) << "p" << p;
  EXPECT_EQ(got.Max(), want.Max());
  EXPECT_EQ(got.Cdf(100), want.Cdf(100));
  std::vector<double> distinct = want.Distinct();
  std::vector<double> thresholds;
  if (!distinct.empty()) {
    thresholds.push_back(distinct.front() - 1);
    thresholds.push_back(distinct.back() + 1);
  }
  for (std::size_t i = 0; i < distinct.size(); ++i) {
    thresholds.push_back(distinct[i]);
    if (i + 1 < distinct.size())
      thresholds.push_back((distinct[i] + distinct[i + 1]) / 2);
  }
  for (double t : thresholds)
    EXPECT_EQ(got.FractionBelow(t), want.FractionBelow(t)) << "t=" << t;
}

TEST(LatencyRecorderDiff, EmptyMatchesReference) {
  LatencyRecorder got;
  FullSampleRecorder want;
  ExpectSameAnswers(got, want);
  EXPECT_TRUE(got.Cdf(100).empty());
}

TEST(LatencyRecorderDiff, SingleSample) {
  LatencyRecorder got;
  FullSampleRecorder want;
  got.Add(4242);
  want.Add(4242);
  ExpectSameAnswers(got, want);
}

TEST(LatencyRecorderDiff, HeavyDuplicationMatchesReference) {
  // Latency-shaped: a few hundred distinct integral values repeated tens of
  // thousands of times, plus a sparse long tail.
  LatencyRecorder got;
  FullSampleRecorder want;
  Rng rng(17);
  for (int i = 0; i < 40'000; ++i) {
    double v = rng.NextBounded(100) < 98
                   ? double(3000 + 10 * rng.NextBounded(300))
                   : double(rng.NextBounded(5'000'000));
    got.Add(v);
    want.Add(v);
  }
  ExpectSameAnswers(got, want);
}

TEST(LatencyRecorderDiff, AddInterleavedWithQueries) {
  // Every query rebuilds the rank table lazily; adds between queries must
  // show up in the next answer.
  LatencyRecorder got;
  FullSampleRecorder want;
  Rng rng(23);
  for (int i = 1; i <= 1500; ++i) {
    double v = double(rng.NextBounded(i < 700 ? 40 : 4000));
    got.Add(v);
    want.Add(v);
    if (i % 97 == 0 || i < 5) ExpectSameAnswers(got, want);
  }
  ExpectSameAnswers(got, want);
}

TEST(LatencyRecorderDiff, NonIntegralSamplesBeforeAndAfterSorting) {
  LatencyRecorder got;
  FullSampleRecorder want;
  Rng rng(31);
  for (int i = 0; i < 3000; ++i) {
    double v = rng.NextDouble() * 1e3;
    got.Add(v);
    want.Add(v);
  }
  // Unsorted reference: both sum in insertion order, so Mean is exact for
  // any data.
  EXPECT_EQ(got.Mean(), want.Mean());
  for (double p : {0.0, 0.1, 1.0, 50.0, 99.0, 99.9, 100.0})
    EXPECT_EQ(got.Percentile(p), want.Percentile(p)) << "p" << p;
  EXPECT_EQ(got.Max(), want.Max());
  EXPECT_EQ(got.Cdf(100), want.Cdf(100));
  for (double t : {0.0, 1.5, 250.25, 999.0, 1e4})
    EXPECT_EQ(got.FractionBelow(t), want.FractionBelow(t)) << "t=" << t;
}

TEST(LatencyRecorderDiff, NegativeZeroIsRecordedAsZero) {
  LatencyRecorder got;
  FullSampleRecorder want;
  for (double v : {-0.0, 0.0, 5.0, -0.0, -3.0}) {
    got.Add(v);
    want.Add(v);
  }
  ExpectSameAnswers(got, want);
  EXPECT_FALSE(std::signbit(got.Percentile(25)));
  EXPECT_EQ(got.Percentile(25), 0.0);
  EXPECT_EQ(got.FractionBelow(-0.0), 0.8);
  // Only negative zeros: every answer is +0.0.
  LatencyRecorder neg;
  neg.Add(-0.0);
  neg.Add(-0.0);
  EXPECT_FALSE(std::signbit(neg.Max()));
  EXPECT_FALSE(std::signbit(neg.Percentile(50)));
  EXPECT_FALSE(std::signbit(neg.Mean()));
}

TEST(LatencyRecorderDiff, RejectsNaN) {
  LatencyRecorder r;
  r.Add(1.0);
  EXPECT_THROW(r.Add(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_EQ(r.count(), 1u);
  EXPECT_EQ(r.Mean(), 1.0);
  EXPECT_EQ(r.Max(), 1.0);
}

TEST(Histogram, BucketsAndClamping) {
  Histogram h(0, 100, 10);
  h.Add(5);    // bucket 0
  h.Add(95);   // bucket 9
  h.Add(-10);  // clamps to 0
  h.Add(500);  // clamps to 9
  EXPECT_EQ(h.BucketCount(0), 2u);
  EXPECT_EQ(h.BucketCount(9), 2u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.BucketLow(1), 10.0);
}

TEST(TimeSeries, BucketsAccumulate) {
  TimeSeries ts(100);  // 100ns buckets
  ts.Add(0, 5);
  ts.Add(50, 5);
  ts.Add(150, 3);
  EXPECT_EQ(ts.num_buckets(), 2u);
  EXPECT_DOUBLE_EQ(ts.Bucket(0), 10.0);
  EXPECT_DOUBLE_EQ(ts.Bucket(1), 3.0);
  EXPECT_DOUBLE_EQ(ts.Total(), 13.0);
}

TEST(TimeSeries, RateScalesToPerSecond) {
  TimeSeries ts(kMillisecond);
  ts.Add(0, 1000.0);  // 1000 bytes in 1ms -> 1MB/s
  EXPECT_DOUBLE_EQ(ts.Rate(0), 1e6);
  EXPECT_DOUBLE_EQ(ts.PeakRate(), 1e6);
}

TEST(TimeSeries, MeanRateOverExtent) {
  TimeSeries ts(kMillisecond);
  ts.Add(0, 100.0);
  ts.Add(3 * kMillisecond, 100.0);  // 4 buckets, 200 total
  EXPECT_DOUBLE_EQ(ts.MeanRate(), 200.0 * 1000.0 / 4.0);
}

TEST(Table, RendersAlignedColumns) {
  TablePrinter t({"name", "value"});
  t.AddRow({"a", "1"});
  t.AddRow({"long-name", "2"});
  std::string s = t.ToString();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("long-name"), std::string::npos);
  // Header, rule, two rows.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(TablePrinter::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Num(2.0, 0), "2");
}

TEST(Format, Time) {
  EXPECT_EQ(FormatTime(500), "500ns");
  EXPECT_EQ(FormatTime(1500), "1.500us");
  EXPECT_EQ(FormatTime(2 * kMillisecond), "2.000ms");
  EXPECT_EQ(FormatTime(3 * kSecond), "3.000s");
}

TEST(Format, Bytes) {
  EXPECT_EQ(FormatBytes(512), "512B");
  EXPECT_EQ(FormatBytes(2048), "2.05KB");
  EXPECT_EQ(FormatBytes(3.5e9), "3.50GB");
}

TEST(FlatMap64, InsertFindErase) {
  FlatMap64<int> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.Find(1), nullptr);
  m[1] = 10;
  m[2] = 20;
  m[0] = 5;  // key 0 is a legal key (only ~0 is reserved)
  EXPECT_EQ(m.size(), 3u);
  EXPECT_EQ(*m.Find(1), 10);
  EXPECT_EQ(*m.Find(0), 5);
  EXPECT_TRUE(m.Erase(1));
  EXPECT_FALSE(m.Erase(1));
  EXPECT_EQ(m.Find(1), nullptr);
  EXPECT_EQ(*m.Find(2), 20);
  EXPECT_EQ(m.size(), 2u);
}

TEST(FlatMap64, SurvivesGrowthAndChurn) {
  // Cross-check against unordered_map through a deterministic random
  // insert/erase churn: exercises rehash and backward-shift deletion.
  FlatMap64<std::uint64_t> m;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  Rng rng(42);
  for (int i = 0; i < 20000; ++i) {
    std::uint64_t key = rng.NextBounded(512);
    if (rng.NextBounded(3) == 0) {
      EXPECT_EQ(m.Erase(key), ref.erase(key) > 0);
    } else {
      m[key] = std::uint64_t(i);
      ref[key] = std::uint64_t(i);
    }
  }
  EXPECT_EQ(m.size(), ref.size());
  for (const auto& [k, v] : ref) {
    ASSERT_NE(m.Find(k), nullptr) << k;
    EXPECT_EQ(*m.Find(k), v) << k;
  }
  std::size_t visited = 0;
  m.ForEach([&](std::uint64_t k, std::uint64_t v) {
    ++visited;
    auto it = ref.find(k);
    ASSERT_NE(it, ref.end());
    EXPECT_EQ(it->second, v);
  });
  EXPECT_EQ(visited, ref.size());
}

TEST(FlatMap64, PackAppPageIsLossless) {
  EXPECT_EQ(PackAppPage(0, 0), 0ull);
  EXPECT_NE(PackAppPage(1, 0), PackAppPage(0, 1));
  EXPECT_EQ(PackAppPage(3, 12345) >> 48, 3ull);
  EXPECT_EQ(PackAppPage(3, 12345) & 0xFFFF'FFFF'FFFFull, 12345ull);
}

}  // namespace
}  // namespace canvas
