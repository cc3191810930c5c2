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
