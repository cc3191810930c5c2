// Tests for the tracing & telemetry subsystem (DESIGN.md §9): ring buffer
// wrap/drop semantics, log-histogram bucket math and merge, sampler cadence
// on the DES clock, Chrome/Perfetto export well-formedness, and the
// determinism guarantee — reports are byte-identical with tracing on or off.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>
#include <sstream>
#include <string>

#include "common/rng.h"
#include "core/experiment.h"
#include "core/report.h"
#include "trace/export.h"
#include "trace/histogram.h"
#include "trace/trace.h"
#include "workload/apps.h"

namespace canvas {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON syntax checker (recursive descent). Much stricter than brace
// counting: validates strings, numbers, literals, and comma/colon structure.
// ---------------------------------------------------------------------------
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}
  bool Valid() {
    Skip();
    if (!Value()) return false;
    Skip();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }
  bool Object() {
    ++pos_;  // '{'
    Skip();
    if (Peek() == '}') { ++pos_; return true; }
    for (;;) {
      Skip();
      if (!String()) return false;
      Skip();
      if (Peek() != ':') return false;
      ++pos_;
      Skip();
      if (!Value()) return false;
      Skip();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool Array() {
    ++pos_;  // '['
    Skip();
    if (Peek() == ']') { ++pos_; return true; }
    for (;;) {
      Skip();
      if (!Value()) return false;
      Skip();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;  // skip escaped char
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool Number() {
    std::size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }
  bool Literal(const char* lit) {
    std::size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void Skip() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// TraceBuffer ring semantics
// ---------------------------------------------------------------------------

trace::TraceRecord Rec(SimTime ts, std::uint64_t arg) {
  trace::TraceRecord r;
  r.ts = ts;
  r.arg = arg;
  r.type = trace::RecordType::kInstant;
  return r;
}

TEST(TraceBuffer, FillsThenWrapsOverwritingOldest) {
  trace::TraceBuffer buf(4);
  for (std::uint64_t i = 0; i < 4; ++i) buf.Push(Rec(SimTime(i), i));
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf.dropped(), 0u);
  EXPECT_EQ(buf.At(0).arg, 0u);

  // Two more: the two oldest records are overwritten and counted dropped.
  buf.Push(Rec(4, 4));
  buf.Push(Rec(5, 5));
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf.dropped(), 2u);
  EXPECT_EQ(buf.At(0).arg, 2u);  // oldest retained
  EXPECT_EQ(buf.At(3).arg, 5u);  // newest
}

TEST(TraceBuffer, ZeroCapacityDropsEverything) {
  trace::TraceBuffer buf(0);
  for (int i = 0; i < 10; ++i) buf.Push(Rec(SimTime(i), std::uint64_t(i)));
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.dropped(), 10u);
}

TEST(TraceBuffer, ClearResetsState) {
  trace::TraceBuffer buf(2);
  buf.Push(Rec(0, 0));
  buf.Push(Rec(1, 1));
  buf.Push(Rec(2, 2));
  buf.Clear();
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.dropped(), 0u);
}

TEST(Tracer, DisabledRecordsNothingAndTogglesAtRuntime) {
  trace::TraceConfig cfg;
  cfg.enabled = false;
  cfg.ring_capacity = 16;
  trace::Tracer t(cfg);
  t.Instant(0, 0, trace::Name::kWake, 1);
  EXPECT_EQ(t.buffer().size(), 0u);
  EXPECT_EQ(t.buffer().dropped(), 0u);  // disabled != dropped

  t.set_enabled(true);  // first enable allocates the ring
  t.Instant(0, 0, trace::Name::kWake, 2);
  t.Span(0, 1, trace::Name::kFault, 10, 30, 7);
  t.Counter(0, 0, trace::Name::kRssPages, 40, 3.5);
  EXPECT_EQ(t.buffer().size(), 3u);
  EXPECT_EQ(t.buffer().At(1).dur, 20);
  EXPECT_DOUBLE_EQ(t.buffer().At(2).CounterValue(), 3.5);

  t.set_enabled(false);
  t.Instant(0, 0, trace::Name::kWake, 3);
  EXPECT_EQ(t.buffer().size(), 3u);
}

// ---------------------------------------------------------------------------
// LogHistogram bucket math and merge
// ---------------------------------------------------------------------------

TEST(LogHistogram, SmallValuesGetExactUnitBuckets) {
  for (std::uint64_t v = 0; v < 64; ++v) {
    EXPECT_EQ(trace::LogHistogram::BucketIndex(v), v);
    EXPECT_EQ(trace::LogHistogram::BucketLow(std::uint32_t(v)), v);
  }
}

TEST(LogHistogram, BucketEdgesAreMonotoneAndTight) {
  // BucketLow is strictly increasing and BucketIndex(BucketLow(i)) == i.
  std::uint64_t prev = 0;
  for (std::uint32_t i = 0; i < trace::LogHistogram::kNumBuckets; ++i) {
    std::uint64_t low = trace::LogHistogram::BucketLow(i);
    if (i > 0) {
      EXPECT_GT(low, prev) << "bucket " << i;
    }
    EXPECT_EQ(trace::LogHistogram::BucketIndex(low), i);
    prev = low;
  }
  // Relative quantization error bound: bucket width <= low / 32 above the
  // unit-bucket region.
  for (std::uint32_t i = 64; i + 1 < trace::LogHistogram::kNumBuckets; ++i) {
    std::uint64_t low = trace::LogHistogram::BucketLow(i);
    std::uint64_t width = trace::LogHistogram::BucketLow(i + 1) - low;
    EXPECT_LE(width, low / 32) << "bucket " << i;
  }
}

TEST(LogHistogram, PercentileWithinQuantizationError) {
  trace::LogHistogram h;
  for (std::uint64_t v = 1; v <= 10'000; ++v) h.Add(v);
  EXPECT_EQ(h.count(), 10'000u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 10'000u);
  for (double p : {10.0, 50.0, 90.0, 99.0, 99.9}) {
    double exact = p / 100.0 * 10'000;
    double got = double(h.Percentile(p));
    EXPECT_GE(got, exact * (1 - 1.0 / 32) - 1) << "p" << p;
    EXPECT_LE(got, exact * (1 + 1.0 / 32) + 1) << "p" << p;
  }
  // Monotone in p and clamped to observed extremes.
  EXPECT_LE(h.Percentile(50), h.Percentile(99));
  EXPECT_EQ(h.Percentile(0), 1u);
  EXPECT_EQ(h.Percentile(100), 10'000u);
}

TEST(LogHistogram, EmptyHistogramIsZero) {
  trace::LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(50), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
}

TEST(LogHistogram, MergeEqualsConcatenation) {
  trace::LogHistogram a, b, both;
  for (std::uint64_t v = 1; v <= 1000; v += 3) { a.Add(v); both.Add(v); }
  for (std::uint64_t v = 500; v <= 90'000; v += 7) { b.Add(v); both.Add(v); }
  a.Merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_EQ(a.min(), both.min());
  EXPECT_EQ(a.max(), both.max());
  EXPECT_DOUBLE_EQ(a.Mean(), both.Mean());
  for (double p : {1.0, 25.0, 50.0, 75.0, 99.0, 99.9})
    EXPECT_EQ(a.Percentile(p), both.Percentile(p)) << "p" << p;
  for (std::uint32_t i = 0; i < trace::LogHistogram::kNumBuckets; ++i) {
    ASSERT_EQ(a.BucketCount(i), both.BucketCount(i)) << "bucket " << i;
  }
}

// Regression (ISSUE 7 satellite): windowed percentile snapshots must not be
// contaminated by pre-window samples. Before Since()/Reset() existed, only
// cumulative percentiles were available, so a warm-up spike leaked into
// every later "window" forever.
TEST(LogHistogram, SinceExcludesPreWindowSamples) {
  trace::LogHistogram h;
  // Pre-window: a pathological warm-up spike at ~100ms.
  for (int i = 0; i < 1000; ++i) h.Add(100'000'000 + i);
  trace::LogHistogram snap = h;  // window starts here
  // In-window: healthy 1-2us latencies.
  for (int i = 0; i < 500; ++i) h.Add(1000 + (i % 1000));
  trace::LogHistogram win = h.Since(snap);
  EXPECT_EQ(win.count(), 500u);
  // Cumulative p99 is dominated by the spike; the window must not be.
  EXPECT_GT(h.Percentile(99), 50'000'000u);
  EXPECT_LT(win.Percentile(99), 10'000u);
  EXPECT_GE(win.min(), 512u);   // bucket lower edge of the smallest sample
  EXPECT_LE(win.min(), 1000u);
  EXPECT_LT(win.max(), 10'000u);
  // Mean is exact (count/sum are exact diffs): samples are 1000..1499.
  EXPECT_DOUBLE_EQ(win.Mean(), 1249.5);
}

TEST(LogHistogram, SinceMatchesFreshHistogramBucketForBucket) {
  trace::LogHistogram cum, fresh;
  Rng rng(99);
  for (int i = 0; i < 2000; ++i) cum.Add(rng.NextBounded(1u << 30));
  trace::LogHistogram snap = cum;
  for (int i = 0; i < 2000; ++i) {
    std::uint64_t v = rng.NextBounded(1u << 30);
    cum.Add(v);
    fresh.Add(v);
  }
  trace::LogHistogram win = cum.Since(snap);
  EXPECT_EQ(win.count(), fresh.count());
  for (std::uint32_t i = 0; i < trace::LogHistogram::kNumBuckets; ++i)
    ASSERT_EQ(win.BucketCount(i), fresh.BucketCount(i)) << "bucket " << i;
  // Percentiles land in the same bucket; only the clamp against the
  // reconstructed (bucket-edge) extremes can differ, so any gap stays
  // within the bucket quantization bound.
  for (double p : {1.0, 50.0, 99.0, 99.9}) {
    EXPECT_EQ(trace::LogHistogram::BucketIndex(win.Percentile(p)),
              trace::LogHistogram::BucketIndex(fresh.Percentile(p)))
        << "p" << p;
    EXPECT_GE(win.Percentile(p), fresh.Percentile(p)) << "p" << p;
  }
  EXPECT_DOUBLE_EQ(win.Mean(), fresh.Mean());
}

TEST(LogHistogram, SinceEmptyWindowAndTopBucket) {
  trace::LogHistogram h;
  h.Add(42);
  trace::LogHistogram snap = h;
  trace::LogHistogram empty = h.Since(snap);
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_EQ(empty.Percentile(99), 0u);
  // Top bucket: upper edge would overflow; Since falls back to the
  // cumulative max as an upper bound.
  h.Add(~std::uint64_t(0) - 5);
  trace::LogHistogram win = h.Since(snap);
  EXPECT_EQ(win.count(), 1u);
  EXPECT_EQ(win.max(), ~std::uint64_t(0) - 5);
  EXPECT_GE(win.Percentile(99), win.min());
  EXPECT_LE(win.Percentile(99), win.max());
}

TEST(LogHistogram, ResetForgetsEverything) {
  trace::LogHistogram h;
  for (int i = 0; i < 100; ++i) h.Add(1'000'000);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(99), 0u);
  EXPECT_EQ(h.max(), 0u);
  h.Add(7);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.Percentile(99), 7u);
}

TEST(LogHistogram, HugeValuesDoNotOverflow) {
  trace::LogHistogram h;
  h.Add(~std::uint64_t(0));
  h.Add(std::uint64_t(1) << 63);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.max(), ~std::uint64_t(0));
  // Percentiles stay clamped into [min, max] even at the top bucket whose
  // upper edge would overflow uint64.
  EXPECT_GE(h.Percentile(99), h.min());
  EXPECT_LE(h.Percentile(99), h.max());
}

// Differential: LogHistogram stores only the bucket prefix it uses; the
// reference below is the fixed 1920-bucket array it replaced. Percentiles,
// windows, merges and every bucket count must match exactly.
class FixedArrayHistogram {
 public:
  using H = trace::LogHistogram;
  void Add(std::uint64_t v) {
    ++counts_[H::BucketIndex(v)];
    ++count_;
    sum_ += v;
    if (v > max_) max_ = v;
    if (count_ == 1 || v < min_) min_ = v;
  }
  std::uint64_t Percentile(double p) const {
    if (count_ == 0) return 0;
    p = std::clamp(p, 0.0, 100.0);
    std::uint64_t rank = std::max<std::uint64_t>(
        1, std::uint64_t(std::ceil(p / 100.0 * double(count_))));
    std::uint64_t cum = 0;
    for (std::uint32_t i = 0; i < H::kNumBuckets; ++i) {
      cum += counts_[i];
      if (cum >= rank) {
        std::uint64_t hi =
            i + 1 < H::kNumBuckets ? H::BucketLow(i + 1) - 1 : max_;
        return std::clamp(hi, min_, max_);
      }
    }
    return max_;
  }
  FixedArrayHistogram Since(const FixedArrayHistogram& start) const {
    FixedArrayHistogram out;
    std::uint32_t lo = H::kNumBuckets, hi = 0;
    for (std::uint32_t i = 0; i < H::kNumBuckets; ++i) {
      std::uint64_t d = counts_[i] - start.counts_[i];
      out.counts_[i] = d;
      if (d) {
        if (i < lo) lo = i;
        hi = i;
      }
    }
    out.count_ = count_ - start.count_;
    out.sum_ = sum_ - start.sum_;
    if (out.count_ == 0) return out;
    out.min_ = H::BucketLow(lo);
    out.max_ = hi + 1 < H::kNumBuckets ? H::BucketLow(hi + 1) - 1 : max_;
    return out;
  }
  void Merge(const FixedArrayHistogram& other) {
    if (other.count_ == 0) return;
    for (std::uint32_t i = 0; i < H::kNumBuckets; ++i)
      counts_[i] += other.counts_[i];
    if (count_ == 0 || other.min_ < min_) min_ = other.min_;
    max_ = std::max(max_, other.max_);
    count_ += other.count_;
    sum_ += other.sum_;
  }
  std::uint64_t BucketCount(std::uint32_t i) const { return counts_[i]; }
  std::uint64_t count() const { return count_; }
  std::uint64_t min() const { return count_ ? min_ : 0; }
  std::uint64_t max() const { return max_; }
  double Mean() const { return count_ ? double(sum_) / double(count_) : 0.0; }

 private:
  std::array<std::uint64_t, H::kNumBuckets> counts_{};
  std::uint64_t count_ = 0, sum_ = 0, max_ = 0, min_ = 0;
};

void ExpectSameHistogram(const trace::LogHistogram& got,
                         const FixedArrayHistogram& want) {
  ASSERT_EQ(got.count(), want.count());
  EXPECT_EQ(got.min(), want.min());
  EXPECT_EQ(got.max(), want.max());
  EXPECT_EQ(got.Mean(), want.Mean());
  for (double p : {0.0, 0.1, 1.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0})
    EXPECT_EQ(got.Percentile(p), want.Percentile(p)) << "p" << p;
  for (std::uint32_t i = 0; i < trace::LogHistogram::kNumBuckets; ++i)
    ASSERT_EQ(got.BucketCount(i), want.BucketCount(i)) << "bucket " << i;
}

/// Adds the same sample to both histograms.
struct HistogramPair {
  trace::LogHistogram got;
  FixedArrayHistogram want;
  void Add(std::uint64_t v) {
    got.Add(v);
    want.Add(v);
  }
};

std::uint64_t LogUniform(Rng& rng, std::uint32_t max_bits) {
  std::uint64_t v = std::uint64_t(1) << rng.NextBounded(max_bits);
  return v + rng.NextBounded(v);
}

TEST(LogHistogramDiff, EmptyMatchesReference) {
  HistogramPair h;
  ExpectSameHistogram(h.got, h.want);
  ExpectSameHistogram(h.got.Since(h.got), h.want.Since(h.want));
  HistogramPair other;
  h.got.Merge(other.got);
  h.want.Merge(other.want);
  ExpectSameHistogram(h.got, h.want);
}

TEST(LogHistogramDiff, RandomSamplesIncludingTopBucket) {
  HistogramPair h;
  Rng rng(5);
  for (int i = 0; i < 20'000; ++i) h.Add(LogUniform(rng, 40));
  ExpectSameHistogram(h.got, h.want);
  h.Add(~std::uint64_t(0));  // bucket 1919, the last one
  EXPECT_EQ(trace::LogHistogram::BucketIndex(~std::uint64_t(0)),
            trace::LogHistogram::kNumBuckets - 1);
  ExpectSameHistogram(h.got, h.want);
  EXPECT_EQ(h.got.Percentile(100), ~std::uint64_t(0));
}

TEST(LogHistogramDiff, BucketCountPastStoredPrefixIsZero) {
  HistogramPair h;
  for (std::uint64_t v = 0; v < 40; ++v) h.Add(v % 7);
  ExpectSameHistogram(h.got, h.want);  // walks all 1920 buckets
  EXPECT_EQ(h.got.BucketCount(7), 0u);
  EXPECT_EQ(h.got.BucketCount(trace::LogHistogram::kNumBuckets - 1), 0u);
}

TEST(LogHistogramDiff, SinceWithShorterStartSnapshot) {
  // The snapshot holds only small values, so its stored prefix is shorter
  // than the histogram's at the window edge.
  HistogramPair h;
  Rng rng(8);
  for (int i = 0; i < 3000; ++i) h.Add(rng.NextBounded(200));
  HistogramPair snap = h;
  for (int i = 0; i < 3000; ++i) h.Add(LogUniform(rng, 34));
  ExpectSameHistogram(h.got.Since(snap.got), h.want.Since(snap.want));
  // Windows that are empty, or hold only top-end samples.
  ExpectSameHistogram(h.got.Since(h.got), h.want.Since(h.want));
  HistogramPair edge = h;
  h.Add(~std::uint64_t(0) - 3);
  ExpectSameHistogram(h.got.Since(edge.got), h.want.Since(edge.want));
  // A window from an empty snapshot holds every sample.
  HistogramPair none;
  ExpectSameHistogram(h.got.Since(none.got), h.want.Since(none.want));
}

TEST(LogHistogramDiff, MergeInBothSizeOrders) {
  HistogramPair small, large;
  Rng rng(12);
  for (int i = 0; i < 2000; ++i) small.Add(rng.NextBounded(100));
  for (int i = 0; i < 2000; ++i) large.Add(LogUniform(rng, 48));
  HistogramPair small_into_large = large;
  small_into_large.got.Merge(small.got);
  small_into_large.want.Merge(small.want);
  ExpectSameHistogram(small_into_large.got, small_into_large.want);
  HistogramPair large_into_small = small;
  large_into_small.got.Merge(large.got);
  large_into_small.want.Merge(large.want);
  ExpectSameHistogram(large_into_small.got, large_into_small.want);
  // Merging into an empty histogram copies it.
  HistogramPair empty;
  empty.got.Merge(large.got);
  empty.want.Merge(large.want);
  ExpectSameHistogram(empty.got, empty.want);
}

// ---------------------------------------------------------------------------
// End-to-end: traced co-run, sampler cadence, export well-formedness
// ---------------------------------------------------------------------------

std::unique_ptr<core::Experiment> RunTraced(bool enabled) {
  workload::AppParams p;
  p.scale = 0.08;
  std::vector<core::AppSpec> apps;
  for (const char* n : {"memcached", "snappy"}) {
    auto w = workload::MakeByName(n, p);
    auto cg = workload::CgroupFor(w, 0.25, 4);
    apps.push_back(core::AppSpec{std::move(w), std::move(cg)});
  }
  auto cfg = core::SystemConfig::CanvasFull();
  cfg.trace.enabled = enabled;
  auto e = std::make_unique<core::Experiment>(std::move(cfg),
                                              std::move(apps));
  EXPECT_TRUE(e->Run());
  return e;
}

TEST(TraceIntegration, RecordsFaultLifecycleSpans) {
  auto e = RunTraced(true);
  const trace::TraceBuffer& buf = e->system().tracer().buffer();
  ASSERT_GT(buf.size(), 0u);
  std::uint64_t faults = 0, wire = 0, dma = 0, counters = 0;
  buf.ForEach([&](const trace::TraceRecord& r) {
    if (r.name == trace::Name::kFault) ++faults;
    if (r.name == trace::Name::kWire) ++wire;
    if (r.name == trace::Name::kRdmaDma) ++dma;
    if (r.type == trace::RecordType::kCounter) ++counters;
  });
  EXPECT_GT(faults, 0u);
  EXPECT_GT(wire, 0u);
  EXPECT_GT(dma, 0u);
  EXPECT_GT(counters, 0u);
}

TEST(TraceIntegration, SamplerFiresOnTheConfiguredPeriod) {
  auto e = RunTraced(true);
  const auto& sys = e->system();
  SimDuration period = trace::kSamplePeriod;
  // Consecutive RSS samples for app 0 must be exactly one period apart.
  std::vector<SimTime> stamps;
  sys.tracer().buffer().ForEach([&](const trace::TraceRecord& r) {
    if (r.type == trace::RecordType::kCounter &&
        r.name == trace::Name::kRssPages && r.pid == 0)
      stamps.push_back(r.ts);
  });
  ASSERT_GE(stamps.size(), 3u);
  for (std::size_t i = 1; i < stamps.size(); ++i)
    EXPECT_EQ(stamps[i] - stamps[i - 1], period) << "sample " << i;
  // First sample lands one period after t=0.
  EXPECT_EQ(stamps.front(), period);
}

TEST(TraceIntegration, ChromeTraceJsonIsWellFormed) {
  auto e = RunTraced(true);
  std::ostringstream os;
  trace::WriteChromeTrace(os, e->system().tracer(), e->system().AppNames());
  std::string s = os.str();
  EXPECT_TRUE(JsonChecker(s).Valid()) << s.substr(0, 400);
  // Track metadata names the app processes and the fabric.
  EXPECT_NE(s.find("\"memcached\""), std::string::npos);
  EXPECT_NE(s.find("\"rdma-fabric\""), std::string::npos);
  EXPECT_NE(s.find("\"process_name\""), std::string::npos);
  EXPECT_NE(s.find("\"ph\": \"X\""), std::string::npos);  // spans
  EXPECT_NE(s.find("\"ph\": \"C\""), std::string::npos);  // counters
}

TEST(TraceIntegration, SpansNestMonotonicallyPerTrack) {
  auto e = RunTraced(true);
  std::string err;
  EXPECT_TRUE(trace::ValidateSpanNesting(e->system().tracer().buffer(), &err))
      << err;
}

TEST(TraceIntegration, CounterCsvExports) {
  auto e = RunTraced(true);
  std::ostringstream os;
  trace::WriteCounterCsv(os, e->system().tracer(), e->system().AppNames());
  std::istringstream is(os.str());
  std::string line;
  std::getline(is, line);
  EXPECT_EQ(line, "ts_ns,track,counter,value");
  std::size_t rows = 0;
  while (std::getline(is, line)) {
    EXPECT_EQ(std::count(line.begin(), line.end(), ','), 3) << line;
    ++rows;
  }
  EXPECT_GT(rows, 0u);
}

TEST(TraceExport, NestingValidatorRejectsStraddlingSpans) {
  trace::TraceBuffer buf(8);
  auto span = [&](SimTime b, SimTime e) {
    trace::TraceRecord r;
    r.ts = b;
    r.dur = e - b;
    r.type = trace::RecordType::kSpan;
    r.name = trace::Name::kFault;
    buf.Push(r);
  };
  span(0, 100);
  span(10, 50);  // nested: fine
  std::string err;
  EXPECT_TRUE(trace::ValidateSpanNesting(buf, &err)) << err;
  span(60, 150);  // straddles the [0,100) parent
  EXPECT_FALSE(trace::ValidateSpanNesting(buf, &err));
  EXPECT_NE(err.find("straddles"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Determinism: tracing must never perturb the simulation
// ---------------------------------------------------------------------------

TEST(TraceDeterminism, ReportsByteIdenticalTracingOnAndOff) {
  auto off = RunTraced(false);
  auto on = RunTraced(true);

  std::ostringstream csv_off, csv_on, json_off, json_on;
  core::WriteCsv(csv_off, off->system(), "d");
  core::WriteCsv(csv_on, on->system(), "d");
  core::WriteJson(json_off, off->system(), "d");
  core::WriteJson(json_on, on->system(), "d");
  EXPECT_EQ(csv_off.str(), csv_on.str());
  EXPECT_EQ(json_off.str(), json_on.str());

  // Same simulated outcome instant for every app.
  for (std::size_t i = 0; i < off->system().app_count(); ++i)
    EXPECT_EQ(off->system().metrics(i).finish_time,
              on->system().metrics(i).finish_time);

  // And the traced run actually recorded something — the comparison above
  // is meaningless if tracing silently failed to engage.
  EXPECT_GT(on->system().tracer().buffer().size(), 0u);
  EXPECT_EQ(off->system().tracer().buffer().size(), 0u);
}

}  // namespace
}  // namespace canvas
