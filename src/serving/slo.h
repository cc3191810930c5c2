// Per-tenant SLO targets and the windowed violation tracker (DESIGN.md §13).
//
// An SLO is a pair of fault-latency bounds — p99 and p99.9 — judged over
// control windows. Each window the tracker takes the interval view of the
// tenant's cumulative fault-latency histogram (LogHistogram::Since, so
// pre-window samples can never contaminate the verdict), compares the
// windowed percentiles against the bounds, and counts judged, skipped and
// violated windows. Windows with too few samples are skipped, not judged: a
// tenant that faulted twice has no meaningful p99.9.
#pragma once

#include <cstdint>

#include "common/types.h"
#include "trace/histogram.h"

namespace canvas::serving {

struct SloConfig {
  /// Windowed p99 fault-latency bound.
  SimDuration p99_ns = 2 * kMillisecond;
  /// Windowed p99.9 fault-latency bound.
  SimDuration p999_ns = 10 * kMillisecond;
  /// Minimum fault samples in a window for a verdict; smaller windows are
  /// recorded as "skipped".
  std::uint64_t min_window_samples = 32;
};

/// One tenant's live SLO state, advanced once per control tick.
class SloTracker {
 public:
  explicit SloTracker(SloConfig cfg = {}) : cfg_(cfg) {}

  /// Judge the window since the previous call against the bounds.
  /// `cumulative` is the tenant's always-on fault-latency histogram.
  /// Returns true if this window violated the SLO.
  bool Observe(const trace::LogHistogram& cumulative) {
    trace::LogHistogram window = cumulative.Since(last_);
    last_ = cumulative;
    if (window.count() < cfg_.min_window_samples) {
      ++windows_skipped_;
      return false;
    }
    ++windows_judged_;
    bool violated =
        window.Percentile(99.0) > std::uint64_t(cfg_.p99_ns) ||
        window.Percentile(99.9) > std::uint64_t(cfg_.p999_ns);
    if (violated) ++windows_violated_;
    return violated;
  }

  const SloConfig& config() const { return cfg_; }
  std::uint64_t windows_judged() const { return windows_judged_; }
  std::uint64_t windows_skipped() const { return windows_skipped_; }
  std::uint64_t windows_violated() const { return windows_violated_; }
  /// Fraction of judged windows that violated (0 when none judged).
  double ViolationRate() const {
    return windows_judged_
               ? double(windows_violated_) / double(windows_judged_)
               : 0.0;
  }

 private:
  SloConfig cfg_;
  trace::LogHistogram last_;  ///< snapshot at the previous window edge
  std::uint64_t windows_judged_ = 0;
  std::uint64_t windows_skipped_ = 0;
  std::uint64_t windows_violated_ = 0;
};

}  // namespace canvas::serving
