// Per-tenant SLO targets and the windowed violation tracker (DESIGN.md §13).
//
// An SLO is a pair of fault-latency bounds — p99 and p99.9 — judged over
// control windows. Each window the tracker takes the interval view of the
// tenant's cumulative fault-latency histogram (LogHistogram::Since, so
// pre-window samples can never contaminate the verdict), compares the
// windowed percentiles against the bounds, and keeps the violation run
// length the QoS plane uses for escalation/heal decisions. Windows with too
// few samples are skipped, not judged: a tenant that faulted twice has no
// meaningful p99.9.
#pragma once

#include <algorithm>
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
  /// recorded as "skipped" and keep the previous violation run length.
  std::uint64_t min_window_samples = 32;
};

/// One tenant's live SLO state, advanced once per control tick.
class SloTracker {
 public:
  explicit SloTracker(SloConfig cfg = {}) : cfg_(cfg) {}

  /// Judge the window since the previous call against the bounds.
  /// `cumulative` is the tenant's always-on fault-latency histogram.
  /// `bound_scale` multiplies both bounds for this window only (the QoS
  /// plane's supply curve, supply_curve.h); at the default 1.0 the
  /// untouched integer bounds are compared, so pre-curve verdicts are
  /// reproduced exactly. Returns true if this window violated the SLO.
  bool Observe(const trace::LogHistogram& cumulative,
               double bound_scale = 1.0) {
    trace::LogHistogram window = cumulative.Since(last_);
    last_ = cumulative;
    if (window.count() < cfg_.min_window_samples) {
      ++windows_skipped_;
      return false;
    }
    ++windows_judged_;
    std::uint64_t p99_bound = std::uint64_t(cfg_.p99_ns);
    std::uint64_t p999_bound = std::uint64_t(cfg_.p999_ns);
    if (bound_scale != 1.0) {
      // Saturate: a supply-curve scale may be any positive value.
      p99_bound = std::uint64_t(std::min(p99_bound * bound_scale, 0x1p63));
      p999_bound = std::uint64_t(std::min(p999_bound * bound_scale, 0x1p63));
    }
    bool violated = window.Percentile(99.0) > p99_bound ||
                    window.Percentile(99.9) > p999_bound;
    if (violated) {
      ++windows_violated_;
      ++violation_run_;
      clean_run_ = 0;
    } else {
      violation_run_ = 0;
      ++clean_run_;
    }
    last_window_p99_ = window.Percentile(99.0);
    return violated;
  }

  const SloConfig& config() const { return cfg_; }
  std::uint64_t windows_judged() const { return windows_judged_; }
  std::uint64_t windows_skipped() const { return windows_skipped_; }
  std::uint64_t windows_violated() const { return windows_violated_; }
  /// Consecutive violated windows ending now (0 after a clean window).
  std::uint64_t violation_run() const { return violation_run_; }
  /// Consecutive clean *judged* windows ending now.
  std::uint64_t clean_run() const { return clean_run_; }
  std::uint64_t last_window_p99() const { return last_window_p99_; }
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
  std::uint64_t violation_run_ = 0;
  std::uint64_t clean_run_ = 0;
  std::uint64_t last_window_p99_ = 0;
};

}  // namespace canvas::serving
