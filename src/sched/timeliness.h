// Per-cgroup timeliness tracking (§5.3).
//
// Timeliness of a prefetch = time between the prefetch being issued and the
// page being accessed by the application. The scheduler keeps a sliding
// window of observed timeliness samples per cgroup; a prefetch whose
// estimated arrival would exceed the distribution's upper quantile is
// useless (the page will have been wanted already) and is dropped. The same
// threshold serves as the blocked-thread rescue timeout.
//
// The threshold is read on every prefetch dequeue and every rescue check,
// far more often than a sample is recorded, so each window is kept twice:
// a ring in arrival order (which sample leaves next) and a sorted copy of
// the same multiset (which sample sits at the quantile). Record costs
// O(log w + w) for a w-sample window (two binary searches plus the vector
// shift of one erase and one insert); Threshold is one O(1) index.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace canvas::sched {

class TimelinessTracker {
 public:
  struct Config {
    /// Threshold before any samples exist.
    SimDuration initial_threshold = 2 * kMillisecond;
    /// Quantile of the timeliness distribution used as the budget.
    double quantile = 0.9;
    /// Clamp range for the threshold. The floor guards against the
    /// survivor bias of timeliness samples (only used pages record one):
    /// too low and healthy prefetches get dropped, shrinking the sample
    /// pool further.
    SimDuration floor = kMillisecond;
    SimDuration ceiling = 20 * kMillisecond;
    std::size_t window = 256;

    bool operator==(const Config&) const = default;
  };

  TimelinessTracker() : TimelinessTracker(Config{}) {}
  /// Throws std::invalid_argument unless window >= 1,
  /// 0 <= quantile <= 1 and floor <= ceiling.
  explicit TimelinessTracker(const Config& cfg);

  /// Record that a prefetched page was accessed `dt` after its prefetch was
  /// issued.
  void Record(CgroupId cg, SimDuration dt);

  /// Current budget: a prefetch older than this (estimated at arrival) is
  /// too late to be useful.
  SimDuration Threshold(CgroupId cg) const;

  std::uint64_t samples(CgroupId cg) const;

  /// Drop `cg`'s sample window (tenant retirement; ids are recycled, so a
  /// new tenant must not inherit the previous owner's distribution).
  void Forget(CgroupId cg) { states_.erase(cg); }

 private:
  struct State {
    std::vector<SimDuration> ring;    // arrival order
    std::vector<SimDuration> sorted;  // the ring's samples, ascending
    std::size_t next = 0;
    std::uint64_t count = 0;
  };

  Config cfg_;
  std::unordered_map<CgroupId, State> states_;
};

}  // namespace canvas::sched
