// Open-loop arrival processes and the serving request stream (DESIGN.md §13).
//
// Closed-loop streams (patterns.h) issue the next access as soon as the
// previous one retires, so a swap stall slows the *offered* load and hides
// tail latency (coordinated omission). Online serving is open-loop: requests
// arrive on an absolute schedule that does not care whether the server is
// stalled. ArrivalProcess generates that schedule — homogeneous Poisson,
// diurnal (sinusoidally modulated), or flash-crowd (a rate-multiplied burst
// window) — via Lewis–Shedler thinning of the peak-rate process, seeded and
// fully deterministic. OpenLoopZipfStream pairs the schedule with the
// existing Zipfian key-popularity model and paces itself against the DES
// clock through ThreadStream::NextAt; when the system falls behind it serves
// back-to-back and records the lag instead of silently stretching the
// schedule.
//
// LoadControl is a tenant's admission gate plus the offered/deferred/served
// counters the serving report aggregates. The streams update it on the DES
// clock, so every read and write is at a deterministic point in virtual
// time.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "common/rng.h"
#include "common/types.h"
#include "workload/patterns.h"
#include "workload/workload.h"

namespace canvas::workload {

enum class ArrivalKind : std::uint8_t {
  kPoisson,     ///< homogeneous rate
  kDiurnal,     ///< rate * (1 + amplitude * sin(2*pi*t / period))
  kFlashCrowd,  ///< rate, times `multiplier` inside the burst window
};

const char* ArrivalKindName(ArrivalKind kind);
std::optional<ArrivalKind> ArrivalKindFromName(const std::string& name);

struct ArrivalConfig {
  ArrivalKind kind = ArrivalKind::kPoisson;
  /// Mean request rate (requests per simulated second).
  double rate_rps = 50'000;
  // --- diurnal ---
  double diurnal_amplitude = 0.5;  ///< in [0, 1)
  SimDuration diurnal_period = 2 * kSecond;
  // --- flash crowd ---
  SimTime flash_start = 1 * kSecond;
  SimDuration flash_duration = 500 * kMillisecond;
  double flash_multiplier = 8.0;

  /// Instantaneous rate lambda(t), requests per second.
  double RateAt(SimTime t) const;
  /// Upper bound on RateAt over all t (thinning envelope).
  double PeakRate() const;
};

/// Deterministic non-homogeneous Poisson arrival generator (Lewis–Shedler
/// thinning): candidate arrivals are exponential gaps at the peak rate,
/// accepted with probability lambda(t)/peak. For the homogeneous case the
/// acceptance is always 1 and this degenerates to the textbook exponential
/// inter-arrival process.
class ArrivalProcess {
 public:
  ArrivalProcess(ArrivalConfig cfg, std::uint64_t seed);

  /// Consume and return the next arrival instant; strictly increasing.
  SimTime NextArrival();

  const ArrivalConfig& config() const { return cfg_; }

 private:
  ArrivalConfig cfg_;
  Rng rng_;
  double peak_;
  SimTime clock_ = 0;
};

/// Control block shared by a tenant's open-loop streams and read by the
/// serving report. Plain struct, no locking: one run is one thread.
struct LoadControl {
  /// Requests arriving before this instant are deferred to it.
  SimTime admit_time = 0;

  // --- counters (written by the streams) ---
  std::uint64_t offered = 0;   ///< arrivals generated inside the horizon
  /// Always zero; kept only for perfbench/, which reads it (ROADMAP item 9).
  std::uint64_t shed = 0;
  std::uint64_t deferred = 0;  ///< pushed to admit_time before serving
  std::uint64_t served = 0;    ///< accesses actually emitted
  /// Worst observed service lag: how far behind its arrival schedule the
  /// tenant fell (the open-loop queueing delay the closed-loop model hides).
  SimDuration max_lag = 0;
};

/// Open-loop Zipfian request stream: each request is one page access drawn
/// from the memcached-style Zipfian popularity model, issued at its
/// scheduled arrival instant (or as soon as possible after, recording the
/// lag). Finishes at the horizon.
class OpenLoopZipfStream : public ThreadStream {
 public:
  struct Params {
    Region region;
    /// Per-thread arrival schedule. Poisson superposition: give each of N
    /// threads the tenant rate divided by N.
    ArrivalConfig arrival;
    /// No arrivals at or beyond this instant; the stream then finishes.
    SimTime horizon = 2 * kSecond;
    double theta = 0.99;
    /// On-CPU service time per request.
    std::uint32_t service_ns = 300;
    double write_fraction = 0.1;
    std::uint64_t seed = 1;
    /// Optional admission gate + counters; shared across the tenant's
    /// threads.
    std::shared_ptr<LoadControl> control;
  };

  explicit OpenLoopZipfStream(Params p);
  std::optional<Access> Next() override { return NextAt(last_now_); }
  std::optional<Access> NextAt(SimTime now) override;

 private:
  Params p_;
  ArrivalProcess arrivals_;
  Rng rng_;
  ZipfianGenerator zipf_;
  std::vector<PageId> perm_;  // decorrelate rank from page position
  SimTime last_now_ = 0;
};

}  // namespace canvas::workload
