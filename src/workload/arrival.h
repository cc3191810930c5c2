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
// The stream's draws (arrival instant, page, write) depend only on its seed
// and the tenant's admission gate, never on the clock. So one fill function
// draws them ahead into fixed-size chunks: the first chunk inline at the
// first NextAt, the rest on a per-stream idle-priority helper thread that
// refills a small ring of chunks (or inline, by the simulation thread, when
// the helper has not got to a chunk or the process-wide helper cap is
// reached). NextAt keeps only what depends on the clock: pacing, lag,
// deferral counts. Every chunk comes from the same function in the same
// order, so the stream is the one an inline generator gives.
//
// LoadControl is a tenant's admission gate plus the offered/deferred/served
// counters the serving report aggregates. The streams update the counters on
// the DES clock, so every read and write is at a deterministic point in
// virtual time.
#pragma once

#include <array>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

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
/// serving report. Plain struct, no locking: the counters are written only
/// by NextAt on the run's simulation thread. A stream's helper thread reads
/// admit_time once, so set it before the run starts and leave it.
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

  /// Draws per chunk, and chunks in a stream's ring. The helper is woken
  /// when kRefillChunks of them are free and fills the ring up again.
  static constexpr std::size_t kChunkDraws = 1024;
  static constexpr std::size_t kRingChunks = 4;
  static constexpr std::size_t kRefillChunks = 2;
  /// Process-wide cap on live helper threads. A stream started over it
  /// fills its chunks inline with the same function.
  static constexpr unsigned kMaxHelpers = 64;

  explicit OpenLoopZipfStream(Params p);
  /// Stops and joins the helper, wherever it is.
  ~OpenLoopZipfStream() override;
  OpenLoopZipfStream(const OpenLoopZipfStream&) = delete;
  OpenLoopZipfStream& operator=(const OpenLoopZipfStream&) = delete;

  std::optional<Access> Next() override { return NextAt(last_now_); }
  std::optional<Access> NextAt(SimTime now) override;

  /// True while this stream owns a helper thread (from its first NextAt
  /// until destruction).
  bool has_helper() const { return helper_.joinable(); }
  /// Helper threads alive in the process.
  static unsigned LiveHelpers();
  /// Test seam: replace the helper cap (kMaxHelpers by default) and return
  /// the previous one. Affects streams started afterwards.
  static unsigned SetHelperCapForTest(unsigned cap);
  /// Test seam: chunks published so far (the helper's progress).
  std::uint64_t ChunksFilledForTest();

 private:
  /// One pre-drawn arrival. `t` is after admission deferral; `page` is
  /// unset for kDropped and kEnd.
  struct Draw {
    SimTime t = 0;
    PageId page = 0;
    std::uint8_t flags = 0;
  };
  enum : std::uint8_t {
    kWrite = 1,     ///< the access is a write
    kDeferred = 2,  ///< arrived before admit_time and was pushed to it
    kDropped = 4,   ///< deferred to or past the horizon: no access
    kEnd = 8,       ///< the first arrival at or past the horizon
  };

  /// The one generator: draws the next chunk into ring slot `slot` and
  /// returns true if it wrote kEnd. Whoever claimed the chunk runs it, so it
  /// never runs on two threads at once.
  bool Fill(std::size_t slot);
  /// First NextAt: read admit_time, fill chunk 0 inline, then start the
  /// helper if the stream goes on and the cap allows.
  void Start();
  void HelperLoop();
  /// Under mu_: the helper may claim the next chunk (no fill in progress,
  /// the stream goes on, and at least `free` chunks are free).
  bool CanClaim(std::size_t free) const {
    return !ended_ && claimed_ == filled_ &&
           claimed_ - released_ <= kRingChunks - free;
  }
  /// The next draw, moving to the next chunk when this one is used up.
  const Draw& NextDraw();

  Params p_;

  // Generator state: touched only by Fill.
  ArrivalProcess arrivals_;
  Rng rng_;
  ZipfianGenerator zipf_;
  std::vector<PageId> perm_;  // decorrelate rank from page position
  SimTime admit_time_ = 0;

  // Chunk ring (kRingChunks * kChunkDraws). Chunk n lives in slot
  // n % kRingChunks; the counters below are guarded by mu_. The consumer
  // fills a chunk itself when it needs one that nobody is filling.
  std::vector<Draw> ring_;
  std::mutex mu_;
  std::condition_variable ready_;  // the consumer waits for a fill to land
  std::condition_variable space_;  // the helper waits for free chunks
  std::uint64_t claimed_ = 0;      // chunks a filler has started
  std::uint64_t filled_ = 0;       // chunks published
  std::uint64_t released_ = 0;     // chunks the consumer is done with
  bool ended_ = false;             // a published chunk holds kEnd
  bool stop_ = false;
  std::thread helper_;

  // Consumer state (the simulation thread).
  bool started_ = false;
  bool done_ = false;
  std::uint64_t chunk_ = 0;  // chunk being read
  std::size_t pos_ = 0;      // next draw within it
  SimTime last_now_ = 0;
};

}  // namespace canvas::workload
