// FIFO lock in virtual time with a contention cost model.
//
// Kernel swap-entry allocation serializes on spinlocks protecting shared
// free-list metadata. Under contention the *effective* critical-section time
// grows beyond the uncontended hold time: waiters bounce the lock cacheline,
// and free-list scans lengthen as allocations from many cores fragment the
// list. SimMutex models this as
//
//     hold = base_hold * (1 + alpha * waiters_at_acquire)
//
// which reproduces the super-linear growth of per-entry allocation time with
// core count reported in the paper's Figures 13(b) and 16(b).
#pragma once

#include <cstdint>
#include <deque>

#include "common/types.h"
#include "sim/inline_callback.h"
#include "sim/simulator.h"
#include "sim/slot_pool.h"

namespace canvas::sim {

class SimMutex {
 public:
  /// Invoked when the critical section completes; receives the time spent
  /// waiting for the lock and the time spent holding it.
  using Done = InlineFunction<void(SimDuration wait, SimDuration hold)>;

  SimMutex(Simulator& sim, double contention_alpha = 0.15,
           double max_contention_factor = 3.0)
      : sim_(sim), alpha_(contention_alpha),
        max_factor_(max_contention_factor) {}

  /// Run a critical section of uncontended duration `base_hold`. The section
  /// is queued FIFO behind current waiters; `done` fires at release time.
  void Execute(SimDuration base_hold, Done done);

  /// Number of requests currently waiting (not counting the holder).
  std::size_t waiters() const { return queue_.size(); }
  bool held() const { return held_; }

  std::uint64_t acquisitions() const { return acquisitions_; }
  /// Total virtual time any requester spent blocked on this mutex.
  SimDuration total_wait() const { return total_wait_; }

 private:
  struct Request {
    SimTime enqueued;
    SimDuration base_hold;
    Done done;
  };

  void Grant(Request req);

  Simulator& sim_;
  double alpha_;
  double max_factor_;
  bool held_ = false;
  /// Holders' continuations, parked so the release event captures only a
  /// slot index and stays inline. More than one can be live: a holder's
  /// `done` may re-take the freed lock just before the next waiter is
  /// granted.
  SlotPool<Done> holders_;
  std::deque<Request> queue_;
  std::uint64_t acquisitions_ = 0;
  SimDuration total_wait_ = 0;
};

}  // namespace canvas::sim
