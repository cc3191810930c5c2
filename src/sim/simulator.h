// Discrete-event simulation engine.
//
// The entire Canvas reproduction runs on one deterministic virtual clock.
// Components schedule closures at future instants; Simulator::Run() drains
// the event queue in (time, insertion-sequence) order, so two events at the
// same instant fire in the order they were scheduled — this removes all
// nondeterminism from the model.
//
// Hot-path design (see DESIGN.md "Simulator performance"): callbacks are
// InlineCallback (56-byte small-buffer storage, no per-event allocation for
// typical captures) and the queue is a hierarchical timing wheel with
// recycled pooled event nodes (EventQueue) — O(1) push/pop with no
// per-event sift at any queue depth. Run() drains every event at the
// current instant in one pass before touching the clock again.
#pragma once

#include <cstdint>

#include "common/types.h"
#include "sim/event_queue.h"
#include "sim/inline_callback.h"

namespace canvas::sim {

class Simulator {
 public:
  using Callback = InlineCallback;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  SimTime Now() const { return now_; }

  /// Schedule `fn` to run `delay` nanoseconds from now.
  void Schedule(SimDuration delay, Callback fn) {
    ScheduleAt(now_ + delay, std::move(fn));
  }

  /// Schedule `fn` at an absolute instant (must be >= Now()).
  void ScheduleAt(SimTime when, Callback fn);

  /// Run until the event queue is empty.
  void Run();

  /// Run until the clock would pass `deadline` (events at exactly `deadline`
  /// still fire). Returns true if the queue drained before the deadline.
  bool RunUntil(SimTime deadline);

  /// Execute the single next event. Returns false if the queue is empty.
  bool Step();

  /// Number of events executed so far (for tests and runaway detection).
  std::uint64_t events_executed() const { return executed_; }
  bool empty() const { return queue_.empty(); }

 private:
  /// Execute every event scheduled at MinTime() in one pass, without
  /// re-reading the clock between events. Events a callback schedules back
  /// onto the same instant carry a later insertion seq than everything
  /// already queued there, so the heap pops them after the existing events —
  /// insertion order at one instant is preserved.
  void DrainInstant();

  SimTime now_ = 0;
  std::uint64_t executed_ = 0;
  EventQueue queue_;
};

}  // namespace canvas::sim
