#include "sim/simulator.h"

namespace canvas::sim {

bool Simulator::Step() {
  if (queue_.empty()) return false;
  const EventQueue::Popped ev = queue_.Pop();
  now_ = ev.when;
  ++executed_;
  queue_.Callback(ev.node)();
  queue_.Release(ev.node);
  return true;
}

void Simulator::DrainInstant() {
  const SimTime now = queue_.MinTime();
  now_ = now;
  do {
    const EventQueue::Popped ev = queue_.Pop();
    ++executed_;
    // Invoked in place: node storage is chunked and never relocates, so
    // callbacks scheduled from inside this call cannot move the live frame.
    queue_.Callback(ev.node)();
    queue_.Release(ev.node);
  } while (!queue_.empty() && queue_.MinTime() == now);
}

void Simulator::Run() {
  while (!queue_.empty()) DrainInstant();
}

bool Simulator::RunUntil(SimTime deadline) {
  while (!queue_.empty() && queue_.MinTime() <= deadline) DrainInstant();
  if (queue_.empty()) return true;
  now_ = deadline;
  return false;
}

}  // namespace canvas::sim
