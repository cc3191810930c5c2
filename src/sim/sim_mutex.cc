#include "sim/sim_mutex.h"

#include <algorithm>
#include <utility>

namespace canvas::sim {

void SimMutex::Execute(SimDuration base_hold, Done done) {
  Request req{sim_.Now(), base_hold, std::move(done)};
  if (held_) {
    queue_.push_back(std::move(req));
    return;
  }
  Grant(std::move(req));
}

void SimMutex::Grant(Request req) {
  held_ = true;
  ++acquisitions_;
  SimDuration wait = sim_.Now() - req.enqueued;
  total_wait_ += wait;
  // Contention penalty is computed from the queue length at acquisition:
  // every waiter is a core spinning on the lock cacheline.
  double factor =
      std::min(1.0 + alpha_ * double(queue_.size()), max_factor_);
  auto hold = SimDuration(double(req.base_hold) * factor);
  std::uint32_t slot = holders_.Put(std::move(req.done));
  sim_.Schedule(hold, [this, wait, hold, slot] {
    held_ = false;
    Done done = holders_.Take(slot);
    if (done) done(wait, hold);
    if (!queue_.empty()) {
      Request next = std::move(queue_.front());
      queue_.pop_front();
      Grant(std::move(next));
    }
  });
}

}  // namespace canvas::sim
