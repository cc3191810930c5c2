// Canvas two-dimensional RDMA scheduler (§4, §5.3).
//
// Vertical dimension (across applications): weighted max-min fair queueing
// with virtual clocks per direction. Each cgroup owns a VQP set (demand /
// prefetch / swap-out queues); at each free NIC slot the scheduler serves
// the backlogged cgroup with the smallest virtual finish tag, so bandwidth
// shares converge to the configured weights while unconsumed bandwidth is
// redistributed to backlogged cgroups automatically (work conservation).
//
// Horizontal dimension (within an application): demand requests are served
// strictly before prefetches, and — when `horizontal` is enabled — stale
// prefetches are dropped: a prefetch whose estimated arrival time exceeds
// the cgroup's estimated timeliness threshold can no longer be useful, so
// it is discarded to return bandwidth to critical requests. The drop
// callback lets the swap system unwind the page's in-flight state (and
// rescue threads blocked on it by reissuing a demand request, §5.3).
//
// With `horizontal=false` this is the "isolation only" configuration of
// §6.3: vertical fairness plus Fastswap-style sync/async priority.
//
// Dispatch cost tracks the backlog, not the tenant count: each direction
// keeps the list of its backlogged VQPs, and a dequeue takes the minimum
// (finish tag, cgroup id) over that list — the same VQP an ascending-id walk
// of every registered cgroup with a strict `<` would pick.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "sched/scheduler.h"
#include "sched/timeliness.h"

namespace canvas::sched {

class TwoDimScheduler : public DispatchScheduler {
 public:
  struct Config {
    bool horizontal = true;  // timeliness-based prefetch dropping
    TimelinessTracker::Config timeliness;
  };

  TwoDimScheduler() : TwoDimScheduler(Config{}) {}
  explicit TwoDimScheduler(const Config& cfg)
      : cfg_(cfg), timeliness_(cfg.timeliness) {}
  // backlog_ points into vqps_: a copy would alias the original's VQPs.
  TwoDimScheduler(const TwoDimScheduler&) = delete;
  TwoDimScheduler& operator=(const TwoDimScheduler&) = delete;

  /// Declare a cgroup with its fair-share weight (must precede Enqueue).
  void RegisterCgroup(CgroupId cg, double weight);

  /// Retune a registered cgroup's weight at runtime (the QoS plane's
  /// weight-boost lever, DESIGN.md §13). Takes effect from the next
  /// dequeue: virtual finish tags already assigned are left untouched, so
  /// in-queue requests keep their rank and determinism is preserved.
  void SetWeight(CgroupId cg, double weight) {
    auto it = vqps_.find(cg);
    if (it != vqps_.end()) it->second.weight = weight > 0 ? weight : 1.0;
  }

  /// Current weight (base 1.0 for unregistered cgroups).
  double Weight(CgroupId cg) const {
    auto it = vqps_.find(cg);
    return it != vqps_.end() ? it->second.weight : 1.0;
  }

  void Enqueue(rdma::RequestPtr req) override;
  rdma::RequestPtr Dequeue(rdma::Direction dir, SimTime now) override;
  std::vector<rdma::RequestPtr> DrainMatching(
      const std::function<bool(const rdma::Request&)>& pred) override;
  std::size_t QueueDepth(CgroupId cg) const override;
  /// Drops the cgroup's VQP and its timeliness window along with the base
  /// drop counters. The shared virtual clock is untouched: tags of other
  /// cgroups keep their rank. Throws std::logic_error (and changes nothing)
  /// if the cgroup still has queued requests: erasing them would silently
  /// lose their on_complete / on_drop.
  void ForgetCgroup(CgroupId cg) override;
  const char* name() const override { return "two-dim"; }

  TimelinessTracker& timeliness() { return timeliness_; }
  const TimelinessTracker& timeliness() const { return timeliness_; }

 private:
  static constexpr std::uint32_t kUnlisted = 0xFFFF'FFFFu;

  struct Vqp {
    CgroupId id = kInvalidCgroup;
    double weight = 1.0;
    std::deque<rdma::RequestPtr> demand;
    std::deque<rdma::RequestPtr> prefetch;
    std::deque<rdma::RequestPtr> swapout;
    double finish[2] = {0, 0};  // virtual finish tag per direction
    /// Position in backlog_[dir], kUnlisted while not backlogged.
    std::uint32_t listed[2] = {kUnlisted, kUnlisted};

    bool Backlogged(rdma::Direction dir) const {
      return dir == rdma::Direction::kEgress
                 ? !swapout.empty()
                 : !(demand.empty() && prefetch.empty());
    }
  };

  /// Pop per horizontal policy from `vqp` (direction `dir`); may drop stale
  /// prefetches. Returns nullptr if everything eligible was dropped.
  rdma::RequestPtr PopHorizontal(Vqp& vqp, rdma::Direction dir, SimTime now);

  /// Add `vqp` to / drop it from backlog_[d] (no-op if already there /
  /// absent). Callers keep "listed iff Backlogged" after every queue
  /// change.
  void List(Vqp& vqp, std::size_t d);
  void Unlist(Vqp& vqp, std::size_t d);

  Config cfg_;
  TimelinessTracker timeliness_;
  std::map<CgroupId, Vqp> vqps_;  // node-based: Vqp pointers stay valid
  /// Backlogged VQPs per direction, in no particular order.
  std::vector<Vqp*> backlog_[2];
  double vclock_[2] = {0, 0};
};

}  // namespace canvas::sched
