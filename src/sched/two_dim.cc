#include "sched/two_dim.h"

#include <algorithm>
#include <cassert>

namespace canvas::sched {

void TwoDimScheduler::RegisterCgroup(CgroupId cg, double weight) {
  vqps_[cg].weight = weight > 0 ? weight : 1.0;
}

void TwoDimScheduler::Enqueue(rdma::RequestPtr req) {
  auto dir = rdma::DirectionOf(req->op);
  auto it = vqps_.find(req->cgroup);
  if (it == vqps_.end()) {
    // Unregistered cgroups (e.g. the shared cgroup) get weight 1.
    RegisterCgroup(req->cgroup, 1.0);
    it = vqps_.find(req->cgroup);
  }
  Vqp& vqp = it->second;
  // A flow that was idle restarts its tag at the current virtual time so it
  // cannot claim bandwidth retroactively.
  if (!vqp.Backlogged(dir))
    vqp.finish[std::size_t(dir)] =
        std::max(vqp.finish[std::size_t(dir)], vclock_[std::size_t(dir)]);
  switch (req->op) {
    case rdma::Op::kDemandIn: vqp.demand.push_back(std::move(req)); break;
    case rdma::Op::kPrefetchIn: vqp.prefetch.push_back(std::move(req)); break;
    case rdma::Op::kSwapOut: vqp.swapout.push_back(std::move(req)); break;
  }
  KickNic(dir);
}

rdma::RequestPtr TwoDimScheduler::PopHorizontal(Vqp& vqp, rdma::Direction dir,
                                                SimTime now) {
  if (dir == rdma::Direction::kEgress) {
    rdma::RequestPtr req = std::move(vqp.swapout.front());
    vqp.swapout.pop_front();
    return req;
  }
  // Demand strictly before prefetch.
  if (!vqp.demand.empty()) {
    rdma::RequestPtr req = std::move(vqp.demand.front());
    vqp.demand.pop_front();
    return req;
  }
  while (!vqp.prefetch.empty()) {
    rdma::RequestPtr req = std::move(vqp.prefetch.front());
    vqp.prefetch.pop_front();
    if (cfg_.horizontal && nic_) {
      // Estimated time the data would arrive, relative to when the page was
      // wanted (enqueue time), vs. the cgroup's timeliness budget.
      SimDuration est =
          (now - req->created) + nic_->EstimateServiceDelay(dir, now);
      if (est > timeliness_.Threshold(req->cgroup)) {
        RecordDrop(*req);
        continue;  // stale: drop and look at the next prefetch
      }
    }
    return req;
  }
  return nullptr;
}

std::size_t TwoDimScheduler::QueueDepth(CgroupId cg) const {
  auto it = vqps_.find(cg);
  if (it == vqps_.end()) return 0;
  const Vqp& vqp = it->second;
  return vqp.demand.size() + vqp.prefetch.size() + vqp.swapout.size();
}

std::vector<rdma::RequestPtr> TwoDimScheduler::DrainMatching(
    const std::function<bool(const rdma::Request&)>& pred) {
  std::vector<rdma::RequestPtr> out;
  for (auto& [cg, vqp] : vqps_) {
    DrainQueue(vqp.demand, pred, out);
    DrainQueue(vqp.prefetch, pred, out);
    DrainQueue(vqp.swapout, pred, out);
  }
  return out;
}

rdma::RequestPtr TwoDimScheduler::Dequeue(rdma::Direction dir, SimTime now) {
  auto d = std::size_t(dir);
  for (;;) {
    Vqp* best = nullptr;
    for (auto& [cg, vqp] : vqps_) {
      if (!vqp.Backlogged(dir)) continue;
      if (!best || vqp.finish[d] < best->finish[d]) best = &vqp;
    }
    if (!best) return nullptr;
    rdma::RequestPtr req = PopHorizontal(*best, dir, now);
    if (!req) continue;  // this cgroup's eligible work was all stale
    // Advance the served flow's virtual finish tag and the global clock.
    double start = std::max(best->finish[d], vclock_[d]);
    best->finish[d] = start + double(req->bytes) / best->weight;
    vclock_[d] = start;
    return req;
  }
}

}  // namespace canvas::sched
