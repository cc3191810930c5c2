#include "sched/two_dim.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace canvas::sched {

void TwoDimScheduler::RegisterCgroup(CgroupId cg, double weight) {
  Vqp& vqp = vqps_[cg];
  vqp.id = cg;
  vqp.weight = weight > 0 ? weight : 1.0;
}

void TwoDimScheduler::ForgetCgroup(CgroupId cg) {
  auto it = vqps_.find(cg);
  if (it != vqps_.end()) {
    Vqp& vqp = it->second;
    if (vqp.Backlogged(rdma::Direction::kIngress) ||
        vqp.Backlogged(rdma::Direction::kEgress))
      throw std::logic_error("TwoDimScheduler::ForgetCgroup: cgroup " +
                             std::to_string(cg) +
                             " still has queued requests");
    Unlist(vqp, 0);
    Unlist(vqp, 1);
    vqps_.erase(it);
  }
  timeliness_.Forget(cg);
  DispatchScheduler::ForgetCgroup(cg);
}

void TwoDimScheduler::List(Vqp& vqp, std::size_t d) {
  if (vqp.listed[d] != kUnlisted) return;
  vqp.listed[d] = std::uint32_t(backlog_[d].size());
  backlog_[d].push_back(&vqp);
}

void TwoDimScheduler::Unlist(Vqp& vqp, std::size_t d) {
  std::uint32_t at = vqp.listed[d];
  if (at == kUnlisted) return;
  Vqp* last = backlog_[d].back();
  backlog_[d][at] = last;
  last->listed[d] = at;
  backlog_[d].pop_back();
  vqp.listed[d] = kUnlisted;
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
  List(vqp, std::size_t(dir));
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
  for (std::size_t d = 0; d < 2; ++d)
    for (std::size_t i = backlog_[d].size(); i-- > 0;) {
      Vqp& vqp = *backlog_[d][i];
      if (!vqp.Backlogged(rdma::Direction(d))) Unlist(vqp, d);
    }
  return out;
}

rdma::RequestPtr TwoDimScheduler::Dequeue(rdma::Direction dir, SimTime now) {
  auto d = std::size_t(dir);
  for (;;) {
    Vqp* best = nullptr;
    for (Vqp* vqp : backlog_[d])
      if (!best || vqp->finish[d] < best->finish[d] ||
          (vqp->finish[d] == best->finish[d] && vqp->id < best->id))
        best = vqp;
    if (!best) return nullptr;
    rdma::RequestPtr req = PopHorizontal(*best, dir, now);
    // Stale-prefetch drops may have emptied the VQP (and their on_drop may
    // have refilled it through Enqueue).
    if (!best->Backlogged(dir)) Unlist(*best, d);
    if (!req) continue;  // this cgroup's eligible work was all stale
    // Advance the served flow's virtual finish tag and the global clock.
    double start = std::max(best->finish[d], vclock_[d]);
    best->finish[d] = start + double(req->bytes) / best->weight;
    vclock_[d] = start;
    return req;
  }
}

}  // namespace canvas::sched
