#include "rdma/nic.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "remote/pool.h"

namespace canvas::rdma {

SimDuration ComputeBackoff(const RetryPolicy& policy, std::uint32_t attempt,
                           double u) {
  if (attempt == 0) attempt = 1;
  double base = double(policy.backoff_base) *
                std::pow(2.0, double(attempt - 1));
  double jittered = base * (1.0 + policy.jitter_frac * u);
  double capped = std::min(double(policy.backoff_cap), jittered);
  return SimDuration(capped);
}

Nic::Nic(sim::Simulator& sim, Config cfg, RequestSource& source)
    : sim_(sim), cfg_(cfg), source_(source),
      dir_series_{TimeSeries(cfg.series_bucket), TimeSeries(cfg.series_bucket)} {}

void Nic::Kick(Direction dir) { Pump(dir); }

SimDuration Nic::EstimateServiceDelay(Direction dir, SimTime now) const {
  const Lane& lane = lanes_[std::size_t(dir)];
  SimTime free_at = std::max(lane.busy_until, now);
  double bw = cfg_.bandwidth_bytes_per_sec;
  SimDuration extra = 0;
  if (injector_ && injector_->active()) {
    // Fold in the degraded fabric so the horizontal scheduler's timeliness
    // estimates stay honest under injection. Stall windows are scanned
    // directly off the plan (StalledUntil() is a counting hook reserved for
    // actual pump deferrals). Server-targeted windows are folded in at
    // fabric level here — the estimator has no destination yet, so it
    // conservatively assumes the worst covering window.
    for (const fault::QpStall& s : injector_->plan().qp_stalls())
      if ((s.dir == fault::kBothDirections || s.dir == int(dir)) &&
          s.window.Covers(free_at))
        free_at = std::max(free_at, s.window.end);
    bw *= injector_->BandwidthFactor(int(dir), free_at);
    extra = injector_->ExtraLatency(int(dir), free_at);
  }
  SimDuration queue_wait = free_at - now;
  auto ser = SimDuration(double(kPageSize) / bw * double(kSecond));
  return queue_wait + ser + cfg_.base_latency + extra;
}

const TimeSeries* Nic::cgroup_series(CgroupId cg, Direction dir) const {
  auto it = cg_series_.find({cg, dir});
  return it == cg_series_.end() ? nullptr : &it->second;
}

double Nic::cgroup_bytes(CgroupId cg, Direction dir) const {
  auto it = cg_bytes_.find({cg, dir});
  return it == cg_bytes_.end() ? 0.0 : it->second;
}

std::array<double, 2> Nic::ReleaseCgroup(CgroupId cg) {
  std::array<double, 2> totals = {
      cgroup_bytes(cg, Direction::kIngress),
      cgroup_bytes(cg, Direction::kEgress)};
  for (Direction dir : {Direction::kIngress, Direction::kEgress}) {
    cg_bytes_.erase({cg, dir});
    cg_series_.erase({cg, dir});
  }
  return totals;
}

void Nic::Pump(Direction dir) {
  Lane& lane = lanes_[std::size_t(dir)];
  if (lane.pump_scheduled) return;
  SimTime now = sim_.Now();
  if (injector_ && injector_->active()) {
    // A QP stall freezes dispatch on this lane until the window closes.
    // With a pool attached, server-targeted stalls wedge only the remote
    // QP — they surface as per-request latency below, not a lane freeze.
    SimTime stalled_until =
        injector_->StalledUntil(int(dir), now, /*untargeted_only=*/
                                pool_ != nullptr);
    if (stalled_until > now) {
      lane.pump_scheduled = true;
      sim_.ScheduleAt(stalled_until, [this, dir] {
        lanes_[std::size_t(dir)].pump_scheduled = false;
        Pump(dir);
      });
      return;
    }
  }
  if (lane.busy_until > now) {
    // Lane occupied: re-pump when it frees. Scheduling decisions stay
    // late-bound because the actual Dequeue happens at that instant.
    lane.pump_scheduled = true;
    sim_.ScheduleAt(lane.busy_until, [this, dir] {
      lanes_[std::size_t(dir)].pump_scheduled = false;
      Pump(dir);
    });
    return;
  }
  // Requests that finished their backoff re-dispatch ahead of fresh work:
  // they are the oldest in-flight operations and demand waiters are parked
  // behind them.
  RequestPtr req;
  auto& rq = retry_q_[std::size_t(dir)];
  if (!rq.empty()) {
    req = std::move(rq.front());
    rq.pop_front();
    --pending_retries_;
  } else {
    req = source_.Dequeue(dir, now);
  }
  if (!req) return;

  req->dispatched = now;
  // Late-bound routing: the slab's *current* home decides the destination,
  // so retries issued after a migration or eviction chase the data.
  if (pool_ && req->partition != kNoPoolPartition)
    req->server = pool_->RouteAtDispatch(req->partition, req->entry);
  double bw = cfg_.bandwidth_bytes_per_sec;
  SimDuration extra_lat = 0;
  if (injector_ && injector_->active()) {
    bw *= injector_->BandwidthFactor(int(dir), now);
    extra_lat = injector_->ExtraLatency(int(dir), now, req->server);
    if (pool_)
      extra_lat += injector_->TargetedStallExtra(req->server, int(dir), now);
  }
  auto ser = SimDuration(double(req->bytes) / bw * double(kSecond));
  lane.busy_until = now + ser;
  SimTime completion = lane.busy_until + cfg_.base_latency + extra_lat;
  if (pool_ && req->server >= 0)
    // Fold in the destination server: link serialization behind other
    // transfers to the same server, fixed processing latency, and
    // queue-depth congestion. Transparent servers return it unchanged.
    completion = pool_->BeginService(req->server, int(dir), req->bytes,
                                     lane.busy_until, completion);
  if (tracer_)
    // Lane occupancy: consecutive dispatches on a lane begin at or after
    // the previous serialization window ends, so wire spans never overlap
    // within a track (the exporter's nesting validator relies on this).
    tracer_->Span(trace::kRdmaPid, std::uint32_t(dir), trace::Name::kWire,
                  now, lane.busy_until, std::uint64_t(req->cgroup));

  // Because the plan is known up front, the fate of this attempt can be
  // decided at dispatch — one scheduled event per attempt, and the event
  // sequence (hence the replay) is identical for identical (plan, seed).
  RequestStatus outcome = RequestStatus::kOk;
  SimTime event_at = completion;
  if (injector_ && injector_->active()) {
    if (injector_->BlackoutOverlaps(now, completion, req->server)) {
      // The server never answers: the attempt dies by timeout.
      outcome = RequestStatus::kTimeout;
      event_at = now + cfg_.retry.timeout;
    } else if (completion - now > cfg_.retry.timeout) {
      // Injected degradation pushed service past the per-attempt deadline.
      outcome = RequestStatus::kTimeout;
      event_at = now + cfg_.retry.timeout;
    } else if (injector_->DrawCompletionError(int(req->op), now)) {
      outcome = RequestStatus::kCqeError;
    }
  }

  // Account bandwidth at serialization time (failed attempts still burn
  // wire time — that is the cost the retry path pays).
  dir_series_[std::size_t(dir)].Add(now, double(req->bytes));
  auto key = std::make_pair(req->cgroup, dir);
  auto [it, inserted] = cg_series_.try_emplace(key, cfg_.series_bucket);
  it->second.Add(now, double(req->bytes));
  cg_bytes_[key] += double(req->bytes);

  sim_.ScheduleAt(event_at, [this, outcome, owned = std::move(req)]() mutable {
    // Balance the server's inflight depth at the attempt's terminal event
    // (a timed-out attempt stops congesting once we stop waiting on it).
    if (pool_ && owned->server >= 0) pool_->EndService(owned->server);
    owned->completed = sim_.Now();
    owned->status = outcome;
    if (outcome == RequestStatus::kOk) {
      latency_[std::size_t(owned->op)].Add(
          double(owned->completed - owned->created));
      ++completed_[std::size_t(owned->op)];
      if (owned->on_complete) owned->on_complete(*owned);
    } else {
      HandleAttemptFailure(std::move(owned), outcome);
    }
  });

  // Immediately try to fill the lane again (schedules a wake-up at
  // busy_until via the branch above).
  Pump(dir);
}

void Nic::HandleAttemptFailure(RequestPtr req, RequestStatus status) {
  ++req->attempts;
  if (status == RequestStatus::kTimeout) ++timeouts_; else ++cqe_errors_;

  Direction dir = DirectionOf(req->op);
  if (tracer_)
    tracer_->Instant(trace::kRdmaPid, std::uint32_t(dir),
                     status == RequestStatus::kTimeout
                         ? trace::Name::kTimeoutEvt
                         : trace::Name::kCqeErrorEvt,
                     sim_.Now(), req->attempts);
  std::uint32_t max_retries = cfg_.retry.MaxRetries(req->op);
  if (req->attempts <= max_retries) {
    double u = injector_ ? injector_->JitterDraw() : 0.0;
    SimDuration backoff = ComputeBackoff(cfg_.retry, req->attempts, u);
    req->last_backoff = backoff;
    ++retries_;
    ++pending_retries_;
    if (tracer_)
      tracer_->Instant(trace::kRdmaPid, std::uint32_t(dir),
                       trace::Name::kRetry, sim_.Now(), backoff);
    if (retry_observer_) retry_observer_(*req, backoff);
    SimTime resume = sim_.Now() + backoff;
    sim_.ScheduleAt(resume, [this, dir, r = std::move(req)]() mutable {
      retry_q_[std::size_t(dir)].push_back(std::move(r));
      Pump(dir);
    });
    return;
  }

  // Retry budget exhausted: hand ownership back to the issuer so it can
  // fail over, reissue, or unwind. Copy the handler out first — the issuer
  // may re-enqueue this very request and must keep its callbacks intact.
  ++exhausted_;
  req->last_backoff = 0;
  if (tracer_)
    tracer_->Instant(trace::kRdmaPid, std::uint32_t(dir),
                     trace::Name::kExhaustedEvt, sim_.Now(), req->attempts);
  if (retry_observer_) retry_observer_(*req, 0);
  if (req->on_error) {
    auto handler = req->on_error;
    handler(std::move(req));
  } else if (req->on_drop) {
    req->on_drop(*req);
  }
}

}  // namespace canvas::rdma
