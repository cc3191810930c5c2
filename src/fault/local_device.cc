#include "fault/local_device.h"

#include <algorithm>

namespace canvas::fault {

void LocalDevice::Submit(rdma::RequestPtr req, SimDuration extra) {
  SimTime now = sim_.Now();
  if (req->op == rdma::Op::kSwapOut) ++writes_; else ++reads_;
  ++inflight_;
  req->dispatched = now;
  req->served_by = kind_;
  auto ser = SimDuration(double(req->bytes) / cfg_.bandwidth_bytes_per_sec *
                         double(kSecond));
  busy_until_ = std::max(busy_until_, now) + ser;
  SimTime completion = busy_until_ + cfg_.latency + extra;
  sim_.ScheduleAt(completion, [this, owned = std::move(req)]() mutable {
    owned->completed = sim_.Now();
    owned->status = rdma::RequestStatus::kOk;
    --inflight_;
    latency_hist_.Add(std::uint64_t(owned->completed - owned->created));
    if (owned->on_complete) owned->on_complete(*owned);
  });
}

}  // namespace canvas::fault
