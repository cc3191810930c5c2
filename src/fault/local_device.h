// Simulated local swap device: the one serialization lane behind both the
// local-disk failover backstop (DESIGN.md §8) and the hybrid local tier
// (DESIGN.md §14, which owns one through tier::TierBackend).
//
// Models one device: a serialization lane at the configured bandwidth plus
// a fixed submission-to-completion latency, DES-clock driven. The disk is
// slower than the healthy RDMA path (graceful degradation, not free); the
// tier is an order of magnitude faster. Requests submitted here bypass the
// RDMA dispatch scheduler entirely and never fail; the device stamps its
// SwapBackend into `served_by` so completion handlers can tag the page's
// home.
#pragma once

#include <cstdint>

#include "common/types.h"
#include "rdma/request.h"
#include "sim/simulator.h"
#include "trace/histogram.h"

namespace canvas::fault {

class LocalDevice {
 public:
  struct Config {
    /// Sustained device rate (defaults: NVMe-class local SSD).
    double bandwidth_bytes_per_sec = 2.0e9;
    /// Fixed submission -> completion overhead (queueing + media).
    SimDuration latency = 80 * kMicrosecond;
  };

  LocalDevice(sim::Simulator& sim, SwapBackend kind, Config cfg)
      : sim_(sim), cfg_(cfg), kind_(kind) {}

  /// Submit a page transfer; fires req->on_complete when done, `extra` ns
  /// past the lane's own completion time (the tier's fault-window latency
  /// spikes). Always succeeds.
  void Submit(rdma::RequestPtr req, SimDuration extra = 0);

  const Config& config() const { return cfg_; }
  std::uint64_t reads() const { return reads_; }
  std::uint64_t writes() const { return writes_; }
  std::uint64_t inflight() const { return inflight_; }
  /// Submission-to-completion latency distribution (every request, ns).
  const trace::LogHistogram& latency() const { return latency_hist_; }

 private:
  sim::Simulator& sim_;
  Config cfg_;
  SwapBackend kind_;
  SimTime busy_until_ = 0;
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
  std::uint64_t inflight_ = 0;
  trace::LogHistogram latency_hist_;
};

}  // namespace canvas::fault
