// Simulated local-disk swap backend: the failover target when the remote
// memory fabric degrades.
//
// Models a single NVMe-class device: one serialization lane at the
// configured bandwidth plus a fixed submission-to-completion latency —
// slower than the healthy RDMA path (graceful degradation, not free), but
// always available. Requests submitted here bypass the RDMA dispatch
// scheduler entirely and never fail; `served_by_disk` is stamped on the
// request so completion handlers can tag the page's backing location.
#pragma once

#include <cstdint>

#include "rdma/request.h"
#include "sim/simulator.h"
#include "trace/histogram.h"

namespace canvas::fault {

class DiskBackend {
 public:
  struct Config {
    /// Sustained device rate (NVMe-class local SSD).
    double bandwidth_bytes_per_sec = 2.0e9;
    /// Fixed submission -> completion overhead (queueing + media).
    SimDuration latency = 80 * kMicrosecond;

    bool operator==(const Config&) const = default;
  };

  DiskBackend(sim::Simulator& sim, Config cfg) : sim_(sim), cfg_(cfg) {}

  /// Submit a page transfer; fires req->on_complete when done. Always
  /// succeeds.
  void Submit(rdma::RequestPtr req);

  const Config& config() const { return cfg_; }
  std::uint64_t reads() const { return reads_; }
  std::uint64_t writes() const { return writes_; }
  std::uint64_t inflight() const { return inflight_; }
  /// Submission-to-completion latency distribution (every request, ns).
  /// Accessor-only — never folded into the standard reports, so report
  /// bytes are unchanged by its existence (bench failover comparisons read
  /// it directly).
  const trace::LogHistogram& latency() const { return latency_hist_; }

 private:
  sim::Simulator& sim_;
  Config cfg_;
  SimTime busy_until_ = 0;
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
  std::uint64_t inflight_ = 0;
  trace::LogHistogram latency_hist_;
};

}  // namespace canvas::fault
