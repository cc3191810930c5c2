// Simulated RDMA NIC.
//
// The NIC models a full-duplex link (one ingress lane for swap-ins, one
// egress lane for swap-outs), each with a serialization rate equal to the
// configured bandwidth, plus a fixed base latency covering PCIe DMA, wire
// and remote-side processing. Requests are pulled from a RequestSource (the
// dispatch scheduler) one at a time *when the lane frees*, so scheduling
// decisions are late-binding: a demand request arriving while prefetches are
// queued is dispatched ahead of them — exactly the property the paper's
// schedulers differ on.
//
// Robust transport (DESIGN.md §8): when a FaultInjector is attached, each
// dispatched attempt can suffer injected latency, bandwidth degradation, a
// simulated CQE error, a QP stall, or a memory-server blackout. Failed
// attempts are retried with exponential backoff + seeded jitter up to a
// per-op budget; an exhausted request is handed back to its issuer through
// on_error. Without an injector none of this logic executes — the healthy
// fast path is unchanged.
//
// The NIC is also the metrics point for per-op latency histograms and
// per-direction / per-cgroup byte counts (paper Figures 5, 6, 14).
#pragma once

#include <array>
#include <deque>
#include <vector>

#include "fault/injector.h"
#include "rdma/request.h"
#include "sim/simulator.h"
#include "trace/histogram.h"
#include "trace/trace.h"

namespace canvas::remote {
class ServerPool;
}

namespace canvas::rdma {

/// Interface the dispatch scheduler exposes to the NIC.
class RequestSource {
 public:
  virtual ~RequestSource() = default;
  /// Pop the next request to serve in `dir`, or nullptr if none eligible.
  virtual RequestPtr Dequeue(Direction dir, SimTime now) = 0;
};

/// Retry budget per op class for the robust swap path (only consulted when
/// a fault injector is attached). Demand reads are fault-critical and get
/// the deepest budget; prefetches are speculative and fail fast (their
/// unwind path already handles loss).
constexpr std::uint32_t MaxRetries(Op op) {
  switch (op) {
    case Op::kDemandIn: return 6;
    case Op::kPrefetchIn: return 0;
    case Op::kSwapOut: return 4;
  }
  return 0;
}

/// Backoff parameters for the robust swap path. Backoff for retry n
/// (1-based) is
///   min(backoff_cap, backoff_base * 2^(n-1) * (1 + jitter_frac * u)),
/// u uniform in [0,1) from the injector's seeded stream. With
/// jitter_frac < 1 the delays are monotonically non-decreasing per attempt
/// (the doubling outruns the worst-case jitter), which the property suite
/// asserts.
struct RetryPolicy {
  SimDuration backoff_base = 20 * kMicrosecond;
  SimDuration backoff_cap = 2 * kMillisecond;
  double jitter_frac = 0.25;  ///< must stay < 1.0 (monotonic backoff)

  bool operator==(const RetryPolicy&) const = default;
};

/// Pure backoff computation (exposed for the property tests). `attempt` is
/// 1-based; `u` is the jitter draw in [0,1).
SimDuration ComputeBackoff(const RetryPolicy& policy, std::uint32_t attempt,
                           double u);

class Nic {
 public:
  struct Config {
    /// Effective per-direction data rate. Defaults to ~4.8 GB/s, matching a
    /// 40 Gbps ConnectX-3 with protocol overheads (the paper observed a
    /// 4.5 GB/s peak).
    double bandwidth_bytes_per_sec = 4.8e9;
    /// Fixed one-way request latency (DMA + wire + remote memory).
    SimDuration base_latency = 3 * kMicrosecond;
    /// Time granularity of mean_rate(): the rate averages over whole
    /// buckets from t = 0 through the one holding the last dispatch.
    SimDuration series_bucket = 100 * kMillisecond;
    /// Backoff parameters (only consulted when a fault injector is
    /// attached).
    RetryPolicy retry;

    bool operator==(const Config&) const = default;
  };

  Nic(sim::Simulator& sim, Config cfg, RequestSource& source);

  /// Attach the fault injector (nullptr detaches). Without one the NIC
  /// never times out, errors, or retries.
  void AttachInjector(fault::FaultInjector* injector) {
    injector_ = injector;
  }

  /// Attach the telemetry tracer (nullptr detaches): per-lane wire
  /// occupancy spans plus retry/timeout/CQE-error instants on the fabric
  /// tracks. Recording only — never affects dispatch order or timing.
  void AttachTracer(trace::Tracer* tracer) { tracer_ = tracer; }

  /// Attach the remote memory-server pool. A request that carries a pool
  /// partition (only an issuer with a pool stamps one) is routed to its
  /// slab's current home server at dispatch, the server's service model
  /// (link serialization, base latency, queue-depth congestion) folds into
  /// the completion time, and server-targeted fault windows apply only to
  /// requests bound for that server. A standalone NIC never sees one.
  void AttachPool(remote::ServerPool* pool) { pool_ = pool; }

  /// Notify the NIC that the source may have new work in `dir`.
  void Kick(Direction dir);

  /// Estimated queueing+service delay if a request were dispatched on `dir`
  /// now (used by the horizontal scheduler's timeliness estimator). Folds
  /// in injected bandwidth degradation / latency / stalls so the estimate
  /// tracks the degraded fabric.
  SimDuration EstimateServiceDelay(Direction dir, SimTime now) const;

  const Config& config() const { return cfg_; }

  // --- metrics ---
  /// created -> completed latency of every successful request of `op`.
  const trace::LogHistogram& latency(Op op) const {
    return latency_[std::size_t(op)];
  }
  /// Bytes dispatched in `dir`, across cgroups (failed attempts included).
  std::uint64_t bytes(Direction dir) const {
    return dir_bytes_[std::size_t(dir)];
  }
  /// Mean bytes/s in `dir` over whole `series_bucket`s from t = 0 through
  /// the bucket of the last dispatch; 0 before the first dispatch.
  double mean_rate(Direction dir) const;
  /// Per-cgroup per-direction bytes (for WMMR / per-app bandwidth).
  double cgroup_bytes(CgroupId cg, Direction dir) const;
  /// Tenant retirement (DESIGN.md §15): drop `cg`'s byte accounting and
  /// return the final {ingress, egress} totals for the run ledger. Cgroup
  /// ids are recycled, so the next tenant on this id must start from zero.
  /// The direction totals are unaffected.
  std::array<double, 2> ReleaseCgroup(CgroupId cg);
  std::uint64_t completed_count(Op op) const {
    return completed_[std::size_t(op)];
  }

  // --- fault-path metrics ---
  std::uint64_t retries() const { return retries_; }
  std::uint64_t timeouts() const { return timeouts_; }
  std::uint64_t cqe_errors() const { return cqe_errors_; }
  std::uint64_t exhausted() const { return exhausted_; }
  /// Requests waiting out a backoff or queued for re-dispatch.
  std::uint64_t pending_retries() const { return pending_retries_; }

  /// Test hook: observe each failed attempt (request state after the
  /// failure was recorded, plus the backoff chosen — 0 when the retry
  /// budget is exhausted). Failure path only; never fires on healthy runs.
  void SetRetryObserver(
      std::function<void(const Request&, SimDuration)> observer) {
    retry_observer_ = std::move(observer);
  }

 private:
  struct Lane {
    SimTime busy_until = 0;
    bool pump_scheduled = false;
  };

  void Pump(Direction dir);
  /// Record the failed attempt on `req` and either schedule a retry or
  /// hand the request to its issuer via on_error (on_drop fallback).
  void HandleAttemptFailure(RequestPtr req, RequestStatus status);

  sim::Simulator& sim_;
  Config cfg_;
  RequestSource& source_;
  fault::FaultInjector* injector_ = nullptr;
  trace::Tracer* tracer_ = nullptr;
  remote::ServerPool* pool_ = nullptr;
  std::array<Lane, 2> lanes_;
  std::array<std::deque<RequestPtr>, 2> retry_q_;
  std::array<trace::LogHistogram, 3> latency_;
  std::array<std::uint64_t, 2> dir_bytes_{};
  /// Buckets spanned by each direction's dispatches (0 = none yet).
  std::array<std::uint64_t, 2> dir_buckets_{};
  std::array<std::uint64_t, 3> completed_{};
  /// {ingress, egress} bytes per cgroup id, grown on demand.
  std::vector<std::array<std::uint64_t, 2>> cg_bytes_;
  std::uint64_t retries_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t cqe_errors_ = 0;
  std::uint64_t exhausted_ = 0;
  std::uint64_t pending_retries_ = 0;
  std::function<void(const Request&, SimDuration)> retry_observer_;
};

}  // namespace canvas::rdma
