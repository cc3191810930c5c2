// Hybrid local tier: a finite-capacity CXL/NVM-class slow-memory backend
// between local DRAM and the remote server pool (DESIGN.md §14).
//
// The tier sits where "Emulating Hybrid Memory on NUMA Hardware" puts its
// emulated slow node: same address space as DRAM (no page faults to reach
// it in real hardware; here it serves swap traffic an order of magnitude
// faster than the remote fabric and two orders faster than the disk
// backstop). Its device is the disk's: one fault::LocalDevice lane at the
// configured bandwidth plus a fixed load-to-use latency, DES-clock driven.
// Unlike the disk it has *finite capacity* and per-cgroup quotas, so
// Canvas's isolation story extends to the new level, and it keeps a
// resident index so the swap system always knows which backing level owns
// a page's copy of record.
//
// Residency protocol (single-home invariant): a page's current remote copy
// lives in exactly one of {tier, server pool, disk}. `Admit` claims tier
// residency for a (app, page) key under capacity + quota; `Release` drops
// it. The SwapSystem mirrors residency into `mem::Page::home` and
// `swapalloc::EntryMeta::home` (SwapBackend::kLocalTier), and the
// `content_version` oracle extends across tier writebacks and failover
// unchanged. Pages enter the tier only by writeback (eviction or failover
// redirect) and leave it when their residency is released.
//
// Tier-targeted fault windows (`tier-latency`, `tier-freeze` in the
// FaultPlan grammar) are evaluated as pure functions of simulated time —
// no RNG draws — so tiered runs under a fault plan replay bit-identically.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "common/types.h"
#include "fault/fault_plan.h"
#include "fault/local_device.h"
#include "rdma/request.h"
#include "sim/simulator.h"

namespace canvas::tier {

struct TierConfig {
  /// Capacity in 4KB pages; 0 disables the subsystem entirely (the swap
  /// system never constructs a backend and output is byte-identical to
  /// pre-tier builds).
  std::uint64_t capacity_pages = 0;
  /// Sustained transfer rate of the slow-memory device.
  double bandwidth_bytes_per_sec = 12.0e9;
  /// Fixed submission -> completion latency (load-to-use + controller).
  SimDuration latency = 800;
  /// Per-cgroup share of the capacity (isolation quota): no cgroup may
  /// hold more than max(1, capacity_pages * quota_frac) tier pages.
  double quota_frac = 0.5;

  /// Name of the tier preset this config came from ("none", "cxl", "nvm").
  std::string name = "none";

  bool enabled() const { return capacity_pages > 0; }
  /// The per-cgroup residency quota in pages.
  std::uint64_t CgroupQuota() const;

  /// Tier preset registry (mirrors remote::PoolConfig::FromName). Throws
  /// std::invalid_argument on unknown names.
  static TierConfig FromName(const std::string& name);
  static std::vector<std::pair<std::string, std::string>> ListTiers();

  bool operator==(const TierConfig&) const = default;
};

/// Slow-memory device + residency/quota bookkeeping + tier fault windows.
class TierBackend {
 public:
  TierBackend(sim::Simulator& sim, TierConfig cfg,
              std::shared_ptr<const fault::FaultPlan> plan);

  /// Claim tier residency for `key` charged to `cg`. Idempotent for an
  /// already-resident key (returns true without re-charging). Fails —
  /// returning false and counting a reject — when the tier is at capacity,
  /// the cgroup is at quota, or a tier-freeze fault window is active.
  bool Admit(std::uint64_t key, CgroupId cg);
  /// Drop residency for `key` (no-op when absent).
  void Release(std::uint64_t key);
  bool Contains(std::uint64_t key) const { return residents_.Contains(key); }

  /// Submit a page transfer to the tier's device, plus any tier-latency
  /// spike covering now. Always succeeds (residency was checked by the
  /// caller; a freeze window delays service, it does not lose data).
  void Submit(rdma::RequestPtr req) {
    device_.Submit(std::move(req), ExtraLatency(sim_.Now()));
  }

  const TierConfig& config() const { return cfg_; }
  /// The slow-memory device: read/write/inflight counters and the
  /// completion latency distribution.
  const fault::LocalDevice& device() const { return device_; }
  std::uint64_t used_pages() const { return residents_.size(); }
  std::uint64_t quota() const { return quota_; }
  std::uint64_t cgroup_used(CgroupId cg) const;

  std::uint64_t admits() const { return admits_; }
  std::uint64_t releases() const { return releases_; }
  std::uint64_t rejects() const { return rejects_; }
  std::uint64_t peak_used() const { return peak_used_; }

  /// True while a tier-freeze fault window covers `t`.
  bool Frozen(SimTime t) const;
  /// Sum of tier-latency-spike extras covering `t`.
  SimDuration ExtraLatency(SimTime t) const;

 private:
  sim::Simulator& sim_;
  TierConfig cfg_;
  std::uint64_t quota_ = 0;
  fault::LocalDevice device_;

  /// Resident (app, page) keys -> the cgroup charged for the quota.
  FlatMap64<CgroupId> residents_;
  /// Per-cgroup residency counts, indexed by cgroup id (ids are small
  /// creation-order integers).
  std::vector<std::uint64_t> cg_used_;

  // Tier-targeted fault windows, copied out of the shared plan.
  std::vector<fault::TierLatencySpike> latency_windows_;
  std::vector<fault::TierFreeze> freeze_windows_;

  std::uint64_t admits_ = 0;
  std::uint64_t releases_ = 0;
  std::uint64_t rejects_ = 0;
  std::uint64_t peak_used_ = 0;
};

}  // namespace canvas::tier
