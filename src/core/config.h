// System configuration: every swap system the paper evaluates is a setting
// of these switches over the same substrate (DESIGN.md §2).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "rdma/nic.h"
#include "remote/pool.h"
#include "sched/timeliness.h"
#include "swapalloc/partition.h"
#include "tier/tier.h"
#include "trace/trace.h"

namespace canvas::core {

/// One entry of the preset registry (see SystemConfig::ListPresets).
struct PresetInfo {
  std::string_view name;         ///< canonical CLI name ("canvas")
  std::string_view description;  ///< one-line summary for list output
  std::vector<std::string_view> aliases;
};

enum class PrefetcherKind : std::uint8_t {
  kNone,
  kReadahead,  // kernel VMA readahead
  kLeap,       // Leap majority-vote, aggressive fallback
  kTwoTier,    // Canvas kernel tier + application tier
};

enum class SchedulerKind : std::uint8_t {
  kFifo,      // single shared dispatch queue (Linux / Infiniswap)
  kFastswap,  // sync/async priority, no fairness
  kTwoDim,    // Canvas VQPs: vertical WFQ + horizontal priority
};

/// Pages one background reclaim pass evicts (SWAP_CLUSTER_MAX); prefetches
/// may also overshoot the memory budget by this much (watermark slack).
inline constexpr std::uint32_t kReclaimBatch = 32;
/// Cap on outstanding prefetch requests per application (the kernel bounds
/// readahead the same way via the window size).
inline constexpr std::uint32_t kMaxInflightPrefetch = 96;

struct SystemConfig {
  std::string name = "custom";

  // --- isolation (§4) ---
  bool isolated_partitions = false;  // per-cgroup swap partitions
  bool isolated_caches = false;      // per-cgroup private swap caches

  // --- swap entry allocation (§5.1) ---
  swapalloc::AllocatorKind allocator = swapalloc::AllocatorKind::kFreelist;
  bool adaptive_alloc = false;  // Canvas reservation scheme

  // --- prefetching (§5.2) ---
  PrefetcherKind prefetcher = PrefetcherKind::kReadahead;
  /// Prefetcher detector state shared across apps (true for the shared swap
  /// systems; Canvas always uses per-cgroup state).
  bool prefetcher_shared_state = true;
  /// Per-VMA readahead state (the policy the paper tunes Linux 5.5 with);
  /// false models older kernels' single readahead context (Infiniswap).
  bool per_vma_readahead = true;

  // --- RDMA scheduling (§5.3) ---
  SchedulerKind scheduler = SchedulerKind::kFifo;
  bool horizontal_sched = false;  // timeliness dropping + blocked-thread rescue
  sched::TimelinessTracker::Config timeliness;
  rdma::Nic::Config nic;

  // --- fault injection & recovery (DESIGN.md §8) ---
  /// Fabric degradation schedule. Null or empty keeps every fault hook on
  /// its constant fast path — runs are byte-identical to a build without
  /// the fault subsystem.
  std::shared_ptr<const fault::FaultPlan> fault_plan;
  /// Seed for the injector's RNG stream (CQE draws + backoff jitter).
  std::uint64_t fault_seed = 0x1234'5678'9abc'def0ull;

  // --- remote memory-server pool (DESIGN.md §11) ---
  /// Server topology behind the NIC. The default (no servers) is
  /// `single`, a pool of one transparent server whose reports are
  /// byte-identical to pre-pool builds; see remote::PoolConfig::FromName
  /// for the preset registry.
  remote::PoolConfig remote;

  // --- hybrid local tier (DESIGN.md §14) ---
  /// CXL/NVM-class slow-memory layer between DRAM and the remote pool. The
  /// default (capacity 0) disables the subsystem; output is then
  /// byte-identical to pre-tier builds. See tier::TierConfig::FromName for
  /// the preset registry ("none", "cxl", "nvm").
  tier::TierConfig tier;

  // --- object-granularity cooperative swapping (DESIGN.md §16) ---
  /// Behaviour-scheduled object fetching layered on the per-app
  /// ObjectRegistry. Off (default) keeps every hook on its constant fast
  /// path — no registry is attached, no pin is ever taken, and reports are
  /// byte-identical to pre-object builds. Enabling it only changes
  /// applications whose workload ships an object registry (e.g. "chase");
  /// page-granular apps run unchanged either way.
  struct ObjectConfig {
    bool enabled = false;

    bool operator==(const ObjectConfig&) const = default;
  };
  ObjectConfig objects;

  /// Unread; kept only for perfbench/, and goes in the next benchmark change.
  unsigned sim_threads = 1;

  // --- tracing & telemetry (DESIGN.md §9) ---
  /// Runtime-toggleable sim-time tracing: span/instant records on the
  /// fault/RDMA paths plus the periodic per-cgroup counter sampler. Off by
  /// default; recording never perturbs event order, and the always-on
  /// fault-latency histograms are independent of this switch.
  trace::TraceConfig trace;

  /// kswapd watermark: background reclaim keeps this many frames free so
  /// faulting threads rarely enter direct reclaim.
  std::uint32_t kswapd_headroom = 16;

  // --- presets (the systems of Figures 9-11) ---
  static SystemConfig Linux55();
  static SystemConfig Infiniswap();
  static SystemConfig InfiniswapLeap();
  static SystemConfig Fastswap();
  /// Canvas with only the isolated swap system + vertical RDMA fairness
  /// (the §6.3 variant).
  static SystemConfig CanvasIsolation();
  /// Canvas with all adaptive optimizations (§5).
  static SystemConfig CanvasFull();

  /// Registry lookup by preset name or alias ("linux", "linux-5.5",
  /// "canvas", ...). The single source of truth for every CLI / bench /
  /// sweep surface; returns nullopt for unknown names.
  static std::optional<SystemConfig> FromName(std::string_view name);
  /// All registered presets in display order.
  static const std::vector<PresetInfo>& ListPresets();

  /// Field-wise; two configs that compare equal run identically (the
  /// fault plan compares by identity).
  bool operator==(const SystemConfig&) const = default;
};

}  // namespace canvas::core
