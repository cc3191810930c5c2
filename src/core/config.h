// System configuration: every swap system the paper evaluates is a setting
// of these switches over the same substrate (DESIGN.md §2).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fault/disk_backend.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "rdma/nic.h"
#include "remote/pool.h"
#include "sched/timeliness.h"
#include "swapalloc/partition.h"
#include "swapalloc/reservation.h"
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

struct SystemConfig {
  std::string name = "custom";

  // --- isolation (§4) ---
  bool isolated_partitions = false;  // per-cgroup swap partitions
  bool isolated_caches = false;      // per-cgroup private swap caches

  // --- swap entry allocation (§5.1) ---
  swapalloc::AllocatorKind allocator = swapalloc::AllocatorKind::kFreelist;
  bool adaptive_alloc = false;  // Canvas reservation scheme
  swapalloc::ReservationManager::Config reservation;
  swapalloc::FreelistAllocator::Config freelist;
  swapalloc::ClusterAllocator::Config cluster;

  // --- prefetching (§5.2) ---
  PrefetcherKind prefetcher = PrefetcherKind::kReadahead;
  /// Prefetcher detector state shared across apps (true for the shared swap
  /// systems; Canvas always uses per-cgroup state).
  bool prefetcher_shared_state = true;
  /// Cap on outstanding prefetch requests per application (the kernel
  /// bounds readahead the same way via the window size).
  std::uint32_t max_inflight_prefetch = 96;
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
  fault::RecoveryConfig recovery;
  fault::DiskBackend::Config disk;

  // --- remote memory-server pool (DESIGN.md §11) ---
  /// Server topology behind the NIC. The default (no servers) is the
  /// single-infinite-server fast path, byte-identical to pre-pool builds;
  /// see remote::PoolConfig::FromName for the preset registry.
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
    /// Behaviours fetched ahead of the running one, per thread.
    std::uint32_t lookahead = 2;
    /// Per-cgroup cap on concurrently pinned pages across open behaviours
    /// (0 = 1/4 of the cgroup's local memory). The front behaviour is
    /// always admitted, so the cap gates lookahead only.
    std::uint64_t max_pinned_pages = 0;
    /// Registry quotas applied to each app's registry at admission
    /// (0 = unbounded): live objects and total span pages per cgroup.
    std::uint64_t max_objects = 0;
    std::uint64_t max_object_pages = 0;
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

  // --- fault-path cost model (ns) ---
  SimDuration fault_entry_cost = 800;   // trap + swap-cache lookup
  SimDuration map_cost = 600;           // map a cached page (minor fault)
  SimDuration first_touch_cost = 900;   // zero-fill a new page
  SimDuration evict_page_cost = 250;    // per victim: scan + unmap
  std::uint32_t reclaim_batch = 32;     // SWAP_CLUSTER_MAX
  /// kswapd watermark: background reclaim keeps this many frames free so
  /// faulting threads rarely enter direct reclaim.
  std::uint32_t kswapd_headroom = 16;
  SimDuration kswapd_period = 500 * 1000;  // 500us
  /// Entries stripped from clean resident pages when the partition is full
  /// (Linux 5.5 entry-keeping release).
  std::uint32_t strip_batch = 64;
  /// Entry-keeping for clean pages is enabled only while the partition's
  /// free fraction exceeds this threshold (Appendix B: "entry keeping
  /// starts when the percentage of available swap entries exceeds this
  /// threshold"); below it, swap-in frees the entry. Not used by the
  /// adaptive (reservation) allocator, which manages entries itself.
  double entry_keep_free_threshold = 0.25;

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
};

}  // namespace canvas::core
