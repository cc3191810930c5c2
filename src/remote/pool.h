// ServerPool: the far side of the RDMA fabric as a set of memory servers
// (DESIGN.md §11).
//
// Swap partitions shard onto servers at slab granularity (a slab is
// `slab_entries` consecutive swap entries). A slab is placed lazily on
// first use by the configured PlacementPolicy; every slab has exactly ONE
// home at any instant — a server, the disk backend, or "unplaced" — which
// structurally enforces the no-dual-residency property.
//
// Harvesting (Memtrade-style) shrinks a server's capacity on a seeded
// schedule; the pool responds by migrating the victim slabs to another
// server (bulk copy modeled on the source's migration lane) or, when no
// server has room, evicting them to the disk backend via the registered
// handler (SwapSystem then redirects queued and in-flight requests using
// the incarnation/content_version machinery).
//
// A "transparent" server (unlimited capacity, zero bandwidth/latency/
// congestion) adds no timing: completions pass through unmodified and no
// events are scheduled. The default `single` topology is a pool of one
// such server, so every swap request takes the same routed path.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "remote/harvest.h"
#include "remote/placement.h"
#include "remote/server.h"
#include "sim/simulator.h"

namespace canvas::trace {
class Tracer;
}

namespace canvas::remote {

struct PoolConfig {
  /// Empty = the default `single` topology: ServerPool builds one
  /// transparent server `ms0`.
  std::vector<ServerConfig> servers;
  /// Slab size in swap entries (4096 entries = 16 MiB of pages).
  std::uint64_t slab_entries = 4096;
  PlacementKind placement = PlacementKind::kPowerOfTwo;
  HarvestConfig harvest;
  /// Name of the topology preset this config came from ("single", ...).
  std::string topology = "single";
  SimDuration series_bucket = 100 * kMillisecond;

  /// True for the default `single` topology. Its reports keep their
  /// pre-pool shape: no "remote" section and no pool fields.
  bool single() const { return servers.empty(); }

  /// Topology preset registry (mirrors SystemConfig::FromName). Throws
  /// std::invalid_argument on unknown names.
  static PoolConfig FromName(const std::string& name);
  static std::vector<std::pair<std::string, std::string>> ListTopologies();

  bool operator==(const PoolConfig&) const = default;
};

class ServerPool {
 public:
  ServerPool(sim::Simulator& sim, PoolConfig cfg);

  void AttachTracer(trace::Tracer* t) { tracer_ = t; }

  /// Called when a slab's entries move to the disk backend; receiver must
  /// redirect queued/in-flight requests for entries in [lo, hi).
  using SlabEvictedHandler =
      std::function<void(std::uint32_t pid, std::uint64_t lo,
                         std::uint64_t hi)>;
  void SetSlabEvictedHandler(SlabEvictedHandler h) { on_evict_ = std::move(h); }

  /// Registers a swap partition of `entries` capacity; returns its pool id.
  /// Ids released by ReleasePartition are recycled lowest-first, so under
  /// tenant churn the partition table stays O(active tenants) and id
  /// assignment is deterministic.
  std::uint32_t RegisterPartition(std::uint64_t entries);

  /// Tenant retirement (DESIGN.md §15): every remote-homed slab of `pid`
  /// is returned to its server (holdings and placement lists shrink),
  /// disk-homed and unplaced slabs are forgotten, and the id becomes
  /// eligible for reuse. The caller must have drained all requests for the
  /// partition first. Returns the number of slabs returned to servers.
  std::uint64_t ReleasePartition(std::uint32_t pid);

  /// Schedules the harvest plan, unless every server is unlimited (then
  /// nothing is harvestable). `active` gates the recurring generator so it
  /// stops once the workload drains (nullptr = always active).
  void Start(std::function<bool()> active);

  // --- placement & routing ---

  /// Home of `entry`'s slab, placing the slab first if it has never been
  /// touched. Returns a server id or kServerDisk (nothing eligible).
  ServerId EnsurePlaced(std::uint32_t pid, std::uint64_t entry);
  /// Current routing target at NIC dispatch time. Disk-homed slabs forward
  /// through their last remote home (kNoServer if they never had one).
  ServerId RouteAtDispatch(std::uint32_t pid, std::uint64_t entry) const;
  /// True if the slab holding `entry` is currently homed on disk.
  bool OnDisk(std::uint32_t pid, std::uint64_t entry) const;
  ServerId HomeOf(std::uint32_t pid, std::uint64_t entry) const;

  // --- server-side service model (called from the NIC) ---

  /// Folds server link serialization + base latency + queue-depth
  /// congestion into `completion`; `start` is the NIC-lane serialization
  /// end. Increments the inflight depth. Transparent servers return
  /// `completion` unchanged.
  SimTime BeginService(ServerId id, int dir, std::uint64_t bytes,
                       SimTime start, SimTime completion);
  /// Balances BeginService at the attempt's terminal event.
  void EndService(ServerId id);

  // --- failover & harvesting ---

  /// Per-server blackout onset: marks the server down and evicts all its
  /// slabs to the disk backend (the backup path — data on an unreachable
  /// server is re-fetched from disk, not migrated).
  void MarkServerDown(ServerId id);
  void MarkServerUp(ServerId id);
  /// Applies one capacity-delta event (negative = reclaim). Exposed for
  /// tests; the seeded generator calls this internally.
  void ApplyHarvest(const HarvestEvent& e);

  // --- metrics ---

  const PoolConfig& config() const { return cfg_; }
  const std::vector<ServerState>& servers() const { return servers_; }
  std::uint64_t slabs_placed() const { return slabs_placed_; }
  std::uint64_t migrations() const { return migrations_; }
  std::uint64_t evictions_to_disk() const { return evictions_to_disk_; }
  std::uint64_t harvest_events() const { return harvest_events_; }
  std::uint64_t unplaceable() const { return unplaceable_; }
  std::uint64_t partitions_released() const { return partitions_released_; }
  std::uint64_t slabs_released() const { return slabs_released_; }
  /// Instantaneous pool occupancy: held / current capacity over finite,
  /// reachable servers (0 when none).
  double Occupancy() const;
  /// The closed-loop controller's smoothed occupancy signal.
  double occupancy_ewma() const { return util_ewma_; }
  std::uint64_t control_ticks() const { return control_ticks_; }
  std::uint64_t control_harvests() const { return control_harvests_; }
  std::uint64_t control_returns() const { return control_returns_; }
  /// max(peak_slabs_held) * N / sum(peak_slabs_held): 1.0 = perfectly even
  /// peaks, N = one server absorbed everything.
  double PeakImbalance() const;
  /// Coefficient of variation of peak slab counts across servers.
  double OccupancyCV() const;

  /// Recomputes per-server holdings from the slab tables and checks them
  /// against the live counters (single-home + capacity conservation).
  bool Audit(std::string* err) const;

 private:
  struct SlabInfo {
    ServerId home = kSlabUnplaced;
    ServerId last_remote = kNoServer;
  };
  struct PartitionShard {
    std::uint64_t entries = 0;
    std::vector<SlabInfo> slabs;
  };
  struct SlabRef {
    std::uint32_t pid;
    std::uint32_t slab;
  };

  SlabInfo& SlabFor(std::uint32_t pid, std::uint64_t entry);
  const SlabInfo& SlabFor(std::uint32_t pid, std::uint64_t entry) const;
  /// Unlinks `ref` from `id`'s placed list (scans from the back — the
  /// harvest/failover paths always remove the newest slab, so this stays
  /// O(1) for them; tenant-targeted migration pays the scan).
  void RemovePlaced(ServerId id, SlabRef ref);
  /// Shrinks `id` until holdings fit capacity: migrate victims (newest
  /// first) if any server has room, else evict to disk.
  void ShedOverflow(ServerId id);
  void MigrateSlab(ServerId src, ServerId dst, SlabRef ref);
  void EvictSlabToDisk(ServerId src, SlabRef ref);
  void ScheduleNextHarvest();
  void ReturnCapacity(ServerId id, std::uint64_t slabs);
  /// Closed-loop supply/demand controller (DESIGN.md §15): periodic tick
  /// that EWMA-smooths Occupancy() and moves a fixed step of capacity per
  /// action to steer it into a fixed band. Consumes no RNG.
  void ScheduleControlTick();
  void ControlTick();

  sim::Simulator& sim_;
  PoolConfig cfg_;
  std::vector<ServerState> servers_;
  std::vector<PartitionShard> partitions_;
  /// Per-server placed slabs in placement order (back = newest = first
  /// migration victim).
  std::vector<std::vector<SlabRef>> placed_;
  std::unique_ptr<PlacementPolicy> policy_;
  Rng placement_rng_;
  Rng harvest_rng_;
  trace::Tracer* tracer_ = nullptr;
  SlabEvictedHandler on_evict_;
  std::function<bool()> active_;

  /// Released partition ids as a min-heap (std::greater): RegisterPartition
  /// reuses the lowest id first, deterministically.
  std::vector<std::uint32_t> free_pids_;

  std::uint64_t slabs_placed_ = 0;
  std::uint64_t migrations_ = 0;
  std::uint64_t evictions_to_disk_ = 0;
  std::uint64_t harvest_events_ = 0;
  std::uint64_t unplaceable_ = 0;
  std::uint64_t partitions_released_ = 0;
  std::uint64_t slabs_released_ = 0;
  double util_ewma_ = 0.0;
  bool ewma_primed_ = false;
  std::uint64_t control_ticks_ = 0;
  std::uint64_t control_harvests_ = 0;
  std::uint64_t control_returns_ = 0;
};

}  // namespace canvas::remote
