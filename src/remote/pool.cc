#include "remote/pool.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "trace/trace.h"

namespace canvas::remote {

namespace {

constexpr std::uint64_t kPlacementSeed = 0xc0ffee'5eedull;
/// Bulk-copy rate for live slab migration between servers.
constexpr double kMigrationBandwidthBytesPerSec = 2.4e9;

// Closed-loop harvest controller (DESIGN.md §15).
/// EWMA smoothing factor for the occupancy signal, in (0, 1].
constexpr double kEwmaAlpha = 0.3;
/// Occupancy band the controller steers toward.
constexpr double kTargetLo = 0.45;
constexpr double kTargetHi = 0.75;
/// Capacity moved per control action (slabs).
constexpr std::uint64_t kControlStepSlabs = 4;
/// Floor the controller never harvests a server below (slabs).
constexpr std::uint64_t kMinCapacitySlabs = 16;

PoolConfig MakePool(int n) {
  // Per-server link slightly below the NIC rate so fan-in to one server can
  // saturate its destination even when the initiator NIC has headroom —
  // the per-destination bottleneck the flat fabric model lacks.
  PoolConfig cfg;
  for (int i = 0; i < n; ++i)
    cfg.servers.push_back({.name = "ms" + std::to_string(i),
                           .capacity_slabs = 256,
                           .bandwidth_bytes_per_sec = 4.8e9,
                           .base_latency = 1 * kMicrosecond,
                           .congestion_per_inflight = SimDuration(150),
                           .congestion_cap = 20 * kMicrosecond});
  return cfg;
}

}  // namespace

PoolConfig PoolConfig::FromName(const std::string& name) {
  PoolConfig cfg;  // "single": no servers, so one transparent server
  if (name == "pool2" || name == "pool8") {
    cfg = MakePool(name == "pool2" ? 2 : 8);
  } else if (name == "pool4" || name == "pool4-harvest") {
    cfg = MakePool(4);
  } else if (name != "single") {
    throw std::invalid_argument(
        "unknown server topology '" + name +
        "' (known: single, pool2, pool4, pool8, pool4-harvest)");
  }
  cfg.topology = name;
  if (name == "pool4-harvest") {
    for (ServerConfig& s : cfg.servers) s.capacity_slabs = 64;
    cfg.harvest = HarvestConfig::FromName("steady");
  }
  return cfg;
}

std::vector<std::pair<std::string, std::string>> PoolConfig::ListTopologies() {
  return {
      {"single", "1 unlimited zero-cost server: flat fabric (default)"},
      {"pool2", "2 servers, 256 slabs each, congestion-aware links"},
      {"pool4", "4 servers, 256 slabs each, congestion-aware links"},
      {"pool8", "8 servers, 256 slabs each, congestion-aware links"},
      {"pool4-harvest", "4 tight servers + seeded Memtrade-style harvesting"},
  };
}

ServerPool::ServerPool(sim::Simulator& sim, PoolConfig cfg)
    : sim_(sim),
      cfg_(std::move(cfg)),
      policy_(MakePlacementPolicy(cfg_.placement)),
      placement_rng_(kPlacementSeed),
      harvest_rng_(cfg_.harvest.seed) {
  if (cfg_.single())
    servers_.emplace_back(ServerConfig{.name = "ms0"}, cfg_.series_bucket);
  for (const ServerConfig& s : cfg_.servers)
    servers_.emplace_back(s, cfg_.series_bucket);
  placed_.resize(servers_.size());
}

std::uint32_t ServerPool::RegisterPartition(std::uint64_t entries) {
  PartitionShard shard;
  shard.entries = entries;
  shard.slabs.resize(
      std::size_t((entries + cfg_.slab_entries - 1) / cfg_.slab_entries));
  if (!free_pids_.empty()) {
    std::pop_heap(free_pids_.begin(), free_pids_.end(),
                  std::greater<std::uint32_t>());
    std::uint32_t pid = free_pids_.back();
    free_pids_.pop_back();
    partitions_[pid] = std::move(shard);
    return pid;
  }
  partitions_.push_back(std::move(shard));
  return std::uint32_t(partitions_.size() - 1);
}

std::uint64_t ServerPool::ReleasePartition(std::uint32_t pid) {
  PartitionShard& part = partitions_.at(pid);
  std::uint64_t returned = 0;
  for (std::uint32_t s = 0; s < part.slabs.size(); ++s) {
    SlabInfo& slab = part.slabs[s];
    if (slab.home >= 0) {
      RemovePlaced(slab.home, {pid, s});
      --servers_[std::size_t(slab.home)].slabs_held;
      ++returned;
    }
    // Disk-homed and unplaced slabs carry no server holdings; the disk
    // backend's copy becomes garbage with the tenant's entries.
    slab = SlabInfo{};
  }
  part.slabs.clear();
  part.slabs.shrink_to_fit();
  part.entries = 0;
  free_pids_.push_back(pid);
  std::push_heap(free_pids_.begin(), free_pids_.end(),
                 std::greater<std::uint32_t>());
  ++partitions_released_;
  slabs_released_ += returned;
  return returned;
}

void ServerPool::Start(std::function<bool()> active) {
  active_ = std::move(active);
  // Only finite servers are harvested. Without one (the default `single`
  // topology) a harvest schedule has nothing to act on, so it adds no
  // events.
  auto finite = [](const ServerState& s) { return s.cfg.capacity_slabs > 0; };
  if (std::none_of(servers_.begin(), servers_.end(), finite)) return;
  for (const HarvestEvent& e : cfg_.harvest.events)
    sim_.ScheduleAt(e.at, [this, e] { ApplyHarvest(e); });
  // The closed-loop controller replaces the open-loop seeded generator.
  if (cfg_.harvest.closed_loop()) ScheduleControlTick();
  else if (cfg_.harvest.period > 0) ScheduleNextHarvest();
}

ServerPool::SlabInfo& ServerPool::SlabFor(std::uint32_t pid,
                                          std::uint64_t entry) {
  return partitions_.at(pid).slabs.at(std::size_t(entry / cfg_.slab_entries));
}

const ServerPool::SlabInfo& ServerPool::SlabFor(std::uint32_t pid,
                                                std::uint64_t entry) const {
  return partitions_.at(pid).slabs.at(std::size_t(entry / cfg_.slab_entries));
}

ServerId ServerPool::EnsurePlaced(std::uint32_t pid, std::uint64_t entry) {
  SlabInfo& slab = SlabFor(pid, entry);
  if (slab.home != kSlabUnplaced) return slab.home;
  std::uint32_t index = std::uint32_t(entry / cfg_.slab_entries);
  ServerId target = policy_->Pick(servers_, kNoServer, placement_rng_);
  if (target == kNoServer) {
    // Every server full or down: the slab is disk-homed from birth.
    slab.home = kServerDisk;
    ++unplaceable_;
    if (tracer_)
      tracer_->Instant(trace::kRemotePoolPid, 0, trace::Name::kSlabToDiskEvt,
                       sim_.Now(), index);
    return slab.home;
  }
  slab.home = target;
  slab.last_remote = target;
  ServerState& s = servers_[std::size_t(target)];
  ++s.slabs_held;
  s.peak_slabs_held = std::max(s.peak_slabs_held, s.slabs_held);
  placed_[std::size_t(target)].push_back({pid, index});
  ++slabs_placed_;
  if (tracer_)
    tracer_->Instant(trace::kRemotePoolPid, std::uint32_t(target),
                     trace::Name::kSlabPlaceEvt, sim_.Now(), index);
  return target;
}

ServerId ServerPool::RouteAtDispatch(std::uint32_t pid,
                                     std::uint64_t entry) const {
  const SlabInfo& slab = SlabFor(pid, entry);
  if (slab.home >= 0) return slab.home;
  // Disk-homed (or never-placed) slabs: requests still in the fabric are
  // forwarded through the slab's last remote home; the issuer's disk
  // redirection (incarnation bump / served-by check) owns correctness.
  return slab.last_remote;
}

bool ServerPool::OnDisk(std::uint32_t pid, std::uint64_t entry) const {
  return SlabFor(pid, entry).home == kServerDisk;
}

ServerId ServerPool::HomeOf(std::uint32_t pid, std::uint64_t entry) const {
  return SlabFor(pid, entry).home;
}

SimTime ServerPool::BeginService(ServerId id, int dir, std::uint64_t bytes,
                                 SimTime start, SimTime completion) {
  ServerState& s = servers_.at(std::size_t(id));
  SimTime done = completion;
  if (s.cfg.bandwidth_bytes_per_sec > 0) {
    // The server link serializes independently of the initiator NIC lane:
    // fan-in from many cgroups queues here even when the NIC has headroom.
    SimTime begin = std::max(start, s.busy_until[std::size_t(dir)]);
    auto ser = SimDuration(double(bytes) / s.cfg.bandwidth_bytes_per_sec *
                           double(kSecond));
    s.busy_until[std::size_t(dir)] = begin + ser;
    done = std::max(done, s.busy_until[std::size_t(dir)]);
  }
  SimDuration congestion =
      SimDuration(double(s.cfg.congestion_per_inflight) * double(s.inflight));
  if (s.cfg.congestion_cap > 0)
    congestion = std::min(congestion, s.cfg.congestion_cap);
  done += s.cfg.base_latency + congestion;
  ++s.inflight;
  s.peak_inflight = std::max(s.peak_inflight, s.inflight);
  s.bytes[std::size_t(dir)] += double(bytes);
  s.bytes_series[std::size_t(dir)].Add(start, double(bytes));
  return done;
}

void ServerPool::EndService(ServerId id) {
  ServerState& s = servers_.at(std::size_t(id));
  if (s.inflight > 0) --s.inflight;
  ++s.requests_served;
}

void ServerPool::MarkServerDown(ServerId id) {
  ServerState& s = servers_.at(std::size_t(id));
  if (s.down) return;
  s.down = true;
  // Failover: data on an unreachable server cannot be copied out, so every
  // slab it held flips to the disk backend (the backup path) and the
  // issuer redirects outstanding work there.
  auto& list = placed_[std::size_t(id)];
  while (!list.empty()) {
    SlabRef ref = list.back();
    EvictSlabToDisk(id, ref);
  }
}

void ServerPool::MarkServerUp(ServerId id) {
  servers_.at(std::size_t(id)).down = false;
}

void ServerPool::ApplyHarvest(const HarvestEvent& e) {
  ServerState& s = servers_.at(std::size_t(e.server));
  if (s.cfg.capacity_slabs == 0) return;  // unlimited servers aren't harvested
  ++harvest_events_;
  ++s.harvest_events;
  if (e.delta_slabs < 0) {
    std::uint64_t take =
        std::min(s.capacity_slabs, std::uint64_t(-e.delta_slabs));
    s.capacity_slabs -= take;
    s.slabs_harvested += take;
    if (tracer_)
      tracer_->Instant(trace::kRemotePoolPid, std::uint32_t(e.server),
                       trace::Name::kHarvestEvt, sim_.Now(), take);
    ShedOverflow(e.server);
  } else {
    ReturnCapacity(e.server, std::uint64_t(e.delta_slabs));
  }
}

void ServerPool::ShedOverflow(ServerId id) {
  ServerState& s = servers_[std::size_t(id)];
  auto& list = placed_[std::size_t(id)];
  while (s.slabs_held > s.capacity_slabs && !list.empty()) {
    SlabRef ref = list.back();
    // Newest-placed slab is the victim: deterministic, and the cheapest
    // choice to re-balance since cold slabs stay put.
    ServerId target = policy_->Pick(servers_, id, placement_rng_);
    if (target != kNoServer) {
      MigrateSlab(id, target, ref);
    } else {
      EvictSlabToDisk(id, ref);
    }
  }
}

void ServerPool::RemovePlaced(ServerId id, SlabRef ref) {
  auto& list = placed_[std::size_t(id)];
  for (auto it = list.rbegin(); it != list.rend(); ++it) {
    if (it->pid == ref.pid && it->slab == ref.slab) {
      list.erase(std::next(it).base());
      return;
    }
  }
}

void ServerPool::MigrateSlab(ServerId src, ServerId dst, SlabRef ref) {
  ServerState& from = servers_[std::size_t(src)];
  ServerState& to = servers_[std::size_t(dst)];
  SlabInfo& slab = partitions_[ref.pid].slabs[ref.slab];
  RemovePlaced(src, ref);
  placed_[std::size_t(dst)].push_back(ref);
  --from.slabs_held;
  ++to.slabs_held;
  to.peak_slabs_held = std::max(to.peak_slabs_held, to.slabs_held);
  ++from.migrations_out;
  ++to.migrations_in;
  ++migrations_;
  // The home flips at the decision instant — a slab never has two homes.
  // The bulk copy occupies the source's migration lane for its transfer
  // time; requests dispatched meanwhile already route to the new home.
  slab.home = dst;
  slab.last_remote = dst;
  if (tracer_) {
    SimTime begin = std::max(sim_.Now(), from.migration_busy_until);
    double bw = kMigrationBandwidthBytesPerSec;
    auto bytes = double(cfg_.slab_entries) * double(kPageSize);
    auto dur = SimDuration(std::max(1.0, bytes / bw * double(kSecond)));
    from.migration_busy_until = begin + dur;
    tracer_->Span(trace::kRemotePoolPid, std::uint32_t(src),
                  trace::Name::kMigrateSpan, begin, begin + dur, ref.slab);
  }
}

void ServerPool::EvictSlabToDisk(ServerId src, SlabRef ref) {
  ServerState& from = servers_[std::size_t(src)];
  SlabInfo& slab = partitions_[ref.pid].slabs[ref.slab];
  RemovePlaced(src, ref);
  --from.slabs_held;
  slab.last_remote = slab.home;
  slab.home = kServerDisk;
  ++evictions_to_disk_;
  if (tracer_)
    tracer_->Instant(trace::kRemotePoolPid, std::uint32_t(src),
                     trace::Name::kSlabToDiskEvt, sim_.Now(), ref.slab);
  if (on_evict_) {
    std::uint64_t lo = std::uint64_t(ref.slab) * cfg_.slab_entries;
    std::uint64_t hi =
        std::min(lo + cfg_.slab_entries, partitions_[ref.pid].entries);
    on_evict_(ref.pid, lo, hi);
  }
}

void ServerPool::ScheduleNextHarvest() {
  const HarvestConfig& h = cfg_.harvest;
  double jitter =
      1.0 + h.jitter_frac * (2.0 * harvest_rng_.NextDouble() - 1.0);
  auto delay = SimDuration(std::max(1.0, double(h.period) * jitter));
  sim_.ScheduleAt(sim_.Now() + delay, [this] {
    if (active_ && !active_()) return;  // workload drained: stop generating
    std::vector<ServerId> candidates;
    for (std::size_t i = 0; i < servers_.size(); ++i)
      if (servers_[i].cfg.capacity_slabs > 0 && !servers_[i].down)
        candidates.push_back(ServerId(i));
    if (!candidates.empty()) {
      ServerId victim = candidates[std::size_t(
          harvest_rng_.NextBounded(std::uint64_t(candidates.size())))];
      ApplyHarvest({sim_.Now(), victim, -std::int64_t(cfg_.harvest.slabs)});
      if (cfg_.harvest.hold > 0) {
        std::uint64_t give = cfg_.harvest.slabs;
        sim_.ScheduleAt(sim_.Now() + cfg_.harvest.hold, [this, victim, give] {
          ReturnCapacity(victim, give);
        });
      }
    }
    ScheduleNextHarvest();
  });
}

double ServerPool::Occupancy() const {
  std::uint64_t held = 0, cap = 0;
  for (const ServerState& s : servers_) {
    if (s.cfg.capacity_slabs == 0 || s.down) continue;
    held += s.slabs_held;
    cap += s.capacity_slabs;
  }
  return cap ? double(held) / double(cap) : 0.0;
}

void ServerPool::ScheduleControlTick() {
  sim_.ScheduleAt(sim_.Now() + cfg_.harvest.control_period,
                  [this] { ControlTick(); });
}

void ServerPool::ControlTick() {
  if (active_ && !active_()) return;  // workload drained: stop the loop
  ++control_ticks_;
  double occ = Occupancy();
  if (!ewma_primed_) {
    util_ewma_ = occ;
    ewma_primed_ = true;
  } else {
    util_ewma_ = kEwmaAlpha * occ + (1.0 - kEwmaAlpha) * util_ewma_;
  }
  if (util_ewma_ > kTargetHi) {
    // Demand outstrips supply: give back harvested capacity to the most
    // harvested server (smallest current capacity relative to configured;
    // ties on the lowest id).
    ServerId victim = kNoServer;
    std::uint64_t best_deficit = 0;
    for (std::size_t i = 0; i < servers_.size(); ++i) {
      const ServerState& s = servers_[i];
      if (s.cfg.capacity_slabs == 0 || s.down) continue;
      std::uint64_t deficit = s.cfg.capacity_slabs > s.capacity_slabs
                                  ? s.cfg.capacity_slabs - s.capacity_slabs
                                  : 0;
      if (deficit > best_deficit) {
        best_deficit = deficit;
        victim = ServerId(i);
      }
    }
    if (victim != kNoServer) {
      ReturnCapacity(victim, std::min<std::uint64_t>(kControlStepSlabs,
                                                     best_deficit));
      ++control_returns_;
    }
  } else if (util_ewma_ < kTargetLo) {
    // Supply exceeds demand: the producer reclaims from the emptiest
    // server (largest free share; ties on the lowest id), never below
    // kMinCapacitySlabs.
    ServerId victim = kNoServer;
    std::uint64_t best_free = 0;
    for (std::size_t i = 0; i < servers_.size(); ++i) {
      const ServerState& s = servers_[i];
      if (s.cfg.capacity_slabs == 0 || s.down) continue;
      if (s.capacity_slabs <= kMinCapacitySlabs) continue;
      std::uint64_t free_slabs = s.capacity_slabs > s.slabs_held
                                     ? s.capacity_slabs - s.slabs_held
                                     : 0;
      if (free_slabs > best_free) {
        best_free = free_slabs;
        victim = ServerId(i);
      }
    }
    if (victim != kNoServer) {
      std::uint64_t headroom =
          servers_[std::size_t(victim)].capacity_slabs - kMinCapacitySlabs;
      std::uint64_t take = std::min(kControlStepSlabs, headroom);
      if (take > 0) {
        ApplyHarvest({sim_.Now(), victim, -std::int64_t(take)});
        ++control_harvests_;
      }
    }
  }
  ScheduleControlTick();
}

void ServerPool::ReturnCapacity(ServerId id, std::uint64_t slabs) {
  ServerState& s = servers_.at(std::size_t(id));
  if (s.cfg.capacity_slabs == 0) return;
  // Overlapping holds can't inflate a server past its configured size.
  s.capacity_slabs = std::min(s.cfg.capacity_slabs, s.capacity_slabs + slabs);
}

double ServerPool::PeakImbalance() const {
  std::uint64_t max_peak = 0, sum_peak = 0;
  for (const ServerState& s : servers_) {
    max_peak = std::max(max_peak, s.peak_slabs_held);
    sum_peak += s.peak_slabs_held;
  }
  if (sum_peak == 0) return 1.0;
  return double(max_peak) * double(servers_.size()) / double(sum_peak);
}

double ServerPool::OccupancyCV() const {
  if (servers_.empty()) return 0.0;
  double mean = 0.0;
  for (const ServerState& s : servers_) mean += double(s.peak_slabs_held);
  mean /= double(servers_.size());
  if (mean == 0.0) return 0.0;
  double var = 0.0;
  for (const ServerState& s : servers_) {
    double d = double(s.peak_slabs_held) - mean;
    var += d * d;
  }
  var /= double(servers_.size());
  return std::sqrt(var) / mean;
}

bool ServerPool::Audit(std::string* err) const {
  auto fail = [err](const std::string& m) {
    if (err) *err = m;
    return false;
  };
  std::vector<std::uint64_t> held(servers_.size(), 0);
  std::uint64_t disk_homed = 0, unplaced = 0, total = 0;
  for (const PartitionShard& part : partitions_) {
    total += part.slabs.size();
    for (const SlabInfo& slab : part.slabs) {
      if (slab.home >= 0) {
        if (std::size_t(slab.home) >= servers_.size())
          return fail("slab homed on nonexistent server");
        ++held[std::size_t(slab.home)];
      } else if (slab.home == kServerDisk) {
        ++disk_homed;
      } else if (slab.home == kSlabUnplaced) {
        ++unplaced;
      } else {
        return fail("slab has invalid home");
      }
    }
  }
  std::uint64_t live = 0;
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    if (held[i] != servers_[i].slabs_held)
      return fail("server " + std::to_string(i) + " holds " +
                  std::to_string(servers_[i].slabs_held) +
                  " slabs but the tables say " + std::to_string(held[i]));
    if (held[i] != placed_[i].size())
      return fail("server " + std::to_string(i) + " placement list out of sync");
    if (servers_[i].capacity_slabs !=
            std::numeric_limits<std::uint64_t>::max() &&
        servers_[i].slabs_held > servers_[i].capacity_slabs)
      return fail("server " + std::to_string(i) + " over capacity");
    live += held[i];
  }
  if (live + disk_homed + unplaced != total)
    return fail("slab conservation violated: " + std::to_string(live) + "+" +
                std::to_string(disk_homed) + "+" + std::to_string(unplaced) +
                " != " + std::to_string(total));
  return true;
}

}  // namespace canvas::remote
