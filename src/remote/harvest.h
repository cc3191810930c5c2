// Harvesting model (Memtrade-style): memory servers are harvested VMs whose
// producer can reclaim capacity at any time. A HarvestConfig is either an
// explicit event list (tests) or a seeded generator (benches) producing
// capacity-delta events; the pool applies them, evicting or migrating slabs
// when a server shrinks below its current holdings.
//
// Events are pure data — all scheduling happens in ServerPool::Start so the
// whole schedule is replayable from (config, seed).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "remote/server.h"

namespace canvas::remote {

struct HarvestEvent {
  SimTime at = 0;
  ServerId server = 0;
  /// Negative: producer reclaims capacity (harvest). Positive: returns it.
  std::int64_t delta_slabs = 0;

  bool operator==(const HarvestEvent&) const = default;
};

struct HarvestConfig {
  /// Explicit schedule, applied verbatim (in addition to the generator).
  std::vector<HarvestEvent> events;

  /// Seeded generator: every `period` (+/- jitter), one server (seeded pick
  /// among those with finite capacity) loses `slabs` of capacity, returned
  /// after `hold` (0 = never returned). period == 0 disables the generator.
  SimDuration period = 0;
  double jitter_frac = 0.0;
  std::uint64_t slabs = 0;
  SimDuration hold = 0;
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;

  // --- closed-loop controller (DESIGN.md §15) ---
  // Supply/demand control replacing the open-loop seeded schedule: the pool
  // tracks an EWMA of its own occupancy (allocation pressure) and steers
  // per-server capacity toward a fixed occupancy band (ServerPool's
  // controller constants) — occupancy above the band returns harvested
  // capacity to the tenants, occupancy below it lets the producer reclaim
  // more. No RNG is consumed, so churn runs stay bit-for-bit deterministic
  // at any thread count.
  /// Control-tick period; 0 disables the controller. When set, it replaces
  /// the seeded generator above (explicit `events` still apply).
  SimDuration control_period = 0;

  bool closed_loop() const { return control_period > 0; }
  bool active() const {
    return period > 0 || control_period > 0 || !events.empty();
  }

  /// Preset registry, matching the SystemConfig / PoolConfig / TierConfig
  /// FromName convention (the harvest axis of canvasctl and the benches).
  /// Throws std::invalid_argument on unknown names.
  static HarvestConfig FromName(const std::string& name);
  static std::vector<std::pair<std::string, std::string>> ListPresets();

  bool operator==(const HarvestConfig&) const = default;
};

}  // namespace canvas::remote
