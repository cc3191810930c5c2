// Memory-server model for the remote pool (DESIGN.md §11).
//
// A MemoryServer is one far-memory node behind the RDMA fabric: finite slab
// capacity, its own link (serialization rate + base latency), and a
// congestion model that charges extra latency per already-inflight request
// (queue-depth dependent service time — the per-destination saturation the
// single-NIC model cannot express).
//
// The defaults are deliberately "transparent": capacity 0 (unlimited),
// bandwidth 0 (no serialization), zero latency and congestion. The default
// `single` topology is a pool of one such server.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <string>

#include "common/types.h"

namespace canvas::remote {

/// Server index within a pool. Also used as the `server` target of
/// fault-plan windows (fault::kAllServers = -1 matches every server).
using ServerId = std::int32_t;

/// Request not routed through a pool (a standalone NIC), or a slab that
/// never had a remote home.
inline constexpr ServerId kNoServer = -1;
/// Slab home: evicted to the local-disk backend (terminal — the data stays
/// disk-backed until its entries are freed and rewritten).
inline constexpr ServerId kServerDisk = -2;
/// Slab home: never placed yet (first write will place it).
inline constexpr ServerId kSlabUnplaced = -3;

struct ServerConfig {
  std::string name;
  /// Capacity in slabs. 0 = unlimited (transparent default; such a server
  /// is also exempt from harvesting).
  std::uint64_t capacity_slabs = 0;
  /// Server-side link rate. 0 = no serialization delay (transparent).
  double bandwidth_bytes_per_sec = 0.0;
  /// Fixed server-side processing latency added to every request.
  SimDuration base_latency = 0;
  /// Congestion: extra latency per request already inflight at dispatch
  /// (linear queue-depth model), capped by `congestion_cap` (0 = uncapped).
  SimDuration congestion_per_inflight = 0;
  SimDuration congestion_cap = 0;

  bool operator==(const ServerConfig&) const = default;
};

/// Live per-server state owned by the ServerPool.
struct ServerState {
  explicit ServerState(const ServerConfig& c)
      : cfg(c),
        capacity_slabs(c.capacity_slabs == 0
                           ? std::numeric_limits<std::uint64_t>::max()
                           : c.capacity_slabs) {}

  ServerConfig cfg;
  /// Current capacity (harvesting removes and returns slabs over time).
  std::uint64_t capacity_slabs;
  std::uint64_t slabs_held = 0;
  std::uint64_t peak_slabs_held = 0;
  /// Requests dispatched to this server and not yet completed.
  std::uint32_t inflight = 0;
  std::uint32_t peak_inflight = 0;
  /// Per-direction link serialization horizon (ingress, egress).
  std::array<SimTime, 2> busy_until{0, 0};
  /// Bulk-copy lane for outbound slab migrations (keeps migration spans on
  /// this server's trace track non-overlapping).
  SimTime migration_busy_until = 0;
  bool down = false;

  // --- metrics ---
  std::uint64_t requests_served = 0;
  std::array<double, 2> bytes{0.0, 0.0};
  std::uint64_t harvest_events = 0;
  std::uint64_t slabs_harvested = 0;
  std::uint64_t migrations_out = 0;
  std::uint64_t migrations_in = 0;

  bool HasRoom() const { return !down && slabs_held < capacity_slabs; }
  double Occupancy() const {
    return capacity_slabs == std::numeric_limits<std::uint64_t>::max()
               ? double(slabs_held)
               : double(slabs_held) / double(capacity_slabs);
  }
};

}  // namespace canvas::remote
