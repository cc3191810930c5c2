// Cluster-day tenant churn (DESIGN.md §15): trace-driven arrival/departure
// of tenants at thousand-tenant scale.
//
// The whole arrival/departure timeline is pre-sampled here into a pure-data
// ChurnSchedule *before* the simulation starts: tenant ids, templates,
// arrival instants and lifetimes are drawn sequentially from seeded
// generators, so the schedule — and therefore the simulation it drives — is
// bit-for-bit identical at any --jobs count. The driver
// (src/orchestrator/churn.*) simply replays the schedule on the DES clock:
// arrival -> SwapSystem::AddApp, departure -> SwapSystem::RetireApp.
//
// Three generators: homogeneous Poisson, diurnal (sinusoidally modulated
// arrival rate, the cluster-day shape), and a CSV trace loader for replaying
// real cluster traces ("arrive_ms,lifetime_ms,template[,scale]" rows).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"

namespace canvas::workload {

/// Weighted tenant archetype a churn arrival instantiates. `app` names a
/// workload factory (workload::MakeByName); `scale`/`ratio`/`cores` feed the
/// standard AppBuild knobs.
struct TenantTemplate {
  std::string app = "memcached";
  double weight = 1.0;
  /// Footprint scale — cluster-day runs use small tenants so a thousand of
  /// them stay tractable.
  double scale = 0.05;
  double local_ratio = 0.25;
  std::uint32_t cores = 1;
  /// 0 = the app factory's default thread count.
  std::uint32_t threads = 0;
  double rdma_weight = 1.0;
};

enum class ChurnKind : std::uint8_t {
  kPoisson,  ///< homogeneous tenant arrival rate
  kDiurnal,  ///< rate * (1 + amplitude * sin(2*pi*t / period))
  kTrace,    ///< replay a CSV trace of (arrive, lifetime, template) rows
};

const char* ChurnKindName(ChurnKind kind);
std::optional<ChurnKind> ChurnKindFromName(const std::string& name);

struct ChurnSpec {
  ChurnKind kind = ChurnKind::kPoisson;
  /// Mean tenant arrival rate (tenants per simulated second).
  double arrival_rate_per_sec = 40.0;
  // --- diurnal ---
  double diurnal_amplitude = 0.6;  ///< in [0, 1)
  SimDuration diurnal_period = 2 * kSecond;
  // --- lifetimes: min + exponential(mean - min) ---
  SimDuration mean_lifetime = 200 * kMillisecond;
  SimDuration min_lifetime = 20 * kMillisecond;
  /// No arrivals at or beyond this instant (departures may land later).
  SimDuration horizon = 2 * kSecond;
  /// Hard cap on tenants admitted over the whole schedule.
  std::uint64_t max_tenants = 1000;
  /// Admission-control cap on concurrently live tenants; arrivals that
  /// would exceed it are dropped (counted, never queued — the slot-reuse
  /// pattern stays deterministic).
  std::uint64_t max_concurrent = 64;
  /// Weighted templates (empty = one default template).
  std::vector<TenantTemplate> templates;
  /// CSV path for kTrace.
  std::string trace_csv;
  std::uint64_t seed = 7;
};

struct ChurnTenant {
  std::uint32_t id = 0;     ///< dense arrival-order id (not a cgroup id)
  std::uint32_t tmpl = 0;   ///< index into ChurnSpec::templates
  SimTime arrive = 0;
  SimTime depart = 0;
  /// kTrace rows may override the template's footprint scale (0 = keep).
  double scale_override = 0.0;
};

struct ChurnEvent {
  SimTime at = 0;
  bool arrival = false;
  std::uint32_t tenant = 0;  ///< index into ChurnSchedule::tenants
};

/// Pure data: replayable on any engine. Events are time-ordered with
/// departures before arrivals at equal instants (a departing tenant frees
/// its registry slot for the arrival that follows).
struct ChurnSchedule {
  std::vector<ChurnTenant> tenants;
  std::vector<ChurnEvent> events;
  std::uint64_t dropped_arrivals = 0;
  /// Peak concurrently-live tenants in the schedule (the RSS yardstick).
  std::uint64_t concurrent_high_water = 0;
};

/// Pre-sample the full churn timeline from `spec`. For kTrace the CSV at
/// `spec.trace_csv` is loaded. Throws std::invalid_argument on bad specs or
/// unparseable traces.
ChurnSchedule BuildChurnSchedule(const ChurnSpec& spec);

/// Trace-loader core, exposed for tests: parses "arrive_ms,lifetime_ms,
/// template[,scale]" rows (template by index or by app name; '#' comments
/// and blank lines ignored) and applies the same admission control as the
/// generators. Times must be non-negative numbers at most kMaxParsedNs and
/// a given scale positive and finite; any malformed row throws
/// std::invalid_argument naming its line.
ChurnSchedule LoadChurnTrace(const ChurnSpec& spec, std::istream& in);

}  // namespace canvas::workload
