// Per-application metrics collected by the swap system. Field semantics
// follow the paper's definitions (§6.4.2): contribution = swap-cache hits on
// prefetched pages / total faults; accuracy = prefetched pages used /
// prefetches completed.
#pragma once

#include <cstdint>
#include <string>

#include "common/types.h"
#include "trace/histogram.h"

namespace canvas::core {

struct AppMetrics {
  std::string name;
  SimTime finish_time = 0;  ///< makespan: when the last thread finished

  std::uint64_t accesses = 0;
  std::uint64_t faults = 0;        ///< logical swap faults (counted once)
  /// Demand swap-ins issued, including reissues after a blocked fault
  /// resolves (so faults_major + faults_minor >= faults).
  std::uint64_t faults_major = 0;
  std::uint64_t faults_minor = 0;  ///< served from swap cache
  std::uint64_t faults_minor_prefetched = 0;  ///< ... by a prefetched page
  std::uint64_t first_touches = 0;

  std::uint64_t prefetch_issued = 0;
  std::uint64_t prefetch_completed = 0;
  std::uint64_t prefetch_used = 0;       ///< mapped before release
  std::uint64_t prefetch_wasted = 0;     ///< released unused
  std::uint64_t prefetch_dropped = 0;    ///< dropped by the scheduler
  std::uint64_t prefetch_discarded = 0;  ///< stale data discarded (§5.3)
  std::uint64_t rescues = 0;             ///< blocked threads re-issued demand

  std::uint64_t swapouts = 0;     ///< writebacks issued
  std::uint64_t clean_drops = 0;  ///< evictions satisfied without writeback

  // --- fault recovery (DESIGN.md §8; all zero on healthy runs) ---
  std::uint64_t rdma_exhausted = 0;   ///< requests that ran out of retries
  std::uint64_t demand_reissues = 0;  ///< exhausted demand reads re-enqueued
  std::uint64_t failovers = 0;        ///< remote -> local-disk transitions
  std::uint64_t failbacks = 0;        ///< local-disk -> remote transitions
  std::uint64_t disk_swapins = 0;     ///< swap-ins served by the disk backend
  std::uint64_t disk_swapouts = 0;    ///< writebacks absorbed by the disk
  std::uint64_t stale_reads = 0;      ///< content-version oracle violations

  // --- hybrid local tier (DESIGN.md §14; all zero with the tier off) ---
  std::uint64_t tier_swapins = 0;    ///< swap-ins served from the tier
  std::uint64_t tier_swapouts = 0;   ///< writebacks absorbed by the tier
  std::uint64_t tier_rejects = 0;    ///< admissions refused (capacity/quota)
  std::uint64_t tier_failovers = 0;  ///< remote -> local-tier transitions

  // --- object-granularity cooperative swapping (DESIGN.md §16; all zero
  // with the object registry off) ---
  std::uint64_t behaviours_declared = 0;   ///< read-sets declared+pinned
  std::uint64_t behaviours_dispatched = 0; ///< behaviours started running
  std::uint64_t behaviours_completed = 0;  ///< behaviours retired (unpinned)
  std::uint64_t object_fetches = 0;     ///< cooperative-channel page fetches
  std::uint64_t object_fetch_hits = 0;  ///< read-set pages already local
  std::uint64_t object_pins = 0;        ///< object pins taken (registry)
  std::uint64_t object_unpins = 0;      ///< object pins released
  std::uint64_t object_stale_handles = 0;  ///< generation-check failures
  std::uint64_t behaviour_deferrals = 0;   ///< lookahead held by pin budget
  SimDuration behaviour_stall = 0;  ///< thread time parked awaiting read-sets

  /// End-to-end fault stall latency distribution (one sample per fault
  /// episode, nanoseconds). Log-bucketed and always on — the report's
  /// p50/p90/p99/p999 columns come from here, independent of the trace
  /// ring toggle so reports stay byte-identical with tracing on or off.
  trace::LogHistogram fault_latency;

  /// Demand swap-in latency of tier-served fetches (ns, always on like
  /// fault_latency; empty with the tier off so reports stay byte-identical).
  trace::LogHistogram tier_latency;

  std::uint64_t allocations = 0;       ///< allocator (lock-path) calls
  std::uint64_t lockfree_swapouts = 0; ///< served by a reserved entry
  SimDuration alloc_time = 0;          ///< total wait+hold in allocation
  SimDuration busy_time = 0;           ///< total thread compute time
  SimDuration fault_stall = 0;         ///< thread time blocked in faults

  double ContributionPct() const {
    return faults ? 100.0 * double(faults_minor_prefetched) / double(faults)
                  : 0.0;
  }
  double AccuracyPct() const {
    return prefetch_completed
               ? 100.0 * double(prefetch_used) / double(prefetch_completed)
               : 0.0;
  }
  double AllocTimeShare() const {
    SimDuration denom = busy_time + fault_stall;
    return denom ? double(alloc_time) / double(denom) : 0.0;
  }
};

}  // namespace canvas::core
