// Cluster-day churn driver (DESIGN.md §15): replays a pre-sampled
// workload::ChurnSchedule against one SwapSystem — arrival -> AddApp,
// departure -> RetireApp — on the DES clock, then snapshots a deterministic
// ChurnResult. The schedule is pure data sampled before the run starts, so
// the whole simulation is bit-for-bit identical at any --jobs count; wall
// clock and RSS live in a separate timing payload like the other run kinds.
// The churn spec types live in orchestrator/scenario.h and the result
// types in orchestrator/sweep.h.
#pragma once

#include "orchestrator/sweep.h"

namespace canvas::orchestrator {

/// Execute one churn run in the calling thread: sample the schedule, build
/// an (initially empty) SwapSystem, replay arrivals/departures on the DES
/// clock, drain, audit the pool, snapshot.
ChurnResult RunChurn(const ChurnRunSpec& spec);

}  // namespace canvas::orchestrator
