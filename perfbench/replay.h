// Layer replays: host nanoseconds per call of the hot paths a gprof profile
// of the seed names, timed through their public functions on inputs shaped
// like the workload each one mirrors.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

struct ReplayResult {
  std::string name;      ///< per-layer metric name, e.g. "mem.lookup_ns"
  std::string mirrors;   ///< the workload whose shape the input follows
  double ns_per_call = 0;
};

/// Run every replay; each result is the median of several timed batches.
std::vector<ReplayResult> RunReplays();

}  // namespace perfbench
