// What every run driver shares — batch co-runs, serving runs and churn
// runs alike (DESIGN.md §10): one run status, the header every run result
// starts with, the host-side probes each run records, and the string
// escaping every JSON report writer uses.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

namespace canvas {

enum class RunStatus : std::uint8_t {
  kOk,         ///< ran to completion
  kDeadline,   ///< ran, but hit the deadline first
  kError,      ///< threw, or a post-run audit failed; see `error`
  kCancelled,  ///< never dispatched (sweep cancelled first)
};

/// "ok" | "deadline" | "error" | "cancelled" — the report spelling.
const char* RunStatusName(RunStatus s);

/// Identity, outcome and host cost of one run. Each run kind's result
/// extends it with its own deterministic payload.
struct RunRecord {
  using Status = RunStatus;

  std::size_t index = 0;  ///< position in the expanded grid
  std::string label;
  std::string system;    ///< SystemConfig::name of the resolved config
  std::string topology;  ///< remote::PoolConfig::topology
  Status status = Status::kCancelled;
  std::string error;

  // --- timing payload (never byte-stable) ---
  double wall_sec = 0;
  std::uint64_t peak_rss_bytes = 0;  ///< process peak RSS at run completion

  bool executed() const {
    return status == Status::kOk || status == Status::kDeadline;
  }
};

using HostClock = std::chrono::steady_clock;

double SecondsSince(HostClock::time_point t0);

/// Peak resident set size of this process so far.
std::uint64_t PeakRssBytes();

/// Escape '"' and '\\' for a JSON string literal.
std::string JsonEscape(const std::string& s);

}  // namespace canvas
