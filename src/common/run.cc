#include "common/run.h"

#include <sys/resource.h>

namespace canvas {

const char* RunStatusName(RunStatus s) {
  switch (s) {
    case RunStatus::kOk: return "ok";
    case RunStatus::kDeadline: return "deadline";
    case RunStatus::kError: return "error";
    case RunStatus::kCancelled: return "cancelled";
  }
  return "?";
}

double SecondsSince(HostClock::time_point t0) {
  return std::chrono::duration<double>(HostClock::now() - t0).count();
}

std::uint64_t PeakRssBytes() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return std::uint64_t(ru.ru_maxrss) * 1024;  // Linux reports KiB
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace canvas
