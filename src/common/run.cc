#include "common/run.h"

#include <sys/resource.h>

#include <fstream>

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
  // This process's own high-water mark. ru_maxrss survives exec, so it
  // reports a larger launcher's peak; it is the fallback without /proc.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::stoull(line.substr(6)) * 1024;
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
