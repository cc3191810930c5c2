#include "trace/export.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <set>

#include "common/run.h"

namespace canvas::trace {

namespace {

std::string PidName(std::uint32_t pid,
                    const std::vector<std::string>& app_names) {
  if (pid == kRdmaPid) return "rdma-fabric";
  if (pid < app_names.size()) return app_names[pid];
  return "app-" + std::to_string(pid);
}

std::string TidName(std::uint32_t pid, std::uint32_t tid) {
  if (pid == kRdmaPid) {
    if (tid == 0) return "ingress-lane";
    if (tid == 1) return "egress-lane";
    return "control";
  }
  if (tid == kCgroupTrack) return "cgroup";
  return "thread-" + std::to_string(tid - 1);
}

/// Chrome trace-event timestamps are microseconds; print with ns precision.
void PrintTs(std::ostream& os, SimTime ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64 ".%03u", ns / 1000,
                unsigned(ns % 1000));
  os << buf;
}

}  // namespace

void WriteChromeTrace(std::ostream& os, const Tracer& tracer,
                      const std::vector<std::string>& app_names) {
  const TraceBuffer& buf = tracer.buffer();
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";

  // Metadata events naming every track that appears in the ring.
  std::set<std::uint32_t> pids;
  std::set<std::pair<std::uint32_t, std::uint32_t>> tracks;
  buf.ForEach([&](const TraceRecord& r) {
    pids.insert(r.pid);
    tracks.insert({r.pid, r.tid});
  });
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };
  for (std::uint32_t pid : pids) {
    sep();
    os << "{\"ph\": \"M\", \"pid\": " << pid
       << ", \"name\": \"process_name\", \"args\": {\"name\": \""
       << JsonEscape(PidName(pid, app_names)) << "\"}}";
  }
  for (const auto& [pid, tid] : tracks) {
    sep();
    os << "{\"ph\": \"M\", \"pid\": " << pid << ", \"tid\": " << tid
       << ", \"name\": \"thread_name\", \"args\": {\"name\": \""
       << JsonEscape(TidName(pid, tid)) << "\"}}";
  }

  buf.ForEach([&](const TraceRecord& r) {
    sep();
    os << "{\"pid\": " << r.pid << ", \"tid\": " << r.tid << ", \"ts\": ";
    PrintTs(os, r.ts);
    os << ", \"name\": \"" << NameString(r.name) << "\"";
    switch (r.type) {
      case RecordType::kSpan:
        os << ", \"ph\": \"X\", \"dur\": ";
        PrintTs(os, r.dur);
        os << ", \"args\": {\"arg\": " << r.arg << "}";
        break;
      case RecordType::kInstant:
        os << ", \"ph\": \"i\", \"s\": \"t\", \"args\": {\"arg\": " << r.arg
           << "}";
        break;
      case RecordType::kCounter: {
        char v[32];
        std::snprintf(v, sizeof v, "%.6g", r.CounterValue());
        os << ", \"ph\": \"C\", \"args\": {\"value\": " << v << "}";
        break;
      }
    }
    os << "}";
  });
  os << "\n]}\n";
}

void WriteCounterCsv(std::ostream& os, const Tracer& tracer,
                     const std::vector<std::string>& app_names) {
  os << "ts_ns,track,counter,value\n";
  tracer.buffer().ForEach([&](const TraceRecord& r) {
    if (r.type != RecordType::kCounter) return;
    char v[32];
    std::snprintf(v, sizeof v, "%.6g", r.CounterValue());
    os << r.ts << ',' << PidName(r.pid, app_names) << ','
       << NameString(r.name) << ',' << v << '\n';
  });
}

bool ValidateSpanNesting(const TraceBuffer& buf, std::string* error) {
  struct Interval {
    SimTime begin;
    SimTime end;
    Name name;
  };
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<Interval>>
      by_track;
  buf.ForEach([&](const TraceRecord& r) {
    if (r.type == RecordType::kSpan)
      by_track[{r.pid, r.tid}].push_back({r.ts, r.ts + r.dur, r.name});
  });
  for (auto& [track, spans] : by_track) {
    std::sort(spans.begin(), spans.end(),
              [](const Interval& a, const Interval& b) {
                if (a.begin != b.begin) return a.begin < b.begin;
                return a.end > b.end;  // parents before children
              });
    std::vector<SimTime> stack;  // open span end times
    for (const Interval& s : spans) {
      while (!stack.empty() && stack.back() <= s.begin) stack.pop_back();
      if (!stack.empty() && s.end > stack.back()) {
        if (error) {
          *error = "track (" + std::to_string(track.first) + "," +
                   std::to_string(track.second) + "): span '" +
                   NameString(s.name) + "' [" + std::to_string(s.begin) +
                   "," + std::to_string(s.end) +
                   ") straddles enclosing span end " +
                   std::to_string(stack.back());
        }
        return false;
      }
      stack.push_back(s.end);
    }
  }
  return true;
}

}  // namespace canvas::trace
