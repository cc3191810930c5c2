#include "fault/fault_plan.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace canvas::fault {

FaultPlan& FaultPlan::AddLatencySpike(SimTime start, SimTime end,
                                      SimDuration extra, int dir, int server) {
  latency_.push_back({{start, end}, extra, dir, server});
  return *this;
}

FaultPlan& FaultPlan::AddBandwidthDegrade(SimTime start, SimTime end,
                                          double factor, int dir) {
  bandwidth_.push_back({{start, end}, factor, dir});
  return *this;
}

FaultPlan& FaultPlan::AddErrorBurst(SimTime start, SimTime end,
                                    double probability, int op) {
  errors_.push_back({{start, end}, probability, op});
  return *this;
}

FaultPlan& FaultPlan::AddQpStall(SimTime start, SimTime end, int dir,
                                 int server) {
  stalls_.push_back({{start, end}, dir, server});
  return *this;
}

FaultPlan& FaultPlan::AddBlackout(SimTime start, SimTime end, int server) {
  blackouts_.push_back({{start, end}, server});
  return *this;
}

FaultPlan& FaultPlan::AddTierLatencySpike(SimTime start, SimTime end,
                                          SimDuration extra) {
  tier_latency_.push_back({{start, end}, extra});
  return *this;
}

FaultPlan& FaultPlan::AddTierFreeze(SimTime start, SimTime end) {
  tier_freezes_.push_back({{start, end}});
  return *this;
}

namespace {

bool ParseDir(const std::string& tok, int* dir) {
  if (tok == "in") *dir = 0;          // rdma::Direction::kIngress
  else if (tok == "out") *dir = 1;    // rdma::Direction::kEgress
  else if (tok == "both" || tok.empty()) *dir = kBothDirections;
  else return false;
  return true;
}

bool ParseOp(const std::string& tok, int* op) {
  if (tok == "demand") *op = 0;         // rdma::Op::kDemandIn
  else if (tok == "prefetch") *op = 1;  // rdma::Op::kPrefetchIn
  else if (tok == "swapout") *op = 2;   // rdma::Op::kSwapOut
  else if (tok == "all" || tok.empty()) *op = kAllOps;
  else return false;
  return true;
}

/// Pops a trailing `server=N` token off `tok` (already-read optional token)
/// or the stream. Returns false on a malformed server id.
bool TakeServer(std::istringstream& ls, std::string* tok, int* server) {
  *server = kAllServers;
  std::string t;
  if (tok->rfind("server=", 0) == 0) {
    t = *tok;
    tok->clear();
  } else {
    ls >> t;
    if (t.rfind("server=", 0) != 0) return t.empty();
  }
  try {
    std::size_t used = 0;
    int v = std::stoi(t.substr(7), &used);
    if (used != t.size() - 7 || v < 0) return false;
    *server = v;
  } catch (...) {
    return false;
  }
  return true;
}

void SetError(std::string* err, int line_no, const std::string& line,
              const char* what) {
  if (err) {
    std::ostringstream os;
    os << "fault plan line " << line_no << ": " << what << ": " << line;
    *err = os.str();
  }
}

}  // namespace

std::optional<FaultPlan> FaultPlan::Parse(const std::string& text,
                                          std::string* err) {
  FaultPlan plan;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::string kind;
    if (!(ls >> kind)) continue;  // blank / comment-only line

    double start_us = 0, end_us = 0;
    SimTime start = 0, end = 0;
    if (!(ls >> start_us >> end_us) || end_us <= start_us ||
        !ToSimTime(start_us, kMicrosecond, &start) ||
        !ToSimTime(end_us, kMicrosecond, &end)) {
      SetError(err, line_no, line, "bad window");
      return std::nullopt;
    }

    if (kind == "latency") {
      double extra_us = 0;
      SimDuration extra = 0;
      std::string d;
      if (!(ls >> extra_us) || !ToSimTime(extra_us, kMicrosecond, &extra)) {
        SetError(err, line_no, line, "bad extra latency");
        return std::nullopt;
      }
      ls >> d;
      int server;
      if (!TakeServer(ls, &d, &server)) {
        SetError(err, line_no, line, "bad server target");
        return std::nullopt;
      }
      int dir;
      if (!ParseDir(d, &dir)) {
        SetError(err, line_no, line, "bad direction");
        return std::nullopt;
      }
      plan.AddLatencySpike(start, end, extra, dir, server);
    } else if (kind == "bandwidth") {
      double factor = 1.0;
      std::string d;
      if (!(ls >> factor) || factor <= 0 || factor > 1.0) {
        SetError(err, line_no, line, "bad bandwidth factor");
        return std::nullopt;
      }
      ls >> d;
      int dir;
      if (!ParseDir(d, &dir)) {
        SetError(err, line_no, line, "bad direction");
        return std::nullopt;
      }
      plan.AddBandwidthDegrade(start, end, factor, dir);
    } else if (kind == "error") {
      double prob = 0;
      std::string o;
      if (!(ls >> prob) || prob < 0 || prob > 1.0) {
        SetError(err, line_no, line, "bad error probability");
        return std::nullopt;
      }
      ls >> o;
      int op;
      if (!ParseOp(o, &op)) {
        SetError(err, line_no, line, "bad op filter");
        return std::nullopt;
      }
      plan.AddErrorBurst(start, end, prob, op);
    } else if (kind == "stall") {
      std::string d;
      ls >> d;
      int server;
      if (!TakeServer(ls, &d, &server)) {
        SetError(err, line_no, line, "bad server target");
        return std::nullopt;
      }
      int dir;
      if (!ParseDir(d, &dir)) {
        SetError(err, line_no, line, "bad direction");
        return std::nullopt;
      }
      plan.AddQpStall(start, end, dir, server);
    } else if (kind == "blackout") {
      std::string s;
      int server;
      if (!TakeServer(ls, &s, &server)) {
        SetError(err, line_no, line, "bad server target");
        return std::nullopt;
      }
      plan.AddBlackout(start, end, server);
    } else if (kind == "tier-latency") {
      double extra_us = 0;
      SimDuration extra = 0;
      if (!(ls >> extra_us) || !ToSimTime(extra_us, kMicrosecond, &extra)) {
        SetError(err, line_no, line, "bad extra latency");
        return std::nullopt;
      }
      plan.AddTierLatencySpike(start, end, extra);
    } else if (kind == "tier-freeze") {
      plan.AddTierFreeze(start, end);
    } else {
      SetError(err, line_no, line, "unknown fault kind");
      return std::nullopt;
    }
    if (std::string extra; ls >> extra) {
      SetError(err, line_no, line, "unexpected trailing token");
      return std::nullopt;
    }
  }
  return plan;
}

void FaultPlan::CheckServerTargets(std::size_t servers,
                                   const std::string& topology) const {
  auto check = [&](const char* kind, const TimeWindow& w, int server) {
    if (server == kAllServers || std::size_t(server) < servers) return;
    throw std::invalid_argument(
        "fault plan window '" + std::string(kind) + " " +
        std::to_string(w.start / kMicrosecond) + " " +
        std::to_string(w.end / kMicrosecond) + " server=" +
        std::to_string(server) + "' targets a missing server: topology '" +
        topology + "' has " + std::to_string(servers) + " server(s)");
  };
  for (const LatencySpike& l : latency_) check("latency", l.window, l.server);
  for (const QpStall& q : stalls_) check("stall", q.window, q.server);
  for (const Blackout& b : blackouts_) check("blackout", b.window, b.server);
}

std::optional<FaultPlan> FaultPlan::LoadFile(const std::string& path,
                                             std::string* err) {
  std::ifstream f(path);
  if (!f) {
    if (err) *err = "cannot open fault plan file: " + path;
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << f.rdbuf();
  return Parse(buf.str(), err);
}

}  // namespace canvas::fault
