#include "workload/churn.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <queue>
#include <sstream>
#include <stdexcept>

#include "common/rng.h"
#include "workload/arrival.h"

namespace canvas::workload {

namespace {

/// Admission control + event materialization shared by the generators and
/// the trace loader. `tenants` arrive in time order; rows that would push
/// the live count past max_concurrent are dropped (not queued).
ChurnSchedule Admit(const ChurnSpec& spec, std::vector<ChurnTenant> tenants) {
  ChurnSchedule out;
  // Min-heap of departure instants of currently-admitted tenants.
  std::priority_queue<SimTime, std::vector<SimTime>, std::greater<SimTime>>
      live;
  for (ChurnTenant& t : tenants) {
    while (!live.empty() && live.top() <= t.arrive) live.pop();
    if (spec.max_concurrent > 0 && live.size() >= spec.max_concurrent) {
      ++out.dropped_arrivals;
      continue;
    }
    if (out.tenants.size() >= spec.max_tenants) break;
    t.id = std::uint32_t(out.tenants.size());
    live.push(t.depart);
    out.concurrent_high_water =
        std::max<std::uint64_t>(out.concurrent_high_water, live.size());
    out.tenants.push_back(t);
  }
  out.events.reserve(out.tenants.size() * 2);
  for (const ChurnTenant& t : out.tenants) {
    out.events.push_back({t.arrive, true, t.id});
    out.events.push_back({t.depart, false, t.id});
  }
  // Departures sort before arrivals at equal instants so a departing
  // tenant's registry slot is reusable by the simultaneous arrival.
  std::sort(out.events.begin(), out.events.end(),
            [](const ChurnEvent& a, const ChurnEvent& b) {
              if (a.at != b.at) return a.at < b.at;
              if (a.arrival != b.arrival) return !a.arrival;
              return a.tenant < b.tenant;
            });
  return out;
}

std::uint32_t PickTemplate(const ChurnSpec& spec, Rng& rng) {
  if (spec.templates.size() <= 1) return 0;
  double total = 0;
  for (const TenantTemplate& t : spec.templates)
    total += std::max(t.weight, 0.0);
  if (total <= 0) return 0;
  double u = rng.NextDouble() * total;
  for (std::size_t i = 0; i < spec.templates.size(); ++i) {
    u -= std::max(spec.templates[i].weight, 0.0);
    if (u < 0) return std::uint32_t(i);
  }
  return std::uint32_t(spec.templates.size() - 1);
}

SimDuration SampleLifetime(const ChurnSpec& spec, Rng& rng) {
  double mean = double(spec.mean_lifetime > spec.min_lifetime
                           ? spec.mean_lifetime - spec.min_lifetime
                           : 0);
  double u = rng.NextDouble();
  SimDuration extra = SimDuration(-mean * std::log(1.0 - u));
  return spec.min_lifetime + extra;
}

ChurnSchedule Generate(const ChurnSpec& spec) {
  ArrivalConfig ac;
  ac.kind = spec.kind == ChurnKind::kDiurnal ? ArrivalKind::kDiurnal
                                             : ArrivalKind::kPoisson;
  ac.rate_rps = spec.arrival_rate_per_sec;
  ac.diurnal_amplitude = spec.diurnal_amplitude;
  ac.diurnal_period = spec.diurnal_period;
  // Independent streams for arrivals / lifetimes / template picks: the
  // admission outcome of one tenant never perturbs another's draws.
  ArrivalProcess arrivals(ac, spec.seed ^ 0xA11Cull);
  Rng life_rng(spec.seed ^ 0x11FEull);
  Rng tmpl_rng(spec.seed ^ 0x7E41ull);

  std::vector<ChurnTenant> tenants;
  // Sample generously past max_tenants: admission control may drop rows.
  std::uint64_t budget = spec.max_tenants * 4 + 64;
  for (std::uint64_t n = 0; n < budget; ++n) {
    SimTime at = arrivals.NextArrival();
    if (at >= SimTime(spec.horizon)) break;
    ChurnTenant t;
    t.arrive = at;
    t.depart = at + SampleLifetime(spec, life_rng);
    t.tmpl = PickTemplate(spec, tmpl_rng);
    tenants.push_back(t);
  }
  return Admit(spec, std::move(tenants));
}

[[noreturn]] void BadRow(std::size_t lineno, const std::string& what) {
  throw std::invalid_argument("churn trace line " + std::to_string(lineno) +
                              ": " + what);
}

/// The whole of `field` (blanks around it allowed) as a number.
double Number(const std::string& field, std::size_t lineno) {
  std::size_t used = 0;
  double v = 0;
  try {
    v = std::stod(field, &used);
  } catch (const std::exception&) {  // not a number, or out of range
    used = 0;
  }
  if (used == 0 || field.find_first_not_of(" \t", used) != std::string::npos)
    BadRow(lineno, "bad number '" + field + "'");
  return v;
}

}  // namespace

const char* ChurnKindName(ChurnKind kind) {
  switch (kind) {
    case ChurnKind::kPoisson:
      return "poisson";
    case ChurnKind::kDiurnal:
      return "diurnal";
    case ChurnKind::kTrace:
      return "trace";
  }
  return "?";
}

std::optional<ChurnKind> ChurnKindFromName(const std::string& name) {
  if (name == "poisson") return ChurnKind::kPoisson;
  if (name == "diurnal") return ChurnKind::kDiurnal;
  if (name == "trace") return ChurnKind::kTrace;
  return std::nullopt;
}

ChurnSchedule LoadChurnTrace(const ChurnSpec& spec, std::istream& in) {
  std::vector<ChurnTenant> tenants;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    // Trim.
    while (!line.empty() && (line.back() == ' ' || line.back() == '\r' ||
                             line.back() == '\t'))
      line.pop_back();
    if (line.empty()) continue;
    std::stringstream row(line);
    std::string field;
    std::vector<std::string> fields;
    while (std::getline(row, field, ',')) fields.push_back(field);
    if (fields.size() < 3 || fields.size() > 4)
      BadRow(lineno, "want arrive_ms,lifetime_ms,template[,scale]");
    ChurnTenant t;
    SimDuration life = 0;
    if (!ToSimTime(Number(fields[0], lineno), kMillisecond, &t.arrive) ||
        !ToSimTime(Number(fields[1], lineno), kMillisecond, &life))
      BadRow(lineno, "times must lie in [0, 2^62 ns]");
    t.depart = t.arrive + life;
    // Template by index or by app name.
    bool numeric = !fields[2].empty() &&
                   fields[2].find_first_not_of("0123456789") ==
                       std::string::npos;
    if (numeric) {
      // Longer digit strings cannot index a template (and overflow stoul).
      std::size_t idx = fields[2].size() <= 9 ? std::stoul(fields[2])
                                              : std::size_t(-1);
      if (idx >= std::max<std::size_t>(spec.templates.size(), 1))
        BadRow(lineno, "template index out of range");
      t.tmpl = std::uint32_t(idx);
    } else {
      bool found = false;
      for (std::size_t i = 0; i < spec.templates.size(); ++i) {
        if (spec.templates[i].app == fields[2]) {
          t.tmpl = std::uint32_t(i);
          found = true;
          break;
        }
      }
      if (!found) BadRow(lineno, "unknown template '" + fields[2] + "'");
    }
    if (fields.size() > 3) {
      t.scale_override = Number(fields[3], lineno);
      if (!(t.scale_override > 0 && std::isfinite(t.scale_override)))
        BadRow(lineno, "scale must be positive and finite");
    }
    tenants.push_back(t);
  }
  std::stable_sort(tenants.begin(), tenants.end(),
                   [](const ChurnTenant& a, const ChurnTenant& b) {
                     return a.arrive < b.arrive;
                   });
  return Admit(spec, std::move(tenants));
}

ChurnSchedule BuildChurnSchedule(const ChurnSpec& spec) {
  if (spec.kind == ChurnKind::kTrace) {
    std::ifstream in(spec.trace_csv);
    if (!in)
      throw std::invalid_argument("cannot open churn trace '" +
                                  spec.trace_csv + "'");
    return LoadChurnTrace(spec, in);
  }
  if (spec.arrival_rate_per_sec <= 0)
    throw std::invalid_argument("churn arrival rate must be positive");
  return Generate(spec);
}

}  // namespace canvas::workload
