// canvasctl: command-line driver for arbitrary swap-system experiments.
//
// Compose any co-run from the 14 Table 2 applications, pick a system
// preset (or toggle features), and get human tables, CSV, or JSON out —
// the adoption surface for using this repository as a far-memory
// swap-policy simulator rather than only as a paper reproduction.
//
// Subcommands:
//   canvasctl run   [options] app[:cores] ...   one experiment
//   canvasctl sweep [options] app[:cores] ...   grid of experiments on a
//                                               worker pool (SweepEngine)
//   canvasctl serve [options] [tenant[:rate[:mods]] ...]
//                                               online-serving tail-latency
//                                               harness (open-loop load,
//                                               per-tenant SLOs, QoS plane)
//   canvasctl churn [options] [template[:scale[:weight]] ...]
//                                               cluster-day tenant churn:
//                                               trace-driven arrival and
//                                               departure at thousand-tenant
//                                               scale (DESIGN.md §15)
//   canvasctl list-apps                         Table 2 application names
//   canvasctl list-axes                         every sweep axis + values
//   canvasctl list-systems                      system presets + aliases
//   canvasctl list-servers                      server-pool topologies
//   canvasctl list-tiers                        hybrid local-tier presets
//
// Axis flags are unified across run/sweep/serve/churn: every plural form
// (--systems= --topologies= --tiers= --granularities= --arrivals=
// --harvests= --seeds= --ratios= --scales=) is REPEATABLE — the first occurrence replaces the
// default, later occurrences append — and takes comma-separated lists.
// The singular forms (--system= --topology= --tier= --arrival= --harvest=
// --seed= --ratio= --scale=) are deprecated shims for the plural spelling
// and behave identically.
//
// Shared options (run + sweep):
//   --system=NAME    preset from `canvasctl list-systems` (default canvas)
//   --topology=T     server-pool topology from `canvasctl list-servers`
//                    (default single)
//   --tier=T         hybrid local-tier preset from `canvasctl list-tiers`
//                    (default none = two-level hierarchy)
//   --granularity=G  swap granularity: page | object (default page;
//                    `object` enables behaviour-scheduled object fetching
//                    for registry-aware workloads such as `chase`)
//   --scale=S        workload scale factor (default 0.3)
//   --ratio=R        local memory fraction of working set (default 0.25)
//   --seed=N         workload seed (default 7)
//   --no-adaptive    disable adaptive swap-entry allocation
//   --no-horizontal  disable timeliness-based prefetch dropping
//   --prefetcher=P   none | readahead | leap | two-tier (override preset)
//   --fault-plan=F   inject faults from a plan file (one directive per
//                    line, times in microseconds: `blackout START END
//                    [SERVER]`, `latency START END EXTRA_US [in|out|both]
//                    [SERVER]`, `tier-latency START END EXTRA_US`,
//                    `tier-freeze START END`; full grammar in
//                    src/fault/fault_plan.h); a sweep applies the plan
//                    to every grid point
//
// run-only options:
//   --format=F       table | csv | json (default table)
//
// sweep-only options (comma-separated lists expand as a full grid):
//   --systems=A,B    preset axis (overrides --system)
//   --topologies=T1,T2  server-topology axis (overrides --topology)
//   --tiers=T1,T2    local-tier axis (overrides --tier; composes with the
//                    topology axis as a full grid)
//   --granularities=G1,G2  swap-granularity axis (page | object)
//   --ratios=R1,R2   local-memory-ratio axis (overrides --ratio)
//   --scales=S1,S2   scale axis (overrides --scale)
//   --seeds=N1,N2    seed axis (overrides --seed)
//   --jobs=N         worker threads (default: hardware concurrency)
//   --max-live=N     cap concurrently live swap systems (default: jobs)
//   --cancel-on-failure   stop dispatching after the first failed run
//   --progress       progress line on stderr
//   --out=PATH       write the sweep JSON there instead of stdout
//
// serve-only options (default topology is pool4, not single):
//   tenant syntax    name[:rate_rps[:mods]] where mods is a +-joined list
//                    of `be` (best-effort: sheddable, never SLO-escalated)
//                    and `load` (the --arrivals axis retargets only
//                    load-marked tenants). Default co-run when no tenant is
//                    given: frontend:150000:load + batch:50000:be.
//   --arrivals=A,B   arrival-process axis: poisson | diurnal | flash
//   --horizon=SEC    open-loop generation horizon per tenant (default 2.0)
//   --slo-p99-us=N   per-window p99 fault-latency SLO, microseconds
//   --slo-p999-us=N  per-window p99.9 SLO, microseconds
//   --no-qos         disable the QoS/admission plane (observe-only SLOs)
//   --qos-curve=F    per-window supply curve CSV (`time_ms,scale` rows,
//                    serving/supply_curve.h) scaling every tenant's SLO
//                    bounds each control tick
//   (plus the sweep execution options: --jobs, --max-live, --out, ...)
//
// The pre-subcommand flat form (`canvasctl --system=... app ...`) was
// deprecated for several releases and is now rejected with a migration
// hint; spell it `canvasctl run ...`.
//
// Examples:
//   canvasctl run spark-lr snappy memcached xgboost
//   canvasctl run --system=linux --format=csv cassandra:24 memcached:4
//   canvasctl sweep --systems=linux,canvas --ratios=0.25,0.5 --jobs=8
//       spark-lr snappy memcached xgboost        (one command line)
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/table.h"
#include "core/experiment.h"
#include "core/report.h"
#include "fault/fault_plan.h"
#include "orchestrator/sweep.h"
#include "remote/harvest.h"
#include "remote/pool.h"
#include "serving/harness.h"
#include "serving/supply_curve.h"
#include "tier/tier.h"
#include "workload/apps.h"
#include "workload/churn.h"

using namespace canvas;

namespace {

/// One repeatable axis flag: the first explicit occurrence replaces the
/// built-in default, later occurrences append — so
/// `--systems=canvas --systems=linux` equals `--systems=canvas,linux`.
template <typename T>
struct Axis {
  std::vector<T> values;
  bool set = false;

  Axis(std::initializer_list<T> defaults) : values(defaults) {}
  void Add(std::vector<T> items) {
    if (!set) values.clear();
    set = true;
    for (T& v : items) values.push_back(std::move(v));
  }
  operator const std::vector<T>&() const { return values; }
  const T& front() const { return values.front(); }
};

struct Options {
  Axis<std::string> systems = {"canvas"};
  Axis<std::string> topologies = {"single"};
  Axis<std::string> tiers = {"none"};
  Axis<std::string> granularities = {"page"};
  Axis<std::string> harvests = {"closed-loop"};
  Axis<double> ratios = {0.25};
  Axis<double> scales = {0.3};
  Axis<std::uint64_t> seeds = {7};
  std::string format = "table";
  orchestrator::FeatureOverrides overrides;
  // sweep execution
  unsigned jobs = 0;  // 0 = hardware concurrency
  unsigned max_live = 0;
  bool cancel_on_failure = false;
  bool progress = false;
  std::string out;
  std::vector<std::pair<std::string, std::uint32_t>> apps;
  // serve-only
  Axis<std::string> arrivals = {"poisson"};
  bool qos = true;
  // serve-only: supply curve CSV (serving::SupplyCurve, `time_ms,scale`)
  std::string qos_curve_path;
  double horizon_sec = 2.0;
  serving::SloConfig slo;
  std::vector<serving::TenantSpec> tenants;
  // churn-only (the horizon is shared with serve via --horizon)
  workload::ChurnSpec churn;
  // run-only: fault-plan file (FaultPlan grammar, times in microseconds)
  std::string fault_plan_path;
};

int Usage(FILE* to, int code) {
  std::fprintf(
      to,
      "usage: canvasctl run   [options] app[:cores] ...\n"
      "       canvasctl sweep [--systems=A,B] [--ratios=..] [--scales=..]\n"
      "                       [--seeds=..] [--jobs=N] [--max-live=N]\n"
      "                       [--cancel-on-failure] [--progress] [--out=F]\n"
      "                       app[:cores] ...\n"
      "       canvasctl serve [--arrivals=poisson,diurnal,flash]\n"
      "                       [--horizon=SEC] [--slo-p99-us=N] [--no-qos]\n"
      "                       [--qos-curve=FILE]\n"
      "                       [sweep execution options]\n"
      "                       [tenant[:rate_rps[:mods]] ...]\n"
      "       canvasctl churn [--churn-kind=poisson|diurnal|trace]\n"
      "                       [--rate=PER_SEC] [--mean-lifetime-ms=N]\n"
      "                       [--max-tenants=N] [--max-concurrent=N]\n"
      "                       [--horizon=SEC] [--trace=FILE]\n"
      "                       [--harvests=none,steady,bursty,closed-loop]\n"
      "                       [sweep execution options]\n"
      "                       [template[:scale[:weight]] ...]\n"
      "       canvasctl list-apps | list-axes | list-systems |\n"
      "                 list-servers | list-tiers\n"
      "options: --system=NAME --topology=T --tier=T --granularity=G\n"
      "         --ratio=R --scale=S\n"
      "         --seed=N --format=table|csv|json --no-adaptive\n"
      "         --no-horizontal --prefetcher=none|readahead|leap|two-tier\n"
      "         --fault-plan=FILE\n"
      "axes:    every plural flag (--systems= --topologies= --tiers=\n"
      "         --granularities= --arrivals= --harvests= --seeds=\n"
      "         --ratios= --scales=) is\n"
      "         repeatable and takes comma lists; values per axis in\n"
      "         `canvasctl list-axes`. Singular forms are deprecated\n"
      "         aliases.\n"
      "sweep:   --jobs=N --max-live=N\n"
      "         --cancel-on-failure --progress --out=F\n"
      "serve:   tenant mods are `be` (best-effort) and `load` (arrival\n"
      "         axis target), joined with '+': e.g. frontend:150000:load\n"
      "churn:   templates are app names with optional footprint scale and\n"
      "         arrival weight, e.g. `memcached:0.02:3 snappy:0.01:1`\n");
  return code;
}

std::vector<std::string> SplitCommas(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    std::size_t comma = s.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

core::SystemConfig ResolveSystem(const std::string& name,
                                 const orchestrator::FeatureOverrides& ov) {
  auto cfg = core::SystemConfig::FromName(name);
  if (!cfg) {
    std::fprintf(stderr,
                 "unknown system '%s' (see `canvasctl list-systems`)\n",
                 name.c_str());
    std::exit(2);
  }
  ov.Apply(*cfg);
  return *cfg;
}

std::vector<double> ParseDoubles(const std::string& s) {
  std::vector<double> out;
  for (const std::string& v : SplitCommas(s)) out.push_back(std::atof(v.c_str()));
  return out;
}

std::vector<std::uint64_t> ParseU64s(const std::string& s) {
  std::vector<std::uint64_t> out;
  for (const std::string& v : SplitCommas(s))
    out.push_back(std::strtoull(v.c_str(), nullptr, 10));
  return out;
}

/// The unified axis surface: plural flags are repeatable comma lists; the
/// singular spellings are deprecated aliases for the same axis.
bool ParseAxis(const std::string& arg, Options& opt) {
  auto value = [&](const char* prefix) {
    return arg.substr(std::strlen(prefix));
  };
  if (arg.rfind("--systems=", 0) == 0) {
    opt.systems.Add(SplitCommas(value("--systems=")));
  } else if (arg.rfind("--system=", 0) == 0) {
    opt.systems.Add(SplitCommas(value("--system=")));
  } else if (arg.rfind("--topologies=", 0) == 0) {
    opt.topologies.Add(SplitCommas(value("--topologies=")));
  } else if (arg.rfind("--topology=", 0) == 0) {
    opt.topologies.Add(SplitCommas(value("--topology=")));
  } else if (arg.rfind("--tiers=", 0) == 0) {
    opt.tiers.Add(SplitCommas(value("--tiers=")));
  } else if (arg.rfind("--tier=", 0) == 0) {
    opt.tiers.Add(SplitCommas(value("--tier=")));
  } else if (arg.rfind("--granularities=", 0) == 0) {
    opt.granularities.Add(SplitCommas(value("--granularities=")));
  } else if (arg.rfind("--granularity=", 0) == 0) {
    opt.granularities.Add(SplitCommas(value("--granularity=")));
  } else if (arg.rfind("--harvests=", 0) == 0) {
    opt.harvests.Add(SplitCommas(value("--harvests=")));
  } else if (arg.rfind("--harvest=", 0) == 0) {
    opt.harvests.Add(SplitCommas(value("--harvest=")));
  } else if (arg.rfind("--arrivals=", 0) == 0) {
    opt.arrivals.Add(SplitCommas(value("--arrivals=")));
  } else if (arg.rfind("--arrival=", 0) == 0) {
    opt.arrivals.Add(SplitCommas(value("--arrival=")));
  } else if (arg.rfind("--ratios=", 0) == 0) {
    opt.ratios.Add(ParseDoubles(value("--ratios=")));
  } else if (arg.rfind("--ratio=", 0) == 0) {
    opt.ratios.Add(ParseDoubles(value("--ratio=")));
  } else if (arg.rfind("--scales=", 0) == 0) {
    opt.scales.Add(ParseDoubles(value("--scales=")));
  } else if (arg.rfind("--scale=", 0) == 0) {
    opt.scales.Add(ParseDoubles(value("--scale=")));
  } else if (arg.rfind("--seeds=", 0) == 0) {
    opt.seeds.Add(ParseU64s(value("--seeds=")));
  } else if (arg.rfind("--seed=", 0) == 0) {
    opt.seeds.Add(ParseU64s(value("--seed=")));
  } else {
    return false;
  }
  return true;
}

bool ParseCommon(const std::string& arg, Options& opt) {
  auto value = [&](const char* prefix) {
    return arg.substr(std::strlen(prefix));
  };
  if (ParseAxis(arg, opt)) {
    return true;
  } else if (arg.rfind("--format=", 0) == 0) {
    opt.format = value("--format=");
  } else if (arg.rfind("--prefetcher=", 0) == 0) {
    auto kind = orchestrator::PrefetcherFromName(value("--prefetcher="));
    if (!kind) {
      std::fprintf(stderr, "unknown prefetcher '%s'\n",
                   value("--prefetcher=").c_str());
      std::exit(2);
    }
    opt.overrides.prefetcher = *kind;
  } else if (arg.rfind("--fault-plan=", 0) == 0) {
    opt.fault_plan_path = value("--fault-plan=");
  } else if (arg == "--no-adaptive") {
    opt.overrides.adaptive_alloc = false;
  } else if (arg == "--no-horizontal") {
    opt.overrides.horizontal_sched = false;
  } else {
    return false;
  }
  return true;
}

/// Load the fault plan named by --fault-plan= (exit 2 on parse errors);
/// returns null when the option was not given.
std::shared_ptr<const fault::FaultPlan> ResolvePlan(const Options& opt) {
  if (opt.fault_plan_path.empty()) return nullptr;
  std::string err;
  auto plan = fault::FaultPlan::LoadFile(opt.fault_plan_path, &err);
  if (!plan) {
    std::fprintf(stderr, "bad fault plan '%s': %s\n",
                 opt.fault_plan_path.c_str(), err.c_str());
    std::exit(2);
  }
  return std::make_shared<const fault::FaultPlan>(std::move(*plan));
}

bool ParseSweepOnly(const std::string& arg, Options& opt) {
  auto value = [&](const char* prefix) {
    return arg.substr(std::strlen(prefix));
  };
  if (arg.rfind("--jobs=", 0) == 0) {
    opt.jobs = unsigned(std::atoi(value("--jobs=").c_str()));
  } else if (arg.rfind("--max-live=", 0) == 0) {
    opt.max_live = unsigned(std::atoi(value("--max-live=").c_str()));
  } else if (arg == "--cancel-on-failure") {
    opt.cancel_on_failure = true;
  } else if (arg == "--progress") {
    opt.progress = true;
  } else if (arg.rfind("--out=", 0) == 0) {
    opt.out = value("--out=");
  } else {
    return false;
  }
  return true;
}

bool ParseServeOnly(const std::string& arg, Options& opt) {
  auto value = [&](const char* prefix) {
    return arg.substr(std::strlen(prefix));
  };
  if (arg.rfind("--horizon=", 0) == 0) {
    opt.horizon_sec = std::atof(value("--horizon=").c_str());
  } else if (arg.rfind("--slo-p99-us=", 0) == 0) {
    opt.slo.p99_ns = SimTime(std::atof(value("--slo-p99-us=").c_str()) * 1e3);
  } else if (arg.rfind("--slo-p999-us=", 0) == 0) {
    opt.slo.p999_ns = SimTime(std::atof(value("--slo-p999-us=").c_str()) * 1e3);
  } else if (arg == "--no-qos") {
    opt.qos = false;
  } else if (arg.rfind("--qos-curve=", 0) == 0) {
    opt.qos_curve_path = value("--qos-curve=");
  } else {
    return false;
  }
  return true;
}

// Tenant syntax: name[:rate_rps[:mods]], mods a '+'-joined list of
// `be` (best-effort) and `load` (arrival-axis target).
bool ParseServeTenant(const std::string& arg, Options& opt) {
  serving::TenantSpec t;
  auto c1 = arg.find(':');
  t.name = arg.substr(0, c1);
  if (t.name.empty()) return false;
  if (c1 != std::string::npos) {
    auto c2 = arg.find(':', c1 + 1);
    t.arrival.rate_rps = std::atof(arg.substr(c1 + 1, c2 - c1 - 1).c_str());
    if (t.arrival.rate_rps <= 0) {
      std::fprintf(stderr, "tenant '%s': rate must be > 0\n", t.name.c_str());
      std::exit(2);
    }
    if (c2 != std::string::npos) {
      for (const std::string& mod : SplitCommas(arg.substr(c2 + 1))) {
        std::size_t start = 0;
        while (start <= mod.size()) {
          std::size_t plus = mod.find('+', start);
          std::string m = mod.substr(start, plus == std::string::npos
                                                ? std::string::npos
                                                : plus - start);
          if (m == "be") {
            t.best_effort = true;
          } else if (m == "load") {
            t.load_tenant = true;
          } else if (!m.empty()) {
            std::fprintf(stderr, "tenant '%s': unknown mod '%s'\n",
                         t.name.c_str(), m.c_str());
            std::exit(2);
          }
          if (plus == std::string::npos) break;
          start = plus + 1;
        }
      }
    }
  }
  opt.tenants.push_back(std::move(t));
  return true;
}

bool ParseChurnOnly(const std::string& arg, Options& opt) {
  auto value = [&](const char* prefix) {
    return arg.substr(std::strlen(prefix));
  };
  if (arg.rfind("--churn-kind=", 0) == 0) {
    auto kind = workload::ChurnKindFromName(value("--churn-kind="));
    if (!kind) {
      std::fprintf(stderr,
                   "unknown churn kind '%s' (poisson | diurnal | trace)\n",
                   value("--churn-kind=").c_str());
      std::exit(2);
    }
    opt.churn.kind = *kind;
  } else if (arg.rfind("--rate=", 0) == 0) {
    opt.churn.arrival_rate_per_sec = std::atof(value("--rate=").c_str());
  } else if (arg.rfind("--mean-lifetime-ms=", 0) == 0) {
    opt.churn.mean_lifetime =
        SimDuration(std::atof(value("--mean-lifetime-ms=").c_str()) *
                    double(kMillisecond));
  } else if (arg.rfind("--min-lifetime-ms=", 0) == 0) {
    opt.churn.min_lifetime =
        SimDuration(std::atof(value("--min-lifetime-ms=").c_str()) *
                    double(kMillisecond));
  } else if (arg.rfind("--max-tenants=", 0) == 0) {
    opt.churn.max_tenants =
        std::strtoull(value("--max-tenants=").c_str(), nullptr, 10);
  } else if (arg.rfind("--max-concurrent=", 0) == 0) {
    opt.churn.max_concurrent =
        std::strtoull(value("--max-concurrent=").c_str(), nullptr, 10);
  } else if (arg.rfind("--trace=", 0) == 0) {
    opt.churn.kind = workload::ChurnKind::kTrace;
    opt.churn.trace_csv = value("--trace=");
  } else {
    return false;
  }
  return true;
}

// Template syntax: app[:scale[:weight]] — an arrival-weighted tenant
// archetype, e.g. `memcached:0.02:3`.
bool ParseChurnTemplate(const std::string& arg, Options& opt) {
  workload::TenantTemplate t;
  auto c1 = arg.find(':');
  t.app = arg.substr(0, c1);
  if (t.app.empty()) return false;
  if (c1 != std::string::npos) {
    auto c2 = arg.find(':', c1 + 1);
    t.scale = std::atof(arg.substr(c1 + 1, c2 - c1 - 1).c_str());
    if (t.scale <= 0) {
      std::fprintf(stderr, "template '%s': scale must be > 0\n",
                   t.app.c_str());
      std::exit(2);
    }
    if (c2 != std::string::npos)
      t.weight = std::atof(arg.substr(c2 + 1).c_str());
  }
  opt.churn.templates.push_back(std::move(t));
  return true;
}

bool ParseApp(const std::string& arg, Options& opt) {
  auto colon = arg.find(':');
  std::string name = arg.substr(0, colon);
  std::uint32_t cores =
      colon == std::string::npos
          ? core::PaperCores(name)
          : std::uint32_t(std::atoi(arg.substr(colon + 1).c_str()));
  opt.apps.emplace_back(name, cores);
  return true;
}

int ListApps() {
  for (const std::string& n : workload::ManagedAppNames()) std::puts(n.c_str());
  for (const char* n : {"xgboost", "snappy", "memcached", "chase"})
    std::puts(n);
  return 0;
}

int ListSystems() {
  TablePrinter t({"name", "aliases", "description"});
  for (const core::PresetInfo& p : core::SystemConfig::ListPresets()) {
    std::string aliases;
    for (std::string_view a : p.aliases) {
      if (!aliases.empty()) aliases += ", ";
      aliases += a;
    }
    t.AddRow({std::string(p.name), aliases.empty() ? "-" : aliases,
              std::string(p.description)});
  }
  t.Print();
  return 0;
}

int ListServers() {
  TablePrinter t({"name", "description"});
  for (const auto& [name, description] : remote::PoolConfig::ListTopologies())
    t.AddRow({name, description});
  t.Print();
  return 0;
}

remote::PoolConfig ResolveTopology(const std::string& name) {
  try {
    return remote::PoolConfig::FromName(name);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s (see `canvasctl list-servers`)\n", e.what());
    std::exit(2);
  }
}

int ListTiers() {
  TablePrinter t({"name", "description"});
  for (const auto& [name, description] : tier::TierConfig::ListTiers())
    t.AddRow({name, description});
  t.Print();
  return 0;
}

tier::TierConfig ResolveTier(const std::string& name) {
  try {
    return tier::TierConfig::FromName(name);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s (see `canvasctl list-tiers`)\n", e.what());
    std::exit(2);
  }
}

/// Map a --granularity value to SystemConfig::objects.enabled (exit 2 on
/// an unknown name).
bool ResolveGranularity(const std::string& name) {
  auto enabled = orchestrator::GranularityFromName(name);
  if (!enabled) {
    std::fprintf(stderr, "unknown granularity '%s' (page | object)\n",
                 name.c_str());
    std::exit(2);
  }
  return *enabled;
}

remote::HarvestConfig ResolveHarvest(const std::string& name) {
  try {
    return remote::HarvestConfig::FromName(name);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s (see `canvasctl list-axes`)\n", e.what());
    std::exit(2);
  }
}

/// The one place every axis and its value registry is enumerated: each row
/// is (axis flag, value, description), fed from the same FromName
/// registries the parsers resolve through.
int ListAxes() {
  TablePrinter t({"axis", "value", "description"});
  for (const core::PresetInfo& p : core::SystemConfig::ListPresets())
    t.AddRow({"--systems", std::string(p.name), std::string(p.description)});
  for (const auto& [name, description] : remote::PoolConfig::ListTopologies())
    t.AddRow({"--topologies", name, description});
  for (const auto& [name, description] : tier::TierConfig::ListTiers())
    t.AddRow({"--tiers", name, description});
  for (const auto& [name, description] : remote::HarvestConfig::ListPresets())
    t.AddRow({"--harvests", name, description});
  t.AddRow({"--granularities", "page", "classic page-granular demand swap"});
  t.AddRow({"--granularities", "object",
            "behaviour-scheduled object fetching (DESIGN.md \xC2\xA7"
            "16)"});
  for (const char* name : {"poisson", "diurnal", "flash"})
    t.AddRow({"--arrivals", name, "serving arrival process"});
  for (const char* name : {"poisson", "diurnal", "trace"})
    t.AddRow({"--churn-kind", name, "tenant arrival generator"});
  t.Print();
  return 0;
}

int RunOne(const Options& opt) {
  auto cfg = ResolveSystem(opt.systems.front(), opt.overrides);
  cfg.remote = ResolveTopology(opt.topologies.front());
  cfg.tier = ResolveTier(opt.tiers.front());
  cfg.objects.enabled = ResolveGranularity(opt.granularities.front());
  // An explicit --harvest overrides the topology preset's own schedule.
  if (opt.harvests.set)
    cfg.remote.harvest = ResolveHarvest(opt.harvests.front());
  if (auto plan = ResolvePlan(opt)) cfg.fault_plan = std::move(plan);
  core::ExperimentSpec spec;
  spec.config = cfg;
  for (auto& [name, cores] : opt.apps) {
    core::AppBuild b;
    b.name = name;
    b.scale = opt.scales.front();
    b.ratio = opt.ratios.front();
    b.cores = cores;
    b.seed = opt.seeds.front();
    spec.apps.push_back(std::move(b));
  }

  core::Experiment exp(spec);
  bool finished = exp.Run();

  if (opt.format == "csv") {
    core::WriteCsv(std::cout, exp.system(), cfg.name);
  } else if (opt.format == "json") {
    core::WriteJson(std::cout, exp.system(), cfg.name);
  } else {
    PrintBanner(cfg.name + (finished ? "" : "  [DID NOT FINISH]"));
    TablePrinter t({"app", "runtime", "faults", "major", "contrib",
                    "accuracy", "swap-outs", "lock-free", "drops"});
    for (std::size_t i = 0; i < exp.system().app_count(); ++i) {
      const auto& m = exp.system().metrics(i);
      t.AddRow({m.name, FormatTime(m.finish_time),
                std::to_string(m.faults), std::to_string(m.faults_major),
                TablePrinter::Num(m.ContributionPct(), 1) + "%",
                TablePrinter::Num(m.AccuracyPct(), 1) + "%",
                std::to_string(m.swapouts),
                std::to_string(m.lockfree_swapouts),
                std::to_string(exp.system().scheduler().drops_for(
                    exp.system().cgroup_of(i)))});
    }
    t.Print();
    std::printf("RDMA in %.0fMB/s out %.0fMB/s, WMMR %.2f\n",
                exp.system()
                        .nic()
                        .bytes_series(rdma::Direction::kIngress)
                        .MeanRate() /
                    1e6,
                exp.system()
                        .nic()
                        .bytes_series(rdma::Direction::kEgress)
                        .MeanRate() /
                    1e6,
                exp.system().Wmmr(rdma::Direction::kIngress));
  }
  return finished ? 0 : 1;
}

int RunSweep(const Options& opt) {
  orchestrator::ScenarioSpec scenario;
  scenario.systems = opt.systems;
  scenario.topologies = opt.topologies;
  scenario.tiers = opt.tiers;
  scenario.granularities = opt.granularities;
  scenario.overrides = opt.overrides;
  scenario.ratios = opt.ratios;
  scenario.scales = opt.scales;
  scenario.seeds = opt.seeds;
  for (auto& [name, cores] : opt.apps) {
    core::AppBuild b;
    b.name = name;
    b.cores = cores;
    scenario.apps.push_back(std::move(b));
  }
  // Validate preset + topology + tier names before spinning up the pool.
  for (const std::string& s : scenario.systems) ResolveSystem(s, {});
  for (const std::string& t : scenario.topologies) ResolveTopology(t);
  for (const std::string& t : scenario.tiers) ResolveTier(t);
  for (const std::string& g : scenario.granularities) ResolveGranularity(g);

  orchestrator::SweepOptions sweep_opts;
  sweep_opts.jobs = opt.jobs;
  sweep_opts.max_live = opt.max_live;
  sweep_opts.cancel_on_failure = opt.cancel_on_failure;
  sweep_opts.progress = opt.progress;
  orchestrator::SweepEngine engine(sweep_opts);
  // A --fault-plan applies to every grid point: stamp the expanded specs
  // (labels are untouched — the plan is not a sweep axis).
  std::vector<orchestrator::RunSpec> specs = scenario.Expand();
  if (auto plan = ResolvePlan(opt))
    for (orchestrator::RunSpec& r : specs) r.exp.config.fault_plan = plan;
  // --harvest applies to every grid point (not a batch-sweep axis; use
  // `canvasctl churn --harvests=` for the axis form).
  if (opt.harvests.set) {
    remote::HarvestConfig harvest = ResolveHarvest(opt.harvests.front());
    for (orchestrator::RunSpec& r : specs) r.exp.config.remote.harvest = harvest;
  }
  auto result = engine.Run(std::move(specs));

  if (!opt.out.empty()) {
    std::ofstream os(opt.out);
    if (!os) {
      std::fprintf(stderr, "cannot write %s\n", opt.out.c_str());
      return 1;
    }
    result.WriteJson(os);
    std::fprintf(stderr, "wrote %s (%zu runs, %u jobs, %.2fs)\n",
                 opt.out.c_str(), result.runs.size(), result.jobs,
                 result.wall_sec);
  } else {
    result.WriteJson(std::cout);
  }
  return result.all_ok ? 0 : 1;
}

int RunServe(const Options& opt) {
  orchestrator::ServingScenarioSpec scenario;
  scenario.systems = opt.systems;
  scenario.overrides = opt.overrides;
  scenario.arrivals = opt.arrivals;
  scenario.seeds = opt.seeds;
  scenario.qos_enabled = opt.qos;
  if (!opt.qos_curve_path.empty()) {
    std::string err;
    auto curve = serving::SupplyCurve::LoadFile(opt.qos_curve_path, &err);
    if (!curve) {
      std::fprintf(stderr, "bad supply curve '%s': %s\n",
                   opt.qos_curve_path.c_str(), err.c_str());
      std::exit(2);
    }
    scenario.qos.supply = std::move(*curve);
  }
  // `serve` defaults to the pool4 topology (the QoS plane's migration
  // lever needs a multi-server pool); --topology/--topologies override.
  scenario.topologies = opt.topologies;
  scenario.granularities = opt.granularities;

  scenario.tenants = opt.tenants;
  if (scenario.tenants.empty()) {
    // Default co-run: a latency-sensitive frontend carrying the arrival
    // axis plus a best-effort batch tenant the QoS plane may shed.
    serving::TenantSpec fe;
    fe.name = "frontend";
    fe.arrival.rate_rps = 150000;
    fe.load_tenant = true;
    serving::TenantSpec batch;
    batch.name = "batch";
    batch.arrival.rate_rps = 50000;
    batch.best_effort = true;
    scenario.tenants = {fe, batch};
  }
  for (serving::TenantSpec& t : scenario.tenants) {
    t.slo = opt.slo;
    t.horizon = SimTime(opt.horizon_sec * 1e9);
    t.ratio = opt.ratios.front();
  }
  for (const std::string& s : scenario.systems) ResolveSystem(s, {});
  for (const std::string& t : scenario.topologies) ResolveTopology(t);
  for (const std::string& g : scenario.granularities) ResolveGranularity(g);
  for (const std::string& a : scenario.arrivals) {
    if (!workload::ArrivalKindFromName(a)) {
      std::fprintf(stderr,
                   "unknown arrival process '%s' (poisson | diurnal | "
                   "flash)\n",
                   a.c_str());
      std::exit(2);
    }
  }

  orchestrator::SweepOptions sweep_opts;
  sweep_opts.jobs = opt.jobs;
  sweep_opts.max_live = opt.max_live;
  sweep_opts.cancel_on_failure = opt.cancel_on_failure;
  sweep_opts.progress = opt.progress;
  orchestrator::SweepEngine engine(sweep_opts);
  std::vector<serving::ServingSpec> specs = scenario.Expand();
  if (opt.harvests.set) {
    remote::HarvestConfig harvest = ResolveHarvest(opt.harvests.front());
    for (serving::ServingSpec& s : specs) s.config.remote.harvest = harvest;
  }
  auto result = engine.RunServing(std::move(specs));

  if (!opt.out.empty()) {
    std::ofstream os(opt.out);
    if (!os) {
      std::fprintf(stderr, "cannot write %s\n", opt.out.c_str());
      return 1;
    }
    result.WriteJson(os);
    std::fprintf(stderr, "wrote %s (%zu runs, %u jobs, %.2fs)\n",
                 opt.out.c_str(), result.runs.size(), result.jobs,
                 result.wall_sec);
  } else {
    result.WriteJson(std::cout);
  }
  return result.all_ok ? 0 : 1;
}

int RunChurnCmd(const Options& opt) {
  orchestrator::ChurnScenarioSpec scenario;
  scenario.systems = opt.systems;
  scenario.overrides = opt.overrides;
  scenario.topologies = opt.topologies;
  scenario.tiers = opt.tiers;
  scenario.harvests = opt.harvests;
  scenario.seeds = opt.seeds;
  scenario.churn = opt.churn;
  scenario.churn.horizon = SimDuration(opt.horizon_sec * 1e9);
  for (const std::string& s : scenario.systems) ResolveSystem(s, {});
  for (const std::string& t : scenario.topologies) ResolveTopology(t);
  for (const std::string& t : scenario.tiers) ResolveTier(t);
  for (const std::string& h : scenario.harvests) ResolveHarvest(h);

  orchestrator::SweepOptions sweep_opts;
  sweep_opts.jobs = opt.jobs;
  sweep_opts.max_live = opt.max_live;
  sweep_opts.cancel_on_failure = opt.cancel_on_failure;
  sweep_opts.progress = opt.progress;
  orchestrator::SweepEngine engine(sweep_opts);
  orchestrator::ChurnSweepResult result = engine.RunChurn(scenario);

  if (!opt.out.empty()) {
    std::ofstream os(opt.out);
    if (!os) {
      std::fprintf(stderr, "cannot write %s\n", opt.out.c_str());
      return 1;
    }
    result.WriteJson(os);
    std::fprintf(stderr, "wrote %s (%zu runs, %u jobs, %.2fs)\n",
                 opt.out.c_str(), result.runs.size(), result.jobs,
                 result.wall_sec);
  } else {
    result.WriteJson(std::cout);
  }
  return result.all_ok ? 0 : 1;
}

int ParseAndRunChurn(int argc, char** argv, int first_arg) {
  Options opt;
  opt.topologies.values = {"pool4"};  // churn pairs with a server pool
  // Cluster-day defaults: a long horizon with small tenants.
  opt.horizon_sec = 2.0;
  for (int i = first_arg; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return Usage(stdout, 0);
    if (ParseChurnOnly(arg, opt)) continue;
    if (ParseCommon(arg, opt)) continue;
    if (ParseSweepOnly(arg, opt)) continue;
    if (arg.rfind("--horizon=", 0) == 0) {
      opt.horizon_sec = std::atof(arg.substr(std::strlen("--horizon=")).c_str());
      continue;
    }
    if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return Usage(stderr, 2);
    }
    ParseChurnTemplate(arg, opt);
  }
  return RunChurnCmd(opt);
}

int ParseAndRunServe(int argc, char** argv, int first_arg) {
  Options opt;
  opt.topologies = {"pool4"};
  for (int i = first_arg; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return Usage(stdout, 0);
    if (ParseCommon(arg, opt)) continue;
    if (ParseSweepOnly(arg, opt)) continue;
    if (ParseServeOnly(arg, opt)) continue;
    if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return Usage(stderr, 2);
    }
    ParseServeTenant(arg, opt);
  }
  return RunServe(opt);
}

int ParseAndRun(int argc, char** argv, int first_arg, bool sweep) {
  Options opt;
  for (int i = first_arg; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return Usage(stdout, 0);
    if (ParseCommon(arg, opt)) continue;
    if (sweep && ParseSweepOnly(arg, opt)) continue;
    if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return Usage(stderr, 2);
    }
    ParseApp(arg, opt);
  }
  if (opt.apps.empty()) return Usage(stderr, 2);
  return sweep ? RunSweep(opt) : RunOne(opt);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage(stderr, 2);
  std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "-h" || cmd == "help") return Usage(stdout, 0);
  if (cmd == "list-apps" || cmd == "--list") return ListApps();
  if (cmd == "list-axes") return ListAxes();
  if (cmd == "list-systems") return ListSystems();
  if (cmd == "list-servers") return ListServers();
  if (cmd == "list-tiers") return ListTiers();
  if (cmd == "run") return ParseAndRun(argc, argv, 2, /*sweep=*/false);
  if (cmd == "sweep") return ParseAndRun(argc, argv, 2, /*sweep=*/true);
  if (cmd == "serve") return ParseAndRunServe(argc, argv, 2);
  if (cmd == "churn") return ParseAndRunChurn(argc, argv, 2);
  // The flat form `canvasctl [options] app ...` (no subcommand) was
  // deprecated and is now a hard error — fail loudly rather than guessing.
  std::fprintf(stderr,
               "canvasctl: '%s' is not a subcommand; the old flat form was "
               "removed.\nMigrate to `canvasctl run %s ...` (see "
               "`canvasctl --help`).\n",
               cmd.c_str(), cmd.c_str());
  return 2;
}
