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
//                                               grid (open-loop load,
//                                               per-tenant SLO windows)
//   canvasctl churn [options] [template[:scale[:weight]] ...]
//                                               cluster-day tenant churn
//                                               grid (DESIGN.md §15)
//   canvasctl list-apps | list-axes | list-systems | list-servers |
//             list-tiers                        registries
//
// All four run commands share one path: parse, check every axis flag
// against what the command reads, expand the scenario (an unknown name on
// any axis exits 2), stamp --fault-plan (and a single --harvest) onto
// every spec, then run one spec (`run`) or the whole grid on the
// SweepEngine pool. `run` takes one value per axis; `sweep`, `serve` and
// `churn` expand the shared axes (--systems --topologies --tiers
// --granularities --seeds) plus their own (--ratios --scales for sweep,
// --arrivals for serve, --harvests for churn) as a full grid. An axis a
// command does not read is rejected rather than ignored. Plural axis flags
// are repeatable comma lists (the first occurrence replaces the default,
// later ones append); the singular spellings are deprecated aliases.
// Numbers must parse in full and be non-negative; anything else exits 2.
// `canvasctl --help` lists every flag.
//
// Examples:
//   canvasctl run spark-lr snappy memcached xgboost
//   canvasctl run --system=linux --format=csv cassandra:24 memcached:4
//   canvasctl sweep --systems=linux,canvas --ratios=0.25,0.5 --jobs=8
//       spark-lr snappy memcached xgboost        (one command line)
#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "common/table.h"
#include "core/experiment.h"
#include "core/report.h"
#include "fault/fault_plan.h"
#include "orchestrator/sweep.h"
#include "remote/harvest.h"
#include "remote/pool.h"
#include "tier/tier.h"
#include "workload/apps.h"

using namespace canvas;

namespace {

enum class Command { kRun, kSweep, kServe, kChurn };
constexpr const char* kCommandNames[] = {"run", "sweep", "serve", "churn"};

/// How a command reads an axis flag.
enum class Use : std::uint8_t {
  kGrid,  ///< every value, as one dimension of the grid
  kOne,   ///< a single value; more than one is an error
  kNone,  ///< not at all; giving the flag is an error
};
/// Per command, in Command order (run, sweep, serve, churn).
using Uses = std::array<Use, 4>;
constexpr Uses kSharedAxis = {Use::kOne, Use::kGrid, Use::kGrid, Use::kGrid};

[[noreturn]] void Fail(const std::string& msg) {
  std::fprintf(stderr, "canvasctl: %s\n", msg.c_str());
  std::exit(2);
}

std::vector<std::string> Split(const std::string& s, const char* seps) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (;;) {
    std::size_t cut = s.find_first_of(seps, start);
    out.push_back(s.substr(start, cut - start));
    if (cut == std::string::npos) return out;
    start = cut + 1;
  }
}

/// `text` as a T, parsed in full. Every number canvasctl takes is a
/// non-negative count, rate, time, scale or fraction, so a sign, NaN,
/// trailing junk or an empty string exits 2.
template <typename T>
T Parse(const std::string& flag, const std::string& text) {
  if constexpr (std::is_same_v<T, std::string>) {
    return text;
  } else {
    T v{};
    const char* end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, v);
    bool ok = ec == std::errc() && ptr == end;
    if constexpr (std::is_floating_point_v<T>)
      ok = ok && std::isfinite(v) && v >= 0;
    if (!ok)
      Fail(flag + ": '" + text + "' is not a non-negative " +
           (std::is_integral_v<T> ? "integer" : "number"));
    return v;
  }
}

template <typename T>
void Set(T& field, const std::string& flag, const std::string& text) {
  field = Parse<T>(flag, text);
}

/// One repeatable axis flag: the first explicit occurrence replaces the
/// built-in default, later occurrences append — so
/// `--systems=canvas --systems=linux` equals `--systems=canvas,linux`.
template <typename T>
struct Axis {
  const char* plural;    ///< "--systems"
  const char* singular;  ///< "--system", the deprecated alias
  Uses use;
  std::vector<T> values;
  bool set = false;

  void Add(const std::string& flag, const std::string& text) {
    if (!set) values.clear();
    set = true;
    for (const std::string& item : Split(text, ","))
      values.push_back(Parse<T>(flag, item));
  }
};

struct Options {
  explicit Options(Command c) : cmd(c) {
    // Serving and churn default to a pool of servers (churn's slab release
    // needs one).
    if (c == Command::kServe || c == Command::kChurn)
      topologies.values = {"pool4"};
  }

  Command cmd;
  Axis<std::string> systems{"--systems", "--system", kSharedAxis, {"canvas"}};
  Axis<std::string> topologies{"--topologies", "--topology", kSharedAxis,
                               {"single"}};
  Axis<std::string> tiers{"--tiers", "--tier", kSharedAxis, {"none"}};
  Axis<std::string> granularities{"--granularities", "--granularity",
                                  kSharedAxis, {"page"}};
  Axis<std::uint64_t> seeds{"--seeds", "--seed", kSharedAxis, {7}};
  Axis<double> ratios{"--ratios", "--ratio",
                      {Use::kOne, Use::kGrid, Use::kOne, Use::kNone}, {0.25}};
  Axis<double> scales{"--scales", "--scale",
                      {Use::kOne, Use::kGrid, Use::kNone, Use::kNone}, {0.3}};
  Axis<std::string> arrivals{"--arrivals", "--arrival",
                             {Use::kNone, Use::kNone, Use::kGrid, Use::kNone},
                             {"poisson"}};
  Axis<std::string> harvests{"--harvests", "--harvest",
                             {Use::kOne, Use::kOne, Use::kOne, Use::kGrid},
                             {"closed-loop"}};
  orchestrator::FeatureOverrides overrides;
  std::string fault_plan_path;
  // run
  std::string format = "table";
  std::vector<std::pair<std::string, std::uint32_t>> apps;  // also sweep
  // sweep, serve, churn: execution
  unsigned jobs = 0;  // 0 = hardware concurrency
  unsigned max_live = 0;
  bool cancel_on_failure = false;
  bool progress = false;
  std::string out;
  // serve, churn
  double horizon_sec = 2.0;
  // serve
  bool qos = true;
  serving::SloConfig slo;
  std::vector<serving::TenantSpec> tenants;
  // churn
  workload::ChurnSpec churn;
};

template <typename O, typename F>
void ForEachAxis(O& opt, F f) {
  f(opt.systems);
  f(opt.topologies);
  f(opt.tiers);
  f(opt.granularities);
  f(opt.seeds);
  f(opt.ratios);
  f(opt.scales);
  f(opt.arrivals);
  f(opt.harvests);
}

int Usage(FILE* to, int code) {
  std::fprintf(
      to,
      "usage: canvasctl run   [shared options] [--format=table|csv|json]\n"
      "                       app[:cores] ...\n"
      "       canvasctl sweep [shared options] [grid options]\n"
      "                       [--ratios=R,..] [--scales=S,..] app[:cores] ...\n"
      "       canvasctl serve [shared options] [grid options]\n"
      "                       [--arrivals=poisson,diurnal,flash]\n"
      "                       [--horizon=SEC] [--slo-p99-us=N]\n"
      "                       [--slo-p999-us=N] [--no-qos]\n"
      "                       [--ratio=R] [tenant[:rate_rps[:mods]] ...]\n"
      "       canvasctl churn [shared options] [grid options]\n"
      "                       [--harvests=none,steady,bursty,closed-loop]\n"
      "                       [--churn-kind=poisson|diurnal|trace]\n"
      "                       [--rate=PER_SEC] [--mean-lifetime-ms=N]\n"
      "                       [--min-lifetime-ms=N] [--max-tenants=N]\n"
      "                       [--max-concurrent=N] [--horizon=SEC]\n"
      "                       [--trace=FILE] [template[:scale[:weight]] ...]\n"
      "       canvasctl list-apps | list-axes | list-systems |\n"
      "                 list-servers | list-tiers\n"
      "shared:  --systems=A,B --topologies=T,.. --tiers=T,..\n"
      "         --granularities=page,object --seeds=N,.. --fault-plan=FILE\n"
      "         --no-adaptive --no-horizontal\n"
      "         --prefetcher=none|readahead|leap|two-tier\n"
      "         --harvest=H (run, sweep, serve: one schedule for every run)\n"
      "grid:    --jobs=N --max-live=N --cancel-on-failure --progress\n"
      "         --out=FILE\n"
      "axes:    plural axis flags are repeatable and take comma lists\n"
      "         (values in `canvasctl list-axes`); `run` takes one value\n"
      "         per axis; singular spellings (--system= ...) are aliases.\n"
      "         serve and churn default to --topologies=pool4.\n"
      "serve:   tenant mods are `be` (best-effort) and `load` (arrival\n"
      "         axis target), joined with '+': e.g. frontend:150000:load\n"
      "         The QoS plane only judges SLO windows; --no-qos skips\n"
      "         that, and the tenants see the same run.\n"
      "churn:   templates are app names with optional footprint scale and\n"
      "         arrival weight, e.g. `memcached:0.02:3 snappy:0.01:1`\n");
  return code;
}

/// One argument, split at its first '='.
struct Arg {
  std::string key;
  std::string value;
  bool bare = true;  ///< no '=' at all

  explicit Arg(const std::string& arg) {
    std::size_t eq = arg.find('=');
    key = arg.substr(0, eq);
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      bare = false;
    }
  }
};

bool ParseAxis(const Arg& a, Options& opt) {
  bool hit = false;
  ForEachAxis(opt, [&](auto& axis) {
    if (!hit && !a.bare && (a.key == axis.plural || a.key == axis.singular)) {
      axis.Add(a.key, a.value);
      hit = true;
    }
  });
  return hit;
}

/// Every non-axis flag, each accepted only by the commands that read it.
bool ParseFlag(const Arg& a, Options& opt) {
  auto flag = [&](const char* name) { return a.bare && a.key == name; };
  auto option = [&](const char* name) { return !a.bare && a.key == name; };
  bool grid = opt.cmd != Command::kRun;
  bool serve = opt.cmd == Command::kServe;
  bool churn = opt.cmd == Command::kChurn;
  if (option("--prefetcher")) {
    auto kind = orchestrator::PrefetcherFromName(a.value);
    if (!kind) Fail("unknown prefetcher '" + a.value + "'");
    opt.overrides.prefetcher = *kind;
  } else if (option("--fault-plan")) {
    opt.fault_plan_path = a.value;
  } else if (flag("--no-adaptive")) {
    opt.overrides.adaptive_alloc = false;
  } else if (flag("--no-horizontal")) {
    opt.overrides.horizontal_sched = false;
  } else if (!grid && option("--format")) {
    if (a.value != "table" && a.value != "csv" && a.value != "json")
      Fail("unknown format '" + a.value + "' (table | csv | json)");
    opt.format = a.value;
  } else if (grid && option("--jobs")) {
    Set(opt.jobs, a.key, a.value);
  } else if (grid && option("--max-live")) {
    Set(opt.max_live, a.key, a.value);
  } else if (grid && flag("--cancel-on-failure")) {
    opt.cancel_on_failure = true;
  } else if (grid && flag("--progress")) {
    opt.progress = true;
  } else if (grid && option("--out")) {
    opt.out = a.value;
  } else if ((serve || churn) && option("--horizon")) {
    Set(opt.horizon_sec, a.key, a.value);
  } else if (serve && option("--slo-p99-us")) {
    opt.slo.p99_ns = SimTime(Parse<double>(a.key, a.value) * 1e3);
  } else if (serve && option("--slo-p999-us")) {
    opt.slo.p999_ns = SimTime(Parse<double>(a.key, a.value) * 1e3);
  } else if (serve && flag("--no-qos")) {
    opt.qos = false;
  } else if (churn && option("--churn-kind")) {
    auto kind = workload::ChurnKindFromName(a.value);
    if (!kind)
      Fail("unknown churn kind '" + a.value + "' (poisson | diurnal | trace)");
    opt.churn.kind = *kind;
  } else if (churn && option("--rate")) {
    Set(opt.churn.arrival_rate_per_sec, a.key, a.value);
  } else if (churn && option("--mean-lifetime-ms")) {
    opt.churn.mean_lifetime =
        SimDuration(Parse<double>(a.key, a.value) * double(kMillisecond));
  } else if (churn && option("--min-lifetime-ms")) {
    opt.churn.min_lifetime =
        SimDuration(Parse<double>(a.key, a.value) * double(kMillisecond));
  } else if (churn && option("--max-tenants")) {
    Set(opt.churn.max_tenants, a.key, a.value);
  } else if (churn && option("--max-concurrent")) {
    Set(opt.churn.max_concurrent, a.key, a.value);
  } else if (churn && option("--trace")) {
    opt.churn.kind = workload::ChurnKind::kTrace;
    opt.churn.trace_csv = a.value;
  } else {
    return false;
  }
  return true;
}

// app[:cores] (run, sweep); cores 0 = the paper's core count.
void AddApp(const std::string& arg, Options& opt) {
  std::vector<std::string> f = Split(arg, ":");
  if (f[0].empty() || f.size() > 2) Fail("bad app '" + arg + "'");
  opt.apps.emplace_back(
      f[0], f.size() > 1 ? Parse<std::uint32_t>("app cores", f[1]) : 0);
}

// name[:rate_rps[:mods]] (serve), mods a '+'-joined list of `be`
// (best-effort) and `load` (arrival-axis target).
void AddTenant(const std::string& arg, Options& opt) {
  std::vector<std::string> f = Split(arg, ":");
  if (f[0].empty() || f.size() > 3) Fail("bad tenant '" + arg + "'");
  serving::TenantSpec t;
  t.name = f[0];
  if (f.size() > 1) {
    t.arrival.rate_rps = Parse<double>("tenant rate", f[1]);
    if (t.arrival.rate_rps <= 0)
      Fail("tenant '" + t.name + "': rate must be > 0");
  }
  if (f.size() > 2) {
    for (const std::string& m : Split(f[2], "+,")) {
      if (m == "be") {
        t.best_effort = true;
      } else if (m == "load") {
        t.load_tenant = true;
      } else if (!m.empty()) {
        Fail("tenant '" + t.name + "': unknown mod '" + m + "'");
      }
    }
  }
  opt.tenants.push_back(std::move(t));
}

// app[:scale[:weight]] (churn): an arrival-weighted tenant archetype, e.g.
// `memcached:0.02:3`.
void AddTemplate(const std::string& arg, Options& opt) {
  std::vector<std::string> f = Split(arg, ":");
  if (f[0].empty() || f.size() > 3) Fail("bad template '" + arg + "'");
  workload::TenantTemplate t;
  t.app = f[0];
  if (f.size() > 1) {
    t.scale = Parse<double>("template scale", f[1]);
    if (t.scale <= 0) Fail("template '" + t.app + "': scale must be > 0");
  }
  if (f.size() > 2) t.weight = Parse<double>("template weight", f[2]);
  opt.churn.templates.push_back(std::move(t));
}

/// Reject an axis the command does not read, and more than one value on an
/// axis it reads only once — instead of silently dropping them.
void CheckAxes(const Options& opt) {
  std::string cmd = kCommandNames[int(opt.cmd)];
  ForEachAxis(opt, [&](const auto& axis) {
    Use use = axis.use[int(opt.cmd)];
    if (use == Use::kNone && axis.set)
      Fail(std::string(axis.plural) + " does not apply to `canvasctl " +
           cmd + "`");
    if (use == Use::kOne && axis.values.size() > 1)
      Fail(std::string(axis.plural) + " takes one value in `canvasctl " +
           cmd + "`");
  });
}

/// Call `resolve`, turning an unknown registry name (std::invalid_argument)
/// into exit 2.
template <typename F>
auto Resolve(F resolve) {
  try {
    return resolve();
  } catch (const std::invalid_argument& e) {
    Fail(std::string(e.what()) + " (see `canvasctl list-axes`)");
  }
}

/// Fill the shared axis block, expand, and stamp what applies to every
/// run alike: the --fault-plan, and a single --harvest schedule where
/// harvest is not a grid axis. Exits 2 on any bad name or plan.
template <typename Scenario>
auto ExpandSpecs(const Options& opt, Scenario sc) {
  sc.systems = opt.systems.values;
  sc.overrides = opt.overrides;
  sc.topologies = opt.topologies.values;
  sc.tiers = opt.tiers.values;
  sc.granularities = opt.granularities.values;
  sc.seeds = opt.seeds.values;
  auto specs = Resolve([&] { return sc.Expand(); });

  std::shared_ptr<const fault::FaultPlan> plan;
  if (!opt.fault_plan_path.empty()) {
    std::string err;
    auto loaded = fault::FaultPlan::LoadFile(opt.fault_plan_path, &err);
    if (!loaded)
      Fail("bad fault plan '" + opt.fault_plan_path + "': " + err);
    plan = std::make_shared<const fault::FaultPlan>(std::move(*loaded));
  }
  std::optional<remote::HarvestConfig> harvest;
  if (opt.harvests.set && opt.harvests.use[int(opt.cmd)] == Use::kOne)
    harvest = Resolve([&] {
      return remote::HarvestConfig::FromName(opt.harvests.values.front());
    });
  for (auto& spec : specs) {
    core::SystemConfig& cfg = orchestrator::ConfigOf(spec);
    if (plan) {
      cfg.fault_plan = plan;
      try {
        // An empty server list is `single`, a pool of one.
        plan->CheckServerTargets(
            std::max<std::size_t>(cfg.remote.servers.size(), 1),
            cfg.remote.topology);
      } catch (const std::invalid_argument& e) {
        Fail(e.what());
      }
    }
    if (harvest) cfg.remote.harvest = *harvest;
  }
  return specs;
}

orchestrator::ScenarioSpec BatchScenario(const Options& opt) {
  orchestrator::ScenarioSpec sc;
  sc.ratios = opt.ratios.values;
  sc.scales = opt.scales.values;
  for (const auto& [name, cores] : opt.apps) {
    core::AppBuild b;
    b.name = name;
    b.cores = cores;
    sc.apps.push_back(std::move(b));
  }
  return sc;
}

orchestrator::ServingScenarioSpec ServingScenario(const Options& opt) {
  orchestrator::ServingScenarioSpec sc;
  sc.arrivals = opt.arrivals.values;
  sc.qos_enabled = opt.qos;
  sc.tenants = opt.tenants;
  if (sc.tenants.empty()) {
    // Default co-run: a latency-sensitive frontend carrying the arrival
    // axis plus a best-effort batch tenant.
    serving::TenantSpec fe;
    fe.name = "frontend";
    fe.arrival.rate_rps = 150000;
    fe.load_tenant = true;
    serving::TenantSpec batch;
    batch.name = "batch";
    batch.arrival.rate_rps = 50000;
    batch.best_effort = true;
    sc.tenants = {fe, batch};
  }
  for (serving::TenantSpec& t : sc.tenants) {
    t.slo = opt.slo;
    t.horizon = SimTime(opt.horizon_sec * 1e9);
    t.ratio = opt.ratios.values.front();
  }
  return sc;
}

orchestrator::ChurnScenarioSpec ChurnScenario(const Options& opt) {
  orchestrator::ChurnScenarioSpec sc;
  sc.harvests = opt.harvests.values;
  sc.churn = opt.churn;
  sc.churn.horizon = SimDuration(opt.horizon_sec * 1e9);
  return sc;
}

int RunOne(const Options& opt, const orchestrator::RunSpec& spec) {
  const std::string& name = spec.exp.config.name;
  core::Experiment exp(spec.exp);
  bool finished = exp.Run();
  const core::SwapSystem& sys = exp.system();

  if (opt.format == "csv") {
    core::WriteCsv(std::cout, sys, name);
  } else if (opt.format == "json") {
    core::WriteJson(std::cout, sys, name);
  } else {
    PrintBanner(name + (finished ? "" : "  [DID NOT FINISH]"));
    TablePrinter t({"app", "runtime", "faults", "major", "contrib",
                    "accuracy", "swap-outs", "lock-free", "drops"});
    for (std::size_t i = 0; i < sys.app_count(); ++i) {
      const auto& m = sys.metrics(i);
      t.AddRow({m.name, FormatTime(m.finish_time), std::to_string(m.faults),
                std::to_string(m.faults_major),
                TablePrinter::Num(m.ContributionPct(), 1) + "%",
                TablePrinter::Num(m.AccuracyPct(), 1) + "%",
                std::to_string(m.swapouts),
                std::to_string(m.lockfree_swapouts),
                std::to_string(sys.scheduler().drops_for(sys.cgroup_of(i)))});
    }
    t.Print();
    std::printf("RDMA in %.0fMB/s out %.0fMB/s, WMMR %.2f\n",
                sys.nic().bytes_series(rdma::Direction::kIngress).MeanRate() /
                    1e6,
                sys.nic().bytes_series(rdma::Direction::kEgress).MeanRate() /
                    1e6,
                sys.Wmmr(rdma::Direction::kIngress));
  }
  return finished ? 0 : 1;
}

/// Run a scenario's grid on the worker pool and write its JSON report to
/// --out or stdout.
template <typename Scenario>
int RunGrid(const Options& opt, Scenario sc) {
  auto specs = ExpandSpecs(opt, std::move(sc));
  orchestrator::SweepOptions sweep_opts;
  sweep_opts.jobs = opt.jobs;
  sweep_opts.max_live = opt.max_live;
  sweep_opts.cancel_on_failure = opt.cancel_on_failure;
  sweep_opts.progress = opt.progress;
  auto result = orchestrator::SweepEngine(sweep_opts).Run(std::move(specs));

  if (opt.out.empty()) {
    result.WriteJson(std::cout);
  } else {
    std::ofstream os(opt.out);
    if (!os) {
      std::fprintf(stderr, "cannot write %s\n", opt.out.c_str());
      return 1;
    }
    result.WriteJson(os);
    std::fprintf(stderr, "wrote %s (%zu runs, %u jobs, %.2fs)\n",
                 opt.out.c_str(), result.runs.size(), result.jobs,
                 result.wall_sec);
  }
  return result.all_ok ? 0 : 1;
}

int Main(Command cmd, int argc, char** argv) {
  Options opt(cmd);
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return Usage(stdout, 0);
    Arg a(arg);
    if (ParseAxis(a, opt) || ParseFlag(a, opt)) continue;
    if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return Usage(stderr, 2);
    }
    if (cmd == Command::kServe) {
      AddTenant(arg, opt);
    } else if (cmd == Command::kChurn) {
      AddTemplate(arg, opt);
    } else {
      AddApp(arg, opt);
    }
  }
  CheckAxes(opt);
  switch (cmd) {
    case Command::kRun:
      if (opt.apps.empty()) return Usage(stderr, 2);
      return RunOne(opt, ExpandSpecs(opt, BatchScenario(opt)).front());
    case Command::kSweep:
      if (opt.apps.empty()) return Usage(stderr, 2);
      return RunGrid(opt, BatchScenario(opt));
    case Command::kServe:
      return RunGrid(opt, ServingScenario(opt));
    case Command::kChurn:
      return RunGrid(opt, ChurnScenario(opt));
  }
  return 2;
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

int ListTiers() {
  TablePrinter t({"name", "description"});
  for (const auto& [name, description] : tier::TierConfig::ListTiers())
    t.AddRow({name, description});
  t.Print();
  return 0;
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
  for (int c = 0; c < 4; ++c)
    if (cmd == kCommandNames[c]) return Main(Command(c), argc, argv);
  // The flat form `canvasctl [options] app ...` (no subcommand) was
  // deprecated and is now a hard error — fail loudly rather than guessing.
  std::fprintf(stderr,
               "canvasctl: '%s' is not a subcommand; the old flat form was "
               "removed.\nMigrate to `canvasctl run %s ...` (see "
               "`canvasctl --help`).\n",
               cmd.c_str(), cmd.c_str());
  return 2;
}
