// paper: the paper's evaluation (Figs. 2-16, Tables 3-5 and the feature
// ablation) as one deduplicated run grid with checked verdicts.
//
//   paper [--only=<id>]...
//
// stdout is every figure's tables, identical for any CANVAS_JOBS; stderr
// has the grid size ("N specs, M distinct") and each failed check. Exits
// 1 if a check fails or a run errors, 2 on bad input.
#include "paper.h"

namespace canvas::paper {

std::size_t Grid::Add(core::SystemConfig cfg,
                      std::vector<core::AppBuild> apps) {
  ++added;
  core::ExperimentSpec exp{.config = std::move(cfg), .apps = std::move(apps)};
  for (const orchestrator::RunSpec& s : specs)
    if (s.exp == exp) return s.index;
  return AddRun(specs, exp.config.name, std::move(exp.config),
                std::move(exp.apps));
}

std::vector<double> Grid::Slowdowns(
    std::size_t h, const std::vector<std::size_t>& solo) const {
  std::vector<double> sd;
  for (std::size_t i = 0; i < solo.size(); ++i)
    sd.push_back(core::Slowdown(Finish(h, i), Finish(solo[i])));
  return sd;
}

void Checks::Within(const std::string& name, double value, double lo,
                    double hi) {
  ++total;
  if (lo <= value && value <= hi) return;
  ++failed;
  std::fprintf(stderr, "FAIL %s = %g, want [%g, %g]\n", name.c_str(), value,
               lo, hi);
}

void Checks::Above(const std::string& name, double value, double bound) {
  ++total;
  if (value > bound) return;
  ++failed;
  std::fprintf(stderr, "FAIL %s = %g, want > %g\n", name.c_str(), value,
               bound);
}

std::vector<std::size_t> GroupSolos(Grid& grid, const std::string& managed,
                                    double scale, double ratio) {
  std::vector<std::size_t> solo;
  for (const core::AppBuild& b : CorunBuilds(managed, scale, ratio))
    solo.push_back(grid.Add(core::SystemConfig::Linux55(), {b}));
  return solo;
}

double PerSecond(std::uint64_t count, SimTime finish) {
  return double(count) * double(kSecond) / double(finish ? finish : kSecond);
}

double AllocUsPerSwapout(const core::AppMetrics& m) {
  return m.swapouts ? double(m.alloc_time) / double(m.swapouts) /
                          double(kMicrosecond)
                    : 0.0;
}

double Checks::Geomean(const std::vector<double>& v) {
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / double(v.size()));
}

const std::vector<std::string> Trio::kNames = {"spark-lr", "xgboost",
                                               "snappy"};

void Trio::Plan(Grid& grid) {
  double scale = ScaleFromEnv(0.3);
  std::vector<core::AppBuild> all;
  for (const std::string& n : kNames) {
    all.push_back(Build(n, scale, 0.25));
    solo.push_back(grid.Add(core::SystemConfig::Linux55(), {all.back()}));
  }
  corun = grid.Add(core::SystemConfig::Linux55(), std::move(all));
}

}  // namespace canvas::paper

int main(int argc, char** argv) {
  using namespace canvas::paper;
  const std::vector<std::pair<std::string, std::unique_ptr<Figure> (*)()>>
      all = {{"fig02", Fig02},     {"fig03", Fig03},   {"fig04", Fig04},
             {"fig05", Fig05},     {"fig06", Fig06},   {"fig09", Fig09},
             {"fig10", Fig10},     {"fig11", Fig11},   {"table03", Table03},
             {"fig12", Fig12},     {"table04", Table04}, {"fig13", Fig13},
             {"table05", Table05}, {"fig14", Fig14},   {"fig15", Fig15},
             {"fig16", Fig16},     {"ablation", Ablation}};
  std::vector<std::string> only;  // empty: every figure
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i], id = arg.substr(0, 7) == "--only="
                                         ? arg.substr(7) : "";
    if (std::none_of(all.begin(), all.end(),
                     [&](const auto& f) { return f.first == id; })) {
      std::fprintf(stderr, "paper: '%s' is not --only=<id>; ids:", argv[i]);
      for (const auto& f : all) std::fprintf(stderr, " %s", f.first.c_str());
      std::fprintf(stderr, "\n");
      return 2;
    }
    only.push_back(id);
  }
  unsigned jobs = JobsFromEnv();
  std::vector<std::unique_ptr<Figure>> figures;
  Grid grid;
  for (const auto& [id, make] : all) {
    if (!only.empty() && !std::count(only.begin(), only.end(), id)) continue;
    figures.push_back(make());
    figures.back()->Plan(grid);
  }
  std::fprintf(stderr, "paper: %zu specs, %zu distinct\n", grid.added,
               grid.specs.size());
  grid.Run(jobs);
  for (const RunResult& r : grid.sweep.runs) {
    if (r.status != canvas::RunStatus::kError) continue;
    std::fprintf(stderr, "paper: %s run failed: %s\n", r.label.c_str(),
                 r.error.c_str());
    return 1;
  }
  Checks checks;
  for (const auto& f : figures) {
    f->Print(grid);
    f->Check(grid, checks);
  }
  std::fprintf(stderr, "paper: %d checks, %d failed\n", checks.total,
               checks.failed);
  return checks.failed ? 1 : 0;
}
