// Figure 3: Leap's prefetching contribution (% of faults served by
// prefetched pages) for individual runs vs co-runs. Paper result: co-running
// reduces Leap's contribution dramatically (e.g. 3.19x for Spark+natives)
// because the shared majority-vote detector mixes all applications' faults.
#include "paper.h"

namespace canvas::paper {

const std::vector<std::string> kSolo = {"spark-lr", "neo4j",     "xgboost",
                                        "snappy",   "memcached", "cassandra"};
const std::vector<std::string> kManaged = {"spark-lr", "neo4j", "cassandra"};

static double AverageContribution(const RunResult& r) {
  double sum = 0;
  for (const AppResult& a : r.apps) sum += a.metrics.ContributionPct();
  return sum / double(r.apps.size());
}

struct Fig03Leap : Figure {
  std::vector<std::size_t> solo, corun;

  void Plan(Grid& grid) override {
    double scale = ScaleFromEnv(0.25);
    auto leap = core::SystemConfig::InfiniswapLeap();
    for (const std::string& name : kSolo)
      solo.push_back(grid.Add(leap, {Build(name, scale, 0.25)}));
    for (const std::string& managed : kManaged)
      corun.push_back(grid.Add(leap, CorunBuilds(managed, scale, 0.25)));
  }

  void Print(const Grid& grid) const override {
    PrintBanner("Figure 3: Leap prefetching contribution, solo vs co-run");
    TablePrinter table({"run", "app", "contribution", "accuracy"});
    for (std::size_t i = 0; i < kSolo.size(); ++i)
      table.AddRow({"solo", kSolo[i], Pct(grid.App(solo[i]).ContributionPct()),
                    Pct(grid.App(solo[i]).AccuracyPct())});
    for (std::size_t i = 0; i < kManaged.size(); ++i)
      table.AddRow({"co-run avg", kManaged[i] + "+natives",
                    Pct(AverageContribution(grid[corun[i]])), ""});
    table.Print();
    std::puts("\nPaper: co-running dramatically reduces the shared detector's"
              "\ncontribution (Leap cannot adapt per application).");
  }

  void Check(const Grid& grid, Checks& checks) const override {
    double friendly = 100.0, corun_max = 0;
    for (std::size_t i : {0, 2, 3})  // spark-lr, xgboost, snappy
      friendly = std::min(friendly, grid.App(solo[i]).ContributionPct());
    for (std::size_t h : corun)
      corun_max = std::max(corun_max, AverageContribution(grid[h]));
    checks.Above("fig03.corun_below_friendly_solos", friendly / corun_max,
                 1.0);
  }
};

std::unique_ptr<Figure> Fig03() { return std::make_unique<Fig03Leap>(); }

}  // namespace canvas::paper
