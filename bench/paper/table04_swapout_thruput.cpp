// Table 4: swap-out throughput (KPages/s) with and without adaptive
// swap-entry allocation when the natives co-run with Spark. Paper result:
// isolation improves throughput 1.67x over Linux (98 -> 164 KPages/s for
// Spark), adaptive allocation a further 1.51x (-> 295); all-apps average
// 185 -> 309 -> 468.
#include "paper.h"

namespace canvas::paper {

const std::vector<std::string> kLabels = {
    "linux 5.5", "canvas w/o adaptive", "canvas w/ adaptive"};

static double SwapoutRate(const core::AppMetrics& m) {
  return PerSecond(m.swapouts, m.finish_time) / 1e3;  // K/s
}

struct Table04Swapout : Figure {
  std::vector<std::size_t> runs;  // one per label

  void Plan(Grid& grid) override {
    double scale = ScaleFromEnv(0.3);
    auto no_adaptive = core::SystemConfig::CanvasFull();
    no_adaptive.adaptive_alloc = false;
    for (const core::SystemConfig& cfg :
         {core::SystemConfig::Linux55(), no_adaptive,
          core::SystemConfig::CanvasFull()})
      runs.push_back(grid.Add(cfg, CorunBuilds("spark-lr", scale, 0.25)));
  }

  void Print(const Grid& grid) const override {
    PrintBanner("Table 4: swap-out throughput (KPages/s), natives co-run "
                "with Spark-LR");
    TablePrinter table({"system", "spark", "all apps avg"});
    for (std::size_t s = 0; s < runs.size(); ++s) {
      double all = 0;
      for (const AppResult& a : grid[runs[s]].apps)
        all += SwapoutRate(a.metrics);
      table.AddRow(
          {kLabels[s], TablePrinter::Num(SwapoutRate(grid.App(runs[s])), 0),
           TablePrinter::Num(all / double(grid[runs[s]].apps.size()), 0)});
    }
    table.Print();
    std::puts("\nPaper: Spark 98 -> 164 -> 295 KPages/s; all-apps average "
              "185 -> 309 -> 468.");
  }

  void Check(const Grid& grid, Checks& checks) const override {
    checks.Above("table04.isolation_raises_spark_swapout",
                 SwapoutRate(grid.App(runs[1])) /
                     SwapoutRate(grid.App(runs[0])),
                 1.0);
  }
};

std::unique_ptr<Figure> Table04() { return std::make_unique<Table04Swapout>(); }

}  // namespace canvas::paper
