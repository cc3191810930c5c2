// Table 5: prefetching contribution and accuracy for Leap, the kernel
// prefetcher, and Canvas's two-tier prefetcher when each managed app co-runs
// with the natives on the isolated swap system. Paper result (contribution):
// Leap 23-67%, kernel 41-68%, two-tier 45-79%; accuracy: Leap 6-36%, kernel
// 80-96%, two-tier comparable to kernel.
#include "paper.h"

namespace canvas::paper {

const std::vector<std::string> kLabels = {"leap", "kernel", "two-tier"};
const std::vector<core::PrefetcherKind> kKinds = {
    core::PrefetcherKind::kLeap, core::PrefetcherKind::kReadahead,
    core::PrefetcherKind::kTwoTier};
const std::vector<std::string> kManaged = {"spark-lr", "spark-km", "spark-tc",
                                           "neo4j"};

struct Table05Prefetch : Figure {
  std::vector<std::vector<std::size_t>> runs;  // per prefetcher, per app

  void Plan(Grid& grid) override {
    double scale = ScaleFromEnv(0.25);
    runs.resize(kLabels.size());
    for (const std::string& managed : kManaged) {
      for (std::size_t pi = 0; pi < kLabels.size(); ++pi) {
        auto cfg = core::SystemConfig::CanvasFull();
        cfg.prefetcher = kKinds[pi];
        cfg.prefetcher_shared_state = false;  // per-cgroup state (isolated)
        runs[pi].push_back(grid.Add(cfg, CorunBuilds(managed, scale, 0.25)));
      }
    }
  }

  void Print(const Grid& grid) const override {
    PrintBanner("Table 5: prefetching contribution / accuracy on the "
                "isolated swap system (managed app co-run with natives)");
    TablePrinter table({"metric", "prefetcher", "spark-lr", "spark-km",
                        "spark-tc", "neo4j"});
    auto rows = [&](const char* metric, auto cell) {
      for (std::size_t pi = 0; pi < kLabels.size(); ++pi) {
        std::vector<std::string> row{metric, kLabels[pi]};
        for (std::size_t h : runs[pi]) row.push_back(cell(grid.App(h)));
        table.AddRow(std::move(row));
      }
    };
    rows("contribution", [](auto& m) { return Pct(m.ContributionPct()); });
    rows("accuracy", [](auto& m) { return Pct(m.AccuracyPct()); });
    rows("runtime", [](auto& m) {
      return TablePrinter::Num(double(m.finish_time) / double(kSecond) * 1000,
                               0) + "ms";
    });
    table.Print();
    std::puts("\nPaper: two-tier has the highest contribution (45-79%); Leap "
              "the lowest accuracy (6-36%)\nand slows managed apps ~1.4x vs "
              "the kernel prefetcher.");
  }

  void Check(const Grid& grid, Checks& checks) const override {
    for (std::size_t a : {0, 1})  // the Spark apps
      checks.Above("table05." + kManaged[a] + ".two_tier_beats_leap_accuracy",
                   grid.App(runs[2][a]).AccuracyPct() /
                       grid.App(runs[0][a]).AccuracyPct(),
                   1.0);
    double leap_over_kernel = Checks::kInf, two_tier_over_kernel = Checks::kInf,
           leap_over_two_tier = Checks::kInf;
    for (std::size_t a = 0; a < kManaged.size(); ++a) {
      double leap = double(grid.Finish(runs[0][a])),
             kernel = double(grid.Finish(runs[1][a])),
             two_tier = double(grid.Finish(runs[2][a]));
      leap_over_kernel = std::min(leap_over_kernel, leap / kernel);
      two_tier_over_kernel = std::min(two_tier_over_kernel, two_tier / kernel);
      leap_over_two_tier = std::min(leap_over_two_tier, leap / two_tier);
    }
    checks.Above("table05.leap_slower_than_kernel", leap_over_kernel, 1.0);
    checks.Above("table05.two_tier_slower_than_kernel", two_tier_over_kernel,
                 1.0);
    checks.Above("table05.two_tier_faster_than_leap", leap_over_two_tier, 1.0);
  }
};

std::unique_ptr<Figure> Table05() {
  return std::make_unique<Table05Prefetch>();
}

}  // namespace canvas::paper
