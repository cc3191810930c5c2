// Figure 9: performance of each application running INDIVIDUALLY on the
// basic swap systems: Infiniswap, Infiniswap+Leap, Fastswap, and
// Canvas-swap (the Fastswap port Canvas builds on, without isolation or
// adaptive optimizations). Paper result: Canvas-swap ~ Fastswap; Infiniswap
// slowest (it hung on XGBoost and Spark in the paper).
#include "paper.h"

namespace canvas::paper {

const std::vector<std::string> kApps = {"spark-lr",  "spark-km", "cassandra",
                                        "neo4j",     "memcached", "xgboost",
                                        "snappy"};

struct Fig09Basic : Figure {
  /// Per app: infiniswap, inf+leap, fastswap, canvas-swap.
  std::vector<std::vector<std::size_t>> runs;

  void Plan(Grid& grid) override {
    double scale = ScaleFromEnv(0.25);
    auto canvas_swap = core::SystemConfig::Fastswap();
    canvas_swap.name = "canvas-swap";
    for (const std::string& app : kApps) {
      runs.emplace_back();
      for (const core::SystemConfig& cfg :
           {core::SystemConfig::Infiniswap(),
            core::SystemConfig::InfiniswapLeap(),
            core::SystemConfig::Fastswap(), canvas_swap})
        runs.back().push_back(grid.Add(cfg, {Build(app, scale, 0.25)}));
    }
  }

  void Print(const Grid& grid) const override {
    PrintBanner("Figure 9: individual runs on basic swap systems "
                "(runtime, normalized to fastswap)");
    TablePrinter table({"app", "infiniswap", "inf+leap", "fastswap",
                        "canvas-swap"});
    for (std::size_t a = 0; a < kApps.size(); ++a) {
      std::vector<double> secs;
      for (std::size_t h : runs[a])
        secs.push_back(grid[h].status == RunStatus::kOk
                           ? double(grid.Finish(h)) / double(kSecond)
                           : -1.0);
      double base = secs[2] > 0 ? secs[2] : 1.0;  // fastswap
      std::vector<std::string> row{kApps[a]};
      for (double s : secs) row.push_back(s < 0 ? "hung" : X(s / base));
      table.AddRow(std::move(row));
    }
    table.Print();
    std::puts("\nPaper: Canvas-swap ~= Fastswap (it is the same system "
              "ported); Infiniswap/Leap slower or hung.");
  }

  void Check(const Grid& grid, Checks& checks) const override {
    double canvas_swap_gap = 0, infiniswap_min = Checks::kInf,
           leap_min = Checks::kInf, spark_worst = 0, other_worst = 0;
    for (std::size_t a = 0; a < kApps.size(); ++a) {
      auto vs_fastswap = [&](std::size_t s) {
        return double(grid.Finish(runs[a][s])) /
               double(grid.Finish(runs[a][2]));
      };
      canvas_swap_gap =
          std::max(canvas_swap_gap, std::abs(vs_fastswap(3) - 1.0));
      infiniswap_min = std::min(infiniswap_min, vs_fastswap(0));
      leap_min = std::min(leap_min, vs_fastswap(1));
      double& worst =
          kApps[a].rfind("spark", 0) == 0 ? spark_worst : other_worst;
      worst = std::max(worst, vs_fastswap(0));
    }
    checks.Within("fig09.canvas_swap_equals_fastswap", canvas_swap_gap, 0, 0);
    checks.Near("fig09.infiniswap_slowdown_min", infiniswap_min, 2.7);
    checks.Above("fig09.leap_slower_than_fastswap", leap_min, 1.0);
    checks.Above("fig09.infiniswap_worst_on_spark", spark_worst / other_worst,
                 1.0);
  }
};

std::unique_ptr<Figure> Fig09() { return std::make_unique<Fig09Basic>(); }

}  // namespace canvas::paper
