// Table 3: performance variation of the three native applications when
// co-running with each of the ELEVEN managed applications at 25% local
// memory, comparing Canvas / Linux 5.5 / Fastswap. Paper result: Canvas
// cuts the slowdown stddev ~7x (overall sigma 1.72 -> 0.23) and the mean
// from 3.2x to 1.2x.
#include "common/stats.h"
#include "paper.h"

namespace canvas::paper {

const std::vector<std::string> kNatives = {"snappy", "memcached", "xgboost"};
const std::vector<std::string> kSystems = {"canvas", "linux", "fastswap"};

struct Table03Variation : Figure {
  std::vector<std::size_t> solo;                // per native
  std::vector<std::vector<std::size_t>> corun;  // per managed, per system

  void Plan(Grid& grid) override {
    double scale = ScaleFromEnv(0.12);
    // Solo baselines (Linux 5.5, as in the paper).
    for (const std::string& n : kNatives)
      solo.push_back(grid.Add(core::SystemConfig::Linux55(),
                              {Build(n, scale, 0.25)}));
    for (const std::string& managed : workload::ManagedAppNames()) {
      corun.emplace_back();
      for (const std::string& sys : kSystems)
        corun.back().push_back(grid.Add(*core::SystemConfig::FromName(sys),
                                        CorunBuilds(managed, scale, 0.25)));
    }
  }

  /// Slowdown samples per system: one per native app, then all merged.
  std::vector<std::vector<StreamingStats>> Stats(const Grid& grid) const {
    std::vector<std::vector<StreamingStats>> stats(
        kSystems.size(), std::vector<StreamingStats>(kNatives.size() + 1));
    for (const auto& runs : corun) {
      for (std::size_t s = 0; s < kSystems.size(); ++s) {
        for (std::size_t n = 0; n < kNatives.size(); ++n) {
          double sd = core::Slowdown(grid.Finish(runs[s], n + 1),
                                     grid.Finish(solo[n]));
          if (sd > 0) stats[s][n].Add(sd);
        }
      }
    }
    for (auto& per_app : stats)
      for (std::size_t n = 0; n < kNatives.size(); ++n)
        per_app.back().Merge(per_app[n]);
    return stats;
  }

  void Print(const Grid& grid) const override {
    auto stats = Stats(grid);
    PrintBanner("Table 3: native-app slowdown statistics across 11 managed "
                "co-runners (25% local memory)");
    TablePrinter table({"program", "system", "mean", "min", "max", "stddev"});
    for (std::size_t n = 0; n <= kNatives.size(); ++n) {
      for (std::size_t s = 0; s < kSystems.size(); ++s) {
        const StreamingStats& st = stats[s][n];
        table.AddRow({n < kNatives.size() ? kNatives[n] : "OVERALL",
                      kSystems[s], X(st.mean()), X(st.min()), X(st.max()),
                      TablePrinter::Num(st.stddev(), 2)});
      }
    }
    table.Print();
    std::puts("\nPaper: overall sigma Canvas 0.23 vs Linux 1.72 vs Fastswap "
              "~1.1-2.1; Canvas mean 1.21 vs Linux 3.24.");
  }

  void Check(const Grid& grid, Checks& checks) const override {
    auto stats = Stats(grid);
    const StreamingStats &canvas = stats[0].back(), &linux = stats[1].back(),
                         &fastswap = stats[2].back();
    checks.Near("table03.sigma_linux_over_canvas",
                linux.stddev() / canvas.stddev(), 4.0);
    checks.Above("table03.sigma_fastswap_over_linux",
                 fastswap.stddev() / linux.stddev(), 1.0);
    checks.Above("table03.mean_linux_over_canvas",
                 linux.mean() / canvas.mean(), 1.0);
    checks.Above("table03.mean_fastswap_over_linux",
                 fastswap.mean() / linux.mean(), 1.0);
    for (std::size_t n = 0; n < kNatives.size(); ++n)
      checks.Above("table03." + kNatives[n] + ".canvas_tightest",
                   std::min(stats[1][n].stddev(), stats[2][n].stddev()) /
                       stats[0][n].stddev(),
                   1.0);
  }
};

std::unique_ptr<Figure> Table03() {
  return std::make_unique<Table03Variation>();
}

}  // namespace canvas::paper
