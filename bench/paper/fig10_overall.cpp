// Figure 10: overall co-run performance under 25% and 50% local memory.
// Each group: one managed app (Spark-LR, Spark-KM, Cassandra, Neo4j) plus
// the three natives; bars = solo Linux 5.5, co-run Linux 5.5, co-run
// Fastswap, co-run Canvas (all optimizations). Paper result: Canvas improves
// co-run performance up to 6.2x (avg 3.5x) at 25% and up to 3.8x (avg 1.9x)
// at 50%.
#include "paper.h"

namespace canvas::paper {

const std::vector<double> kRatios = {0.25, 0.50};

struct Fig10Overall : Figure {
  /// Per ratio and group: solos; co-runs on linux, fastswap, canvas.
  std::vector<std::vector<std::vector<std::size_t>>> solo, corun;

  void Plan(Grid& grid) override {
    double scale = ScaleFromEnv(0.25);
    for (double ratio : kRatios) {
      solo.emplace_back();
      corun.emplace_back();
      for (const std::string& managed : kGroups) {
        solo.back().push_back(GroupSolos(grid, managed, scale, ratio));
        corun.back().emplace_back();
        for (auto make : {&core::SystemConfig::Linux55,
                          &core::SystemConfig::Fastswap,
                          &core::SystemConfig::CanvasFull})
          corun.back().back().push_back(
              grid.Add(make(), CorunBuilds(managed, scale, ratio)));
      }
    }
  }

  /// Per group, per system: each app's slowdown at ratio `ri`.
  std::vector<std::vector<std::vector<double>>> Slowdowns(
      const Grid& grid, std::size_t ri) const {
    std::vector<std::vector<std::vector<double>>> sd(kGroups.size());
    for (std::size_t g = 0; g < kGroups.size(); ++g)
      for (std::size_t h : corun[ri][g])
        sd[g].push_back(grid.Slowdowns(h, solo[ri][g]));
    return sd;
  }

  static double GeomeanGain(
      const std::vector<std::vector<std::vector<double>>>& sd) {
    double gain_product = 1.0;
    int gain_count = 0;
    for (const auto& group : sd) {
      for (std::size_t i = 0; i < 4; ++i) {
        if (group[2][i] > 0) {
          gain_product *= group[0][i] / group[2][i];
          ++gain_count;
        }
      }
    }
    return std::pow(gain_product, 1.0 / std::max(gain_count, 1));
  }

  void Print(const Grid& grid) const override {
    for (std::size_t ri = 0; ri < kRatios.size(); ++ri) {
      PrintBanner("Figure 10 (" + TablePrinter::Num(kRatios[ri] * 100, 0) +
                  "% local memory): runtime normalized to solo Linux 5.5");
      TablePrinter table({"group", "app", "solo", "corun linux",
                          "corun fastswap", "corun canvas",
                          "canvas gain vs linux"});
      auto sd = Slowdowns(grid, ri);
      for (std::size_t g = 0; g < kGroups.size(); ++g) {
        for (std::size_t i = 0; i < 4; ++i) {
          double lin = sd[g][0][i], fsw = sd[g][1][i], cvs = sd[g][2][i];
          table.AddRow({i == 0 ? kGroups[g] + " group" : "",
                        grid.App(solo[ri][g][i]).name,
                        "1.00x", X(lin), X(fsw), X(cvs),
                        cvs > 0 ? X(lin / cvs) : "-"});
        }
      }
      table.Print();
      std::printf("Geomean Canvas improvement over co-run Linux: %.2fx "
                  "(paper avg: %s)\n",
                  GeomeanGain(sd),
                  ri == 0 ? "3.5x, max 6.2x" : "1.9x, max 3.8x");
    }
  }

  void Check(const Grid& grid, Checks& checks) const override {
    checks.Above("fig10.r0.25.canvas_geomean_gain",
                 GeomeanGain(Slowdowns(grid, 0)), 1.0);
    checks.Above("fig10.r0.50.canvas_geomean_gain",
                 GeomeanGain(Slowdowns(grid, 1)), 1.0);
    double memcached = Checks::kInf;
    for (const auto& group : Slowdowns(grid, 0))
      memcached = std::min(memcached, group[0][2] / group[2][2]);
    checks.Above("fig10.r0.25.memcached_gains_in_every_group", memcached,
                 1.0);
  }
};

std::unique_ptr<Figure> Fig10() { return std::make_unique<Fig10Overall>(); }

}  // namespace canvas::paper
