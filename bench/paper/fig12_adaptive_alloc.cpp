// Figure 12: benefit of adaptive swap-entry allocation. Each managed app
// co-runs with the three natives; compared are solo Linux 5.5, co-run
// Canvas with adaptive allocation DISABLED, and ENABLED. Paper result:
// adaptive allocation adds 1.50x (Spark-LR), 1.77x (Spark-KM), 1.31x
// (Cassandra), 1.28x (Neo4j) on top of the isolated system.
#include "paper.h"

namespace canvas::paper {

struct Fig12Adaptive : Figure {
  std::vector<std::size_t> solo, off, on;  // per managed app

  void Plan(Grid& grid) override {
    double scale = ScaleFromEnv(0.25);
    auto without = core::SystemConfig::CanvasFull();
    without.adaptive_alloc = false;
    for (const std::string& managed : kGroups) {
      solo.push_back(grid.Add(core::SystemConfig::Linux55(),
                              {Build(managed, scale, 0.25)}));
      off.push_back(grid.Add(without, CorunBuilds(managed, scale, 0.25)));
      on.push_back(grid.Add(core::SystemConfig::CanvasFull(),
                            CorunBuilds(managed, scale, 0.25)));
    }
  }

  void Print(const Grid& grid) const override {
    PrintBanner("Figure 12: adaptive swap-entry allocation (managed app "
                "runtime, co-run with natives, 25% memory)");
    TablePrinter table({"app", "solo linux", "canvas w/o adaptive",
                        "canvas w/ adaptive", "adaptive gain",
                        "lock-free %"});
    for (std::size_t i = 0; i < kGroups.size(); ++i) {
      SimTime s = grid.Finish(solo[i]), f = grid.Finish(off[i]),
              n = grid.Finish(on[i]);
      const core::AppMetrics& m = grid.App(on[i]);
      table.AddRow({kGroups[i], "1.00x", X(core::Slowdown(f, s)),
                    X(core::Slowdown(n, s)),
                    X(double(f) / double(std::max<SimTime>(n, 1))),
                    Pct(m.swapouts ? 100.0 * double(m.lockfree_swapouts) /
                                         double(m.swapouts)
                                   : 0.0)});
    }
    table.Print();
    std::puts("\nPaper gains: SLR 1.50x, SKM 1.77x, Cassandra 1.31x, "
              "Neo4j 1.28x.");
  }

  void Check(const Grid& grid, Checks& checks) const override {
    std::vector<double> gains;
    std::uint64_t lockfree = ~0ull;
    for (std::size_t i = 0; i < kGroups.size(); ++i) {
      gains.push_back(double(grid.Finish(off[i])) /
                      double(grid.Finish(on[i])));
      lockfree = std::min(lockfree, grid.App(on[i]).lockfree_swapouts);
    }
    checks.Above("fig12.adaptive_geomean_gain", Checks::Geomean(gains), 1.0);
    checks.Above("fig12.lockfree_swapouts_in_every_app", double(lockfree),
                 0.0);
  }
};

std::unique_ptr<Figure> Fig12() { return std::make_unique<Fig12Adaptive>(); }

}  // namespace canvas::paper
