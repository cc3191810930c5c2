// Figure 11: effectiveness of isolation ALONE (per-cgroup partitions,
// caches, vertical RDMA fairness — no adaptive optimizations) for the
// native apps co-running with each managed app at 25% local memory.
// Paper result: isolation alone reduces running time up to 5.2x (avg 2.5x);
// Memcached improves 3.3x; RDMA utilization improves 2.8x (692 -> 1908MB/s,
// peak 4494MB/s); vertical WFQ achieves ~0.88 WMMR (§6.4.3).
#include "paper.h"

namespace canvas::paper {

struct Fig11Isolation : Figure {
  std::vector<std::vector<std::size_t>> solo;  // per group
  std::vector<std::size_t> linux, iso;

  void Plan(Grid& grid) override {
    double scale = ScaleFromEnv(0.25);
    for (const std::string& managed : kGroups) {
      solo.push_back(GroupSolos(grid, managed, scale, 0.25));
      linux.push_back(grid.Add(core::SystemConfig::Linux55(),
                               CorunBuilds(managed, scale, 0.25)));
      iso.push_back(grid.Add(core::SystemConfig::CanvasIsolation(),
                             CorunBuilds(managed, scale, 0.25)));
    }
  }

  void Print(const Grid& grid) const override {
    PrintBanner("Figure 11: native-app slowdowns, co-run Linux vs co-run "
                "Canvas (isolation only)");
    TablePrinter table({"group", "app", "linux co-run", "isolation co-run",
                        "improvement"});
    double util_linux = 0, util_iso = 0, wmmr_iso = 0;
    double groups = double(kGroups.size());
    for (std::size_t g = 0; g < kGroups.size(); ++g) {
      util_linux += grid[linux[g]].ingress_mean_rate;
      util_iso += grid[iso[g]].ingress_mean_rate;
      wmmr_iso += grid[iso[g]].wmmr_ingress;
      std::vector<double> l = grid.Slowdowns(linux[g], solo[g]);
      std::vector<double> c = grid.Slowdowns(iso[g], solo[g]);
      for (std::size_t i = 1; i < 4; ++i)  // natives only
        table.AddRow({i == 1 ? kGroups[g] + " group" : "",
                      grid.App(solo[g][i]).name, X(l[i]), X(c[i]),
                      c[i] > 0 ? X(l[i] / c[i]) : "-"});
    }
    table.Print();
    std::printf("\nAvg RDMA swap-in utilization: linux %.0fMB/s -> isolation "
                "%.0fMB/s (%.2fx; paper 2.8x)\n",
                util_linux / groups / 1e6, util_iso / groups / 1e6,
                util_iso / std::max(util_linux, 1.0));
    std::printf("Vertical scheduling WMMR: %.2f (paper ~0.88)\n",
                wmmr_iso / groups);
  }

  void Check(const Grid& grid, Checks& checks) const override {
    std::vector<double> gains;
    double memcached = Checks::kInf;
    for (std::size_t g = 0; g < kGroups.size(); ++g) {
      std::vector<double> l = grid.Slowdowns(linux[g], solo[g]);
      std::vector<double> c = grid.Slowdowns(iso[g], solo[g]);
      for (std::size_t i = 1; i < 4; ++i) gains.push_back(l[i] / c[i]);
      memcached = std::min(memcached, l[2] / c[2]);
    }
    checks.Above("fig11.native_geomean_gain", Checks::Geomean(gains), 1.0);
    checks.Above("fig11.memcached_gains_in_every_group", memcached, 1.0);
  }
};

std::unique_ptr<Figure> Fig11() { return std::make_unique<Fig11Isolation>(); }

}  // namespace canvas::paper
