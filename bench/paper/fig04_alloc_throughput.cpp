// Figure 4: swap-entry allocation throughput when applications run
// individually (a) vs together (b) on Linux 5.5. Paper result: total
// allocation throughput collapses from ~450K/s to ~200K/s under co-run lock
// contention.
#include "paper.h"

namespace canvas::paper {

static double AllocRate(const AppResult& a) {
  return PerSecond(a.metrics.allocations, a.metrics.finish_time);
}

struct Fig04Alloc : Figure {
  Trio runs;

  void Plan(Grid& grid) override { runs.Plan(grid); }

  void Print(const Grid& grid) const override {
    PrintBanner("Figure 4(a): allocation throughput, individual runs");
    TablePrinter solo_t({"app", "alloc rate (K/s)", "mean alloc time"});
    double solo_total = 0, corun_total = 0;
    for (std::size_t i = 0; i < Trio::kNames.size(); ++i) {
      const AppResult& a = grid[runs.solo[i]].apps[0];
      solo_total += AllocRate(a);
      solo_t.AddRow({Trio::kNames[i], TablePrinter::Num(AllocRate(a) / 1e3, 1),
                     FormatTime(SimTime(a.alloc_latency_mean_ns))});
    }
    solo_t.AddRow({"TOTAL (sum of solo)",
                   TablePrinter::Num(solo_total / 1e3, 1), ""});
    solo_t.Print();
    PrintBanner("Figure 4(b): allocation throughput, co-run");
    const RunResult& corun = grid[runs.corun];
    TablePrinter corun_t({"app", "alloc rate (K/s)", "mean alloc time"});
    for (std::size_t i = 0; i < Trio::kNames.size(); ++i) {
      corun_total += AllocRate(corun.apps[i]);
      corun_t.AddRow({Trio::kNames[i],
                      TablePrinter::Num(AllocRate(corun.apps[i]) / 1e3, 1),
                      ""});
    }
    corun_t.AddRow({"TOTAL (co-run)", TablePrinter::Num(corun_total / 1e3, 1),
                    FormatTime(SimTime(corun.apps[0].alloc_latency_mean_ns))});
    corun_t.Print();
    std::printf("\nThroughput ratio solo/co-run: %.2fx (paper: ~2.25x,"
                " 450K/s -> 200K/s)\n",
                solo_total / std::max(corun_total, 1.0));
  }

  void Check(const Grid& grid, Checks& checks) const override {
    double solo_total = 0, corun_total = 0;
    for (std::size_t h : runs.solo) solo_total += AllocRate(grid[h].apps[0]);
    for (const AppResult& a : grid[runs.corun].apps)
      corun_total += AllocRate(a);
    checks.Near("fig04.solo_over_corun_throughput", solo_total / corun_total,
                2.25);
  }
};

std::unique_ptr<Figure> Fig04() { return std::make_unique<Fig04Alloc>(); }

}  // namespace canvas::paper
