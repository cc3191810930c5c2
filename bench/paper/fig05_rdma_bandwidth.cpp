// Figure 5: RDMA swap-in (read) bandwidth when applications run
// individually (a) vs together (b) on Linux 5.5. Paper result: co-run total
// stays ~3.28x below the sum of individual runs (~1000MB/s vs ~3300MB/s);
// write bandwidth degrades ~2.80x.
#include "paper.h"

namespace canvas::paper {

struct Fig05Bandwidth : Figure {
  Trio runs;

  void Plan(Grid& grid) override { runs.Plan(grid); }

  void Print(const Grid& grid) const override {
    PrintBanner("Figure 5(a): RDMA bandwidth, individual runs");
    TablePrinter solo_t({"app", "swap-in MB/s", "swap-out MB/s"});
    double solo_in = 0, solo_out = 0;
    for (std::size_t i = 0; i < Trio::kNames.size(); ++i) {
      const RunResult& r = grid[runs.solo[i]];
      solo_in += r.ingress_mean_rate;
      solo_out += r.egress_mean_rate;
      solo_t.AddRow({Trio::kNames[i],
                     TablePrinter::Num(r.ingress_mean_rate / 1e6, 0),
                     TablePrinter::Num(r.egress_mean_rate / 1e6, 0)});
    }
    solo_t.AddRow({"TOTAL (sum of solo)", TablePrinter::Num(solo_in / 1e6, 0),
                   TablePrinter::Num(solo_out / 1e6, 0)});
    solo_t.Print();
    PrintBanner("Figure 5(b): RDMA bandwidth, co-run");
    const RunResult& corun = grid[runs.corun];
    TablePrinter corun_t({"app", "swap-in MB/s"});
    for (std::size_t i = 0; i < Trio::kNames.size(); ++i) {
      SimTime t = grid.Finish(runs.corun, i) ? grid.Finish(runs.corun, i)
                                             : kSecond;
      double bytes = double(corun.apps[i].ingress_bytes);
      corun_t.AddRow({Trio::kNames[i],
                      TablePrinter::Num(bytes / double(t) * 1e9 / 1e6, 0)});
    }
    corun_t.AddRow({"TOTAL (co-run)",
                    TablePrinter::Num(corun.ingress_mean_rate / 1e6, 0)});
    corun_t.Print();
    std::printf("\nRead-bandwidth degradation (sum-solo / co-run): %.2fx"
                " (paper ~3.28x)\n",
                solo_in / std::max(corun.ingress_mean_rate, 1.0));
    std::printf("Write-bandwidth degradation: %.2fx (paper ~2.80x)\n",
                solo_out / std::max(corun.egress_mean_rate, 1.0));
  }

  // The read totals do not reproduce (EXPERIMENTS.md); only the write
  // path's direction is checked.
  void Check(const Grid& grid, Checks& checks) const override {
    double solo_out = 0;
    for (std::size_t h : runs.solo) solo_out += grid[h].egress_mean_rate;
    checks.Above("fig05.write_bandwidth_degrades",
                 solo_out / grid[runs.corun].egress_mean_rate, 1.0);
  }
};

std::unique_ptr<Figure> Fig05() { return std::make_unique<Fig05Bandwidth>(); }

}  // namespace canvas::paper
