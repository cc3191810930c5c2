// Figure 15 (Appendix A): percentage of execution time spent on swap-entry
// allocation, individual runs vs co-runs on Linux 5.5. Paper result: co-run
// applications spend significantly more time allocating (up to 70% of busy
// windows for Spark).
#include "paper.h"

namespace canvas::paper {

struct Fig15AllocShare : Figure {
  Trio runs;

  void Plan(Grid& grid) override { runs.Plan(grid); }

  void Print(const Grid& grid) const override {
    PrintBanner("Figure 15: % of execution time in swap-entry allocation "
                "(Linux 5.5)");
    TablePrinter table({"app", "individual", "co-run", "increase"});
    for (std::size_t i = 0; i < Trio::kNames.size(); ++i) {
      double solo = grid.App(runs.solo[i]).AllocTimeShare() * 100.0;
      double c = grid.App(runs.corun, i).AllocTimeShare() * 100.0;
      table.AddRow({Trio::kNames[i], Pct(solo), Pct(c),
                    solo > 0 ? X(c / solo) : "-"});
    }
    table.Print();
    std::puts("\nShare = allocation lock wait+hold time / total thread "
              "(compute + fault-stall) time.\nPaper: co-running increases "
              "the allocation share substantially for every app.");
  }

  // NOT REPRODUCED (EXPERIMENTS.md): the share falls under co-run for
  // every app, so there is no direction to check.
  void Check(const Grid&, Checks&) const override {}
};

std::unique_ptr<Figure> Fig15() { return std::make_unique<Fig15AllocShare>(); }

}  // namespace canvas::paper
