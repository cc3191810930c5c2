// Figure 13: swap-entry allocation scaling with core count — Canvas's
// adaptive reservation allocator vs Linux 5.5's cluster allocator, running
// Memcached alone at 25% local memory with 8-48 cores. Paper result: under
// Canvas the swap-out rate scales with cores while the (lock-path)
// allocation rate stays low; under Linux the per-entry allocation time
// grows super-linearly (10us @16 cores -> 130us @48) and swap-out rate
// collapses.
#include "paper.h"

namespace canvas::paper {

struct Fig13Scaling : Figure {
  std::vector<std::size_t> canvas, linux;  // per core count

  void Plan(Grid& grid) override {
    double scale = ScaleFromEnv(0.4);
    for (std::uint32_t cores : kCoreCounts) {
      core::AppBuild b = Build("memcached", scale, 0.25, cores);
      b.threads = cores;  // memcached worker per core
      canvas.push_back(grid.Add(core::SystemConfig::CanvasFull(), {b}));
      linux.push_back(grid.Add(core::SystemConfig::Linux55(), {b}));
    }
  }

  void Print(const Grid& grid) const override {
    PrintBanner("Figure 13: entry allocation vs core count, Memcached solo "
                "(25% local memory)");
    TablePrinter table({"cores", "canvas swap-out K/s", "canvas alloc K/s",
                        "canvas amortized", "linux swap-out K/s",
                        "linux alloc K/s", "linux amortized"});
    for (std::size_t i = 0; i < kCoreCounts.size(); ++i) {
      std::vector<std::string> row{std::to_string(kCoreCounts[i])};
      for (std::size_t h : {canvas[i], linux[i]}) {
        const core::AppMetrics& m = grid.App(h);
        row.push_back(
            TablePrinter::Num(PerSecond(m.swapouts, m.finish_time) / 1e3, 0));
        row.push_back(TablePrinter::Num(
            PerSecond(m.allocations, m.finish_time) / 1e3, 0));
        row.push_back(TablePrinter::Num(AllocUsPerSwapout(m), 1) + "us");
      }
      table.AddRow(std::move(row));
    }
    table.Print();
    std::puts("\nPaper: Canvas swap-out rate grows with cores while its "
              "alloc rate stays low (entry reuse);\nLinux per-entry time "
              "grows super-linearly (10us @16 -> 130us @48 cores).");
  }

  void Check(const Grid& grid, Checks& checks) const override {
    auto cost = [&](std::size_t h) { return AllocUsPerSwapout(grid.App(h)); };
    auto swapouts = [&](std::size_t h) {
      return double(grid.App(h).swapouts) / double(grid.Finish(h));
    };
    checks.Near("fig13.linux_cost_48_over_8",
                cost(linux.back()) / cost(linux.front()), 12.0);
    checks.Near("fig13.linux_over_canvas_cost_at_48",
                cost(linux.back()) / cost(canvas.back()), 2.6);
    checks.Above("fig13.canvas_swapout_rate_grows",
                 swapouts(canvas.back()) / swapouts(canvas.front()), 1.0);
  }
};

std::unique_ptr<Figure> Fig13() { return std::make_unique<Fig13Scaling>(); }

}  // namespace canvas::paper
