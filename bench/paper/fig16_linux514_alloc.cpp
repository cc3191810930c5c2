// Figure 16 (Appendix B): swap-entry allocation on a RAMDisk-like backend
// (no RDMA bottleneck), Memcached with 8-48 cores: Canvas's reservation
// scheme vs the Linux 5.14 cluster+batch allocator vs Linux 5.5. Paper
// result: the 5.14 patches scale poorly past 24 cores (core collision);
// Canvas's per-entry cost stays low and flat — 13x better at 48 cores.
#include "paper.h"

namespace canvas::paper {

struct Fig16Linux514 : Figure {
  /// Per core count: canvas, linux-5.14, linux-5.5.
  std::vector<std::vector<std::size_t>> runs;

  void Plan(Grid& grid) override {
    double scale = ScaleFromEnv(0.4);
    auto linux55 = core::SystemConfig::Linux55();
    linux55.allocator = swapalloc::AllocatorKind::kFreelist;
    auto linux514 = core::SystemConfig::Linux55();
    linux514.allocator = swapalloc::AllocatorKind::kClusterBatch;
    linux514.name = "linux-5.14";
    for (std::uint32_t cores : kCoreCounts) {
      runs.emplace_back();
      for (core::SystemConfig cfg :
           {core::SystemConfig::CanvasFull(), linux514, linux55}) {
        // RAMDisk model: extremely fast backend so allocation is the
        // bottleneck.
        cfg.nic.bandwidth_bytes_per_sec = 100e9;
        cfg.nic.base_latency = 300;  // 0.3us
        core::AppBuild b = Build("memcached", scale, 0.25, cores);
        b.threads = cores;
        runs.back().push_back(grid.Add(std::move(cfg), {std::move(b)}));
      }
    }
  }

  /// Alloc time per swap-out at core count `c` under system `s`.
  double Cost(const Grid& grid, std::size_t c, std::size_t s) const {
    return AllocUsPerSwapout(grid.App(runs[c][s]));
  }

  void Print(const Grid& grid) const override {
    PrintBanner("Figure 16: allocator scaling on RAMDisk-like backend, "
                "Memcached, 8-48 cores");
    TablePrinter table({"cores", "canvas alloc K/s", "canvas amortized",
                        "5.14 alloc K/s", "5.14 amortized", "5.5 alloc K/s",
                        "5.5 amortized"});
    for (std::size_t c = 0; c < kCoreCounts.size(); ++c) {
      std::vector<std::string> row{std::to_string(kCoreCounts[c])};
      for (std::size_t s = 0; s < 3; ++s) {
        const core::AppMetrics& m = grid.App(runs[c][s]);
        row.push_back(TablePrinter::Num(
            PerSecond(m.allocations, m.finish_time) / 1e3, 0));
        row.push_back(TablePrinter::Num(Cost(grid, c, s), 2) + "us");
      }
      table.AddRow(std::move(row));
    }
    table.Print();
    std::printf("\nPer-entry cost at 48 cores, linux-5.14 / canvas: %.1fx "
                "(paper: 13x)\n",
                Cost(grid, kCoreCounts.size() - 1, 1) /
                    std::max(Cost(grid, kCoreCounts.size() - 1, 0), 1e-9));
  }

  void Check(const Grid& grid, Checks& checks) const override {
    std::size_t last = kCoreCounts.size() - 1;
    checks.Above("fig16.linux514_cost_rises_8_to_48",
                 Cost(grid, last, 1) / Cost(grid, 0, 1), 1.0);
    double linux55_over_514 = Checks::kInf;
    for (std::size_t c = 0; c < kCoreCounts.size(); ++c)
      linux55_over_514 =
          std::min(linux55_over_514, Cost(grid, c, 2) / Cost(grid, c, 1));
    checks.Above("fig16.linux55_worse_than_514_at_every_count",
                 linux55_over_514, 1.0);
  }
};

std::unique_ptr<Figure> Fig16() { return std::make_unique<Fig16Linux514>(); }

}  // namespace canvas::paper
