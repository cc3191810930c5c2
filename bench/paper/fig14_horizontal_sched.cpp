// Figure 14: horizontal (priority + timeliness) RDMA scheduling
// effectiveness for GraphX-CC co-running with the natives: (a) prefetch
// latency reduced without hurting demand latency; (b) prefetching
// contribution/accuracy improved. Paper result: ~5% p90 prefetch latency
// reduction with the two-tier prefetcher (up to 9x with Leap), contribution
// +10.7%, accuracy +5.5%, overall 7-12% runtime gain.
#include "paper.h"

namespace canvas::paper {

struct Fig14Horizontal : Figure {
  std::vector<std::size_t> runs;  // two-tier off/on, then leap off/on

  void Plan(Grid& grid) override {
    double scale = ScaleFromEnv(0.25);
    for (auto pf :
         {core::PrefetcherKind::kTwoTier, core::PrefetcherKind::kLeap}) {
      for (bool horizontal : {false, true}) {
        auto cfg = core::SystemConfig::CanvasFull();
        cfg.horizontal_sched = horizontal;
        cfg.prefetcher = pf;
        cfg.prefetcher_shared_state = false;
        runs.push_back(grid.Add(cfg, CorunBuilds("graphx-cc", scale, 0.25)));
      }
    }
  }

  void Print(const Grid& grid) const override {
    PrintBanner("Figure 14: horizontal scheduling, GraphX-CC + natives");
    TablePrinter table({"prefetcher", "horizontal", "demand p99",
                        "prefetch p50", "prefetch p90", "prefetch p99",
                        "contrib", "accuracy", "drops", "graphx runtime"});
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const RunResult& r = grid[runs[i]];
      const core::AppMetrics& m = grid.App(runs[i]);
      table.AddRow(
          {i < 2 ? "two-tier" : "leap", i % 2 ? "on" : "off",
           FormatTime(r.demand_latency.Percentile(99)),
           FormatTime(r.prefetch_latency.Percentile(50)),
           FormatTime(r.prefetch_latency.Percentile(90)),
           FormatTime(r.prefetch_latency.Percentile(99)),
           Pct(m.ContributionPct()),
           Pct(m.AccuracyPct()), std::to_string(r.sched_drops),
           TablePrinter::Num(double(m.finish_time) / double(kSecond) * 1000,
                             0) +
               "ms"});
    }
    table.Print();
    std::puts("\nPaper: with the two-tier prefetcher, horizontal scheduling "
              "cuts p90 prefetch latency ~5% (9x with Leap)\nwithout demand "
              "overhead, improving contribution/accuracy by 10.7%/5.5%.");
  }

  void Check(const Grid& grid, Checks& checks) const override {
    checks.Above("fig14.two_tier.graphx_runtime_falls_with_horizontal",
                 double(grid.Finish(runs[0])) / double(grid.Finish(runs[1])),
                 1.0);
  }
};

std::unique_ptr<Figure> Fig14() { return std::make_unique<Fig14Horizontal>(); }

}  // namespace canvas::paper
