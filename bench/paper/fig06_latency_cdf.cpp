// Figure 6: CDF of RDMA request latency for demand vs prefetching requests
// when four applications co-run on Leap with Fastswap's sync/async split.
// Paper result: 99% of demand requests < 40us, but 36.9% of prefetches
// > 512us (up to 52ms) — starved behind the strict demand priority.
#include "paper.h"

namespace canvas::paper {

struct Fig06Latency : Figure {
  std::size_t run = 0;

  void Plan(Grid& grid) override {
    auto cfg = core::SystemConfig::Fastswap();
    cfg.prefetcher = core::PrefetcherKind::kLeap;  // aggressive prefetch load
    cfg.prefetcher_shared_state = true;
    cfg.name = "fastswap+leap";
    run = grid.Add(cfg, CorunBuilds("spark-lr", ScaleFromEnv(0.3), 0.25));
  }

  void Print(const Grid& grid) const override {
    const LatencyRecorder& demand = grid[run].demand_latency;
    const LatencyRecorder& prefetch = grid[run].prefetch_latency;
    PrintBanner("Figure 6: request latency CDF, demand vs prefetch "
                "(fastswap sync/async, Leap, 4-app co-run)");
    TablePrinter table({"percentile", "demand", "prefetch"});
    for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9})
      table.AddRow({TablePrinter::Num(p, 1) + "%",
                    FormatTime(SimTime(demand.Percentile(p))),
                    FormatTime(SimTime(prefetch.Percentile(p)))});
    table.Print();
    std::printf("\ndemand requests <= 40us: %.1f%% (paper: 99%%)\n",
                demand.FractionBelow(40.0 * kMicrosecond) * 100.0);
    std::printf("prefetch requests > 512us: %.1f%% (paper: 36.9%%)\n",
                (1.0 - prefetch.FractionBelow(512.0 * kMicrosecond)) * 100.0);
    std::printf("max prefetch latency: %s (paper: up to 52ms)\n",
                FormatTime(SimTime(prefetch.Max())).c_str());
  }

  void Check(const Grid& grid, Checks& checks) const override {
    const RunResult& r = grid[run];
    checks.Within("fig06.demand_within_40us",
                  r.demand_latency.FractionBelow(40.0 * kMicrosecond), 0.99,
                  1.0);
    checks.Near("fig06.prefetch_over_512us",
                1.0 - r.prefetch_latency.FractionBelow(512.0 * kMicrosecond),
                0.369);
  }
};

std::unique_ptr<Figure> Fig06() { return std::make_unique<Fig06Latency>(); }

}  // namespace canvas::paper
