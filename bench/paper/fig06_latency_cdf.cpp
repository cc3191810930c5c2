// Figure 6: CDF of RDMA request latency for demand vs prefetching requests
// when four applications co-run on Leap with Fastswap's sync/async split.
// Paper result: 99% of demand requests < 40us, but 36.9% of prefetches
// > 512us (up to 52ms) — starved behind the strict demand priority.
#include "paper.h"

namespace canvas::paper {

/// Share of `h`'s samples in the buckets up to and including the one
/// holding `threshold`: the threshold rounds up to its bucket's upper edge
/// (40us -> 40.96us, 512us -> 516.096us).
static double FractionThrough(const trace::LogHistogram& h,
                              SimDuration threshold) {
  if (h.count() == 0) return 0.0;
  std::uint64_t n = 0;
  for (std::uint32_t i = 0; i <= trace::LogHistogram::BucketIndex(threshold);
       ++i)
    n += h.BucketCount(i);
  return double(n) / double(h.count());
}

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
    const trace::LogHistogram& demand = grid[run].demand_latency;
    const trace::LogHistogram& prefetch = grid[run].prefetch_latency;
    PrintBanner("Figure 6: request latency CDF, demand vs prefetch "
                "(fastswap sync/async, Leap, 4-app co-run)");
    TablePrinter table({"percentile", "demand", "prefetch"});
    for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9})
      table.AddRow({TablePrinter::Num(p, 1) + "%",
                    FormatTime(demand.Percentile(p)),
                    FormatTime(prefetch.Percentile(p))});
    table.Print();
    std::printf("\ndemand requests <= 40us: %.1f%% (paper: 99%%)\n",
                FractionThrough(demand, 40 * kMicrosecond) * 100.0);
    std::printf("prefetch requests > 512us: %.1f%% (paper: 36.9%%)\n",
                (1.0 - FractionThrough(prefetch, 512 * kMicrosecond)) * 100.0);
    std::printf("max prefetch latency: %s (paper: up to 52ms)\n",
                FormatTime(prefetch.max()).c_str());
  }

  void Check(const Grid& grid, Checks& checks) const override {
    const RunResult& r = grid[run];
    checks.Within("fig06.demand_within_40us",
                  FractionThrough(r.demand_latency, 40 * kMicrosecond), 0.99,
                  1.0);
    checks.Near("fig06.prefetch_over_512us",
                1.0 - FractionThrough(r.prefetch_latency, 512 * kMicrosecond),
                0.369);
  }
};

std::unique_ptr<Figure> Fig06() { return std::make_unique<Fig06Latency>(); }

}  // namespace canvas::paper
