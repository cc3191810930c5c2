// Ablation: contribution of each Canvas feature to the headline co-run
// (Spark-LR + natives, 25% local memory). Between the Linux 5.5 baseline
// and full Canvas, features are added cumulatively in the paper's order
// (§4 isolation -> §5.1 adaptive allocation -> §5.2 two-tier prefetch ->
// §5.3 horizontal scheduling), and also removed one-at-a-time from the full
// system (leave-one-out), exposing interactions the cumulative view hides.
#include "paper.h"

namespace canvas::paper {

struct Variant {
  std::string label;
  core::SystemConfig cfg;
};

/// The cumulative table, then the leave-one-out table.
static std::vector<std::vector<Variant>> Tables() {
  auto iso = core::SystemConfig::CanvasIsolation();
  auto iso_alloc = iso;
  iso_alloc.adaptive_alloc = true;
  iso_alloc.name = "isolation+adaptive";
  auto iso_alloc_pf = iso_alloc;
  iso_alloc_pf.prefetcher = core::PrefetcherKind::kTwoTier;
  iso_alloc_pf.name = "isolation+adaptive+two-tier";
  auto full = core::SystemConfig::CanvasFull();
  auto no_iso = full;
  no_iso.isolated_partitions = false;
  no_iso.isolated_caches = false;
  no_iso.adaptive_alloc = false;  // requires isolated partitions
  no_iso.scheduler = core::SchedulerKind::kFastswap;
  no_iso.name = "full - isolation";
  auto no_alloc = full;
  no_alloc.adaptive_alloc = false;
  no_alloc.name = "full - adaptive alloc";
  auto no_pf = full;
  no_pf.prefetcher = core::PrefetcherKind::kReadahead;
  no_pf.name = "full - two-tier";
  auto no_horiz = full;
  no_horiz.horizontal_sched = false;
  no_horiz.name = "full - horizontal";
  return {{{"linux 5.5", core::SystemConfig::Linux55()},
           {"+ isolation (§4)", iso},
           {"+ adaptive alloc (§5.1)", iso_alloc},
           {"+ two-tier prefetch (§5.2)", iso_alloc_pf},
           {"+ horizontal sched (§5.3) = full", full}},
          {{"full canvas", full},
           {"- isolation", no_iso},
           {"- adaptive alloc", no_alloc},
           {"- two-tier prefetch", no_pf},
           {"- horizontal sched", no_horiz}}};
}

struct AblationFeatures : Figure {
  std::vector<std::size_t> solo;
  std::vector<std::vector<std::size_t>> runs;  // per table, per variant

  void Plan(Grid& grid) override {
    double scale = ScaleFromEnv(0.25);
    solo = GroupSolos(grid, "spark-lr", scale, 0.25);
    for (const auto& table : Tables()) {
      runs.emplace_back();
      for (const Variant& v : table)
        runs.back().push_back(
            grid.Add(v.cfg, CorunBuilds("spark-lr", scale, 0.25)));
    }
  }

  /// Geomean slowdown of the four co-running apps of run `h`.
  double Geo(const Grid& grid, std::size_t h) const {
    double geo = 1.0;
    for (double sd : grid.Slowdowns(h, solo)) geo *= sd;
    return std::sqrt(std::sqrt(geo));
  }

  void Print(const Grid& grid) const override {
    const char* banners[] = {
        "Ablation (cumulative): Spark-LR + natives, 25% memory",
        "Ablation (leave-one-out from full Canvas)"};
    std::vector<std::vector<Variant>> tables = Tables();
    for (std::size_t t = 0; t < tables.size(); ++t) {
      TablePrinter table({"variant", "spark slowdown", "memcached slowdown",
                          "geomean slowdown", "spark contrib",
                          "spark lock-free", "drops"});
      PrintBanner(banners[t]);
      for (std::size_t v = 0; v < tables[t].size(); ++v) {
        std::size_t h = runs[t][v];
        std::vector<double> sd = grid.Slowdowns(h, solo);
        table.AddRow({tables[t][v].label, X(sd[0]), X(sd[2]),
                      X(Geo(grid, h)), Pct(grid.App(h).ContributionPct()),
                      std::to_string(grid.App(h).lockfree_swapouts),
                      std::to_string(grid[h].sched_drops)});
      }
      table.Print();
    }
    std::puts("\nGeomean over the four co-running apps, vs solo Linux 5.5.");
  }

  void Check(const Grid& grid, Checks& checks) const override {
    const std::vector<std::size_t>& cumulative = runs[0];
    double linux = Geo(grid, cumulative[0]);
    checks.Above("ablation.isolation_carries_most_of_the_gain",
                 (linux - Geo(grid, cumulative[1])) /
                     (linux - Geo(grid, cumulative[4])),
                 0.5);
    checks.Near("ablation.spark_contrib_before_two_tier",
                grid.App(cumulative[2]).ContributionPct(), 3.0);
    checks.Near("ablation.spark_contrib_with_two_tier",
                grid.App(cumulative[3]).ContributionPct(), 35.0);
  }
};

std::unique_ptr<Figure> Ablation() {
  return std::make_unique<AblationFeatures>();
}

}  // namespace canvas::paper
