// Figure 2: slowdowns of co-running applications compared to running each
// individually, on tuned Linux 5.5. Native apps co-run with Spark-LR (blue
// bars) or Neo4j (orange bars). Paper result: overall 3.9x / 2.2x slowdown;
// high-thread-count apps (Spark) invade the others' resources.
#include "paper.h"

namespace canvas::paper {

const std::vector<std::string> kManaged = {"spark-lr", "neo4j"};

static double NativeGeomean(const std::vector<double>& sd) {
  return std::pow(sd[1] * sd[2] * sd[3], 1.0 / 3.0);
}

struct Fig02Corun : Figure {
  std::vector<std::vector<std::size_t>> solo;  // per group
  std::vector<std::size_t> corun;

  void Plan(Grid& grid) override {
    double scale = ScaleFromEnv(0.3);
    for (const std::string& managed : kManaged) {
      solo.push_back(GroupSolos(grid, managed, scale, 0.25));
      corun.push_back(grid.Add(core::SystemConfig::Linux55(),
                               CorunBuilds(managed, scale, 0.25)));
    }
  }

  void Print(const Grid& grid) const override {
    PrintBanner("Figure 2: co-run slowdown vs individual runs (Linux 5.5)");
    TablePrinter table({"co-runner", "snappy", "memcached", "xgboost",
                        "managed app itself", "overall natives"});
    for (std::size_t g = 0; g < kManaged.size(); ++g) {
      std::vector<double> sd = grid.Slowdowns(corun[g], solo[g]);
      table.AddRow({kManaged[g], X(sd[1]), X(sd[2]), X(sd[3]), X(sd[0]),
                    X(NativeGeomean(sd))});
    }
    table.Print();
    std::puts("\nPaper: natives slow down ~3.9x with Spark, ~2.2x with Neo4j;"
              "\nthe high-thread-count managed app suffers least.");
  }

  void Check(const Grid& grid, Checks& checks) const override {
    std::vector<double> spark = grid.Slowdowns(corun[0], solo[0]);
    checks.Near("fig02.natives_with_spark", NativeGeomean(spark), 3.9);
    checks.Near("fig02.natives_with_neo4j",
                NativeGeomean(grid.Slowdowns(corun[1], solo[1])), 2.2);
    checks.Above("fig02.spark_suffers_least",
                 std::min({spark[1], spark[2], spark[3]}) / spark[0], 1.0);
    for (std::size_t g = 0; g < kManaged.size(); ++g) {
      std::vector<double> sd = grid.Slowdowns(corun[g], solo[g]);
      checks.Above("fig02." + kManaged[g] + ".memcached_suffers_most",
                   sd[2] / std::max(sd[1], sd[3]), 1.0);
    }
  }
};

std::unique_ptr<Figure> Fig02() { return std::make_unique<Fig02Corun>(); }

}  // namespace canvas::paper
