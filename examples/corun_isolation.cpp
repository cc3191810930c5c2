// Co-run isolation demo: the paper's headline scenario.
//
// Runs the three native applications (Snappy, Memcached, XGBoost) together
// with one managed application under four swap systems, printing each app's
// slowdown relative to its solo run — the experiment behind Figures 2, 10
// and 11.
//
//   ./build/examples/corun_isolation [managed-app] [scale]
#include <cstdio>
#include <string>
#include <vector>

#include "common/table.h"
#include "core/experiment.h"
#include "workload/apps.h"

using namespace canvas;

namespace {

core::AppSpec Spec(const std::string& name, double scale, double ratio,
                   std::uint32_t cores) {
  workload::AppParams p;
  p.scale = scale;
  auto w = workload::MakeByName(name, p);
  auto cg = workload::CgroupFor(w, ratio, cores);
  return core::AppSpec{std::move(w), std::move(cg)};
}

struct App {
  std::string name;
  std::uint32_t cores;
};

}  // namespace

int main(int argc, char** argv) {
  std::string managed = argc > 1 ? argv[1] : "spark-lr";
  double scale = argc > 2 ? std::atof(argv[2]) : 0.3;
  const double ratio = 0.25;

  std::vector<App> apps = {
      {managed, 24}, {"snappy", 1}, {"memcached", 4}, {"xgboost", 16}};

  PrintBanner("Co-run isolation: " + managed +
              " + natives, 25% local memory");

  // Solo baselines on Linux 5.5.
  std::vector<SimTime> solo;
  for (const App& a : apps) {
    std::vector<core::AppSpec> one;
    one.push_back(Spec(a.name, scale, ratio, a.cores));
    core::Experiment e(core::SystemConfig::Linux55(), std::move(one));
    e.Run();
    solo.push_back(e.FinishTime(0));
  }

  TablePrinter table({"system", apps[0].name, "snappy", "memcached",
                      "xgboost", "RDMA in", "WMMR", "drops"});
  for (auto mk : {core::SystemConfig::Linux55, core::SystemConfig::Fastswap,
                  core::SystemConfig::CanvasIsolation,
                  core::SystemConfig::CanvasFull}) {
    auto cfg = mk();
    std::vector<core::AppSpec> corun;
    for (const App& a : apps) corun.push_back(Spec(a.name, scale, ratio, a.cores));
    core::Experiment e(cfg, std::move(corun));
    bool ok = e.Run();
    std::vector<std::string> row{cfg.name};
    for (std::size_t i = 0; i < apps.size(); ++i) {
      row.push_back(ok ? TablePrinter::Num(
                             core::Slowdown(e.FinishTime(i), solo[i]), 2) +
                             "x"
                       : "-");
    }
    row.push_back(
        FormatBytes(e.system().nic().mean_rate(rdma::Direction::kIngress)) +
        "/s");
    row.push_back(
        TablePrinter::Num(e.system().Wmmr(rdma::Direction::kIngress), 2));
    row.push_back(std::to_string(e.system().scheduler().drops()));
    table.AddRow(std::move(row));
  }
  table.Print();
  std::puts("\nSlowdowns are relative to each app's solo run on Linux 5.5.");
  return 0;
}
