// The paper driver (bench/paper/): the paper's whole evaluation from one
// run grid. Each figure is a Figure: Plan() adds its runs to the Grid and
// keeps the handles, Print() prints its tables from the results, and
// Check() tests its EXPERIMENTS.md verdict. Identical runs
// (ExperimentSpec::operator==) share a handle, so each distinct run
// executes once on the SweepEngine.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "bench_util.h"

namespace canvas::paper {

using namespace canvas::bench;
using orchestrator::AppResult;
using orchestrator::RunResult;

struct Grid {
  /// Handle of the run; an identical run added before keeps its handle.
  std::size_t Add(core::SystemConfig cfg, std::vector<core::AppBuild> apps);
  void Run(unsigned jobs) { sweep = RunSweep(specs, jobs); }
  const RunResult& operator[](std::size_t h) const { return sweep.runs[h]; }
  const core::AppMetrics& App(std::size_t h, std::size_t i = 0) const {
    return sweep.runs[h].apps[i].metrics;
  }
  SimTime Finish(std::size_t h, std::size_t i = 0) const {
    return App(h, i).finish_time;
  }
  /// Each app of co-run `h` against its solo run, in co-run order.
  std::vector<double> Slowdowns(std::size_t h,
                                const std::vector<std::size_t>& solo) const;
  std::vector<orchestrator::RunSpec> specs;  ///< the distinct runs
  orchestrator::SweepResult sweep;           ///< their results, by handle
  std::size_t added = 0;                     ///< Add() calls
};

/// Verdict checks, each named after the claim it tests; a failure is
/// printed on stderr with the measured value.
struct Checks {
  static constexpr double kInf = std::numeric_limits<double>::infinity();
  void Within(const std::string& name, double value, double lo, double hi);
  /// Within a factor of 1.3 of a factor EXPERIMENTS.md quotes.
  void Near(const std::string& name, double value, double quoted) {
    Within(name, value, quoted / 1.3, quoted * 1.3);
  }
  /// A stated direction: value > bound.
  void Above(const std::string& name, double value, double bound);
  static double Geomean(const std::vector<double>& v);
  int total = 0, failed = 0;
};

struct Figure {
  virtual ~Figure() = default;
  virtual void Plan(Grid& grid) = 0;
  virtual void Print(const Grid& grid) const = 0;
  virtual void Check(const Grid& grid, Checks& checks) const = 0;
};

/// Memcached core counts of Figs. 13 and 16.
inline const std::vector<std::uint32_t> kCoreCounts = {8, 16, 24, 32, 40, 48};
/// The managed apps of Figs. 10-12, each co-run with the three natives.
inline const std::vector<std::string> kGroups = {"spark-lr", "spark-km",
                                                 "cassandra", "neo4j"};
/// Handles of each app of `managed`'s co-run group (CorunBuilds order)
/// run alone on Linux 5.5.
std::vector<std::size_t> GroupSolos(Grid& grid, const std::string& managed,
                                    double scale, double ratio);
/// `count` per second over `finish` (one second if it did not finish).
double PerSecond(std::uint64_t count, SimTime finish);
/// Swap-entry allocation time per swap-out, in us (Figs. 13, 16).
double AllocUsPerSwapout(const core::AppMetrics& m);

/// Spark-LR, XGBoost and Snappy on Linux 5.5, each alone and then the
/// three together (Figs. 4, 5 and 15).
struct Trio {
  static const std::vector<std::string> kNames;
  void Plan(Grid& grid);
  std::vector<std::size_t> solo;
  std::size_t corun = 0;
};

/// One per figure file; paper.cpp lists them in print order.
std::unique_ptr<Figure> Fig02(), Fig03(), Fig04(), Fig05(), Fig06(), Fig09(),
    Fig10(), Fig11(), Table03(), Fig12(), Table04(), Fig13(), Table05(),
    Fig14(), Fig15(), Fig16(), Ablation();

}  // namespace canvas::paper
