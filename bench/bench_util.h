// Shared helpers for the benches (the paper driver in bench/paper/ and the
// subsystem benches). They print rows via TablePrinter and read
// CANVAS_SCALE (workload scale factor), CANVAS_SEED and CANVAS_JOBS (sweep
// worker threads) from the environment; a malformed value exits 2 before
// anything runs. Apps are composed as core::AppBuild values, so a run is
// a plain ExperimentSpec the SweepEngine can execute on any thread.
#pragma once

#include <cerrno>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/table.h"
#include "core/experiment.h"
#include "orchestrator/sweep.h"
#include "workload/apps.h"

namespace canvas::bench {

[[noreturn]] inline void RejectEnv(const char* var, const char* want) {
  std::fprintf(stderr, "%s=%s: expected %s\n", var, std::getenv(var), want);
  std::exit(2);
}

/// CANVAS_SCALE: a positive finite number.
inline double ScaleFromEnv(double fallback) {
  const char* s = std::getenv("CANVAS_SCALE");
  char* end = nullptr;
  double v = s ? std::strtod(s, &end) : fallback;
  if (s && (end == s || *end || !std::isfinite(v) || v <= 0))
    RejectEnv("CANVAS_SCALE", "a positive number");
  return v;
}

/// A decimal integer >= 1 from `var`, or `fallback` when unset.
inline std::uint64_t PositiveFromEnv(const char* var, std::uint64_t fallback) {
  const char* s = std::getenv(var);
  char* end = nullptr;
  errno = 0;
  std::uint64_t v = s ? std::strtoull(s, &end, 10) : fallback;
  if (s && (!std::isdigit((unsigned char)*s) || *end || errno || v == 0))
    RejectEnv(var, "a positive integer");
  return v;
}

/// CANVAS_SEED, default 7. Zero is rejected: an AppBuild reads seed 0 as
/// "the default", so it would silently run seed 7.
inline std::uint64_t SeedFromEnv() { return PositiveFromEnv("CANVAS_SEED", 7); }

/// Sweep worker threads: CANVAS_JOBS, default = hardware concurrency.
inline unsigned JobsFromEnv() {
  return unsigned(PositiveFromEnv(
      "CANVAS_JOBS", std::max(1u, std::thread::hardware_concurrency())));
}

/// One application of a co-run, paper defaults applied (cores via
/// core::PaperCores, seed via CANVAS_SEED).
inline core::AppBuild Build(const std::string& name, double scale,
                            double ratio, std::uint32_t cores = 0,
                            std::uint64_t seed = 0) {
  return {.name = name,
          .scale = scale,
          .ratio = ratio,
          .cores = cores,
          .seed = seed ? seed : SeedFromEnv()};
}

/// The paper's standard co-run: one managed app plus the three natives.
inline std::vector<core::AppBuild> CorunBuilds(const std::string& managed,
                                               double scale, double ratio) {
  return {Build(managed, scale, ratio), Build("snappy", scale, ratio),
          Build("memcached", scale, ratio), Build("xgboost", scale, ratio)};
}

/// Appends a RunSpec at the next index of `specs`; returns that index.
inline std::size_t AddRun(std::vector<orchestrator::RunSpec>& specs,
                          std::string label, core::SystemConfig cfg,
                          std::vector<core::AppBuild> apps) {
  specs.push_back({.index = specs.size(),
                   .label = std::move(label),
                   .exp = {.config = std::move(cfg), .apps = std::move(apps)}});
  return specs.size() - 1;
}

/// Executes a bench grid on `jobs` (default CANVAS_JOBS) worker threads.
inline orchestrator::SweepResult RunSweep(
    std::vector<orchestrator::RunSpec> specs, unsigned jobs = 0) {
  orchestrator::SweepOptions opts;
  opts.jobs = jobs ? jobs : JobsFromEnv();
  return orchestrator::SweepEngine(opts).Run(std::move(specs));
}

inline std::string X(double v) { return TablePrinter::Num(v, 2) + "x"; }
inline std::string Pct(double v) { return TablePrinter::Num(v, 1) + "%"; }

}  // namespace canvas::bench
