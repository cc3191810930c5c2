// Driver equivalence self-test. The benchmark composes its serving-flash and
// cluster-day drivers from public parts so that it can split set-up from the
// run and time AddApp/RetireApp; this checks that, for the benchmark's own
// specs, their deterministic payload equals serving::RunServing and
// orchestrator::RunChurn field for field (compared through the libraries'
// timing-free JSON reports, which print every deterministic field).
//
//   perfbench_selftest    exit 0 when both drivers match on every seed
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>

#include "workloads.h"

using namespace canvas;

namespace {

std::string Payload(const serving::ServingResult& r) {
  std::ostringstream os;
  serving::WriteServingJson(os, {r}, /*include_timing=*/false);
  return os.str();
}

std::string Payload(const orchestrator::ChurnResult& r) {
  orchestrator::ChurnSweepResult sweep;
  sweep.runs = {r};
  std::ostringstream os;
  sweep.WriteJson(os, /*include_timing=*/false);
  return os.str();
}

bool Report(const char* what, bool ok, const std::string& mine,
            const std::string& library) {
  std::printf("%-14s %s\n", what, ok ? "identical" : "DIFFERENT");
  if (!ok)
    std::printf("--- benchmark driver\n%s--- library driver\n%s",
                mine.c_str(), library.c_str());
  return ok;
}

/// Workload seeds the benchmark runs: the first of `--seed 1` and of
/// `--seed 2` (workload_seeds in run.py).
constexpr std::uint64_t kSeeds[] = {111866635180739290ull,
                                    688181352135747846ull};

}  // namespace

int main() {
  auto ignore = [](const core::SwapSystem&, sim::Simulator&) {};
  bool ok = true;
  for (std::uint64_t seed : kSeeds) {
    std::printf("workload seed %llu\n", (unsigned long long)seed);
    perfbench::HostTimes host;

    serving::ServingSpec sspec = perfbench::ServingFlashSpec(seed);
    serving::ServingResult mine_s =
        perfbench::RunServingTimed(sspec, host, ignore);
    serving::ServingResult lib_s = serving::RunServing(sspec);
    ok = Report("serving-flash",
                mine_s.status == serving::ServingResult::Status::kOk &&
                    mine_s.status == lib_s.status &&
                    Payload(mine_s) == Payload(lib_s),
                Payload(mine_s), Payload(lib_s)) &&
         ok;

    orchestrator::ChurnRunSpec cspec = perfbench::ClusterDaySpec(seed);
    orchestrator::ChurnResult mine_c =
        perfbench::RunChurnTimed(cspec, host, ignore);
    orchestrator::ChurnResult lib_c = orchestrator::RunChurn(cspec);
    ok = Report("cluster-day",
                mine_c.status == orchestrator::ChurnResult::Status::kOk &&
                    mine_c.status == lib_c.status &&
                    Payload(mine_c) == Payload(lib_c),
                Payload(mine_c), Payload(lib_c)) &&
         ok;
  }
  return ok ? 0 : 1;
}
