// Online-serving harness suite (DESIGN.md §13).
//
// Covers the layers of the serving stack:
//   - SloTracker: windowed verdicts over LogHistogram::Since (skip thin
//     windows, judge fat ones, count judged/skipped/violated windows);
//   - RunServing end-to-end: deterministic repeats (plain, harvested pool
//     under an impossible SLO, fault plan), a QoS plane that only observes
//     (on and off simulate the same run), and the qos_enabled=false mode;
//   - the serving sweep surface: ServingScenarioSpec expansion (labels,
//     arrival-axis targeting, unknown-name errors) and jobs=1 vs jobs=8
//     byte-identity of the deterministic report.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "orchestrator/sweep.h"
#include "serving/harness.h"
#include "serving/slo.h"
#include "trace/histogram.h"

namespace canvas {
namespace {

using serving::ServingResult;
using serving::ServingSpec;
using serving::SloConfig;
using serving::SloTracker;
using serving::TenantSpec;

// --- SloTracker -------------------------------------------------------------

TEST(SloTracker, SkipsThinWindowsJudgesFatOnes) {
  SloConfig cfg;
  cfg.p99_ns = 10'000;
  cfg.p999_ns = 50'000;
  cfg.min_window_samples = 32;
  SloTracker trk(cfg);

  trace::LogHistogram cum;
  // Window 1: too thin for a verdict.
  for (int i = 0; i < 10; ++i) cum.Add(1'000);
  EXPECT_FALSE(trk.Observe(cum));
  EXPECT_EQ(trk.windows_skipped(), 1u);
  EXPECT_EQ(trk.windows_judged(), 0u);

  // Window 2: plenty of samples, all far under the bound -> clean.
  for (int i = 0; i < 100; ++i) cum.Add(1'000);
  EXPECT_FALSE(trk.Observe(cum));
  EXPECT_EQ(trk.windows_judged(), 1u);
  EXPECT_EQ(trk.windows_violated(), 0u);

  // Window 3: a heavy tail pushes the windowed p99 over the bound.
  for (int i = 0; i < 90; ++i) cum.Add(1'000);
  for (int i = 0; i < 10; ++i) cum.Add(1'000'000);
  EXPECT_TRUE(trk.Observe(cum));
  EXPECT_EQ(trk.windows_judged(), 2u);
  EXPECT_EQ(trk.windows_violated(), 1u);

  // Window 4: thin again -> skipped, counted apart from the judged ones.
  for (int i = 0; i < 5; ++i) cum.Add(1'000'000);
  EXPECT_FALSE(trk.Observe(cum));
  EXPECT_EQ(trk.windows_skipped(), 2u);
  EXPECT_EQ(trk.windows_judged(), 2u);

  // Window 5: clean again.
  for (int i = 0; i < 100; ++i) cum.Add(2'000);
  EXPECT_FALSE(trk.Observe(cum));
  EXPECT_EQ(trk.windows_skipped(), 2u);
  EXPECT_EQ(trk.windows_judged(), 3u);
  EXPECT_EQ(trk.windows_violated(), 1u);
  EXPECT_DOUBLE_EQ(trk.ViolationRate(), 1.0 / 3.0);
}

TEST(SloTracker, PreWindowTailCannotContaminateLaterWindows) {
  // The regression the interval view exists for: a warm-up spike before
  // window 1 must not leak into window 2's percentiles.
  SloConfig cfg;
  cfg.p99_ns = 10'000;
  cfg.min_window_samples = 32;
  SloTracker trk(cfg);

  trace::LogHistogram cum;
  for (int i = 0; i < 100; ++i) cum.Add(100'000'000);  // warm-up spike
  EXPECT_TRUE(trk.Observe(cum));

  for (int i = 0; i < 1000; ++i) cum.Add(1'000);  // steady state
  EXPECT_FALSE(trk.Observe(cum)) << "cumulative tail leaked into the window";
  EXPECT_EQ(trk.windows_judged(), 2u);
  EXPECT_EQ(trk.windows_violated(), 1u);
  EXPECT_EQ(trk.windows_skipped(), 0u);
}

// --- end-to-end serving runs ------------------------------------------------

// A compact two-tenant co-run: a protected frontend plus a best-effort
// batch tenant, short horizon so the whole suite stays fast.
ServingSpec TwoTenantSpec(SimTime horizon = 300 * kMillisecond) {
  ServingSpec spec;
  spec.label = "test";
  spec.config = core::SystemConfig::CanvasFull();
  spec.config.remote = remote::PoolConfig::FromName("pool4");
  spec.seed = 7;

  TenantSpec fe;
  fe.name = "frontend";
  fe.arrival.rate_rps = 50'000;
  fe.horizon = horizon;
  fe.threads = 2;
  fe.footprint_pages = 8192;
  fe.load_tenant = true;
  TenantSpec batch;
  batch.name = "batch";
  batch.arrival.rate_rps = 20'000;
  batch.horizon = horizon;
  batch.threads = 2;
  batch.footprint_pages = 8192;
  batch.best_effort = true;
  spec.tenants = {fe, batch};
  spec.qos.control_period = 50 * kMillisecond;
  return spec;
}

std::string DeterministicJson(const ServingResult& r) {
  std::ostringstream os;
  serving::WriteServingJson(os, {r}, /*include_timing=*/false);
  return os.str();
}

TEST(ServingRun, RepeatRunsAreByteIdentical) {
  // Plain; a harvested pool judged against an impossible SLO (every
  // window violates); and a fault plan.
  ServingSpec harvest = TwoTenantSpec();
  harvest.label = "harvest";
  harvest.config.remote = remote::PoolConfig::FromName("pool4-harvest");
  harvest.tenants[0].slo.p99_ns = 1;
  harvest.tenants[0].slo.min_window_samples = 8;
  ServingSpec faulted = TwoTenantSpec();
  faulted.label = "faulted";
  auto plan = fault::FaultPlan::Parse(
      "latency 2000 4000 80 both\n"
      "bandwidth 5000 8000 0.5 both\n");
  ASSERT_TRUE(plan.has_value());
  faulted.config.fault_plan = std::make_shared<const fault::FaultPlan>(*plan);

  for (const ServingSpec& spec : {TwoTenantSpec(), harvest, faulted}) {
    ServingResult a = serving::RunServing(spec);
    ServingResult b = serving::RunServing(spec);
    ASSERT_EQ(a.status, ServingResult::Status::kOk) << spec.label;
    EXPECT_EQ(DeterministicJson(a), DeterministicJson(b)) << spec.label;
    EXPECT_EQ(a.sim_events, b.sim_events) << spec.label;
  }
}

TEST(ServingRun, OpenLoopCountersBalance) {
  ServingResult r = serving::RunServing(TwoTenantSpec());
  ASSERT_EQ(r.status, ServingResult::Status::kOk);
  ASSERT_EQ(r.tenants.size(), 2u);
  for (const serving::TenantResult& t : r.tenants) {
    EXPECT_GT(t.offered, 0u) << t.name;
    // Every offered request is served; deferral only moves a request in
    // time.
    EXPECT_EQ(t.offered, t.served) << t.name;
    EXPECT_GT(t.finish_ns, 0u) << t.name;
  }
  EXPECT_GT(r.qos_ticks, 0u);
}

TEST(ServingRun, QosPlaneOnlyObserves) {
  // 1ns p99 bound: every judged window violates (even a local first-touch
  // stall is 900ns). The plane judges and counts the windows but acts on
  // nothing, so the run it observes is the run without it.
  ServingSpec spec = TwoTenantSpec();
  spec.tenants[0].slo.p99_ns = 1;
  spec.tenants[0].slo.min_window_samples = 8;
  ServingSpec off = spec;
  off.qos_enabled = false;
  ServingResult on_r = serving::RunServing(spec);
  ServingResult off_r = serving::RunServing(off);
  ASSERT_EQ(on_r.status, ServingResult::Status::kOk);
  ASSERT_EQ(off_r.status, ServingResult::Status::kOk);

  const serving::TenantResult& fe = on_r.tenants[0];
  EXPECT_GT(fe.windows_violated, 0u);
  EXPECT_DOUBLE_EQ(fe.violation_rate, 1.0);
  EXPECT_GT(on_r.qos_ticks, 0u);

  // The tick events themselves are the only extra events.
  EXPECT_EQ(on_r.sim_events, off_r.sim_events + on_r.qos_ticks);
  ASSERT_EQ(on_r.tenants.size(), off_r.tenants.size());
  for (std::size_t i = 0; i < on_r.tenants.size(); ++i) {
    const serving::TenantResult& a = on_r.tenants[i];
    const serving::TenantResult& b = off_r.tenants[i];
    EXPECT_EQ(a.offered, b.offered) << a.name;
    EXPECT_EQ(a.served, b.served) << a.name;
    EXPECT_EQ(a.offered, a.served) << a.name;
    EXPECT_EQ(a.faults, b.faults) << a.name;
    EXPECT_EQ(a.fault_p50_ns, b.fault_p50_ns) << a.name;
    EXPECT_EQ(a.fault_p99_ns, b.fault_p99_ns) << a.name;
    EXPECT_EQ(a.fault_p999_ns, b.fault_p999_ns) << a.name;
    EXPECT_EQ(a.finish_ns, b.finish_ns) << a.name;
  }
}

TEST(ServingRun, QosDisabledJudgesNoWindow) {
  ServingSpec spec = TwoTenantSpec();
  spec.tenants[0].slo.p99_ns = 1;  // would violate if anyone judged it
  spec.qos_enabled = false;
  ServingResult r = serving::RunServing(spec);
  ASSERT_EQ(r.status, ServingResult::Status::kOk);
  EXPECT_EQ(r.qos_ticks, 0u);
  for (const serving::TenantResult& t : r.tenants) {
    EXPECT_EQ(t.windows_judged, 0u) << t.name;
    EXPECT_EQ(t.windows_violated, 0u) << t.name;
  }
}

TEST(ServingRun, AdmissionGateDefersEarlyArrivals) {
  ServingSpec spec = TwoTenantSpec();
  spec.tenants[1].admit_after = 100 * kMillisecond;
  ServingResult r = serving::RunServing(spec);
  ASSERT_EQ(r.status, ServingResult::Status::kOk);
  EXPECT_GT(r.tenants[1].deferred, 0u);
  EXPECT_EQ(r.tenants[0].deferred, 0u);
}

// --- scenario expansion + sweep byte-identity -------------------------------

orchestrator::ServingScenarioSpec SmallScenario() {
  orchestrator::ServingScenarioSpec sc;
  sc.systems = {"canvas"};
  sc.topologies = {"pool4"};
  sc.arrivals = {"poisson", "flash"};
  sc.seeds = {7, 8};
  TenantSpec fe;
  fe.name = "frontend";
  fe.arrival.rate_rps = 50'000;
  fe.horizon = 100 * kMillisecond;
  fe.threads = 2;
  fe.footprint_pages = 4096;
  fe.load_tenant = true;
  // Flash burst inside the short horizon so the axis changes behaviour.
  fe.arrival.flash_start = 30 * kMillisecond;
  fe.arrival.flash_duration = 20 * kMillisecond;
  TenantSpec batch = fe;
  batch.name = "batch";
  batch.arrival.rate_rps = 20'000;
  batch.best_effort = true;
  batch.load_tenant = false;
  sc.tenants = {fe, batch};
  sc.qos.control_period = 25 * kMillisecond;
  return sc;
}

TEST(ServingScenario, ExpandsTheGridAndTargetsLoadTenants) {
  orchestrator::ServingScenarioSpec sc = SmallScenario();
  auto specs = sc.Expand();
  ASSERT_EQ(specs.size(), sc.RunCount());
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_EQ(specs[0].label, "canvas/pool4/poisson/seed7");
  EXPECT_EQ(specs[3].label, "canvas/pool4/flash/seed8");
  for (const ServingSpec& s : specs) {
    EXPECT_EQ(s.index, std::size_t(&s - specs.data()));
    // The axis retargets only the load tenant; batch stays Poisson.
    EXPECT_EQ(s.tenants[1].arrival.kind, workload::ArrivalKind::kPoisson);
  }
  EXPECT_EQ(specs[2].tenants[0].arrival.kind,
            workload::ArrivalKind::kFlashCrowd);

  orchestrator::ServingScenarioSpec bad = sc;
  bad.arrivals = {"bursty"};
  EXPECT_THROW(bad.Expand(), std::invalid_argument);
  bad = sc;
  bad.systems = {"nope"};
  EXPECT_THROW(bad.Expand(), std::invalid_argument);
}

TEST(ServingSweep, Jobs1Vs8ByteIdenticalReport) {
  orchestrator::ServingScenarioSpec sc = SmallScenario();

  orchestrator::SweepOptions serial_opts;
  serial_opts.jobs = 1;
  orchestrator::SweepEngine serial(serial_opts);
  auto a = serial.Run(sc);
  ASSERT_TRUE(a.all_ok);

  orchestrator::SweepOptions par_opts;
  par_opts.jobs = 8;
  orchestrator::SweepEngine par(par_opts);
  auto b = par.Run(sc);
  ASSERT_TRUE(b.all_ok);

  std::ostringstream ja, jb;
  a.WriteJson(ja, /*include_timing=*/false);
  b.WriteJson(jb, /*include_timing=*/false);
  EXPECT_EQ(ja.str(), jb.str());
}

TEST(ServingSweep, FlashCrowdLiftsOfferedLoadOverPoisson) {
  // Sanity that the arrival axis reaches the run: the flash-crowd grid
  // points must offer strictly more frontend load than their Poisson
  // siblings (8x rate inside the burst window).
  orchestrator::ServingScenarioSpec sc = SmallScenario();
  orchestrator::SweepEngine engine(orchestrator::SweepOptions{});
  auto res = engine.Run(sc);
  ASSERT_TRUE(res.all_ok);
  // Index order: poisson/seed7, poisson/seed8, flash/seed7, flash/seed8.
  EXPECT_GT(res.runs[2].tenants[0].offered, res.runs[0].tenants[0].offered);
  EXPECT_GT(res.runs[3].tenants[0].offered, res.runs[1].tenants[0].offered);
  // The non-load tenant is untouched by the axis: same arrivals per seed.
  EXPECT_EQ(res.runs[2].tenants[1].offered, res.runs[0].tenants[1].offered);
}

}  // namespace
}  // namespace canvas
