// Online-serving harness suite (DESIGN.md §13).
//
// Covers the three layers of the serving stack:
//   - SloTracker: windowed verdicts over LogHistogram::Since (skip thin
//     windows, judge fat ones, violation/clean run bookkeeping, supply
//     scale moving the bounds);
//   - SupplyCurve: CSV parsing and step lookup, plus the end-to-end
//     guarantees that a constant-1.0 curve is byte-identical to no curve
//     and a loosened curve suppresses QoS escalation;
//   - RunServing end-to-end: deterministic repeats (plain, harvested pool
//     with every QoS lever engaged, fault plan), QoS escalation under a
//     violated SLO (weight boosts on the victim, shedding on best-effort
//     co-tenants), and the observe-only qos_enabled=false mode;
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
#include "serving/supply_curve.h"
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
  EXPECT_EQ(trk.clean_run(), 1u);
  EXPECT_EQ(trk.violation_run(), 0u);

  // Window 3: a heavy tail pushes the windowed p99 over the bound.
  for (int i = 0; i < 90; ++i) cum.Add(1'000);
  for (int i = 0; i < 10; ++i) cum.Add(1'000'000);
  EXPECT_TRUE(trk.Observe(cum));
  EXPECT_EQ(trk.windows_violated(), 1u);
  EXPECT_EQ(trk.violation_run(), 1u);
  EXPECT_EQ(trk.clean_run(), 0u);
  EXPECT_GT(trk.last_window_p99(), 10'000u);

  // Window 4: clean again -> the violation run resets.
  for (int i = 0; i < 100; ++i) cum.Add(2'000);
  EXPECT_FALSE(trk.Observe(cum));
  EXPECT_EQ(trk.violation_run(), 0u);
  EXPECT_EQ(trk.clean_run(), 1u);
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
  EXPECT_LT(trk.last_window_p99(), 10'000u);
}

TEST(SloTracker, SupplyScaleMovesTheBounds) {
  SloConfig cfg;
  cfg.p99_ns = 10'000;
  cfg.p999_ns = 100'000'000;
  cfg.min_window_samples = 32;

  trace::LogHistogram tail;  // windowed p99 around 100µs
  for (int i = 0; i < 90; ++i) tail.Add(1'000);
  for (int i = 0; i < 10; ++i) tail.Add(100'000);
  EXPECT_TRUE(SloTracker(cfg).Observe(tail));          // 10µs bound: violated
  EXPECT_FALSE(SloTracker(cfg).Observe(tail, 100.0));  // 1ms bound: clean

  trace::LogHistogram quiet;  // windowed p99 around 1µs
  for (int i = 0; i < 100; ++i) quiet.Add(1'000);
  EXPECT_FALSE(SloTracker(cfg).Observe(quiet));        // clean at 1.0
  EXPECT_TRUE(SloTracker(cfg).Observe(quiet, 0.001));  // 10ns bound: violated
}

// --- SupplyCurve ------------------------------------------------------------

TEST(SupplyCurve, ParsesCsvAndStepsThroughTime) {
  auto curve = serving::SupplyCurve::Parse(
      "# latency headroom trace (Memtrade cmanager_latency shape)\n"
      "0, 1.0\n"
      "100, 2.0   # spot supply arrives: loosen the bounds\n"
      "\n"
      "250 0.5\n");
  ASSERT_TRUE(curve.has_value());
  ASSERT_EQ(curve->points.size(), 3u);
  EXPECT_DOUBLE_EQ(curve->ScaleAt(0), 1.0);
  EXPECT_DOUBLE_EQ(curve->ScaleAt(99 * kMillisecond), 1.0);
  EXPECT_DOUBLE_EQ(curve->ScaleAt(100 * kMillisecond), 2.0);
  EXPECT_DOUBLE_EQ(curve->ScaleAt(249 * kMillisecond), 2.0);
  EXPECT_DOUBLE_EQ(curve->ScaleAt(10 * kSecond), 0.5);
}

TEST(SupplyCurve, ScalesByOneOutsideTheCurve) {
  serving::SupplyCurve empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_DOUBLE_EQ(empty.ScaleAt(0), 1.0);
  EXPECT_DOUBLE_EQ(empty.ScaleAt(5 * kSecond), 1.0);
  // A curve whose first step starts late scales by 1.0 until that edge.
  auto late = serving::SupplyCurve::Parse("200,3.0\n");
  ASSERT_TRUE(late.has_value());
  EXPECT_DOUBLE_EQ(late->ScaleAt(100 * kMillisecond), 1.0);
  EXPECT_DOUBLE_EQ(late->ScaleAt(200 * kMillisecond), 3.0);
}

TEST(SupplyCurve, RejectsMalformedRows) {
  std::string err;
  EXPECT_FALSE(serving::SupplyCurve::Parse("10, 0\n", &err).has_value());
  EXPECT_NE(err.find("bad scale"), std::string::npos);
  EXPECT_FALSE(serving::SupplyCurve::Parse("10\n", &err).has_value());
  EXPECT_FALSE(serving::SupplyCurve::Parse("-5, 1.0\n", &err).has_value());
  EXPECT_NE(err.find("negative time"), std::string::npos);
  EXPECT_FALSE(
      serving::SupplyCurve::Parse("100,1.0\n50,2.0\n", &err).has_value());
  EXPECT_NE(err.find("backwards"), std::string::npos);
  EXPECT_FALSE(
      serving::SupplyCurve::LoadFile("/nonexistent/curve.csv", &err)
          .has_value());
  EXPECT_NE(err.find("cannot open"), std::string::npos);
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
  // Plain; harvest-driven migrations interleaved with QoS-driven
  // RebalanceTenant (an impossible SLO keeps every lever engaged); and a
  // fault plan.
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
    // Every offered request is either shed or served; deferral only moves
    // a request in time.
    EXPECT_EQ(t.offered, t.served + t.shed) << t.name;
    EXPECT_GT(t.finish_ns, 0u) << t.name;
  }
  EXPECT_GT(r.qos_ticks, 0u);
}

TEST(ServingRun, ImpossibleSloEscalatesProtectedAndShedsBestEffort) {
  ServingSpec spec = TwoTenantSpec();
  // 1ns p99 bound: every judged window violates (even a local first-touch
  // stall is 900ns), so the QoS ladder must engage deterministically.
  spec.tenants[0].slo.p99_ns = 1;
  spec.tenants[0].slo.min_window_samples = 8;
  ServingResult r = serving::RunServing(spec);
  ASSERT_EQ(r.status, ServingResult::Status::kOk);

  const serving::TenantResult& fe = r.tenants[0];
  const serving::TenantResult& batch = r.tenants[1];
  EXPECT_GT(fe.windows_violated, 0u);
  EXPECT_DOUBLE_EQ(fe.violation_rate, 1.0);
  // Lever 1 (weight boost) lands on the victim...
  EXPECT_GT(fe.weight_boosts, 0u);
  // ...lever 2 (shedding) on the best-effort co-tenant, and the shed
  // fraction actually drops arrivals after the first violated tick.
  EXPECT_GT(batch.shed_steps, 0u);
  EXPECT_GT(batch.shed, 0u);
  EXPECT_EQ(batch.offered, batch.served + batch.shed);
  // The protected tenant itself is never shed.
  EXPECT_EQ(fe.shed, 0u);
}

TEST(ServingRun, ConstantUnitSupplyCurveIsByteIdenticalToDefault) {
  // A constant-1.0 curve must reproduce the curve-free run byte for byte:
  // at scale 1.0 the tracker compares the untouched integer bounds, so
  // wiring the curve through the plane cannot perturb any verdict.
  ServingSpec curved = TwoTenantSpec();
  auto one = serving::SupplyCurve::Parse("0, 1.0\n");
  ASSERT_TRUE(one.has_value());
  curved.qos.supply = *one;
  ServingResult a = serving::RunServing(TwoTenantSpec());
  ServingResult b = serving::RunServing(curved);
  ASSERT_EQ(a.status, ServingResult::Status::kOk);
  EXPECT_EQ(DeterministicJson(a), DeterministicJson(b));
  EXPECT_EQ(a.sim_events, b.sim_events);
}

TEST(ServingRun, LooseSupplyCurveSuppressesEscalation) {
  // An impossible SLO violates every window at scale 1.0; a curve that
  // loosens the bounds from t=0 (plentiful supply) keeps every window
  // clean, so the QoS ladder never engages.
  ServingSpec spec = TwoTenantSpec();
  spec.tenants[0].slo.p99_ns = 1;
  spec.tenants[0].slo.min_window_samples = 8;
  ServingSpec eased = spec;
  auto loose = serving::SupplyCurve::Parse("0, 1000000000\n");
  ASSERT_TRUE(loose.has_value());
  eased.qos.supply = *loose;

  ServingResult hard = serving::RunServing(spec);
  ServingResult soft = serving::RunServing(eased);
  ASSERT_EQ(hard.status, ServingResult::Status::kOk);
  ASSERT_EQ(soft.status, ServingResult::Status::kOk);
  EXPECT_GT(hard.tenants[0].windows_violated, 0u);
  EXPECT_GT(hard.tenants[0].weight_boosts, 0u);
  EXPECT_EQ(soft.tenants[0].windows_violated, 0u);
  EXPECT_EQ(soft.tenants[0].weight_boosts, 0u);
  EXPECT_EQ(soft.tenants[1].shed_steps, 0u);
  EXPECT_EQ(soft.tenants[1].shed, 0u);
}

TEST(ServingRun, QosDisabledObservesNothingAndActsNowhere) {
  ServingSpec spec = TwoTenantSpec();
  spec.tenants[0].slo.p99_ns = 1;  // would violate if anyone judged it
  spec.qos_enabled = false;
  ServingResult r = serving::RunServing(spec);
  ASSERT_EQ(r.status, ServingResult::Status::kOk);
  EXPECT_EQ(r.qos_ticks, 0u);
  for (const serving::TenantResult& t : r.tenants) {
    EXPECT_EQ(t.windows_judged, 0u) << t.name;
    EXPECT_EQ(t.weight_boosts, 0u) << t.name;
    EXPECT_EQ(t.shed_steps, 0u) << t.name;
    EXPECT_EQ(t.shed, 0u) << t.name;
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
  auto a = serial.RunServing(sc);
  ASSERT_TRUE(a.all_ok);

  orchestrator::SweepOptions par_opts;
  par_opts.jobs = 8;
  orchestrator::SweepEngine par(par_opts);
  auto b = par.RunServing(sc);
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
  auto res = engine.RunServing(sc);
  ASSERT_TRUE(res.all_ok);
  // Index order: poisson/seed7, poisson/seed8, flash/seed7, flash/seed8.
  EXPECT_GT(res.runs[2].tenants[0].offered, res.runs[0].tenants[0].offered);
  EXPECT_GT(res.runs[3].tenants[0].offered, res.runs[1].tenants[0].offered);
  // The non-load tenant is untouched by the axis: same arrivals per seed.
  EXPECT_EQ(res.runs[2].tenants[1].offered, res.runs[0].tenants[1].offered);
}

}  // namespace
}  // namespace canvas
