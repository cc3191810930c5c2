// Tests for the sweep orchestrator (DESIGN.md §10): preset registry,
// scenario expansion, and the SweepEngine's determinism / cancellation /
// bounded-concurrency contracts. Runs under the `orchestrator` ctest
// label, including the ASan and TSan passes of scripts/check.sh.
#include <gtest/gtest.h>

#include <sstream>

#include "core/report.h"
#include "orchestrator/sweep.h"

namespace canvas::orchestrator {
namespace {

// Small but non-trivial grid: 2 systems x 2 seeds of a two-app co-run.
ScenarioSpec SmallScenario() {
  ScenarioSpec spec;
  spec.systems = {"linux", "canvas"};
  spec.apps = {core::AppBuild{"memcached"}, core::AppBuild{"snappy"}};
  spec.ratios = {0.25};
  spec.scales = {0.05};
  spec.seeds = {3, 9};
  return spec;
}

std::string Aggregate(const SweepResult& r) {
  std::ostringstream os;
  r.WriteJson(os, /*include_timing=*/false);
  return os.str();
}

TEST(Presets, FromNameResolvesCanonicalNamesAndAliases) {
  ASSERT_TRUE(core::SystemConfig::FromName("canvas"));
  EXPECT_EQ(core::SystemConfig::FromName("canvas")->name, "canvas");
  EXPECT_EQ(core::SystemConfig::FromName("linux")->name, "linux-5.5");
  EXPECT_EQ(core::SystemConfig::FromName("linux-5.5")->name, "linux-5.5");
  EXPECT_EQ(core::SystemConfig::FromName("leap")->name, "infiniswap+leap");
  EXPECT_EQ(core::SystemConfig::FromName("isolation")->name,
            "canvas-isolation");
  EXPECT_FALSE(core::SystemConfig::FromName("not-a-system"));
}

TEST(Presets, ListPresetsCoversEveryFactory) {
  const auto& presets = core::SystemConfig::ListPresets();
  ASSERT_EQ(presets.size(), 6u);
  for (const core::PresetInfo& p : presets) {
    auto cfg = core::SystemConfig::FromName(p.name);
    ASSERT_TRUE(cfg) << p.name;
    EXPECT_FALSE(p.description.empty());
    for (std::string_view alias : p.aliases) {
      auto via_alias = core::SystemConfig::FromName(alias);
      ASSERT_TRUE(via_alias) << alias;
      EXPECT_EQ(via_alias->name, cfg->name);
    }
  }
}

TEST(Scenario, ExpandProducesIndexOrderedGrid) {
  ScenarioSpec spec = SmallScenario();
  auto runs = spec.Expand();
  ASSERT_EQ(runs.size(), spec.RunCount());
  ASSERT_EQ(runs.size(), 4u);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].index, i);
    ASSERT_EQ(runs[i].exp.apps.size(), 2u);
    EXPECT_EQ(runs[i].exp.apps[0].name, "memcached");
  }
  // Nesting order: system outer, seed inner.
  EXPECT_EQ(runs[0].label, "linux/r0.25/s0.05/seed3");
  EXPECT_EQ(runs[1].label, "linux/r0.25/s0.05/seed9");
  EXPECT_EQ(runs[2].label, "canvas/r0.25/s0.05/seed3");
  EXPECT_EQ(runs[3].label, "canvas/r0.25/s0.05/seed9");
  EXPECT_EQ(runs[0].exp.apps[0].seed, 3u);
  EXPECT_EQ(runs[1].exp.apps[0].seed, 9u);
}

TEST(Scenario, OverridesApplyToEveryExpandedConfig) {
  ScenarioSpec spec = SmallScenario();
  spec.systems = {"canvas"};
  spec.overrides.adaptive_alloc = false;
  spec.overrides.prefetcher = core::PrefetcherKind::kReadahead;
  for (const RunSpec& r : spec.Expand()) {
    EXPECT_FALSE(r.exp.config.adaptive_alloc);
    EXPECT_EQ(r.exp.config.prefetcher, core::PrefetcherKind::kReadahead);
  }
}

TEST(Scenario, ExpandRejectsUnknownPreset) {
  ScenarioSpec spec = SmallScenario();
  spec.systems = {"linux", "bogus"};
  EXPECT_THROW(spec.Expand(), std::invalid_argument);
}

// Topology axis (DESIGN.md §11): each system expands once per topology,
// labels carry the topology only when it is not the default, and the
// resolved PoolConfig lands in every run's config.
TEST(Scenario, TopologyAxisExpandsAndLabels) {
  ScenarioSpec spec = SmallScenario();
  spec.systems = {"canvas"};
  spec.seeds = {3};
  spec.topologies = {"single", "pool2"};
  auto runs = spec.Expand();
  ASSERT_EQ(runs.size(), spec.RunCount());
  ASSERT_EQ(runs.size(), 2u);
  // The default topology stays invisible so pre-pool labels are unchanged;
  // non-default topologies are suffixed.
  EXPECT_EQ(runs[0].label, "canvas/r0.25/s0.05/seed3");
  EXPECT_EQ(runs[1].label, "canvas/r0.25/s0.05/seed3/pool2");
  EXPECT_TRUE(runs[0].exp.config.remote.single());
  ASSERT_FALSE(runs[1].exp.config.remote.single());
  EXPECT_EQ(runs[1].exp.config.remote.servers.size(), 2u);

  spec.topologies = {"mesh16"};
  EXPECT_THROW(spec.Expand(), std::invalid_argument);
}

// Churn runs inherit the whole shared axis block, granularity included:
// each granularity is its own run, and the non-default one is labelled.
TEST(Scenario, ChurnExpandHonoursGranularityAxis) {
  ChurnScenarioSpec spec;
  spec.granularities = {"page", "object"};
  auto runs = spec.Expand();
  ASSERT_EQ(runs.size(), spec.RunCount());
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].label, "canvas/pool4/closed-loop/seed7");
  EXPECT_EQ(runs[1].label, "canvas/pool4/closed-loop/seed7/object");
  EXPECT_FALSE(runs[0].config.objects.enabled);
  EXPECT_TRUE(runs[1].config.objects.enabled);

  spec.granularities = {"block"};
  EXPECT_THROW(spec.Expand(), std::invalid_argument);
}

// Pooled runs obey the same determinism contract as the rest of the sweep:
// the aggregate is byte-identical for any worker-thread count.
TEST(SweepEngine, TopologySweepAggregateByteIdenticalAcrossJobs) {
  ScenarioSpec spec = SmallScenario();
  spec.systems = {"canvas"};
  spec.seeds = {3};
  spec.topologies = {"single", "pool2", "pool4-harvest"};

  SweepOptions serial;
  serial.jobs = 1;
  SweepEngine serial_engine(serial);
  auto r1 = serial_engine.Run(spec);

  SweepOptions parallel;
  parallel.jobs = 2;
  SweepEngine parallel_engine(parallel);
  auto r2 = parallel_engine.Run(spec);

  EXPECT_TRUE(r1.all_ok);
  ASSERT_EQ(r1.runs.size(), 3u);
  EXPECT_EQ(Aggregate(r1), Aggregate(r2));
}

// The engine's core contract: the aggregated report is a pure function of
// the spec list — byte-identical for any worker-thread count.
TEST(SweepEngine, AggregateByteIdenticalAcrossThreadCounts) {
  ScenarioSpec spec = SmallScenario();

  SweepOptions serial;
  serial.jobs = 1;
  SweepEngine serial_engine(serial);
  auto r1 = serial_engine.Run(spec);

  SweepOptions parallel;
  parallel.jobs = 8;
  SweepEngine parallel_engine(parallel);
  auto r2 = parallel_engine.Run(spec);

  EXPECT_TRUE(r1.all_ok);
  EXPECT_TRUE(r2.all_ok);
  EXPECT_EQ(Aggregate(r1), Aggregate(r2));
}

// Per-run determinism: the same spec executed twice gives identical
// results (finish times, faults, event counts).
TEST(SweepEngine, SeededRunsAreDeterministic) {
  auto runs = SmallScenario().Expand();
  RunResult a = SweepEngine::ExecuteOne(runs[1]);
  RunResult b = SweepEngine::ExecuteOne(runs[1]);
  ASSERT_EQ(a.status, RunResult::Status::kOk);
  ASSERT_EQ(b.status, RunResult::Status::kOk);
  ASSERT_EQ(a.apps.size(), b.apps.size());
  EXPECT_EQ(a.sim_events, b.sim_events);
  for (std::size_t i = 0; i < a.apps.size(); ++i) {
    EXPECT_EQ(a.apps[i].metrics.finish_time, b.apps[i].metrics.finish_time);
    EXPECT_EQ(a.apps[i].metrics.faults, b.apps[i].metrics.faults);
    EXPECT_EQ(a.apps[i].metrics.swapouts, b.apps[i].metrics.swapouts);
  }
  // Different seed, different run.
  RunResult c = SweepEngine::ExecuteOne(runs[0]);
  EXPECT_TRUE(c.sim_events != a.sim_events ||
              c.apps[0].metrics.finish_time != a.apps[0].metrics.finish_time);
}

// Aggregates include the label/status even for runs that miss their
// deadline, and all_ok reflects the failure.
TEST(SweepEngine, DeadlineMissIsReportedNotDropped) {
  ScenarioSpec spec = SmallScenario();
  spec.systems = {"canvas"};
  spec.seeds = {3};
  spec.deadline = 1 * kMillisecond;  // nothing finishes in 1ms of sim time
  SweepEngine engine;
  auto r = engine.Run(spec);
  ASSERT_EQ(r.runs.size(), 1u);
  EXPECT_EQ(r.runs[0].status, RunResult::Status::kDeadline);
  EXPECT_FALSE(r.all_ok);
  EXPECT_NE(Aggregate(r).find("\"status\": \"deadline\""), std::string::npos);
}

TEST(SweepEngine, ErrorRunCapturesExceptionMessage) {
  std::vector<RunSpec> specs(1);
  specs[0].index = 0;
  specs[0].label = "bad";
  specs[0].exp.config = core::SystemConfig::CanvasFull();
  specs[0].exp.apps = {core::AppBuild{"no-such-app"}};
  SweepEngine engine;
  auto r = engine.Run(std::move(specs));
  ASSERT_EQ(r.runs.size(), 1u);
  EXPECT_EQ(r.runs[0].status, RunResult::Status::kError);
  EXPECT_NE(r.runs[0].error.find("no-such-app"), std::string::npos);
  EXPECT_FALSE(r.all_ok);
}

// cancel_on_failure with one worker: the first run fails (tiny deadline),
// so nothing after it may be dispatched.
TEST(SweepEngine, CancellationStopsDispatchSerially) {
  ScenarioSpec spec = SmallScenario();  // 4 runs
  spec.deadline = 1 * kMillisecond;     // every run fails fast
  SweepOptions opts;
  opts.jobs = 1;
  opts.cancel_on_failure = true;
  SweepEngine engine(opts);
  auto r = engine.Run(spec);
  EXPECT_TRUE(r.cancelled);
  ASSERT_EQ(r.runs.size(), 4u);
  EXPECT_EQ(r.runs[0].status, RunResult::Status::kDeadline);
  for (std::size_t i = 1; i < r.runs.size(); ++i) {
    EXPECT_EQ(r.runs[i].status, RunResult::Status::kCancelled);
    EXPECT_EQ(r.runs[i].label, spec.Expand()[i].label);  // slot kept
  }
}

// With a pool, cancellation still guarantees the sweep flags the failure
// and stops dispatching once observed (some in-flight runs may complete).
TEST(SweepEngine, CancellationWithPoolStopsEarly) {
  ScenarioSpec spec = SmallScenario();
  spec.deadline = 1 * kMillisecond;
  SweepOptions opts;
  opts.jobs = 2;
  opts.cancel_on_failure = true;
  SweepEngine engine(opts);
  auto r = engine.Run(spec);
  EXPECT_TRUE(r.cancelled);
  EXPECT_FALSE(r.all_ok);
  std::size_t executed = 0;
  for (const RunResult& run : r.runs)
    if (run.executed()) ++executed;
  EXPECT_LT(executed, r.runs.size());
}

// max_live bounds the number of concurrently constructed swap systems
// even when the pool is wider.
TEST(SweepEngine, BoundedConcurrencyRespectsMaxLive) {
  ScenarioSpec spec = SmallScenario();  // 4 runs
  SweepOptions opts;
  opts.jobs = 8;
  opts.max_live = 2;
  SweepEngine engine(opts);
  auto r = engine.Run(spec);
  EXPECT_TRUE(r.all_ok);
  EXPECT_GE(engine.live_high_water(), 1u);
  EXPECT_LE(engine.live_high_water(), 2u);
}

// The serving and churn overloads run on the same pool, so they keep the
// same cancellation and live-system contracts as batch runs. Both grids
// below have four cheap runs.
ServingScenarioSpec SmallServing() {
  ServingScenarioSpec spec;
  spec.seeds = {1, 2, 3, 4};
  serving::TenantSpec t;
  t.name = "frontend";
  t.arrival.rate_rps = 20'000;
  t.horizon = 20 * kMillisecond;
  t.threads = 1;
  t.footprint_pages = 2048;
  spec.tenants = {t};
  return spec;
}

ChurnScenarioSpec SmallChurn() {
  ChurnScenarioSpec spec;
  spec.seeds = {1, 2, 3, 4};
  spec.churn.arrival_rate_per_sec = 200;
  spec.churn.mean_lifetime = 10 * kMillisecond;
  spec.churn.min_lifetime = 5 * kMillisecond;
  spec.churn.horizon = 30 * kMillisecond;
  spec.churn.max_concurrent = 4;
  workload::TenantTemplate t;
  t.app = "memcached";
  t.scale = 0.01;
  spec.churn.templates = {t};
  return spec;
}

template <typename Scenario>
void ExpectSerialCancellation(Scenario spec) {
  spec.deadline = 1 * kMillisecond;  // every run fails fast
  SweepOptions opts;
  opts.jobs = 1;
  opts.cancel_on_failure = true;
  auto r = SweepEngine(opts).Run(spec);
  EXPECT_TRUE(r.cancelled);
  EXPECT_FALSE(r.all_ok);
  ASSERT_EQ(r.runs.size(), 4u);
  EXPECT_EQ(r.runs[0].status, RunStatus::kDeadline);
  auto specs = spec.Expand();
  for (std::size_t i = 1; i < r.runs.size(); ++i) {
    EXPECT_EQ(r.runs[i].status, RunStatus::kCancelled);
    EXPECT_EQ(r.runs[i].label, specs[i].label);  // slot kept
  }
}

template <typename Scenario>
void ExpectMaxLiveBound(const Scenario& spec) {
  SweepOptions opts;
  opts.jobs = 8;
  opts.max_live = 2;
  SweepEngine engine(opts);
  auto r = engine.Run(spec);
  EXPECT_TRUE(r.all_ok);
  EXPECT_EQ(r.runs.size(), 4u);
  EXPECT_GE(engine.live_high_water(), 1u);
  EXPECT_LE(engine.live_high_water(), 2u);
}

TEST(SweepEngine, CancellationStopsDispatchForServingAndChurn) {
  ExpectSerialCancellation(SmallServing());
  ExpectSerialCancellation(SmallChurn());
}

TEST(SweepEngine, MaxLiveBoundsServingAndChurn) {
  ExpectMaxLiveBound(SmallServing());
  ExpectMaxLiveBound(SmallChurn());
}

// The sweep JSON is schema-versioned like every other machine-readable
// report surface.
TEST(SweepEngine, SweepJsonCarriesSchemaVersion) {
  ScenarioSpec spec = SmallScenario();
  spec.systems = {"linux"};
  spec.seeds = {3};
  SweepEngine engine;
  auto r = engine.Run(spec);
  std::ostringstream with_timing;
  r.WriteJson(with_timing, /*include_timing=*/true);
  std::string s = with_timing.str();
  EXPECT_NE(s.find("\"schema_version\": " +
                   std::to_string(core::kReportSchemaVersion)),
            std::string::npos);
  EXPECT_NE(s.find("\"timing\""), std::string::npos);
  EXPECT_NE(s.find("\"peak_rss_bytes\""), std::string::npos);
  // Balanced braces / brackets (cheap well-formedness proxy).
  EXPECT_EQ(std::count(s.begin(), s.end(), '{'),
            std::count(s.begin(), s.end(), '}'));
  EXPECT_EQ(std::count(s.begin(), s.end(), '['),
            std::count(s.begin(), s.end(), ']'));
  EXPECT_EQ(Aggregate(r).find("\"timing\""), std::string::npos);
}

}  // namespace
}  // namespace canvas::orchestrator
