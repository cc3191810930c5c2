// Tests for cluster-day tenant churn (DESIGN.md §15): CgroupRegistry
// retire/reuse properties, churn-schedule generation and trace parsing,
// the arrival/departure driver end-to-end (slab conservation via the pool
// audit, O(active-tenant) registry growth), and the determinism contracts
// — --jobs and repeat-run byte-identity of the aggregated report. Runs
// under the `churn` ctest label, including the ASan and TSan passes of
// scripts/check.sh.
#include <gtest/gtest.h>

#include <sstream>

#include "cgroup/cgroup.h"
#include "core/report.h"
#include "orchestrator/sweep.h"
#include "workload/churn.h"

namespace canvas::orchestrator {
namespace {

CgroupSpec TinySpec(const std::string& name) {
  CgroupSpec s;
  s.name = name;
  s.local_mem_pages = 16;
  s.swap_entry_limit = 16;
  s.swap_cache_pages = 4;
  return s;
}

TEST(Registry, RetireReusesLowestSlotAndBumpsGeneration) {
  CgroupRegistry reg;
  CgroupId a = reg.Create(TinySpec("a"));
  CgroupId b = reg.Create(TinySpec("b"));
  CgroupId c = reg.Create(TinySpec("c"));
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(c, 2u);
  EXPECT_EQ(reg.active_count(), 3u);

  std::uint32_t gen_b = reg.generation(b);
  reg.Retire(c);
  reg.Retire(b);
  EXPECT_EQ(reg.active_count(), 1u);
  EXPECT_EQ(reg.retired_total(), 2u);
  EXPECT_FALSE(reg.Alive(b));

  // Lowest retired slot first, and its generation moved on.
  CgroupId d = reg.Create(TinySpec("d"));
  EXPECT_EQ(d, b);
  EXPECT_GT(reg.generation(d), gen_b);
  EXPECT_EQ(reg.Get(d).spec().name, "d");
  // Slot count tracks the high-water mark, not tenants-ever-created.
  EXPECT_EQ(reg.size(), 3u);
}

TEST(Registry, StaleHandleResolvesToNull) {
  CgroupRegistry reg;
  CgroupId a = reg.Create(TinySpec("a"));
  CgroupHandle h = reg.HandleFor(a);
  ASSERT_NE(reg.Resolve(h), nullptr);
  reg.Retire(a);
  EXPECT_EQ(reg.Resolve(h), nullptr);
  // Reuse must not resurrect the old handle.
  CgroupId a2 = reg.Create(TinySpec("a2"));
  ASSERT_EQ(a2, a);
  EXPECT_EQ(reg.Resolve(h), nullptr);
  EXPECT_NE(reg.Resolve(reg.HandleFor(a2)), nullptr);
}

TEST(Registry, ChurnPropertyManySlotsStayBounded) {
  // 200 create/retire cycles over a window of at most 8 live slots must
  // never grow the registry past the window.
  CgroupRegistry reg;
  std::vector<CgroupId> live;
  for (int i = 0; i < 200; ++i) {
    if (live.size() == 8) {
      reg.Retire(live.front());
      live.erase(live.begin());
    }
    live.push_back(reg.Create(TinySpec("t" + std::to_string(i))));
    EXPECT_LE(reg.size(), 8u);
  }
  EXPECT_EQ(reg.retired_total() + live.size(), 200u);
}

workload::ChurnSpec SmallChurn() {
  workload::ChurnSpec c;
  c.kind = workload::ChurnKind::kPoisson;
  c.arrival_rate_per_sec = 400;
  c.mean_lifetime = 30 * kMillisecond;
  c.min_lifetime = 5 * kMillisecond;
  c.horizon = 150 * kMillisecond;
  c.max_tenants = 40;
  c.max_concurrent = 6;
  // Scale sits above CgroupFor's 512-page local floor so tenants genuinely
  // fault and swap out — reaping then releases remote-homed slabs, not just
  // empty partitions.
  workload::TenantTemplate t;
  t.app = "memcached";
  t.scale = 0.05;
  t.local_ratio = 0.3;
  c.templates = {t};
  c.seed = 11;
  return c;
}

TEST(Schedule, BuildIsDeterministicAndOrdered) {
  workload::ChurnSpec c = SmallChurn();
  workload::ChurnSchedule s1 = workload::BuildChurnSchedule(c);
  workload::ChurnSchedule s2 = workload::BuildChurnSchedule(c);
  ASSERT_FALSE(s1.tenants.empty());
  ASSERT_EQ(s1.tenants.size(), s2.tenants.size());
  for (std::size_t i = 0; i < s1.tenants.size(); ++i) {
    EXPECT_EQ(s1.tenants[i].arrive, s2.tenants[i].arrive);
    EXPECT_EQ(s1.tenants[i].depart, s2.tenants[i].depart);
    EXPECT_EQ(s1.tenants[i].tmpl, s2.tenants[i].tmpl);
  }
  EXPECT_EQ(s1.dropped_arrivals, s2.dropped_arrivals);
  // Admission control held and the event list is time-ordered.
  EXPECT_LE(s1.concurrent_high_water, c.max_concurrent);
  EXPECT_EQ(s1.events.size(), s1.tenants.size() * 2);
  for (std::size_t i = 1; i < s1.events.size(); ++i)
    EXPECT_LE(s1.events[i - 1].at, s1.events[i].at);
  for (const workload::ChurnTenant& t : s1.tenants) {
    EXPECT_GE(t.depart - t.arrive, c.min_lifetime);
    EXPECT_LT(t.arrive, SimTime(c.horizon));
  }
}

TEST(Schedule, DifferentSeedsDiffer) {
  workload::ChurnSpec c = SmallChurn();
  workload::ChurnSchedule s1 = workload::BuildChurnSchedule(c);
  c.seed = 12;
  workload::ChurnSchedule s2 = workload::BuildChurnSchedule(c);
  bool differs = s1.tenants.size() != s2.tenants.size();
  for (std::size_t i = 0; !differs && i < s1.tenants.size(); ++i)
    differs = s1.tenants[i].arrive != s2.tenants[i].arrive;
  EXPECT_TRUE(differs);
}

TEST(Schedule, TraceLoaderParsesRowsCommentsAndOverrides) {
  workload::ChurnSpec c = SmallChurn();
  c.kind = workload::ChurnKind::kTrace;
  workload::TenantTemplate snappy;
  snappy.app = "snappy";
  c.templates.push_back(snappy);
  std::istringstream in(
      "# arrive_ms,lifetime_ms,template[,scale]\n"
      "0,20,0\n"
      "5,20,snappy,0.02\n"
      "\n"
      "10,20,1\n");
  workload::ChurnSchedule s = workload::LoadChurnTrace(c, in);
  ASSERT_EQ(s.tenants.size(), 3u);
  EXPECT_EQ(s.tenants[0].tmpl, 0u);
  EXPECT_EQ(s.tenants[1].tmpl, 1u);
  EXPECT_DOUBLE_EQ(s.tenants[1].scale_override, 0.02);
  EXPECT_EQ(s.tenants[2].tmpl, 1u);
  EXPECT_EQ(s.tenants[1].arrive, SimTime(5 * kMillisecond));
  EXPECT_EQ(s.tenants[1].depart, SimTime(25 * kMillisecond));
}

TEST(Schedule, TraceLoaderRejectsBadRows) {
  workload::ChurnSpec c = SmallChurn();
  std::istringstream short_row("1,2\n");
  EXPECT_THROW(workload::LoadChurnTrace(c, short_row),
               std::invalid_argument);
  std::istringstream bad_tmpl("1,2,9\n");
  EXPECT_THROW(workload::LoadChurnTrace(c, bad_tmpl),
               std::invalid_argument);
  std::istringstream bad_name("1,2,no-such-app\n");
  EXPECT_THROW(workload::LoadChurnTrace(c, bad_name),
               std::invalid_argument);
}

ChurnRunSpec SmallRun(const std::string& topology = "pool4",
                      const std::string& harvest = "closed-loop") {
  ChurnScenarioSpec sc;
  sc.topologies = {topology};
  sc.harvests = {harvest};
  sc.churn = SmallChurn();
  sc.deadline = 2 * kSecond;
  auto runs = sc.Expand();
  return runs.at(0);
}

TEST(Driver, FullChurnCycleDrainsAndPassesPoolAudit) {
  ChurnResult r = RunChurn(SmallRun());
  ASSERT_EQ(r.status, ChurnResult::Status::kOk) << r.error;
  EXPECT_GT(r.tenants_started, 0u);
  EXPECT_EQ(r.tenants_started, r.tenants_scheduled);
  // Every tenant arrived, departed, and was fully reaped.
  EXPECT_EQ(r.tenants_retired, r.tenants_started);
  EXPECT_EQ(r.active_at_end, 0u);
  EXPECT_EQ(r.pending_at_end, 0u);
  EXPECT_GT(r.accesses, 0u);
  // The tenants are sized to swap: reaping must release real remote state
  // (and the run's embedded pool audit must have passed for status kOk).
  EXPECT_GT(r.faults, 0u);
  EXPECT_GT(r.swapouts, 0u);
  EXPECT_TRUE(r.pool);
  EXPECT_EQ(r.partitions_released, r.tenants_retired);
  EXPECT_GT(r.slabs_released, 0u);
}

TEST(Driver, RegistryGrowthIsBoundedByActiveHighWater) {
  ChurnResult r = RunChurn(SmallRun());
  ASSERT_EQ(r.status, ChurnResult::Status::kOk) << r.error;
  // O(active tenants): slots ever created track the concurrency peak (+1
  // for the shared cgroup), never the tenants-ever-admitted count.
  EXPECT_LE(r.registry_slots, r.active_high_water + 1);
  EXPECT_LT(r.registry_slots, r.tenants_started);
  // A departed tenant stays live until its in-flight work quiesces and the
  // reap poll fires, so the system's peak can briefly run ahead of the
  // schedule's instantaneous-departure accounting — but only by the handful
  // of tenants in the drain window, never by the admitted count.
  EXPECT_LE(r.active_high_water, r.schedule_high_water + 4);
}

TEST(Driver, StaticSchedulesAndSingleTopologyAlsoDrain) {
  ChurnResult steady = RunChurn(SmallRun("pool4", "steady"));
  ASSERT_EQ(steady.status, ChurnResult::Status::kOk) << steady.error;
  EXPECT_GT(steady.harvest_events, 0u);
  ChurnResult single = RunChurn(SmallRun("single", "none"));
  ASSERT_EQ(single.status, ChurnResult::Status::kOk) << single.error;
  EXPECT_FALSE(single.pool);
  EXPECT_EQ(single.tenants_retired, single.tenants_started);
}

TEST(Driver, ReportCarriesChurnSchemaAndRetiredTenants) {
  ChurnResult r = RunChurn(SmallRun());
  ASSERT_EQ(r.status, ChurnResult::Status::kOk) << r.error;
  ChurnSweepResult sweep;
  sweep.runs = {r};
  sweep.all_ok = true;
  std::ostringstream os;
  sweep.WriteJson(os, /*include_timing=*/false);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema_version\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"tenants_retired\""), std::string::npos);
  EXPECT_NE(json.find("\"partitions_released\""), std::string::npos);
}

ChurnScenarioSpec SweepScenario() {
  ChurnScenarioSpec sc;
  sc.systems = {"canvas", "linux"};
  sc.harvests = {"closed-loop"};
  sc.seeds = {11, 12};
  sc.churn = SmallChurn();
  sc.churn.max_tenants = 16;
  sc.deadline = 2 * kSecond;
  return sc;
}

std::string Aggregate(const ChurnSweepResult& r) {
  std::ostringstream os;
  r.WriteJson(os, /*include_timing=*/false);
  return os.str();
}

TEST(Determinism, SweepIsByteIdenticalAcrossJobs) {
  ChurnScenarioSpec sc = SweepScenario();
  SweepOptions serial;
  serial.jobs = 1;
  SweepOptions wide;
  wide.jobs = 4;
  ChurnSweepResult a = SweepEngine(serial).RunChurn(sc);
  ChurnSweepResult b = SweepEngine(wide).RunChurn(sc);
  EXPECT_TRUE(a.all_ok) << Aggregate(a);
  EXPECT_EQ(Aggregate(a), Aggregate(b));
}

TEST(Determinism, RunIsByteIdenticalWhenRepeated) {
  ChurnScenarioSpec sc = SweepScenario();
  sc.systems = {"canvas"};
  sc.seeds = {11};
  ChurnSweepResult a = SweepEngine().RunChurn(sc);
  ChurnSweepResult b = SweepEngine().RunChurn(sc);
  ASSERT_TRUE(a.all_ok) << Aggregate(a);
  EXPECT_EQ(Aggregate(a), Aggregate(b));
}

TEST(Axes, ChurnExpandNestsSystemTopologyTierHarvestSeed) {
  ChurnScenarioSpec sc;
  sc.systems = {"canvas", "linux"};
  sc.topologies = {"pool4"};
  sc.harvests = {"none", "closed-loop"};
  sc.seeds = {1, 2};
  auto runs = sc.Expand();
  ASSERT_EQ(runs.size(), sc.RunCount());
  ASSERT_EQ(runs.size(), 8u);
  EXPECT_EQ(runs[0].label, "canvas/pool4/none/seed1");
  EXPECT_EQ(runs[1].label, "canvas/pool4/none/seed2");
  EXPECT_EQ(runs[2].label, "canvas/pool4/closed-loop/seed1");
  // Labels keep the requested axis name ("linux"), like the other sweeps;
  // the resolved preset name lands in ChurnResult::system.
  EXPECT_EQ(runs[4].label, "linux/pool4/none/seed1");
  for (std::size_t i = 0; i < runs.size(); ++i)
    EXPECT_EQ(runs[i].index, i);
  // The seed axis drives the churn timeline, not just the workloads.
  EXPECT_EQ(runs[0].churn.seed, 1u);
  EXPECT_EQ(runs[1].churn.seed, 2u);
}

TEST(Axes, SharedAxisBlockFlowsThroughEverySurface) {
  // The AxisSpec base is shared: the same tier axis expands in batch,
  // serving and churn scenarios alike.
  ScenarioSpec batch;
  batch.apps = {core::AppBuild{"memcached"}};
  batch.tiers = {"none", "cxl"};
  EXPECT_EQ(batch.Expand().size(), 2u);

  ServingScenarioSpec serving;
  serving.tiers = {"none", "cxl"};
  EXPECT_EQ(serving.RunCount(), 2u);
  EXPECT_EQ(serving.topologies, std::vector<std::string>{"pool4"});

  ChurnScenarioSpec churn;
  churn.tiers = {"none", "cxl"};
  EXPECT_EQ(churn.RunCount(), 2u);
}

}  // namespace
}  // namespace canvas::orchestrator
