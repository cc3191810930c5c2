// Tests for the remote memory-server pool (DESIGN.md §11): placement
// policies, harvesting-driven migration and disk eviction, the single-home
// (no-dual-residency) and capacity-conservation invariants, per-server
// fault targeting, and the transparent-topology equivalence that anchors
// the whole subsystem to the pre-pool fast path.
#include <gtest/gtest.h>

#include <sstream>

#include "core/experiment.h"
#include "core/report.h"
#include "fault/fault_plan.h"
#include "remote/placement.h"
#include "remote/pool.h"
#include "sim/simulator.h"

namespace canvas::remote {
namespace {

ServerConfig Finite(const std::string& name, std::uint64_t capacity) {
  ServerConfig s;
  s.name = name;
  s.capacity_slabs = capacity;
  return s;
}

std::vector<ServerState> States(std::vector<std::uint64_t> capacities,
                                std::vector<std::uint64_t> held) {
  std::vector<ServerState> out;
  for (std::size_t i = 0; i < capacities.size(); ++i) {
    out.emplace_back(Finite("ms" + std::to_string(i), capacities[i]),
                     SimDuration(100));
    out.back().slabs_held = held[i];
  }
  return out;
}

// --- placement policies -----------------------------------------------

TEST(Placement, FirstFitPicksLowestServerWithRoom) {
  Rng rng(1);
  auto policy = MakePlacementPolicy(PlacementKind::kFirstFit);
  auto s = States({2, 2, 2}, {2, 1, 0});  // server 0 full
  EXPECT_EQ(policy->Pick(s, kNoServer, rng), 1);
  s[1].slabs_held = 2;
  EXPECT_EQ(policy->Pick(s, kNoServer, rng), 2);
}

TEST(Placement, FirstFitSkipsDownAndExcludedServers) {
  Rng rng(1);
  auto policy = MakePlacementPolicy(PlacementKind::kFirstFit);
  auto s = States({4, 4, 4}, {0, 0, 0});
  s[0].down = true;
  EXPECT_EQ(policy->Pick(s, /*exclude=*/1, rng), 2);
  s[2].down = true;
  EXPECT_EQ(policy->Pick(s, /*exclude=*/1, rng), kNoServer);
}

TEST(Placement, RoundRobinCyclesThroughEligibleServers) {
  Rng rng(1);
  auto policy = MakePlacementPolicy(PlacementKind::kRoundRobin);
  auto s = States({8, 8, 8}, {0, 0, 0});
  std::vector<ServerId> picks;
  for (int i = 0; i < 6; ++i) picks.push_back(policy->Pick(s, kNoServer, rng));
  EXPECT_EQ(picks, (std::vector<ServerId>{0, 1, 2, 0, 1, 2}));
}

TEST(Placement, PowerOfTwoPrefersTheEmptierServer) {
  // Whenever the two draws differ the emptier server wins, so over many
  // picks the nearly-full server loses the large majority (it can only win
  // when both draws land on it). Seeded rng makes the counts deterministic.
  auto policy = MakePlacementPolicy(PlacementKind::kPowerOfTwo);
  Rng rng(42);
  auto s = States({100, 100}, {90, 5});
  int wins[2] = {0, 0};
  for (int i = 0; i < 64; ++i) ++wins[policy->Pick(s, kNoServer, rng)];
  EXPECT_GT(wins[1], wins[0] * 2);
}

TEST(Placement, PowerOfTwoWithOneEligibleServerAlwaysPicksIt) {
  auto policy = MakePlacementPolicy(PlacementKind::kPowerOfTwo);
  Rng rng(42);
  auto s = States({100, 100}, {100, 5});  // server 0 full -> ineligible
  for (int i = 0; i < 8; ++i) EXPECT_EQ(policy->Pick(s, kNoServer, rng), 1);
}

TEST(Placement, PowerOfTwoIsDeterministicForASeed) {
  auto s = States({10, 10, 10, 10}, {1, 2, 3, 4});
  std::vector<ServerId> a, b;
  {
    Rng rng(7);
    auto policy = MakePlacementPolicy(PlacementKind::kPowerOfTwo);
    for (int i = 0; i < 16; ++i) a.push_back(policy->Pick(s, kNoServer, rng));
  }
  {
    Rng rng(7);
    auto policy = MakePlacementPolicy(PlacementKind::kPowerOfTwo);
    for (int i = 0; i < 16; ++i) b.push_back(policy->Pick(s, kNoServer, rng));
  }
  EXPECT_EQ(a, b);
}

TEST(Placement, KindNamesRoundTrip) {
  for (auto k : {PlacementKind::kFirstFit, PlacementKind::kRoundRobin,
                 PlacementKind::kPowerOfTwo}) {
    PlacementKind parsed;
    ASSERT_TRUE(ParsePlacementKind(PlacementKindName(k), &parsed));
    EXPECT_EQ(parsed, k);
  }
  PlacementKind ignored;
  EXPECT_FALSE(ParsePlacementKind("best-fit", &ignored));
}

// --- topology registry ------------------------------------------------

TEST(Topology, RegistryResolvesKnownNamesAndRejectsUnknown) {
  EXPECT_FALSE(PoolConfig::FromName("single").enabled());
  EXPECT_EQ(PoolConfig::FromName("transparent").servers.size(), 1u);
  EXPECT_EQ(PoolConfig::FromName("pool2").servers.size(), 2u);
  EXPECT_EQ(PoolConfig::FromName("pool4").servers.size(), 4u);
  EXPECT_EQ(PoolConfig::FromName("pool8").servers.size(), 8u);
  EXPECT_GT(PoolConfig::FromName("pool4-harvest").harvest.period, 0);
  EXPECT_THROW(PoolConfig::FromName("mesh16"), std::invalid_argument);
  EXPECT_FALSE(PoolConfig::ListTopologies().empty());
}

// --- pool mechanics (unit level) --------------------------------------

PoolConfig TwoServerPool(std::uint64_t cap_each) {
  PoolConfig cfg;
  cfg.topology = "test-pool2";
  cfg.placement = PlacementKind::kFirstFit;
  cfg.slab_entries = 16;
  cfg.servers = {Finite("ms0", cap_each), Finite("ms1", cap_each)};
  return cfg;
}

TEST(Pool, PlacesLazilyAndRoutesToTheHome) {
  sim::Simulator sim;
  ServerPool pool(sim, TwoServerPool(4));
  std::uint32_t pid = pool.RegisterPartition(16 * 8);  // 8 slabs
  EXPECT_EQ(pool.HomeOf(pid, 0), kSlabUnplaced);
  EXPECT_EQ(pool.EnsurePlaced(pid, 5), 0);    // slab 0 -> first fit
  EXPECT_EQ(pool.EnsurePlaced(pid, 5), 0);    // idempotent
  EXPECT_EQ(pool.RouteAtDispatch(pid, 5), 0);
  // Fill server 0 (4 slabs), the next slab spills to server 1.
  for (std::uint64_t slab = 1; slab < 5; ++slab)
    pool.EnsurePlaced(pid, slab * 16);
  EXPECT_EQ(pool.HomeOf(pid, 4 * 16), 1);
  EXPECT_EQ(pool.slabs_placed(), 5u);
  std::string err;
  EXPECT_TRUE(pool.Audit(&err)) << err;
}

TEST(Pool, HarvestMigratesNewestSlabsToAServerWithRoom) {
  sim::Simulator sim;
  ServerPool pool(sim, TwoServerPool(4));
  std::uint32_t pid = pool.RegisterPartition(16 * 8);
  for (std::uint64_t slab = 0; slab < 4; ++slab)
    pool.EnsurePlaced(pid, slab * 16);  // all on server 0
  ASSERT_EQ(pool.servers()[0].slabs_held, 4u);
  pool.ApplyHarvest({sim.Now(), /*server=*/0, /*delta_slabs=*/-2});
  EXPECT_EQ(pool.servers()[0].capacity_slabs, 2u);
  EXPECT_EQ(pool.servers()[0].slabs_held, 2u);
  EXPECT_EQ(pool.servers()[1].slabs_held, 2u);
  EXPECT_EQ(pool.migrations(), 2u);
  EXPECT_EQ(pool.evictions_to_disk(), 0u);
  // Newest-placed slabs moved; the oldest stayed put.
  EXPECT_EQ(pool.HomeOf(pid, 0), 0);
  EXPECT_EQ(pool.HomeOf(pid, 3 * 16), 1);
  std::string err;
  EXPECT_TRUE(pool.Audit(&err)) << err;
}

TEST(Pool, HarvestEvictsToDiskWhenNoServerHasRoom) {
  sim::Simulator s2;
  ServerPool pool(s2, TwoServerPool(2));
  std::uint32_t pid = pool.RegisterPartition(16 * 4);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> evicted;
  pool.SetSlabEvictedHandler(
      [&](std::uint32_t p, std::uint64_t lo, std::uint64_t hi) {
        EXPECT_EQ(p, pid);
        evicted.emplace_back(lo, hi);
      });
  for (std::uint64_t slab = 0; slab < 4; ++slab)
    pool.EnsurePlaced(pid, slab * 16);  // both servers full
  pool.ApplyHarvest({s2.Now(), /*server=*/1, /*delta_slabs=*/-1});
  EXPECT_EQ(pool.evictions_to_disk(), 1u);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].first, 3 * 16u);  // newest slab on server 1
  EXPECT_EQ(evicted[0].second, 4 * 16u);
  EXPECT_TRUE(pool.OnDisk(pid, 3 * 16));
  // Disk-homed requests still in the fabric forward via the last home.
  EXPECT_EQ(pool.RouteAtDispatch(pid, 3 * 16), 1);
  std::string err;
  EXPECT_TRUE(pool.Audit(&err)) << err;
}

TEST(Pool, MarkServerDownEvictsEverythingItHeld) {
  sim::Simulator sim;
  ServerPool pool(sim, TwoServerPool(4));
  std::uint32_t pid = pool.RegisterPartition(16 * 8);
  int evictions = 0;
  pool.SetSlabEvictedHandler(
      [&](std::uint32_t, std::uint64_t, std::uint64_t) { ++evictions; });
  for (std::uint64_t slab = 0; slab < 6; ++slab)
    pool.EnsurePlaced(pid, slab * 16);  // 4 on ms0, 2 on ms1
  pool.MarkServerDown(0);
  EXPECT_EQ(evictions, 4);
  EXPECT_EQ(pool.servers()[0].slabs_held, 0u);
  for (std::uint64_t slab = 0; slab < 4; ++slab)
    EXPECT_TRUE(pool.OnDisk(pid, slab * 16));
  // New placements avoid the dead server.
  EXPECT_EQ(pool.EnsurePlaced(pid, 6 * 16), 1);
  pool.MarkServerUp(0);
  EXPECT_EQ(pool.EnsurePlaced(pid, 7 * 16), 0);
  std::string err;
  EXPECT_TRUE(pool.Audit(&err)) << err;
}

TEST(Pool, RebalanceTenantMovesNewestSlabsToTheEmptiestServer) {
  sim::Simulator sim;
  PoolConfig cfg = TwoServerPool(8);
  cfg.servers.push_back(Finite("ms2", 8));
  ServerPool pool(sim, cfg);
  std::uint32_t hot = pool.RegisterPartition(16 * 8);
  std::uint32_t cold = pool.RegisterPartition(16 * 8);
  // First-fit stacks everything on server 0: 1 cold slab under 4 hot ones.
  pool.EnsurePlaced(cold, 0);
  for (std::uint64_t slab = 0; slab < 4; ++slab)
    pool.EnsurePlaced(hot, slab * 16);
  ASSERT_EQ(pool.servers()[0].slabs_held, 5u);
  // Move up to 2 of the hot tenant's slabs; servers 1 and 2 are both empty,
  // so the lowest id wins the tie each round.
  EXPECT_EQ(pool.RebalanceTenant(hot, 2), 2u);
  EXPECT_EQ(pool.servers()[0].slabs_held, 3u);
  EXPECT_EQ(pool.servers()[1].slabs_held, 1u);
  EXPECT_EQ(pool.servers()[2].slabs_held, 1u);
  // Newest hot slabs moved; the cold tenant and oldest hot slab stayed.
  EXPECT_EQ(pool.HomeOf(cold, 0), 0);
  EXPECT_EQ(pool.HomeOf(hot, 0), 0);
  EXPECT_NE(pool.HomeOf(hot, 3 * 16), 0);
  EXPECT_EQ(pool.migrations(), 2u);
  std::string err;
  EXPECT_TRUE(pool.Audit(&err)) << err;
  // No remote slabs for an unknown tenant, nothing to do.
  EXPECT_EQ(pool.RebalanceTenant(99, 4), 0u);
}

TEST(Pool, RebalanceTenantStopsWhenNoServerHasRoom) {
  sim::Simulator sim;
  ServerPool pool(sim, TwoServerPool(2));
  std::uint32_t pid = pool.RegisterPartition(16 * 4);
  for (std::uint64_t slab = 0; slab < 4; ++slab)
    pool.EnsurePlaced(pid, slab * 16);  // both servers at capacity
  EXPECT_EQ(pool.RebalanceTenant(pid, 4), 0u);
  EXPECT_EQ(pool.migrations(), 0u);
  std::string err;
  EXPECT_TRUE(pool.Audit(&err)) << err;
}

// --- fault-plan server targeting --------------------------------------

TEST(FaultPlanServers, UntargetedLinesParseExactlyAsBefore) {
  auto plan = fault::FaultPlan::Parse(
      "latency 10 20 5\n"
      "stall 30 40 in\n"
      "blackout 50 60\n");
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->latency_spikes()[0].server, fault::kAllServers);
  EXPECT_EQ(plan->qp_stalls()[0].server, fault::kAllServers);
  EXPECT_EQ(plan->blackouts()[0].server, fault::kAllServers);
}

TEST(FaultPlanServers, TargetedLinesCarryTheServer) {
  auto plan = fault::FaultPlan::Parse(
      "latency 10 20 5 in server=2\n"
      "latency 10 20 5 server=1\n"
      "stall 30 40 server=0\n"
      "blackout 50 60 server=3\n");
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->latency_spikes()[0].server, 2);
  EXPECT_EQ(plan->latency_spikes()[1].server, 1);
  EXPECT_EQ(plan->qp_stalls()[0].server, 0);
  EXPECT_EQ(plan->blackouts()[0].server, 3);
}

TEST(FaultPlanServers, MalformedServerTargetIsRejected) {
  std::string err;
  EXPECT_FALSE(fault::FaultPlan::Parse("blackout 50 60 server=x", &err));
  EXPECT_NE(err.find("server"), std::string::npos);
  EXPECT_FALSE(fault::FaultPlan::Parse("blackout 50 60 server=-4", &err));
}

TEST(FaultPlanServers, ServerMatchesSemantics) {
  using fault::ServerMatches;
  EXPECT_TRUE(ServerMatches(fault::kAllServers, 3));
  EXPECT_TRUE(ServerMatches(3, fault::kAllServers));  // un-pooled request
  EXPECT_TRUE(ServerMatches(2, 2));
  EXPECT_FALSE(ServerMatches(2, 3));
}

}  // namespace
}  // namespace canvas::remote

// --- full-system tests -------------------------------------------------

namespace canvas::core {
namespace {

ExperimentSpec PooledSpec(const std::string& topology, double scale = 0.05) {
  ExperimentSpec spec;
  spec.config = *SystemConfig::FromName("canvas");
  spec.config.remote = remote::PoolConfig::FromName(topology);
  AppBuild a;
  a.name = "memcached";
  a.scale = scale;
  a.ratio = 0.25;
  a.seed = 7;
  AppBuild b = a;
  b.name = "snappy";
  spec.apps = {a, b};
  return spec;
}

std::string RunToJson(const ExperimentSpec& spec, const std::string& label) {
  Experiment exp(spec);
  EXPECT_TRUE(exp.Run());
  std::ostringstream os;
  WriteJson(os, exp.system(), label);
  return os.str();
}

TEST(RemoteSystem, TransparentSingleServerMatchesNoPoolBitForBit) {
  // The pool of one unlimited zero-cost server routes every request through
  // the pool layer yet must not move a single event: the per-app CSV (which
  // has no pool-presence section) must be byte-identical.
  ExperimentSpec pooled = PooledSpec("transparent");
  ExperimentSpec plain = pooled;
  plain.config.remote = remote::PoolConfig::FromName("single");

  Experiment pe(pooled);
  ASSERT_TRUE(pe.Run());
  Experiment qe(plain);
  ASSERT_TRUE(qe.Run());
  std::ostringstream a, b;
  WriteCsv(a, pe.system(), "x");
  WriteCsv(b, qe.system(), "x");
  EXPECT_EQ(a.str(), b.str());
  ASSERT_NE(pe.system().pool(), nullptr);
  EXPECT_EQ(qe.system().pool(), nullptr);
  EXPECT_GT(pe.system().pool()->servers()[0].requests_served, 0u);
}

TEST(RemoteSystem, PooledRunsAreDeterministic) {
  // Same seed, same topology => byte-identical full report including the
  // per-server section. Runs under the `determinism` ctest label. The
  // Linux baseline covers the shared-FIFO dispatch order over a pool.
  ExperimentSpec linux_pool2 = PooledSpec("pool2");
  linux_pool2.config = *SystemConfig::FromName("linux");
  linux_pool2.config.remote = remote::PoolConfig::FromName("pool2");
  for (const ExperimentSpec& spec : {PooledSpec("pool4-harvest"), linux_pool2})
    EXPECT_EQ(RunToJson(spec, "det"), RunToJson(spec, "det"))
        << spec.config.name;
}

TEST(RemoteSystem, HarvestChurnKeepsEveryInvariant) {
  // Tight capacity + harvesting forces migrations and disk evictions while
  // the co-run is swapping. The oracles: no stale read is ever served (a
  // migrated/evicted slab keeps its content_version), the slab tables stay
  // single-homed and conserved, and capacity is respected.
  ExperimentSpec spec = PooledSpec("pool4-harvest");
  Experiment exp(spec);
  ASSERT_TRUE(exp.Run());
  const SwapSystem& sys = exp.system();
  const remote::ServerPool* pool = sys.pool();
  ASSERT_NE(pool, nullptr);
  EXPECT_GT(pool->slabs_placed(), 0u);
  EXPECT_GT(pool->harvest_events(), 0u);
  for (std::size_t i = 0; i < sys.app_count(); ++i)
    EXPECT_EQ(sys.metrics(i).stale_reads, 0u) << sys.metrics(i).name;
  std::string err;
  EXPECT_TRUE(pool->Audit(&err)) << err;
  for (const remote::ServerState& s : pool->servers())
    EXPECT_LE(s.slabs_held, s.capacity_slabs) << s.cfg.name;
}

TEST(RemoteSystem, PerServerBlackoutFailsOverOnlyThatServer) {
  // A blackout targeting server 0 of a 2-server pool evicts its slabs to
  // the disk backend and the run still finishes with zero stale reads;
  // the co-run never takes the global failover path.
  ExperimentSpec spec = PooledSpec("pool2");
  auto plan = std::make_shared<fault::FaultPlan>();
  plan->AddBlackout(2 * kMillisecond, 10 * kMillisecond, /*server=*/0);
  spec.config.fault_plan = plan;
  Experiment exp(spec);
  ASSERT_TRUE(exp.Run());
  const SwapSystem& sys = exp.system();
  const remote::ServerPool* pool = sys.pool();
  ASSERT_NE(pool, nullptr);
  for (std::size_t i = 0; i < sys.app_count(); ++i) {
    EXPECT_EQ(sys.metrics(i).stale_reads, 0u);
    EXPECT_EQ(sys.metrics(i).failovers, 0u);  // targeted, not global
  }
  EXPECT_FALSE(pool->servers()[0].down);  // window ended -> back up
  std::string err;
  EXPECT_TRUE(pool->Audit(&err)) << err;
}

TEST(RemoteSystem, ReportCarriesTheRemoteSectionOnlyWhenPooled) {
  std::string pooled = RunToJson(PooledSpec("pool2"), "r");
  ExperimentSpec plain = PooledSpec("single");
  std::string unpooled = RunToJson(plain, "r");
  EXPECT_NE(pooled.find("\"remote\""), std::string::npos);
  EXPECT_EQ(unpooled.find("\"remote\""), std::string::npos);
}

}  // namespace
}  // namespace canvas::core
