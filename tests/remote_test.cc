// Tests for the remote memory-server pool (DESIGN.md §11): placement
// policies, harvesting-driven migration and disk eviction, the single-home
// (no-dual-residency) and capacity-conservation invariants, per-server
// fault targeting, and exact pins of the default `single` topology (a pool
// of one transparent server).
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
    out.emplace_back(Finite("ms" + std::to_string(i), capacities[i]));
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
  EXPECT_TRUE(PoolConfig::FromName("single").single());
  EXPECT_THROW(PoolConfig::FromName("transparent"), std::invalid_argument);
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
  std::uint64_t disk_in = 0, disk_out = 0, rescues = 0, dropped = 0,
                discarded = 0, exhausted = 0, reissues = 0;
  for (std::size_t i = 0; i < sys.app_count(); ++i) {
    const AppMetrics& m = sys.metrics(i);
    EXPECT_EQ(m.stale_reads, 0u);
    EXPECT_EQ(m.failovers, 0u);  // targeted, not global
    disk_in += m.disk_swapins;
    disk_out += m.disk_swapouts;
    rescues += m.rescues;
    dropped += m.prefetch_dropped;
    discarded += m.prefetch_discarded;
    exhausted += m.rdma_exhausted;
    reissues += m.demand_reissues;
  }
  // Exact routing totals after the slabs move to disk: a change to how a
  // read or writeback picks its backend moves at least one of these.
  EXPECT_EQ(pool->evictions_to_disk(), 1u);
  EXPECT_EQ(disk_in, 0u);
  EXPECT_EQ(disk_out, 0u);
  EXPECT_EQ(rescues, 0u);
  EXPECT_EQ(dropped, 0u);
  EXPECT_EQ(discarded, 0u);
  EXPECT_EQ(exhausted, 0u);
  EXPECT_EQ(reissues, 0u);
  EXPECT_FALSE(pool->servers()[0].down);  // window ended -> back up
  std::string err;
  EXPECT_TRUE(pool->Audit(&err)) << err;
}

TEST(RemoteSystem, PlansTargetingAMissingServerAreRejected) {
  auto plan_for = [](int server) {
    auto plan = std::make_shared<fault::FaultPlan>();
    plan->AddBlackout(2 * kMillisecond, 10 * kMillisecond, server);
    return plan;
  };
  ExperimentSpec pool4 = PooledSpec("pool4");
  pool4.config.fault_plan = plan_for(4);
  try {
    Experiment exp(pool4);
    ADD_FAILURE() << "server=4 on pool4 was accepted";
  } catch (const std::invalid_argument& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("blackout 2000 10000 server=4"), std::string::npos)
        << what;
    EXPECT_NE(what.find("has 4"), std::string::npos) << what;
  }
  ExperimentSpec single = PooledSpec("single");
  single.config.fault_plan = plan_for(1);
  EXPECT_THROW(Experiment{single}, std::invalid_argument);
  auto stall = std::make_shared<fault::FaultPlan>();
  stall->AddQpStall(0, kMillisecond, fault::kBothDirections, /*server=*/2);
  single.config.fault_plan = stall;
  EXPECT_THROW(Experiment{single}, std::invalid_argument);
}

TEST(RemoteSystem, SingleServerZeroBlackoutEvictsItsSlabsToDisk) {
  // On `single`, server=0 names the sole transparent server: a targeted
  // blackout downs it and moves every slab it holds to disk.
  ExperimentSpec spec = PooledSpec("single");
  auto plan = std::make_shared<fault::FaultPlan>();
  plan->AddBlackout(2 * kMillisecond, 10 * kMillisecond, /*server=*/0);
  spec.config.fault_plan = plan;
  Experiment exp(spec);
  ASSERT_TRUE(exp.Run());
  const SwapSystem& sys = exp.system();
  EXPECT_GT(sys.pool()->evictions_to_disk(), 0u);
  std::uint64_t disk_in = 0;
  for (std::size_t i = 0; i < sys.app_count(); ++i) {
    EXPECT_EQ(sys.metrics(i).stale_reads, 0u);
    disk_in += sys.metrics(i).disk_swapins;
  }
  EXPECT_GT(disk_in, 0u);
  std::string err;
  EXPECT_TRUE(sys.pool()->Audit(&err)) << err;
}

// Prefetches issued inside a [2, 10) ms blackout of `server` on pool4.
std::uint64_t PrefetchesDuringBlackout(int server) {
  ExperimentSpec spec = PooledSpec("pool4");
  auto plan = std::make_shared<fault::FaultPlan>();
  plan->AddBlackout(2 * kMillisecond, 10 * kMillisecond, server);
  spec.config.fault_plan = plan;
  spec.config.trace.enabled = true;
  spec.config.trace.sampler = false;
  spec.config.trace.ring_capacity = std::size_t(1) << 20;
  Experiment exp(spec);
  EXPECT_TRUE(exp.Run());
  const trace::TraceBuffer& buf = exp.system().tracer().buffer();
  EXPECT_EQ(buf.dropped(), 0u);
  std::uint64_t issued = 0;
  buf.ForEach([&](const trace::TraceRecord& r) {
    if (r.name == trace::Name::kPrefetchIssue && r.ts >= 2 * kMillisecond &&
        r.ts < 10 * kMillisecond)
      ++issued;
  });
  return issued;
}

TEST(RemoteSystem, TargetedBlackoutLeavesPrefetchingOn) {
  // Server 0's pages go disk-backed and prefetch skips them; the other
  // servers keep serving speculative reads. Only a fabric-wide blackout
  // pauses prefetching.
  EXPECT_GT(PrefetchesDuringBlackout(0), 0u);
  EXPECT_EQ(PrefetchesDuringBlackout(fault::kAllServers), 0u);
}

// Exact outcome of a small default-topology co-run: a change to how the
// `single` topology routes a request moves at least one of these.
struct Pin {
  std::uint64_t events, faults, majors, swapouts;
  SimTime makespan;
  bool operator==(const Pin&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Pin& p) {
  return os << "{" << p.events << ", " << p.faults << ", " << p.majors
            << ", " << p.swapouts << ", " << p.makespan << "}";
}

Pin RunPinned(const std::string& system,
              std::shared_ptr<const fault::FaultPlan> plan = nullptr) {
  ExperimentSpec spec = PooledSpec("single");
  spec.config = *SystemConfig::FromName(system);
  spec.config.fault_plan = std::move(plan);
  Experiment exp(spec);
  EXPECT_TRUE(exp.Run()) << system;
  Pin pin{exp.simulator().events_executed(), 0, 0, 0, 0};
  for (std::size_t i = 0; i < exp.system().app_count(); ++i) {
    const AppMetrics& m = exp.system().metrics(i);
    pin.faults += m.faults;
    pin.majors += m.faults_major;
    pin.swapouts += m.swapouts;
    pin.makespan = std::max(pin.makespan, m.finish_time);
  }
  return pin;
}

TEST(RemoteSystem, SingleTopologyRunsArePinnedPerPreset) {
  const std::vector<std::pair<std::string, Pin>> pins = {
      {"linux", {39003, 3050, 611, 4241, 7035970}},
      {"infiniswap", {34807, 3022, 693, 4208, 36542067}},
      {"leap", {35835, 3101, 540, 4349, 47160000}},
      {"fastswap", {39003, 3050, 611, 4241, 7035970}},
      {"isolation", {38664, 3050, 606, 4176, 5808815}},
      {"canvas", {35178, 3043, 600, 3468, 5443002}},
  };
  ASSERT_EQ(pins.size(), SystemConfig::ListPresets().size());
  for (const auto& [system, pin] : pins)
    EXPECT_EQ(RunPinned(system), pin) << system;
}

TEST(RemoteSystem, SingleTopologyIsPinnedUnderEveryUntargetedFaultKind) {
  auto plan = std::make_shared<fault::FaultPlan>();
  plan->AddLatencySpike(1 * kMillisecond, 3 * kMillisecond, 20 * kMicrosecond)
      .AddBandwidthDegrade(2 * kMillisecond, 5 * kMillisecond, 0.5)
      .AddErrorBurst(3 * kMillisecond, 6 * kMillisecond, 0.2)
      .AddQpStall(4 * kMillisecond, 4 * kMillisecond + 300 * kMicrosecond)
      .AddBlackout(6 * kMillisecond, 8 * kMillisecond);
  EXPECT_EQ(RunPinned("canvas", plan),
            (Pin{36167, 3046, 671, 3475, 11495810}));
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
