// Remote memory-server pool benchmark (DESIGN.md §11).
//
// Runs the same co-run against a 4-server pool under harvest churn once
// per placement policy (first-fit, round-robin, power-of-two-choices),
// each twice with the same seed to prove the pooled path is deterministic
// (byte-identical reports), and writes BENCH_remote.json.
//
// The headline comparison is placement imbalance: first-fit piles slabs
// onto the lowest-numbered server until harvesting forces them off, while
// p2c spreads load by sampling two servers and picking the emptier — the
// Infiniswap-vs-power-of-two-choices placement argument, measured as
// peak-occupancy imbalance (1.0 = perfectly even).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/report.h"
#include "fault/fault_plan.h"
#include "remote/pool.h"
#include "tier/tier.h"

using namespace canvas;
using namespace canvas::bench;

namespace {

struct PolicyResult {
  std::string policy;
  SimTime makespan = 0;
  std::uint64_t slabs_placed = 0;
  std::uint64_t migrations = 0;
  std::uint64_t evictions_to_disk = 0;
  std::uint64_t harvest_events = 0;
  std::uint64_t unplaceable = 0;
  double peak_imbalance = 0;
  double occupancy_cv = 0;
  std::uint64_t stale_reads = 0;
  std::uint64_t disk_reads = 0;
  bool deterministic = false;
  bool audit_ok = false;
};

remote::PoolConfig MakePool(remote::PlacementKind policy,
                            std::uint64_t total_entries) {
  remote::PoolConfig pool;
  pool.topology = "bench-pool4-harvest";
  pool.placement = policy;
  pool.slab_entries = 512;
  // Each server can hold ~3/4 of the co-run's slabs: big enough that the
  // pool never saturates as a whole (imbalance stays a policy property,
  // not a capacity artifact), small enough that first-fit's pile-up on the
  // lowest server collides with harvesting and has to shuffle live slabs.
  std::uint64_t total_slabs =
      (total_entries + pool.slab_entries - 1) / pool.slab_entries;
  std::uint64_t per_server = std::max<std::uint64_t>(3, total_slabs * 3 / 4);
  for (int s = 0; s < 4; ++s) {
    remote::ServerConfig sc;
    sc.name = "ms" + std::to_string(s);
    sc.capacity_slabs = per_server;
    sc.bandwidth_bytes_per_sec = 4.8e9;
    sc.base_latency = 1 * kMicrosecond;
    sc.congestion_per_inflight = 150;
    sc.congestion_cap = 20 * kMicrosecond;
    pool.servers.push_back(sc);
  }
  pool.harvest.period = 2 * kMillisecond;
  pool.harvest.jitter_frac = 0.25;
  pool.harvest.slabs = 3;
  pool.harvest.hold = 10 * kMillisecond;
  return pool;
}

PolicyResult RunPolicy(remote::PlacementKind policy, double scale,
                       std::uint64_t seed) {
  PolicyResult out;
  out.policy = remote::PlacementKindName(policy);

  core::ExperimentSpec spec;
  spec.config = *core::SystemConfig::FromName("canvas");
  spec.apps = {Build("memcached", scale, 0.25, 0, seed),
               Build("snappy", scale, 0.25, 0, seed)};
  std::uint64_t total_entries = 0;
  for (const core::AppSpec& a : core::BuildApps(spec.apps))
    total_entries += a.cgroup.swap_entry_limit;
  spec.config.remote = MakePool(policy, total_entries);

  std::string first_report;
  for (int rep = 0; rep < 2; ++rep) {
    core::Experiment exp(spec);
    exp.Run();
    std::ostringstream os;
    core::WriteJson(os, exp.system(), out.policy);
    if (rep == 0) {
      first_report = os.str();
      const core::SwapSystem& sys = exp.system();
      const remote::ServerPool* pool = sys.pool();
      for (std::size_t i = 0; i < sys.app_count(); ++i) {
        out.makespan = std::max(out.makespan, sys.metrics(i).finish_time);
        out.stale_reads += sys.metrics(i).stale_reads;
      }
      out.slabs_placed = pool->slabs_placed();
      out.migrations = pool->migrations();
      out.evictions_to_disk = pool->evictions_to_disk();
      out.harvest_events = pool->harvest_events();
      out.unplaceable = pool->unplaceable();
      out.peak_imbalance = pool->PeakImbalance();
      out.occupancy_cv = pool->OccupancyCV();
      out.disk_reads = sys.disk()->reads();
      std::string err;
      out.audit_ok = pool->Audit(&err);
      if (!out.audit_ok)
        std::fprintf(stderr, "AUDIT FAILED (%s): %s\n", out.policy.c_str(),
                     err.c_str());
    } else {
      out.deterministic = os.str() == first_report;
    }
  }
  return out;
}

// --- tiered-topology comparison (DESIGN.md §14) ---
//
// The same pool4-harvest co-run (p2c placement) under a mid-run fabric
// blackout, once per local-tier preset. Without a tier the blackout fails
// cgroups over to the disk backstop; with a CXL/NVM tier the tier becomes
// the first failover stop and absorbs the traffic at device latencies
// orders of magnitude below the disk. The hard check compares the p99
// device service latency of the failover target: tier p99 must be
// strictly below the disk p99 measured on the untiered run.

struct TierResult {
  std::string tier;
  SimTime makespan = 0;
  std::uint64_t failovers = 0;       // all remote -> local transitions
  std::uint64_t tier_failovers = 0;  // remote -> tier transitions
  std::uint64_t tier_swapins = 0;
  std::uint64_t tier_swapouts = 0;
  std::uint64_t tier_rejects = 0;
  std::uint64_t disk_reads = 0;
  std::uint64_t disk_writes = 0;
  std::uint64_t stale_reads = 0;
  /// Device latency (ns) of the failover target: the tier when one is
  /// configured, the disk backstop otherwise. p99 on a bursty run includes
  /// queueing behind the whole writeback stream, so p50 is the robust
  /// service-latency comparison and p99 the tail view.
  std::uint64_t failover_p50_ns = 0;
  std::uint64_t failover_p99_ns = 0;
  bool deterministic = false;
};

TierResult RunTiered(const std::string& tier_name, double scale,
                     std::uint64_t seed) {
  TierResult out;
  out.tier = tier_name;

  core::ExperimentSpec spec;
  spec.config = *core::SystemConfig::FromName("canvas");
  spec.apps = {Build("memcached", scale, 0.25, 0, seed),
               Build("snappy", scale, 0.25, 0, seed)};
  std::uint64_t total_entries = 0;
  for (const core::AppSpec& a : core::BuildApps(spec.apps))
    total_entries += a.cgroup.swap_entry_limit;
  spec.config.remote =
      MakePool(remote::PlacementKind::kPowerOfTwo, total_entries);
  spec.config.tier = tier::TierConfig::FromName(tier_name);
  // Full-fabric blackout long enough to exhaust demand retries and force
  // every cgroup off the remote backend.
  auto plan = std::make_shared<fault::FaultPlan>();
  plan->AddBlackout(2 * kMillisecond, 12 * kMillisecond);
  spec.config.fault_plan = plan;

  std::string first_report;
  for (int rep = 0; rep < 2; ++rep) {
    core::Experiment exp(spec);
    exp.Run();
    std::ostringstream os;
    core::WriteJson(os, exp.system(), out.tier);
    if (rep == 0) {
      first_report = os.str();
      const core::SwapSystem& sys = exp.system();
      for (std::size_t i = 0; i < sys.app_count(); ++i) {
        const core::AppMetrics& m = sys.metrics(i);
        out.makespan = std::max(out.makespan, m.finish_time);
        out.failovers += m.failovers;
        out.tier_failovers += m.tier_failovers;
        out.tier_swapins += m.tier_swapins;
        out.tier_swapouts += m.tier_swapouts;
        out.tier_rejects += m.tier_rejects;
        out.stale_reads += m.stale_reads;
      }
      out.disk_reads = sys.disk()->reads();
      out.disk_writes = sys.disk()->writes();
      const trace::LogHistogram& target =
          (sys.tier() ? &sys.tier()->device() : sys.disk())->latency();
      out.failover_p50_ns = target.Percentile(50);
      out.failover_p99_ns = target.Percentile(99);
    } else {
      out.deterministic = os.str() == first_report;
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  double scale = ScaleFromEnv(quick ? 0.05 : 0.12);
  std::uint64_t seed = SeedFromEnv();
  const char* env = std::getenv("CANVAS_REMOTE_JSON");
  std::string json_path = env ? env : "BENCH_remote.json";

  PrintBanner("Remote server pool: placement policies under harvest churn");

  std::vector<PolicyResult> rows;
  for (auto policy :
       {remote::PlacementKind::kFirstFit, remote::PlacementKind::kRoundRobin,
        remote::PlacementKind::kPowerOfTwo})
    rows.push_back(RunPolicy(policy, scale, seed));

  TablePrinter t({"policy", "makespan", "slabs", "migrations", "to-disk",
                  "harvests", "imbalance", "occ-cv", "stale", "det"});
  for (const PolicyResult& r : rows)
    t.AddRow({r.policy, FormatTime(r.makespan),
              std::to_string(r.slabs_placed), std::to_string(r.migrations),
              std::to_string(r.evictions_to_disk),
              std::to_string(r.harvest_events),
              TablePrinter::Num(r.peak_imbalance, 3),
              TablePrinter::Num(r.occupancy_cv, 3),
              std::to_string(r.stale_reads), r.deterministic ? "yes" : "NO"});
  t.Print();

  const PolicyResult& ff = rows[0];
  const PolicyResult& p2c = rows[2];
  bool p2c_imbalance_below_first_fit =
      p2c.peak_imbalance < ff.peak_imbalance;
  bool all_ok = p2c_imbalance_below_first_fit;
  for (const PolicyResult& r : rows)
    all_ok = all_ok && r.deterministic && r.audit_ok && r.stale_reads == 0 &&
             r.harvest_events > 0;
  std::printf("p2c imbalance %.3f vs first-fit %.3f -> %s\n",
              p2c.peak_imbalance, ff.peak_imbalance,
              p2c_imbalance_below_first_fit ? "p2c imbalance below first-fit"
                                            : "NO IMPROVEMENT");

  PrintBanner("Tiered topology: blackout failover target (disk vs local tier)");

  std::vector<TierResult> trows;
  for (const std::string& tn : {std::string("none"), std::string("cxl"),
                                std::string("nvm")})
    trows.push_back(RunTiered(tn, scale, seed));

  TablePrinter tt({"tier", "makespan", "failovers", "tier-fo", "tier-in",
                   "tier-out", "disk-rd", "fo-p50", "fo-p99", "stale",
                   "det"});
  for (const TierResult& r : trows)
    tt.AddRow({r.tier, FormatTime(r.makespan), std::to_string(r.failovers),
               std::to_string(r.tier_failovers),
               std::to_string(r.tier_swapins),
               std::to_string(r.tier_swapouts), std::to_string(r.disk_reads),
               FormatTime(r.failover_p50_ns), FormatTime(r.failover_p99_ns),
               std::to_string(r.stale_reads), r.deterministic ? "yes" : "NO"});
  tt.Print();

  // Hard checks: the untiered run must actually fail over to the disk;
  // every tiered run must fail over to the tier instead, with median
  // failover service latency strictly below the disk's AND a shorter
  // makespan; the DRAM-class cxl tier must beat the disk at the tail too
  // (the nvm preset's p99 legitimately includes media queueing under the
  // blackout burst).
  const TierResult& untiered = trows[0];
  bool tier_beats_disk =
      untiered.failovers > 0 && untiered.failover_p50_ns > 0;
  for (std::size_t i = 1; i < trows.size(); ++i) {
    const TierResult& r = trows[i];
    tier_beats_disk = tier_beats_disk && r.tier_failovers > 0 &&
                      r.failover_p50_ns < untiered.failover_p50_ns &&
                      r.makespan < untiered.makespan;
  }
  tier_beats_disk =
      tier_beats_disk && trows[1].failover_p99_ns < untiered.failover_p99_ns;
  for (const TierResult& r : trows)
    all_ok = all_ok && r.deterministic && r.stale_reads == 0;
  all_ok = all_ok && tier_beats_disk;
  std::printf("blackout failover p50: disk %llu ns vs cxl %llu ns, "
              "nvm %llu ns -> %s\n",
              (unsigned long long)untiered.failover_p50_ns,
              (unsigned long long)trows[1].failover_p50_ns,
              (unsigned long long)trows[2].failover_p50_ns,
              tier_beats_disk ? "tier beats disk" : "NO IMPROVEMENT");

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  // The file carries tier points, so it advertises the tier schema — a
  // parser keyed to v2 must fail loudly rather than miss the new section.
  std::fprintf(f, "  \"schema_version\": %d,\n",
               core::kTierReportSchemaVersion);
  std::fprintf(f, "  \"benchmark\": \"remote_pool\",\n");
  std::fprintf(f, "  \"scale\": %.3f,\n", scale);
  std::fprintf(f, "  \"seed\": %llu,\n", (unsigned long long)seed);
  std::fprintf(f, "  \"servers\": 4,\n");
  std::fprintf(f, "  \"p2c_imbalance_below_first_fit\": %s,\n",
               p2c_imbalance_below_first_fit ? "true" : "false");
  std::fprintf(f, "  \"tier_beats_disk\": %s,\n",
               tier_beats_disk ? "true" : "false");
  std::fprintf(f, "  \"policies\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const PolicyResult& r = rows[i];
    std::fprintf(
        f,
        "    {\"policy\": \"%s\", \"makespan_ns\": %llu, "
        "\"slabs_placed\": %llu, \"migrations\": %llu, "
        "\"evictions_to_disk\": %llu, \"harvest_events\": %llu, "
        "\"unplaceable\": %llu, \"peak_imbalance\": %.6f, "
        "\"occupancy_cv\": %.6f, \"stale_reads\": %llu, "
        "\"disk_reads\": %llu, \"deterministic\": %s, \"audit_ok\": %s}%s\n",
        r.policy.c_str(), (unsigned long long)r.makespan,
        (unsigned long long)r.slabs_placed, (unsigned long long)r.migrations,
        (unsigned long long)r.evictions_to_disk,
        (unsigned long long)r.harvest_events,
        (unsigned long long)r.unplaceable, r.peak_imbalance, r.occupancy_cv,
        (unsigned long long)r.stale_reads, (unsigned long long)r.disk_reads,
        r.deterministic ? "true" : "false", r.audit_ok ? "true" : "false",
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"tiered\": [\n");
  for (std::size_t i = 0; i < trows.size(); ++i) {
    const TierResult& r = trows[i];
    std::fprintf(
        f,
        "    {\"tier\": \"%s\", \"makespan_ns\": %llu, "
        "\"failovers\": %llu, \"tier_failovers\": %llu, "
        "\"tier_swapins\": %llu, \"tier_swapouts\": %llu, "
        "\"tier_rejects\": %llu, \"disk_reads\": %llu, "
        "\"disk_writes\": %llu, \"failover_p50_ns\": %llu, "
        "\"failover_p99_ns\": %llu, "
        "\"stale_reads\": %llu, \"deterministic\": %s}%s\n",
        r.tier.c_str(), (unsigned long long)r.makespan,
        (unsigned long long)r.failovers,
        (unsigned long long)r.tier_failovers,
        (unsigned long long)r.tier_swapins,
        (unsigned long long)r.tier_swapouts,
        (unsigned long long)r.tier_rejects,
        (unsigned long long)r.disk_reads, (unsigned long long)r.disk_writes,
        (unsigned long long)r.failover_p50_ns,
        (unsigned long long)r.failover_p99_ns,
        (unsigned long long)r.stale_reads,
        r.deterministic ? "true" : "false",
        i + 1 < trows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());
  return all_ok ? 0 : 1;
}
