#include "core/report.h"

#include "common/run.h"

namespace canvas::core {

namespace {

const char* kCsvHeader =
    "label,app,finish_ns,accesses,faults,faults_major,faults_minor,"
    "minor_prefetched,first_touches,prefetch_issued,prefetch_completed,"
    "prefetch_used,prefetch_wasted,prefetch_dropped,prefetch_discarded,"
    "rescues,swapouts,clean_drops,allocations,lockfree_swapouts,"
    "alloc_time_ns,busy_time_ns,fault_stall_ns,contribution_pct,"
    "accuracy_pct,ingress_bytes,egress_bytes,"
    // Fault-recovery columns are always emitted (all zero on healthy runs)
    // so a zero-fault plan produces byte-identical output to no plan.
    "rdma_exhausted,demand_reissues,failovers,failbacks,disk_swapins,"
    "disk_swapouts,stale_reads,"
    // Per-cgroup fault-stall latency percentiles (DESIGN.md §9). Sourced
    // from the always-on log-bucketed histogram, so the columns are
    // byte-identical whether or not the trace ring is enabled.
    "fault_p50_ns,fault_p90_ns,fault_p99_ns,fault_p999_ns";

// Appended to the header only under schema v3 (tier enabled) — v2 output
// must stay byte-identical to pre-tier builds.
const char* kTierCsvColumns =
    ",tier_swapins,tier_swapouts,tier_rejects,tier_failovers,tier_p50_ns,"
    "tier_p99_ns";

// Appended only under schema v5 (object subsystem active) — see
// kObjectReportSchemaVersion.
const char* kObjectCsvColumns =
    ",behaviours_declared,behaviours_dispatched,behaviours_completed,"
    "object_fetches,object_fetch_hits,object_pins,object_unpins,"
    "object_stale_handles,behaviour_deferrals,behaviour_stall_ns";

/// One CSV metrics row (shared by live and retired tenants; the latter pass
/// their ledger-recorded NIC byte totals).
void CsvRow(std::ostream& os, const std::string& label, const AppMetrics& m,
            double ingress_bytes, double egress_bytes, bool tiered,
            bool objects) {
  os << label << ',' << m.name << ',' << m.finish_time << ','
       << m.accesses << ',' << m.faults << ',' << m.faults_major << ','
       << m.faults_minor << ',' << m.faults_minor_prefetched << ','
       << m.first_touches << ',' << m.prefetch_issued << ','
       << m.prefetch_completed << ',' << m.prefetch_used << ','
       << m.prefetch_wasted << ',' << m.prefetch_dropped << ','
       << m.prefetch_discarded << ',' << m.rescues << ',' << m.swapouts
       << ',' << m.clean_drops << ',' << m.allocations << ','
       << m.lockfree_swapouts << ',' << m.alloc_time << ',' << m.busy_time
       << ',' << m.fault_stall << ',' << m.ContributionPct() << ','
       << m.AccuracyPct() << ','
       << ingress_bytes << ',' << egress_bytes << ','
       << m.rdma_exhausted << ',' << m.demand_reissues << ','
       << m.failovers << ',' << m.failbacks << ',' << m.disk_swapins << ','
       << m.disk_swapouts << ',' << m.stale_reads << ','
       << m.fault_latency.Percentile(50) << ','
       << m.fault_latency.Percentile(90) << ','
       << m.fault_latency.Percentile(99) << ','
       << m.fault_latency.Percentile(99.9);
    if (tiered)
      os << ',' << m.tier_swapins << ',' << m.tier_swapouts << ','
         << m.tier_rejects << ',' << m.tier_failovers << ','
         << m.tier_latency.Percentile(50) << ','
         << m.tier_latency.Percentile(99);
    if (objects)
      os << ',' << m.behaviours_declared << ',' << m.behaviours_dispatched
         << ',' << m.behaviours_completed << ',' << m.object_fetches << ','
         << m.object_fetch_hits << ',' << m.object_pins << ','
         << m.object_unpins << ',' << m.object_stale_handles << ','
         << m.behaviour_deferrals << ',' << m.behaviour_stall;
    os << '\n';
}

int SchemaVersionFor(const SwapSystem& system) {
  if (system.objects_active()) return kObjectReportSchemaVersion;
  if (system.lifecycle_active()) return kChurnReportSchemaVersion;
  return system.tier() ? kTierReportSchemaVersion : kReportSchemaVersion;
}

}  // namespace

void WriteCsv(std::ostream& os, const SwapSystem& system,
              const std::string& label, bool header) {
  bool tiered = system.tier() != nullptr;
  bool objects = system.objects_active();
  if (header) {
    os << "# schema: v" << SchemaVersionFor(system) << '\n' << kCsvHeader;
    if (tiered) os << kTierCsvColumns;
    if (objects) os << kObjectCsvColumns;
    os << '\n';
  }
  for (std::size_t i = 0; i < system.app_count(); ++i) {
    if (!system.app_alive(i)) continue;  // reaped or shared-cgroup slot
    CgroupId cg = system.cgroup_of(i);
    CsvRow(os, label, system.metrics(i),
           system.nic().cgroup_bytes(cg, rdma::Direction::kIngress),
           system.nic().cgroup_bytes(cg, rdma::Direction::kEgress), tiered,
           objects);
  }
  // Retired tenants that saw traffic ride along (schema v4); idle arrivals
  // are elided to keep thousand-tenant churn reports bounded by work done.
  for (const RetiredAppRecord& r : system.retired())
    if (r.metrics.accesses > 0)
      CsvRow(os, label, r.metrics, r.ingress_bytes, r.egress_bytes, tiered,
             objects);
}

void WriteJson(std::ostream& os, const SwapSystem& system,
               const std::string& label) {
  os << "{\n  \"schema_version\": " << SchemaVersionFor(system)
     << ",\n"
     << "  \"label\": \"" << JsonEscape(label) << "\",\n"
     << "  \"system\": \"" << JsonEscape(system.config().name) << "\",\n"
     << "  \"wmmr_ingress\": "
     << system.Wmmr(rdma::Direction::kIngress) << ",\n"
     << "  \"scheduler_drops\": " << system.scheduler().drops() << ",\n"
     << "  \"rdma\": {\n"
     << "    \"ingress_mean_Bps\": "
     << system.nic().mean_rate(rdma::Direction::kIngress)
     << ",\n    \"egress_mean_Bps\": "
     << system.nic().mean_rate(rdma::Direction::kEgress)
     << ",\n    \"demand_p50_ns\": "
     << system.nic().latency(rdma::Op::kDemandIn).Percentile(50)
     << ",\n    \"demand_p99_ns\": "
     << system.nic().latency(rdma::Op::kDemandIn).Percentile(99)
     << ",\n    \"prefetch_p50_ns\": "
     << system.nic().latency(rdma::Op::kPrefetchIn).Percentile(50)
     << ",\n    \"prefetch_p99_ns\": "
     << system.nic().latency(rdma::Op::kPrefetchIn).Percentile(99)
     << "\n  },\n  \"fault\": {\n"
     << "    \"retries\": " << system.nic().retries()
     << ",\n    \"timeouts\": " << system.nic().timeouts()
     << ",\n    \"cqe_errors\": " << system.nic().cqe_errors()
     << ",\n    \"exhausted\": " << system.nic().exhausted()
     << ",\n    \"disk_reads\": "
     << system.disk()->reads()
     << ",\n    \"disk_writes\": "
     << system.disk()->writes()
     << "\n  },\n";
  // Fault-stall latency distribution merged across all cgroups (the
  // LogHistogram merge is exact, so this equals a histogram of every fault
  // episode in the co-run).
  trace::LogHistogram merged;
  for (std::size_t i = 0; i < system.app_count(); ++i)
    if (system.app_alive(i)) merged.Merge(system.metrics(i).fault_latency);
  for (const RetiredAppRecord& r : system.retired())
    merged.Merge(r.metrics.fault_latency);
  os << "  \"fault_latency\": {\n"
     << "    \"count\": " << merged.count()
     << ",\n    \"p50_ns\": " << merged.Percentile(50)
     << ",\n    \"p90_ns\": " << merged.Percentile(90)
     << ",\n    \"p99_ns\": " << merged.Percentile(99)
     << ",\n    \"p999_ns\": " << merged.Percentile(99.9)
     << ",\n    \"max_ns\": " << merged.max()
     << "\n  },\n";
  // Server-pool section for every topology but the default `single` one,
  // whose output stays byte-identical to pre-pool builds.
  if (const remote::ServerPool* pool = system.pool();
      !pool->config().single()) {
    os << "  \"remote\": {\n"
       << "    \"topology\": \"" << JsonEscape(pool->config().topology)
       << "\",\n    \"placement\": \""
       << remote::PlacementKindName(pool->config().placement)
       << "\",\n    \"slabs_placed\": " << pool->slabs_placed()
       << ",\n    \"migrations\": " << pool->migrations()
       << ",\n    \"evictions_to_disk\": " << pool->evictions_to_disk()
       << ",\n    \"harvest_events\": " << pool->harvest_events()
       << ",\n    \"unplaceable\": " << pool->unplaceable()
       << ",\n    \"peak_imbalance\": " << pool->PeakImbalance()
       << ",\n    \"occupancy_cv\": " << pool->OccupancyCV()
       << ",\n    \"servers\": [\n";
    const auto& servers = pool->servers();
    for (std::size_t s = 0; s < servers.size(); ++s) {
      const remote::ServerState& sv = servers[s];
      os << "      {\"name\": \"" << JsonEscape(sv.cfg.name)
         << "\", \"slabs_held\": " << sv.slabs_held
         << ", \"peak_slabs_held\": " << sv.peak_slabs_held
         << ", \"peak_inflight\": " << sv.peak_inflight
         << ", \"requests_served\": " << sv.requests_served
         << ", \"ingress_bytes\": " << sv.bytes[0]
         << ", \"egress_bytes\": " << sv.bytes[1]
         << ", \"slabs_harvested\": " << sv.slabs_harvested
         << ", \"migrations_out\": " << sv.migrations_out
         << ", \"migrations_in\": " << sv.migrations_in
         << ", \"down\": " << (sv.down ? "true" : "false") << "}"
         << (s + 1 < servers.size() ? ",\n" : "\n");
    }
    os << "    ]\n  },\n";
  }
  // Tier section only when the hybrid local tier is enabled — default
  // (tier-off) output stays byte-identical to pre-tier builds.
  if (const tier::TierBackend* t = system.tier()) {
    trace::LogHistogram tier_merged;
    std::uint64_t tier_failovers = 0;
    for (std::size_t i = 0; i < system.app_count(); ++i) {
      if (!system.app_alive(i)) continue;
      const AppMetrics& m = system.metrics(i);
      tier_merged.Merge(m.tier_latency);
      tier_failovers += m.tier_failovers;
    }
    for (const RetiredAppRecord& r : system.retired()) {
      tier_merged.Merge(r.metrics.tier_latency);
      tier_failovers += r.metrics.tier_failovers;
    }
    const fault::LocalDevice& dev = t->device();
    os << "  \"tier\": {\n"
       << "    \"preset\": \"" << JsonEscape(t->config().name)
       << "\",\n    \"capacity_pages\": " << t->config().capacity_pages
       << ",\n    \"used_pages\": " << t->used_pages()
       << ",\n    \"peak_used_pages\": " << t->peak_used()
       << ",\n    \"cgroup_quota_pages\": " << t->quota()
       << ",\n    \"reads\": " << dev.reads()
       << ",\n    \"writes\": " << dev.writes()
       << ",\n    \"admits\": " << t->admits()
       << ",\n    \"releases\": " << t->releases()
       << ",\n    \"rejects\": " << t->rejects()
       << ",\n    \"failovers\": " << tier_failovers
       << ",\n    \"fetch_p50_ns\": " << tier_merged.Percentile(50)
       << ",\n    \"fetch_p99_ns\": " << tier_merged.Percentile(99)
       << ",\n    \"device_p50_ns\": " << dev.latency().Percentile(50)
       << ",\n    \"device_p99_ns\": " << dev.latency().Percentile(99)
       << "\n  },\n";
  }
  // Object-granularity section (schema v5): present only when the
  // cooperative subsystem attached to at least one tenant, so registry-off
  // reports stay byte-identical.
  if (system.objects_active()) {
    AppMetrics agg;
    auto fold = [&agg](const AppMetrics& m) {
      agg.behaviours_declared += m.behaviours_declared;
      agg.behaviours_dispatched += m.behaviours_dispatched;
      agg.behaviours_completed += m.behaviours_completed;
      agg.object_fetches += m.object_fetches;
      agg.object_fetch_hits += m.object_fetch_hits;
      agg.object_pins += m.object_pins;
      agg.object_unpins += m.object_unpins;
      agg.object_stale_handles += m.object_stale_handles;
      agg.behaviour_deferrals += m.behaviour_deferrals;
      agg.behaviour_stall += m.behaviour_stall;
    };
    for (std::size_t i = 0; i < system.app_count(); ++i)
      if (system.app_alive(i)) fold(system.metrics(i));
    for (const RetiredAppRecord& r : system.retired()) fold(r.metrics);
    os << "  \"objects\": {\n"
       << "    \"lookahead\": " << object::BehaviourScheduler::kLookahead
       << ",\n    \"behaviours_declared\": " << agg.behaviours_declared
       << ",\n    \"behaviours_dispatched\": " << agg.behaviours_dispatched
       << ",\n    \"behaviours_completed\": " << agg.behaviours_completed
       << ",\n    \"object_fetches\": " << agg.object_fetches
       << ",\n    \"object_fetch_hits\": " << agg.object_fetch_hits
       << ",\n    \"object_pins\": " << agg.object_pins
       << ",\n    \"object_unpins\": " << agg.object_unpins
       << ",\n    \"object_stale_handles\": " << agg.object_stale_handles
       << ",\n    \"behaviour_deferrals\": " << agg.behaviour_deferrals
       << ",\n    \"behaviour_stall_ns\": " << agg.behaviour_stall;
    if (const prefetch::TwoTierPrefetcher* tt = system.two_tier())
      os << ",\n    \"cooperative_batches\": " << tt->cooperative_batches()
         << ",\n    \"cooperative_pages\": " << tt->cooperative_pages();
    os << "\n  },\n";
  }
  // Tenant lifecycle section (schema v4): present only when churn touched
  // the run, so classic fixed-tenant reports stay byte-identical.
  if (system.lifecycle_active()) {
    os << "  \"lifecycle\": {\n"
       << "    \"tenants_admitted\": "
       << system.active_app_count() + system.retired_count()
       << ",\n    \"active\": " << system.active_app_count()
       << ",\n    \"active_high_water\": " << system.active_high_water()
       << ",\n    \"pending_retirements\": "
       << system.pending_retirements()
       << ",\n    \"retired\": " << system.retired_count()
       << ",\n    \"registry_slots\": " << system.cgroups().size()
       << ",\n    \"registry_retired_total\": "
       << system.cgroups().retired_total();
    if (const remote::ServerPool* pool = system.pool();
        !pool->config().single())
      os << ",\n    \"partitions_released\": "
         << pool->partitions_released()
         << ",\n    \"slabs_released\": " << pool->slabs_released()
         << ",\n    \"control_ticks\": " << pool->control_ticks()
         << ",\n    \"control_harvests\": " << pool->control_harvests()
         << ",\n    \"control_returns\": " << pool->control_returns()
         << ",\n    \"occupancy_ewma\": " << pool->occupancy_ewma();
    os << "\n  },\n";
  }
  os << "  \"apps\": [\n";
  std::vector<std::size_t> live;
  for (std::size_t i = 0; i < system.app_count(); ++i)
    if (system.app_alive(i)) live.push_back(i);
  for (std::size_t n = 0; n < live.size(); ++n) {
    const AppMetrics& m = system.metrics(live[n]);
    os << "    {\"name\": \"" << JsonEscape(m.name) << "\", \"finish_ns\": "
       << m.finish_time << ", \"faults\": " << m.faults
       << ", \"faults_major\": " << m.faults_major
       << ", \"swapouts\": " << m.swapouts
       << ", \"allocations\": " << m.allocations
       << ", \"lockfree_swapouts\": " << m.lockfree_swapouts
       << ", \"prefetch_issued\": " << m.prefetch_issued
       << ", \"prefetch_used\": " << m.prefetch_used
       << ", \"contribution_pct\": " << m.ContributionPct()
       << ", \"accuracy_pct\": " << m.AccuracyPct()
       << ", \"fault_p50_ns\": " << m.fault_latency.Percentile(50)
       << ", \"fault_p90_ns\": " << m.fault_latency.Percentile(90)
       << ", \"fault_p99_ns\": " << m.fault_latency.Percentile(99)
       << ", \"fault_p999_ns\": " << m.fault_latency.Percentile(99.9) << "}"
       << (n + 1 < live.size() ? ",\n" : "\n");
  }
  os << "  ]";
  if (system.lifecycle_active()) {
    // Retired tenants with traffic (idle arrivals elided — see WriteCsv).
    std::vector<const RetiredAppRecord*> rows;
    for (const RetiredAppRecord& r : system.retired())
      if (r.metrics.accesses > 0) rows.push_back(&r);
    os << ",\n  \"retired_tenants\": [\n";
    for (std::size_t n = 0; n < rows.size(); ++n) {
      const RetiredAppRecord& r = *rows[n];
      const AppMetrics& m = r.metrics;
      os << "    {\"name\": \"" << JsonEscape(r.name)
         << "\", \"cgroup\": " << r.cg
         << ", \"generation\": " << r.generation
         << ", \"arrived_ns\": " << r.arrived
         << ", \"retired_ns\": " << r.retired_at
         << ", \"accesses\": " << m.accesses
         << ", \"faults\": " << m.faults
         << ", \"faults_major\": " << m.faults_major
         << ", \"swapouts\": " << m.swapouts
         << ", \"sched_drops\": " << r.sched_drops
         << ", \"ingress_bytes\": " << r.ingress_bytes
         << ", \"egress_bytes\": " << r.egress_bytes
         << ", \"fault_p99_ns\": " << m.fault_latency.Percentile(99)
         << "}" << (n + 1 < rows.size() ? ",\n" : "\n");
    }
    os << "  ]";
  }
  os << "\n}\n";
}

}  // namespace canvas::core
