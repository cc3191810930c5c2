#include "orchestrator/churn.h"

#include <exception>

#include "core/experiment.h"
#include "core/report.h"
#include "workload/apps.h"

namespace canvas::orchestrator {

namespace {

constexpr std::size_t kNoSlot = std::size_t(-1);

}  // namespace

ChurnResult RunChurn(const ChurnRunSpec& spec) {
  ChurnResult r;
  r.index = spec.index;
  r.label = spec.label;
  r.system = spec.config.name;
  r.topology = spec.config.remote.topology;
  auto t0 = HostClock::now();
  try {
    workload::ChurnSchedule sched = workload::BuildChurnSchedule(spec.churn);
    r.tenants_scheduled = sched.tenants.size();
    r.dropped_arrivals = sched.dropped_arrivals;
    r.schedule_high_water = sched.concurrent_high_water;

    std::vector<workload::TenantTemplate> templates = spec.churn.templates;
    if (templates.empty()) templates.emplace_back();

    core::Experiment e(spec.config, {}, spec.deadline);
    sim::Simulator& sim = e.simulator();
    core::SwapSystem& system = e.system();

    // Keeps pool harvest/control ticks and the trace sampler alive across
    // gaps where every current tenant drained but arrivals are still due.
    std::size_t remaining = sched.events.size();
    system.SetLifecycleActiveHook([&] {
      return remaining > 0 || system.pending_retirements() > 0;
    });

    std::vector<std::size_t> slot(sched.tenants.size(), kNoSlot);
    for (const workload::ChurnEvent& ev : sched.events) {
      sim.ScheduleAt(ev.at, [&, ev] {
        --remaining;
        if (ev.arrival) {
          const workload::ChurnTenant& t = sched.tenants[ev.tenant];
          const workload::TenantTemplate& tp = templates[t.tmpl];
          workload::AppParams p;
          p.scale = t.scale_override > 0 ? t.scale_override : tp.scale;
          p.threads = tp.threads;
          // Per-tenant workload seed: a deterministic function of the
          // schedule seed and the tenant's dense id.
          p.seed = spec.churn.seed ^
                   (0x9E3779B97F4A7C15ull * (std::uint64_t(ev.tenant) + 1));
          auto w = workload::MakeByName(tp.app, p);
          auto cg = workload::CgroupFor(w, tp.local_ratio,
                                        tp.cores ? tp.cores : 1,
                                        tp.rdma_weight);
          slot[ev.tenant] =
              system.AddApp(core::AppSpec{std::move(w), std::move(cg)});
          ++r.tenants_started;
        } else if (slot[ev.tenant] != kNoSlot &&
                   system.app_alive(slot[ev.tenant])) {
          system.RetireApp(slot[ev.tenant]);
        }
      });
    }

    // The hook makes the run active until every arrival and departure has
    // fired and every retirement is reaped.
    r.status = e.Run() ? ChurnResult::Status::kOk
                       : ChurnResult::Status::kDeadline;

    // --- deterministic snapshot ---
    r.tenants_retired = system.retired_count();
    r.active_high_water = system.active_high_water();
    r.active_at_end = system.active_app_count();
    r.pending_at_end = system.pending_retirements();
    r.registry_slots = system.cgroups().size();
    r.registry_retired_total = system.cgroups().retired_total();
    auto fold = [&r](const core::AppMetrics& m) {
      r.accesses += m.accesses;
      r.faults += m.faults;
      r.faults_major += m.faults_major;
      r.swapouts += m.swapouts;
      r.failovers += m.failovers;
    };
    for (const core::RetiredAppRecord& rec : system.retired())
      fold(rec.metrics);
    for (std::size_t i = 0; i < system.app_count(); ++i)
      if (system.app_alive(i)) fold(system.metrics(i));
    r.sched_drops = system.scheduler().drops();
    r.sim_events = sim.events_executed();
    const remote::ServerPool& pool = *system.pool();
    r.pool = !pool.config().single();
    r.partitions_released = pool.partitions_released();
    r.slabs_released = pool.slabs_released();
    r.harvest_events = pool.harvest_events();
    r.control_ticks = pool.control_ticks();
    r.control_harvests = pool.control_harvests();
    r.control_returns = pool.control_returns();
    // Slab conservation must hold after a full churn cycle: every reaped
    // tenant's slabs are back on their servers or accounted for.
    std::string audit_err;
    if (!pool.Audit(&audit_err)) {
      r.status = ChurnResult::Status::kError;
      r.error = "pool audit failed: " + audit_err;
    }
  } catch (const std::exception& ex) {
    r.status = ChurnResult::Status::kError;
    r.error = ex.what();
  }
  r.wall_sec = SecondsSince(t0);
  r.peak_rss_bytes = PeakRssBytes();
  return r;
}

template <>
void Sweep<ChurnResult>::WriteJson(std::ostream& os,
                                   bool include_timing) const {
  os << "{\n  \"schema_version\": " << core::kChurnReportSchemaVersion
     << ",\n"
     << "  \"kind\": \"churn-sweep\",\n"
     << "  \"run_count\": " << runs.size() << ",\n"
     << "  \"all_ok\": " << (all_ok ? "true" : "false") << ",\n"
     << "  \"cancelled\": " << (cancelled ? "true" : "false") << ",\n"
     << "  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const ChurnResult& r = runs[i];
    os << "    {\"index\": " << r.index << ", \"label\": \""
       << JsonEscape(r.label) << "\", \"system\": \"" << JsonEscape(r.system)
       << "\", \"status\": \"" << RunStatusName(r.status) << "\"";
    if (!r.error.empty())
      os << ", \"error\": \"" << JsonEscape(r.error) << "\"";
    if (r.executed()) {
      os << ", \"tenants_scheduled\": " << r.tenants_scheduled
         << ", \"tenants_started\": " << r.tenants_started
         << ", \"tenants_retired\": " << r.tenants_retired
         << ", \"dropped_arrivals\": " << r.dropped_arrivals
         << ", \"schedule_high_water\": " << r.schedule_high_water
         << ", \"active_high_water\": " << r.active_high_water
         << ", \"active_at_end\": " << r.active_at_end
         << ", \"pending_at_end\": " << r.pending_at_end
         << ", \"registry_slots\": " << r.registry_slots
         << ", \"registry_retired_total\": " << r.registry_retired_total
         << ", \"accesses\": " << r.accesses
         << ", \"faults\": " << r.faults
         << ", \"faults_major\": " << r.faults_major
         << ", \"swapouts\": " << r.swapouts
         << ", \"failovers\": " << r.failovers
         << ", \"sched_drops\": " << r.sched_drops
         << ", \"sim_events\": " << r.sim_events;
      if (r.pool) {
        os << ", \"partitions_released\": " << r.partitions_released
           << ", \"slabs_released\": " << r.slabs_released
           << ", \"harvest_events\": " << r.harvest_events
           << ", \"control_ticks\": " << r.control_ticks
           << ", \"control_harvests\": " << r.control_harvests
           << ", \"control_returns\": " << r.control_returns;
      }
    }
    os << "}" << (i + 1 < runs.size() ? ",\n" : "\n");
  }
  os << "  ]";
  if (include_timing) {
    os << ",\n  \"timing\": {\n    \"jobs\": " << jobs
       << ",\n    \"wall_sec\": " << wall_sec << ",\n    \"per_run\": [\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const ChurnResult& r = runs[i];
      os << "      {\"index\": " << r.index << ", \"wall_sec\": "
         << r.wall_sec << ", \"peak_rss_bytes\": " << r.peak_rss_bytes << "}"
         << (i + 1 < runs.size() ? ",\n" : "\n");
    }
    os << "    ]\n  }";
  }
  os << "\n}\n";
}

}  // namespace canvas::orchestrator
