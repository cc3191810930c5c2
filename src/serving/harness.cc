#include "serving/harness.h"

#include <exception>
#include <memory>
#include <utility>

#include "core/experiment.h"
#include "core/report.h"
#include "workload/apps.h"

namespace canvas::serving {

namespace {

/// Materialize one tenant as an AppWorkload of open-loop streams plus its
/// shared LoadControl block.
core::AppSpec BuildTenant(const TenantSpec& t, std::uint64_t seed,
                          const std::shared_ptr<workload::LoadControl>& ctl) {
  workload::AppWorkload w;
  w.name = t.name;
  w.managed = false;
  w.footprint_pages = t.footprint_pages;
  w.shared_fraction = 0.0;  // serving tenants are fully private
  w.runtime = std::make_shared<runtime::RuntimeInfo>();
  std::uint32_t threads = std::max(1u, t.threads);
  Rng seeds(seed ^ 0x5EC1A17Eull);
  for (std::uint32_t i = 0; i < threads; ++i) {
    workload::OpenLoopZipfStream::Params sp;
    sp.region = {0, t.footprint_pages};
    sp.arrival = t.arrival;
    sp.arrival.rate_rps = t.arrival.rate_rps / double(threads);
    sp.horizon = t.horizon;
    sp.theta = t.theta;
    sp.service_ns = t.service_ns;
    sp.write_fraction = t.write_fraction;
    sp.seed = seeds.Next();
    sp.control = ctl;
    w.threads.push_back(std::make_unique<workload::OpenLoopZipfStream>(sp));
    w.thread_kinds.push_back(runtime::ThreadKind::kApplication);
  }
  CgroupSpec cg = workload::CgroupFor(w, t.ratio, t.cores);
  return core::AppSpec{std::move(w), std::move(cg)};
}

}  // namespace

ServingResult RunServing(const ServingSpec& spec) {
  ServingResult r;
  r.index = spec.index;
  r.label = spec.label;
  r.system = spec.config.name;
  r.topology = spec.config.remote.topology;
  auto t0 = HostClock::now();
  try {
    std::vector<std::shared_ptr<workload::LoadControl>> controls;
    std::vector<core::AppSpec> apps;
    Rng tenant_seeds(spec.seed ^ 0x5E12F00Dull);
    for (const TenantSpec& t : spec.tenants) {
      auto ctl = std::make_shared<workload::LoadControl>();
      ctl->admit_time = t.admit_after;
      controls.push_back(ctl);
      apps.push_back(BuildTenant(t, tenant_seeds.Next(), ctl));
    }

    core::Experiment e(spec.config, std::move(apps), spec.deadline);
    QosPlane qos(spec.qos);
    for (std::size_t i = 0; i < spec.tenants.size(); ++i) {
      QosTenant qt;
      qt.app = i;
      qt.slo = spec.tenants[i].slo;
      qos.AddTenant(std::move(qt));
    }
    if (spec.qos_enabled) qos.Attach(e.simulator(), e.system());

    bool finished = e.Run();
    r.status = finished ? ServingResult::Status::kOk
                        : ServingResult::Status::kDeadline;

    const core::SwapSystem& sys = e.system();
    r.tenants.reserve(spec.tenants.size());
    for (std::size_t i = 0; i < spec.tenants.size(); ++i) {
      const core::AppMetrics& m = sys.metrics(i);
      const workload::LoadControl& ctl = *controls[i];
      TenantResult tr;
      tr.name = spec.tenants[i].name;
      tr.best_effort = spec.tenants[i].best_effort;
      tr.offered = ctl.offered;
      tr.deferred = ctl.deferred;
      tr.served = ctl.served;
      tr.max_lag = ctl.max_lag;
      tr.faults = m.faults;
      tr.fault_p50_ns = m.fault_latency.Percentile(50);
      tr.fault_p99_ns = m.fault_latency.Percentile(99);
      tr.fault_p999_ns = m.fault_latency.Percentile(99.9);
      if (spec.qos_enabled) {
        const SloTracker& trk = qos.tracker(i);
        tr.windows_judged = trk.windows_judged();
        tr.windows_skipped = trk.windows_skipped();
        tr.windows_violated = trk.windows_violated();
        tr.violation_rate = trk.ViolationRate();
      }
      tr.finish_ns = m.finish_time;
      r.tenants.push_back(std::move(tr));
    }
    r.qos_ticks = qos.ticks();
    r.pool_migrations = sys.pool()->migrations();
    r.pool_evictions_to_disk = sys.pool()->evictions_to_disk();
    r.pool_harvest_events = sys.pool()->harvest_events();
    r.sim_events = e.simulator().events_executed();
  } catch (const std::exception& ex) {
    r.status = ServingResult::Status::kError;
    r.error = ex.what();
  }
  r.wall_sec = SecondsSince(t0);
  r.peak_rss_bytes = PeakRssBytes();
  return r;
}

void WriteServingJson(std::ostream& os,
                      const std::vector<ServingResult>& results,
                      bool include_timing) {
  os << "{\n  \"schema_version\": " << core::kReportSchemaVersion << ",\n"
     << "  \"kind\": \"serving\",\n"
     << "  \"run_count\": " << results.size() << ",\n"
     << "  \"runs\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ServingResult& r = results[i];
    os << "    {\"index\": " << r.index << ", \"label\": \""
       << JsonEscape(r.label) << "\", \"system\": \"" << JsonEscape(r.system)
       << "\", \"topology\": \"" << JsonEscape(r.topology)
       << "\", \"status\": \"" << RunStatusName(r.status) << "\"";
    if (!r.error.empty())
      os << ", \"error\": \"" << JsonEscape(r.error) << "\"";
    if (r.executed()) {
      os << ", \"qos_ticks\": " << r.qos_ticks
         << ", \"pool_migrations\": " << r.pool_migrations
         << ", \"pool_evictions_to_disk\": " << r.pool_evictions_to_disk
         << ", \"pool_harvest_events\": " << r.pool_harvest_events
         << ", \"sim_events\": " << r.sim_events << ", \"tenants\": [";
      for (std::size_t j = 0; j < r.tenants.size(); ++j) {
        const TenantResult& t = r.tenants[j];
        os << (j ? ", " : "") << "{\"name\": \"" << JsonEscape(t.name)
           << "\", \"best_effort\": " << (t.best_effort ? "true" : "false")
           << ", \"offered\": " << t.offered
           << ", \"deferred\": " << t.deferred << ", \"served\": " << t.served
           << ", \"max_lag_ns\": " << t.max_lag
           << ", \"faults\": " << t.faults
           << ", \"fault_p50_ns\": " << t.fault_p50_ns
           << ", \"fault_p99_ns\": " << t.fault_p99_ns
           << ", \"fault_p999_ns\": " << t.fault_p999_ns
           << ", \"windows_judged\": " << t.windows_judged
           << ", \"windows_skipped\": " << t.windows_skipped
           << ", \"windows_violated\": " << t.windows_violated
           << ", \"slo_violation_rate\": " << t.violation_rate
           << ", \"finish_ns\": " << t.finish_ns << "}";
      }
      os << "]";
    }
    os << "}" << (i + 1 < results.size() ? ",\n" : "\n");
  }
  os << "  ]";
  if (include_timing) {
    os << ",\n  \"timing\": {\n    \"per_run\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      os << "      {\"index\": " << results[i].index
         << ", \"wall_sec\": " << results[i].wall_sec << "}"
         << (i + 1 < results.size() ? ",\n" : "\n");
    }
    os << "    ]\n  }";
  }
  os << "\n}\n";
}

}  // namespace canvas::serving
