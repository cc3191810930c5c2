#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "runtime/runtime_info.h"
#include "serving/qos.h"
#include "workload/apps.h"
#include "workload/arrival.h"
#include "workload/churn.h"

namespace perfbench {

using namespace canvas;

namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Workload sizes. The corun scale and the two horizons keep one run of each
// workload near two seconds of host time, so a measurement window holds
// several runs.
constexpr double kCorunScale = 0.6;
constexpr SimTime kServingHorizon = 8 * kSecond;
constexpr SimTime kClusterHorizon = 4 * kSecond;

// Mirrors the anonymous BuildTenant in serving/harness.cc: one open-loop
// stream per thread, seeded from the tenant seed.
core::AppSpec BuildTenant(const serving::TenantSpec& t, std::uint64_t seed,
                          const std::shared_ptr<workload::LoadControl>& ctl) {
  workload::AppWorkload w;
  w.name = t.name;
  w.managed = false;
  w.footprint_pages = t.footprint_pages;
  w.shared_fraction = 0.0;
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

constexpr std::size_t kNoSlot = std::size_t(-1);

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

}  // namespace

double HostTimes::build_s() const { return Median(build_samples); }
double HostTimes::construct_s() const { return Median(construct_samples); }
double HostTimes::setup_s() const {
  std::vector<double> total(build_samples.size());
  for (std::size_t i = 0; i < total.size(); ++i)
    total[i] = build_samples[i] + construct_samples[i];
  return Median(total);
}

std::optional<Workload> WorkloadFromName(std::string_view name) {
  if (name == "corun") return Workload::kCorun;
  if (name == "serving-flash") return Workload::kServingFlash;
  if (name == "cluster-day") return Workload::kClusterDay;
  return std::nullopt;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kCorun: return "corun";
    case Workload::kServingFlash: return "serving-flash";
    case Workload::kClusterDay: return "cluster-day";
  }
  return "?";
}

core::ExperimentSpec CorunSpec(std::uint64_t seed) {
  core::ExperimentSpec spec;
  spec.config = core::SystemConfig::CanvasFull();
  Rng seeds(seed);
  for (const char* name : {"spark-lr", "snappy", "memcached", "xgboost"}) {
    core::AppBuild b;
    b.name = name;
    b.scale = kCorunScale;
    b.ratio = 0.25;
    b.seed = seeds.Next() | 1;  // 0 would select the library default
    spec.apps.push_back(b);
  }
  return spec;
}

serving::ServingSpec ServingFlashSpec(std::uint64_t seed) {
  orchestrator::ServingScenarioSpec sc;
  sc.systems = {"canvas"};
  sc.topologies = {"pool4"};
  sc.arrivals = {"flash"};
  sc.seeds = {seed};
  sc.qos_enabled = true;
  sc.qos.control_period = 50 * kMillisecond;

  // Tenant shapes follow bench/serving_bench.cpp, flash burst inside the
  // horizon.
  serving::TenantSpec fe;
  fe.name = "frontend";
  fe.arrival.rate_rps = 150'000;
  fe.arrival.flash_start = kServingHorizon / 2;
  fe.arrival.flash_duration = kServingHorizon / 4;
  fe.horizon = kServingHorizon;
  fe.threads = 4;
  fe.footprint_pages = 16384;
  fe.ratio = 0.25;
  fe.slo.p99_ns = 10 * kMicrosecond;
  fe.slo.p999_ns = 50 * kMicrosecond;
  fe.load_tenant = true;

  serving::TenantSpec batch;
  batch.name = "batch";
  batch.arrival.rate_rps = 50'000;
  batch.horizon = kServingHorizon;
  batch.threads = 2;
  batch.footprint_pages = 16384;
  batch.ratio = 0.25;
  batch.best_effort = true;

  sc.tenants = {fe, batch};
  return sc.Expand().at(0);
}

orchestrator::ChurnRunSpec ClusterDaySpec(std::uint64_t seed) {
  orchestrator::ChurnScenarioSpec sc;
  sc.systems = {"canvas"};
  sc.topologies = {"pool4"};
  sc.harvests = {"steady"};
  sc.seeds = {seed};
  sc.deadline = 600 * kSecond;

  // The bench/cluster_day.cpp mix: one diurnal cycle over the horizon. The
  // concurrency cap sits above the ~48-tenant peak (bench/cluster_day.cpp
  // caps at 48) so that no seed drops an arrival.
  workload::ChurnSpec& c = sc.churn;
  c.kind = workload::ChurnKind::kDiurnal;
  c.diurnal_amplitude = 0.6;
  c.horizon = kClusterHorizon;
  c.diurnal_period = c.horizon;
  c.arrival_rate_per_sec = 140;
  c.mean_lifetime = 150 * kMillisecond;
  c.min_lifetime = 20 * kMillisecond;
  c.max_tenants = 1000;
  c.max_concurrent = 64;

  workload::TenantTemplate cache;
  cache.app = "memcached";
  cache.weight = 3;
  cache.scale = 0.05;
  cache.local_ratio = 0.3;
  workload::TenantTemplate batch;
  batch.app = "snappy";
  batch.weight = 1;
  batch.scale = 0.04;
  batch.local_ratio = 0.25;
  c.templates = {cache, batch};
  return sc.Expand().at(0);
}

bool RunCorun(const core::ExperimentSpec& spec, HostTimes& host,
              const Inspect& inspect) {
  std::unique_ptr<core::Experiment> e;
  for (int i = 0; i < kSetups; ++i) {
    e.reset();
    auto t0 = Clock::now();
    std::vector<core::AppSpec> apps = core::BuildApps(spec.apps);
    host.build_samples.push_back(Since(t0));
    auto t1 = Clock::now();
    e = std::make_unique<core::Experiment>(spec.config, std::move(apps),
                                           spec.deadline);
    host.construct_samples.push_back(Since(t1));
  }

  std::uint64_t allocs0 = HeapAllocations();
  auto t2 = Clock::now();
  bool finished = e->Run();
  host.run_s = Since(t2);
  host.run_allocs = HeapAllocations() - allocs0;

  inspect(e->system(), e->simulator());
  return finished;
}

namespace {

/// Everything serving set-up builds. Members are destroyed in reverse order,
/// so the QoS plane goes before the experiment whose simulator it ticks on.
struct ServingSetup {
  std::vector<std::shared_ptr<workload::LoadControl>> controls;
  std::unique_ptr<core::Experiment> e;
  std::unique_ptr<serving::QosPlane> qos;
};

}  // namespace

serving::ServingResult RunServingTimed(const serving::ServingSpec& spec,
                                       HostTimes& host,
                                       const Inspect& inspect) {
  serving::ServingResult r;
  r.index = spec.index;
  r.label = spec.label;
  r.system = spec.config.name;
  r.topology = spec.config.remote.topology;
  auto t_start = Clock::now();
  try {
    std::unique_ptr<ServingSetup> st;
    for (int i = 0; i < kSetups; ++i) {
      st.reset();
      st = std::make_unique<ServingSetup>();
      auto t0 = Clock::now();
      std::vector<core::AppSpec> apps;
      Rng tenant_seeds(spec.seed ^ 0x5E12F00Dull);
      for (const serving::TenantSpec& t : spec.tenants) {
        auto ctl = std::make_shared<workload::LoadControl>();
        ctl->admit_time = t.admit_after;
        st->controls.push_back(ctl);
        apps.push_back(BuildTenant(t, tenant_seeds.Next(), ctl));
      }
      host.build_samples.push_back(Since(t0));

      auto t1 = Clock::now();
      st->e = std::make_unique<core::Experiment>(spec.config, std::move(apps),
                                                 spec.deadline);
      st->qos = std::make_unique<serving::QosPlane>(spec.qos);
      for (std::size_t j = 0; j < spec.tenants.size(); ++j) {
        serving::QosTenant qt;
        qt.app = j;
        qt.control = st->controls[j];
        qt.slo = spec.tenants[j].slo;
        qt.best_effort = spec.tenants[j].best_effort;
        st->qos->AddTenant(std::move(qt));
      }
      if (spec.qos_enabled) st->qos->Attach(st->e->simulator(), st->e->system());
      host.construct_samples.push_back(Since(t1));
    }
    core::Experiment& e = *st->e;
    const serving::QosPlane& qos = *st->qos;

    std::uint64_t allocs0 = HeapAllocations();
    auto t2 = Clock::now();
    bool finished = e.Run();
    host.run_s = Since(t2);
    host.run_allocs = HeapAllocations() - allocs0;
    r.status = finished ? serving::ServingResult::Status::kOk
                        : serving::ServingResult::Status::kDeadline;
    r.parallel = e.parallel();

    // Snapshot exactly as serving::RunServing takes it.
    const core::SwapSystem& sys = e.system();
    r.tenants.reserve(spec.tenants.size());
    for (std::size_t i = 0; i < spec.tenants.size(); ++i) {
      const core::AppMetrics& m = sys.metrics(i);
      const workload::LoadControl& ctl = *st->controls[i];
      serving::TenantResult tr;
      tr.name = spec.tenants[i].name;
      tr.best_effort = spec.tenants[i].best_effort;
      tr.offered = ctl.offered;
      tr.shed = ctl.shed;
      tr.deferred = ctl.deferred;
      tr.served = ctl.served;
      tr.max_lag = ctl.max_lag;
      tr.faults = m.faults;
      tr.fault_p50_ns = m.fault_latency.Percentile(50);
      tr.fault_p99_ns = m.fault_latency.Percentile(99);
      tr.fault_p999_ns = m.fault_latency.Percentile(99.9);
      if (spec.qos_enabled) {
        const serving::SloTracker& trk = qos.tracker(i);
        tr.windows_judged = trk.windows_judged();
        tr.windows_skipped = trk.windows_skipped();
        tr.windows_violated = trk.windows_violated();
        tr.violation_rate = trk.ViolationRate();
        const serving::QosPlane::TenantStats& ts = qos.stats(i);
        tr.weight_boosts = ts.weight_boosts;
        tr.shed_steps = ts.shed_steps;
        tr.deferrals = ts.deferrals;
        tr.slabs_migrated = ts.slabs_migrated;
      }
      tr.finish_ns = m.finish_time;
      r.tenants.push_back(std::move(tr));
    }
    r.qos_ticks = qos.ticks();
    if (const remote::ServerPool* pool = sys.pool()) {
      r.pool_migrations = pool->migrations();
      r.pool_evictions_to_disk = pool->evictions_to_disk();
      r.pool_harvest_events = pool->harvest_events();
    }
    r.sim_events = e.simulator().events_executed();
    inspect(sys, e.simulator());
  } catch (const std::exception& ex) {
    r.status = serving::ServingResult::Status::kError;
    r.error = ex.what();
  }
  r.wall_sec = Since(t_start);
  return r;
}

namespace {

/// Everything churn set-up builds: the sampled schedule and an initially
/// empty system with every arrival/departure already on its clock. The
/// system is declared after the simulator it runs on, so it goes first.
struct ChurnSetup {
  workload::ChurnSchedule sched;
  std::vector<workload::TenantTemplate> templates;
  std::unique_ptr<sim::Simulator> sim;
  std::unique_ptr<core::SwapSystem> system;
  std::size_t remaining = 0;
  std::vector<std::size_t> slot;
};

}  // namespace

orchestrator::ChurnResult RunChurnTimed(
    const orchestrator::ChurnRunSpec& spec, HostTimes& host,
    const Inspect& inspect) {
  using orchestrator::ChurnResult;
  ChurnResult r;
  r.index = spec.index;
  r.label = spec.label;
  r.system = spec.config.name;
  r.topology = spec.config.remote.topology;
  auto t_start = Clock::now();
  try {
    if (spec.config.sim_threads > 1)
      throw std::invalid_argument("the benchmark runs serial simulations");
    std::unique_ptr<ChurnSetup> st;
    for (int i = 0; i < kSetups; ++i) {
      st.reset();
      r.tenants_started = 0;
      st = std::make_unique<ChurnSetup>();
      auto t0 = Clock::now();
      st->sched = workload::BuildChurnSchedule(spec.churn);
      st->templates = spec.churn.templates;
      if (st->templates.empty()) st->templates.emplace_back();
      host.build_samples.push_back(Since(t0));

      auto t1 = Clock::now();
      st->sim = std::make_unique<sim::Simulator>();
      st->system =
          std::make_unique<core::SwapSystem>(*st->sim, spec.config,
                                             std::vector<core::AppSpec>{});
      ChurnSetup* s = st.get();
      s->remaining = s->sched.events.size();
      s->system->SetLifecycleActiveHook([s] {
        return s->remaining > 0 || s->system->pending_retirements() > 0;
      });
      s->slot.assign(s->sched.tenants.size(), kNoSlot);
      for (const workload::ChurnEvent& ev : s->sched.events) {
        s->sim->ScheduleAt(ev.at, [s, &host, &r, &spec, ev] {
          --s->remaining;
          if (ev.arrival) {
            auto tb = Clock::now();
            const workload::ChurnTenant& t = s->sched.tenants[ev.tenant];
            const workload::TenantTemplate& tp = s->templates[t.tmpl];
            workload::AppParams p;
            p.scale = t.scale_override > 0 ? t.scale_override : tp.scale;
            p.threads = tp.threads;
            p.seed = spec.churn.seed ^
                     (0x9E3779B97F4A7C15ull * (std::uint64_t(ev.tenant) + 1));
            auto w = workload::MakeByName(tp.app, p);
            auto cg = workload::CgroupFor(w, tp.local_ratio,
                                          tp.cores ? tp.cores : 1,
                                          tp.rdma_weight);
            auto ta = Clock::now();
            host.run_build_s +=
                std::chrono::duration<double>(ta - tb).count();
            s->slot[ev.tenant] =
                s->system->AddApp(core::AppSpec{std::move(w), std::move(cg)});
            host.add_app_s += Since(ta);
            ++host.add_app_calls;
            ++r.tenants_started;
          } else if (s->slot[ev.tenant] != kNoSlot &&
                     s->system->app_alive(s->slot[ev.tenant])) {
            auto tr = Clock::now();
            s->system->RetireApp(s->slot[ev.tenant]);
            host.retire_app_s += Since(tr);
            ++host.retire_app_calls;
          }
        });
      }
      host.construct_samples.push_back(Since(t1));
    }
    sim::Simulator& sim = *st->sim;
    core::SwapSystem& system = *st->system;
    r.tenants_scheduled = st->sched.tenants.size();
    r.dropped_arrivals = st->sched.dropped_arrivals;
    r.schedule_high_water = st->sched.concurrent_high_water;

    std::uint64_t allocs0 = HeapAllocations();
    auto t2 = Clock::now();
    system.Start();
    auto all_done = [&] {
      return st->remaining == 0 && system.AllFinished() &&
             system.pending_retirements() == 0;
    };
    constexpr SimTime kSlice = 20 * kMillisecond;
    while (sim.Now() < spec.deadline) {
      SimTime next = std::min(spec.deadline, sim.Now() + kSlice);
      bool drained = sim.RunUntil(next);
      if (all_done() || drained) break;
    }
    host.run_s = Since(t2);
    host.run_allocs = HeapAllocations() - allocs0;
    r.status = all_done() ? ChurnResult::Status::kOk
                          : ChurnResult::Status::kDeadline;

    // Snapshot exactly as orchestrator::RunChurn takes it.
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
    if (const remote::ServerPool* pool = system.pool()) {
      r.pool = true;
      r.partitions_released = pool->partitions_released();
      r.slabs_released = pool->slabs_released();
      r.harvest_events = pool->harvest_events();
      r.control_ticks = pool->control_ticks();
      r.control_harvests = pool->control_harvests();
      r.control_returns = pool->control_returns();
      std::string audit_err;
      if (!pool->Audit(&audit_err)) {
        r.status = ChurnResult::Status::kError;
        r.error = "pool audit failed: " + audit_err;
      }
    }
    inspect(system, sim);
  } catch (const std::exception& ex) {
    r.status = ChurnResult::Status::kError;
    r.error = ex.what();
  }
  r.wall_sec = Since(t_start);
  return r;
}

}  // namespace perfbench
