#include "orchestrator/sweep.h"

#include <sys/resource.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <mutex>
#include <thread>

#include "core/report.h"

namespace canvas::orchestrator {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t PeakRssBytes() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return std::uint64_t(ru.ru_maxrss) * 1024;  // Linux reports KiB
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

const char* StatusName(RunResult::Status s) {
  switch (s) {
    case RunResult::Status::kOk: return "ok";
    case RunResult::Status::kDeadline: return "deadline";
    case RunResult::Status::kError: return "error";
    case RunResult::Status::kCancelled: return "cancelled";
  }
  return "?";
}

SweepEngine::SweepEngine(SweepOptions opts) : opts_(opts) {}

RunResult SweepEngine::ExecuteOne(const RunSpec& spec) {
  RunResult r;
  r.index = spec.index;
  r.label = spec.label;
  r.system = spec.exp.config.name;
  auto t0 = Clock::now();
  try {
    core::Experiment e(spec.exp);
    bool finished = e.Run();
    r.status = finished ? RunResult::Status::kOk
                        : RunResult::Status::kDeadline;
    const core::SwapSystem& sys = e.system();
    r.apps.reserve(sys.app_count());
    for (std::size_t i = 0; i < sys.app_count(); ++i) {
      AppResult a;
      a.metrics = sys.metrics(i);
      CgroupId cg = sys.cgroup_of(i);
      a.sched_drops = sys.scheduler().drops_for(cg);
      a.alloc_latency_mean_ns =
          sys.partition(i).allocator().alloc_latency().Mean();
      a.ingress_bytes = sys.nic().cgroup_bytes(cg, rdma::Direction::kIngress);
      a.egress_bytes = sys.nic().cgroup_bytes(cg, rdma::Direction::kEgress);
      r.apps.push_back(std::move(a));
    }
    r.wmmr_ingress = sys.Wmmr(rdma::Direction::kIngress);
    r.sched_drops = sys.scheduler().drops();
    r.sim_events = e.simulator().events_executed();
  } catch (const std::exception& ex) {
    r.status = RunResult::Status::kError;
    r.error = ex.what();
  }
  r.wall_sec = SecondsSince(t0);
  r.peak_rss_bytes = PeakRssBytes();
  return r;
}

SweepResult SweepEngine::Run(std::vector<RunSpec> specs) {
  SweepResult result;
  result.runs.resize(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    result.runs[i].index = specs[i].index;
    result.runs[i].label = specs[i].label;
    result.runs[i].system = specs[i].exp.config.name;
  }

  unsigned jobs = opts_.jobs ? opts_.jobs
                             : std::max(1u, std::thread::hardware_concurrency());
  jobs = std::min<unsigned>(jobs, std::max<std::size_t>(specs.size(), 1));
  unsigned max_live = opts_.max_live ? std::min(opts_.max_live, jobs) : jobs;
  result.jobs = jobs;

  std::mutex mu;
  std::condition_variable live_cv;
  std::size_t next = 0;       // guarded by mu
  std::size_t done = 0;       // guarded by mu
  unsigned live = 0;          // guarded by mu
  unsigned high_water = 0;    // guarded by mu
  bool cancelled = false;     // guarded by mu

  auto t0 = Clock::now();
  auto worker = [&] {
    for (;;) {
      std::size_t idx;
      {
        std::unique_lock<std::mutex> lk(mu);
        // The live-system cap doubles as the dispatch gate: a run only
        // starts once both a spec and a live slot are available.
        live_cv.wait(lk, [&] { return cancelled || live < max_live ||
                                      next >= specs.size(); });
        if (cancelled || next >= specs.size()) return;
        idx = next++;
        ++live;
        if (live > high_water) high_water = live;
      }
      RunResult r = ExecuteOne(specs[idx]);
      {
        std::unique_lock<std::mutex> lk(mu);
        --live;
        ++done;
        bool failed = r.status != RunResult::Status::kOk;
        if (failed && opts_.cancel_on_failure) cancelled = true;
        if (opts_.progress) {
          std::fprintf(stderr, "\r[sweep] %zu/%zu done (last: %s %s)   ",
                       done, specs.size(), r.label.c_str(),
                       StatusName(r.status));
          if (done == specs.size() || cancelled) std::fprintf(stderr, "\n");
        }
        result.runs[r.index] = std::move(r);
      }
      live_cv.notify_all();
    }
  };

  if (jobs <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (unsigned t = 0; t < jobs; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  result.wall_sec = SecondsSince(t0);
  result.cancelled = cancelled;
  result.all_ok = true;
  for (const RunResult& r : result.runs)
    if (r.status != RunResult::Status::kOk) result.all_ok = false;
  live_high_water_ = high_water;
  return result;
}

ServingSweepResult SweepEngine::RunServing(
    std::vector<serving::ServingSpec> specs) {
  ServingSweepResult result;
  result.runs.resize(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    result.runs[i].index = specs[i].index;
    result.runs[i].label = specs[i].label;
    result.runs[i].system = specs[i].config.name;
    result.runs[i].topology = specs[i].config.remote.topology;
  }

  unsigned jobs = opts_.jobs ? opts_.jobs
                             : std::max(1u, std::thread::hardware_concurrency());
  jobs = std::min<unsigned>(jobs, std::max<std::size_t>(specs.size(), 1));
  unsigned max_live = opts_.max_live ? std::min(opts_.max_live, jobs) : jobs;
  result.jobs = jobs;

  std::mutex mu;
  std::condition_variable live_cv;
  std::size_t next = 0;
  std::size_t done = 0;
  unsigned live = 0;
  unsigned high_water = 0;
  bool cancelled = false;

  auto t0 = Clock::now();
  auto worker = [&] {
    for (;;) {
      std::size_t idx;
      {
        std::unique_lock<std::mutex> lk(mu);
        live_cv.wait(lk, [&] { return cancelled || live < max_live ||
                                      next >= specs.size(); });
        if (cancelled || next >= specs.size()) return;
        idx = next++;
        ++live;
        if (live > high_water) high_water = live;
      }
      serving::ServingResult r = serving::RunServing(specs[idx]);
      {
        std::unique_lock<std::mutex> lk(mu);
        --live;
        ++done;
        bool failed = r.status != serving::ServingResult::Status::kOk;
        if (failed && opts_.cancel_on_failure) cancelled = true;
        if (opts_.progress) {
          std::fprintf(stderr, "\r[serve] %zu/%zu done (last: %s %s)   ",
                       done, specs.size(), r.label.c_str(),
                       serving::ServingStatusName(r.status));
          if (done == specs.size() || cancelled) std::fprintf(stderr, "\n");
        }
        result.runs[r.index] = std::move(r);
      }
      live_cv.notify_all();
    }
  };

  if (jobs <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (unsigned t = 0; t < jobs; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  result.wall_sec = SecondsSince(t0);
  result.cancelled = cancelled;
  result.all_ok = true;
  for (const serving::ServingResult& r : result.runs)
    if (r.status != serving::ServingResult::Status::kOk)
      result.all_ok = false;
  live_high_water_ = high_water;
  return result;
}

ChurnSweepResult SweepEngine::RunChurn(std::vector<ChurnRunSpec> specs) {
  ChurnSweepResult result;
  result.runs.resize(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    result.runs[i].index = specs[i].index;
    result.runs[i].label = specs[i].label;
    result.runs[i].system = specs[i].config.name;
    result.runs[i].topology = specs[i].config.remote.topology;
  }

  unsigned jobs = opts_.jobs ? opts_.jobs
                             : std::max(1u, std::thread::hardware_concurrency());
  jobs = std::min<unsigned>(jobs, std::max<std::size_t>(specs.size(), 1));
  unsigned max_live = opts_.max_live ? std::min(opts_.max_live, jobs) : jobs;
  result.jobs = jobs;

  std::mutex mu;
  std::condition_variable live_cv;
  std::size_t next = 0;
  std::size_t done = 0;
  unsigned live = 0;
  unsigned high_water = 0;
  bool cancelled = false;

  auto t0 = Clock::now();
  auto worker = [&] {
    for (;;) {
      std::size_t idx;
      {
        std::unique_lock<std::mutex> lk(mu);
        live_cv.wait(lk, [&] { return cancelled || live < max_live ||
                                      next >= specs.size(); });
        if (cancelled || next >= specs.size()) return;
        idx = next++;
        ++live;
        if (live > high_water) high_water = live;
      }
      // Qualified: the member overloads shadow the free-function runner.
      ChurnResult r = canvas::orchestrator::RunChurn(specs[idx]);
      {
        std::unique_lock<std::mutex> lk(mu);
        --live;
        ++done;
        bool failed = r.status != ChurnResult::Status::kOk;
        if (failed && opts_.cancel_on_failure) cancelled = true;
        if (opts_.progress) {
          std::fprintf(stderr, "\r[churn] %zu/%zu done (last: %s %s)   ",
                       done, specs.size(), r.label.c_str(),
                       ChurnStatusName(r.status));
          if (done == specs.size() || cancelled) std::fprintf(stderr, "\n");
        }
        result.runs[r.index] = std::move(r);
      }
      live_cv.notify_all();
    }
  };

  if (jobs <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (unsigned t = 0; t < jobs; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  result.wall_sec = SecondsSince(t0);
  result.cancelled = cancelled;
  result.all_ok = true;
  for (const ChurnResult& r : result.runs)
    if (r.status != ChurnResult::Status::kOk) result.all_ok = false;
  live_high_water_ = high_water;
  return result;
}

void SweepResult::WriteJson(std::ostream& os, bool include_timing) const {
  // Object-granularity runs (DESIGN.md §16) widen every app row with the
  // behaviour/object counters and bump the schema; sweeps that never
  // enabled the registry keep emitting v2 byte-for-byte.
  bool objects = false;
  for (const RunResult& r : runs)
    for (const AppResult& a : r.apps)
      objects = objects || a.metrics.behaviours_declared ||
                a.metrics.object_fetches;
  os << "{\n  \"schema_version\": "
     << (objects ? core::kObjectReportSchemaVersion
                 : core::kReportSchemaVersion)
     << ",\n"
     << "  \"kind\": \"sweep\",\n"
     << "  \"run_count\": " << runs.size() << ",\n"
     << "  \"all_ok\": " << (all_ok ? "true" : "false") << ",\n"
     << "  \"cancelled\": " << (cancelled ? "true" : "false") << ",\n"
     << "  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i];
    os << "    {\"index\": " << r.index << ", \"label\": \""
       << JsonEscape(r.label) << "\", \"system\": \"" << JsonEscape(r.system)
       << "\", \"status\": \"" << StatusName(r.status) << "\"";
    if (!r.error.empty()) os << ", \"error\": \"" << JsonEscape(r.error) << "\"";
    if (r.executed()) {
      os << ", \"wmmr_ingress\": " << r.wmmr_ingress
         << ", \"scheduler_drops\": " << r.sched_drops
         << ", \"sim_events\": " << r.sim_events << ", \"apps\": [";
      for (std::size_t j = 0; j < r.apps.size(); ++j) {
        const AppResult& a = r.apps[j];
        const core::AppMetrics& m = a.metrics;
        os << (j ? ", " : "") << "{\"name\": \"" << JsonEscape(m.name)
           << "\", \"finish_ns\": " << m.finish_time
           << ", \"faults\": " << m.faults
           << ", \"faults_major\": " << m.faults_major
           << ", \"swapouts\": " << m.swapouts
           << ", \"allocations\": " << m.allocations
           << ", \"lockfree_swapouts\": " << m.lockfree_swapouts
           << ", \"prefetch_issued\": " << m.prefetch_issued
           << ", \"prefetch_used\": " << m.prefetch_used
           << ", \"contribution_pct\": " << m.ContributionPct()
           << ", \"accuracy_pct\": " << m.AccuracyPct()
           << ", \"sched_drops\": " << a.sched_drops
           << ", \"ingress_bytes\": " << a.ingress_bytes
           << ", \"egress_bytes\": " << a.egress_bytes
           << ", \"fault_p50_ns\": " << m.fault_latency.Percentile(50)
           << ", \"fault_p99_ns\": " << m.fault_latency.Percentile(99);
        if (objects)
          os << ", \"behaviours_completed\": " << m.behaviours_completed
             << ", \"object_fetches\": " << m.object_fetches
             << ", \"object_fetch_hits\": " << m.object_fetch_hits
             << ", \"object_pins\": " << m.object_pins
             << ", \"object_unpins\": " << m.object_unpins
             << ", \"object_stale_handles\": " << m.object_stale_handles
             << ", \"behaviour_deferrals\": " << m.behaviour_deferrals
             << ", \"behaviour_stall_ns\": " << m.behaviour_stall;
        os << "}";
      }
      os << "]";
    }
    os << "}" << (i + 1 < runs.size() ? ",\n" : "\n");
  }
  os << "  ]";
  if (include_timing) {
    os << ",\n  \"timing\": {\n    \"jobs\": " << jobs
       << ",\n    \"wall_sec\": " << wall_sec << ",\n    \"per_run\": [\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const RunResult& r = runs[i];
      os << "      {\"index\": " << r.index << ", \"wall_sec\": " << r.wall_sec
         << ", \"peak_rss_bytes\": " << r.peak_rss_bytes << "}"
         << (i + 1 < runs.size() ? ",\n" : "\n");
    }
    os << "    ]\n  }";
  }
  os << "\n}\n";
}

}  // namespace canvas::orchestrator
