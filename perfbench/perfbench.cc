// One measured run of one benchmark workload, or the layer replays.
//
//   perfbench run <workload> <seed> [--trace <ring-records>]
//   perfbench replay
//
// `run` executes the workload once, serially, in this process and prints one
// JSON object: every metric as [name, value, unit, kind], the correctness
// checks, and the attempted/failed operation counts. Kinds:
//   e  host end-to-end         s  simulated end-to-end
//   C  deterministic counter   H  host timer around a call the driver makes
//   T  folded from the trace ring (only with --trace)
// perfbench/run.py repeats runs, takes medians and applies the gates.
//
// `replay` prints the [R] layer replays as [name, ns-per-call, mirrors].
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "replay.h"
#include "trace/histogram.h"
#include "trace/trace.h"
#include "workloads.h"

using namespace canvas;
using perfbench::HostTimes;
using perfbench::Workload;

namespace {

struct Metric {
  std::string name;
  double value;
  const char* unit;
  char kind;
};

struct Sheet {
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, bool>> checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void Add(std::string name, double value, const char* unit, char kind) {
    metrics.push_back({std::move(name), value, unit, kind});
  }
  void Check(std::string name, bool ok) {
    checks.emplace_back(std::move(name), ok);
  }
};

double Us(double ns) { return ns / 1e3; }
double Ms(double ns) { return ns / 1e6; }
double Pct(double num, double den) { return den > 0 ? 100.0 * num / den : 0.0; }

/// Percentile p of `h`, interpolated linearly inside the log bucket that
/// holds the rank-p sample. LogHistogram::Percentile returns the bucket's
/// upper edge, which moves in ~3% steps and reads the same on most seeds;
/// the interpolated value moves with the samples and is still exact for
/// unit-width buckets.
double Quantile(const trace::LogHistogram& h, double p) {
  if (h.count() == 0) return 0;
  double rank = p / 100.0 * double(h.count());
  std::uint64_t cum = 0;
  for (std::uint32_t i = 0; i < trace::LogHistogram::kNumBuckets; ++i) {
    std::uint64_t c = h.BucketCount(i);
    if (c && double(cum + c) >= rank) {
      double lo = double(trace::LogHistogram::BucketLow(i));
      double hi = i + 1 < trace::LogHistogram::kNumBuckets
                      ? double(trace::LogHistogram::BucketLow(i + 1))
                      : double(h.max()) + 1;
      lo = std::max(lo, double(h.min()));
      hi = std::min(hi, double(h.max()) + 1);
      return lo + (rank - double(cum)) / double(c) * (hi - lo);
    }
    cum += c;
  }
  return double(h.max());
}

/// Per-layer numbers folded from the trace ring.
struct TraceFold {
  trace::LogHistogram queue;       ///< kRdmaQueue span durations
  trace::LogHistogram dma;         ///< kRdmaDma span durations
  trace::LogHistogram alloc_wait;  ///< kAllocWait instant args
  trace::LogHistogram fault_self;  ///< kFault minus its child spans
  std::uint64_t wire_busy[2] = {0, 0};  ///< kWire occupancy per lane
};

/// Duration of [begin, end) not covered by any child interval.
SimDuration SelfTime(SimTime begin, SimTime end,
                     std::vector<std::pair<SimTime, SimTime>>& children) {
  std::sort(children.begin(), children.end());
  SimDuration covered = 0;
  SimTime cursor = begin;
  for (auto [lo, hi] : children) {
    lo = std::max(lo, cursor);
    hi = std::min(hi, end);
    if (hi > lo) {
      covered += hi - lo;
      cursor = hi;
    }
  }
  return (end - begin) - covered;
}

TraceFold FoldTrace(const trace::TraceBuffer& buf) {
  TraceFold f;
  // Child spans (lookup, queue, DMA, map) recorded on a thread track since
  // that track's last kFault span. Spans are written at their end, so a
  // fault's children always precede it in the ring.
  std::unordered_map<std::uint64_t, std::vector<std::pair<SimTime, SimTime>>>
      children;
  buf.ForEach([&](const trace::TraceRecord& r) {
    if (r.type == trace::RecordType::kInstant &&
        r.name == trace::Name::kAllocWait) {
      f.alloc_wait.Add(r.arg);
      return;
    }
    if (r.type != trace::RecordType::kSpan) return;
    std::uint64_t track = (std::uint64_t(r.pid) << 32) | r.tid;
    switch (r.name) {
      case trace::Name::kWire:
        if (r.pid == trace::kRdmaPid && r.tid < 2) f.wire_busy[r.tid] += r.dur;
        break;
      case trace::Name::kRdmaQueue:
        f.queue.Add(r.dur);
        children[track].emplace_back(r.ts, r.ts + r.dur);
        break;
      case trace::Name::kRdmaDma:
        f.dma.Add(r.dur);
        children[track].emplace_back(r.ts, r.ts + r.dur);
        break;
      case trace::Name::kSwapCacheLookup:
      case trace::Name::kMap:
        children[track].emplace_back(r.ts, r.ts + r.dur);
        break;
      case trace::Name::kFault: {
        auto& c = children[track];
        f.fault_self.Add(SelfTime(r.ts, r.ts + r.dur, c));
        c.clear();
        break;
      }
      default:
        break;
    }
  });
  return f;
}

/// Totals over every tenant, read through the public accessors.
struct Totals {
  trace::LogHistogram faults_hist;  ///< fault stalls of the tenants in scope
  std::vector<SimDuration> run_times;  ///< per tenant: finish - arrival
  SimTime makespan = 0;
  std::uint64_t faults = 0, majors = 0, minors = 0, minors_prefetched = 0, swapouts = 0,
                clean_drops = 0, stale_reads = 0, rescues = 0;
  std::uint64_t pf_issued = 0, pf_completed = 0, pf_used = 0, pf_wasted = 0,
                pf_dropped = 0, pf_discarded = 0;
  std::uint64_t allocations = 0, lockfree = 0;
  SimDuration alloc_time = 0, busy = 0, stall = 0;

  void Add(const core::AppMetrics& m, SimTime arrived, bool in_scope) {
    if (in_scope) faults_hist.Merge(m.fault_latency);
    run_times.push_back(m.finish_time - arrived);
    makespan = std::max(makespan, m.finish_time);
    faults += m.faults;
    majors += m.faults_major;
    minors += m.faults_minor;
    minors_prefetched += m.faults_minor_prefetched;
    swapouts += m.swapouts;
    clean_drops += m.clean_drops;
    stale_reads += m.stale_reads;
    rescues += m.rescues;
    pf_issued += m.prefetch_issued;
    pf_completed += m.prefetch_completed;
    pf_used += m.prefetch_used;
    pf_wasted += m.prefetch_wasted;
    pf_dropped += m.prefetch_dropped;
    pf_discarded += m.prefetch_discarded;
    allocations += m.allocations;
    lockfree += m.lockfree_swapouts;
    alloc_time += m.alloc_time;
    busy += m.busy_time;
    stall += m.fault_stall;
  }
};

/// Counters, simulated end-to-end metrics and (when traced) trace folds,
/// read after the run while the system is alive.
void ReadMetrics(Workload w, const core::SwapSystem& sys,
                 const sim::Simulator& sim, Sheet& s) {
  Totals t;
  for (const core::RetiredAppRecord& rec : sys.retired())
    t.Add(rec.metrics, rec.arrived, true);
  std::uint64_t inserts = 0, shrunk = 0;
  std::vector<const mem::SwapCache*> seen;
  for (std::size_t i = 0; i < sys.app_count(); ++i) {
    if (!sys.app_alive(i)) continue;
    // Serving judges the protected frontend (app 0) only.
    t.Add(sys.metrics(i), 0, w != Workload::kServingFlash || i == 0);
    const mem::SwapCache* c = &sys.cache(i);
    if (std::find(seen.begin(), seen.end(), c) != seen.end()) continue;
    seen.push_back(c);
    inserts += c->inserts();
    shrunk += c->shrunk();
  }

  double log_sum = 0;
  for (SimDuration d : t.run_times) log_sum += std::log(double(std::max<SimDuration>(d, 1)));
  double geomean = t.run_times.empty()
                       ? 0.0
                       : std::exp(log_sum / double(t.run_times.size()));
  s.Add("sim_makespan_ms", Ms(t.makespan), "ms", 's');
  s.Add("sim_tenant_geomean_ms", geomean / 1e6, "ms", 's');
  s.Add("fault_p50_us", Us(Quantile(t.faults_hist, 50)), "us", 's');
  s.Add("fault_p99_us", Us(Quantile(t.faults_hist, 99)), "us", 's');
  s.Add("fault_p999_us", Us(Quantile(t.faults_hist, 99.9)), "us", 's');

  std::uint64_t events = sim.events_executed();
  s.Add("sim.events", double(events), "count", 'C');
  s.Add("sim.events_per_fault", t.faults ? double(events) / double(t.faults) : 0,
        "ratio", 'C');
  s.Add("core.fault_samples", double(t.faults_hist.count()), "count", 'C');
  // Every fault makes one swap-cache lookup, and a minor fault is a hit.
  s.Add("mem.swap_cache_hit_pct", Pct(double(t.minors), double(t.faults)), "%",
        'C');
  s.Add("mem.swap_cache_inserts", double(inserts), "count", 'C');
  s.Add("mem.swap_cache_shrunk", double(shrunk), "count", 'C');
  s.Add("prefetch.issued", double(t.pf_issued), "count", 'C');
  s.Add("prefetch.accuracy_pct", Pct(double(t.pf_used), double(t.pf_completed)),
        "%", 'C');
  s.Add("prefetch.contribution_pct",
        Pct(double(t.minors_prefetched), double(t.faults)), "%", 'C');
  s.Add("prefetch.wasted", double(t.pf_wasted), "count", 'C');
  s.Add("prefetch.dropped", double(t.pf_dropped), "count", 'C');
  s.Add("prefetch.discarded", double(t.pf_discarded), "count", 'C');
  s.Add("sched.drops", double(sys.scheduler().drops()), "count", 'C');
  s.Add("sched.rescues", double(t.rescues), "count", 'C');
  s.Add("sched.wmmr_ingress", sys.Wmmr(rdma::Direction::kIngress), "ratio",
        'C');
  s.Add("swapalloc.allocations", double(t.allocations), "count", 'C');
  s.Add("swapalloc.lockfree_pct", Pct(double(t.lockfree), double(t.swapouts)),
        "%", 'C');
  s.Add("swapalloc.alloc_time_share_pct",
        Pct(double(t.alloc_time), double(t.busy + t.stall)), "%", 'C');
  const rdma::Nic& nic = sys.nic();
  s.Add("rdma.demand_in", double(nic.completed_count(rdma::Op::kDemandIn)),
        "count", 'C');
  s.Add("rdma.prefetch_in", double(nic.completed_count(rdma::Op::kPrefetchIn)),
        "count", 'C');
  s.Add("rdma.swap_out", double(nic.completed_count(rdma::Op::kSwapOut)),
        "count", 'C');
  s.Add("rdma.retries", double(nic.retries()), "count", 'C');
  const remote::ServerPool* pool = sys.pool();
  s.Add("remote.slabs_placed", pool ? double(pool->slabs_placed()) : 0,
        "count", 'C');
  s.Add("remote.slabs_released", pool ? double(pool->slabs_released()) : 0,
        "count", 'C');
  s.Add("remote.migrations", pool ? double(pool->migrations()) : 0, "count",
        'C');
  s.Add("remote.harvest_events", pool ? double(pool->harvest_events()) : 0,
        "count", 'C');
  s.Add("remote.evictions_to_disk",
        pool ? double(pool->evictions_to_disk()) : 0, "count", 'C');
  s.Add("core.faults", double(t.faults), "count", 'C');
  s.Add("core.majors", double(t.majors), "count", 'C');
  s.Add("core.swapouts", double(t.swapouts), "count", 'C');
  s.Add("core.clean_drops", double(t.clean_drops), "count", 'C');
  s.Add("core.fault_stall_share_pct",
        Pct(double(t.stall), double(t.busy + t.stall)), "%", 'C');
  s.Add("cgroup.registry_slots", double(sys.cgroups().size()), "count", 'C');
  s.Add("cgroup.active_high_water", double(sys.active_high_water()), "count",
        'C');

  s.Check("stale_reads_zero", t.stale_reads == 0);

  const trace::Tracer& tracer = sys.tracer();
  if (!tracer.enabled()) return;
  TraceFold f = FoldTrace(tracer.buffer());
  s.Add("trace.records", double(tracer.buffer().size()), "count", 'T');
  s.Add("trace.dropped", double(tracer.buffer().dropped()), "count", 'T');
  s.Add("sched.queue_us_p50", Us(Quantile(f.queue, 50)), "us", 'T');
  s.Add("sched.queue_us_p99", Us(Quantile(f.queue, 99)), "us", 'T');
  s.Add("swapalloc.alloc_wait_us_p99", Us(Quantile(f.alloc_wait, 99)), "us",
        'T');
  s.Add("rdma.dma_us_p50", Us(Quantile(f.dma, 50)), "us", 'T');
  s.Add("rdma.dma_us_p99", Us(Quantile(f.dma, 99)), "us", 'T');
  s.Add("rdma.ingress_busy_pct",
        Pct(double(f.wire_busy[0]), double(t.makespan)), "%", 'T');
  s.Add("rdma.egress_busy_pct",
        Pct(double(f.wire_busy[1]), double(t.makespan)), "%", 'T');
  s.Add("core.fault_self_us_p99", Us(Quantile(f.fault_self, 99)), "us", 'T');
  s.Check("trace_nothing_dropped", tracer.buffer().dropped() == 0);
}

/// Metrics only some workloads produce, with their zero placeholders.
const Metric kWorkloadSpecific[] = {
    {"serving.slo_violation_pct", 0, "%", 'C'},
    {"serving.windows_judged", 0, "count", 'C'},
    {"serving.shed", 0, "count", 'C'},
    {"serving.weight_boosts", 0, "count", 'C'},
    {"serving.slabs_migrated", 0, "count", 'C'},
    {"serving.qos_ticks", 0, "count", 'C'},
    {"workload.max_lag_us", 0, "us", 'C'},
    {"core.add_app_us", 0, "us", 'H'},
    {"core.retire_app_us", 0, "us", 'H'},
};

void EnableTrace(core::SystemConfig& cfg, std::size_t ring) {
  cfg.trace.enabled = true;
  cfg.trace.ring_capacity = ring;
  // The counter sampler schedules its own events; leaving it off keeps the
  // traced run's event count identical to the untraced one.
  cfg.trace.sampler = false;
}

void RunWorkload(Workload w, std::uint64_t seed, std::size_t ring, Sheet& s) {
  HostTimes host;
  std::uint64_t events = 0;
  auto inspect = [&](const core::SwapSystem& sys, sim::Simulator& sim) {
    events = sim.events_executed();
    ReadMetrics(w, sys, sim, s);
    // Writebacks and reclaim chains may still be in flight when the last
    // tenant finishes. Once every metric has been read, give them 200 ms of
    // simulated time to drain (as the library's fault tests do); the system
    // must then be quiescent.
    sim.RunUntil(sim.Now() + 200 * kMillisecond);
    s.Check("quiescent", sys.Quiescent());
  };
  switch (w) {
    case Workload::kCorun: {
      core::ExperimentSpec spec = perfbench::CorunSpec(seed);
      if (ring) EnableTrace(spec.config, ring);
      bool finished = perfbench::RunCorun(spec, host, inspect);
      s.Check("all_tenants_finished", finished);
      s.attempted = spec.apps.size();
      s.failed = finished ? 0 : spec.apps.size();
      break;
    }
    case Workload::kServingFlash: {
      serving::ServingSpec spec = perfbench::ServingFlashSpec(seed);
      if (ring) EnableTrace(spec.config, ring);
      serving::ServingResult r = perfbench::RunServingTimed(spec, host, inspect);
      s.Check("all_tenants_finished",
              r.status == serving::ServingResult::Status::kOk);
      if (r.status == serving::ServingResult::Status::kError)
        std::fprintf(stderr, "serving run failed: %s\n", r.error.c_str());
      bool conserved = !r.tenants.empty();
      std::uint64_t shed = 0, boosts = 0, migrated = 0;
      for (const serving::TenantResult& tr : r.tenants) {
        conserved = conserved && tr.served + tr.shed == tr.offered;
        shed += tr.shed;
        boosts += tr.weight_boosts;
        migrated += tr.slabs_migrated;
      }
      s.Check("served_plus_shed_is_offered", conserved);
      const serving::TenantResult fe =
          r.tenants.empty() ? serving::TenantResult{} : r.tenants[0];
      // Operations are the protected frontend's requests; a shed one fails.
      s.attempted = fe.offered;
      s.failed = fe.shed;
      s.Add("serving.slo_violation_pct",
            Pct(double(fe.windows_violated), double(fe.windows_judged)), "%",
            'C');
      s.Add("serving.windows_judged", double(fe.windows_judged), "count", 'C');
      s.Add("serving.shed", double(shed), "count", 'C');
      s.Add("serving.weight_boosts", double(boosts), "count", 'C');
      s.Add("serving.slabs_migrated", double(migrated), "count", 'C');
      s.Add("serving.qos_ticks", double(r.qos_ticks), "count", 'C');
      s.Add("workload.max_lag_us", Us(fe.max_lag), "us", 'C');
      break;
    }
    case Workload::kClusterDay: {
      orchestrator::ChurnRunSpec spec = perfbench::ClusterDaySpec(seed);
      if (ring) EnableTrace(spec.config, ring);
      orchestrator::ChurnResult r = perfbench::RunChurnTimed(spec, host, inspect);
      if (!r.error.empty())
        std::fprintf(stderr, "cluster-day run failed: %s\n", r.error.c_str());
      s.Check("all_tenants_finished",
              r.status == orchestrator::ChurnResult::Status::kOk);
      s.Check("retired_equals_started", r.tenants_retired == r.tenants_started);
      s.Check("nothing_active_or_pending",
              r.active_at_end == 0 && r.pending_at_end == 0);
      s.Check("slots_within_high_water",
              r.registry_slots <= r.active_high_water + 1);
      s.attempted = r.tenants_scheduled + r.dropped_arrivals;
      s.failed = r.dropped_arrivals;
      double per_add = host.add_app_calls
                           ? host.add_app_s / double(host.add_app_calls)
                           : 0.0;
      double per_retire = host.retire_app_calls
                              ? host.retire_app_s / double(host.retire_app_calls)
                              : 0.0;
      s.Add("core.add_app_us", per_add * 1e6, "us", 'H');
      s.Add("core.retire_app_us", per_retire * 1e6, "us", 'H');
      break;
    }
  }
  s.Check("run_phase_measured", host.run_s > 0);
  // Layers a workload does not exercise still report, as zero.
  for (const Metric& m : kWorkloadSpecific)
    if (std::none_of(s.metrics.begin(), s.metrics.end(),
                     [&](const Metric& x) { return x.name == m.name; }))
      s.metrics.push_back(m);

  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  s.Add("wall_s", host.run_s, "s", 'e');
  s.Add("setup_s", host.setup_s(), "s", 'e');
  s.Add("peak_rss_mib", double(ru.ru_maxrss) / 1024.0, "MiB", 'e');
  s.Add("sim.host_ns_per_event", events ? host.run_s * 1e9 / double(events) : 0,
        "ns", 'H');
  s.Add("sim.heap_allocs_per_event",
        events ? double(host.run_allocs) / double(events) : 0, "ratio", 'C');
  s.Add("workload.build_s", host.build_s() + host.run_build_s, "s", 'H');
  s.Add("core.construct_s", host.construct_s(), "s", 'H');
}

void PrintString(const std::string& v) {
  std::putchar('"');
  for (char c : v) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::putchar('"');
}

void PrintSheet(Workload w, std::uint64_t seed, bool traced, const Sheet& s) {
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"traced\": %s, "
              "\"attempted\": %llu, \"failed\": %llu, \"checks\": {",
              perfbench::WorkloadName(w), (unsigned long long)seed,
              traced ? "true" : "false", (unsigned long long)s.attempted,
              (unsigned long long)s.failed);
  for (std::size_t i = 0; i < s.checks.size(); ++i) {
    std::fputs(i ? ", " : "", stdout);
    PrintString(s.checks[i].first);
    std::printf(": %s", s.checks[i].second ? "true" : "false");
  }
  std::printf("}, \"metrics\": [");
  for (std::size_t i = 0; i < s.metrics.size(); ++i) {
    const Metric& m = s.metrics[i];
    std::fputs(i ? ", [" : "[", stdout);
    PrintString(m.name);
    std::printf(", %.17g, \"%s\", \"%c\"]", m.value, m.unit, m.kind);
  }
  std::printf("]}\n");
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench run <corun|serving-flash|cluster-day> <seed> "
               "[--trace <ring-records>]\n"
               "       perfbench replay\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "replay") == 0) {
    std::vector<perfbench::ReplayResult> rs = perfbench::RunReplays();
    std::printf("[");
    for (std::size_t i = 0; i < rs.size(); ++i) {
      std::fputs(i ? ", [" : "[", stdout);
      PrintString(rs[i].name);
      std::printf(", %.17g, ", rs[i].ns_per_call);
      PrintString(rs[i].mirrors);
      std::printf("]");
    }
    std::printf("]\n");
    return 0;
  }
  if ((argc != 4 && argc != 6) || std::strcmp(argv[1], "run") != 0)
    return Usage();
  std::optional<Workload> w = perfbench::WorkloadFromName(argv[2]);
  char* end = nullptr;
  std::uint64_t seed = std::strtoull(argv[3], &end, 10);
  if (!w || *argv[3] == '\0' || *end != '\0') return Usage();
  std::size_t ring = 0;
  if (argc == 6) {
    if (std::strcmp(argv[4], "--trace") != 0) return Usage();
    ring = std::strtoull(argv[5], &end, 10);
    if (*end != '\0' || ring == 0) return Usage();
  }
  Sheet s;
  RunWorkload(*w, seed, ring, s);
  PrintSheet(*w, seed, ring != 0, s);
  bool ok = std::all_of(s.checks.begin(), s.checks.end(),
                        [](const auto& c) { return c.second; });
  return ok ? 0 : 1;
}
