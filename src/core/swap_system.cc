#include "core/swap_system.h"

#include <algorithm>
#include <cassert>

#include "runtime/runtime_info.h"

namespace canvas::core {

namespace {
constexpr SimDuration kReclaimRetryDelay = 5 * kMicrosecond;
constexpr SimDuration kAllocRetryDelay = 50 * kMicrosecond;
constexpr SimDuration kSpuriousFaultCost = 200;
/// Pages one direct-reclaim chain evicts before ending (keeps a small
/// reclaim lookahead per faulting thread, like SWAP_CLUSTER_MAX batching).
constexpr std::uint32_t kDirectReclaimBudget = 4;
/// Retirement reap-poll cadence (DESIGN.md §15). Armed only while
/// retirements are pending, so fixed-tenant runs schedule zero poll events.
constexpr SimDuration kReapPollPeriod = 50 * kMicrosecond;

// --- fault-path cost model (ns) ---
constexpr SimDuration kFaultEntryCost = 800;  // trap + swap-cache lookup
constexpr SimDuration kMapCost = 600;         // map a cached page (minor fault)
constexpr SimDuration kFirstTouchCost = 900;  // zero-fill a new page
constexpr SimDuration kEvictPageCost = 250;   // per victim: scan + unmap
constexpr SimDuration kKswapdPeriod = 500 * kMicrosecond;
/// Entries stripped from clean resident pages when the partition is full
/// (Linux 5.5 entry-keeping release).
constexpr std::size_t kStripBatch = 64;
/// Entry-keeping for clean pages is enabled only while the partition's free
/// fraction exceeds this threshold (Appendix B: "entry keeping starts when
/// the percentage of available swap entries exceeds this threshold");
/// below it, swap-in frees the entry. Not used by the adaptive
/// (reservation) allocator, which manages entries itself.
constexpr double kEntryKeepFreeThreshold = 0.25;

// --- failover/failback state machine (DESIGN.md §8) ---
/// Consecutive retry-exhausted requests before a cgroup fails over to a
/// local backend (each exhausted request already represents max_retries
/// failed attempts, so the first one triggers it).
constexpr std::uint32_t kFailoverAfterExhausted = 1;
/// How long a failed-over cgroup waits before probing the remote path
/// again. Blackout recovery also fails back at once via the injector's
/// server-up callback.
constexpr SimDuration kFailbackDelay = 5 * kMillisecond;
/// Pause before a retry-exhausted demand read is re-enqueued.
constexpr SimDuration kDemandReissueDelay = 100 * kMicrosecond;
}  // namespace

/// In-flight state of one CooperativeFetchAndPin batch. `pending` starts at
/// 1 (a scan sentinel) so `ready` cannot fire while the issue loop is still
/// running.
struct SwapSystem::CoopBatch {
  std::size_t pending = 1;
  std::function<void()> ready;
  void Done() {
    if (--pending == 0 && ready) ready();
  }
};

SwapSystem::SwapSystem(sim::Simulator& sim, SystemConfig cfg,
                       std::vector<AppSpec> specs)
    : sim_(sim), cfg_(std::move(cfg)), tracer_(cfg_.trace) {
  // --- cgroups (creation order makes cgroup id == app index) ---
  std::uint64_t total_entries = 0;
  std::uint64_t total_cache = 0;
  for (auto& spec : specs) {
    total_entries += spec.cgroup.swap_entry_limit;
    total_cache += spec.cgroup.swap_cache_pages;
  }

  // Churn runs (DESIGN.md §15) construct with zero apps and admit tenants
  // mid-run; the shared pools then need a non-degenerate floor.
  if (specs.empty()) {
    total_entries = 65536;
    total_cache = 8192;
  }

  if (!cfg_.isolated_partitions) {
    global_partition_ = std::make_unique<swapalloc::SwapPartition>(
        sim_, "shared", total_entries, cfg_.allocator);
  } else {
    // Global partition for shared pages uses the original lock-based
    // allocator (§4 "Handling of Shared Pages").
    global_partition_ = std::make_unique<swapalloc::SwapPartition>(
        sim_, "cgroup-shared", std::max<std::uint64_t>(total_entries / 8, 4096),
        swapalloc::AllocatorKind::kFreelist);
  }
  if (!cfg_.isolated_caches) {
    global_cache_ = std::make_unique<mem::SwapCache>("shared", total_cache);
  } else {
    // cgroup-shared cache: paper default 32MB, scaled with the experiment.
    std::uint64_t shared_cache =
        specs.empty() ? 8192 : specs.front().cgroup.swap_cache_pages;
    global_cache_ = std::make_unique<mem::SwapCache>("cgroup-shared",
                                                     shared_cache);
  }

  // --- prefetcher ---
  switch (cfg_.prefetcher) {
    case PrefetcherKind::kNone:
      break;
    case PrefetcherKind::kReadahead:
      prefetcher_ = std::make_unique<prefetch::ReadaheadPrefetcher>(
          prefetch::ReadaheadPrefetcher::Config{
              cfg_.prefetcher_shared_state ? prefetch::ContextMode::kGlobal
                                           : prefetch::ContextMode::kPerApp,
              cfg_.per_vma_readahead ? PageId(1024) : PageId(0)});
      break;
    case PrefetcherKind::kLeap: {
      prefetch::LeapPrefetcher::Config lc;
      lc.mode = cfg_.prefetcher_shared_state ? prefetch::ContextMode::kGlobal
                                             : prefetch::ContextMode::kPerApp;
      // On a shared partition with co-runners, Leap's swap-offset fallback
      // run lands on interleaved (unrelated) pages.
      lc.shared_partition_fallback =
          !cfg_.isolated_partitions && specs.size() > 1;
      prefetcher_ = std::make_unique<prefetch::LeapPrefetcher>(lc);
      break;
    }
    case PrefetcherKind::kTwoTier: {
      auto tt = std::make_unique<prefetch::TwoTierPrefetcher>(
          prefetch::TwoTierPrefetcher::Config{});
      two_tier_ = tt.get();
      prefetcher_ = std::move(tt);
      break;
    }
  }

  // --- scheduler + NIC ---
  switch (cfg_.scheduler) {
    case SchedulerKind::kFifo:
      scheduler_ = std::make_unique<sched::FifoScheduler>();
      break;
    case SchedulerKind::kFastswap:
      scheduler_ = std::make_unique<sched::FastswapScheduler>();
      break;
    case SchedulerKind::kTwoDim: {
      sched::TwoDimScheduler::Config sc;
      sc.horizontal = cfg_.horizontal_sched;
      sc.timeliness = cfg_.timeliness;
      auto td = std::make_unique<sched::TwoDimScheduler>(sc);
      two_dim_ = td.get();
      scheduler_ = std::move(td);
      break;
    }
  }
  nic_ = std::make_unique<rdma::Nic>(sim_, cfg_.nic, *scheduler_);
  scheduler_->AttachNic(nic_.get());
  nic_->AttachTracer(&tracer_);

  // --- remote memory-server pool (DESIGN.md §11) and disk backstop ---
  disk_ = std::make_unique<fault::LocalDevice>(
      sim_, SwapBackend::kLocalDisk, fault::LocalDevice::Config{});
  pool_ = std::make_unique<remote::ServerPool>(sim_, cfg_.remote);
  pool_->AttachTracer(&tracer_);
  pool_->SetSlabEvictedHandler(
      [this](std::uint32_t pid, std::uint64_t lo, std::uint64_t hi) {
        OnSlabEvicted(pid, lo, hi);
      });
  nic_->AttachPool(pool_.get());

  // --- fault injection & recovery (DESIGN.md §8) ---
  if (cfg_.fault_plan) {
    cfg_.fault_plan->CheckServerTargets(pool_->servers().size(),
                                        cfg_.remote.topology);
    injector_ = std::make_unique<fault::FaultInjector>(sim_, *cfg_.fault_plan,
                                                       cfg_.fault_seed);
    nic_->AttachInjector(injector_.get());
    injector_->OnServerDown([this](int server) { OnFabricDown(server); });
    injector_->OnServerUp([this](int server) { OnFabricUp(server); });
  }

  // --- hybrid local tier (DESIGN.md §14) ---
  if (cfg_.tier.enabled())
    tier_ = std::make_unique<tier::TierBackend>(sim_, cfg_.tier,
                                                cfg_.fault_plan);

  // Shard the shared partition onto the server pool first so its pool id
  // is 0 and per-app partitions take 1..N in admission order — the same
  // deterministic placement stream as before, now compatible with mid-run
  // tenant admission (AddApp registers per-app partitions itself).
  global_partition_->set_pool_id(
      pool_->RegisterPartition(global_partition_->capacity()));
  pool_partitions_.push_back(global_partition_.get());

  // --- applications ---
  for (auto& spec : specs) AddApp(std::move(spec));

  CgroupSpec shared_spec;
  shared_spec.name = "cgroup-shared";
  shared_spec.local_mem_pages = global_cache_->capacity();
  shared_spec.swap_entry_limit = global_partition_->capacity();
  shared_cg_ = cgroups_.Create(shared_spec);
  if (two_dim_) two_dim_->RegisterCgroup(shared_cg_, 1.0);
}

std::size_t SwapSystem::AddApp(AppSpec spec) {
  // Slot assignment mirrors CgroupRegistry id reuse (lowest retired slot
  // first), preserving the "cgroup id == app index" invariant under churn.
  CgroupId cg = cgroups_.Create(spec.cgroup);
  std::size_t idx = std::size_t(cg);
  if (apps_.size() <= idx) apps_.resize(idx + 1);
  assert(!apps_[idx]);

  auto app = std::make_unique<AppState>();
  AppState* a = app.get();  // callbacks capture the tenant's stable address
  app->index = idx;
  app->name = spec.workload.name;
  app->managed = spec.workload.managed;
  app->cg = cg;
  app->arrived = sim_.Now();
  app->runtime = spec.workload.runtime
                     ? spec.workload.runtime
                     : std::make_shared<runtime::RuntimeInfo>();
  app->pages.resize(spec.workload.footprint_pages);
  app->shared_boundary = PageId(double(spec.workload.footprint_pages) *
                                spec.workload.shared_fraction);
  for (PageId p = 0; p < app->shared_boundary; ++p)
    app->pages[p].shared = true;
  app->lru = std::make_unique<mem::LruLists>(app->pages);

  if (cfg_.isolated_partitions) {
    app->owned_partition = std::make_unique<swapalloc::SwapPartition>(
        sim_, app->name, spec.cgroup.swap_entry_limit, cfg_.allocator);
    app->partition = app->owned_partition.get();
  } else {
    app->partition = global_partition_.get();
  }
  if (cfg_.isolated_caches) {
    app->owned_cache = std::make_unique<mem::SwapCache>(
        app->name, spec.cgroup.swap_cache_pages);
    app->cache = app->owned_cache.get();
  } else {
    app->cache = global_cache_.get();
  }
  if (cfg_.adaptive_alloc && cfg_.isolated_partitions) {
    app->reservation = std::make_unique<swapalloc::ReservationManager>(
        sim_, app->pages, *app->lru, *app->partition, cgroups_.Get(app->cg),
        swapalloc::ReservationManager::Config{});
    if (tier_) {
      // A reservation cancel that drops the entry holding the clean
      // remote copy must also drop tier residency (single-home
      // invariant: the resident index never outlives the entry).
      app->reservation->SetEntryLostHook(
          [this, a](mem::Page& p) { ReleaseTierResidency(*a, p); });
    }
  }

  // Threads: globally unique tids (never recycled), cores packed per
  // application. Streams move into the tenant so reaping frees them.
  app->streams = std::move(spec.workload.threads);
  CoreId base_core = next_core_;
  std::uint32_t cores = std::max<std::uint32_t>(spec.cgroup.cores, 1);
  next_core_ += cores;
  for (std::size_t t = 0; t < app->streams.size(); ++t) {
    ThreadCtx th;
    th.tid = next_tid_++;
    th.core = base_core + CoreId(t % cores);
    th.stream = app->streams[t].get();
    app->threads.push_back(th);
    auto kind = t < spec.workload.thread_kinds.size()
                    ? spec.workload.thread_kinds[t]
                    : runtime::ThreadKind::kApplication;
    app->runtime->RegisterThread(th.tid, kind);
  }
  for (auto& k : spec.workload.keepalive)
    app->keepalive.push_back(std::move(k));

  app->metrics.name = app->name;
  if (two_tier_)
    two_tier_->RegisterApp(app->cg, app->runtime.get(), app->managed);
  // Object-granularity cooperative swapping (DESIGN.md §16): attach the
  // workload's registry and a behaviour scheduler. Both gates must hold —
  // the config switch AND a workload-shipped registry — so page-granular
  // apps run unchanged even with the subsystem on.
  if (cfg_.objects.enabled && spec.workload.objects) {
    app->objects = spec.workload.objects;
    // Open behaviours may pin up to a quarter of the cgroup's local memory.
    app->behaviours = std::make_unique<object::BehaviourScheduler>(
        app->objects.get(),
        [this, a](const std::vector<PageId>& pages,
                  std::function<void()> ready) {
          CooperativeFetchAndPin(*a, pages, std::move(ready));
        },
        [this, a](const std::vector<PageId>& pages) {
          CooperativeRelease(*a, pages);
        },
        spec.cgroup.local_mem_pages / 4);
    app->behaviours->SetReadyCallback(
        [this, a](ThreadId tid) { OnBehaviourReady(*a, tid); });
    // Read-sets arrive through the cooperative channel: the speculative
    // tiers stand down for this cgroup.
    if (two_tier_) two_tier_->SetCooperative(app->cg, true);
    objects_active_ = true;
  }
  if (two_dim_) two_dim_->RegisterCgroup(app->cg, spec.cgroup.rdma_weight);
  if (app->owned_partition) {
    std::uint32_t pid =
        pool_->RegisterPartition(app->owned_partition->capacity());
    app->owned_partition->set_pool_id(pid);
    if (pool_partitions_.size() <= pid)
      pool_partitions_.resize(pid + 1, nullptr);
    pool_partitions_[pid] = app->owned_partition.get();
  }

  ++active_apps_;
  active_high_water_ = std::max(active_high_water_, active_apps_);
  if (idx < sampler_last_bytes_.size())
    sampler_last_bytes_[idx] = {{0.0, 0.0}};
  apps_[idx] = std::move(app);
  if (started_) {
    lifecycle_active_ = true;
    StartApp(*a);
  }
  return idx;
}

SwapSystem::~SwapSystem() = default;

void SwapSystem::Start() {
  started_ = true;
  if (injector_) injector_->Start();
  pool_->Start([this] { return RunActive(); });
  for (auto& app : apps_)
    if (app) StartApp(*app);
  if (tracer_.enabled() && cfg_.trace.sampler) {
    sampler_last_bytes_.assign(apps_.size(), {{0.0, 0.0}});
    sim_.Schedule(trace::kSamplePeriod, [this] { SampleTick(); });
  }
}

void SwapSystem::StartApp(AppState& app) {
  if (app.reservation) app.reservation->Start();
  for (auto& th : app.threads) {
    // Stagger thread start by a few ns for deterministic interleaving.
    sim_.Schedule(th.tid % 97, [this, a = &app, t = &th] {
      RunThread(*a, *t);
    });
  }
  sim_.Schedule(kKswapdPeriod, [this, a = &app] { KswapdTick(*a); });
}

void SwapSystem::SampleTick() {
  if (!RunActive()) return;  // stop sampling once the co-run drains
  sim_.Schedule(trace::kSamplePeriod, [this] { SampleTick(); });
  SimTime now = sim_.Now();
  double period_sec = double(trace::kSamplePeriod) / double(kSecond);
  if (sampler_last_bytes_.size() < apps_.size())
    sampler_last_bytes_.resize(apps_.size(), {{0.0, 0.0}});
  for (auto& app : apps_) {
    if (!app) continue;
    const Cgroup& cg = cgroups_.Get(app->cg);
    const AppMetrics& m = app->metrics;
    auto pid = std::uint32_t(app->index);
    tracer_.Counter(pid, trace::kCgroupTrack, trace::Name::kRssPages, now,
                    double(cg.resident_pages()));
    tracer_.Counter(pid, trace::kCgroupTrack, trace::Name::kCachePages, now,
                    double(cg.cache_pages()));
    tracer_.Counter(pid, trace::kCgroupTrack, trace::Name::kCacheHitRatio,
                    now,
                    m.faults ? double(m.faults_minor) / double(m.faults)
                             : 0.0);
    tracer_.Counter(pid, trace::kCgroupTrack, trace::Name::kPrefetchAccuracy,
                    now, m.AccuracyPct());
    tracer_.Counter(pid, trace::kCgroupTrack, trace::Name::kQueueDepth, now,
                    double(scheduler_->QueueDepth(app->cg)));
    // Bandwidth rate over the last period, from the NIC's cumulative
    // per-cgroup byte counters.
    for (auto dir : {rdma::Direction::kIngress, rdma::Direction::kEgress}) {
      double total = nic_->cgroup_bytes(app->cg, dir);
      double& last = sampler_last_bytes_[app->index][std::size_t(dir)];
      tracer_.Counter(pid, trace::kCgroupTrack,
                      dir == rdma::Direction::kIngress
                          ? trace::Name::kBandwidthIngress
                          : trace::Name::kBandwidthEgress,
                      now, (total - last) / period_sec);
      last = total;
    }
  }
  const auto& servers = pool_->servers();
  for (std::size_t s = 0; s < servers.size(); ++s) {
    tracer_.Counter(trace::kRemotePoolPid, std::uint32_t(s),
                    trace::Name::kServerInflight, now,
                    double(servers[s].inflight));
    tracer_.Counter(trace::kRemotePoolPid, std::uint32_t(s),
                    trace::Name::kServerSlabs, now,
                    double(servers[s].slabs_held));
  }
}

std::vector<std::string> SwapSystem::AppNames() const {
  std::vector<std::string> names;
  names.reserve(apps_.size());
  for (const auto& app : apps_)
    names.push_back(app ? app->name : std::string());
  return names;
}

void SwapSystem::KswapdTick(AppState& app) {
  if (app.reaped) return;  // stale tick captured a retired tenant's shell
  if (app.threads_done == app.threads.size()) return;  // stop ticking
  sim_.Schedule(kKswapdPeriod, [this, a = &app] { KswapdTick(*a); });
  Cgroup& cg = cgroups_.Get(app.cg);
  // Background reclaim keeps a free-frame watermark ahead of demand so
  // faulting threads rarely block in direct reclaim (kswapd).
  if (cg.charged_pages() + cfg_.kswapd_headroom > cg.spec().local_mem_pages &&
      app.active_reclaimers == 0) {
    ++app.active_reclaimers;
    ReclaimLoop(app, app.threads.empty() ? 0 : app.threads.front().core,
                kReclaimBatch);
  }
}

bool SwapSystem::AllFinished() const {
  for (const auto& app : apps_)
    if (app && app->threads_done != app->threads.size()) return false;
  return true;
}

// ---------------------------------------------------------------------------
// Tenant lifecycle (DESIGN.md §15)
// ---------------------------------------------------------------------------

SwapSystem::AppState* SwapSystem::AppFor(std::uint32_t owner) {
  return owner < apps_.size() ? apps_[owner].get() : nullptr;
}

void SwapSystem::RetireApp(std::size_t idx) {
  AppState* app = idx < apps_.size() ? apps_[idx].get() : nullptr;
  if (!app || app->retiring) return;
  app->retiring = true;
  lifecycle_active_ = true;
  ++pending_retirements_;
  ScheduleReapPoll();
}

void SwapSystem::ScheduleReapPoll() {
  if (reap_poll_scheduled_ || pending_retirements_ == 0) return;
  reap_poll_scheduled_ = true;
  sim_.Schedule(kReapPollPeriod, [this] {
    reap_poll_scheduled_ = false;
    TryReap();
    ScheduleReapPoll();
  });
}

void SwapSystem::TryReap() {
  // Ascending slot order keeps the reap (and therefore slot-reuse) stream
  // deterministic.
  for (std::size_t i = 0; i < apps_.size(); ++i) {
    AppState* app = apps_[i].get();
    if (!app || !app->retiring || app->reaped) continue;
    if (!AppQuiescentForReap(*app)) continue;
    ReapApp(*app);
  }
}

bool SwapSystem::AppQuiescentForReap(const AppState& app) const {
  if (app.threads_done != app.threads.size()) return false;
  if (app.prefetch_inflight != 0) return false;
  if (!app.frame_waiters.empty()) return false;
  if (app.active_reclaimers != 0) return false;
  if (app.reclaim_retry_scheduled) return false;
  for (const auto& p : app.pages)
    if (p.in_flight || p.under_writeback) return false;
  bool busy = false;
  waiters_.ForEach([&](std::uint64_t k, const auto&) {
    if ((k >> 48) == app.index) busy = true;
  });
  return !busy;
}

void SwapSystem::ReapApp(AppState& app) {
  std::size_t idx = app.index;
  RetiredAppRecord rec;
  rec.name = app.name;
  rec.cg = app.cg;
  rec.generation = cgroups_.generation(app.cg);
  rec.arrived = app.arrived;
  rec.retired_at = sim_.Now();
  rec.metrics = std::move(app.metrics);
  rec.sched_drops = scheduler_->drops_for(app.cg);
  // Fold the NIC's per-cgroup byte counters into the ledger and erase them
  // (ids recycle; the maps must stay O(active tenants)).
  auto bytes = nic_->ReleaseCgroup(app.cg);
  rec.ingress_bytes = bytes[std::size_t(rdma::Direction::kIngress)];
  rec.egress_bytes = bytes[std::size_t(rdma::Direction::kEgress)];

  // Release state the tenant holds in pools that outlive it: entries in the
  // shared partition, pages in the shared cache, tier residency, and the
  // shared cgroup's cache/remote charges for shared pages.
  for (PageId i = 0; i < app.pages.size(); ++i) {
    mem::Page& p = app.pages[i];
    ReleaseTierResidency(app, p);
    if (p.state == mem::PageState::kSwapCache) {
      CacheFor(app, p).Remove(app.cg, i);
      CgroupFor(app, p).UnchargeCache();
    }
    if (p.entry != kInvalidEntry) {
      if (&PartitionFor(app, p) == global_partition_.get()) FreeEntry(app, p);
      p.entry = kInvalidEntry;
    }
  }

  // Per-cgroup map cleanup across the stack (ids recycle).
  scheduler_->ForgetCgroup(app.cg);
  if (prefetcher_) {
    prefetcher_->Forget(app.cg);
    for (const auto& th : app.threads) prefetcher_->ForgetThread(th.tid);
  }
  if (app.owned_partition) {
    std::uint32_t pid = app.owned_partition->pool_id();
    pool_->ReleasePartition(pid);
    if (pid < pool_partitions_.size()) pool_partitions_[pid] = nullptr;
  }
  app.reservation.reset();  // pending scan ticks hold the alive token

  // Drop heavy state. The shell itself survives in retired_shells_ so stale
  // DES events that captured the AppState pointer stay safe (they check
  // `reaped`); a shell is O(threads), not O(pages).
  app.pages.clear();
  app.pages.shrink_to_fit();
  app.lru.reset();
  app.owned_partition.reset();
  app.owned_cache.reset();
  app.partition = nullptr;
  app.cache = nullptr;
  app.streams.clear();
  app.keepalive.clear();
  app.runtime.reset();
  // Object subsystem teardown (DESIGN.md §16): every behaviour already
  // unpinned at thread finish; Clear() bumps the registry generation so
  // handles that outlive the tenant fail Find/Pin safely.
  app.behaviours.reset();
  if (app.objects) {
    app.objects->Clear();
    app.objects.reset();
  }
  app.frame_waiters.clear();
  app.reaped = true;

  cgroups_.Retire(app.cg);
  --pending_retirements_;
  --active_apps_;
  retired_ledger_.push_back(std::move(rec));
  retired_shells_.push_back(std::move(apps_[idx]));
}

const AppMetrics& SwapSystem::metrics(std::size_t app) const {
  return apps_.at(app)->metrics;
}
const std::string& SwapSystem::app_name(std::size_t app) const {
  return apps_.at(app)->name;
}
CgroupId SwapSystem::cgroup_of(std::size_t app) const {
  return apps_.at(app)->cg;
}
const Cgroup& SwapSystem::cgroup(std::size_t app) const {
  return cgroups_.Get(apps_.at(app)->cg);
}
const swapalloc::SwapPartition& SwapSystem::partition(std::size_t app) const {
  return *apps_.at(app)->partition;
}
const mem::SwapCache& SwapSystem::cache(std::size_t app) const {
  return *apps_.at(app)->cache;
}
const swapalloc::ReservationManager* SwapSystem::reservation(
    std::size_t app) const {
  return apps_.at(app)->reservation.get();
}

double SwapSystem::Wmmr(rdma::Direction dir) const {
  double lo = 0, hi = 0;
  bool first = true;
  for (const auto& app : apps_) {
    if (!app) continue;
    double bytes = nic_->cgroup_bytes(app->cg, dir);
    if (bytes <= 0) continue;
    SimTime window = app->metrics.finish_time ? app->metrics.finish_time
                                              : sim_.Now();
    if (window == 0) continue;
    double share = bytes / double(window) /
                   cgroups_.Get(app->cg).spec().rdma_weight;
    if (first) {
      lo = hi = share;
      first = false;
    } else {
      lo = std::min(lo, share);
      hi = std::max(hi, share);
    }
  }
  return hi > 0 ? lo / hi : 1.0;
}

bool SwapSystem::Quiescent() const {
  if (!waiters_.empty()) return false;
  if (nic_ && nic_->pending_retries() != 0) return false;
  if (disk_->inflight() != 0) return false;
  if (tier_ && tier_->device().inflight() != 0) return false;
  for (const auto& app : apps_) {
    if (!app) continue;
    if (!app->frame_waiters.empty()) return false;
    if (app->active_reclaimers != 0) return false;
  }
  return true;
}

void SwapSystem::DumpState() const {
  for (const auto& app : apps_) {
    if (!app) continue;
    const Cgroup& cg = cgroups_.Get(app->cg);
    std::size_t blocked = 0;
    waiters_.ForEach([&](std::uint64_t k, const auto& v) {
      if ((k >> 48) == app->index) blocked += v.size();
    });
    std::fprintf(
        stderr,
        "[%s] threads %zu/%zu done, frame_waiters=%zu reclaimers=%u "
        "blocked_conts=%zu charged=%llu/%llu cache=%llu/%llu "
        "part_used=%llu/%llu lru=%llu\n",
        app->name.c_str(), app->threads_done, app->threads.size(),
        app->frame_waiters.size(), app->active_reclaimers, blocked,
        (unsigned long long)cg.charged_pages(),
        (unsigned long long)cg.spec().local_mem_pages,
        (unsigned long long)app->cache->size(),
        (unsigned long long)app->cache->capacity(),
        (unsigned long long)app->partition->allocator().used(),
        (unsigned long long)app->partition->capacity(),
        (unsigned long long)app->lru->total());
  }
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

swapalloc::SwapPartition& SwapSystem::PartitionFor(AppState& app,
                                                   const mem::Page& p) {
  return p.shared ? *global_partition_ : *app.partition;
}
mem::SwapCache& SwapSystem::CacheFor(AppState& app, const mem::Page& p) {
  return p.shared ? *global_cache_ : *app.cache;
}
Cgroup& SwapSystem::CgroupFor(AppState& app, const mem::Page& p) {
  return p.shared && cfg_.isolated_caches ? cgroups_.Get(shared_cg_)
                                          : cgroups_.Get(app.cg);
}

bool SwapSystem::RemotePathDown(AppState& app) {
  return injector_ &&
         (injector_->FabricDown(sim_.Now()) ||
          cgroups_.Get(app.cg).backend() != SwapBackend::kRemote);
}

void SwapSystem::TouchResident(AppState& app, workload::Access acc) {
  app.lru->Touch(acc.page);
  if (acc.write) MarkDirty(app, app.pages[acc.page]);
  ++app.metrics.accesses;
}

void SwapSystem::ZeroFill(AppState& app, PageId page) {
  mem::Page& p = app.pages[page];
  p.state = mem::PageState::kResident;
  p.dirty = true;  // anonymous page with no backing store yet
  ++p.content_version;
  cgroups_.Get(app.cg).ChargeResident();
  app.lru->AddActive(page);
}

void SwapSystem::ClearPrefetchTs(AppState& app, const mem::Page& p) {
  if (p.entry != kInvalidEntry)
    PartitionFor(app, p).meta(p.entry).prefetch_ts = kTimeNever;
}

std::uint64_t SwapSystem::WaiterKey(const AppState& app, PageId page) const {
  return PackAppPage(CgroupId(app.index), page);
}

void SwapSystem::WakeWaiters(AppState& app, PageId page) {
  std::uint64_t key = WaiterKey(app, page);
  auto* found = waiters_.Find(key);
  if (!found) return;
  // Detach before invoking: continuations may block on this page again.
  auto conts = std::move(*found);
  waiters_.Erase(key);
  tracer_.Instant(std::uint32_t(app.index), trace::kCgroupTrack,
                  trace::Name::kWake, sim_.Now(), conts.size());
  for (auto& c : conts) c();
}

void SwapSystem::MarkDirty(AppState& app, mem::Page& p) {
  if (p.dirty) return;
  p.dirty = true;
  // Each dirtying epoch is a new content version; writeback records the
  // version into the entry metadata and swap-in checks it (the chaos
  // suite's no-stale-read oracle).
  ++p.content_version;
  // Entry-keeping release (Appendix B): once a clean page is dirtied its
  // kept swap entry must be released — unless the entry is a Canvas
  // reservation, which is exactly what makes the next swap-out lock-free.
  if (p.entry != kInvalidEntry && p.entry != p.reserved) FreeEntry(app, p);
}

void SwapSystem::FreeEntry(AppState& app, mem::Page& p) {
  auto& part = PartitionFor(app, p);
  ReleaseTierResidency(app, p);
  part.meta(p.entry) = swapalloc::EntryMeta{};
  part.allocator().Free(p.entry);
  CgroupFor(app, p).UnchargeRemote();
  p.entry = kInvalidEntry;
  p.home = SwapBackend::kRemote;
}

void SwapSystem::CheckSwapInOracle(AppState& app, mem::Page& p,
                                   const rdma::Request& r) {
  if (r.entry != kInvalidEntry && r.entry == p.entry) {
    const auto& m = PartitionFor(app, p).meta(r.entry);
    // The copy just served must carry the content version recorded at the
    // last writeback and must have come from the backend that holds it.
    if (m.content_version != p.content_version || m.home != r.served_by)
      ++app.metrics.stale_reads;
  }
  // A completed remote transfer proves the fabric works again: reset the
  // cgroup's consecutive-failure streak (tier- and disk-served requests
  // never touched the fabric, so they prove nothing).
  if (r.served_by == SwapBackend::kRemote)
    cgroups_.Get(app.cg).NoteRemoteSuccess();
}

// ---------------------------------------------------------------------------
// Fault recovery (DESIGN.md §8)
// ---------------------------------------------------------------------------

void SwapSystem::OnFabricDown(int server) {
  if (server != fault::kAllServers) {
    // Per-server failover: only this server's slabs move to disk; the rest
    // of the pool (and the fabric) keeps serving.
    tracer_.Instant(trace::kRemotePoolPid, std::uint32_t(server),
                    trace::Name::kServerDown, sim_.Now());
    pool_->MarkServerDown(server);
    return;
  }
  tracer_.Instant(trace::kRdmaPid, trace::kFabricControlTrack,
                  trace::Name::kServerDown, sim_.Now());
  // Proactive failover: every cgroup's writeback traffic turns toward the
  // local disk for the duration of the blackout.
  for (auto& app : apps_)
    if (app) FailoverApp(*app);
  // Drain queued work that would otherwise march into the dead fabric.
  // In-flight attempts are already doomed to time out (the NIC decides an
  // attempt's fate from the full blackout schedule at dispatch), so only
  // *queued* requests need rescuing here. Demand reads stay queued — their
  // only copy is remote and the retry/reissue loop will see them through.
  auto drained = scheduler_->DrainMatching([](const rdma::Request& r) {
    return r.op != rdma::Op::kDemandIn;
  });
  for (auto& r : drained) {
    AppState* ownp = AppFor(r->owner_app);
    if (!ownp) continue;  // reaped tenants have no queued requests
    AppState& owner = *ownp;
    if (r->op == rdma::Op::kSwapOut) {
      // Blackout failover ordering (DESIGN.md §14): the local tier is the
      // first stop — device latency, not disk latency — with per-request
      // spill to the disk backstop when it is full, frozen, or over quota.
      bool tierable = tier_ && !owner.pages[r->page].shared;
      bool admitted =
          tierable && tier_->Admit(WaiterKey(owner, r->page), owner.cg);
      if (tierable && !admitted) ++owner.metrics.tier_rejects;
      SubmitLocal(owner,
                  admitted ? SwapBackend::kLocalTier : SwapBackend::kLocalDisk,
                  std::move(r));
    } else if (r->on_drop) {
      // Prefetch: the drop handler unwinds the in-flight page state and
      // rescues any waiters, exactly as a scheduler drop would.
      r->on_drop(*r);
    }
  }
}

void SwapSystem::OnFabricUp(int server) {
  if (server != fault::kAllServers) {
    tracer_.Instant(trace::kRemotePoolPid, std::uint32_t(server),
                    trace::Name::kServerUp, sim_.Now());
    // Capacity is reachable again; slabs evicted during the outage stay on
    // disk (their data lives there now) and re-place on future churn.
    pool_->MarkServerUp(server);
    return;
  }
  tracer_.Instant(trace::kRdmaPid, trace::kFabricControlTrack,
                  trace::Name::kServerUp, sim_.Now());
  for (auto& app : apps_)
    if (app) FailbackApp(*app);
}

void SwapSystem::NoteExhausted(AppState& app) {
  Cgroup& cg = cgroups_.Get(app.cg);
  if (cg.NoteExhausted() >= kFailoverAfterExhausted)
    FailoverApp(app);
}

void SwapSystem::FailoverApp(AppState& app) {
  Cgroup& cg = cgroups_.Get(app.cg);
  if (cg.backend() != SwapBackend::kRemote) return;
  // First failover stop (DESIGN.md §14): a tier absorbs redirected
  // writebacks at slow-memory latency; IssueSwapOut spills individual
  // rejections to the disk backstop.
  cg.SetBackend(tier_ ? SwapBackend::kLocalTier : SwapBackend::kLocalDisk);
  if (tier_) ++app.metrics.tier_failovers;
  ++app.metrics.failovers;
  tracer_.Instant(std::uint32_t(app.index), trace::kCgroupTrack,
                  trace::Name::kFailover, sim_.Now());
  ScheduleFailbackProbe(app);
}

void SwapSystem::FailbackApp(AppState& app) {
  Cgroup& cg = cgroups_.Get(app.cg);
  if (cg.backend() == SwapBackend::kRemote) return;
  cg.SetBackend(SwapBackend::kRemote);
  cg.NoteRemoteSuccess();
  ++app.metrics.failbacks;
  tracer_.Instant(std::uint32_t(app.index), trace::kCgroupTrack,
                  trace::Name::kFailback, sim_.Now());
}

void SwapSystem::ScheduleFailbackProbe(AppState& app) {
  sim_.Schedule(kFailbackDelay, [this, a = &app] {
    if (a->reaped) return;  // the tenant (and its cgroup id) is gone
    Cgroup& cg = cgroups_.Get(a->cg);
    if (cg.backend() == SwapBackend::kRemote) return;  // already back
    if (injector_ && injector_->FabricDown(sim_.Now())) {
      ScheduleFailbackProbe(*a);  // still dark: probe again later
      return;
    }
    FailbackApp(*a);
  });
}

void SwapSystem::ReissueDemand(AppState& app, rdma::RequestPtr req) {
  // A demand read ran out of retries. Its page's only copy is remote, so
  // the request cannot fail over — it is re-enqueued (callbacks intact)
  // after a pause and keeps trying until the fabric heals.
  ++app.metrics.rdma_exhausted;
  NoteExhausted(app);
  if (SlabOnDisk(*req)) {
    // The slab was evicted (harvest or server failover) while this read was
    // burning retries: the data now lives on the disk backend, so reissuing
    // remotely would spin forever. Route it home.
    SubmitLocal(app, SwapBackend::kLocalDisk, std::move(req));
    return;
  }
  ++app.metrics.demand_reissues;
  req->attempts = 0;
  req->status = rdma::RequestStatus::kOk;
  // Moved into the event so an abandoned run (deadline miss) still frees
  // the in-flight request when the simulator tears down its queue.
  sim_.Schedule(kDemandReissueDelay,
                [this, r = std::move(req)]() mutable {
                  scheduler_->Enqueue(std::move(r));
                });
}

// ---------------------------------------------------------------------------
// Remote memory-server pool (DESIGN.md §11)
// ---------------------------------------------------------------------------

bool SwapSystem::SlabOnDisk(const rdma::Request& r) const {
  return r.partition != rdma::kNoPoolPartition &&
         pool_->OnDisk(r.partition, r.entry);
}

SwapBackend SwapSystem::WrittenHome(const rdma::Request& r) const {
  // A remote writeback whose slab was harvested mid-flight landed on a
  // server that immediately forwarded it to disk.
  return r.served_by == SwapBackend::kRemote && SlabOnDisk(r)
             ? SwapBackend::kLocalDisk
             : r.served_by;
}

void SwapSystem::StampPool(AppState& app, const mem::Page& p,
                           rdma::Request& req, bool place) {
  if (req.entry == kInvalidEntry) return;
  req.partition = PartitionFor(app, p).pool_id();
  if (place) pool_->EnsurePlaced(req.partition, req.entry);
}

void SwapSystem::OnSlabEvicted(std::uint32_t pid, std::uint64_t lo,
                               std::uint64_t hi) {
  swapalloc::SwapPartition* part =
      pid < pool_partitions_.size() ? pool_partitions_[pid] : nullptr;
  if (!part) return;

  // 1. The disk is now the copy of record for every entry in the slab
  //    (unwritten entries get overwritten consistently at their first
  //    writeback, which the disk-homed routing sends straight to disk).
  //    Tier-resident entries are untouched: their copy of record lives in
  //    the local tier, not on the harvested server.
  for (std::uint64_t e = lo; e < hi; ++e)
    if (part->meta(e).home != SwapBackend::kLocalTier)
      part->meta(e).home = SwapBackend::kLocalDisk;

  // 2. Redirect page backing, and collect in-flight reads whose remote
  //    completion would now trip the copy-of-record oracle.
  struct Rescue {
    AppState* app;
    PageId page;
  };
  std::vector<Rescue> rescues;
  for (auto& app : apps_) {
    if (!app) continue;
    for (PageId i = 0; i < app->pages.size(); ++i) {
      mem::Page& p = app->pages[i];
      if (p.entry == kInvalidEntry || p.entry < lo || p.entry >= hi) continue;
      if (&PartitionFor(*app, p) != part) continue;
      if (p.home == SwapBackend::kLocalTier) continue;  // tier copy unaffected
      p.home = SwapBackend::kLocalDisk;
      if (p.state == mem::PageState::kSwapCache && p.in_flight &&
          !p.under_writeback)
        rescues.push_back({app.get(), i});
    }
  }

  // 3. Queued requests for the range must not march toward the old server.
  auto drained =
      scheduler_->DrainMatching([pid, lo, hi](const rdma::Request& r) {
        return r.partition == pid && r.entry >= lo && r.entry < hi;
      });
  std::vector<std::uint64_t> redirected;
  for (auto& r : drained) {
    AppState* ownp = AppFor(r->owner_app);
    if (!ownp) continue;  // reaped tenants have no queued requests
    AppState& owner = *ownp;
    if (r->op == rdma::Op::kSwapOut) {
      SubmitLocal(owner, SwapBackend::kLocalDisk, std::move(r));
    } else if (r->op == rdma::Op::kDemandIn) {
      redirected.push_back(WaiterKey(owner, r->page));
      SubmitLocal(owner, SwapBackend::kLocalDisk, std::move(r));
    } else if (r->on_drop) {
      // Prefetch: the drop handler unwinds the page or converts it to a
      // rescue demand, which now routes to the disk (the page's home).
      redirected.push_back(WaiterKey(owner, r->page));
      r->on_drop(*r);
    }
  }

  // 4. Reads already on the wire: take the page over via the incarnation
  //    (seq-bump) protocol so the stale remote completion discards itself,
  //    and fetch the authoritative copy from the disk instead.
  for (const Rescue& rs : rescues) {
    mem::Page& p = rs.app->pages[rs.page];
    if (p.state != mem::PageState::kSwapCache || !p.in_flight) continue;
    if (std::find(redirected.begin(), redirected.end(),
                  WaiterKey(*rs.app, rs.page)) != redirected.end())
      continue;
    IssueRescueDemand(*rs.app, rs.page);
  }
}

// ---------------------------------------------------------------------------
// Hybrid local tier (DESIGN.md §14)
// ---------------------------------------------------------------------------

void SwapSystem::ReleaseTierResidency(AppState& app, mem::Page& p) {
  if (p.home != SwapBackend::kLocalTier) return;
  PageId page = PageId(&p - app.pages.data());
  tier_->Release(WaiterKey(app, page));
  p.home = SwapBackend::kRemote;
}

void SwapSystem::BeginStall(ThreadCtx& th) { th.stall_started = sim_.Now(); }

void SwapSystem::EndStall(AppState& app, ThreadCtx& th, PageId page) {
  SimDuration stalled = sim_.Now() - th.stall_started;
  app.metrics.fault_stall += stalled;
  // Always-on latency sample (report percentiles must not depend on the
  // trace ring toggle).
  app.metrics.fault_latency.Add(std::uint64_t(stalled));
  tracer_.Span(std::uint32_t(app.index), ThreadTrack(th), trace::Name::kFault,
               th.stall_started, sim_.Now(), page);
}

// ---------------------------------------------------------------------------
// Thread execution
// ---------------------------------------------------------------------------

void SwapSystem::RunThread(AppState& app, ThreadCtx& th) {
  if (th.done) return;
  if (app.retiring) {
    // Tenant departure (DESIGN.md §15): the thread drains at its next
    // dispatch instead of replaying the rest of its stream.
    FinishThread(app, th, 0);
    return;
  }
  // Behaviour scheduling (DESIGN.md §16): before dispatching accesses,
  // retire a finished behaviour and make sure the next one's read-set is
  // pinned locally. True = the thread parked until the batch arrives.
  if (app.behaviours && PumpBehaviours(app, th)) return;
  SimDuration elapsed = 0;
  for (int i = 0; i < kAccessBatch; ++i) {
    if (app.behaviours && th.stream->NextBehaviour() != th.behaviour) {
      // Behaviour boundary mid-batch: re-enter through the pump so the
      // finished behaviour unpins and the next read-set is fetched.
      sim_.Schedule(elapsed, [this, a = &app, t = &th] { RunThread(*a, *t); });
      return;
    }
    // Pass the instant this access will start executing so open-loop
    // streams can pace against their absolute arrival schedule.
    auto acc = th.stream->NextAt(sim_.Now() + elapsed);
    if (!acc) {
      FinishThread(app, th, elapsed);
      return;
    }
    elapsed += acc->compute_ns;
    app.metrics.busy_time += acc->compute_ns;
    if (acc->page >= app.pages.size()) continue;  // defensive clamp
    if (app.pages[acc->page].state == mem::PageState::kResident) {
      TouchResident(app, *acc);
      continue;
    }
    // Fault: hand off to the fault path at the access instant.
    sim_.Schedule(elapsed, [this, a = &app, t = &th, acc = *acc] {
      BeginStall(*t);
      HandleFault(*a, *t, acc, /*retry=*/false);
    });
    return;
  }
  sim_.Schedule(elapsed, [this, a = &app, t = &th] { RunThread(*a, *t); });
}

void SwapSystem::FinishThread(AppState& app, ThreadCtx& th,
                              SimDuration elapsed) {
  sim_.Schedule(elapsed, [this, a = &app, t = &th] {
    t->done = true;
    t->finish = sim_.Now();
    // Threads finish in time order, so the last one sets the app's finish;
    // an app with an unfinished thread keeps finish_time == 0.
    if (++a->threads_done == a->threads.size())
      a->metrics.finish_time = t->finish;
    if (a->behaviours) {
      // Unpin everything the thread still holds (open + lookahead
      // behaviours) so the pages rejoin normal eviction and the tenant can
      // quiesce for reap.
      a->behaviours->ReleaseThread(t->tid);
      t->behaviour = object::kNoBehaviour;
      // Mirror scheduler/registry counters into AppMetrics.
      const object::BehaviourStats& st = a->behaviours->stats();
      AppMetrics& m = a->metrics;
      m.behaviours_declared = st.declared;
      m.behaviours_dispatched = st.dispatched;
      m.behaviours_completed = st.completed;
      m.object_stale_handles = st.stale_reads;
      m.behaviour_deferrals = st.budget_deferrals;
      m.object_pins = a->objects->pins_issued();
      m.object_unpins = a->objects->pins_released();
    }
  });
}

// ---------------------------------------------------------------------------
// Fault path
// ---------------------------------------------------------------------------

void SwapSystem::ResumeThread(AppState& app, ThreadCtx& th, PageId page) {
  EndStall(app, th, page);
  RunThread(app, th);
}

void SwapSystem::HandleFault(AppState& app, ThreadCtx& th,
                             workload::Access acc, bool retry) {
  switch (app.pages[acc.page].state) {
    case mem::PageState::kResident: {
      // Raced with another thread that faulted the page in.
      TouchResident(app, acc);
      sim_.Schedule(kSpuriousFaultCost, [this, a = &app, t = &th,
                                         page = acc.page] {
        ResumeThread(*a, *t, page);
      });
      return;
    }
    case mem::PageState::kUntouched: {
      if (!retry) {
        ++app.metrics.first_touches;
      }
      EnsureFrame(app, th.core, [this, a = &app, t = &th, acc] {
        if (a->pages[acc.page].state != mem::PageState::kUntouched) {
          // Another thread first-touched the page while we waited.
          HandleFault(*a, *t, acc, /*retry=*/true);
          return;
        }
        ZeroFill(*a, acc.page);
        ++a->metrics.accesses;
        sim_.Schedule(kFirstTouchCost, [this, a, t, page = acc.page] {
          ResumeThread(*a, *t, page);
        });
      });
      return;
    }
    case mem::PageState::kSwapCache:
      FaultOnCachedPage(app, th, acc, retry);
      return;
    case mem::PageState::kRemote:
      if (!retry) {
        ++app.metrics.faults;
      }
      DemandSwapIn(app, th, acc);
      return;
  }
}

void SwapSystem::FaultOnCachedPage(AppState& app, ThreadCtx& th,
                                   workload::Access acc, bool retry) {
  mem::Page& p = app.pages[acc.page];
  if (!retry) {
    ++app.metrics.faults;
    ++app.metrics.faults_minor;
    if (p.prefetched_unused || p.in_flight_prefetch)
      ++app.metrics.faults_minor_prefetched;
  }
  if (p.in_flight || p.under_writeback) {
    // In flight (swap-in, prefetch, or writeback): block until resolution,
    // then re-fault. The fault still feeds the pattern detectors — the
    // kernel observes it regardless of how it resolves.
    if (!retry)
      IssuePrefetches(app, prefetch::FaultInfo{app.cg, acc.page, th.tid,
                                               sim_.Now(),
                                               /*cache_hit=*/true});
    auto refault = [this, a = &app, t = &th, acc] {
      HandleFault(*a, *t, acc, /*retry=*/true);
    };
    if (p.in_flight && p.in_flight_prefetch && cfg_.horizontal_sched &&
        p.entry != kInvalidEntry) {
      // §5.3 blocked-thread rescue: if the outstanding prefetch is already
      // older than the timeout threshold, drop it logically and issue a
      // demand request; otherwise arm a timeout check.
      auto& meta = PartitionFor(app, p).meta(p.entry);
      if (meta.prefetch_ts != kTimeNever && two_dim_) {
        // Rescue is a last resort: the request is already in flight, so a
        // duplicate demand only pays off well past the drop threshold.
        SimDuration threshold =
            4 * two_dim_->timeliness().Threshold(app.cg);
        SimDuration elapsed = sim_.Now() - meta.prefetch_ts;
        if (elapsed > threshold) {
          ++app.metrics.rescues;
          meta.valid = false;
          IssueRescueDemand(app, acc.page);
        } else {
          // Check again when the budget runs out.
          sim_.Schedule(threshold - elapsed, [this, a = &app, page = acc.page,
                                              expected = p.seq] {
            if (a->reaped) return;  // shell: pages are gone
            mem::Page& pg = a->pages[page];
            if (pg.seq != expected) return;  // a different incarnation now
            if (pg.state != mem::PageState::kSwapCache || !pg.in_flight ||
                !pg.in_flight_prefetch || pg.entry == kInvalidEntry)
              return;
            auto& m = PartitionFor(*a, pg).meta(pg.entry);
            if (m.prefetch_ts == kTimeNever) return;
            ++a->metrics.rescues;
            m.valid = false;
            IssueRescueDemand(*a, page);
          });
        }
      }
    }
    waiters_[WaiterKey(app, acc.page)].push_back(std::move(refault));
    return;
  }
  // Plain minor fault: map the cached page. The fault is still
  // kernel-visible (the PTE was unmapped), so it feeds the prefetcher —
  // this is how readahead windows keep growing across their own hits.
  sim_.Schedule(kMapCost, [this, a = &app, t = &th, acc] {
    if (MapIfIdle(*a, *t, acc)) {
      IssuePrefetches(*a,
                      prefetch::FaultInfo{a->cg, acc.page, t->tid, sim_.Now(),
                                          /*cache_hit=*/true});
      ResumeThread(*a, *t, acc.page);
    } else {
      // Raced: re-fault.
      HandleFault(*a, *t, acc, /*retry=*/true);
    }
  });
}

bool SwapSystem::MapIfIdle(AppState& app, ThreadCtx& th, workload::Access acc) {
  mem::Page& p = app.pages[acc.page];
  if (p.state != mem::PageState::kSwapCache || p.in_flight ||
      p.under_writeback)
    return false;
  tracer_.Span(std::uint32_t(app.index), ThreadTrack(th), trace::Name::kMap,
               sim_.Now() - kMapCost, sim_.Now(), acc.page);
  MapCachedPage(app, acc.page);
  if (acc.write) MarkDirty(app, p);
  ++app.metrics.accesses;
  return true;
}

void SwapSystem::MapCachedPage(AppState& app, PageId page) {
  mem::Page& p = app.pages[page];
  assert(p.state == mem::PageState::kSwapCache && !p.in_flight &&
         !p.under_writeback);
  CacheFor(app, p).Remove(app.cg, page);
  CgroupFor(app, p).UnchargeCache();
  cgroups_.Get(app.cg).ChargeResident();
  p.state = mem::PageState::kResident;
  ++p.seq;
  app.lru->AddActive(page);
  if (p.prefetched_unused) {
    p.prefetched_unused = false;
    ++app.metrics.prefetch_used;
    tracer_.Instant(std::uint32_t(app.index), trace::kCgroupTrack,
                    trace::Name::kPrefetchHit, sim_.Now(), page);
    if (p.entry != kInvalidEntry) {
      auto& meta = PartitionFor(app, p).meta(p.entry);
      if (meta.prefetch_ts != kTimeNever) {
        if (two_dim_)
          two_dim_->timeliness().Record(app.cg, sim_.Now() - meta.prefetch_ts);
        meta.prefetch_ts = kTimeNever;
      }
    }
    if (prefetcher_) prefetcher_->OnPrefetchUsed(app.cg, page);
  }
  // Entry-keeping threshold (Appendix B): when swap space runs low, the
  // kernel frees the entry at swap-in instead of keeping the clean copy.
  if (!app.reservation && p.entry != kInvalidEntry &&
      p.entry != p.reserved) {
    double free_frac = 1.0 - PartitionFor(app, p).allocator().Utilization();
    if (free_frac < kEntryKeepFreeThreshold) {
      FreeEntry(app, p);
      p.dirty = true;  // no backing copy: next eviction writes back
    }
  }
  // Adaptive allocator: cancel-on-arrival, debt-matched (§5.1 time/space
  // trade-off applied at the swap-in boundary).
  if (app.reservation && !p.shared)
    app.reservation->MaybeCancelOnArrival(p);
}

void SwapSystem::DemandSwapIn(AppState& app, ThreadCtx& th,
                              workload::Access acc) {
  ++app.metrics.faults_major;
  tracer_.Span(std::uint32_t(app.index), ThreadTrack(th),
               trace::Name::kSwapCacheLookup, sim_.Now(),
               sim_.Now() + kFaultEntryCost, acc.page);
  // The trap/lookup cost precedes the charge + I/O issue. The closures carry
  // only the fault instant; the prefetcher's FaultInfo is rebuilt from it
  // (keeping each hop inside InlineCallback's buffer).
  sim_.Schedule(kFaultEntryCost, [this, a = &app, t = &th, acc,
                                  fault_at = sim_.Now()] {
    mem::Page& p = a->pages[acc.page];
    if (p.state != mem::PageState::kRemote) {
      // Another thread started (or finished) handling this page meanwhile.
      HandleFault(*a, *t, acc, /*retry=*/true);
      return;
    }
    EnsureFrame(*a, t->core, [this, a, t, acc, fault_at] {
      mem::Page& pg = a->pages[acc.page];
      if (pg.state != mem::PageState::kRemote) {
        HandleFault(*a, *t, acc, /*retry=*/true);
        return;
      }
      CgroupFor(*a, pg).ChargeCache();
      CacheFor(*a, pg).Insert(a->cg, acc.page, /*locked=*/true,
                              /*prefetched=*/false, sim_.Now());
      pg.state = mem::PageState::kSwapCache;
      pg.in_flight = true;
      pg.in_flight_prefetch = false;
      std::uint32_t expected = ++pg.seq;
      ClearPrefetchTs(*a, pg);

      auto req = NewRequest(*a, acc.page, pg.entry, rdma::Op::kDemandIn,
                            pg.shared ? shared_cg_ : a->cg, /*place=*/false);
      req->on_complete = [this, a, t, acc,
                          expected](const rdma::Request& r) {
        PageId page = acc.page;
        if (tracer_.enabled()) {
          // Queueing and DMA windows from the request's own timestamps —
          // these abut, and both nest inside the thread's fault span.
          auto pid = std::uint32_t(a->index);
          tracer_.Span(pid, ThreadTrack(*t), trace::Name::kRdmaQueue,
                       r.created, r.dispatched, page);
          tracer_.Span(pid, ThreadTrack(*t), trace::Name::kRdmaDma,
                       r.dispatched, r.completed, page);
        }
        mem::Page& pg2 = a->pages[page];
        if (pg2.seq != expected) {
          // The page moved on (a stale rescue unlocked it early): resolve
          // the thread's access through a fresh fault instead.
          HandleFault(*a, *t, acc, /*retry=*/true);
          return;
        }
        LandRead(*a, page, r);
        sim_.Schedule(kMapCost, [this, a, t, acc, expected] {
          bool mapped =
              a->pages[acc.page].seq == expected && MapIfIdle(*a, *t, acc);
          WakeWaiters(*a, acc.page);
          if (mapped)
            ResumeThread(*a, *t, acc.page);
          else
            HandleFault(*a, *t, acc, /*retry=*/true);
        });
      };
      SubmitRead(*a, acc.page, std::move(req));
      IssuePrefetches(*a, prefetch::FaultInfo{a->cg, acc.page, t->tid,
                                              fault_at, /*cache_hit=*/false});
      ShrinkCache(*a, a->cache->capacity());
    });
  });
}

void SwapSystem::IssuePrefetches(AppState& app,
                                 const prefetch::FaultInfo& info) {
  if (!prefetcher_) return;
  // A retiring tenant only finishes in-flight work; speculative reads would
  // just delay its reap.
  if (app.retiring) return;
  // Speculative reads are pure waste while the fabric is dark or the cgroup
  // is failed over to the disk (no disk prefetch path is modeled); demand
  // traffic keeps the detectors warm for recovery. A server-targeted
  // blackout leaves the fabric up: its pages are disk-backed, and the
  // candidate loop below skips those.
  if (RemotePathDown(app)) return;
  prefetch_buf_.clear();
  prefetcher_->OnFault(info, prefetch_buf_);
  Cgroup& cg = cgroups_.Get(app.cg);
  bool charged_over = false;
  for (PageId cand : prefetch_buf_) {
    if (app.prefetch_inflight >= kMaxInflightPrefetch) break;
    if (cand >= app.pages.size()) continue;
    mem::Page& p = app.pages[cand];
    if (p.state != mem::PageState::kRemote || p.shared) continue;
    if (p.entry == kInvalidEntry || p.home != SwapBackend::kRemote) continue;
    // Prefetches may transiently overshoot the memory budget by one reclaim
    // batch (kernel watermark slack); background reclaim below pushes the
    // usage back down by evicting LRU pages — prefetched data displacing
    // resident pages is the cache-pollution dynamic of §3.
    if (cg.charged_pages() + 1 > cg.spec().local_mem_pages + kReclaimBatch)
      break;
    if (cg.charged_pages() + 1 > cg.spec().local_mem_pages)
      charged_over = true;
    IssueAsyncRead(app, cand, /*speculative=*/true);
  }
  // kswapd analogue: bring usage back under the limit in the background.
  if (charged_over && app.active_reclaimers == 0) {
    ++app.active_reclaimers;
    ReclaimLoop(app, app.threads.empty() ? 0 : app.threads.front().core,
                kReclaimBatch);
  }
}

void SwapSystem::IssueAsyncRead(AppState& app, PageId page, bool speculative) {
  // Callers guarantee: kRemote, not shared, entry valid, remote path up.
  // StepObjectPage checked the page was not disk-backed, but its slab may
  // have gone to disk while it waited for a frame; SubmitRead then reads
  // the disk. A tier-homed page is read from the tier, which always
  // completes, so on_drop stays unused there.
  mem::Page& p = app.pages[page];
  cgroups_.Get(app.cg).ChargeCache();
  app.cache->Insert(app.cg, page, /*locked=*/true, speculative, sim_.Now());
  p.state = mem::PageState::kSwapCache;
  p.in_flight = true;
  p.in_flight_prefetch = true;  // async class: §5.3 drop and rescue apply
  p.prefetched_unused = speculative;  // a declared read keeps accuracy clean
  std::uint32_t expected = ++p.seq;
  auto& pmeta = PartitionFor(app, p).meta(p.entry);
  pmeta.prefetch_ts = sim_.Now();
  pmeta.valid = true;
  ++(speculative ? app.metrics.prefetch_issued : app.metrics.object_fetches);
  // Declared reads skip the kMaxInflightPrefetch cap (the pin budget bounds
  // them) but still count here for reap quiescence.
  ++app.prefetch_inflight;
  tracer_.Instant(std::uint32_t(app.index), trace::kCgroupTrack,
                  trace::Name::kPrefetchIssue, sim_.Now(), page);

  auto req = NewRequest(app, page, p.entry, rdma::Op::kPrefetchIn, app.cg,
                        /*place=*/false);
  req->on_complete = [this, a = &app, page, expected,
                      speculative](const rdma::Request& r) {
    if (a->prefetch_inflight > 0) --a->prefetch_inflight;
    mem::Page& pg = a->pages[page];
    if (pg.seq != expected) return;  // page moved on
    if (pg.entry != kInvalidEntry) {
      auto& m = PartitionFor(*a, pg).meta(pg.entry);
      if (!m.valid) {
        // A rescuing demand request took over this page (§5.3): the stale
        // read discards itself.
        m.valid = true;
        ++a->metrics.prefetch_discarded;
        tracer_.Instant(std::uint32_t(a->index), trace::kCgroupTrack,
                        trace::Name::kPrefetchDiscard, sim_.Now(), page);
        return;
      }
    }
    if (pg.state != mem::PageState::kSwapCache || !pg.in_flight) return;
    if (speculative) ++a->metrics.prefetch_completed;
    LandRead(*a, page, r);
    WakeWaiters(*a, page);  // a declared read's batch continuation re-steps
    // Enforce the cache budget after arrival.
    ShrinkCache(*a, a->cache->capacity());
  };
  req->on_drop = [this, a = &app, page, expected](const rdma::Request&) {
    if (a->prefetch_inflight > 0) --a->prefetch_inflight;
    mem::Page& pg = a->pages[page];
    ++a->metrics.prefetch_dropped;
    tracer_.Instant(std::uint32_t(a->index), trace::kCgroupTrack,
                    trace::Name::kPrefetchDrop, sim_.Now(), page);
    if (pg.seq != expected) return;  // a rescue demand owns the page now
    if (waiters_.Contains(WaiterKey(*a, page))) {
      // Threads (or a declared read's batch) already block on this page:
      // convert to a demand fetch.
      IssueRescueDemand(*a, page);
      return;
    }
    // Nobody needs it yet: unwind the in-flight state entirely.
    a->cache->Remove(a->cg, page);
    CgroupFor(*a, pg).UnchargeCache();
    pg.state = mem::PageState::kRemote;
    pg.in_flight = false;
    pg.in_flight_prefetch = false;
    pg.prefetched_unused = false;
    ClearPrefetchTs(*a, pg);
    GrantFrames(*a);
  };
  SubmitRead(app, page, std::move(req));
}

void SwapSystem::IssueRescueDemand(AppState& app, PageId page) {
  mem::Page& p = app.pages[page];
  assert(p.state == mem::PageState::kSwapCache && p.in_flight);
  p.in_flight_prefetch = false;
  p.prefetched_unused = false;
  ClearPrefetchTs(app, p);
  tracer_.Instant(std::uint32_t(app.index), trace::kCgroupTrack,
                  trace::Name::kRescue, sim_.Now(), page);
  std::uint32_t expected = ++p.seq;  // take over from the stale prefetch
  auto req = NewRequest(app, page, p.entry, rdma::Op::kDemandIn, app.cg,
                        /*place=*/false);
  req->on_complete = [this, a = &app, page,
                      expected](const rdma::Request& r) {
    mem::Page& pg = a->pages[page];
    if (pg.seq != expected) return;
    if (pg.state != mem::PageState::kSwapCache || !pg.in_flight) return;
    LandRead(*a, page, r);
    WakeWaiters(*a, page);
  };
  SubmitRead(app, page, std::move(req));
}

rdma::RequestPtr SwapSystem::NewRequest(AppState& app, PageId page,
                                        SwapEntryId entry, rdma::Op op,
                                        CgroupId cgroup, bool place) {
  auto req = std::make_unique<rdma::Request>();
  req->op = op;
  req->cgroup = cgroup;
  req->page = page;
  req->entry = entry;
  req->owner_app = std::uint32_t(app.index);
  req->created = sim_.Now();
  StampPool(app, app.pages[page], *req, place);
  return req;
}

void SwapSystem::SubmitRead(AppState& app, PageId page, rdma::RequestPtr req) {
  SwapBackend home = app.pages[page].home;
  if (home != SwapBackend::kRemote) {
    // The copy of record lives in the local tier (slow-memory latency) or
    // on the local-disk fallback: fetch it there, never touching the fabric.
    SubmitLocal(app, home, std::move(req));
    return;
  }
  // A demand read's only copy is remote, so it cannot fail over: it is
  // reissued until the fabric heals. Async reads are dropped instead.
  if (req->op == rdma::Op::kDemandIn)
    req->on_error = [this, a = &app](rdma::RequestPtr r) {
      ReissueDemand(*a, std::move(r));
    };
  scheduler_->Enqueue(std::move(req));
}

void SwapSystem::SubmitLocal(AppState& app, SwapBackend to,
                             rdma::RequestPtr req) {
  bool out = req->op == rdma::Op::kSwapOut;
  AppMetrics& m = app.metrics;
  if (to == SwapBackend::kLocalTier) {
    ++(out ? m.tier_swapouts : m.tier_swapins);
    tier_->Submit(std::move(req));
    return;
  }
  ++(out ? m.disk_swapouts : m.disk_swapins);
  disk_->Submit(std::move(req));
}

void SwapSystem::LandRead(AppState& app, PageId page, const rdma::Request& r) {
  mem::Page& p = app.pages[page];
  CheckSwapInOracle(app, p, r);
  // Always-on tier-latency sample (report percentiles, like fault_latency).
  if (r.served_by == SwapBackend::kLocalTier)
    app.metrics.tier_latency.Add(std::uint64_t(r.completed - r.created));
  // A pinned page stays cache-locked until its behaviour releases it
  // (DESIGN.md §16); pins are always zero with the registry off.
  if (p.pins == 0) CacheFor(app, p).Unlock(app.cg, page);
  p.in_flight = false;
  p.in_flight_prefetch = false;
}

// ---------------------------------------------------------------------------
// Object-granularity cooperative swapping (DESIGN.md §16)
// ---------------------------------------------------------------------------

bool SwapSystem::PumpBehaviours(AppState& app, ThreadCtx& th) {
  std::uint64_t next = th.stream->NextBehaviour();
  if (th.behaviour != object::kNoBehaviour && th.behaviour != next) {
    // The previous behaviour ran to completion: unpin its read-set.
    app.behaviours->CompleteFront(th.tid);
    th.behaviour = object::kNoBehaviour;
  }
  if (next == object::kNoBehaviour) {
    // Unstructured (or drained) stream: plain page-granular execution.
    return false;
  }
  if (th.behaviour == next) return false;  // still inside the behaviour
  app.behaviours->Pump(
      th.tid, [t = &th](std::size_t idx, std::vector<object::ObjectHandle>& out) {
        return t->stream->PeekBehaviour(idx, out);
      });
  if (!app.behaviours->HasFront(th.tid)) {
    // The scheduler declined to declare (no resolvable read-set): run the
    // behaviour page-granular so the thread keeps making progress.
    th.behaviour = next;
    return false;
  }
  if (app.behaviours->FrontReady(th.tid)) {
    app.behaviours->Dispatch(th.tid);
    th.behaviour = next;
    return false;
  }
  // Read-set still arriving: park until the batch's `ready` fires.
  th.parked = true;
  th.park_started = sim_.Now();
  return true;
}

void SwapSystem::OnBehaviourReady(AppState& app, ThreadId tid) {
  for (auto& th : app.threads) {
    if (th.tid != tid) continue;
    if (!th.parked || th.done) return;
    th.parked = false;
    app.metrics.behaviour_stall += sim_.Now() - th.park_started;
    sim_.Schedule(0, [this, a = &app, t = &th] { RunThread(*a, *t); });
    return;
  }
}

void SwapSystem::CooperativeFetchAndPin(AppState& app,
                                        const std::vector<PageId>& pages,
                                        std::function<void()> ready) {
  auto batch = std::make_shared<CoopBatch>();
  batch->ready = std::move(ready);
  if (two_tier_) two_tier_->NoteCooperativeBatch(app.cg, pages.size());
  for (PageId page : pages) {
    if (page >= app.pages.size()) continue;  // defensive clamp
    mem::Page& p = app.pages[page];
    ++p.pins;  // taken up front; CooperativeRelease balances
    // "Already local" accounting happens here, before any stepping, so a
    // page that arrives through its own cooperative fetch is not also
    // counted as a hit by the post-completion re-step.
    if (p.state == mem::PageState::kResident ||
        p.state == mem::PageState::kUntouched ||
        (p.state == mem::PageState::kSwapCache && !p.in_flight &&
         !p.under_writeback))
      ++app.metrics.object_fetch_hits;
    ++batch->pending;
    StepObjectPage(app, page, batch);
  }
  batch->Done();  // release the scan sentinel
}

void SwapSystem::StepObjectPage(AppState& app, PageId page,
                                std::shared_ptr<CoopBatch> batch) {
  if (app.reaped) {
    batch->Done();
    return;
  }
  mem::Page& p = app.pages[page];
  CoreId core = app.threads.empty() ? 0 : app.threads.front().core;
  switch (p.state) {
    case mem::PageState::kUntouched: {
      // MAP_POPULATE-style preparation: commit the zero-fill frame ahead
      // of dispatch so the behaviour's first touch is a plain resident
      // access instead of a direct-reclaim stall mid-behaviour. Any
      // reclaim this triggers overlaps the previous behaviour's compute.
      EnsureFrame(app, core, [this, a = &app, page, batch] {
        if (a->reaped || a->pages[page].state != mem::PageState::kUntouched) {
          StepObjectPage(*a, page, batch);  // reaped or touched meanwhile
          return;
        }
        ZeroFill(*a, page);
        ++a->metrics.first_touches;
        batch->Done();
      });
      return;
    }
    case mem::PageState::kResident:
      // Local already.
      batch->Done();
      return;
    case mem::PageState::kSwapCache:
      if (p.in_flight || p.under_writeback) {
        // A transfer owns the page: continue when it resolves. Registering
        // as a waiter also keeps the §5.3 drop -> rescue conversion alive
        // for any fetch already in flight.
        waiters_[WaiterKey(app, page)].push_back(
            [this, a = &app, page, batch] { StepObjectPage(*a, page, batch); });
        return;
      }
      // Cached and idle: the pin keeps the entry locked against shrinking.
      if (p.pins != 0) CacheFor(app, p).Lock(app.cg, page);
      batch->Done();
      return;
    case mem::PageState::kRemote: {
      // Blackout / failover / disk-homed / shared copies stay with the
      // demand path, which routes them to the right backend — the
      // content-version oracle and failover semantics are untouched. The
      // pin still protects the page once it lands. (Tier-homed pages ARE
      // fetched cooperatively: the tier backend never drops, so the batch
      // continuation is safe there.)
      if (app.retiring || p.shared || p.entry == kInvalidEntry ||
          p.home == SwapBackend::kLocalDisk || RemotePathDown(app)) {
        batch->Done();
        return;
      }
      EnsureFrame(app, core, [this, a = &app, page, batch] {
        if (a->reaped || a->pages[page].state != mem::PageState::kRemote ||
            a->pages[page].in_flight) {
          StepObjectPage(*a, page, batch);  // raced: re-examine from the top
          return;
        }
        // Register the continuation *before* the request reaches the
        // scheduler, so a drop sees a waiter and converts to a rescue
        // demand (§5.3) whose completion wakes this batch.
        waiters_[WaiterKey(*a, page)].push_back(
            [this, a, page, batch] { StepObjectPage(*a, page, batch); });
        IssueAsyncRead(*a, page, /*speculative=*/false);
      });
      return;
    }
  }
}

void SwapSystem::CooperativeRelease(AppState& app,
                                    const std::vector<PageId>& pages) {
  if (app.reaped) return;
  for (PageId page : pages) {
    if (page >= app.pages.size()) continue;
    mem::Page& p = app.pages[page];
    if (p.pins == 0) continue;  // clamped at FetchAndPin: stay balanced
    --p.pins;
    if (p.pins != 0) continue;
    // Last pin gone: a still-cached page rejoins the shrink LRU.
    if (p.state == mem::PageState::kSwapCache && !p.in_flight &&
        !p.under_writeback)
      CacheFor(app, p).Unlock(app.cg, page);
  }
}

// ---------------------------------------------------------------------------
// Reclaim / eviction
// ---------------------------------------------------------------------------

void SwapSystem::EnsureFrame(AppState& app, CoreId core,
                             sim::InlineCallback granted) {
  Cgroup& cg = cgroups_.Get(app.cg);
  if (cg.charged_pages() + 1 <= cg.spec().local_mem_pages) {
    granted();
    return;
  }
  // Kernel direct reclaim: the faulting thread itself reclaims pages.
  // Concurrent faults from many threads mean concurrent reclaim chains,
  // which is precisely what contends on the swap-entry allocator (§3).
  // Chains are capped at the thread count — a thread cannot run more than
  // one direct reclaim at a time.
  app.frame_waiters.push_back(std::move(granted));
  if (app.active_reclaimers < app.threads.size()) {
    ++app.active_reclaimers;
    ReclaimLoop(app, core, kDirectReclaimBudget);
  }
}

void SwapSystem::GrantFrames(AppState& app) {
  Cgroup& cg = cgroups_.Get(app.cg);
  while (!app.frame_waiters.empty() &&
         cg.charged_pages() + 1 <= cg.spec().local_mem_pages) {
    auto granted = std::move(app.frame_waiters.front());
    app.frame_waiters.erase(app.frame_waiters.begin());
    granted();  // charges synchronously
  }
}

void SwapSystem::FinishReclaimer(AppState& app, CoreId core) {
  assert(app.active_reclaimers > 0);
  --app.active_reclaimers;
  // Safety net: if waiters remain with no reclaimer running (all victims
  // were in flight when the chains ended), restart one after a short delay.
  if (!app.frame_waiters.empty() && app.active_reclaimers == 0 &&
      !app.reclaim_retry_scheduled) {
    app.reclaim_retry_scheduled = true;
    sim_.Schedule(kReclaimRetryDelay, [this, a = &app, core] {
      a->reclaim_retry_scheduled = false;
      GrantFrames(*a);
      if (!a->frame_waiters.empty()) {
        ++a->active_reclaimers;
        ReclaimLoop(*a, core, kDirectReclaimBudget);
      }
    });
  }
}

void SwapSystem::ReclaimLoop(AppState& app, CoreId core,
                             std::uint32_t budget) {
  GrantFrames(app);
  Cgroup& cg = cgroups_.Get(app.cg);
  // Reclaim down to the kswapd watermark (high-watermark behaviour).
  bool over_limit = cg.charged_pages() + cfg_.kswapd_headroom >
                    cg.spec().local_mem_pages;
  if (budget == 0 || (app.frame_waiters.empty() && !over_limit)) {
    FinishReclaimer(app, core);
    return;
  }
  // Prefer releasing clean pages the swap cache holds beyond its budget
  // ("releasing a batch of pages to shrink the cache", §4). In shared-cache
  // mode the LRU tail may belong to another application — releasing it
  // frees *their* charge (cache pollution interference).
  if (app.cache->size() > app.cache->capacity() &&
      ReleaseColdestCachePage(app)) {
    ReclaimLoop(app, core, budget - 1);
    return;
  }
  PageId v = app.lru->EvictionCandidate();
  if (v == kInvalidPage) {
    // Nothing on the LRU: steal a clean page from the cache, else wait for
    // in-flight writebacks.
    if (ReleaseColdestCachePage(app)) {
      ReclaimLoop(app, core, budget - 1);
      return;
    }
    sim_.Schedule(kReclaimRetryDelay, [this, a = &app, core, budget] {
      ReclaimLoop(*a, core, budget);
    });
    return;
  }
  mem::Page& p = app.pages[v];
  assert(p.state == mem::PageState::kResident);
  app.lru->Remove(v);
  if (!p.NeedsWriteback()) {
    // Clean page with a kept entry: drop instantly, no I/O.
    p.state = mem::PageState::kRemote;
    ++p.seq;
    cgroups_.Get(app.cg).UnchargeResident();
    ++app.metrics.clean_drops;
    ReclaimLoop(app, core, budget - 1);
    return;
  }
  // Unmap into the swap cache (locked for writeback).
  p.state = mem::PageState::kSwapCache;
  ++p.seq;
  p.in_flight = false;  // writeback-locked, not swap-in flight
  p.under_writeback = true;
  cgroups_.Get(app.cg).UnchargeResident();
  CgroupFor(app, p).ChargeCache();
  CacheFor(app, p).Insert(app.cg, v, /*locked=*/true,
                          /*prefetched=*/false, sim_.Now());
  sim_.Schedule(kEvictPageCost, [this, a = &app, v, core, budget] {
    AllocateEntryAndWriteback(*a, v, core, /*attempts=*/3, budget);
  });
}

void SwapSystem::AllocateEntryAndWriteback(AppState& app, PageId victim,
                                           CoreId core, int attempts,
                                           std::uint32_t budget) {
  mem::Page& p = app.pages[victim];
  // Canvas fast path: reuse the reserved entry without any locking (§5.1).
  if (app.reservation && !p.shared) {
    SwapEntryId reserved = app.reservation->TakeReserved(p);
    if (reserved != kInvalidEntry) {
      ++app.metrics.lockfree_swapouts;
      IssueSwapOut(app, victim, reserved);
      ReclaimLoop(app, core, budget - 1);
      return;
    }
  }
  auto& part = PartitionFor(app, p);
  part.allocator().Allocate(core, [this, a = &app, victim, core, attempts,
                                   budget](swapalloc::AllocResult r) {
    mem::Page& pg = a->pages[victim];
    a->metrics.alloc_time += r.wait + r.hold;
    // Allocation contention sample: arg carries the wait+hold time so the
    // §3 convoy effect is visible straight off the trace.
    tracer_.Instant(std::uint32_t(a->index), trace::kCgroupTrack,
                    trace::Name::kAllocWait, sim_.Now(),
                    std::uint64_t(r.wait + r.hold));
    if (r.entry == kInvalidEntry) {
      // Partition full: reclaim kept entries / reservations, then retry.
      std::size_t freed = 0;
      if (a->reservation)
        freed = a->reservation->EmergencyReclaim(kStripBatch);
      if (freed == 0) freed = StripKeptEntries(*a, kStripBatch);
      if (freed == 0) {
        // Shared partition: strip from co-runners too.
        for (auto& other : apps_) {
          if (!other || other.get() == a) continue;
          if (other->partition != a->partition) continue;
          freed += StripKeptEntries(*other, kStripBatch);
          if (freed) break;
        }
      }
      SimDuration delay = attempts > 0 ? 0 : kAllocRetryDelay;
      int next = attempts > 0 ? attempts - 1 : 3;
      sim_.Schedule(delay, [this, a, victim, core, next, budget] {
        AllocateEntryAndWriteback(*a, victim, core, next, budget);
      });
      return;
    }
    ++a->metrics.allocations;
    CgroupFor(*a, pg).ChargeRemote();
    if (a->reservation && !pg.shared) a->reservation->Remember(pg, r.entry);
    IssueSwapOut(*a, victim, r.entry);
    // The writeback proceeds asynchronously; this reclaimer moves on to its
    // next victim (allocations stay sequential per reclaiming thread).
    ReclaimLoop(*a, core, budget - 1);
  });
}

void SwapSystem::IssueSwapOut(AppState& app, PageId victim,
                              SwapEntryId entry) {
  mem::Page& p = app.pages[victim];
  tracer_.Instant(std::uint32_t(app.index), trace::kCgroupTrack,
                  trace::Name::kSwapOutIssue, sim_.Now(), victim);
  // Writebacks home the entry's slab: the first swap-out into a slab picks
  // its server via the placement policy (reads only follow). With a tier
  // present, placement is deferred until the request actually routes to the
  // remote path — tier-absorbed writebacks must not home slabs they never
  // touch.
  auto req = NewRequest(app, victim, entry, rdma::Op::kSwapOut,
                        p.shared ? shared_cg_ : app.cg, /*place=*/!tier_);
  // The page is writeback-locked until completion, so its content version
  // cannot change under the transfer; record the version the entry's data
  // will carry.
  std::uint32_t version = p.content_version;
  req->on_complete = [this, a = &app, victim, entry,
                      version](const rdma::Request& r) {
    mem::Page& pg = a->pages[victim];
    CacheFor(*a, pg).Remove(a->cg, victim);
    CgroupFor(*a, pg).UnchargeCache();
    pg.state = mem::PageState::kRemote;
    ++pg.seq;
    pg.under_writeback = false;
    pg.entry = entry;
    pg.dirty = false;
    // Where does the data live *now*?
    auto& m = PartitionFor(*a, pg).meta(entry);
    m.content_version = version;
    m.home = pg.home = WrittenHome(r);
    if (tier_ && pg.home != SwapBackend::kLocalTier)
      // A residency claimed at admission (or left over from an earlier
      // epoch) whose data landed elsewhere is stale: drop it.
      tier_->Release(WaiterKey(*a, victim));
    if (r.served_by == SwapBackend::kRemote)
      cgroups_.Get(a->cg).NoteRemoteSuccess();
    ++a->metrics.swapouts;
    GrantFrames(*a);
    WakeWaiters(*a, victim);  // threads that faulted during writeback
  };
  // A failed-over cgroup's writebacks, and those into a disk-homed slab
  // (evicted by harvest pressure or a server outage), go to the disk.
  SwapBackend failed_to = cgroups_.Get(app.cg).backend();
  SwapBackend to = failed_to == SwapBackend::kLocalDisk || SlabOnDisk(*req)
                       ? SwapBackend::kLocalDisk
                       : SwapBackend::kRemote;
  // Hybrid local tier (DESIGN.md §14): evictions land in the nearest level
  // first. Under the capacity and per-cgroup quota the tier absorbs the
  // writeback; already-resident pages rewrite their tier copy in place, and
  // a full tier spills to the remote path. Disk-homed entries keep their
  // copy of record on disk, and shared pages stay out (their frames alias
  // across applications, which the per-app residency key cannot express).
  if (tier_ && to == SwapBackend::kRemote && !p.shared) {
    if (tier_->Admit(WaiterKey(app, victim), app.cg)) {
      to = SwapBackend::kLocalTier;
    } else {
      ++app.metrics.tier_rejects;
      // Failed over onto the tier and refused: spill to the disk backstop.
      if (failed_to == SwapBackend::kLocalTier) to = SwapBackend::kLocalDisk;
    }
  }
  if (to != SwapBackend::kRemote) {
    SubmitLocal(app, to, std::move(req));
    return;
  }
  if (tier_) StampPool(app, p, *req, /*place=*/true);
  req->on_error = [this, a = &app](rdma::RequestPtr r) {
    // The remote path gave up on this writeback; the disk always accepts
    // it (and the failure streak may fail the cgroup over).
    ++a->metrics.rdma_exhausted;
    NoteExhausted(*a);
    SubmitLocal(*a, SwapBackend::kLocalDisk, std::move(r));
  };
  scheduler_->Enqueue(std::move(req));
}

std::size_t SwapSystem::StripKeptEntries(AppState& app, std::size_t n) {
  // Release kept entries of clean resident pages (Linux 5.5 entry-keeping
  // under swap-space pressure, Appendix B).
  std::size_t freed = 0;
  PageId scanned = 0;
  for (PageId i = 0; i < app.pages.size() && freed < n; ++i) {
    PageId idx = (app.strip_cursor + i) % app.pages.size();
    scanned = i + 1;
    mem::Page& p = app.pages[idx];
    if (p.state == mem::PageState::kResident && !p.dirty &&
        p.entry != kInvalidEntry && p.reserved == kInvalidEntry) {
      FreeEntry(app, p);
      ++freed;
    }
  }
  app.strip_cursor =
      (app.strip_cursor + scanned) % std::max<PageId>(app.pages.size(), 1);
  return freed;
}

bool SwapSystem::ReleaseColdestCachePage(AppState& app) {
  mem::SwapCache::Entry victim;
  if (!app.cache->PopLruUnlocked(victim)) return false;
  // In a shared cache the victim may belong to a co-runner: release it to
  // its owner, whose charge it frees.
  AppState& owner = victim.app < apps_.size() && apps_[victim.app]
                        ? *apps_[victim.app]
                        : app;
  mem::Page& p = owner.pages[victim.page];
  assert(p.state == mem::PageState::kSwapCache && !p.in_flight);
  CgroupFor(owner, p).UnchargeCache();
  p.state = mem::PageState::kRemote;
  ++p.seq;
  if (p.prefetched_unused) {
    p.prefetched_unused = false;
    ++owner.metrics.prefetch_wasted;
    ClearPrefetchTs(owner, p);
    if (prefetcher_) prefetcher_->OnPrefetchWasted(owner.cg, victim.page);
  }
  GrantFrames(owner);
  return true;
}

void SwapSystem::ShrinkCache(AppState& app, std::size_t target) {
  while (app.cache->size() > target && ReleaseColdestCachePage(app)) {
  }
}

}  // namespace canvas::core
