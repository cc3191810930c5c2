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
}  // namespace

/// CooperativePort implementation (DESIGN.md §16): the mechanism boundary
/// the behaviour scheduler issues object-granular batches through.
class SwapSystem::ObjectPort : public object::CooperativePort {
 public:
  ObjectPort(SwapSystem& sys, AppState& app) : sys_(sys), app_(app) {}
  void FetchAndPin(const std::vector<PageId>& pages,
                   std::function<void()> ready) override {
    sys_.CooperativeFetchAndPin(app_, pages, std::move(ready));
  }
  void Release(const std::vector<PageId>& pages) override {
    sys_.CooperativeRelease(app_, pages);
  }

 private:
  SwapSystem& sys_;
  AppState& app_;
};

/// In-flight state of one FetchAndPin batch. `pending` starts at 1 (a scan
/// sentinel) so `ready` cannot fire while the issue loop is still running.
struct SwapSystem::CoopBatch {
  std::size_t pending = 1;
  std::function<void()> ready;
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

  part_cfg_.kind = cfg_.allocator;
  part_cfg_.freelist = cfg_.freelist;
  part_cfg_.cluster = cfg_.cluster;

  // Churn runs (DESIGN.md §15) construct with zero apps and admit tenants
  // mid-run; the shared pools then need a non-degenerate floor.
  if (specs.empty()) {
    total_entries = 65536;
    total_cache = 8192;
  }

  if (!cfg_.isolated_partitions) {
    global_partition_ = std::make_unique<swapalloc::SwapPartition>(
        sim_, "shared", total_entries, part_cfg_);
  } else {
    // Global partition for shared pages uses the original lock-based
    // allocator (§4 "Handling of Shared Pages").
    swapalloc::SwapPartition::Config shared_cfg;
    shared_cfg.kind = swapalloc::AllocatorKind::kFreelist;
    shared_cfg.freelist = cfg_.freelist;
    global_partition_ = std::make_unique<swapalloc::SwapPartition>(
        sim_, "cgroup-shared", std::max<std::uint64_t>(total_entries / 8, 4096),
        shared_cfg);
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
              8, cfg_.per_vma_readahead ? PageId(1024) : PageId(0)});
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

  // --- fault injection & recovery (DESIGN.md §8) ---
  if (cfg_.fault_plan) {
    injector_ = std::make_unique<fault::FaultInjector>(sim_, *cfg_.fault_plan,
                                                       cfg_.fault_seed);
    nic_->AttachInjector(injector_.get());
    disk_ = std::make_unique<fault::DiskBackend>(sim_, cfg_.disk);
    injector_->OnServerDown([this](int server) { OnFabricDown(server); });
    injector_->OnServerUp([this](int server) { OnFabricUp(server); });
  }

  // --- remote memory-server pool (DESIGN.md §11) ---
  if (cfg_.remote.enabled()) {
    pool_ = std::make_unique<remote::ServerPool>(sim_, cfg_.remote);
    pool_->AttachTracer(&tracer_);
    pool_->SetSlabEvictedHandler(
        [this](std::uint32_t pid, std::uint64_t lo, std::uint64_t hi) {
          OnSlabEvicted(pid, lo, hi);
        });
    nic_->AttachPool(pool_.get());
    // Harvest eviction and per-server failover need the disk backstop even
    // without a fault plan.
    if (!disk_) disk_ = std::make_unique<fault::DiskBackend>(sim_, cfg_.disk);
  }

  // --- hybrid local tier (DESIGN.md §14) ---
  if (cfg_.tier.enabled())
    tier_ = std::make_unique<tier::TierBackend>(sim_, cfg_.tier,
                                                cfg_.fault_plan);

  // Shard the shared partition onto the server pool first so its pool id
  // is 0 and per-app partitions take 1..N in admission order — the same
  // deterministic placement stream as before, now compatible with mid-run
  // tenant admission (AddApp registers per-app partitions itself).
  if (pool_) {
    global_partition_->set_pool_id(
        pool_->RegisterPartition(global_partition_->capacity()));
    pool_partitions_.push_back(global_partition_.get());
  }

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
  if (tier_) {
    // Page-group heat summaries for the TierPolicy (Memtrade-style cold
    // detection over runtime::RuntimeInfo's page groups).
    std::size_t groups =
        (app->pages.size() + runtime::RuntimeInfo::kGroupPages - 1) /
        runtime::RuntimeInfo::kGroupPages;
    app->group_last_fault.assign(groups, 0);
    app->group_faults.assign(groups, 0);
  }

  if (cfg_.isolated_partitions) {
    app->owned_partition = std::make_unique<swapalloc::SwapPartition>(
        sim_, app->name, spec.cgroup.swap_entry_limit, part_cfg_);
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
        cfg_.reservation);
    if (tier_) {
      // A reservation cancel that drops the entry holding the clean
      // remote copy must also drop tier residency (single-home
      // invariant: the resident index never outlives the entry).
      AppState* a = app.get();
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
    if (cfg_.objects.max_objects || cfg_.objects.max_object_pages)
      app->objects->SetQuota(object::RegistryConfig{
          cfg_.objects.max_objects, cfg_.objects.max_object_pages});
    app->object_port = std::make_unique<ObjectPort>(*this, *app);
    object::SchedulerConfig sc;
    sc.lookahead = std::max<std::uint32_t>(cfg_.objects.lookahead, 1);
    sc.max_pinned_pages = cfg_.objects.max_pinned_pages
                              ? cfg_.objects.max_pinned_pages
                              : spec.cgroup.local_mem_pages / 4;
    app->behaviours = std::make_unique<object::BehaviourScheduler>(
        app->objects.get(), app->object_port.get(), sc);
    app->behaviours->SetReadyCallback(
        [this, a = app.get()](ThreadId tid) { OnBehaviourReady(*a, tid); });
    // Read-sets arrive through the cooperative channel: the speculative
    // tiers stand down for this cgroup.
    if (two_tier_) two_tier_->SetCooperative(app->cg, true);
    objects_active_ = true;
  }
  if (two_dim_) two_dim_->RegisterCgroup(app->cg, spec.cgroup.rdma_weight);
  if (pool_ && app->owned_partition) {
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
  AppState* raw = app.get();
  apps_[idx] = std::move(app);
  if (started_) {
    lifecycle_active_ = true;
    StartApp(*raw);
  }
  return idx;
}

SwapSystem::~SwapSystem() = default;

void SwapSystem::Start() {
  started_ = true;
  if (injector_) injector_->Start();
  if (pool_) pool_->Start([this] { return RunActive(); });
  for (auto& app : apps_)
    if (app) StartApp(*app);
  if (tier_)
    sim_.Schedule(cfg_.tier.policy_period, [this] { TierPolicyTick(); });
  if (tracer_.enabled() && cfg_.trace.sampler) {
    sampler_last_bytes_.assign(apps_.size(), {{0.0, 0.0}});
    sim_.Schedule(cfg_.trace.sample_period, [this] { SampleTick(); });
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
  sim_.Schedule(cfg_.kswapd_period, [this, a = &app] { KswapdTick(*a); });
}

void SwapSystem::SampleTick() {
  if (!RunActive()) return;  // stop sampling once the co-run drains
  sim_.Schedule(cfg_.trace.sample_period, [this] { SampleTick(); });
  SimTime now = sim_.Now();
  double period_sec = double(cfg_.trace.sample_period) / double(kSecond);
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
  if (pool_) {
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
  sim_.Schedule(cfg_.kswapd_period, [this, a = &app] { KswapdTick(*a); });
  Cgroup& cg = cgroups_.Get(app.cg);
  // Background reclaim keeps a free-frame watermark ahead of demand so
  // faulting threads rarely block in direct reclaim (kswapd).
  if (cg.charged_pages() + cfg_.kswapd_headroom > cg.spec().local_mem_pages &&
      app.active_reclaimers == 0) {
    ++app.active_reclaimers;
    ReclaimLoop(app, app.threads.empty() ? 0 : app.threads.front().core,
                cfg_.reclaim_batch);
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
  if (busy) return false;
  if (tier_) {
    // An in-flight demotion's completion still dereferences the tenant's
    // page table: wait it out.
    tier_->ForEachResident(
        [&](std::uint64_t k, const tier::TierBackend::Resident& r) {
          if ((k >> 48) == app.index && r.demoting) busy = true;
        });
    if (busy) return false;
  }
  return true;
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
      auto& part = PartitionFor(app, p);
      if (&part == global_partition_.get()) {
        part.meta(p.entry) = swapalloc::EntryMeta{};
        part.allocator().Free(p.entry);
        CgroupFor(app, p).UnchargeRemote();
      }
      p.entry = kInvalidEntry;
    }
  }

  // Per-cgroup map cleanup across the stack (ids recycle).
  scheduler_->ForgetCgroup(app.cg);
  if (prefetcher_) {
    prefetcher_->Forget(app.cg);
    for (const auto& th : app.threads) prefetcher_->ForgetThread(th.tid);
  }
  if (pool_ && app.owned_partition &&
      app.owned_partition->pool_id() != swapalloc::SwapPartition::kNoPoolId) {
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
  app.object_port.reset();
  if (app.objects) {
    app.objects->Clear();
    app.objects.reset();
  }
  app.group_last_fault.clear();
  app.group_last_fault.shrink_to_fit();
  app.group_faults.clear();
  app.group_faults.shrink_to_fit();
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
  if (disk_ && disk_->inflight() != 0) return false;
  if (tier_ && tier_->inflight() != 0) return false;
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
  if (p.entry != kInvalidEntry && p.entry != p.reserved) {
    auto& part = PartitionFor(app, p);
    ReleaseTierResidency(app, p);
    part.meta(p.entry) = swapalloc::EntryMeta{};
    part.allocator().Free(p.entry);
    CgroupFor(app, p).UnchargeRemote();
    p.entry = kInvalidEntry;
    p.disk_backed = false;
  }
}

void SwapSystem::CheckSwapInOracle(AppState& app, mem::Page& p,
                                   const rdma::Request& r) {
  if (r.entry != kInvalidEntry && r.entry == p.entry) {
    const auto& m = PartitionFor(app, p).meta(r.entry);
    // The copy just served must carry the content version recorded at the
    // last writeback and must have come from the backend that holds it.
    if (m.content_version != p.content_version ||
        m.on_disk != r.served_by_disk || m.on_tier != r.served_by_tier)
      ++app.metrics.stale_reads;
  }
  // A completed remote transfer proves the fabric works again: reset the
  // cgroup's consecutive-failure streak (tier- and disk-served requests
  // never touched the fabric, so they prove nothing).
  if (!r.served_by_disk && !r.served_by_tier)
    cgroups_.Get(app.cg).NoteRemoteSuccess();
}

// ---------------------------------------------------------------------------
// Fault recovery (DESIGN.md §8)
// ---------------------------------------------------------------------------

void SwapSystem::OnFabricDown(int server) {
  if (pool_ && server != fault::kAllServers) {
    // Per-server failover: only this server's slabs move to disk; the rest
    // of the pool (and the fabric) keeps serving.
    if (std::size_t(server) < pool_->servers().size()) {
      tracer_.Instant(trace::kRemotePoolPid, std::uint32_t(server),
                      trace::Name::kServerDown, sim_.Now());
      pool_->MarkServerDown(server);
    }
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
      mem::Page& p = owner.pages[r->page];
      if (tier_ && !p.shared &&
          tier_->Admit(WaiterKey(owner, r->page), owner.cg)) {
        ++owner.metrics.tier_swapouts;
        tier_->Submit(std::move(r));
      } else {
        if (tier_ && !p.shared) ++owner.metrics.tier_rejects;
        ++owner.metrics.disk_swapouts;
        disk_->Submit(std::move(r));
      }
    } else if (r->on_drop) {
      // Prefetch: the drop handler unwinds the in-flight page state and
      // rescues any waiters, exactly as a scheduler drop would.
      r->on_drop(*r);
    }
  }
}

void SwapSystem::OnFabricUp(int server) {
  if (pool_ && server != fault::kAllServers) {
    if (std::size_t(server) < pool_->servers().size()) {
      tracer_.Instant(trace::kRemotePoolPid, std::uint32_t(server),
                      trace::Name::kServerUp, sim_.Now());
      // Capacity is reachable again; slabs evicted during the outage stay
      // on disk (their data lives there now) and re-place on future churn.
      pool_->MarkServerUp(server);
    }
    return;
  }
  tracer_.Instant(trace::kRdmaPid, trace::kFabricControlTrack,
                  trace::Name::kServerUp, sim_.Now());
  for (auto& app : apps_)
    if (app) FailbackApp(*app);
}

void SwapSystem::NoteExhausted(AppState& app) {
  Cgroup& cg = cgroups_.Get(app.cg);
  if (cg.NoteExhausted() >= cfg_.recovery.failover_after_exhausted)
    FailoverApp(app);
}

void SwapSystem::FailoverApp(AppState& app) {
  if (!disk_ && !tier_) return;
  Cgroup& cg = cgroups_.Get(app.cg);
  if (cg.backend() != SwapBackend::kRemote) return;
  if (tier_) {
    // First failover stop (DESIGN.md §14): the tier absorbs redirected
    // writebacks at slow-memory latency; IssueSwapOut spills individual
    // rejections to the disk backstop.
    cg.SetBackend(SwapBackend::kLocalTier);
    ++app.metrics.tier_failovers;
  } else {
    cg.SetBackend(SwapBackend::kLocalDisk);
  }
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
  sim_.Schedule(cfg_.recovery.failback_delay, [this, a = &app] {
    if (a->reaped) return;  // the tenant (and its cgroup id) is gone
    Cgroup& cg = cgroups_.Get(a->cg);
    if (cg.backend() == SwapBackend::kRemote) return;  // already back
    if (injector_ && injector_->ServerDown(sim_.Now())) {
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
  if (pool_ && req->partition != rdma::kNoPoolPartition &&
      pool_->OnDisk(req->partition, req->entry)) {
    // The slab was evicted (harvest or server failover) while this read was
    // burning retries: the data now lives on the disk backend, so reissuing
    // remotely would spin forever. Route it home.
    ++app.metrics.disk_swapins;
    req->attempts = 0;
    req->status = rdma::RequestStatus::kOk;
    disk_->Submit(std::move(req));
    return;
  }
  ++app.metrics.demand_reissues;
  req->attempts = 0;
  req->status = rdma::RequestStatus::kOk;
  // Moved into the event so an abandoned run (deadline miss) still frees
  // the in-flight request when the simulator tears down its queue.
  sim_.Schedule(cfg_.recovery.demand_reissue_delay,
                [this, r = std::move(req)]() mutable {
                  scheduler_->Enqueue(std::move(r));
                });
}

// ---------------------------------------------------------------------------
// Remote memory-server pool (DESIGN.md §11)
// ---------------------------------------------------------------------------

void SwapSystem::StampPool(AppState& app, const mem::Page& p,
                           rdma::Request& req, bool place) {
  if (!pool_ || req.entry == kInvalidEntry) return;
  swapalloc::SwapPartition& part = PartitionFor(app, p);
  if (part.pool_id() == swapalloc::SwapPartition::kNoPoolId) return;
  req.partition = part.pool_id();
  if (place) pool_->EnsurePlaced(part.pool_id(), req.entry);
}

void SwapSystem::OnSlabEvicted(std::uint32_t pid, std::uint64_t lo,
                               std::uint64_t hi) {
  swapalloc::SwapPartition* part =
      pid < pool_partitions_.size() ? pool_partitions_[pid] : nullptr;
  if (!part || !disk_) return;

  // 1. The disk is now the copy of record for every entry in the slab
  //    (unwritten entries get overwritten consistently at their first
  //    writeback, which the disk-homed routing sends straight to disk).
  //    Tier-resident entries are untouched: their copy of record lives in
  //    the local tier, not on the harvested server.
  for (std::uint64_t e = lo; e < hi; ++e)
    if (!part->meta(e).on_tier) part->meta(e).on_disk = true;

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
      if (p.tier_backed) continue;  // the tier copy is unaffected
      p.disk_backed = true;
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
      ++owner.metrics.disk_swapouts;
      disk_->Submit(std::move(r));
    } else if (r->op == rdma::Op::kDemandIn) {
      redirected.push_back(WaiterKey(owner, r->page));
      ++owner.metrics.disk_swapins;
      disk_->Submit(std::move(r));
    } else if (r->on_drop) {
      // Prefetch: the drop handler unwinds the page or converts it to a
      // rescue demand, which now routes to the disk (disk_backed is set).
      redirected.push_back(WaiterKey(owner, r->page));
      r->on_drop(*r);
    }
  }

  // 4. Reads already on the wire: take the page over via the incarnation
  //    (seq-bump) protocol so the stale remote completion discards itself,
  //    and fetch the authoritative copy from the disk instead.
  auto was_redirected = [&redirected](std::uint64_t key) {
    for (std::uint64_t k : redirected)
      if (k == key) return true;
    return false;
  };
  for (const Rescue& rs : rescues) {
    mem::Page& p = rs.app->pages[rs.page];
    if (p.state != mem::PageState::kSwapCache || !p.in_flight) continue;
    if (was_redirected(WaiterKey(*rs.app, rs.page))) continue;
    p.in_flight_prefetch = false;
    p.prefetched_unused = false;
    if (p.entry != kInvalidEntry)
      PartitionFor(*rs.app, p).meta(p.entry).prefetch_ts = kTimeNever;
    IssueRescueDemand(*rs.app, rs.page);
  }
}

// ---------------------------------------------------------------------------
// Hybrid local tier: TierPolicy engine (DESIGN.md §14)
// ---------------------------------------------------------------------------

void SwapSystem::ReleaseTierResidency(AppState& app, mem::Page& p) {
  if (!tier_ || !p.tier_backed) return;
  PageId page = PageId(&p - app.pages.data());
  tier_->Release(WaiterKey(app, page));
  p.tier_backed = false;
}

void SwapSystem::NoteTierHeat(AppState& app, PageId page) {
  if (!tier_) return;
  std::uint32_t g = runtime::RuntimeInfo::GroupOf(page);
  if (g >= app.group_last_fault.size()) return;
  SimTime now = sim_.Now();
  // Self-decaying group heat: a fault streak only accumulates while the
  // gaps stay under cold_age, so "hot" always means *recently* hot.
  app.group_faults[g] =
      (app.group_last_fault[g] != 0 &&
       now - app.group_last_fault[g] <= cfg_.tier.cold_age)
          ? app.group_faults[g] + 1
          : 1;
  app.group_last_fault[g] = now;
}

void SwapSystem::MaybePromoteToTier(AppState& app, PageId page,
                                    mem::Page& p) {
  if (!tier_ || p.shared || p.entry == kInvalidEntry) return;
  if (p.tier_backed || p.disk_backed) return;
  std::uint32_t g = runtime::RuntimeInfo::GroupOf(page);
  bool group_hot = g < app.group_faults.size() &&
                   app.group_faults[g] >= cfg_.tier.promote_group_faults;
  bool scan_hot = p.scan_hits >= 2;
  if (!group_hot && !scan_hot) return;
  if (!tier_->Admit(WaiterKey(app, page), app.cg)) {
    ++app.metrics.tier_rejects;
    return;
  }
  // The fetched bytes are in hand (this runs at demand-read completion), so
  // copying them into the tier is a pure data-state change: the tier
  // becomes the copy of record at the *same* content version.
  p.tier_backed = true;
  auto& m = PartitionFor(app, p).meta(p.entry);
  m.on_tier = true;
  m.on_disk = false;
  ++app.metrics.tier_promotions;
}

void SwapSystem::TierPolicyTick() {
  if (!RunActive()) return;  // stop ticking once the co-run drains
  sim_.Schedule(cfg_.tier.policy_period, [this] { TierPolicyTick(); });
  SimTime now = sim_.Now();
  std::uint64_t watermark = std::uint64_t(double(cfg_.tier.capacity_pages) *
                                          cfg_.tier.demote_watermark);
  if (tier_->used_pages() <= watermark) return;
  // Proactive cold-page demotion ahead of eviction (Memtrade-style): scan
  // the resident index for pages whose page group went cold. FlatMap
  // iteration is hash-ordered, so collect and sort the keys for a
  // deterministic scan.
  std::vector<std::uint64_t> cold;
  tier_->ForEachResident([&](std::uint64_t key,
                             const tier::TierBackend::Resident& res) {
    if (res.demoting) return;
    if (now - res.admitted < cfg_.tier.cold_age) return;  // admission grace
    std::size_t ai = std::size_t(key >> 48);
    if (ai >= apps_.size() || !apps_[ai]) return;
    AppState& app = *apps_[ai];
    PageId page = PageId(key & ((std::uint64_t(1) << 48) - 1));
    std::uint32_t g = runtime::RuntimeInfo::GroupOf(page);
    SimTime last = g < app.group_last_fault.size() ? app.group_last_fault[g]
                                                   : 0;
    if (last != 0 && now - last < cfg_.tier.cold_age) return;  // still warm
    cold.push_back(key);
  });
  std::sort(cold.begin(), cold.end());
  std::uint32_t issued = 0;
  for (std::uint64_t key : cold) {
    if (issued >= cfg_.tier.demote_batch) break;
    AppState& app = *apps_[std::size_t(key >> 48)];
    if (app.retiring) continue;  // reap releases residency wholesale
    PageId page = PageId(key & ((std::uint64_t(1) << 48) - 1));
    // Demotion needs the remote path: skip while the cgroup is failed over
    // (during a blackout the tier *is* the backend — draining it into a
    // dead fabric would defeat the failover).
    if (cgroups_.Get(app.cg).backend() != SwapBackend::kRemote) continue;
    mem::Page& p = app.pages[page];
    if (!p.tier_backed || p.entry == kInvalidEntry) continue;
    if (p.in_flight || p.under_writeback) continue;  // busy: next tick
    // A dirty resident page will rewrite its tier copy at the next
    // writeback anyway; demoting the stale version buys nothing.
    if (p.state == mem::PageState::kResident && p.dirty) continue;
    IssueTierDemotion(app, page);
    ++issued;
  }
}

void SwapSystem::IssueTierDemotion(AppState& app, PageId page) {
  mem::Page& p = app.pages[page];
  std::uint64_t key = WaiterKey(app, page);
  tier::TierBackend::Resident* res = tier_->Find(key);
  if (!res) return;
  res->demoting = true;
  SwapEntryId entry = p.entry;
  std::uint32_t version = PartitionFor(app, p).meta(entry).content_version;
  ++app.metrics.tier_demotions;
  auto req = std::make_unique<rdma::Request>();
  req->op = rdma::Op::kSwapOut;
  req->cgroup = app.cg;
  req->page = page;
  req->entry = entry;
  req->owner_app = std::uint32_t(app.index);
  req->created = sim_.Now();
  StampPool(app, p, *req, /*place=*/true);
  req->on_complete = [this, a = &app, page, entry,
                      version](const rdma::Request& r) {
    std::uint64_t k = WaiterKey(*a, page);
    tier::TierBackend::Resident* rr = tier_->Find(k);
    if (rr) rr->demoting = false;
    // A blackout drain can bounce the demotion back into the tier itself:
    // nothing moved, the tier keeps the copy of record.
    if (r.served_by_tier) {
      --a->metrics.tier_demotions;
      return;
    }
    mem::Page& pg = a->pages[page];
    // Re-validate against every race demotion can lose: the residency was
    // dropped, the entry was freed or re-used, the page was re-dirtied (a
    // newer version exists), or a fetch/writeback is in flight whose
    // completion still expects the tier copy. In all cases the tier stays
    // the copy of record and a later tick may retry.
    if (!rr || pg.entry != entry || !pg.tier_backed || pg.in_flight ||
        pg.under_writeback) {
      --a->metrics.tier_demotions;
      return;
    }
    auto& m = PartitionFor(*a, pg).meta(entry);
    if (m.content_version != version || !m.on_tier) {
      --a->metrics.tier_demotions;
      return;
    }
    bool on_disk_now = r.served_by_disk ||
                       (pool_ && r.partition != rdma::kNoPoolPartition &&
                        pool_->OnDisk(r.partition, entry));
    m.on_tier = false;
    m.on_disk = on_disk_now;
    pg.tier_backed = false;
    pg.disk_backed = on_disk_now;
    tier_->Release(k);
    if (!r.served_by_disk) cgroups_.Get(a->cg).NoteRemoteSuccess();
  };
  if (disk_)
    req->on_error = [this, a = &app, page](rdma::RequestPtr) {
      // The remote path gave up: the tier keeps the copy of record; clear
      // the in-flight mark so a later tick can retry.
      tier::TierBackend::Resident* rr = tier_->Find(WaiterKey(*a, page));
      if (rr) rr->demoting = false;
      --a->metrics.tier_demotions;
      ++a->metrics.rdma_exhausted;
      NoteExhausted(*a);
    };
  scheduler_->Enqueue(std::move(req));
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
    mem::Page& p = app.pages[acc->page];
    if (p.state == mem::PageState::kResident) {
      app.lru->Touch(acc->page);
      if (acc->write) MarkDirty(app, p);
      ++app.metrics.accesses;
      continue;
    }
    // Fault: hand off to the fault path at the access instant.
    sim_.Schedule(elapsed, [this, a = &app, t = &th, acc = *acc] {
      BeginStall(*t);
      HandleFault(*a, *t, acc, /*retry=*/false, [this, a, t, page = acc.page] {
        EndStall(*a, *t, page);
        RunThread(*a, *t);
      });
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
    ++a->threads_done;
    a->metrics.finish_time = std::max(a->metrics.finish_time, t->finish);
    if (a->behaviours) {
      // Unpin everything the thread still holds (open + lookahead
      // behaviours) so the pages rejoin normal eviction and the tenant can
      // quiesce for reap.
      a->behaviours->ReleaseThread(t->tid);
      t->behaviour = object::kNoBehaviour;
      SyncObjectMetrics(*a);
    }
  });
}

// ---------------------------------------------------------------------------
// Fault path
// ---------------------------------------------------------------------------

void SwapSystem::HandleFault(AppState& app, ThreadCtx& th,
                             workload::Access acc, bool retry,
                             std::function<void()> resume) {
  mem::Page& p = app.pages[acc.page];
  switch (p.state) {
    case mem::PageState::kResident: {
      // Raced with another thread that faulted the page in.
      app.lru->Touch(acc.page);
      if (acc.write) MarkDirty(app, p);
      ++app.metrics.accesses;
      sim_.Schedule(kSpuriousFaultCost, std::move(resume));
      return;
    }
    case mem::PageState::kUntouched: {
      if (!retry) {
        ++app.metrics.first_touches;
      }
      EnsureFrame(app, th.core, [this, a = &app, t = &th, acc,
                                 page = acc.page, write = acc.write,
                                 resume = std::move(resume)] {
        mem::Page& pg = a->pages[page];
        if (pg.state != mem::PageState::kUntouched) {
          // Another thread first-touched the page while we waited.
          HandleFault(*a, *t, acc, /*retry=*/true, resume);
          return;
        }
        pg.state = mem::PageState::kResident;
        pg.dirty = true;  // anonymous page with no backing store yet
        ++pg.content_version;
        (void)write;
        cgroups_.Get(a->cg).ChargeResident();
        a->lru->AddActive(page);
        ++a->metrics.accesses;
        sim_.Schedule(cfg_.first_touch_cost, resume);
      });
      return;
    }
    case mem::PageState::kSwapCache:
      FaultOnCachedPage(app, th, acc, retry, std::move(resume));
      return;
    case mem::PageState::kRemote:
      if (!retry) {
        ++app.metrics.faults;
      }
      DemandSwapIn(app, th, acc, std::move(resume));
      return;
  }
}

void SwapSystem::FaultOnCachedPage(AppState& app, ThreadCtx& th,
                                   workload::Access acc, bool retry,
                                   std::function<void()> resume) {
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
    auto refault = [this, a = &app, t = &th, acc,
                    resume = std::move(resume)] {
      HandleFault(*a, *t, acc, /*retry=*/true, resume);
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
          meta.prefetch_ts = kTimeNever;
          p.in_flight_prefetch = false;
          p.prefetched_unused = false;
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
            m.prefetch_ts = kTimeNever;
            pg.in_flight_prefetch = false;
            pg.prefetched_unused = false;
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
  sim_.Schedule(cfg_.map_cost, [this, a = &app, t = &th, acc,
                                resume = std::move(resume)] {
    mem::Page& pg = a->pages[acc.page];
    if (pg.state == mem::PageState::kSwapCache && !pg.in_flight &&
        !pg.under_writeback) {
      tracer_.Span(std::uint32_t(a->index), ThreadTrack(*t),
                   trace::Name::kMap, sim_.Now() - cfg_.map_cost, sim_.Now(),
                   acc.page);
      MapCachedPage(*a, acc.page);
      if (acc.write) MarkDirty(*a, pg);
      ++a->metrics.accesses;
      IssuePrefetches(*a,
                      prefetch::FaultInfo{a->cg, acc.page, t->tid, sim_.Now(),
                                          /*cache_hit=*/true});
      resume();
    } else {
      // Raced: re-fault.
      HandleFault(*a, *t, acc, /*retry=*/true, resume);
    }
  });
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
    auto& part = PartitionFor(app, p);
    double free_frac = 1.0 - part.allocator().Utilization();
    if (free_frac < cfg_.entry_keep_free_threshold) {
      ReleaseTierResidency(app, p);
      part.meta(p.entry) = swapalloc::EntryMeta{};
      part.allocator().Free(p.entry);
      CgroupFor(app, p).UnchargeRemote();
      p.entry = kInvalidEntry;
      p.disk_backed = false;
      p.dirty = true;  // no backing copy: next eviction writes back
    }
  }
  // Adaptive allocator: cancel-on-arrival, debt-matched (§5.1 time/space
  // trade-off applied at the swap-in boundary).
  if (app.reservation && !p.shared)
    app.reservation->MaybeCancelOnArrival(p);
}

void SwapSystem::DemandSwapIn(AppState& app, ThreadCtx& th,
                              workload::Access acc,
                              std::function<void()> resume) {
  ++app.metrics.faults_major;
  NoteTierHeat(app, acc.page);
  prefetch::FaultInfo info{app.cg, acc.page, th.tid, sim_.Now(), false};
  CoreId core = th.core;
  tracer_.Span(std::uint32_t(app.index), ThreadTrack(th),
               trace::Name::kSwapCacheLookup, sim_.Now(),
               sim_.Now() + cfg_.fault_entry_cost, acc.page);
  // The trap/lookup cost precedes the charge + I/O issue.
  sim_.Schedule(cfg_.fault_entry_cost, [this, a = &app, t = &th, acc, info,
                                        core, resume = std::move(resume)] {
    mem::Page& p = a->pages[acc.page];
    if (p.state != mem::PageState::kRemote) {
      // Another thread started (or finished) handling this page meanwhile.
      HandleFault(*a, *t, acc, /*retry=*/true, resume);
      return;
    }
    EnsureFrame(*a, core, [this, a, t, acc, info, resume] {
      mem::Page& pg = a->pages[acc.page];
      if (pg.state != mem::PageState::kRemote) {
        HandleFault(*a, *t, acc, /*retry=*/true, resume);
        return;
      }
      CgroupFor(*a, pg).ChargeCache();
      CacheFor(*a, pg).Insert(a->cg, acc.page, /*locked=*/true,
                              /*prefetched=*/false, sim_.Now());
      pg.state = mem::PageState::kSwapCache;
      pg.in_flight = true;
      pg.in_flight_prefetch = false;
      std::uint32_t expected = ++pg.seq;
      if (pg.entry != kInvalidEntry)
        PartitionFor(*a, pg).meta(pg.entry).prefetch_ts = kTimeNever;

      auto req = std::make_unique<rdma::Request>();
      req->op = rdma::Op::kDemandIn;
      req->cgroup = pg.shared ? shared_cg_ : a->cg;
      req->page = acc.page;
      req->entry = pg.entry;
      req->owner_app = std::uint32_t(a->index);
      req->created = sim_.Now();
      StampPool(*a, pg, *req, /*place=*/false);
      bool from_disk = pg.disk_backed;
      bool from_tier = pg.tier_backed;
      req->on_complete = [this, a, t, page = acc.page, acc, expected,
                          resume](const rdma::Request& r) {
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
          HandleFault(*a, *t, acc, /*retry=*/true, resume);
          return;
        }
        CheckSwapInOracle(*a, pg2, r);
        if (tier_) {
          if (r.served_by_tier)
            // Always-on tier-latency sample (report percentiles, like
            // fault_latency).
            a->metrics.tier_latency.Add(std::uint64_t(r.completed -
                                                      r.created));
          else if (!r.served_by_disk)
            MaybePromoteToTier(*a, page, pg2);
        }
        // A pinned page stays cache-locked until its behaviour releases it
        // (DESIGN.md §16); pins are always zero with the registry off.
        if (pg2.pins == 0) CacheFor(*a, pg2).Unlock(a->cg, page);
        pg2.in_flight = false;
        sim_.Schedule(cfg_.map_cost, [this, a, t, page, acc, expected,
                                      resume] {
          mem::Page& pg3 = a->pages[page];
          if (pg3.seq == expected &&
              pg3.state == mem::PageState::kSwapCache && !pg3.in_flight &&
              !pg3.under_writeback) {
            tracer_.Span(std::uint32_t(a->index), ThreadTrack(*t),
                         trace::Name::kMap, sim_.Now() - cfg_.map_cost,
                         sim_.Now(), page);
            MapCachedPage(*a, page);
            if (acc.write) MarkDirty(*a, pg3);
            ++a->metrics.accesses;
            WakeWaiters(*a, page);
            resume();
            return;
          }
          WakeWaiters(*a, page);
          HandleFault(*a, *t, acc, /*retry=*/true, resume);
        });
      };
      if (tier_ && from_tier) {
        // The copy of record lives in the local tier: fetch it at
        // slow-memory latency, never touching the fabric.
        ++a->metrics.tier_swapins;
        tier_->Submit(std::move(req));
      } else if (disk_ && from_disk) {
        // The current copy lives on the local-disk fallback.
        ++a->metrics.disk_swapins;
        disk_->Submit(std::move(req));
      } else {
        if (disk_)
          req->on_error = [this, a](rdma::RequestPtr r) {
            ReissueDemand(*a, std::move(r));
          };
        scheduler_->Enqueue(std::move(req));
      }
      IssuePrefetches(*a, info);
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
  // Speculative reads are pure waste while the server is dark or the cgroup
  // is failed over to the disk (no disk prefetch path is modeled); demand
  // traffic keeps the detectors warm for recovery.
  if (injector_ && (injector_->ServerDown(sim_.Now()) ||
                    cgroups_.Get(app.cg).backend() != SwapBackend::kRemote))
    return;
  prefetch_buf_.clear();
  prefetcher_->OnFault(info, prefetch_buf_);
  Cgroup& cg = cgroups_.Get(app.cg);
  bool charged_over = false;
  for (PageId cand : prefetch_buf_) {
    if (app.prefetch_inflight >= cfg_.max_inflight_prefetch) break;
    if (cand >= app.pages.size()) continue;
    mem::Page& p = app.pages[cand];
    if (p.state != mem::PageState::kRemote || p.shared) continue;
    if (p.entry == kInvalidEntry || p.disk_backed || p.tier_backed) continue;
    // Prefetches may transiently overshoot the memory budget by one reclaim
    // batch (kernel watermark slack); background reclaim below pushes the
    // usage back down by evicting LRU pages — prefetched data displacing
    // resident pages is the cache-pollution dynamic of §3.
    if (cg.charged_pages() + 1 >
        cg.spec().local_mem_pages + cfg_.reclaim_batch)
      break;
    if (cg.charged_pages() + 1 > cg.spec().local_mem_pages)
      charged_over = true;

    cg.ChargeCache();
    app.cache->Insert(app.cg, cand, /*locked=*/true, /*prefetched=*/true,
                      sim_.Now());
    p.state = mem::PageState::kSwapCache;
    p.in_flight = true;
    p.in_flight_prefetch = true;
    p.prefetched_unused = true;
    std::uint32_t expected = ++p.seq;
    auto& pmeta = PartitionFor(app, p).meta(p.entry);
    pmeta.prefetch_ts = sim_.Now();
    pmeta.valid = true;
    ++app.metrics.prefetch_issued;
    ++app.prefetch_inflight;
    tracer_.Instant(std::uint32_t(app.index), trace::kCgroupTrack,
                    trace::Name::kPrefetchIssue, sim_.Now(), cand);

    auto req = std::make_unique<rdma::Request>();
    req->op = rdma::Op::kPrefetchIn;
    req->cgroup = app.cg;
    req->page = cand;
    req->entry = p.entry;
    req->owner_app = std::uint32_t(app.index);
    req->created = sim_.Now();
    StampPool(app, p, *req, /*place=*/false);
    req->on_complete = [this, a = &app, cand,
                        expected](const rdma::Request& r) {
      if (a->prefetch_inflight > 0) --a->prefetch_inflight;
      mem::Page& pg = a->pages[cand];
      if (pg.seq != expected) return;  // page moved on
      if (pg.entry != kInvalidEntry) {
        auto& m = PartitionFor(*a, pg).meta(pg.entry);
        if (!m.valid) {
          // A rescuing demand request took over this page (§5.3): the stale
          // prefetch discards itself.
          m.valid = true;
          ++a->metrics.prefetch_discarded;
          tracer_.Instant(std::uint32_t(a->index), trace::kCgroupTrack,
                          trace::Name::kPrefetchDiscard, sim_.Now(), cand);
          return;
        }
      }
      if (pg.state != mem::PageState::kSwapCache || !pg.in_flight) return;
      CheckSwapInOracle(*a, pg, r);
      ++a->metrics.prefetch_completed;
      if (pg.pins == 0) a->cache->Unlock(a->cg, cand);
      pg.in_flight = false;
      pg.in_flight_prefetch = false;
      WakeWaiters(*a, cand);
      // Enforce the cache budget after arrival.
      ShrinkCache(*a, a->cache->capacity());
    };
    req->on_drop = [this, a = &app, cand, expected](const rdma::Request&) {
      if (a->prefetch_inflight > 0) --a->prefetch_inflight;
      mem::Page& pg = a->pages[cand];
      ++a->metrics.prefetch_dropped;
      tracer_.Instant(std::uint32_t(a->index), trace::kCgroupTrack,
                      trace::Name::kPrefetchDrop, sim_.Now(), cand);
      if (pg.seq != expected) return;  // a rescue demand owns the page now
      auto key = WaiterKey(*a, cand);
      if (waiters_.Contains(key)) {
        // Threads already block on this page: convert to a demand fetch.
        pg.in_flight_prefetch = false;
        pg.prefetched_unused = false;
        if (pg.entry != kInvalidEntry)
          PartitionFor(*a, pg).meta(pg.entry).prefetch_ts = kTimeNever;
        IssueRescueDemand(*a, cand);
        return;
      }
      // Nobody needs it yet: unwind the in-flight state entirely.
      a->cache->Remove(a->cg, cand);
      CgroupFor(*a, pg).UnchargeCache();
      pg.state = mem::PageState::kRemote;
      pg.in_flight = false;
      pg.in_flight_prefetch = false;
      pg.prefetched_unused = false;
      if (pg.entry != kInvalidEntry)
        PartitionFor(*a, pg).meta(pg.entry).prefetch_ts = kTimeNever;
      GrantFrames(*a);
    };
    scheduler_->Enqueue(std::move(req));
  }
  // kswapd analogue: bring usage back under the limit in the background.
  if (charged_over && app.active_reclaimers == 0) {
    ++app.active_reclaimers;
    ReclaimLoop(app, app.threads.empty() ? 0 : app.threads.front().core,
                cfg_.reclaim_batch);
  }
}

void SwapSystem::IssueRescueDemand(AppState& app, PageId page) {
  mem::Page& p = app.pages[page];
  assert(p.state == mem::PageState::kSwapCache && p.in_flight);
  tracer_.Instant(std::uint32_t(app.index), trace::kCgroupTrack,
                  trace::Name::kRescue, sim_.Now(), page);
  std::uint32_t expected = ++p.seq;  // take over from the stale prefetch
  auto req = std::make_unique<rdma::Request>();
  req->op = rdma::Op::kDemandIn;
  req->cgroup = app.cg;
  req->page = page;
  req->entry = p.entry;
  req->owner_app = std::uint32_t(app.index);
  req->created = sim_.Now();
  StampPool(app, p, *req, /*place=*/false);
  bool from_disk = p.disk_backed;
  bool from_tier = p.tier_backed;
  req->on_complete = [this, a = &app, page,
                      expected](const rdma::Request& r) {
    mem::Page& pg = a->pages[page];
    if (pg.seq != expected) return;
    if (pg.state != mem::PageState::kSwapCache || !pg.in_flight) return;
    CheckSwapInOracle(*a, pg, r);
    if (tier_ && r.served_by_tier)
      a->metrics.tier_latency.Add(std::uint64_t(r.completed - r.created));
    if (pg.pins == 0) a->cache->Unlock(a->cg, page);
    pg.in_flight = false;
    pg.in_flight_prefetch = false;
    WakeWaiters(*a, page);
  };
  if (tier_ && from_tier) {
    ++app.metrics.tier_swapins;
    tier_->Submit(std::move(req));
  } else if (disk_ && from_disk) {
    ++app.metrics.disk_swapins;
    disk_->Submit(std::move(req));
  } else {
    if (disk_)
      req->on_error = [this, a = &app](rdma::RequestPtr r) {
        ReissueDemand(*a, std::move(r));
      };
    scheduler_->Enqueue(std::move(req));
  }
}

// ---------------------------------------------------------------------------
// Object-granularity cooperative swapping (DESIGN.md §16)
// ---------------------------------------------------------------------------

void SwapSystem::CoopDone(CoopBatch& batch) {
  if (--batch.pending == 0 && batch.ready) batch.ready();
}

bool SwapSystem::PumpBehaviours(AppState& app, ThreadCtx& th) {
  std::uint64_t next = th.stream->NextBehaviour();
  if (th.behaviour != object::kNoBehaviour && th.behaviour != next) {
    // The previous behaviour ran to completion: unpin its read-set.
    app.behaviours->CompleteFront(th.tid);
    th.behaviour = object::kNoBehaviour;
  }
  if (next == object::kNoBehaviour) {
    // Unstructured (or drained) stream: plain page-granular execution.
    SyncObjectMetrics(app);
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
    SyncObjectMetrics(app);
    return false;
  }
  if (app.behaviours->FrontReady(th.tid)) {
    app.behaviours->Dispatch(th.tid);
    th.behaviour = next;
    SyncObjectMetrics(app);
    return false;
  }
  // Read-set still arriving: park until the batch's `ready` fires.
  th.parked = true;
  th.park_started = sim_.Now();
  SyncObjectMetrics(app);
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
  CoopDone(*batch);  // release the scan sentinel
}

void SwapSystem::StepObjectPage(AppState& app, PageId page,
                                std::shared_ptr<CoopBatch> batch) {
  if (app.reaped) {
    CoopDone(*batch);
    return;
  }
  mem::Page& p = app.pages[page];
  switch (p.state) {
    case mem::PageState::kUntouched: {
      // MAP_POPULATE-style preparation: commit the zero-fill frame ahead
      // of dispatch so the behaviour's first touch is a plain resident
      // access instead of a direct-reclaim stall mid-behaviour. Any
      // reclaim this triggers overlaps the previous behaviour's compute.
      CoreId core = app.threads.empty() ? 0 : app.threads.front().core;
      EnsureFrame(app, core, [this, a = &app, page, batch] {
        if (a->reaped) {
          CoopDone(*batch);
          return;
        }
        mem::Page& pg = a->pages[page];
        if (pg.state != mem::PageState::kUntouched) {
          StepObjectPage(*a, page, batch);  // touched while we waited
          return;
        }
        pg.state = mem::PageState::kResident;
        pg.dirty = true;  // anonymous page with no backing store yet
        ++pg.content_version;
        ++a->metrics.first_touches;
        cgroups_.Get(a->cg).ChargeResident();
        a->lru->AddActive(page);
        CoopDone(*batch);
      });
      return;
    }
    case mem::PageState::kResident:
      // Local already.
      CoopDone(*batch);
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
      CoopDone(*batch);
      return;
    case mem::PageState::kRemote: {
      // Blackout / failover / disk-homed / shared copies stay with the
      // demand path, which routes them to the right backend — the
      // content-version oracle and failover semantics are untouched. The
      // pin still protects the page once it lands. (Tier-homed pages ARE
      // fetched cooperatively: the tier backend never drops, so the batch
      // continuation is safe there.)
      if (app.retiring || p.shared || p.entry == kInvalidEntry ||
          p.disk_backed ||
          (injector_ &&
           (injector_->ServerDown(sim_.Now()) ||
            cgroups_.Get(app.cg).backend() != SwapBackend::kRemote))) {
        CoopDone(*batch);
        return;
      }
      CoreId core = app.threads.empty() ? 0 : app.threads.front().core;
      EnsureFrame(app, core, [this, a = &app, page, batch] {
        if (a->reaped) {
          CoopDone(*batch);
          return;
        }
        mem::Page& pg = a->pages[page];
        if (pg.state != mem::PageState::kRemote || pg.in_flight) {
          StepObjectPage(*a, page, batch);  // raced: re-examine from the top
          return;
        }
        // Register the continuation *before* the request reaches the
        // scheduler, so a drop sees a waiter and converts to a rescue
        // demand (§5.3) whose completion wakes this batch.
        waiters_[WaiterKey(*a, page)].push_back(
            [this, a, page, batch] { StepObjectPage(*a, page, batch); });
        IssueCooperativeFetch(*a, page);
      });
      return;
    }
  }
}

void SwapSystem::IssueCooperativeFetch(AppState& app, PageId page) {
  // Caller (StepObjectPage) guarantees: kRemote, not in flight, entry
  // valid, remote-backed, healthy fabric, batch waiter registered.
  mem::Page& p = app.pages[page];
  cgroups_.Get(app.cg).ChargeCache();
  app.cache->Insert(app.cg, page, /*locked=*/true, /*prefetched=*/false,
                    sim_.Now());
  p.state = mem::PageState::kSwapCache;
  p.in_flight = true;
  p.in_flight_prefetch = true;  // async class: §5.3 rescue applies
  p.prefetched_unused = false;  // declared, not speculative: accuracy clean
  std::uint32_t expected = ++p.seq;
  auto& pmeta = PartitionFor(app, p).meta(p.entry);
  pmeta.prefetch_ts = sim_.Now();
  pmeta.valid = true;
  ++app.metrics.object_fetches;
  // Reap-quiescence accounting; no max_inflight_prefetch cap — the pin
  // budget already bounds cooperative in-flight pages.
  ++app.prefetch_inflight;
  tracer_.Instant(std::uint32_t(app.index), trace::kCgroupTrack,
                  trace::Name::kPrefetchIssue, sim_.Now(), page);

  auto req = std::make_unique<rdma::Request>();
  req->op = rdma::Op::kPrefetchIn;
  req->cooperative = true;
  req->cgroup = app.cg;
  req->page = page;
  req->entry = p.entry;
  req->owner_app = std::uint32_t(app.index);
  req->created = sim_.Now();
  StampPool(app, p, *req, /*place=*/false);
  req->on_complete = [this, a = &app, page, expected](const rdma::Request& r) {
    if (a->prefetch_inflight > 0) --a->prefetch_inflight;
    mem::Page& pg = a->pages[page];
    if (pg.seq != expected) return;  // page moved on (a rescue owns it)
    if (pg.entry != kInvalidEntry) {
      auto& m = PartitionFor(*a, pg).meta(pg.entry);
      if (!m.valid) {
        // A rescuing demand took over (§5.3): stale data discards itself.
        m.valid = true;
        ++a->metrics.prefetch_discarded;
        return;
      }
    }
    if (pg.state != mem::PageState::kSwapCache || !pg.in_flight) return;
    CheckSwapInOracle(*a, pg, r);
    if (tier_ && r.served_by_tier)
      a->metrics.tier_latency.Add(std::uint64_t(r.completed - r.created));
    if (pg.pins == 0) a->cache->Unlock(a->cg, page);
    pg.in_flight = false;
    pg.in_flight_prefetch = false;
    WakeWaiters(*a, page);  // the batch continuation re-steps here
    ShrinkCache(*a, a->cache->capacity());
  };
  req->on_drop = [this, a = &app, page, expected](const rdma::Request&) {
    if (a->prefetch_inflight > 0) --a->prefetch_inflight;
    mem::Page& pg = a->pages[page];
    ++a->metrics.prefetch_dropped;
    if (pg.seq != expected) return;
    // The batch continuation is always a registered waiter, so a drop
    // converts to a rescue demand rather than unwinding in-flight state.
    pg.in_flight_prefetch = false;
    if (pg.entry != kInvalidEntry)
      PartitionFor(*a, pg).meta(pg.entry).prefetch_ts = kTimeNever;
    IssueRescueDemand(*a, page);
  };
  if (tier_ && p.tier_backed) {
    // The copy of record lives in the local slow tier: the cooperative
    // batch reads it at slow-memory latency, never touching the fabric
    // (the tier backend always completes, so on_drop stays unused).
    ++app.metrics.tier_swapins;
    tier_->Submit(std::move(req));
  } else {
    scheduler_->Enqueue(std::move(req));
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

void SwapSystem::SyncObjectMetrics(AppState& app) {
  if (!app.behaviours) return;
  const object::BehaviourStats& s = app.behaviours->stats();
  AppMetrics& m = app.metrics;
  m.behaviours_declared = s.declared;
  m.behaviours_dispatched = s.dispatched;
  m.behaviours_completed = s.completed;
  m.object_stale_handles = s.stale_reads;
  m.behaviour_deferrals = s.budget_deferrals;
  if (app.objects) {
    m.object_pins = app.objects->pins_issued();
    m.object_unpins = app.objects->pins_released();
  }
}

// ---------------------------------------------------------------------------
// Reclaim / eviction
// ---------------------------------------------------------------------------

void SwapSystem::EnsureFrame(AppState& app, CoreId core,
                             std::function<void()> granted) {
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
  if (app.cache->size() > app.cache->capacity()) {
    mem::SwapCache::Entry victim;
    if (app.cache->PopLruUnlocked(victim)) {
      AppState& owner =
          victim.app < apps_.size() && apps_[victim.app]
              ? *apps_[victim.app]
              : app;
      ReleaseCleanCachePage(owner, victim.page);
      ReclaimLoop(app, core, budget - 1);
      return;
    }
  }
  PageId v = app.lru->EvictionCandidate();
  if (v == kInvalidPage) {
    // Nothing on the LRU: steal a clean page from the cache, else wait for
    // in-flight writebacks.
    mem::SwapCache::Entry victim;
    if (app.cache->PopLruUnlocked(victim)) {
      AppState& owner =
          victim.app < apps_.size() && apps_[victim.app]
              ? *apps_[victim.app]
              : app;
      ReleaseCleanCachePage(owner, victim.page);
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
  sim_.Schedule(cfg_.evict_page_cost, [this, a = &app, v, core, budget] {
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
        freed = a->reservation->EmergencyReclaim(cfg_.strip_batch);
      if (freed == 0) freed = StripKeptEntries(*a, cfg_.strip_batch);
      if (freed == 0) {
        // Shared partition: strip from co-runners too.
        for (auto& other : apps_) {
          if (!other || other.get() == a) continue;
          if (other->partition != a->partition) continue;
          freed += StripKeptEntries(*other, cfg_.strip_batch);
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
  auto req = std::make_unique<rdma::Request>();
  req->op = rdma::Op::kSwapOut;
  req->cgroup = p.shared ? shared_cg_ : app.cg;
  req->page = victim;
  req->entry = entry;
  req->owner_app = std::uint32_t(app.index);
  req->created = sim_.Now();
  // Writebacks home the entry's slab: the first swap-out into a slab picks
  // its server via the placement policy (reads only follow). With a tier
  // present, placement is deferred until the request actually routes to the
  // remote path — tier-absorbed writebacks must not home slabs they never
  // touch.
  StampPool(app, p, *req, /*place=*/!tier_);
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
    // Where does the data live *now*? A remote writeback whose slab was
    // harvested mid-flight landed on a server that immediately forwarded it
    // to disk — record the disk as the copy of record in that case. A
    // tier-served writeback makes the local tier the copy of record.
    bool on_tier_now = r.served_by_tier;
    bool on_disk_now = !on_tier_now &&
                       (r.served_by_disk ||
                        (pool_ && r.partition != rdma::kNoPoolPartition &&
                         pool_->OnDisk(r.partition, entry)));
    pg.disk_backed = on_disk_now;
    pg.tier_backed = on_tier_now;
    auto& m = PartitionFor(*a, pg).meta(entry);
    m.content_version = version;
    m.on_disk = on_disk_now;
    m.on_tier = on_tier_now;
    if (tier_ && !on_tier_now)
      // A residency claimed at admission (or left over from an earlier
      // epoch) whose data landed elsewhere is stale: drop it.
      tier_->Release(WaiterKey(*a, victim));
    if (!r.served_by_disk && !r.served_by_tier)
      cgroups_.Get(a->cg).NoteRemoteSuccess();
    ++a->metrics.swapouts;
    GrantFrames(*a);
    WakeWaiters(*a, victim);  // threads that faulted during writeback
  };
  bool to_disk =
      disk_ && cgroups_.Get(app.cg).backend() == SwapBackend::kLocalDisk;
  if (!to_disk && pool_ && req->partition != rdma::kNoPoolPartition &&
      pool_->OnDisk(req->partition, entry))
    // The entry's slab is disk-homed (evicted by harvest pressure or a
    // server outage): write straight to the copy of record.
    to_disk = true;
  // Hybrid local tier (DESIGN.md §14): evictions land in the nearest level
  // first. Under the capacity and per-cgroup quota the tier absorbs the
  // writeback (proactive demotion keeps headroom); already-resident pages
  // rewrite their tier copy in place. Disk-homed entries keep their copy of
  // record on disk, and shared pages stay out (their frames alias across
  // applications, which the per-app residency key cannot express).
  bool to_tier = false;
  if (tier_ && !to_disk && !p.shared) {
    if (tier_->Admit(WaiterKey(app, victim), app.cg)) {
      to_tier = true;
    } else {
      ++app.metrics.tier_rejects;
      // Failed over onto the tier and refused: spill to the disk backstop.
      if (disk_ && cgroups_.Get(app.cg).backend() == SwapBackend::kLocalTier)
        to_disk = true;
    }
  }
  if (to_tier) {
    ++app.metrics.tier_swapouts;
    tier_->Submit(std::move(req));
  } else if (to_disk) {
    // Failed-over cgroup (or disk-homed slab): writebacks are absorbed by
    // the local disk.
    ++app.metrics.disk_swapouts;
    disk_->Submit(std::move(req));
  } else {
    if (tier_) StampPool(app, p, *req, /*place=*/true);
    if (disk_)
      req->on_error = [this, a = &app](rdma::RequestPtr r) {
        // The remote path gave up on this writeback; the disk always
        // accepts it (and the failure streak may fail the cgroup over).
        ++a->metrics.rdma_exhausted;
        NoteExhausted(*a);
        r->attempts = 0;
        r->status = rdma::RequestStatus::kOk;
        ++a->metrics.disk_swapouts;
        disk_->Submit(std::move(r));
      };
    scheduler_->Enqueue(std::move(req));
  }
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
      auto& part = PartitionFor(app, p);
      ReleaseTierResidency(app, p);
      part.meta(p.entry) = swapalloc::EntryMeta{};
      part.allocator().Free(p.entry);
      CgroupFor(app, p).UnchargeRemote();
      p.entry = kInvalidEntry;
      p.disk_backed = false;
      ++freed;
    }
  }
  app.strip_cursor =
      (app.strip_cursor + scanned) % std::max<PageId>(app.pages.size(), 1);
  return freed;
}

void SwapSystem::ReleaseCleanCachePage(AppState& app, PageId page) {
  mem::Page& p = app.pages[page];
  assert(p.state == mem::PageState::kSwapCache && !p.in_flight);
  CgroupFor(app, p).UnchargeCache();
  p.state = mem::PageState::kRemote;
  ++p.seq;
  if (p.prefetched_unused) {
    p.prefetched_unused = false;
    ++app.metrics.prefetch_wasted;
    if (p.entry != kInvalidEntry)
      PartitionFor(app, p).meta(p.entry).prefetch_ts = kTimeNever;
    if (prefetcher_) prefetcher_->OnPrefetchWasted(app.cg, page);
  }
  GrantFrames(app);
}

void SwapSystem::ShrinkCache(AppState& app, std::size_t target) {
  mem::SwapCache::Entry victim;
  while (app.cache->size() > target) {
    if (!app.cache->PopLruUnlocked(victim)) break;
    AppState& owner = victim.app < apps_.size() && apps_[victim.app]
              ? *apps_[victim.app]
              : app;
    ReleaseCleanCachePage(owner, victim.page);
  }
}

}  // namespace canvas::core
