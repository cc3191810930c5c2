// SwapSystem: the complete remote-memory swap stack for one co-run
// experiment — Canvas's contribution plus every baseline, selected by
// SystemConfig.
//
// Wiring (cf. the paper's Figure 1):
//   application threads (simulated processes pulling from ThreadStreams)
//     -> page table / LRU (per app)
//     -> swap cache (per-cgroup private + global shared, or one shared)
//     -> swap partition + entry allocator (per-cgroup or shared)
//     -> prefetcher (readahead / Leap / two-tier)
//     -> dispatch scheduler (FIFO / Fastswap / two-dimensional)
//     -> simulated RDMA NIC.
//
// The fault-handling path reproduces the kernel sequence of §2, including
// cgroup accounting, direct reclaim with batched eviction, entry-keeping
// for clean pages (Appendix B), prefetch issue, and the §5.3 stale-prefetch
// drop / blocked-thread rescue protocol.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cgroup/cgroup.h"
#include "common/flat_map.h"
#include "core/config.h"
#include "core/metrics.h"
#include "mem/lru.h"
#include "mem/page.h"
#include "mem/swap_cache.h"
#include "object/behaviour.h"
#include "prefetch/leap.h"
#include "prefetch/readahead.h"
#include "prefetch/two_tier.h"
#include "rdma/nic.h"
#include "sched/fastswap.h"
#include "sched/fifo.h"
#include "sched/two_dim.h"
#include "sim/simulator.h"
#include "swapalloc/partition.h"
#include "swapalloc/reservation.h"
#include "trace/trace.h"
#include "workload/workload.h"

namespace canvas::core {

/// One application plus its resource limits.
struct AppSpec {
  workload::AppWorkload workload;
  CgroupSpec cgroup;
};

/// Ledger row captured when a retired tenant is reaped (DESIGN.md §15):
/// everything the report needs to describe a tenant that no longer has any
/// live state in the system. Per-cgroup maps (NIC byte counters, scheduler
/// drops) are folded in here and then erased, which is what keeps
/// steady-state memory O(active tenants) under churn.
struct RetiredAppRecord {
  std::string name;
  CgroupId cg = kInvalidCgroup;
  /// Registry generation the tenant held (its slot may be reused later).
  std::uint32_t generation = 0;
  SimTime arrived = 0;
  SimTime retired_at = 0;
  AppMetrics metrics;
  std::uint64_t sched_drops = 0;
  double ingress_bytes = 0;
  double egress_bytes = 0;
};

class SwapSystem {
 public:
  SwapSystem(sim::Simulator& sim, SystemConfig cfg,
             std::vector<AppSpec> apps);
  ~SwapSystem();
  SwapSystem(const SwapSystem&) = delete;
  SwapSystem& operator=(const SwapSystem&) = delete;

  /// Launch all application threads (call once, then Simulator::Run()).
  void Start();

  // --- tenant lifecycle (DESIGN.md §15) ---

  /// Admit a tenant mid-run. The new application takes the lowest free
  /// registry slot (slot reuse mirrors CgroupRegistry id reuse, so the
  /// "cgroup id == app index" invariant survives churn) and its threads are
  /// scheduled immediately when the system has already started. Returns the
  /// application index.
  std::size_t AddApp(AppSpec spec);

  /// Begin retiring application `app`: its threads drain at their next
  /// dispatch and, once every in-flight page / prefetch / reclaim chain for
  /// the tenant has quiesced, a reap pass frees all heavy state (pages,
  /// LRU, partition, cache), returns the tenant's slabs to the server pool,
  /// erases its per-cgroup scheduler/prefetcher/NIC map entries, and
  /// retires the cgroup id for reuse. Metrics survive in `retired()`.
  void RetireApp(std::size_t app);

  /// True while slot `app` holds a live (possibly retiring) application.
  bool app_alive(std::size_t app) const {
    return app < apps_.size() && apps_[app] != nullptr;
  }
  /// Live applications (retiring-but-unreaped included).
  std::size_t active_app_count() const { return active_apps_; }
  /// Most applications ever live at once (the churn RSS yardstick).
  std::size_t active_high_water() const { return active_high_water_; }
  /// Tenants retired and fully reaped so far.
  std::size_t retired_count() const { return retired_ledger_.size(); }
  /// Retirements requested but not yet reaped.
  std::size_t pending_retirements() const { return pending_retirements_; }
  const std::vector<RetiredAppRecord>& retired() const {
    return retired_ledger_;
  }
  /// True once the tenant set changed mid-run (post-start AddApp or any
  /// RetireApp). Gates the v4 report schema; false for classic fixed-tenant
  /// runs so their reports stay byte-identical.
  bool lifecycle_active() const { return lifecycle_active_; }
  /// Keeps periodic machinery (pool harvest/control loop, trace sampler,
  /// tier policy) running across gaps where every *current* tenant has
  /// drained but the churn driver still has arrivals scheduled. The hook
  /// returns true while more lifecycle events are coming.
  void SetLifecycleActiveHook(std::function<bool()> hook) {
    lifecycle_hook_ = std::move(hook);
  }
  const CgroupRegistry& cgroups() const { return cgroups_; }

  /// True when the object subsystem is live for at least one tenant this
  /// run (SystemConfig::objects.enabled AND a workload shipped a registry).
  /// Gates the report's object section so registry-off outputs keep the
  /// previous schema byte-identically.
  bool objects_active() const { return objects_active_; }
  /// The tenant's object registry; null for page-granular apps or with the
  /// subsystem off (test oracles: pin balance, generation checks).
  const object::ObjectRegistry* objects(std::size_t app) const {
    return apps_.at(app)->objects.get();
  }
  /// The two-tier prefetcher, when configured (cooperative stand-down
  /// counters for the report); null for other prefetcher kinds.
  const prefetch::TwoTierPrefetcher* two_tier() const { return two_tier_; }

  /// True when every thread of every app has drained its stream.
  bool AllFinished() const;
  /// AllFinished extended by the lifecycle hook: the run (and its periodic
  /// machinery) goes on while the churn driver has more lifecycle events
  /// coming. Without a hook, exactly !AllFinished().
  bool RunActive() const {
    return !AllFinished() || (lifecycle_hook_ && lifecycle_hook_());
  }

  // --- results ---
  std::size_t app_count() const { return apps_.size(); }
  const AppMetrics& metrics(std::size_t app) const;
  const std::string& app_name(std::size_t app) const;
  CgroupId cgroup_of(std::size_t app) const;
  /// The special cgroup that owns shared pages (§4, cgroup-shared).
  CgroupId shared_cgroup_id() const { return shared_cg_; }
  const Cgroup& cgroup(std::size_t app) const;
  const rdma::Nic& nic() const { return *nic_; }
  /// Mutable NIC access (test hooks: retry observer).
  rdma::Nic& mutable_nic() { return *nic_; }
  /// Fault injector (null unless SystemConfig::fault_plan is set).
  const fault::FaultInjector* injector() const { return injector_.get(); }
  /// Local-disk backstop for failover and evicted slabs; never null.
  const fault::LocalDevice* disk() const { return disk_.get(); }
  /// Hybrid local tier (DESIGN.md §14); null unless SystemConfig::tier
  /// names an enabled preset.
  const tier::TierBackend* tier() const { return tier_.get(); }
  /// Remote memory-server pool (DESIGN.md §11); never null. The default
  /// `single` topology is a pool of one transparent server.
  const remote::ServerPool* pool() const { return pool_.get(); }
  /// Raw page metadata (test oracles: content versions, backing location).
  const mem::Page& page(std::size_t app, PageId p) const {
    return apps_.at(app)->pages.at(p);
  }
  std::size_t page_count(std::size_t app) const {
    return apps_.at(app)->pages.size();
  }
  const sched::DispatchScheduler& scheduler() const { return *scheduler_; }
  const swapalloc::SwapPartition& partition(std::size_t app) const;
  /// The partition holding shared pages' entries (test oracles).
  const swapalloc::SwapPartition& shared_partition() const {
    return *global_partition_;
  }
  const mem::SwapCache& cache(std::size_t app) const;
  const swapalloc::ReservationManager* reservation(std::size_t app) const;
  const SystemConfig& config() const { return cfg_; }
  /// Telemetry recorder (DESIGN.md §9). Enabled via SystemConfig::trace;
  /// the mutable overload allows runtime toggling mid-experiment.
  const trace::Tracer& tracer() const { return tracer_; }
  trace::Tracer& tracer() { return tracer_; }
  /// Application display names indexed by app (= trace pid), for exporters.
  std::vector<std::string> AppNames() const;

  /// Weighted min-max ratio of per-app bandwidth over the co-run window
  /// (§6.4.3); 1.0 = perfectly weight-proportional shares.
  double Wmmr(rdma::Direction dir) const;

  /// Debug: print per-app progress and resource state to stderr.
  void DumpState() const;

  /// True when no thread is blocked, no frame waiter is queued, and no
  /// reclaim chain is active — the expected state after AllFinished().
  bool Quiescent() const;

 private:
  struct ThreadCtx {
    ThreadId tid = kInvalidThread;  // globally unique
    CoreId core = 0;
    workload::ThreadStream* stream = nullptr;
    bool done = false;
    SimTime finish = 0;
    SimTime stall_started = 0;  // for fault_stall accounting
    /// Object subsystem (DESIGN.md §16): the stream behaviour currently
    /// dispatched to this thread (kNoBehaviour outside one), and park
    /// state while the front behaviour's read-set batch is still arriving.
    std::uint64_t behaviour = object::kNoBehaviour;
    bool parked = false;
    SimTime park_started = 0;
  };

  struct AppState {
    std::size_t index = 0;
    std::string name;
    CgroupId cg = kInvalidCgroup;
    bool managed = false;
    /// Lifecycle (DESIGN.md §15): `retiring` makes threads drain at their
    /// next dispatch; `reaped` marks a shell whose heavy state is gone —
    /// stale DES events that captured the AppState pointer check it and
    /// become no-ops (the shell outlives the slot in retired_shells_).
    bool retiring = false;
    bool reaped = false;
    SimTime arrived = 0;
    PageId shared_boundary = 0;  // pages [0, boundary) are shared
    std::vector<mem::Page> pages;
    std::unique_ptr<mem::LruLists> lru;
    swapalloc::SwapPartition* partition = nullptr;  // own or shared
    mem::SwapCache* cache = nullptr;                // own or shared
    /// Ownership lives with the tenant so reaping one tenant frees exactly
    /// its resources (previously pooled in SwapSystem-level vectors).
    std::unique_ptr<swapalloc::SwapPartition> owned_partition;
    std::unique_ptr<mem::SwapCache> owned_cache;
    std::vector<std::unique_ptr<workload::ThreadStream>> streams;
    std::vector<std::shared_ptr<void>> keepalive;
    std::unique_ptr<swapalloc::ReservationManager> reservation;
    std::shared_ptr<runtime::RuntimeInfo> runtime;
    std::vector<ThreadCtx> threads;
    std::size_t threads_done = 0;
    AppMetrics metrics;
    // Direct-reclaim machinery: each faulting thread runs its own reclaim
    // chain (kernel direct reclaim), so concurrent faults from many threads
    // contend on the entry allocator exactly as in §3.
    std::vector<sim::InlineCallback> frame_waiters;
    std::uint32_t active_reclaimers = 0;
    bool reclaim_retry_scheduled = false;
    PageId strip_cursor = 0;
    std::uint32_t prefetch_inflight = 0;
    /// Object-granularity cooperative swapping (DESIGN.md §16): registry
    /// and behaviour scheduler. Both null unless
    /// SystemConfig::objects.enabled and the workload ships a registry, so
    /// the classic path never pays for them.
    std::shared_ptr<object::ObjectRegistry> objects;
    std::unique_ptr<object::BehaviourScheduler> behaviours;
    /// Hybrid-tier policy state (sized only when the tier is enabled):
    /// per-page-group demand-fault heat for Memtrade-style cold detection
    /// (last fault instant) and hot-promotion (fault count since the group
    /// last went cold).
    std::vector<SimTime> group_last_fault;
    std::vector<std::uint32_t> group_faults;
  };

  // --- tenant lifecycle internals (DESIGN.md §15) ---
  /// Schedule one application's threads + kswapd tick (split out of Start
  /// so mid-run arrivals launch the same way).
  void StartApp(AppState& app);
  /// True when nothing in flight references the tenant: all threads done,
  /// no in-flight/writeback page, no prefetch outstanding, no reclaim
  /// chain, no blocked continuation, no in-flight tier demotion.
  bool AppQuiescentForReap(const AppState& app) const;
  /// Periodic poll (armed only while retirements are pending) that reaps
  /// every quiescent retiring tenant in ascending slot order.
  void ScheduleReapPoll();
  void TryReap();
  void ReapApp(AppState& app);
  /// Owner lookup tolerant of reaped slots (drain paths).
  AppState* AppFor(std::uint32_t owner);

  // --- thread execution ---
  void RunThread(AppState& app, ThreadCtx& th);
  /// A resolved fault hands the thread back: EndStall, then RunThread.
  void ResumeThread(AppState& app, ThreadCtx& th, PageId page);
  void FinishThread(AppState& app, ThreadCtx& th, SimDuration elapsed);
  /// Background reclaim keeping a free-frame watermark (kswapd analogue).
  void KswapdTick(AppState& app);

  // --- object-granularity cooperative swapping (DESIGN.md §16) ---
  struct CoopBatch;   // in-flight state of one CooperativeFetchAndPin batch
  /// Behaviour pump at dispatch: retire a finished behaviour, declare +
  /// fetch lookahead read-sets, dispatch the front once its batch is
  /// local. Returns true when the thread parked waiting for the batch
  /// (OnBehaviourReady resumes it).
  bool PumpBehaviours(AppState& app, ThreadCtx& th);
  /// Scheduler ready callback: unpark `tid` if it waits on its front
  /// behaviour, charging the wait to behaviour_stall.
  void OnBehaviourReady(AppState& app, ThreadId tid);
  /// Behaviour fetch callback: pin one behaviour's deduplicated page batch
  /// and make every page local; `ready` fires once when done.
  void CooperativeFetchAndPin(AppState& app, const std::vector<PageId>& pages,
                              std::function<void()> ready);
  /// Behaviour release callback: unpin, re-exposing the pages to eviction.
  void CooperativeRelease(AppState& app, const std::vector<PageId>& pages);
  /// Drive one pinned page toward residency (waiter-chained through
  /// writeback/fetch completions); counts down the batch when local.
  void StepObjectPage(AppState& app, PageId page,
                      std::shared_ptr<CoopBatch> batch);

  // --- fault path ---
  // A fault's only continuation is ResumeThread on the faulting thread, so
  // no closure travels down the path: each resolution calls it directly.
  void HandleFault(AppState& app, ThreadCtx& th, workload::Access acc,
                   bool retry);
  void FaultOnCachedPage(AppState& app, ThreadCtx& th, workload::Access acc,
                         bool retry);
  void MapCachedPage(AppState& app, PageId page);
  /// Map `acc.page` and complete the access if it sits idle in the cache.
  bool MapIfIdle(AppState& app, ThreadCtx& th, workload::Access acc);
  void DemandSwapIn(AppState& app, ThreadCtx& th, workload::Access acc);
  void IssuePrefetches(AppState& app, const prefetch::FaultInfo& info);
  /// One async-class read of remote `page`: a prefetch, or a declared object
  /// read when not `speculative`. Holds the only §5.3 drop/discard/rescue.
  void IssueAsyncRead(AppState& app, PageId page, bool speculative);
  /// Take an in-flight page over from its stale async fetch (§5.3) and
  /// issue a demand read for it.
  void IssueRescueDemand(AppState& app, PageId page);

  // --- the request path: every request is built by NewRequest, every
  // read routed by SubmitRead and finished by LandRead ---
  /// A request for `page` charged to `cgroup`, pool-stamped (`place` homes
  /// the entry's slab).
  rdma::RequestPtr NewRequest(AppState& app, PageId page, SwapEntryId entry,
                              rdma::Op op, CgroupId cgroup, bool place);
  /// Route a read to the tier or disk copy of record, else to the scheduler;
  /// only a remote demand read is reissued when its retries run out.
  void SubmitRead(AppState& app, PageId page, rdma::RequestPtr req);
  /// Submit to the local device `to` (kLocalTier or kLocalDisk), counting
  /// the request as that device's swap-in or swap-out.
  void SubmitLocal(AppState& app, SwapBackend to, rdma::RequestPtr req);
  /// Finish a read that still owns its page: oracle, tier latency sample,
  /// unlock unless pinned, clear the in-flight marks.
  void LandRead(AppState& app, PageId page, const rdma::Request& r);

  // --- reclaim / eviction ---
  void EnsureFrame(AppState& app, CoreId core, sim::InlineCallback granted);
  void GrantFrames(AppState& app);
  /// One direct-reclaim pass by one (simulated) thread: evicts up to
  /// `budget` pages, allocating swap entries sequentially.
  void ReclaimLoop(AppState& app, CoreId core, std::uint32_t budget);
  /// Evict one dirty page: allocate an entry (async), then write back.
  void AllocateEntryAndWriteback(AppState& app, PageId victim, CoreId core,
                                 int attempts, std::uint32_t budget);
  void IssueSwapOut(AppState& app, PageId victim, SwapEntryId entry);
  std::size_t StripKeptEntries(AppState& app, std::size_t n);
  /// Free `p`'s swap entry, its tier residency and its remote charge.
  void FreeEntry(AppState& app, mem::Page& p);
  void FinishReclaimer(AppState& app, CoreId core);

  // --- fault recovery (DESIGN.md §8) ---
  /// Blackout onset. Untargeted (`server` = fault::kAllServers): proactively
  /// fail every cgroup over to the disk backend and drain queued
  /// swap-outs/prefetches away from the dead fabric. Targeted: only that
  /// server goes down — its slabs evict to disk and everything else keeps
  /// running (per-server failover).
  void OnFabricDown(int server);
  /// Blackout end: fail every cgroup back to the remote path (untargeted),
  /// or mark the one server reachable again.
  void OnFabricUp(int server);
  /// A request exhausted its retry budget; cross the consecutive-failure
  /// threshold and the cgroup fails over.
  void NoteExhausted(AppState& app);
  void FailoverApp(AppState& app);
  void FailbackApp(AppState& app);
  /// Periodic probe that fails a cgroup back once the server answers again
  /// (covers failovers caused by error bursts rather than blackouts).
  void ScheduleFailbackProbe(AppState& app);
  /// Re-enqueue a retry-exhausted demand read after a short pause (the only
  /// copy of the page is remote — demand reads cannot fail over).
  void ReissueDemand(AppState& app, rdma::RequestPtr req);
  /// True when the pool slab holding `r`'s entry was evicted to disk.
  bool SlabOnDisk(const rdma::Request& r) const;
  /// Home of a completed writeback's copy: the device that served it, or
  /// the disk when a remote write landed in a slab evicted meanwhile.
  SwapBackend WrittenHome(const rdma::Request& r) const;
  /// No-stale-read oracle: the served copy's recorded content version and
  /// backing location must match the page's. Violations count as
  /// `stale_reads` (always zero — checked by the chaos suite).
  void CheckSwapInOracle(AppState& app, mem::Page& p, const rdma::Request& r);

  // --- remote memory-server pool (DESIGN.md §11) ---
  /// Stamp the pool routing fields on a request about to be issued for
  /// `p`'s entry. `place` (writeback path) also homes the entry's slab on
  /// first use — reads never place, they follow.
  void StampPool(AppState& app, const mem::Page& p, rdma::Request& req,
                 bool place);
  /// A slab's entries [lo, hi) moved to the disk backend (harvest pressure
  /// or server failover). Rehomes entry metadata and pages to the disk,
  /// drains queued requests for the range to the disk, and rescues
  /// in-flight reads through the incarnation (seq-bump) protocol.
  void OnSlabEvicted(std::uint32_t pid, std::uint64_t lo, std::uint64_t hi);

  // --- hybrid local tier (DESIGN.md §14) ---
  /// Record a demand fault on `page`'s group for the tier policy's
  /// promotion/cold-detection heat (no-op with the tier off).
  void NoteTierHeat(AppState& app, PageId page);
  /// Hot-page promotion hook, run at remote-served demand completion while
  /// the fetched data is in hand: if the page's group is fault-hot (or the
  /// LRU scanner marked the page hot) and the tier admits it, the tier
  /// becomes the copy of record. Pure data-state change — no new events —
  /// so tier-disabled runs are untouched.
  void MaybePromoteToTier(AppState& app, PageId page, mem::Page& p);
  /// Proactive cold-page demotion scan (periodic tick): above the
  /// occupancy watermark, write the coldest tier residents back to the
  /// remote pool through the normal scheduler path.
  void TierPolicyTick();
  /// Demote one tier-resident entry: issue a kSwapOut carrying the tier
  /// copy's content version; completion re-validates against races (an
  /// in-flight fetch or a dirtying map aborts the demotion).
  void IssueTierDemotion(AppState& app, PageId page);
  /// Drop `p`'s tier residency (entry free / dirtying / strip paths).
  void ReleaseTierResidency(AppState& app, mem::Page& p);

  // --- helpers ---
  /// Fabric dark or cgroup failed over: async reads stay off the fabric.
  bool RemotePathDown(AppState& app);
  void TouchResident(AppState& app, workload::Access acc);
  /// First touch: a dirty zero-filled resident frame.
  void ZeroFill(AppState& app, PageId page);
  void ClearPrefetchTs(AppState& app, const mem::Page& p);
  swapalloc::SwapPartition& PartitionFor(AppState& app, const mem::Page& p);
  mem::SwapCache& CacheFor(AppState& app, const mem::Page& p);
  Cgroup& CgroupFor(AppState& app, const mem::Page& p);
  void MarkDirty(AppState& app, mem::Page& p);
  /// Pop the coldest unlocked page of `app`'s cache and release it to its
  /// owner; false when nothing is unlocked.
  bool ReleaseColdestCachePage(AppState& app);
  void ShrinkCache(AppState& app, std::size_t target);
  std::uint64_t WaiterKey(const AppState& app, PageId page) const;
  void WakeWaiters(AppState& app, PageId page);
  void BeginStall(ThreadCtx& th);
  void EndStall(AppState& app, ThreadCtx& th, PageId page);

  // --- telemetry (DESIGN.md §9) ---
  /// Trace track of a simulated thread (tid 0 is the cgroup-level track).
  static std::uint32_t ThreadTrack(const ThreadCtx& th) { return 1 + th.tid; }
  /// Periodic DES-clock sampler emitting per-cgroup counter time series
  /// (RSS, cache, hit ratio, prefetch accuracy, queue depth, bandwidth).
  /// Pure observation: reads state and writes trace records only, so it
  /// cannot perturb the simulation outcome.
  void SampleTick();

  sim::Simulator& sim_;
  SystemConfig cfg_;
  trace::Tracer tracer_;
  CgroupRegistry cgroups_;
  /// Sparse under churn: slot == cgroup id; reaped (and the shared-cgroup)
  /// slots are null. Dense for classic fixed-tenant runs.
  std::vector<std::unique_ptr<AppState>> apps_;
  /// Reaped tenant shells: kept so stale DES events that captured an
  /// AppState* stay safe (they check `reaped` and bail). Heavy members are
  /// freed — a shell is O(threads), not O(pages).
  std::vector<std::unique_ptr<AppState>> retired_shells_;
  std::vector<RetiredAppRecord> retired_ledger_;
  std::function<bool()> lifecycle_hook_;
  std::size_t active_apps_ = 0;
  std::size_t active_high_water_ = 0;
  std::size_t pending_retirements_ = 0;
  bool started_ = false;
  bool lifecycle_active_ = false;
  bool reap_poll_scheduled_ = false;
  bool objects_active_ = false;

  // Shared-mode resources (also used for shared pages in isolated mode).
  std::unique_ptr<swapalloc::SwapPartition> global_partition_;
  std::unique_ptr<mem::SwapCache> global_cache_;
  CgroupId shared_cg_ = kInvalidCgroup;

  std::unique_ptr<prefetch::Prefetcher> prefetcher_;
  prefetch::TwoTierPrefetcher* two_tier_ = nullptr;  // borrowed view
  std::unique_ptr<sched::DispatchScheduler> scheduler_;
  sched::TwoDimScheduler* two_dim_ = nullptr;  // borrowed view
  std::unique_ptr<rdma::Nic> nic_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<fault::LocalDevice> disk_;
  std::unique_ptr<tier::TierBackend> tier_;
  std::unique_ptr<remote::ServerPool> pool_;
  /// Partitions indexed by their pool partition id (registration order).
  std::vector<swapalloc::SwapPartition*> pool_partitions_;

  /// Continuations blocked on an in-flight page, keyed by the packed
  /// (app index, page) composite key.
  FlatMap64<std::vector<sim::InlineCallback>> waiters_;
  /// Per-app cumulative NIC bytes at the previous sample (ingress, egress),
  /// for the sampler's bandwidth-rate counters.
  std::vector<std::array<double, 2>> sampler_last_bytes_;
  std::vector<PageId> prefetch_buf_;
  std::uint32_t next_core_ = 0;
  ThreadId next_tid_ = 0;

  /// Accesses executed per thread dispatch before yielding an event (keeps
  /// the event count proportional to faults, not accesses).
  static constexpr int kAccessBatch = 2048;
};

}  // namespace canvas::core
