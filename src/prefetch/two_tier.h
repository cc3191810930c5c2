// Canvas two-tier adaptive prefetcher (§5.2).
//
// Kernel tier: a per-cgroup VMA readahead instance (cheap, runs on the
// faulting core). Its effectiveness is monitored per application: if it
// prefetched no page at each of the last N (=3) faults, the faulting
// addresses start being forwarded — via the modified userfaultfd channel —
// to the application tier. Forwarding stops as soon as the kernel tier is
// effective again.
//
// Application tier (runs in the language runtime): chooses between two
// semantic analyses per fault, following the paper's policy:
//   (2) thread-based — if the application runs many threads AND the fault
//       falls inside a registered large array, the per-*user-thread* fault
//       stream is analyzed with Leap's majority vote (GC/JIT threads are
//       filtered out via the runtime's thread map);
//   (1) reference-based — otherwise, prefetch the pages reachable within 3
//       hops of the faulting page's group in the write-barrier summary
//       graph.
// Native applications get only (2), with kernel threads used directly.
#pragma once

#include <deque>

#include "common/flat_map.h"
#include "prefetch/prefetcher.h"
#include "prefetch/readahead.h"
#include "runtime/runtime_info.h"

namespace canvas::prefetch {

class TwoTierPrefetcher : public Prefetcher {
 public:
  struct Config {
    /// Consecutive ineffective faults before forwarding starts (paper N=3).
    std::uint32_t consecutive_faults = 3;
    /// "Many threads" bar for choosing the thread-based analysis.
    std::size_t many_threads = 8;
    /// Accuracy gate: the app tier pauses when fewer than this fraction of
    /// its recent prefetches were used (semantic patterns absent), and
    /// re-probes every `reprobe_interval` forwarded faults.
    double min_accuracy = 0.40;
    std::uint32_t accuracy_min_samples = 64;
    std::uint32_t reprobe_interval = 1024;
  };

  explicit TwoTierPrefetcher(Config cfg);

  /// Attach an application's runtime model. `managed` enables the
  /// reference-based analysis (JVM-style runtimes); native apps get only
  /// the thread-based analysis.
  void RegisterApp(CgroupId app, const runtime::RuntimeInfo* info,
                   bool managed);

  /// Cooperative mode (DESIGN.md §16): the behaviour scheduler declares
  /// this app's read-sets ahead of dispatch, so speculative prefetching is
  /// redundant — both tiers stand down for the cgroup and the cooperative
  /// channel's batches are recorded instead. Never set by default, keeping
  /// classic runs byte-identical.
  void SetCooperative(CgroupId app, bool on);
  /// Account one object-granular fetch batch injected through the
  /// cooperative channel (pages = deduplicated batch size).
  void NoteCooperativeBatch(CgroupId app, std::size_t pages);

  void OnFault(const FaultInfo& fault, std::vector<PageId>& out) override;
  void OnPrefetchUsed(CgroupId app, PageId page) override;
  void OnPrefetchWasted(CgroupId app, PageId page) override;
  /// Drops the app-tier state AND the registered RuntimeInfo pointer — the
  /// runtime model dies with the tenant, so keeping it would dangle.
  void Forget(CgroupId app) override {
    apps_.Erase(app);
    kernel_tier_.Forget(app);
  }
  void ForgetThread(ThreadId tid) override { thread_states_.Erase(tid); }
  const char* name() const override { return "two-tier"; }

  bool IsForwarding(CgroupId app) const;
  std::uint64_t forwarded_faults() const { return forwarded_; }
  std::uint64_t thread_tier_prefetches() const { return thread_pf_; }
  std::uint64_t ref_tier_prefetches() const { return ref_pf_; }
  std::uint64_t cooperative_batches() const { return coop_batches_; }
  std::uint64_t cooperative_pages() const { return coop_pages_; }

 private:
  struct AppState {
    const runtime::RuntimeInfo* info = nullptr;
    bool managed = false;
    std::uint32_t ineffective_streak = 0;
    bool forwarding = false;
    /// Read-sets arrive through the cooperative channel; both prefetch
    /// tiers stand down for this cgroup (DESIGN.md §16).
    bool cooperative = false;
    // Accuracy tracking (decayed counters).
    double used = 0;
    double wasted = 0;
    std::uint32_t since_probe = 0;
  };
  struct ThreadState {
    PageId last_page = kInvalidPage;
    std::deque<std::int64_t> deltas;
    std::uint32_t window = 1;
  };

  void AppTier(AppState& st, const FaultInfo& fault,
               std::vector<PageId>& out);
  void ThreadBased(const FaultInfo& fault, std::vector<PageId>& out);

  Config cfg_;
  ReadaheadPrefetcher kernel_tier_;
  FlatMap64<AppState> apps_;           // keyed by cgroup
  FlatMap64<ThreadState> thread_states_;  // keyed by (kernel) thread id
  std::uint64_t forwarded_ = 0;
  std::uint64_t thread_pf_ = 0;
  std::uint64_t ref_pf_ = 0;
  std::uint64_t coop_batches_ = 0;
  std::uint64_t coop_pages_ = 0;
};

}  // namespace canvas::prefetch
