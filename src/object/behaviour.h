// Cooperative behaviour scheduler (DESIGN.md §16).
//
// A behaviour is a unit of work with a declared object read-set — the model
// verona-rt's cown swapper exposes: the runtime knows which cowns (objects)
// a behaviour will touch *before* it runs, so fetches can be issued ahead
// of dispatch and the work never takes a demand fault. The scheduler keeps
// a per-thread FIFO of declared behaviours, resolves each read-set to pages
// through the ObjectRegistry (generation-checked), issues one object-
// granular fetch batch per behaviour through its fetch callback, pins the
// objects for the behaviour's duration, and unpins at completion so normal
// writeback/eviction resumes.
//
// The scheduler is policy only: it owns no pages and issues no I/O itself.
// Its fetch and release callbacks — bound by core::SwapSystem — are the
// mechanism boundary, which is what keeps this library free of core
// dependencies (common -> runtime -> object -> workload -> core).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "common/types.h"
#include "object/registry.h"

namespace canvas::object {

struct BehaviourStats {
  std::uint64_t declared = 0;
  std::uint64_t dispatched = 0;
  std::uint64_t completed = 0;
  /// Behaviours whose read-set referenced a stale/unknown handle (skipped
  /// pages fall back to demand faulting).
  std::uint64_t stale_reads = 0;
  /// Lookahead declarations deferred by the pinned-page budget.
  std::uint64_t budget_deferrals = 0;
};

class BehaviourScheduler {
 public:
  /// Pull the read-set of thread `tid`'s idx-th undeclared behaviour
  /// (idx counts from the declaration frontier); false when none.
  using PeekFn =
      std::function<bool(std::size_t idx, std::vector<ObjectHandle>& out)>;
  /// Fired when the *front* behaviour of `tid` becomes ready while a
  /// consumer may be parked on it.
  using ReadyFn = std::function<void(ThreadId tid)>;
  /// Make every page of one behaviour's deduplicated set local and pinned
  /// (remote pages are fetched through the cooperative channel; local and
  /// cached pages are pinned in place). Invokes `ready` exactly once when
  /// the whole batch is local — immediately when nothing needs fetching.
  /// The pages stay pinned until the release callback.
  using FetchFn =
      std::function<void(const std::vector<PageId>&, std::function<void()>)>;
  /// Balance a completed fetch: unpin the pages so they rejoin the normal
  /// eviction/writeback lifecycle.
  using ReleaseFn = std::function<void(const std::vector<PageId>&)>;

  /// Behaviours fetched ahead of the one running, per thread.
  static constexpr std::size_t kLookahead = 2;

  /// `pin_budget` caps pinned pages across all open behaviours (0 =
  /// unbounded). The front behaviour of a thread is always admitted
  /// (progress guarantee), so the budget gates only the lookahead.
  BehaviourScheduler(ObjectRegistry* registry, FetchFn fetch,
                     ReleaseFn release, std::uint64_t pin_budget)
      : registry_(registry),
        fetch_(std::move(fetch)),
        release_(std::move(release)),
        pin_budget_(pin_budget) {}

  void SetReadyCallback(ReadyFn fn) { on_ready_ = std::move(fn); }

  /// Declare + fetch up to kLookahead behaviours ahead of the dispatch
  /// point for `tid`, pulling read-sets through `peek`.
  void Pump(ThreadId tid, const PeekFn& peek);

  /// Is anything declared for `tid`?
  bool HasFront(ThreadId tid) const;
  /// Is the front behaviour's batch fully local (safe to dispatch)?
  bool FrontReady(ThreadId tid) const;
  /// Mark the front behaviour running; returns its id.
  BehaviourId Dispatch(ThreadId tid);
  /// Retire the running front behaviour: unpin its objects and release its
  /// pages through the release callback.
  void CompleteFront(ThreadId tid);
  /// Thread finished or tenant retiring: complete/abandon every open
  /// behaviour of `tid`, releasing all pins.
  void ReleaseThread(ThreadId tid);

  const BehaviourStats& stats() const { return stats_; }

 private:
  struct Behaviour {
    BehaviourId id = kNoBehaviour;
    std::vector<ObjectHandle> objects;  // successfully pinned handles
    std::vector<PageId> pages;          // dedup'd union of object spans
    bool ready = false;
    bool running = false;
  };

  void Unwind(Behaviour& b);

  ObjectRegistry* registry_;
  FetchFn fetch_;
  ReleaseFn release_;
  std::uint64_t pin_budget_;
  ReadyFn on_ready_;
  BehaviourId next_id_ = 0;
  /// Ordered map for deterministic teardown; per-thread declaration FIFOs.
  std::map<ThreadId, std::deque<Behaviour>> queues_;
  std::uint64_t open_pages_ = 0;
  BehaviourStats stats_;
};

}  // namespace canvas::object
