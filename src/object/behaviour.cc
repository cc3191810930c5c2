#include "object/behaviour.h"

#include <algorithm>

namespace canvas::object {

void BehaviourScheduler::Pump(ThreadId tid, const PeekFn& peek) {
  std::deque<Behaviour>& q = queues_[tid];
  while (q.size() < kLookahead) {
    std::vector<ObjectHandle> reads;
    if (!peek(q.size(), reads)) break;

    // Resolve the read-set before pinning anything so the budget check can
    // reject the whole behaviour atomically. Stale handles (object reaped
    // or registry cleared since the stream was built) are skipped: those
    // pages simply demand-fault like any page-granular access.
    Behaviour b;
    std::vector<ObjectHandle> live;
    for (ObjectHandle h : reads) {
      const ObjectSpan* s = registry_->Find(h);
      if (!s) {
        ++stats_.stale_reads;
        continue;
      }
      live.push_back(h);
      for (std::uint32_t i = 0; i < s->pages; ++i)
        b.pages.push_back(s->first + i);
    }
    std::sort(b.pages.begin(), b.pages.end());
    b.pages.erase(std::unique(b.pages.begin(), b.pages.end()),
                  b.pages.end());

    // The front behaviour is always admitted (the thread cannot make
    // progress otherwise); lookahead beyond it respects the pin budget.
    if (!q.empty() && pin_budget_ &&
        open_pages_ + b.pages.size() > pin_budget_) {
      ++stats_.budget_deferrals;
      break;
    }

    b.id = next_id_++;
    for (ObjectHandle h : live)
      if (registry_->Pin(h)) b.objects.push_back(h);
    open_pages_ += b.pages.size();
    ++stats_.declared;
    q.push_back(std::move(b));

    // Issue after enqueue: the fetch may invoke `ready` synchronously when
    // every page is already local.
    Behaviour& issued = q.back();
    BehaviourId id = issued.id;
    fetch_(issued.pages, [this, tid, id] {
      auto it = queues_.find(tid);
      if (it == queues_.end()) return;  // thread released meanwhile
      for (Behaviour& cand : it->second) {
        if (cand.id != id) continue;
        cand.ready = true;
        if (&cand == &it->second.front() && on_ready_) on_ready_(tid);
        return;
      }
    });
  }
}

bool BehaviourScheduler::HasFront(ThreadId tid) const {
  auto it = queues_.find(tid);
  return it != queues_.end() && !it->second.empty();
}

bool BehaviourScheduler::FrontReady(ThreadId tid) const {
  auto it = queues_.find(tid);
  return it != queues_.end() && !it->second.empty() &&
         it->second.front().ready;
}

BehaviourId BehaviourScheduler::Dispatch(ThreadId tid) {
  auto it = queues_.find(tid);
  if (it == queues_.end() || it->second.empty()) return kNoBehaviour;
  Behaviour& b = it->second.front();
  if (!b.running) {
    b.running = true;
    ++stats_.dispatched;
  }
  return b.id;
}

void BehaviourScheduler::Unwind(Behaviour& b) {
  for (ObjectHandle h : b.objects) registry_->Unpin(h);
  release_(b.pages);
  open_pages_ -= b.pages.size();
}

void BehaviourScheduler::CompleteFront(ThreadId tid) {
  auto it = queues_.find(tid);
  if (it == queues_.end() || it->second.empty()) return;
  Unwind(it->second.front());
  it->second.pop_front();
  ++stats_.completed;
}

void BehaviourScheduler::ReleaseThread(ThreadId tid) {
  auto it = queues_.find(tid);
  if (it == queues_.end()) return;
  for (Behaviour& b : it->second) {
    Unwind(b);
    ++stats_.completed;
  }
  queues_.erase(it);
}

}  // namespace canvas::object
