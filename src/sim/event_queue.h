// Purpose-built event queue for the DES hot path.
//
// A hierarchical timing wheel bucketed by near-future time (the ladder-queue
// family), with a small 4-ary heap as far-future overflow. Five levels of
// 256 slots each cover a 2^40 ns (~18 simulated minutes) horizon; level 0
// buckets are single-tick exact, level k slots span 256^k ticks. An event's
// level is the highest byte in which its deadline differs from the wheel
// cursor, so push, pop, and advance are all O(1) bit operations — there is
// no per-event sift at any queue depth, which is what makes this beat a
// binary heap of fat events at co-run depth (~2000 pending events).
//
// Events live in pooled, chunk-allocated nodes (stable addresses: a nested
// Push during callback execution can never relocate a live closure frame,
// so the simulator invokes callbacks in place — no pop-side copy). Buckets
// are intrusive FIFO lists threaded through the nodes; freed nodes are
// recycled, so steady-state operation performs no allocation.
//
// Determinism invariant: events are delivered in strictly ascending
// (when, insertion-seq) order, where seq is assigned at Push() time. Two
// events at the same instant always fire in the order they were scheduled.
// The wheel needs no comparisons to guarantee this: same-instant events
// share every digit, so they land in the same bucket at every level, and
// FIFO append order — preserved verbatim by cascades and by the (when, seq)
// ordered overflow-heap migration — is insertion order.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "sim/inline_callback.h"

namespace canvas::sim {

class EventQueue {
 public:
  /// A popped event: the instant it fires and the node holding its callback.
  /// Invoke via Callback(node), then recycle with Release(node).
  struct Popped {
    SimTime when;
    std::uint32_t node;
  };

  EventQueue() {
    for (unsigned l = 0; l < kLevels; ++l)
      for (unsigned s = 0; s < kSlots; ++s) head_[l][s] = tail_[l][s] = kNil;
  }
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  void Push(SimTime when, InlineCallback&& cb) {
    const std::uint32_t n = AllocNode();
    Node& nd = NodeAt(n);
    nd.when = when;
    nd.cb = std::move(cb);
    ++count_;
    const std::uint64_t seq = next_seq_++;
    if (when < cur_) {
      // Only possible after RunUntil stopped at a deadline earlier than the
      // next event (cursor already advanced) and the caller scheduled new
      // work before resuming. Rare; kept in a small sorted side list that
      // always precedes the wheel contents.
      auto it = backlog_.begin() + long(bi_);
      while (it != backlog_.end() && it->when <= when) ++it;
      backlog_.insert(it, BacklogEntry{when, n});
    } else {
      Place(n, when, seq);
    }
  }

  /// Earliest scheduled instant. Advances the wheel cursor (cascading
  /// higher-level slots as needed), hence non-const. Only valid on !empty().
  SimTime MinTime() {
    assert(count_ > 0);
    if (bi_ < backlog_.size()) return backlog_[bi_].when;
    const unsigned b0 = unsigned(cur_) & kSlotMask;
    if (head_[0][b0] == kNil) AdvanceToNext();
    return cur_;
  }

  /// Unlink the earliest (when, seq) event. Only valid on !empty().
  Popped Pop() {
    assert(count_ > 0);
    Popped out;
    if (bi_ < backlog_.size()) {
      out = {backlog_[bi_].when, backlog_[bi_].node};
      if (++bi_ == backlog_.size()) {
        backlog_.clear();
        bi_ = 0;
      }
    } else {
      (void)MinTime();
      const unsigned b0 = unsigned(cur_) & kSlotMask;
      const std::uint32_t h = head_[0][b0];
      assert(h != kNil);
      Node& nd = NodeAt(h);
      head_[0][b0] = nd.next;
      if (nd.next == kNil) {
        tail_[0][b0] = kNil;
        bitmap_[0][b0 >> 6] &= ~(1ull << (b0 & 63));
      }
      out = {nd.when, h};
    }
    --count_;
    return out;
  }

  InlineCallback& Callback(std::uint32_t node) { return NodeAt(node).cb; }

  /// Destroy the callback and recycle the node of a popped event.
  void Release(std::uint32_t node) {
    NodeAt(node).cb = nullptr;
    free_.push_back(node);
  }

 private:
  static constexpr unsigned kLevels = 5;    // 256^5 ticks = 2^40 ns horizon
  static constexpr unsigned kSlots = 256;   // slots per level (one byte)
  static constexpr unsigned kSlotMask = kSlots - 1;
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  static constexpr std::size_t kChunk = 1024;  // nodes per pool chunk

  struct Node {
    SimTime when = 0;
    std::uint32_t next = kNil;
    InlineCallback cb;
  };

  struct HeapRef {  // far-future overflow entry
    SimTime when;
    std::uint64_t seq;
    std::uint32_t node;
  };

  struct BacklogEntry {
    SimTime when;
    std::uint32_t node;
  };

  Node& NodeAt(std::uint32_t n) { return chunks_[n / kChunk][n % kChunk]; }

  std::uint32_t AllocNode() {
    if (free_.empty()) {
      const std::uint32_t base = std::uint32_t(chunks_.size() * kChunk);
      chunks_.push_back(std::make_unique<Node[]>(kChunk));
      free_.reserve(free_.size() + kChunk);
      for (std::uint32_t i = kChunk; i-- > 0;) free_.push_back(base + i);
    }
    const std::uint32_t n = free_.back();
    free_.pop_back();
    return n;
  }

  /// File node `n` into the wheel level/slot given by the highest byte in
  /// which `when` differs from the cursor; beyond the wheel horizon it goes
  /// to the overflow heap. Requires when >= cur_.
  void Place(std::uint32_t n, SimTime when, std::uint64_t seq) {
    const std::uint64_t diff = when ^ cur_;
    unsigned level = 0;
    if (diff != 0) level = unsigned(63 - __builtin_clzll(diff)) >> 3;
    if (level >= kLevels) {
      HeapPush(HeapRef{when, seq, n});
      return;
    }
    const unsigned slot = unsigned(when >> (8 * level)) & kSlotMask;
    Node& nd = NodeAt(n);
    nd.next = kNil;
    if (head_[level][slot] == kNil) {
      head_[level][slot] = tail_[level][slot] = n;
      bitmap_[level][slot >> 6] |= 1ull << (slot & 63);
    } else {
      NodeAt(tail_[level][slot]).next = n;
      tail_[level][slot] = n;
    }
  }

  /// Next set bit in a 256-bit map at index >= from, or -1.
  static int NextBit(const std::uint64_t* w, unsigned from) {
    if (from >= kSlots) return -1;
    unsigned word = from >> 6;
    std::uint64_t bits = w[word] & (~0ull << (from & 63));
    for (;;) {
      if (bits) return int(word * 64 + unsigned(__builtin_ctzll(bits)));
      if (++word == kSlots / 64) return -1;
      bits = w[word];
    }
  }

  /// Move the cursor to the next pending instant, cascading one
  /// higher-level slot down per iteration. Caller guarantees the wheel or
  /// the overflow heap holds at least one event.
  void AdvanceToNext() {
    for (;;) {
      const unsigned b0 = unsigned(cur_) & kSlotMask;
      if (head_[0][b0] != kNil) return;
      const int nb = NextBit(bitmap_[0], b0 + 1);
      if (nb >= 0) {
        cur_ = (cur_ & ~SimTime(kSlotMask)) | unsigned(nb);
        return;
      }
      unsigned level = 1;
      for (; level < kLevels; ++level) {
        const unsigned digit = unsigned(cur_ >> (8 * level)) & kSlotMask;
        const int s = NextBit(bitmap_[level], digit + 1);
        if (s >= 0) {
          // Enter that block: digit `level` becomes s, lower digits zero.
          const unsigned shift = 8 * (level + 1);
          cur_ = (cur_ >> shift << shift) | (SimTime(unsigned(s)) << (8 * level));
          CascadeSlot(level, unsigned(s));
          break;
        }
      }
      if (level == kLevels) RefillFromHeap();
    }
  }

  /// Re-file every event of a higher-level slot relative to the new cursor.
  /// FIFO walk preserves insertion order for same-tick events.
  void CascadeSlot(unsigned level, unsigned slot) {
    std::uint32_t n = head_[level][slot];
    head_[level][slot] = tail_[level][slot] = kNil;
    bitmap_[level][slot >> 6] &= ~(1ull << (slot & 63));
    while (n != kNil) {
      Node& nd = NodeAt(n);
      const std::uint32_t next = nd.next;
      Place(n, nd.when, /*seq=*/0);  // within-horizon: seq unused
      n = next;
    }
  }

  /// Wheels are empty: jump the cursor to the earliest overflow event and
  /// migrate everything within the new 2^40-tick horizon. Heap pops are in
  /// (when, seq) order, so bucket FIFO order stays insertion order.
  void RefillFromHeap() {
    assert(!heap_.empty());
    cur_ = heap_.front().when;
    while (!heap_.empty() && ((heap_.front().when ^ cur_) >> 40) == 0) {
      const HeapRef r = HeapPop();
      Place(r.node, r.when, r.seq);
    }
  }

  // --- far-future overflow: 4-ary min-heap on (when, seq) ---

  static bool HeapEarlier(const HeapRef& a, const HeapRef& b) {
    using U128 = unsigned __int128;
    return ((U128(a.when) << 64) | a.seq) < ((U128(b.when) << 64) | b.seq);
  }

  void HeapPush(HeapRef r) {
    heap_.push_back(r);
    std::size_t i = heap_.size() - 1;
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!HeapEarlier(heap_[i], heap_[parent])) break;
      std::swap(heap_[i], heap_[parent]);
      i = parent;
    }
  }

  HeapRef HeapPop() {
    const HeapRef top = heap_.front();
    heap_.front() = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    while (true) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      const std::size_t last = first + 4 < n ? first + 4 : n;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < last; ++c)
        if (HeapEarlier(heap_[c], heap_[best])) best = c;
      if (!HeapEarlier(heap_[best], heap_[i])) break;
      std::swap(heap_[i], heap_[best]);
      i = best;
    }
    return top;
  }

  SimTime cur_ = 0;            // wheel cursor: last delivered instant
  std::size_t count_ = 0;      // total pending (wheel + heap + backlog)
  std::uint64_t next_seq_ = 0;

  std::uint32_t head_[kLevels][kSlots];
  std::uint32_t tail_[kLevels][kSlots];
  std::uint64_t bitmap_[kLevels][kSlots / 64] = {};

  std::vector<std::unique_ptr<Node[]>> chunks_;  // stable node storage
  std::vector<std::uint32_t> free_;              // recycled node indices
  std::vector<HeapRef> heap_;                    // beyond-horizon overflow
  std::vector<BacklogEntry> backlog_;            // events behind the cursor
  std::size_t bi_ = 0;                           // backlog read cursor
};

}  // namespace canvas::sim
