// Purpose-built event queue for the DES hot path.
//
// A hierarchical timing wheel bucketed by near-future time (the ladder-queue
// family), with a small 4-ary heap as far-future overflow. Four levels of
// 4,096 slots each cover a 2^48 ns (~3.3 simulated days) horizon; level 0
// buckets are single-tick exact, level k slots span 4096^k ticks. An event's
// level is the highest 12-bit digit in which its deadline differs from the
// wheel cursor, so push, pop, and advance are all O(1) bit operations —
// there is no per-event sift at any queue depth. Wide digits keep the
// common delays (hundreds of ns to tens of ms) within one or two levels, so
// an event is cascaded at most once or twice before it fires.
//
// Each level keeps a 4,096-bit slot bitmap plus a 64-bit summary word (bit
// w set iff bitmap word w is non-zero), so finding the next occupied slot
// is two count-trailing-zeros. A slot's {head, tail} pair is read only
// while its bitmap bit is set and written whenever the bit is set, so the
// 128 KiB slot array is never initialised.
//
// Events are split in two: a compact {when, next} key array that the wheel
// walks, and the 64-byte callbacks, which live in chunk-allocated cells
// (stable addresses: a nested Push during callback execution can never
// relocate a live closure frame, so the simulator invokes callbacks in
// place — no pop-side copy). Push constructs the callback directly in its
// cell. Buckets are intrusive FIFO lists threaded through the keys, and
// freed nodes form an intrusive LIFO free list through the same links, so
// steady-state operation performs no allocation.
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
#include <utility>
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

  EventQueue() : slots_(new Slot[kLevels * kSlots]) {}
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  /// Schedule `fn` at `when`, constructing its InlineCallback in place in
  /// the event's node (an InlineCallback argument is moved in once).
  template <typename F>
  void Push(SimTime when, F&& fn) {
    const std::uint32_t n = AllocNode();
    Callback(n) = std::forward<F>(fn);  // built in the cell, not moved in
    keys_[n].when = when;
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
    if (!Occupied(0, b0)) {
      // Usually the next instant is in the cursor's level-0 block; the
      // cascade path stays out of line.
      const int nb = NextSlot(0, b0 + 1);
      if (nb >= 0)
        cur_ = (cur_ & ~SimTime(kSlotMask)) | unsigned(nb);
      else
        AdvanceToNext();
    }
    return cur_;
  }

  /// Unlink the earliest (when, seq) event. Only valid on !empty().
  Popped Pop() {
    assert(count_ > 0);
    --count_;
    if (bi_ < backlog_.size()) {
      const Popped out{backlog_[bi_].when, backlog_[bi_].node};
      if (++bi_ == backlog_.size()) {
        backlog_.clear();
        bi_ = 0;
      }
      return out;
    }
    if (!Occupied(0, unsigned(cur_) & kSlotMask)) AdvanceToNext();
    const unsigned b0 = unsigned(cur_) & kSlotMask;
    Slot& s = slots_[b0];
    const std::uint32_t h = s.head;
    const std::uint32_t next = keys_[h].next;
    if (next == kNil)
      ClearBit(0, b0);
    else
      s.head = next;
    return {cur_, h};
  }

  InlineCallback& Callback(std::uint32_t node) {
    return cells_[node / kChunk][node % kChunk].cb;
  }

  /// Destroy the callback and recycle the node of a popped event.
  void Release(std::uint32_t node) {
    Callback(node).Reset();
    keys_[node].next = free_;
    free_ = node;
  }

 private:
  static constexpr unsigned kBits = 12;      // digit width
  static constexpr unsigned kLevels = 4;     // 4096^4 ticks = 2^48 ns horizon
  static constexpr unsigned kSlots = 1u << kBits;  // slots per level
  static constexpr unsigned kSlotMask = kSlots - 1;
  static constexpr unsigned kWords = kSlots / 64;  // bitmap words per level
  static constexpr unsigned kHorizonBits = kBits * kLevels;
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  static constexpr std::size_t kChunk = 1024;  // nodes per callback chunk

  static_assert(kWords == 64, "one summary word per level");

  struct Key {
    SimTime when;
    std::uint32_t next;  // bucket successor, or free-list successor
  };

  /// One callback per cache line.
  struct alignas(64) Cell {
    InlineCallback cb;
  };

  /// FIFO bucket ends; meaningful only while the slot's bitmap bit is set.
  struct Slot {
    std::uint32_t head;
    std::uint32_t tail;
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

  std::uint32_t AllocNode() {
    if (free_ == kNil) Grow();
    const std::uint32_t n = free_;
    free_ = keys_[n].next;
    return n;
  }

  /// Add a chunk of nodes to the (empty) free list.
  [[gnu::noinline]] void Grow() {
    const auto base = std::uint32_t(keys_.size());
    cells_.push_back(std::make_unique<Cell[]>(kChunk));
    keys_.resize(keys_.size() + kChunk);
    for (std::uint32_t i = 0; i < kChunk; ++i)
      keys_[base + i].next = i + 1 < kChunk ? base + i + 1 : kNil;
    free_ = base;
  }

  bool Occupied(unsigned level, unsigned slot) const {
    return (bits_[level][slot >> 6] >> (slot & 63)) & 1;
  }

  void ClearBit(unsigned level, unsigned slot) {
    std::uint64_t& word = bits_[level][slot >> 6];
    word &= ~(1ull << (slot & 63));
    if (word == 0) summary_[level] &= ~(1ull << (slot >> 6));
  }

  /// File node `n` into the wheel level/slot given by the highest digit in
  /// which `when` differs from the cursor; beyond the wheel horizon it goes
  /// to the overflow heap. Requires when >= cur_.
  void Place(std::uint32_t n, SimTime when, std::uint64_t seq) {
    const std::uint64_t diff = when ^ cur_;
    unsigned level = 0;
    if (diff != 0) level = unsigned(63 - __builtin_clzll(diff)) / kBits;
    if (level >= kLevels) {
      HeapPush(HeapRef{when, seq, n});
      return;
    }
    const unsigned slot = unsigned(when >> (kBits * level)) & kSlotMask;
    keys_[n].next = kNil;
    Slot& s = slots_[level * kSlots + slot];
    std::uint64_t& word = bits_[level][slot >> 6];
    const std::uint64_t bit = 1ull << (slot & 63);
    if (word & bit) {
      keys_[s.tail].next = n;
      s.tail = n;
    } else {
      s.head = s.tail = n;
      word |= bit;
      summary_[level] |= 1ull << (slot >> 6);
    }
  }

  /// Next occupied slot of `level` at index >= from, or -1.
  int NextSlot(unsigned level, unsigned from) const {
    if (from >= kSlots) return -1;
    const unsigned w = from >> 6;
    const std::uint64_t bits = bits_[level][w] & (~0ull << (from & 63));
    if (bits) return int(w * 64 + unsigned(__builtin_ctzll(bits)));
    // Words above w (2 << 63 wraps to 0, masking every word for w = 63).
    const std::uint64_t above = summary_[level] & ~((2ull << w) - 1);
    if (above == 0) return -1;
    const unsigned nw = unsigned(__builtin_ctzll(above));
    return int(nw * 64 + unsigned(__builtin_ctzll(bits_[level][nw])));
  }

  /// Move the cursor to the next pending instant, cascading one
  /// higher-level slot down per iteration. Caller guarantees the wheel or
  /// the overflow heap holds at least one event.
  [[gnu::noinline]] void AdvanceToNext() {
    for (;;) {
      const unsigned b0 = unsigned(cur_) & kSlotMask;
      if (Occupied(0, b0)) return;
      const int nb = NextSlot(0, b0 + 1);
      if (nb >= 0) {
        cur_ = (cur_ & ~SimTime(kSlotMask)) | unsigned(nb);
        return;
      }
      unsigned level = 1;
      for (; level < kLevels; ++level) {
        const unsigned digit = unsigned(cur_ >> (kBits * level)) & kSlotMask;
        const int s = NextSlot(level, digit + 1);
        if (s >= 0) {
          // Enter that block: digit `level` becomes s, lower digits zero.
          const unsigned shift = kBits * (level + 1);
          cur_ = (cur_ >> shift << shift) |
                 (SimTime(unsigned(s)) << (kBits * level));
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
    std::uint32_t n = slots_[level * kSlots + slot].head;
    ClearBit(level, slot);
    while (n != kNil) {
      const std::uint32_t next = keys_[n].next;
      Place(n, keys_[n].when, /*seq=*/0);  // within-horizon: seq unused
      n = next;
    }
  }

  /// Wheels are empty: jump the cursor to the earliest overflow event and
  /// migrate everything within the new 2^48-tick horizon. Heap pops are in
  /// (when, seq) order, so bucket FIFO order stays insertion order.
  void RefillFromHeap() {
    assert(!heap_.empty());
    cur_ = heap_.front().when;
    while (!heap_.empty() &&
           ((heap_.front().when ^ cur_) >> kHorizonBits) == 0) {
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
  std::uint32_t free_ = kNil;  // head of the recycled-node list

  std::uint64_t summary_[kLevels] = {};
  std::uint64_t bits_[kLevels][kWords] = {};
  std::unique_ptr<Slot[]> slots_;  // [level * kSlots + slot], uninitialised

  std::vector<Key> keys_;                        // per node: deadline + link
  std::vector<std::unique_ptr<Cell[]>> cells_;   // stable callback storage
  std::vector<HeapRef> heap_;                    // beyond-horizon overflow
  std::vector<BacklogEntry> backlog_;            // events behind the cursor
  std::size_t bi_ = 0;                           // backlog read cursor
};

}  // namespace canvas::sim
