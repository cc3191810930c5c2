#include "mem/swap_cache.h"

#include <cassert>

namespace canvas::mem {

std::uint32_t SwapCache::AcquireSlot() {
  if (free_head_ != kNil) {
    std::uint32_t slot = free_head_;
    free_head_ = pool_[slot].next;
    return slot;
  }
  pool_.emplace_back();
  return std::uint32_t(pool_.size() - 1);
}

void SwapCache::ReleaseSlot(std::uint32_t slot) {
  pool_[slot].next = free_head_;
  free_head_ = slot;
}

void SwapCache::LinkFront(std::uint32_t slot) {
  Node& n = pool_[slot];
  n.prev = kNil;
  n.next = head_;
  if (head_ != kNil) pool_[head_].prev = slot;
  head_ = slot;
  if (tail_ == kNil) tail_ = slot;
}

void SwapCache::UnlinkNode(std::uint32_t slot) {
  Node& n = pool_[slot];
  if (n.prev != kNil)
    pool_[n.prev].next = n.next;
  else
    head_ = n.next;
  if (n.next != kNil)
    pool_[n.next].prev = n.prev;
  else
    tail_ = n.prev;
}

bool SwapCache::Contains(CgroupId app, PageId page) const {
  return Lookup(app, page) != nullptr;
}

const SwapCache::Entry* SwapCache::Lookup(CgroupId app, PageId page) const {
  ++lookups_;
  const std::uint32_t* slot = index_.Find(PackAppPage(app, page));
  if (!slot) return nullptr;
  ++hits_;
  return &pool_[*slot].entry;
}

void SwapCache::Insert(CgroupId app, PageId page, bool locked, bool prefetched,
                       SimTime now) {
  assert(!index_.Contains(PackAppPage(app, page)));
  std::uint32_t slot = AcquireSlot();
  pool_[slot].entry = Entry{app, page, locked, prefetched, now};
  if (!locked) LinkFront(slot);
  index_[PackAppPage(app, page)] = slot;
  ++inserts_;
}

void SwapCache::Unlock(CgroupId app, PageId page) {
  std::uint32_t* slot = index_.Find(PackAppPage(app, page));
  assert(slot != nullptr);
  Entry& e = pool_[*slot].entry;
  // Refresh: arrival counts as recency.
  if (e.locked) {
    e.locked = false;
    LinkFront(*slot);
  } else if (head_ != *slot) {
    UnlinkNode(*slot);
    LinkFront(*slot);
  }
}

void SwapCache::Lock(CgroupId app, PageId page) {
  std::uint32_t* slot = index_.Find(PackAppPage(app, page));
  if (!slot) return;
  Entry& e = pool_[*slot].entry;
  if (e.locked) return;
  e.locked = true;
  UnlinkNode(*slot);
}

bool SwapCache::Remove(CgroupId app, PageId page) {
  std::uint32_t* found = index_.Find(PackAppPage(app, page));
  if (!found) return false;
  std::uint32_t slot = *found;
  if (!pool_[slot].entry.locked) UnlinkNode(slot);
  ReleaseSlot(slot);
  index_.Erase(PackAppPage(app, page));
  return true;
}

bool SwapCache::PopLruUnlocked(Entry& out) {
  if (tail_ == kNil) return false;
  std::uint32_t slot = tail_;
  out = pool_[slot].entry;
  UnlinkNode(slot);
  ReleaseSlot(slot);
  index_.Erase(PackAppPage(out.app, out.page));
  ++shrunk_;
  return true;
}

}  // namespace canvas::mem
