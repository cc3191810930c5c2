// Global operator new/delete replacement that counts heap allocations, so the
// benchmark can report allocations per simulated event without touching the
// library. Every replaced new allocates with malloc/aligned_alloc and every
// replaced delete frees with free, so the pairs always match.
#include <atomic>
#include <cstdlib>
#include <new>

#include "workloads.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* Counted(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

void* CountedAligned(std::size_t n, std::align_val_t al) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  std::size_t a = static_cast<std::size_t>(al);
  std::size_t size = (n + a - 1) / a * a;  // aligned_alloc wants a multiple
  if (void* p = std::aligned_alloc(a, size ? size : a)) return p;
  throw std::bad_alloc();
}

}  // namespace

namespace perfbench {

std::uint64_t HeapAllocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace perfbench

void* operator new(std::size_t n) { return Counted(n); }
void* operator new[](std::size_t n) { return Counted(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return CountedAligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return CountedAligned(n, al);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
