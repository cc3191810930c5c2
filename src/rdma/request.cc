#include "rdma/request.h"

#include <new>

namespace canvas::rdma {
namespace {

#if defined(__SANITIZE_ADDRESS__)
constexpr bool kPooled = false;
#else
constexpr bool kPooled = true;
#endif

/// This thread's freed requests, linked through their first bytes. A run
/// is one thread, so its requests stay on one list; blocks go back to the
/// heap when the thread exits.
class FreeList {
 public:
  ~FreeList() {
    while (head_ != nullptr) {
      Block* b = head_;
      head_ = b->next;
      ::operator delete(b);
    }
  }

  void* Take() {
    Block* b = head_;
    if (b != nullptr) head_ = b->next;
    return b;
  }

  void Give(void* p) { head_ = ::new (p) Block{head_}; }

 private:
  struct Block {
    Block* next;
  };
  Block* head_ = nullptr;
};

thread_local FreeList t_free;

}  // namespace

void* Request::operator new(std::size_t size) {
  if (kPooled && size == sizeof(Request)) {
    if (void* p = t_free.Take()) return p;
  }
  return ::operator new(size);
}

void Request::operator delete(void* p, std::size_t size) noexcept {
  if (p == nullptr) return;
  if (kPooled && size == sizeof(Request)) {
    t_free.Give(p);
    return;
  }
  ::operator delete(p);
}

}  // namespace canvas::rdma
