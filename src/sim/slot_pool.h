// Recycled slots for continuation state that must outlive a DES hop.
//
// A closure that captures a 64-byte InlineFunction can no longer fit in
// another InlineFunction's buffer. Parking the inner continuation here and
// capturing only its slot index keeps every hop inline. Slots are reused
// LIFO, so steady state allocates nothing.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace canvas::sim {

template <typename T>
class SlotPool {
 public:
  /// Park `value`; the returned index stays valid until Take().
  std::uint32_t Put(T value) {
    if (free_.empty()) {
      slots_.push_back(std::move(value));
      return std::uint32_t(slots_.size() - 1);
    }
    std::uint32_t i = free_.back();
    free_.pop_back();
    slots_[i] = std::move(value);
    return i;
  }

  /// The parked value. The reference is invalidated by the next Put().
  T& operator[](std::uint32_t i) { return slots_[i]; }

  /// Move the value out and recycle its slot.
  T Take(std::uint32_t i) {
    T value = std::move(slots_[i]);
    free_.push_back(i);
    return value;
  }

 private:
  std::vector<T> slots_;
  std::vector<std::uint32_t> free_;
};

}  // namespace canvas::sim
