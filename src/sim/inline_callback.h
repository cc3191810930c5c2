// Small-buffer-optimized, move-only callables for the event and fault hot
// paths.
//
// Every simulated event carries a closure, and most fault-path hops carry
// another (request completions, frame grants, page waiters, allocator and
// lock continuations). With std::function the typical capture set in this
// codebase (this + two or three pointers + a few scalars) exceeds
// libstdc++'s 16-byte small-object buffer and costs one heap allocation per
// hop. InlineFunction<R(Args...)> stores captures up to kInlineSize bytes
// directly inside the object (56 bytes of payload — the object is exactly
// one 64-byte cache line including its dispatch pointer), falling back to
// the heap only for oversized or throwing-move captures. InlineCallback is
// the void() case every event carries.
//
// Unlike std::function it is move-only, so it also accepts move-only
// captures (e.g. a captured std::unique_ptr) without std::function's
// copyability requirement. Like std::function, constructing it from a null
// function pointer or an empty std::function yields an empty callable.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstring>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace canvas::sim {

template <typename Signature>
class InlineFunction;

template <typename R, typename... Args>
class InlineFunction<R(Args...)> {
 public:
  /// Inline capture payload in bytes; one cache line total with ops_.
  static constexpr std::size_t kInlineSize = 56;

  InlineFunction() noexcept = default;
  InlineFunction(std::nullptr_t) noexcept {}  // NOLINT(runtime/explicit)

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<
                std::decay_t<F>, InlineFunction>>>
  InlineFunction(F&& fn) {  // NOLINT(runtime/explicit)
    Construct(std::forward<F>(fn));
  }

  /// Replace the target with `fn`, built directly in this object's buffer:
  /// unlike converting to a temporary and move-assigning it, no capture is
  /// relocated. `= nullptr` takes the move-assignment path.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                !std::is_same_v<std::decay_t<F>, std::nullptr_t>>>
  InlineFunction& operator=(F&& fn) {
    Reset();
    Construct(std::forward<F>(fn));
    return *this;
  }

  static_assert(kInlineSize % alignof(std::max_align_t) == 8,
                "ops_ must pad the buffer out to a cache line");

  InlineFunction(InlineFunction&& other) noexcept : ops_(other.ops_) {
    if (ops_) {
      Relocate(ops_, buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      Reset();
      ops_ = other.ops_;
      if (ops_) {
        Relocate(ops_, buf_, other.buf_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { Reset(); }

  /// Const like std::function's call operator (the target itself may
  /// mutate its captures), so const holders such as a `const Request&` can
  /// fire it.
  R operator()(Args... args) const {
    assert(ops_ && "invoking an empty InlineFunction");
    return ops_->invoke(buf_, std::forward<Args>(args)...);
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// True if the capture lives in the inline buffer (no heap allocation).
  /// Exposed for tests and the throughput harness.
  bool inlined() const noexcept { return ops_ && ops_->inline_storage; }

  /// Destroy the target, leaving an empty callable.
  void Reset() noexcept {
    if (ops_) {
      if (ops_->destroy) ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    R (*invoke)(void*, Args&&...);
    /// Move-construct the callable at `dst` from `src`, then destroy `src`.
    /// nullptr marks a trivially relocatable callable (every trivially
    /// copyable inline capture, and the heap case — moving a raw pointer):
    /// the move is a straight memcpy of the buffer, no indirect call.
    void (*relocate)(void* dst, void* src) noexcept;
    /// nullptr marks a trivially destructible callable: Reset() is a no-op
    /// beyond clearing ops_.
    void (*destroy)(void*) noexcept;
    bool inline_storage;
  };

  /// Build the target from `fn` into the empty buffer.
  template <typename F>
  void Construct(F&& fn) {
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<R, Fn&, Args...>,
                  "InlineFunction target does not match its signature");
    if constexpr (kNullable<Fn>) {
      if (!fn) return;  // empty target -> empty callable (std::function)
    }
    if constexpr (kFitsInline<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(fn));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(fn)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  static void Relocate(const Ops* ops, void* dst, void* src) noexcept {
    if (ops->relocate) {
      ops->relocate(dst, src);
    } else {
      // Fixed-size copy of the whole buffer: past-the-capture bytes are
      // indeterminate but unsigned char, so copying them is well-defined —
      // and a constant-size memcpy beats a variable-length one.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
      std::memcpy(dst, src, kInlineSize);
#pragma GCC diagnostic pop
    }
  }

  template <typename T>
  struct IsStdFunction : std::false_type {};
  template <typename S>
  struct IsStdFunction<std::function<S>> : std::true_type {};

  /// Targets that can be empty: a null function / member pointer or an
  /// empty std::function must not produce a callable that tests true.
  template <typename Fn>
  static constexpr bool kNullable = std::is_pointer_v<Fn> ||
                                    std::is_member_pointer_v<Fn> ||
                                    IsStdFunction<Fn>::value;

  template <typename Fn>
  static constexpr bool kFitsInline =
      sizeof(Fn) <= kInlineSize && alignof(Fn) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<Fn>;

  template <typename Fn>
  static R Invoke(Fn& fn, Args&&... args) {
    if constexpr (std::is_void_v<R>)
      std::invoke(fn, std::forward<Args>(args)...);
    else
      return std::invoke(fn, std::forward<Args>(args)...);
  }

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      [](void* p, Args&&... args) -> R {
        return Invoke(*std::launder(reinterpret_cast<Fn*>(p)),
                      std::forward<Args>(args)...);
      },
      std::is_trivially_copyable_v<Fn>
          ? nullptr
          : +[](void* dst, void* src) noexcept {
              Fn* s = std::launder(reinterpret_cast<Fn*>(src));
              ::new (dst) Fn(std::move(*s));
              s->~Fn();
            },
      std::is_trivially_destructible_v<Fn>
          ? nullptr
          : +[](void* p) noexcept {
              std::launder(reinterpret_cast<Fn*>(p))->~Fn();
            },
      /*inline_storage=*/true,
  };

  template <typename Fn>
  static constexpr Ops kHeapOps = {
      [](void* p, Args&&... args) -> R {
        return Invoke(**std::launder(reinterpret_cast<Fn**>(p)),
                      std::forward<Args>(args)...);
      },
      /*relocate=*/nullptr,  // relocating a Fn* is a memcpy
      [](void* p) noexcept { delete *std::launder(reinterpret_cast<Fn**>(p)); },
      /*inline_storage=*/false,
  };

  // Buffer first: with ops_ after it the object is 56 + 8 = 64 bytes even
  // though the buffer is max_align_t-aligned.
  alignas(std::max_align_t) mutable unsigned char buf_[kInlineSize];
  const Ops* ops_ = nullptr;
};

/// The callback every simulated event carries.
using InlineCallback = InlineFunction<void()>;

}  // namespace canvas::sim
