// Unit tests for the SBO callables carried by every simulated event and
// fault-path hop: inline vs heap storage selection, move-only captures,
// argument-taking signatures, std::function's empty-target semantics, and
// destruction of unfired callbacks when a queue is dropped mid-run.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/inline_callback.h"
#include "sim/simulator.h"

namespace canvas::sim {
namespace {

TEST(InlineCallback, EmptyIsFalsy) {
  InlineCallback cb;
  EXPECT_FALSE(cb);
  InlineCallback null_cb = nullptr;
  EXPECT_FALSE(null_cb);
}

TEST(InlineCallback, SmallCaptureStaysInline) {
  int hits = 0;
  int* p = &hits;
  InlineCallback cb = [p] { ++*p; };
  ASSERT_TRUE(cb);
  EXPECT_TRUE(cb.inlined());
  cb();
  cb();
  EXPECT_EQ(hits, 2);
}

TEST(InlineCallback, CaptureAtTheInlineBoundary) {
  // A capture of exactly kInlineSize bytes must still be inline.
  int out = 0;
  std::array<char, InlineCallback::kInlineSize - sizeof(int*)> fit{};
  fit[0] = 7;
  int* outp = &out;
  InlineCallback exact = [fit, outp] { *outp = fit[0]; };
  EXPECT_TRUE(exact.inlined());
  exact();
  EXPECT_EQ(out, 7);
}

TEST(InlineCallback, OversizedCaptureFallsBackToHeap) {
  std::array<char, 128> big{};
  big[100] = 9;
  int out = 0;
  int* outp = &out;
  InlineCallback cb = [big, outp] { *outp = big[100]; };
  ASSERT_TRUE(cb);
  EXPECT_FALSE(cb.inlined());
  cb();
  EXPECT_EQ(out, 9);
}

TEST(InlineCallback, MoveOnlyCapture) {
  // std::function could never hold this lambda (not copyable).
  auto box = std::make_unique<int>(31);
  int out = 0;
  int* outp = &out;
  InlineCallback cb = [b = std::move(box), outp] { *outp = *b; };
  ASSERT_TRUE(cb);
  InlineCallback moved = std::move(cb);
  EXPECT_FALSE(cb);  // NOLINT(bugprone-use-after-move) — testing the move
  ASSERT_TRUE(moved);
  moved();
  EXPECT_EQ(out, 31);
}

TEST(InlineCallback, MoveAssignmentReleasesPreviousTarget) {
  auto tracker = std::make_shared<int>(1);
  std::weak_ptr<int> watch = tracker;
  InlineCallback a = [t = std::move(tracker)] { (void)*t; };
  InlineCallback b = [] {};
  a = std::move(b);  // must destroy the shared_ptr capture of the old `a`
  EXPECT_TRUE(watch.expired());
  ASSERT_TRUE(a);
  a();
}

TEST(InlineCallback, AssigningACallableBuildsItInPlace) {
  auto tracker = std::make_shared<int>(1);
  std::weak_ptr<int> watch = tracker;
  InlineCallback a = [t = std::move(tracker)] { (void)*t; };
  int moves = 0;
  int calls = 0;
  struct Counted {
    int* moves;
    int* calls;
    Counted(int* m, int* c) : moves(m), calls(c) {}
    Counted(const Counted&) = delete;
    Counted(Counted&& o) noexcept : moves(o.moves), calls(o.calls) {
      ++*moves;
    }
    void operator()() const { ++*calls; }
  };
  // The old target is destroyed and the new one moved in exactly once,
  // with no temporary InlineCallback in between.
  a = Counted(&moves, &calls);
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(moves, 1);
  ASSERT_TRUE(a);
  a();
  EXPECT_EQ(calls, 1);
  // Empty targets still empty the callable, as in construction.
  a = std::function<void()>();
  EXPECT_FALSE(a);
  a = [&calls] { ++calls; };
  a = nullptr;
  EXPECT_FALSE(a);
}

TEST(InlineCallback, UnfiredCallbacksDestroyedWithQueue) {
  // Both inline and heap-fallback captures pending in a dropped simulator
  // must run their destructors (mid-run teardown, e.g. deadline abort).
  auto small_cap = std::make_shared<int>(1);
  auto big_cap = std::make_shared<int>(2);
  std::weak_ptr<int> small_watch = small_cap;
  std::weak_ptr<int> big_watch = big_cap;
  {
    Simulator sim;
    sim.Schedule(10, [c = std::move(small_cap)] { (void)*c; });
    std::array<char, 100> pad{};
    sim.Schedule(20, [c = std::move(big_cap), pad] { (void)*c; (void)pad; });
    sim.Schedule(1, [] {});
    EXPECT_TRUE(sim.Step());  // fire only the first event; drop the rest
    EXPECT_FALSE(small_watch.expired());
    EXPECT_FALSE(big_watch.expired());
  }
  EXPECT_TRUE(small_watch.expired());
  EXPECT_TRUE(big_watch.expired());
}

TEST(InlineCallback, ScheduleAcceptsMoveOnlyLambda) {
  Simulator sim;
  auto payload = std::make_unique<int>(5);
  int out = 0;
  sim.Schedule(3, [p = std::move(payload), &out] { out = *p; });
  sim.Run();
  EXPECT_EQ(out, 5);
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(InlineFunction, OneCacheLine) {
  EXPECT_EQ(sizeof(InlineCallback), 64u);
  EXPECT_EQ(sizeof(InlineFunction<int(const std::string&, long)>), 64u);
}

TEST(InlineFunction, ForwardsArgumentsAndReturnsValue) {
  int base = 10;
  InlineFunction<int(int, const std::string&)> f =
      [&base](int x, const std::string& s) { return base + x + int(s.size()); };
  ASSERT_TRUE(f);
  EXPECT_TRUE(f.inlined());
  EXPECT_EQ(f(5, "abc"), 18);
  // By-value move-only argument.
  InlineFunction<int(std::unique_ptr<int>)> g = [](std::unique_ptr<int> p) {
    return *p;
  };
  EXPECT_EQ(g(std::make_unique<int>(4)), 4);
  // Reference argument the target mutates, through a const callable (as a
  // `const Request&` holder fires its on_drop).
  const InlineFunction<void(int&)> h = [](int& v) { v *= 3; };
  int v = 7;
  h(v);
  EXPECT_EQ(v, 21);
}

TEST(InlineFunction, ArgumentTakingInlineHeapBoundary) {
  using Fn = InlineFunction<long(long)>;
  std::array<char, Fn::kInlineSize> fit{};
  fit[0] = 2;
  Fn exact = [fit](long x) { return x * fit[0]; };
  EXPECT_TRUE(exact.inlined());
  EXPECT_EQ(exact(21), 42);
  std::array<char, Fn::kInlineSize + 1> over{};
  over[Fn::kInlineSize] = 3;
  Fn spill = [over](long x) { return x * over[Fn::kInlineSize]; };
  ASSERT_TRUE(spill);
  EXPECT_FALSE(spill.inlined());
  EXPECT_EQ(spill(5), 15);
  Fn moved = std::move(spill);
  EXPECT_FALSE(spill);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(moved(2), 6);
}

TEST(InlineFunction, EmptyTargetsYieldEmptyCallable) {
  // std::function semantics: an empty std::function or a null function
  // pointer makes an empty wrapper, so `if (cb) cb(...)` guards hold.
  std::function<void(int)> empty_fn;
  InlineFunction<void(int)> a = empty_fn;
  EXPECT_FALSE(a);
  InlineFunction<void(int)> b = std::move(empty_fn);
  EXPECT_FALSE(b);
  void (*null_ptr)(int) = nullptr;
  InlineFunction<void(int)> c = null_ptr;
  EXPECT_FALSE(c);
  InlineCallback d = std::function<void()>(nullptr);
  EXPECT_FALSE(d);
  // Non-empty targets of the same kinds are kept.
  int hits = 0;
  std::function<void(int)> full = [&hits](int x) { hits += x; };
  InlineFunction<void(int)> e = full;
  ASSERT_TRUE(e);
  e(3);
  EXPECT_EQ(hits, 3);
  static int fn_hits = 0;
  void (*fp)(int) = [](int x) { fn_hits += x; };
  InlineFunction<void(int)> f = fp;
  ASSERT_TRUE(f);
  f(4);
  EXPECT_EQ(fn_hits, 4);
}

TEST(InlineFunction, WrappedStdFunctionStillThrowsWhenItsTargetDoes) {
  InlineFunction<int()> f = std::function<int()>([]() -> int {
    throw std::runtime_error("boom");
  });
  ASSERT_TRUE(f);
  EXPECT_THROW(f(), std::runtime_error);
}

}  // namespace
}  // namespace canvas::sim
