// Unit tests for sim::InlineFunction — the small-buffer move-only callable
// behind EventQueue::Callback — and for the queue behaviors that depend on
// its semantics (capture destruction on cancel, move-out at fire).

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/inline_function.h"

namespace bamboo::sim {
namespace {

using Fn = InlineFunction<64>;

TEST(InlineFunction, EmptyAndBool) {
  Fn f;
  EXPECT_FALSE(static_cast<bool>(f));
  Fn g = nullptr;
  EXPECT_FALSE(static_cast<bool>(g));
  g = [] {};
  EXPECT_TRUE(static_cast<bool>(g));
  g.reset();
  EXPECT_FALSE(static_cast<bool>(g));
}

TEST(InlineFunction, InvokesCapture) {
  int hits = 0;
  Fn f = [&hits] { ++hits; };
  f();
  f();
  EXPECT_EQ(hits, 2);
}

TEST(InlineFunction, CaptureSizeSelectsStorage) {
  // The hot-path captures ([this, slot], [this, id]) must be inline; a
  // capture bigger than the buffer must transparently go to the heap.
  struct Small {
    void* p;
    std::uint32_t slot;
    void operator()() const {}
  };
  struct Exact {
    std::array<std::byte, 64> bytes;
    void operator()() const {}
  };
  struct Huge {
    std::array<std::byte, 65> bytes;
    void operator()() const {}
  };
  static_assert(Fn::stores_inline<Small>());
  static_assert(Fn::stores_inline<Exact>());
  static_assert(!Fn::stores_inline<Huge>());

  // Both storage classes must still invoke correctly.
  int hits = 0;
  std::array<std::byte, 100> pad{};
  Fn heap = [&hits, pad] {
    (void)pad;
    ++hits;
  };
  static_assert(!Fn::stores_inline<decltype([&hits, pad] {
    (void)pad;
    ++hits;
  })>());
  heap();
  EXPECT_EQ(hits, 1);
}

TEST(InlineFunction, ThrowingMoveFallsBackToHeap) {
  // A capture whose move may throw cannot live inline: relocation (buffer
  // moves) must be noexcept. std::function's move is noexcept, but a
  // user type with a throwing move constructor is legal.
  struct ThrowingMove {
    ThrowingMove() = default;
    ThrowingMove(ThrowingMove&&) noexcept(false) {}
    void operator()() const {}
  };
  static_assert(!Fn::stores_inline<ThrowingMove>());
  Fn f = ThrowingMove{};
  EXPECT_TRUE(static_cast<bool>(f));
  f();
}

TEST(InlineFunction, MoveOnlyCaptures) {
  // std::function rejects move-only captures at compile time; the event
  // queue's callbacks are never copied, so InlineFunction supports them.
  auto owned = std::make_unique<int>(42);
  int seen = 0;
  Fn f = [owned = std::move(owned), &seen] { seen = *owned; };
  f();
  EXPECT_EQ(seen, 42);
}

TEST(InlineFunction, MoveTransfersStateAndEmptiesSource) {
  int hits = 0;
  Fn a = [&hits] { ++hits; };
  Fn b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);

  Fn c;
  c = std::move(b);
  EXPECT_FALSE(static_cast<bool>(b));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(c));
  c();
  EXPECT_EQ(hits, 2);
}

TEST(InlineFunction, DestroysCaptureExactlyOnce) {
  // Covers the non-trivial inline destructor path and move-assign over a
  // live capture (which must destroy the overwritten one).
  auto counter = std::make_shared<int>(0);
  {
    Fn f = [counter] { ++*counter; };
    EXPECT_EQ(counter.use_count(), 2);
    Fn g = std::move(f);
    EXPECT_EQ(counter.use_count(), 2);  // relocated, not duplicated
    g = [] {};                          // overwrite destroys the capture
    EXPECT_EQ(counter.use_count(), 1);
  }
  EXPECT_EQ(counter.use_count(), 1);
}

TEST(InlineFunction, HeapCaptureDestroyed) {
  auto counter = std::make_shared<int>(0);
  std::array<std::byte, 128> pad{};
  {
    Fn f = [counter, pad] { (void)pad; };
    EXPECT_EQ(counter.use_count(), 2);
    Fn g = std::move(f);  // heap cell ownership moves with the pointer
    EXPECT_EQ(counter.use_count(), 2);
  }
  EXPECT_EQ(counter.use_count(), 1);
}

TEST(InlineFunction, WrapsStdFunction) {
  // Call sites that still build a std::function (churn repeats, CPU-cost
  // closures) hand it to the scheduler as a capture; it must wrap cleanly.
  int hits = 0;
  std::function<void()> inner = [&hits] { ++hits; };
  static_assert(Fn::stores_inline<std::function<void()>>());
  Fn f = std::move(inner);
  f();
  EXPECT_EQ(hits, 1);
}

// --- EventQueue integration -----------------------------------------------

TEST(EventQueueCallback, CancelDestroysCaptureImmediately) {
  // cancel() must release whatever the capture owns right away, not when
  // its stale entry eventually reaches the front of the queue.
  EventQueue q;
  auto counter = std::make_shared<int>(0);
  q.schedule(10, [] {});  // keeps the queue nonempty around the cancel
  const EventId id = q.schedule(5, [counter] { ++*counter; });
  EXPECT_EQ(counter.use_count(), 2);
  EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(counter.use_count(), 1);
  EXPECT_FALSE(q.cancel(id));  // double-cancel stays a no-op
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueCallback, PopMovesCaptureOut) {
  EventQueue q;
  auto counter = std::make_shared<int>(0);
  q.schedule(1, [counter] { ++*counter; });
  {
    EventQueue::Fired fired = q.pop();
    EXPECT_EQ(counter.use_count(), 2);  // owned by fired.fn now
    fired.fn();
  }
  EXPECT_EQ(*counter, 1);
  EXPECT_EQ(counter.use_count(), 1);  // slot holds no residue
}

TEST(EventQueueCallback, MoveOnlyCaptureThroughQueue) {
  EventQueue q;
  auto payload = std::make_unique<int>(7);
  int seen = 0;
  q.schedule(1, [payload = std::move(payload), &seen] { seen = *payload; });
  auto fired = q.pop();
  fired.fn();
  EXPECT_EQ(seen, 7);
}

TEST(EventQueueCallback, FifoAmongEqualTimestampsStillHolds) {
  // Callbacks living outside the queue's entries must keep the
  // deterministic tie-break.
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    q.schedule(42, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) {
    auto fired = q.pop();
    fired.fn();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

}  // namespace
}  // namespace bamboo::sim
