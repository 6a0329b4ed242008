// Tests for the discrete-event simulation kernel: event ordering,
// cancellation, clock semantics, determinism.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "util/rng.h"

namespace bamboo {
namespace {

TEST(Time, Conversions) {
  EXPECT_EQ(sim::milliseconds(3), 3'000'000);
  EXPECT_EQ(sim::microseconds(5), 5'000);
  EXPECT_EQ(sim::seconds(2), 2'000'000'000);
  EXPECT_DOUBLE_EQ(sim::to_milliseconds(sim::milliseconds(7)), 7.0);
  EXPECT_DOUBLE_EQ(sim::to_seconds(sim::seconds(4)), 4.0);
  EXPECT_EQ(sim::from_seconds(1.5), 1'500'000'000);
  EXPECT_EQ(sim::from_milliseconds(0.5), 500'000);
}

TEST(EventQueue, FiresInTimeOrder) {
  sim::EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  while (!q.empty()) {
    auto fired = q.pop();
    fired.fn();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoAmongEqualTimestamps) {
  sim::EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsFiring) {
  sim::EventQueue q;
  bool fired = false;
  const auto id = q.schedule(10, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelIsIdempotentAndSafeAfterFire) {
  sim::EventQueue q;
  const auto id = q.schedule(10, [] {});
  q.pop().fn();
  EXPECT_FALSE(q.cancel(id));  // already fired
  EXPECT_FALSE(q.cancel(id));
  EXPECT_FALSE(q.cancel(999999));  // unknown id
}

TEST(EventQueue, CancelMiddleKeepsOthers) {
  sim::EventQueue q;
  std::vector<int> order;
  q.schedule(10, [&] { order.push_back(1); });
  const auto id = q.schedule(20, [&] { order.push_back(2); });
  q.schedule(30, [&] { order.push_back(3); });
  q.cancel(id);
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  sim::EventQueue q;
  const auto id = q.schedule(10, [] {});
  q.schedule(20, [] {});
  q.cancel(id);
  EXPECT_EQ(q.next_time(), 20);
}

TEST(EventQueue, NextTimeAfterCancellingEveryHead) {
  sim::EventQueue q;
  const auto a = q.schedule(10, [] {});
  const auto b = q.schedule(20, [] {});
  q.schedule(30, [] {});
  EXPECT_TRUE(q.cancel(a));
  EXPECT_TRUE(q.cancel(b));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), 30);  // skips two stacked cancelled entries
}

TEST(EventQueue, DoubleCancelReturnsFalse) {
  sim::EventQueue q;
  const auto id = q.schedule(10, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, StaleIdCannotCancelRecycledSlot) {
  // Generation stamps: an id for a fired/cancelled event must stay dead
  // even after its internal storage slot is reused by a new event.
  sim::EventQueue q;
  const auto old_id = q.schedule(10, [] {});
  q.pop();  // fires; the slot is free for reuse
  const auto new_id = q.schedule(20, [] {});
  EXPECT_NE(old_id, new_id);
  EXPECT_FALSE(q.cancel(old_id));  // stale handle: no-op...
  EXPECT_EQ(q.size(), 1u);         // ...and the new event survives
  EXPECT_TRUE(q.cancel(new_id));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelAfterFireWithInterleavedReuse) {
  sim::EventQueue q;
  std::vector<sim::EventId> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(q.schedule(i, [] {}));
  for (int i = 0; i < 8; ++i) q.pop();
  // Heavy slot reuse after the drain.
  std::vector<sim::EventId> fresh;
  for (int i = 0; i < 8; ++i) fresh.push_back(q.schedule(100 + i, [] {}));
  for (const auto id : ids) EXPECT_FALSE(q.cancel(id));
  for (const auto id : fresh) EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SizeCountsOnlyLiveEvents) {
  sim::EventQueue q;
  const auto a = q.schedule(10, [] {});
  q.schedule(20, [] {});
  const auto c = q.schedule(30, [] {});
  EXPECT_EQ(q.size(), 3u);
  q.cancel(a);
  q.cancel(c);
  EXPECT_EQ(q.size(), 1u);  // cancelled entries may linger; size() must not count them
  q.pop();
  EXPECT_EQ(q.size(), 0u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.total_scheduled(), 3u);
}

TEST(EventQueue, FifoPreservedAcrossCancellationsAtSameInstant) {
  sim::EventQueue q;
  std::vector<int> order;
  std::vector<sim::EventId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(q.schedule(5, [&order, i] { order.push_back(i); }));
  }
  // Cancel every odd event; the even ones must still fire in issue order.
  for (int i = 1; i < 10; i += 2) EXPECT_TRUE(q.cancel(ids[static_cast<size_t>(i)]));
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 4, 6, 8}));
}

TEST(EventQueue, ChurnStressMatchesSequentialOrder) {
  // Deterministic schedule/cancel/pop churn: everything that was not
  // cancelled fires exactly once, in (time, issue-order) order.
  sim::EventQueue q;
  std::vector<int> fired;
  std::vector<sim::EventId> ids;
  std::vector<int> expected;
  for (int round = 0; round < 50; ++round) {
    for (int j = 0; j < 4; ++j) {
      const int tag = round * 4 + j;
      ids.push_back(q.schedule((tag * 37) % 97, [&fired, tag] {
        fired.push_back(tag);
      }));
    }
    if (round % 3 == 0) q.cancel(ids[ids.size() - 2]);
    if (round % 7 == 0 && !q.empty()) q.pop().fn();
  }
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired.size(), 200u - 17u);  // 17 rounds cancelled one event
  // No duplicates: every tag fires at most once.
  std::vector<int> sorted = fired;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
              sorted.end());
}

// --- The ordering contract, checked against a brute-force model ----------

/// The queue's contract without its data structure: pending events in a
/// flat list, the earliest (time, schedule order) found by a scan.
class QueueModel {
 public:
  struct Event {
    sim::Time at;
    std::uint64_t order;
    sim::EventId id;
    int tag;
  };

  void schedule(sim::Time at, sim::EventId id, int tag) {
    pending_.push_back(Event{at, next_order_++, id, tag});
  }
  /// True iff `id` was pending (and now is not).
  bool cancel(sim::EventId id) {
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      if (pending_[i].id == id) {
        pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
        return true;
      }
    }
    return false;
  }
  [[nodiscard]] std::size_t size() const { return pending_.size(); }
  [[nodiscard]] const Event& earliest() const {
    return *std::min_element(
        pending_.begin(), pending_.end(), [](const Event& a, const Event& b) {
          return a.at != b.at ? a.at < b.at : a.order < b.order;
        });
  }
  Event pop() {
    const Event e = earliest();
    cancel(e.id);
    return e;
  }
  [[nodiscard]] const std::vector<Event>& pending() const { return pending_; }

 private:
  std::vector<Event> pending_;
  std::uint64_t next_order_ = 0;
};

TEST(EventQueue, MatchesModelOnSeededOperationSequences) {
  // 256 seeded sequences of schedule (equal times, times before the last
  // pop, near events and timers 2^30..2^42 ns ahead), cancel (of live,
  // fired, cancelled and recycled ids), next_time, pop and pop_until (with
  // a deadline just before, at or after the earliest pending time). After
  // every step the queue must agree with the model. Even seeds also peek at
  // next_time() after every step, which settles the queue the way a
  // pop_until() past its deadline does; odd seeds pop without peeking first.
  for (std::uint64_t seed = 1; seed <= 256; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    sim::EventQueue q;
    QueueModel model;
    std::vector<int> fired;        // tags, in firing order
    std::vector<sim::EventId> dead;  // fired or cancelled ids
    std::set<sim::EventId> issued;
    sim::Time last_pop = 0;
    int next_tag = 0;
    const bool peek_every_step = seed % 2 == 0;

    const auto schedule = [&](sim::Time at) {
      const int tag = next_tag++;
      const sim::EventId id =
          q.schedule(at, [&fired, tag] { fired.push_back(tag); });
      ASSERT_NE(id, sim::kInvalidEventId);
      ASSERT_TRUE(issued.insert(id).second) << "id reissued";
      model.schedule(at, id, tag);
    };
    const auto expect_fired = [&](sim::EventQueue::Fired& got) {
      const QueueModel::Event want = model.pop();
      ASSERT_EQ(got.at, want.at);
      ASSERT_EQ(got.id, want.id);
      got.fn();
      ASSERT_EQ(fired.back(), want.tag);
      dead.push_back(got.id);
      last_pop = got.at;
    };
    const auto pop = [&] {
      sim::EventQueue::Fired got = q.pop();
      expect_fired(got);
    };
    const auto pop_until = [&] {
      const sim::Time around =
          model.size() > 0 ? model.earliest().at : last_pop;
      const sim::Time deadline =
          around - 1 + static_cast<sim::Time>(rng.uniform_u64(3));
      const bool due = model.size() > 0 && model.earliest().at <= deadline;
      std::optional<sim::EventQueue::Fired> got = q.pop_until(deadline);
      ASSERT_EQ(got.has_value(), due);
      if (due) expect_fired(*got);
    };
    const auto cancel = [&](sim::EventId id) {
      const bool want = model.cancel(id);
      ASSERT_EQ(q.cancel(id), want);
      if (want) dead.push_back(id);
    };
    const auto random_pending = [&] {
      const auto& p = model.pending();
      return p[rng.uniform_u64(p.size())];
    };

    const int steps = 64 + static_cast<int>(rng.uniform_u64(448));
    for (int step = 0; step < steps; ++step) {
      const std::uint64_t op = rng.uniform_u64(100);
      if (op < 14 && model.size() > 0) {  // equal to a pending time
        schedule(random_pending().at);
      } else if (op < 20) {  // equal to, or before, the last pop
        const auto back = static_cast<sim::Time>(rng.uniform_u64(3000));
        schedule(std::max<sim::Time>(0, last_pop - back));
      } else if (op < 42) {  // near: within 4 us of the last pop
        schedule(last_pop + static_cast<sim::Time>(rng.uniform_u64(4000)));
      } else if (op < 46) {  // timers 2^30..2^42 ns ahead
        const unsigned bits = 30 + static_cast<unsigned>(rng.uniform_u64(13));
        schedule(last_pop + (sim::Time{1} << bits) +
                 static_cast<sim::Time>(rng.uniform_u64(1u << 20)));
      } else if (op < 52 && model.size() > 0) {  // cancel a live id
        cancel(random_pending().id);
      } else if (op < 58 && !dead.empty()) {  // a fired or cancelled id
        cancel(dead[rng.uniform_u64(dead.size())]);
      } else if (op < 62 && model.size() > 0) {
        // Recycle: vacate a slot (fire or cancel), schedule into it at
        // once, then cancel the stale id; the newcomer must survive.
        const sim::EventId old_id = random_pending().id;
        cancel(old_id);
        schedule(last_pop + static_cast<sim::Time>(rng.uniform_u64(2000)));
        cancel(old_id);
        cancel(sim::kInvalidEventId);
      } else if (op < 68 && model.size() > 0) {  // peek
        ASSERT_EQ(q.next_time(), model.earliest().at);
      } else if (op < 80) {  // bounded pop, also of an empty queue
        pop_until();
      } else if (model.size() > 0) {
        pop();
      }
      if (HasFatalFailure()) return;
      ASSERT_EQ(q.size(), model.size());
      ASSERT_EQ(q.empty(), model.size() == 0);
      if (peek_every_step && model.size() > 0) {
        ASSERT_EQ(q.next_time(), model.earliest().at);
      }
    }
    while (model.size() > 0) {
      pop();
      if (HasFatalFailure()) return;
      ASSERT_EQ(q.size(), model.size());
    }
    ASSERT_EQ(q.total_scheduled(), static_cast<std::uint64_t>(next_tag));
  }
}

TEST(Simulator, ClockAdvancesWithEvents) {
  sim::Simulator s;
  sim::Time seen = -1;
  s.schedule_at(100, [&] { seen = s.now(); });
  s.run_all();
  EXPECT_EQ(seen, 100);
  EXPECT_EQ(s.now(), 100);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  sim::Simulator s;
  int count = 0;
  s.schedule_at(10, [&] { ++count; });
  s.schedule_at(20, [&] { ++count; });
  s.schedule_at(30, [&] { ++count; });
  s.run_until(20);
  EXPECT_EQ(count, 2);  // events at exactly the deadline run
  EXPECT_EQ(s.now(), 20);
  s.run_until(100);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(s.now(), 100);  // clock advances to deadline even if idle
}

TEST(Simulator, ScheduleAfterIsRelative) {
  sim::Simulator s;
  std::vector<sim::Time> at;
  s.schedule_at(50, [&] {
    s.schedule_after(25, [&] { at.push_back(s.now()); });
  });
  s.run_all();
  ASSERT_EQ(at.size(), 1u);
  EXPECT_EQ(at[0], 75);
}

TEST(Simulator, PastEventsClampToNow) {
  sim::Simulator s;
  s.schedule_at(100, [&] {
    s.schedule_at(10, [&] { EXPECT_EQ(s.now(), 100); });
  });
  s.run_all();
}

TEST(Simulator, NestedSchedulingRunsInOrder) {
  sim::Simulator s;
  std::vector<int> order;
  s.schedule_at(10, [&] {
    order.push_back(1);
    s.schedule_after(5, [&] { order.push_back(3); });
    s.schedule_after(1, [&] { order.push_back(2); });
  });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, CancelViaSimulator) {
  sim::Simulator s;
  bool fired = false;
  const auto id = s.schedule_at(10, [&] { fired = true; });
  EXPECT_TRUE(s.cancel(id));
  s.run_all();
  EXPECT_FALSE(fired);
}

TEST(Simulator, StepReturnsFalseWhenEmpty) {
  sim::Simulator s;
  EXPECT_FALSE(s.step());
  s.schedule_at(5, [] {});
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
  EXPECT_EQ(s.events_executed(), 1u);
}

TEST(Simulator, DeterministicWithSameSeed) {
  auto run = [](std::uint64_t seed) {
    sim::Simulator s(seed);
    std::vector<double> values;
    for (int i = 0; i < 100; ++i) {
      s.schedule_after(
          static_cast<sim::Duration>(s.rng().uniform(0, 1000)),
          [&values, &s] { values.push_back(s.rng().gaussian()); });
    }
    s.run_all();
    return values;
  };
  EXPECT_EQ(run(99), run(99));
  EXPECT_NE(run(99), run(100));
}

// --- Forwarding schedule_at -------------------------------------------------

/// A callable that counts how often it is copied and moved.
struct CountingCall {
  int* copies;
  int* moves;
  int* calls;
  CountingCall(int* c, int* m, int* k) : copies(c), moves(m), calls(k) {}
  CountingCall(const CountingCall& o)
      : copies(o.copies), moves(o.moves), calls(o.calls) {
    ++*copies;
  }
  CountingCall(CountingCall&& o) noexcept
      : copies(o.copies), moves(o.moves), calls(o.calls) {
    ++*moves;
  }
  void operator()() const { ++*calls; }
};

TEST(Simulator, ScheduleAtBuildsTheCaptureInItsSlot) {
  // The callable is forwarded to the queue slot it lives in: one move from
  // the argument there, and one relocation out of it when the event fires.
  sim::Simulator s;
  int copies = 0;
  int moves = 0;
  int calls = 0;
  s.schedule_at(5, CountingCall(&copies, &moves, &calls));
  EXPECT_EQ(copies, 0);
  EXPECT_EQ(moves, 1);
  s.run_all();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(copies, 0);
  EXPECT_EQ(moves, 2);
}

TEST(Simulator, ScheduleAtCopiesAnLvalueLambda) {
  sim::Simulator s;
  int copies = 0;
  int moves = 0;
  int calls = 0;
  const CountingCall fn(&copies, &moves, &calls);
  s.schedule_at(5, fn);
  s.schedule_after(7, fn);
  EXPECT_EQ(copies, 2);  // one copy each, straight into its slot
  EXPECT_EQ(moves, 0);
  fn();  // the caller's lambda is untouched
  s.run_all();
  EXPECT_EQ(calls, 3);
}

TEST(Simulator, ScheduleAtTakesAMoveOnlyCapture) {
  sim::Simulator s;
  int seen = 0;
  auto payload = std::make_unique<int>(7);
  s.schedule_at(5, [payload = std::move(payload), &seen] { seen = *payload; });
  s.run_all();
  EXPECT_EQ(seen, 7);
}

TEST(Simulator, ScheduleAtTakesAnEventQueueCallback) {
  sim::Simulator s;
  int hits = 0;
  sim::EventQueue::Callback cb = [&hits] { ++hits; };
  s.schedule_at(5, std::move(cb));
  EXPECT_FALSE(static_cast<bool>(cb));  // the capture moved into the queue
  s.run_all();
  EXPECT_EQ(hits, 1);
}

TEST(Simulator, ScheduleAtTakesAStdFunction) {
  sim::Simulator s;
  int hits = 0;
  const std::function<void()> fn = [&hits] { ++hits; };
  s.schedule_at(5, fn);             // copied
  s.schedule_at(6, std::function<void()>(fn));  // moved
  ASSERT_TRUE(static_cast<bool>(fn));
  s.run_all();
  EXPECT_EQ(hits, 2);
}

TEST(Simulator, ScheduleAtTakesAnOversizedCapture) {
  // A capture larger than the 64-byte buffer takes the heap fallback; it
  // must still fire once and be freed after firing and on cancel.
  sim::Simulator s;
  auto owner = std::make_shared<int>(0);
  std::array<std::uint64_t, 12> pad{};
  pad[11] = 5;
  auto big = [owner, pad] { *owner += static_cast<int>(pad[11]); };
  static_assert(!sim::EventQueue::Callback::stores_inline<decltype(big)>());
  s.schedule_at(5, big);
  const sim::EventId dropped = s.schedule_at(6, std::move(big));
  EXPECT_EQ(owner.use_count(), 3);
  EXPECT_TRUE(s.cancel(dropped));
  EXPECT_EQ(owner.use_count(), 2);
  s.run_all();
  EXPECT_EQ(*owner, 5);
  EXPECT_EQ(owner.use_count(), 1);
}

}  // namespace
}  // namespace bamboo
