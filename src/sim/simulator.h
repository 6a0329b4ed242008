#pragma once

#include <cstdint>
#include <functional>
#include <thread>
#include <utility>

#include "sim/event_queue.h"
#include "sim/time.h"
#include "util/rng.h"

namespace bamboo::sim {

/// Single-threaded discrete-event simulator: a clock, an event queue, and a
/// deterministic RNG. Every component in a simulated cluster shares one
/// Simulator; all nondeterminism flows from its seed.
///
/// Parallelism lives strictly ABOVE this class: many Simulators may run on
/// many threads (one run per thread — see harness::ParallelRunner), but one
/// Simulator instance must only ever be touched from a single thread. Debug
/// builds assert this affinity on every schedule/cancel/step.
class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1) : rng_(seed) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] util::Rng& rng() { return rng_; }

  /// Schedule `fn` (any `void()` callable, forwarded to the queue slot it
  /// is constructed in) at an absolute simulated time (clamped to now).
  template <typename F>
  EventId schedule_at(Time at, F&& fn) {
    assert_thread_affinity();
    return queue_.schedule(at < now_ ? now_ : at, std::forward<F>(fn));
  }

  /// Schedule after a relative delay (clamped to non-negative).
  template <typename F>
  EventId schedule_after(Duration delay, F&& fn) {
    return schedule_at(now_ + (delay < 0 ? 0 : delay), std::forward<F>(fn));
  }

  bool cancel(EventId id) {
    assert_thread_affinity();
    return queue_.cancel(id);
  }

  /// Execute the next event, if any. Returns false when the queue is empty.
  bool step();

  /// Run events until the queue empties or the clock passes `deadline`.
  /// Events at exactly `deadline` are executed. The clock is advanced to
  /// `deadline` on return if the queue drained earlier.
  void run_until(Time deadline);

  /// Run for a relative duration.
  void run_for(Duration d) { run_until(now_ + d); }

  /// Run until the queue is completely empty (use with care in open systems).
  void run_all();

  [[nodiscard]] std::uint64_t events_executed() const {
    return events_executed_;
  }
  [[nodiscard]] std::size_t events_pending() const { return queue_.size(); }

 private:
  /// Advance the clock to a popped event and run it.
  void fire(EventQueue::Fired& ev) {
    now_ = ev.at;
    ++events_executed_;
    ev.fn();
  }

#ifdef NDEBUG
  void assert_thread_affinity() const {}
#else
  /// First touch pins the simulator to the calling thread; any later touch
  /// from another thread is a run-level parallelism bug.
  void assert_thread_affinity() const;
#endif

  Time now_ = 0;
  EventQueue queue_;
  util::Rng rng_;
  std::uint64_t events_executed_ = 0;
  // Present in all build types (only the check compiles out) so the class
  // layout never diverges between TUs built with and without NDEBUG.
  mutable std::thread::id owner_thread_{};
};

}  // namespace bamboo::sim
