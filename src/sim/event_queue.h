#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "sim/inline_function.h"
#include "sim/time.h"

namespace bamboo::sim {

/// Identifier of a scheduled event; usable for cancellation. Encodes a
/// storage slot plus a generation stamp, so ids stay unique even though
/// slots are recycled: an id for a fired or cancelled event can never
/// alias a later event that reuses the same slot.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

/// Priority queue of timestamped callbacks: events fire in (time, schedule
/// order), and cancellation is O(1).
///
/// Monotone radix bucket queue. Pending times never lie below the last
/// settled time `base_` (the time of the last event popped, or of the
/// earliest pending event once next_time() has looked at it), so an entry
/// is filed by the highest bit in which its time differs from base_:
/// bucket 0 holds the entries at exactly base_, bucket b in 1..64 those
/// whose highest differing bit is b - 1. A 64-bit mask marks the non-empty
/// buckets 1..64. Bucket 0 is consumed in FIFO order; when it runs dry, the
/// lowest non-empty bucket is settled: base_ moves to its earliest time
/// and its entries are refiled into the (empty) lower buckets. Each settle
/// lowers every entry it moves by at least one bucket, so an entry is
/// refiled at most 64 times.
///
/// Ordering needs no sequence number. Equal times always share a bucket,
/// because the bucket depends only on the time and base_; appends keep
/// schedule order inside a bucket, and a settle moves a bucket's entries
/// in order into buckets that were empty. So equal times leave bucket 0
/// in schedule order. An event scheduled before base_ (which the
/// Simulator does only after run_until() peeked past its deadline) lowers
/// base_ and refiles every pending entry, keeping that order.
///
/// Entries are 16-byte PODs {at, slot, gen}; the callback lives in a flat
/// slot table. schedule() constructs it there in place and pop() moves it
/// out, so a capture is relocated once. cancel() destroys the capture at
/// once and recycles the slot under a new generation; the stale entry
/// stays filed and is dropped when it reaches bucket 0. All storage is
/// vectors that keep their capacity, so the steady state allocates only
/// when the pending population outgrows any previous high-water mark.
class EventQueue {
 public:
  using Callback = InlineFunction<64>;

  EventQueue();

  /// Schedule `fn` (any `void()` callable, constructed in place) at
  /// absolute time `at`. Returns an id for cancel().
  template <typename F>
  EventId schedule(Time at, F&& fn) {
    if (at < base_) rebase(at);
    const std::uint32_t slot = acquire_slot();
    Slot& s = slots_[slot];
    s.fn.emplace(std::forward<F>(fn));
    file(Entry{at, slot, s.gen});
    ++live_;
    ++scheduled_;
    return encode(slot, s.gen);
  }

  /// Cancel a pending event. Returns false (no-op) if the event already
  /// fired, was already cancelled, or the id is unknown.
  bool cancel(EventId id);

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Earliest pending event time; only valid when !empty(). Settles the
  /// buckets up to that event, so the pop() that follows is O(1).
  [[nodiscard]] Time next_time();

  /// Pop the earliest live event and return it. Precondition: !empty().
  struct Fired {
    Time at;
    EventId id;
    Callback fn;
  };
  Fired pop();

  /// Pop the earliest live event if it is due at or before `deadline`;
  /// nullopt when the queue is empty or the head is later. Settles the head
  /// once, where next_time() then pop() would settle it twice.
  std::optional<Fired> pop_until(Time deadline);

  /// Total events ever scheduled (statistics).
  [[nodiscard]] std::uint64_t total_scheduled() const { return scheduled_; }

 private:
  /// POD bucket entry; the callback lives in slots_[slot], so refiling an
  /// entry never touches it. Live iff the slot is still at generation gen.
  struct Entry {
    Time at;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  /// One recyclable identity plus the pending event's callback. The
  /// generation advances whenever the slot is vacated (fired or
  /// cancelled), which kills its entry and every id issued for it.
  struct Slot {
    Callback fn;
    std::uint32_t gen = 0;
  };

  static constexpr std::size_t kReserveAhead = 1024;
  /// A slot reaching this generation is retired, never recycled, so stale
  /// ids can never alias a later event through generation wrap-around.
  static constexpr std::uint32_t kMaxGeneration = 0xffffffffu;

  [[nodiscard]] static EventId encode(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) |
           (static_cast<EventId>(slot) + 1);
  }

  [[nodiscard]] bool live(const Entry& e) const {
    return slots_[e.slot].gen == e.gen;
  }

  /// File an entry under base_: bucket bit_width(at ^ base_), whose mask
  /// bit is bit_floor(at ^ base_) (none for bucket 0).
  void file(const Entry& e) {
    const auto diff =
        static_cast<std::uint64_t>(e.at) ^ static_cast<std::uint64_t>(base_);
    buckets_[std::bit_width(diff)].push_back(e);
    occupied_ |= std::bit_floor(diff);
  }
  /// Make buckets_[0][head_] the earliest live entry, dropping stale
  /// entries and settling lower buckets as needed. Precondition: !empty().
  void settle_head();
  /// Lower base_ to `at` (earlier than every pending time) and refile.
  void rebase(Time at);
  /// Consume the settled head entry and vacate its slot; the caller moves
  /// the slot's callback out at once.
  Entry take_head();

  std::uint32_t acquire_slot() {
    if (free_slots_.empty()) {
      slots_.emplace_back();
      return static_cast<std::uint32_t>(slots_.size() - 1);
    }
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  /// Vacate a slot: advance its generation and return it to the free list
  /// (or retire it on generation saturation).
  void release_slot(std::uint32_t slot);

  std::array<std::vector<Entry>, 65> buckets_;
  std::size_t head_ = 0;       ///< next unconsumed entry of buckets_[0]
  std::uint64_t occupied_ = 0;  ///< bit b - 1 set iff buckets_[b] non-empty
  Time base_ = 0;               ///< last settled time
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_ = 0;
  std::uint64_t scheduled_ = 0;
};

}  // namespace bamboo::sim
