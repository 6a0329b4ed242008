#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace bamboo::sim {

EventQueue::EventQueue() {
  slots_.reserve(kReserveAhead);
  free_slots_.reserve(kReserveAhead);
}

bool EventQueue::cancel(EventId id) {
  if (id == kInvalidEventId) return false;
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffULL) - 1;
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size() || slots_[slot].gen != gen) return false;
  // The entry stays filed as a stale stamp; the capture is destroyed now
  // so cancellation releases owned resources promptly.
  slots_[slot].fn.reset();
  release_slot(slot);
  --live_;
  return true;
}

void EventQueue::settle_head() {
  assert(live_ > 0);
  for (;;) {
    std::vector<Entry>& now = buckets_[0];
    for (; head_ < now.size(); ++head_) {
      if (live(now[head_])) return;
    }
    now.clear();
    head_ = 0;
    // Settle the lowest non-empty bucket: its earliest time becomes base_
    // and every entry drops into a lower, so far empty, bucket (equal
    // times into bucket 0), in the order they were filed.
    assert(occupied_ != 0);
    const int b = std::countr_zero(occupied_) + 1;
    occupied_ &= occupied_ - 1;
    std::vector<Entry>& from = buckets_[static_cast<std::size_t>(b)];
    Time earliest = from.front().at;
    for (const Entry& e : from) earliest = std::min(earliest, e.at);
    base_ = earliest;
    for (const Entry& e : from) file(e);
    from.clear();
  }
}

void EventQueue::rebase(Time at) {
  std::vector<Entry> pending;
  for (std::vector<Entry>& bucket : buckets_) {
    const auto first = &bucket == &buckets_[0] ? head_ : 0;
    pending.insert(pending.end(),
                   bucket.begin() + static_cast<std::ptrdiff_t>(first),
                   bucket.end());
    bucket.clear();
  }
  head_ = 0;
  occupied_ = 0;
  base_ = at;
  // Equal times all came from one bucket, in order, so they stay in order.
  for (const Entry& e : pending) file(e);
}

Time EventQueue::next_time() {
  settle_head();
  return base_;
}

EventQueue::Entry EventQueue::take_head() {
  const Entry e = buckets_[0][head_++];
  release_slot(e.slot);
  --live_;
  return e;
}

EventQueue::Fired EventQueue::pop() {
  settle_head();
  const Entry e = take_head();
  // A prvalue return: the capture's one relocation is this move out.
  return Fired{e.at, encode(e.slot, e.gen), std::move(slots_[e.slot].fn)};
}

std::optional<EventQueue::Fired> EventQueue::pop_until(Time deadline) {
  if (live_ == 0) return std::nullopt;
  settle_head();
  if (base_ > deadline) return std::nullopt;
  const Entry e = take_head();
  // Built in the optional: the capture's one relocation is this move out.
  return std::optional<Fired>(std::in_place, e.at, encode(e.slot, e.gen),
                              std::move(slots_[e.slot].fn));
}

void EventQueue::release_slot(std::uint32_t slot) {
  // Retire a slot whose generation counter saturated instead of letting it
  // wrap: a wrapped generation could make a stale EventId held across 2^32
  // reuses alias a live event. Retirement costs 80 bytes per ~4e9 events.
  if (++slots_[slot].gen != kMaxGeneration) free_slots_.push_back(slot);
}

}  // namespace bamboo::sim
