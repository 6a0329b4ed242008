#include "pacemaker/pacemaker.h"

#include <cmath>

namespace bamboo::pacemaker {

void Pacemaker::start(types::View initial_view) {
  running_ = true;
  view_ = initial_view;
  arm_timer();
  if (callbacks_.on_enter_view) {
    callbacks_.on_enter_view(view_, AdvanceReason::kInitial);
  }
}

void Pacemaker::stop() {
  running_ = false;
  cancel_timer();
}

void Pacemaker::on_qc(types::View qc_view) {
  if (!running_) return;
  consecutive_timeouts_ = 0;
  if (qc_view + 1 > view_) {
    ++views_via_qc_;
    advance_to(qc_view + 1, AdvanceReason::kQuorumCert);
  }
}

void Pacemaker::on_slot_qc(types::View view, types::Slot slot) {
  if (!running_ || view < view_) return;
  consecutive_timeouts_ = 0;
  if (view > view_) {
    // We lag the cluster: a mid-view QC proves `view` is live, so join it
    // (advance INTO the view, not past it — only the final slot's QC or a
    // TC moves the cluster on).
    ++views_via_qc_;
    advance_to(view, AdvanceReason::kQuorumCert);
  }
  // Slots up to `slot` have demonstrably made progress; their timers are
  // no longer needed.
  for (types::Slot s = 0; s <= slot && s < slot_timers_.size(); ++s) {
    if (slot_timers_[s] != sim::kInvalidEventId) {
      sim_.cancel(slot_timers_[s]);
      slot_timers_[s] = sim::kInvalidEventId;
    }
  }
  // Re-anchor the later slots' deadlines to *this* progress point: slot j
  // now gets (j - slot) timeout windows from the freshest QC instead of
  // (j + 1) from view entry. Without this, a Byzantine final-slot leader
  // makes every view of its epoch burn width x base_timeout even though
  // the first width-1 slots certified within milliseconds.
  const auto base = current_timeout();
  for (types::Slot j = slot + 1; j < slot_timers_.size(); ++j) {
    if (slot_timers_[j] == sim::kInvalidEventId) continue;
    sim_.cancel(slot_timers_[j]);
    slot_timers_[j] = sim_.schedule_after(
        base * static_cast<sim::Duration>(j - slot), [this, j] {
          slot_timers_[j] = sim::kInvalidEventId;
          ++slot_timeouts_;
          local_timeout();
        });
  }
  if (slot + 1 > next_expected_slot_) next_expected_slot_ = slot + 1;
  arm_stuck_probe();
}

void Pacemaker::on_tc(types::View tc_view) {
  if (!running_) return;
  if (tc_view + 1 > view_) {
    ++views_via_tc_;
    advance_to(tc_view + 1, AdvanceReason::kTimeoutCert);
  }
}

void Pacemaker::join_timeout(types::View view) {
  if (!running_ || view < view_) return;
  // Fire our own timeout for that view immediately.
  if (view > view_) {
    // We lag: jump our view forward so the timeout we broadcast matches the
    // cluster's. Entering the view proper still requires a QC/TC.
    view_ = view;
    arm_timer();
  }
  local_timeout();
}

void Pacemaker::advance_to(types::View view, AdvanceReason reason) {
  view_ = view;
  next_expected_slot_ = 0;
  arm_timer();
  if (callbacks_.on_enter_view) callbacks_.on_enter_view(view_, reason);
}

sim::Duration Pacemaker::current_timeout() const {
  double t = static_cast<double>(settings_.base_timeout);
  if (settings_.backoff > 1.0 && consecutive_timeouts_ > 0) {
    t *= std::pow(settings_.backoff,
                  static_cast<double>(consecutive_timeouts_));
  }
  const auto d = static_cast<sim::Duration>(t);
  return d > settings_.max_timeout ? settings_.max_timeout : d;
}

void Pacemaker::arm_timer() {
  cancel_timer();
  if (!running_) return;
  // Slot s is expected to show a QC within (s+1) view timeouts of view
  // entry; a single-leader view has one slot and so one timer. The
  // earliest still-armed timer that fires times the whole view out
  // (local_timeout re-arms the full set with backoff).
  const auto base = current_timeout();
  slot_timers_.assign(settings_.slots, sim::kInvalidEventId);
  for (types::Slot s = 0; s < settings_.slots; ++s) {
    slot_timers_[s] = sim_.schedule_after(
        base * static_cast<sim::Duration>(s + 1), [this, s] {
          slot_timers_[s] = sim::kInvalidEventId;
          ++slot_timeouts_;
          local_timeout();
        });
  }
  arm_stuck_probe();
}

void Pacemaker::arm_stuck_probe() {
  if (stuck_timer_ != sim::kInvalidEventId) {
    sim_.cancel(stuck_timer_);
    stuck_timer_ = sim::kInvalidEventId;
  }
  if (!running_ || settings_.slots <= 1 || !callbacks_.on_slot_stuck) return;
  // No successor exists past the final slot; its stall is the view-closing
  // timeout's to handle.
  if (next_expected_slot_ + 1 >= settings_.slots) return;
  stuck_timer_ = sim_.schedule_after(
      current_timeout() / 2, [this, slot = next_expected_slot_] {
        stuck_timer_ = sim::kInvalidEventId;
        callbacks_.on_slot_stuck(view_, slot);
      });
}

void Pacemaker::cancel_timer() {
  for (sim::EventId& t : slot_timers_) {
    if (t != sim::kInvalidEventId) {
      sim_.cancel(t);
      t = sim::kInvalidEventId;
    }
  }
  slot_timers_.clear();
  if (stuck_timer_ != sim::kInvalidEventId) {
    sim_.cancel(stuck_timer_);
    stuck_timer_ = sim::kInvalidEventId;
  }
}

void Pacemaker::local_timeout() {
  if (!running_) return;
  ++timeouts_fired_;
  ++consecutive_timeouts_;
  if (callbacks_.broadcast_timeout) callbacks_.broadcast_timeout(view_);
  // Stay in the view; re-arm so we re-broadcast the timeout if the cluster
  // stays stuck (lost messages, lagging peers).
  arm_timer();
}

}  // namespace bamboo::pacemaker
