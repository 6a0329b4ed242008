#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "sim/simulator.h"
#include "types/certificates.h"
#include "types/ids.h"

namespace bamboo::pacemaker {

/// Why a view was entered — drives the proposing mode (responsive protocols
/// propose immediately after a timeout view-change; non-responsive ones wait
/// Δ to hear from all honest replicas, paper §II-C / §VI-D).
enum class AdvanceReason { kInitial, kQuorumCert, kTimeoutCert };

/// The paper's Pacemaker module (§III-B), after LibraBFT: keeps enough
/// honest replicas in the same view for long enough to make progress.
/// On local timeout it asks the replica to broadcast ⟨TIMEOUT, v⟩; the
/// replica aggregates 2f+1 of them into a TC and calls on_tc(). Catch-up
/// happens via on_qc()/on_tc() from any received message.
///
/// The pacemaker owns only timers and the current view; signing,
/// aggregation, and transport live in the replica.
class Pacemaker {
 public:
  struct Settings {
    sim::Duration base_timeout = sim::milliseconds(100);
    double backoff = 1.0;  ///< multiplier per consecutive timeout (>= 1)
    sim::Duration max_timeout = sim::seconds(10);
    /// Proposal slots per view (election width). One timer per slot
    /// (slot s must show a QC within (s+1) x the view timeout), so with
    /// several slots a stalled slot leader times the view out even when
    /// earlier slots made progress.
    types::Slot slots = 1;
  };
  struct Callbacks {
    /// Broadcast a ⟨TIMEOUT, view⟩ message (the replica signs and attaches
    /// its high QC).
    std::function<void(types::View)> broadcast_timeout;
    /// The view changed; the replica proposes if it leads `view`.
    std::function<void(types::View, AdvanceReason)> on_enter_view;
    /// Multi-leader only: slot `slot` of `view` has shown no certificate
    /// for half a timeout window since the last slot progress — its
    /// proposal was withheld, lost, or rejected at ingress (a forged
    /// certificate never connects, so the next slot's connect-trigger
    /// never fires). The immediate successor's leader repairs the
    /// pipeline by proposing over the stuck slot. Fires well before the
    /// slot's own timeout so the repair can certify before a TC forms.
    std::function<void(types::View, types::Slot)> on_slot_stuck;
  };

  Pacemaker(sim::Simulator& simulator, Settings settings, Callbacks callbacks)
      : sim_(simulator),
        settings_(settings),
        callbacks_(std::move(callbacks)) {}

  ~Pacemaker() { cancel_timer(); }
  Pacemaker(const Pacemaker&) = delete;
  Pacemaker& operator=(const Pacemaker&) = delete;

  /// Enter the first view and arm the timer.
  void start(types::View initial_view = 1);

  /// Halt all timers (crash simulation / end of run).
  void stop();

  [[nodiscard]] types::View current_view() const { return view_; }

  /// A QC for `qc_view` was observed: advance to qc_view + 1 if that is
  /// ahead. Resets the timeout backoff (progress!).
  void on_qc(types::View qc_view);

  /// Multi-leader only: a QC formed for a NON-final slot of `view` — the
  /// view is progressing but not over. Cancels the timers of slots up to
  /// and including `slot`, resets the backoff, and catches a lagging
  /// replica up into `view` (entering it with kQuorumCert) without
  /// advancing past it. Never called on the single-slot path.
  void on_slot_qc(types::View view, types::Slot slot);

  /// A TC for `tc_view` formed or was received: advance to tc_view + 1.
  void on_tc(types::View tc_view);

  /// f+1 distinct replicas are timing out at `view` >= ours: join them
  /// early (Bracha-style amplification) so slow replicas do not lag one
  /// timeout behind the cluster.
  void join_timeout(types::View view);

  [[nodiscard]] std::uint64_t timeouts_fired() const { return timeouts_fired_; }
  [[nodiscard]] std::uint64_t views_via_qc() const { return views_via_qc_; }
  [[nodiscard]] std::uint64_t views_via_tc() const { return views_via_tc_; }
  /// Slot timer expirations (with one slot per view, the view timeouts).
  [[nodiscard]] std::uint64_t slot_timeouts() const { return slot_timeouts_; }

 private:
  void advance_to(types::View view, AdvanceReason reason);
  void arm_timer();
  void cancel_timer();
  void local_timeout();
  [[nodiscard]] sim::Duration current_timeout() const;

  sim::Simulator& sim_;
  Settings settings_;
  Callbacks callbacks_;
  void arm_stuck_probe();

  types::View view_ = 0;
  /// One timer per slot of the current view.
  std::vector<sim::EventId> slot_timers_;
  /// Multi-leader: the first slot of the current view with no QC yet —
  /// the slot the stuck probe watches.
  types::Slot next_expected_slot_ = 0;
  sim::EventId stuck_timer_ = sim::kInvalidEventId;
  std::uint32_t consecutive_timeouts_ = 0;
  bool running_ = false;
  std::uint64_t timeouts_fired_ = 0;
  std::uint64_t views_via_qc_ = 0;
  std::uint64_t views_via_tc_ = 0;
  std::uint64_t slot_timeouts_ = 0;
};

}  // namespace bamboo::pacemaker
