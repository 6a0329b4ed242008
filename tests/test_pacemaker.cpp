// Tests for the view-synchronization pacemaker: timers, QC/TC advancement,
// early join, backoff.

#include <gtest/gtest.h>

#include <vector>

#include "pacemaker/pacemaker.h"

namespace bamboo {
namespace {

struct Harness {
  sim::Simulator sim{1};
  std::vector<types::View> timeouts_broadcast;
  std::vector<std::pair<types::View, pacemaker::AdvanceReason>> entered;
  std::unique_ptr<pacemaker::Pacemaker> pm;

  explicit Harness(pacemaker::Pacemaker::Settings settings = {
                       sim::milliseconds(100), 1.0, sim::seconds(10)}) {
    pm = std::make_unique<pacemaker::Pacemaker>(
        sim, settings,
        pacemaker::Pacemaker::Callbacks{
            [this](types::View v) { timeouts_broadcast.push_back(v); },
            [this](types::View v, pacemaker::AdvanceReason r) {
              entered.emplace_back(v, r);
            },
            /*on_slot_stuck=*/{}});
  }
};

TEST(Pacemaker, StartEntersInitialView) {
  Harness h;
  h.pm->start(1);
  ASSERT_EQ(h.entered.size(), 1u);
  EXPECT_EQ(h.entered[0].first, 1u);
  EXPECT_EQ(h.entered[0].second, pacemaker::AdvanceReason::kInitial);
  EXPECT_EQ(h.pm->current_view(), 1u);
}

TEST(Pacemaker, TimerFiresAndRebroadcastsWhileStuck) {
  Harness h;
  h.pm->start(1);
  h.sim.run_for(sim::milliseconds(350));
  // 100ms timeout, no progress: timeouts at 100, 200, 300.
  EXPECT_EQ(h.timeouts_broadcast.size(), 3u);
  for (const auto v : h.timeouts_broadcast) EXPECT_EQ(v, 1u);
  EXPECT_EQ(h.pm->current_view(), 1u);  // timeouts alone don't advance
  EXPECT_EQ(h.pm->timeouts_fired(), 3u);
}

TEST(Pacemaker, QcAdvancesAndResetsTimer) {
  Harness h;
  h.pm->start(1);
  h.sim.run_for(sim::milliseconds(60));
  h.pm->on_qc(1);
  EXPECT_EQ(h.pm->current_view(), 2u);
  ASSERT_EQ(h.entered.size(), 2u);
  EXPECT_EQ(h.entered[1].second, pacemaker::AdvanceReason::kQuorumCert);
  // Timer restarted: no timeout fires before 60 + 100.
  h.sim.run_for(sim::milliseconds(90));
  EXPECT_TRUE(h.timeouts_broadcast.empty());
  h.sim.run_for(sim::milliseconds(20));
  EXPECT_EQ(h.timeouts_broadcast.size(), 1u);
  EXPECT_EQ(h.timeouts_broadcast[0], 2u);
}

TEST(Pacemaker, StaleQcDoesNotAdvance) {
  Harness h;
  h.pm->start(5);
  h.pm->on_qc(3);  // would lead to view 4 < 5
  EXPECT_EQ(h.pm->current_view(), 5u);
  EXPECT_EQ(h.entered.size(), 1u);
}

TEST(Pacemaker, QcCanSkipViewsForward) {
  Harness h;
  h.pm->start(1);
  h.pm->on_qc(9);
  EXPECT_EQ(h.pm->current_view(), 10u);
}

TEST(Pacemaker, TcAdvances) {
  Harness h;
  h.pm->start(1);
  h.pm->on_tc(1);
  EXPECT_EQ(h.pm->current_view(), 2u);
  ASSERT_EQ(h.entered.size(), 2u);
  EXPECT_EQ(h.entered[1].second, pacemaker::AdvanceReason::kTimeoutCert);
  EXPECT_EQ(h.pm->views_via_tc(), 1u);
}

TEST(Pacemaker, JoinTimeoutFiresImmediately) {
  Harness h;
  h.pm->start(1);
  h.sim.run_for(sim::milliseconds(10));
  h.pm->join_timeout(1);
  EXPECT_EQ(h.timeouts_broadcast.size(), 1u);
  EXPECT_EQ(h.timeouts_broadcast[0], 1u);
}

TEST(Pacemaker, JoinTimeoutForFutureViewJumps) {
  Harness h;
  h.pm->start(1);
  h.pm->join_timeout(7);
  ASSERT_EQ(h.timeouts_broadcast.size(), 1u);
  EXPECT_EQ(h.timeouts_broadcast[0], 7u);
  EXPECT_EQ(h.pm->current_view(), 7u);
}

TEST(Pacemaker, JoinTimeoutIgnoresPastViews) {
  Harness h;
  h.pm->start(5);
  h.pm->join_timeout(3);
  EXPECT_TRUE(h.timeouts_broadcast.empty());
}

TEST(Pacemaker, StopSilencesTimers) {
  Harness h;
  h.pm->start(1);
  h.pm->stop();
  h.sim.run_for(sim::seconds(2));
  EXPECT_TRUE(h.timeouts_broadcast.empty());
  h.pm->on_qc(5);  // ignored after stop
  EXPECT_EQ(h.entered.size(), 1u);
}

TEST(Pacemaker, ExponentialBackoffStretchesTimeouts) {
  Harness h(pacemaker::Pacemaker::Settings{sim::milliseconds(100), 2.0,
                                           sim::seconds(10)});
  h.pm->start(1);
  // Timeouts at 100 (x1), then +200 (x2), then +400 (x4): 100, 300, 700.
  h.sim.run_for(sim::milliseconds(750));
  EXPECT_EQ(h.timeouts_broadcast.size(), 3u);
  EXPECT_EQ(h.pm->timeouts_fired(), 3u);
}

TEST(Pacemaker, BackoffResetsOnQcProgress) {
  Harness h(pacemaker::Pacemaker::Settings{sim::milliseconds(100), 2.0,
                                           sim::seconds(10)});
  h.pm->start(1);
  h.sim.run_for(sim::milliseconds(150));  // one timeout at 100
  EXPECT_EQ(h.timeouts_broadcast.size(), 1u);
  h.pm->on_qc(1);  // progress resets the backoff
  h.sim.run_for(sim::milliseconds(90));
  EXPECT_EQ(h.timeouts_broadcast.size(), 1u);  // < base timeout again
  h.sim.run_for(sim::milliseconds(20));
  EXPECT_EQ(h.timeouts_broadcast.size(), 2u);
}

TEST(Pacemaker, MaxTimeoutCaps) {
  Harness h(pacemaker::Pacemaker::Settings{sim::milliseconds(100), 10.0,
                                           sim::milliseconds(150)});
  h.pm->start(1);
  // Backoff would give 100, 1000, ... but the cap holds each at <= 150.
  h.sim.run_for(sim::milliseconds(500));
  EXPECT_GE(h.timeouts_broadcast.size(), 3u);
}

}  // namespace
}  // namespace bamboo
