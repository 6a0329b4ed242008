// Tests for the multi-leader substrate: the width-W election with epoch
// rotation, per-slot pacemaker timers, slot-keyed vote aggregation, the
// protocol/election compatibility guard, and FnF-BFT end-to-end commits.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "client/workload.h"
#include "crypto/sha256.h"
#include "election/leader_election.h"
#include "harness/cluster.h"
#include "harness/experiment.h"
#include "pacemaker/pacemaker.h"
#include "quorum/vote_aggregator.h"

namespace bamboo {
namespace {

// ---------------------------------------------------------------------------
// MultiLeaderElection
// ---------------------------------------------------------------------------

TEST(MultiLeaderElection, WidthAndDistinctSlotLeaders) {
  const auto e = election::make_election("multi:3", 7, 42);
  EXPECT_EQ(e->width(), 3u);
  EXPECT_EQ(e->name(), "multi-leader");
  for (types::View v = 1; v <= 20; ++v) {
    const auto set = e->leader_set(v);
    ASSERT_EQ(set.size(), 3u);
    std::set<types::NodeId> uniq(set.begin(), set.end());
    // Width <= n: every slot of a view gets a distinct replica.
    EXPECT_EQ(uniq.size(), 3u);
    for (types::Slot s = 0; s < 3; ++s) {
      EXPECT_EQ(set[s], e->slot_leader(v, s));
      EXPECT_LT(set[s], 7u);
    }
    // slot_leader(v, 0) is the view's primary leader.
    EXPECT_EQ(e->leader(v), set[0]);
  }
}

TEST(MultiLeaderElection, EpochRotationShiftsTheSet) {
  const auto e = election::make_election("multi:2:4", 5, 0);
  const auto members = [&](types::View v) {
    const auto set = e->leader_set(v);
    return std::set<types::NodeId>(set.begin(), set.end());
  };
  // Views 1..4 share epoch 0's membership: ids strided n/width = 2 apart.
  const auto first = members(1);
  EXPECT_EQ(first, (std::set<types::NodeId>{0, 2}));
  for (types::View v = 2; v <= 4; ++v) EXPECT_EQ(members(v), first);
  // ...but the slot ORDER rotates every view, so no single member holds
  // the view-closing final slot for a whole epoch.
  EXPECT_NE(e->leader_set(1), e->leader_set(2));
  EXPECT_EQ(e->slot_leader(1, 1), e->slot_leader(2, 0));
  // Views 5..8 are epoch 1: the membership shifts by one id.
  const auto second = members(5);
  EXPECT_EQ(second, (std::set<types::NodeId>{1, 3}));
  // Over enough epochs every replica leads some slot.
  std::set<types::NodeId> seen;
  for (types::View v = 1; v <= 40; ++v) {
    for (const auto id : e->leader_set(v)) seen.insert(id);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(MultiLeaderElection, SpecParsing) {
  EXPECT_EQ(election::make_election("multi:1", 4, 0)->width(), 1u);
  EXPECT_EQ(election::make_election("multi:4", 4, 0)->width(), 4u);
  EXPECT_THROW(election::make_election("multi:0", 4, 0),
               std::invalid_argument);
  EXPECT_THROW(election::make_election("multi:5", 4, 0),
               std::invalid_argument);  // width > n
  EXPECT_THROW(election::make_election("multi:2:0", 4, 0),
               std::invalid_argument);  // epoch_len < 1
  EXPECT_THROW(election::make_election("multi:x", 4, 0),
               std::invalid_argument);
  EXPECT_THROW(election::make_election("multi:", 4, 0),
               std::invalid_argument);
}

TEST(MultiLeaderElection, SingleLeaderElectionsReportWidthOne) {
  for (const char* spec : {"roundrobin", "hash", "static:2"}) {
    const auto e = election::make_election(spec, 4, 7);
    EXPECT_EQ(e->width(), 1u) << spec;
    // Default slot_leader/leader_set fall back to leader(view).
    EXPECT_EQ(e->slot_leader(3, 0), e->leader(3)) << spec;
    EXPECT_EQ(e->leader_set(3), std::vector<types::NodeId>{e->leader(3)})
        << spec;
  }
}

// ---------------------------------------------------------------------------
// Pacemaker: per-slot timers
// ---------------------------------------------------------------------------

struct PmHarness {
  sim::Simulator sim{1};
  std::vector<types::View> timeouts_broadcast;
  std::vector<std::pair<types::View, pacemaker::AdvanceReason>> entered;
  std::unique_ptr<pacemaker::Pacemaker> pm;

  explicit PmHarness(pacemaker::Pacemaker::Settings settings) {
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

TEST(PacemakerSlots, EarliestSlotTimerTimesTheViewOut) {
  PmHarness h({sim::milliseconds(100), 1.0, sim::seconds(10), 3});
  h.pm->start(1);
  h.sim.run_for(sim::milliseconds(99));
  EXPECT_TRUE(h.timeouts_broadcast.empty());
  // Slot 0's deadline (1x base) fires first and re-arms the whole ladder.
  h.sim.run_for(sim::milliseconds(2));
  EXPECT_EQ(h.timeouts_broadcast.size(), 1u);
  EXPECT_EQ(h.pm->slot_timeouts(), 1u);
  EXPECT_EQ(h.pm->current_view(), 1u);  // timeouts alone never advance
}

TEST(PacemakerSlots, SlotQcCancelsElapsedSlotTimers) {
  PmHarness h({sim::milliseconds(100), 1.0, sim::seconds(10), 3});
  h.pm->start(1);
  h.sim.run_for(sim::milliseconds(60));
  h.pm->on_slot_qc(1, 0);  // slot 0 certified: its timer is cancelled
  EXPECT_EQ(h.pm->current_view(), 1u);  // mid-view QC does not advance
  // Later slots re-anchor to the QC: slot 1 now has one base window from
  // t = 60ms, so its deadline is 160ms (not 2x base from view entry).
  h.sim.run_for(sim::milliseconds(90));  // t = 150ms
  EXPECT_TRUE(h.timeouts_broadcast.empty());
  h.sim.run_for(sim::milliseconds(20));  // t = 170ms
  EXPECT_EQ(h.timeouts_broadcast.size(), 1u);
  EXPECT_EQ(h.pm->slot_timeouts(), 1u);
}

TEST(PacemakerSlots, SlotQcCatchesLaggingReplicaUpIntoView) {
  PmHarness h({sim::milliseconds(100), 1.0, sim::seconds(10), 2});
  h.pm->start(1);
  h.pm->on_slot_qc(3, 0);  // cluster is at view 3; join it, not view 4
  EXPECT_EQ(h.pm->current_view(), 3u);
  ASSERT_EQ(h.entered.size(), 2u);
  EXPECT_EQ(h.entered[1].first, 3u);
  EXPECT_EQ(h.entered[1].second, pacemaker::AdvanceReason::kQuorumCert);
  // Stale slot QCs are ignored.
  h.pm->on_slot_qc(2, 0);
  EXPECT_EQ(h.pm->current_view(), 3u);
  EXPECT_EQ(h.entered.size(), 2u);
}

TEST(PacemakerSlots, FinalSlotQcStillAdvancesViaOnQc) {
  PmHarness h({sim::milliseconds(100), 1.0, sim::seconds(10), 2});
  h.pm->start(1);
  h.pm->on_qc(1);  // the final slot's QC goes through the legacy path
  EXPECT_EQ(h.pm->current_view(), 2u);
  EXPECT_EQ(h.pm->views_via_qc(), 1u);
}

// ---------------------------------------------------------------------------
// VoteAggregator: slot-keyed buckets
// ---------------------------------------------------------------------------

types::VoteMsg slot_vote(types::NodeId voter, types::View view,
                         types::Slot slot, const crypto::Digest& hash) {
  types::VoteMsg v;
  v.view = view;
  v.slot = slot;
  v.height = 1;
  v.block_hash = hash;
  v.sig.signer = voter;
  return v;
}

TEST(VoteAggregatorSlots, QcCarriesTheSlot) {
  quorum::VoteAggregator agg(4);
  const auto h = crypto::Sha256::hash("b");
  agg.add(slot_vote(0, 1, 2, h));
  agg.add(slot_vote(1, 1, 2, h));
  const auto qc = agg.add(slot_vote(2, 1, 2, h));
  ASSERT_TRUE(qc.has_value());
  EXPECT_EQ(qc->view, 1u);
  EXPECT_EQ(qc->slot, 2u);
}

TEST(VoteAggregatorSlots, SameVoterDifferentSlotsNotEquivocation) {
  quorum::VoteAggregator agg(4);
  const auto h1 = crypto::Sha256::hash("b1");
  const auto h2 = crypto::Sha256::hash("b2");
  agg.add(slot_vote(0, 1, 0, h1));
  agg.add(slot_vote(0, 1, 1, h2));  // a different slot: legitimate
  EXPECT_EQ(agg.equivocation_count(), 0u);
  // Both votes count toward their own slots' quorums.
  agg.add(slot_vote(1, 1, 1, h2));
  EXPECT_TRUE(agg.add(slot_vote(2, 1, 1, h2)).has_value());
}

TEST(VoteAggregatorSlots, SameSlotDifferentBlocksIsEquivocation) {
  quorum::VoteAggregator agg(4);
  const auto h1 = crypto::Sha256::hash("b1");
  const auto h2 = crypto::Sha256::hash("b2");
  agg.add(slot_vote(0, 1, 1, h1));
  agg.add(slot_vote(0, 1, 1, h2));
  EXPECT_EQ(agg.equivocation_count(), 1u);
}

// The regression the ISSUE's fix item asks for: the same voter
// equivocating in two consecutive views is counted once per view — the
// counter is cumulative across views and must not reset when view 2's
// buckets open (nor when view 1's are garbage-collected).
TEST(VoteAggregatorSlots, EquivocationAcrossConsecutiveViewsAccumulates) {
  quorum::VoteAggregator agg(4);
  const auto h1 = crypto::Sha256::hash("b1");
  const auto h2 = crypto::Sha256::hash("b2");
  const auto h3 = crypto::Sha256::hash("b3");
  const auto h4 = crypto::Sha256::hash("b4");
  agg.add(slot_vote(0, 1, 0, h1));
  agg.add(slot_vote(0, 1, 0, h2));  // equivocation #1 (view 1)
  EXPECT_EQ(agg.equivocation_count(), 1u);
  agg.add(slot_vote(0, 2, 0, h3));
  agg.add(slot_vote(0, 2, 0, h4));  // equivocation #2 (view 2)
  EXPECT_EQ(agg.equivocation_count(), 2u);
  // GC of the old view keeps the cumulative evidence counter.
  agg.gc_below(2);
  EXPECT_EQ(agg.equivocation_count(), 2u);
  // Every further conflicting vote in a live view is more evidence.
  agg.add(slot_vote(0, 2, 0, h1));
  EXPECT_EQ(agg.equivocation_count(), 3u);
}

// ---------------------------------------------------------------------------
// Cluster: protocol/election width compatibility
// ---------------------------------------------------------------------------

TEST(MultiLeaderCluster, FnfRequiresMultiElection) {
  core::Config cfg;
  cfg.protocol = "fnfbft";
  cfg.election = "roundrobin";
  harness::Cluster cluster(cfg);
  EXPECT_THROW(cluster.start(), std::invalid_argument);
}

TEST(MultiLeaderCluster, SingleLeaderProtocolRejectsMultiElection) {
  core::Config cfg;
  cfg.protocol = "hotstuff";
  cfg.election = "multi:2";
  harness::Cluster cluster(cfg);
  EXPECT_THROW(cluster.start(), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// FnF-BFT end-to-end
// ---------------------------------------------------------------------------

harness::RunResult run_fnf(std::uint32_t n, std::uint32_t width,
                           std::uint64_t seed, const std::string& churn = "",
                           std::uint32_t byz_no = 0,
                           const std::string& strategy = "silence") {
  harness::RunSpec spec;
  spec.cfg.protocol = "fnfbft";
  spec.cfg.election = "multi:" + std::to_string(width);
  spec.cfg.n_replicas = n;
  spec.cfg.seed = seed;
  spec.cfg.churn = churn;
  spec.cfg.byz_no = byz_no;
  spec.cfg.strategy = strategy;
  spec.workload.concurrency = 32;
  spec.opts.warmup_s = 0.3;
  spec.opts.measure_s = 0.7;
  return harness::execute(spec);
}

TEST(FnfBft, CommitsAndStaysConsistent) {
  const auto r = run_fnf(4, 2, 1);
  EXPECT_TRUE(r.consistent);
  EXPECT_EQ(r.safety_violations, 0u);
  EXPECT_GT(r.blocks_committed, 0u);
  EXPECT_GT(r.throughput_tps, 0.0);
}

TEST(FnfBft, WiderSetsStillCommit) {
  for (const std::uint32_t width : {3u, 4u}) {
    const auto r = run_fnf(7, width, 2);
    EXPECT_TRUE(r.consistent) << "width " << width;
    EXPECT_GT(r.blocks_committed, 0u) << "width " << width;
  }
}

TEST(FnfBft, Deterministic) {
  const auto a = run_fnf(4, 2, 9);
  const auto b = run_fnf(4, 2, 9);
  EXPECT_EQ(a, b);
}

TEST(FnfBft, SurvivesForkingLeaders) {
  const auto r = run_fnf(7, 3, 3, "", 2, "forking");
  EXPECT_TRUE(r.consistent);
  EXPECT_EQ(r.safety_violations, 0u);
  EXPECT_GT(r.blocks_committed, 0u);
}

}  // namespace
}  // namespace bamboo
