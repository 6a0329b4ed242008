// Whole-cluster integration tests: safety (prefix-consistent committed
// chains, no duplicate transaction commits, zero safety violations),
// liveness (progress under synchrony, crash tolerance up to f), and the
// paper's two Byzantine attacks (§IV-A) with their protocol-specific
// signatures (Fig. 13/14).

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>

#include "client/workload.h"
#include "harness/cluster.h"
#include "harness/experiment.h"

namespace bamboo {
namespace {

struct RunOutcome {
  harness::Cluster::ConsistencyReport consistency;
  std::uint64_t observer_committed_blocks = 0;
  std::uint64_t observer_forked_blocks = 0;
  std::uint64_t safety_violations = 0;
  std::uint64_t duplicate_tx_commits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t client_completed = 0;
};

/// Counts transactions that replica 0 commits more than once.
struct DuplicateCommits final : core::ReplicaObserver {
  std::set<types::TxId> seen;
  std::uint64_t count = 0;
  void on_commit(const core::Replica& replica,
                 const types::BlockPtr& block) override {
    if (replica.id() != 0) return;
    for (const auto& tx : block->txns()) {
      if (!seen.insert(tx.id).second) ++count;
    }
  }
};

/// Run a cluster under closed-loop load for `sim_s` simulated seconds and
/// collect the invariant-relevant outcomes.
RunOutcome run_cluster(core::Config cfg, double sim_s = 1.0,
                       std::uint32_t concurrency = 64) {
  harness::Cluster cluster(std::move(cfg));

  DuplicateCommits dups;
  cluster.attach(dups);

  client::WorkloadConfig wl;
  wl.mode = client::LoadMode::kClosedLoop;
  wl.concurrency = concurrency;
  client::WorkloadDriver driver(cluster.simulator(), cluster.network(),
                                cluster.config(), wl);
  driver.install();
  cluster.start();
  driver.start();
  cluster.simulator().run_for(sim::from_seconds(sim_s));
  driver.stop();

  RunOutcome out;
  out.consistency = cluster.check_consistency();
  out.observer_committed_blocks = cluster.observer().stats().blocks_committed;
  out.observer_forked_blocks = cluster.observer().stats().blocks_forked;
  out.duplicate_tx_commits = dups.count;
  out.timeouts = cluster.total_timeouts();
  out.client_completed = driver.stats().completed;
  for (types::NodeId id = 0; id < cluster.size(); ++id) {
    out.safety_violations += cluster.replica(id).stats().safety_violations;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Parameterized safety sweep: protocol x attack x seed
// ---------------------------------------------------------------------------

using SweepParam = std::tuple<std::string, std::string, std::uint64_t>;

class SafetySweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(SafetySweep, InvariantsHoldUnderAttack) {
  const auto& [protocol, strategy, seed] = GetParam();
  core::Config cfg;
  cfg.protocol = protocol;
  cfg.n_replicas = 4;
  cfg.byz_no = (strategy == "honest") ? 0 : 1;
  cfg.strategy = (strategy == "honest") ? "silence" : strategy;
  cfg.seed = seed;
  cfg.bsize = 100;
  cfg.timeout = sim::milliseconds(50);

  const RunOutcome out = run_cluster(cfg);

  // Safety: never violated, regardless of the attack.
  EXPECT_TRUE(out.consistency.consistent) << out.consistency.detail;
  EXPECT_EQ(out.safety_violations, 0u);
  EXPECT_EQ(out.duplicate_tx_commits, 0u);
  // Liveness: one Byzantine node out of 4 cannot stop chain progress. The
  // silence attack is timeout-bound (two 50 ms timeout rounds per attacker
  // leadership cycle at N=4), so its block floor is much lower; under
  // forking, transactions served by the perpetually-overwritten replicas
  // starve (the Fig. 13 latency explosion), so the completion floor is
  // low even though blocks commit briskly.
  if (strategy == "silence") {
    EXPECT_GT(out.observer_committed_blocks, 8u);
    EXPECT_GT(out.client_completed, 30u);
  } else {
    EXPECT_GT(out.observer_committed_blocks, 50u);
    EXPECT_GT(out.client_completed, 40u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, SafetySweep,
    ::testing::Combine(
        ::testing::Values("hotstuff", "2chs", "streamlet", "fasthotstuff"),
        ::testing::Values("honest", "forking", "silence"),
        ::testing::Values(1ull, 7ull, 42ull)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param) +
             "_seed" + std::to_string(std::get<2>(info.param));
    });

// ---------------------------------------------------------------------------
// Liveness and crash tolerance
// ---------------------------------------------------------------------------

using ProtocolParam = std::string;

class ProtocolLiveness : public ::testing::TestWithParam<ProtocolParam> {};

TEST_P(ProtocolLiveness, ProgressInSynchrony) {
  core::Config cfg;
  cfg.protocol = GetParam();
  cfg.n_replicas = 4;
  const RunOutcome out = run_cluster(cfg);
  EXPECT_TRUE(out.consistency.consistent);
  EXPECT_GT(out.observer_committed_blocks, 100u);
  EXPECT_EQ(out.timeouts, 0u);  // happy path: no view changes
}

TEST_P(ProtocolLiveness, ToleratesFCrashes) {
  core::Config cfg;
  cfg.protocol = GetParam();
  cfg.n_replicas = 4;
  cfg.byz_no = 1;  // f = 1
  cfg.strategy = "crash";
  cfg.timeout = sim::milliseconds(20);
  const RunOutcome out = run_cluster(cfg);
  EXPECT_TRUE(out.consistency.consistent);
  EXPECT_GT(out.observer_committed_blocks, 20u);
  EXPECT_GT(out.timeouts, 0u);  // the crashed leader's views time out
}

TEST_P(ProtocolLiveness, HaltsBeyondF) {
  core::Config cfg;
  cfg.protocol = GetParam();
  cfg.n_replicas = 4;
  cfg.byz_no = 2;  // f + 1 crashes: no quorum possible
  cfg.strategy = "crash";
  cfg.timeout = sim::milliseconds(20);
  const RunOutcome out = run_cluster(cfg, 0.5);
  EXPECT_TRUE(out.consistency.consistent);  // safety holds even when stuck
  EXPECT_EQ(out.observer_committed_blocks, 0u);
  EXPECT_EQ(out.safety_violations, 0u);
}

TEST_P(ProtocolLiveness, SevenReplicasTolerateTwoCrashes) {
  core::Config cfg;
  cfg.protocol = GetParam();
  cfg.n_replicas = 7;
  cfg.byz_no = 2;  // f = 2
  cfg.strategy = "crash";
  cfg.timeout = sim::milliseconds(20);
  const RunOutcome out = run_cluster(cfg);
  EXPECT_TRUE(out.consistency.consistent);
  EXPECT_GT(out.observer_committed_blocks, 10u);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, ProtocolLiveness,
                         ::testing::Values("hotstuff", "2chs", "streamlet",
                                           "fasthotstuff"),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------------
// Attack signatures (Fig. 13 / Fig. 14 mechanics at small scale)
// ---------------------------------------------------------------------------

TEST(ForkingAttack, HotStuffForksButStreamletDoesNot) {
  core::Config base;
  base.n_replicas = 4;
  base.byz_no = 1;
  base.strategy = "forking";
  base.bsize = 100;

  base.protocol = "hotstuff";
  const RunOutcome hs = run_cluster(base);
  EXPECT_GT(hs.observer_forked_blocks, 0u)
      << "the forking attacker must overwrite HotStuff blocks";
  EXPECT_TRUE(hs.consistency.consistent);

  base.protocol = "streamlet";
  const RunOutcome sl = run_cluster(base);
  EXPECT_EQ(sl.observer_forked_blocks, 0u)
      << "Streamlet's longest-chain vote rule is immune (Fig. 13)";

  base.protocol = "fasthotstuff";
  const RunOutcome fhs = run_cluster(base);
  EXPECT_EQ(fhs.observer_forked_blocks, 0u)
      << "Fast-HotStuff's fresh-justify vote rule is immune";
}

TEST(ForkingAttack, TwoChainForksLessThanHotStuff) {
  core::Config base;
  base.n_replicas = 8;
  base.byz_no = 2;
  base.strategy = "forking";
  base.bsize = 100;

  base.protocol = "hotstuff";
  const RunOutcome hs = run_cluster(base, 1.5);
  base.protocol = "2chs";
  const RunOutcome chs = run_cluster(base, 1.5);

  ASSERT_GT(hs.observer_committed_blocks, 0u);
  ASSERT_GT(chs.observer_committed_blocks, 0u);
  // The attacker overwrites 2 blocks per fork in HS but only 1 in 2CHS:
  // 2CHS must lose strictly fewer blocks (paper: "2CHS outperforms
  // HotStuff in all the metrics" under forking).
  EXPECT_LT(chs.observer_forked_blocks, hs.observer_forked_blocks);
}

TEST(SilenceAttack, OverwritesTailInHotStuffFamilies) {
  core::Config base;
  base.n_replicas = 4;
  base.byz_no = 1;
  base.strategy = "silence";
  base.bsize = 100;
  base.timeout = sim::milliseconds(30);

  base.protocol = "hotstuff";
  const RunOutcome hs = run_cluster(base);
  EXPECT_GT(hs.timeouts, 0u);
  EXPECT_GT(hs.observer_forked_blocks, 0u)
      << "the withheld QC must cost the previous block (Fig. 6)";

  base.protocol = "streamlet";
  const RunOutcome sl = run_cluster(base);
  EXPECT_GT(sl.timeouts, 0u);
  EXPECT_EQ(sl.observer_forked_blocks, 0u)
      << "broadcast votes mean no QC can be withheld (Fig. 14: CGR 1)";
}

TEST(SilenceAttack, DegradesThroughputInProportion) {
  core::Config base;
  base.protocol = "hotstuff";
  base.n_replicas = 4;
  base.bsize = 100;
  base.timeout = sim::milliseconds(30);

  base.byz_no = 0;
  const RunOutcome clean = run_cluster(base);
  base.byz_no = 1;
  const RunOutcome attacked = run_cluster(base);

  EXPECT_LT(attacked.client_completed, clean.client_completed);
  EXPECT_GT(attacked.client_completed, 0u);
}

// ---------------------------------------------------------------------------
// Recovery behaviours
// ---------------------------------------------------------------------------

TEST(Recovery, PartitionedReplicaCatchesUpViaBlockSync) {
  core::Config cfg;
  cfg.protocol = "hotstuff";
  cfg.n_replicas = 4;
  cfg.timeout = sim::milliseconds(50);
  harness::Cluster cluster(cfg);

  client::WorkloadConfig wl;
  wl.concurrency = 32;
  client::WorkloadDriver driver(cluster.simulator(), cluster.network(),
                                cluster.config(), wl);
  driver.install();

  // Cut replica 3 off for 300 ms, then heal. Quorum is 3-of-4 so the rest
  // keep committing; replica 3 must chain-sync the blocks it missed.
  auto& simulator = cluster.simulator();
  simulator.schedule_at(sim::from_seconds(0.2), [&cluster] {
    cluster.network().set_partition({0, 0, 0, 1, 0, 0});
  });
  simulator.schedule_at(sim::from_seconds(0.5), [&cluster] {
    cluster.network().set_partition({});
  });

  cluster.start();
  driver.start();
  simulator.run_for(sim::from_seconds(1.5));

  const auto report = cluster.check_consistency();
  EXPECT_TRUE(report.consistent) << report.detail;
  // Heights are unsigned: a replica 3 that ends ahead of the observer has
  // caught up, so its lag is 0, not a wrapped difference.
  const auto r0 = cluster.replica(0).forest().committed_height();
  const auto r3 = cluster.replica(3).forest().committed_height();
  const auto lag = r0 > r3 ? r0 - r3 : 0;
  EXPECT_LT(lag, 10u) << "replica 3 should catch up after healing";
  EXPECT_GT(cluster.replica(3).stats().blocks_committed, 0u);
}

TEST(Recovery, HotStuffSurvivesNetworkFluctuation) {
  core::Config cfg;
  cfg.protocol = "hotstuff";
  cfg.n_replicas = 4;
  cfg.timeout = sim::milliseconds(100);
  cfg.bsize = 100;

  client::WorkloadConfig wl;
  wl.mode = client::LoadMode::kOpenLoop;
  wl.arrival_rate_tps = 5000;

  const auto timeline = harness::execute_full(harness::timeline_spec(
      cfg, wl, /*horizon_s=*/3.0, /*bucket_s=*/0.5,
      /*fluct_start_s=*/0.5, /*fluct_end_s=*/1.5, sim::milliseconds(10),
      sim::milliseconds(100), /*crash_at_s=*/-1, 0));

  EXPECT_TRUE(timeline.result.consistent);
  // Throughput must resume after the fluctuation window ([2.0s, 3.0s)).
  ASSERT_GE(timeline.tx_per_s.size(), 6u);
  EXPECT_GT(timeline.tx_per_s[5], 1000.0);
}

TEST(Consistency, PerHeightHashesAgreeAcrossReplicas) {
  core::Config cfg;
  cfg.protocol = "2chs";
  cfg.n_replicas = 7;
  harness::Cluster cluster(cfg);
  client::WorkloadConfig wl;
  wl.concurrency = 32;
  client::WorkloadDriver driver(cluster.simulator(), cluster.network(),
                                cluster.config(), wl);
  driver.install();
  cluster.start();
  driver.start();
  cluster.simulator().run_for(sim::from_seconds(1.0));

  // Explicit pairwise hash comparison at every committed height (the
  // paper's §III-A consistency check).
  const auto& reference = cluster.replica(0).forest();
  for (types::NodeId id = 1; id < cluster.size(); ++id) {
    const auto& other = cluster.replica(id).forest();
    const auto common =
        std::min(reference.committed_height(), other.committed_height());
    ASSERT_GT(common, 0u);
    for (types::Height h = 0; h <= common; ++h) {
      ASSERT_EQ(reference.committed_hash_at(h), other.committed_hash_at(h))
          << "replica " << id << " height " << h;
    }
  }
}

}  // namespace
}  // namespace bamboo
