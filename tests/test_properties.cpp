// Property-style sweeps across environment dimensions the other test files
// do not cover: network delay x protocol, election scheme x protocol,
// payload/block-size grids, and pacemaker backoff — always asserting the
// same core invariants (prefix-consistent commits, no duplicate tx
// commits, zero refused commits, progress under synchrony).

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "client/workload.h"
#include "harness/cluster.h"

namespace bamboo {
namespace {

struct Invariants {
  bool consistent = true;
  std::uint64_t violations = 0;
  std::uint64_t duplicate_commits = 0;
  std::uint64_t committed_blocks = 0;
  std::uint64_t completed = 0;
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

Invariants run(core::Config cfg, double sim_s = 0.6,
               std::uint32_t concurrency = 48) {
  harness::Cluster cluster(std::move(cfg));
  DuplicateCommits dups;
  cluster.attach(dups);

  client::WorkloadConfig wl;
  wl.concurrency = concurrency;
  wl.session_timeout = sim::milliseconds(500);
  client::WorkloadDriver driver(cluster.simulator(), cluster.network(),
                                cluster.config(), wl);
  driver.install();
  cluster.start();
  driver.start();
  cluster.simulator().run_for(sim::from_seconds(sim_s));

  Invariants inv;
  inv.consistent = cluster.check_consistency().consistent;
  inv.duplicate_commits = dups.count;
  inv.committed_blocks = cluster.observer().stats().blocks_committed;
  inv.completed = driver.stats().completed;
  for (types::NodeId id = 0; id < cluster.size(); ++id) {
    inv.violations += cluster.replica(id).stats().safety_violations;
  }
  return inv;
}

void expect_safe_and_live(const Invariants& inv) {
  EXPECT_TRUE(inv.consistent);
  EXPECT_EQ(inv.violations, 0u);
  EXPECT_EQ(inv.duplicate_commits, 0u);
  EXPECT_GT(inv.committed_blocks, 10u);
  EXPECT_GT(inv.completed, 50u);
}

// --- protocol x added network delay ----------------------------------------

using DelayParam = std::tuple<std::string, int>;
class DelayGrid : public ::testing::TestWithParam<DelayParam> {};

TEST_P(DelayGrid, SafeAndLiveUnderDelay) {
  const auto& [protocol, delay_ms] = GetParam();
  core::Config cfg;
  cfg.protocol = protocol;
  cfg.bsize = 100;
  cfg.delay = sim::milliseconds(delay_ms);
  cfg.delay_jitter = sim::milliseconds(delay_ms > 0 ? 1 : 0);
  cfg.seed = 101;
  expect_safe_and_live(run(cfg, delay_ms > 0 ? 1.2 : 0.6));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DelayGrid,
    ::testing::Combine(::testing::Values("hotstuff", "2chs", "streamlet",
                                         "fasthotstuff"),
                       ::testing::Values(0, 5, 10)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_d" +
             std::to_string(std::get<1>(info.param));
    });

// --- protocol x election scheme ---------------------------------------------

using ElectionParam = std::tuple<std::string, std::string>;
class ElectionGrid : public ::testing::TestWithParam<ElectionParam> {};

TEST_P(ElectionGrid, SafeAndLiveUnderAnySchedule) {
  const auto& [protocol, election] = GetParam();
  core::Config cfg;
  cfg.protocol = protocol;
  cfg.election = election;
  cfg.bsize = 100;
  cfg.seed = 202;
  const auto inv = run(cfg);
  if (election == "static:1") {
    // Bamboo's mempools are local and a replica only proposes its own
    // clients' transactions when it leads; under a static leader only
    // ~1/N of requests (those routed to the leader) ever complete. Safety
    // and chain progress still hold.
    EXPECT_TRUE(inv.consistent);
    EXPECT_EQ(inv.violations, 0u);
    EXPECT_EQ(inv.duplicate_commits, 0u);
    EXPECT_GT(inv.committed_blocks, 10u);
    EXPECT_GT(inv.completed, 10u);
  } else {
    expect_safe_and_live(inv);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ElectionGrid,
    ::testing::Combine(::testing::Values("hotstuff", "2chs", "streamlet",
                                         "fasthotstuff"),
                       ::testing::Values("roundrobin", "hash", "static:1")),
    [](const auto& info) {
      std::string e = std::get<1>(info.param);
      for (char& c : e) {
        if (c == ':') c = '_';
      }
      return std::get<0>(info.param) + "_" + e;
    });

// --- block size / payload grid (HotStuff) -----------------------------------

using ShapeParam = std::tuple<std::uint32_t, std::uint32_t>;
class ShapeGrid : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(ShapeGrid, SafeAndLiveAcrossBatchShapes) {
  const auto& [bsize, psize] = GetParam();
  core::Config cfg;
  cfg.bsize = bsize;
  cfg.psize = psize;
  cfg.seed = 303;
  expect_safe_and_live(run(cfg));
}

INSTANTIATE_TEST_SUITE_P(Grid, ShapeGrid,
                         ::testing::Combine(::testing::Values(1u, 50u, 800u),
                                            ::testing::Values(0u, 1024u)),
                         [](const auto& info) {
                           return "b" + std::to_string(std::get<0>(info.param)) +
                                  "_p" + std::to_string(std::get<1>(info.param));
                         });

// --- assorted single properties ----------------------------------------------

TEST(Properties, ExponentialBackoffSurvivesCrashStorm) {
  core::Config cfg;
  cfg.protocol = "hotstuff";
  cfg.n_replicas = 7;
  cfg.byz_no = 2;
  cfg.strategy = "crash";
  cfg.timeout = sim::milliseconds(10);
  cfg.timeout_backoff = 1.5;  // exponential pacemaker backoff enabled
  cfg.bsize = 50;
  cfg.seed = 404;
  const auto inv = run(cfg, 1.2);
  EXPECT_TRUE(inv.consistent);
  EXPECT_EQ(inv.violations, 0u);
  EXPECT_GT(inv.committed_blocks, 5u);
}

TEST(Properties, SingleReplicaDegenerateClusterCommits) {
  // n=1: quorum of 1, every view self-certifies. Degenerate but legal.
  core::Config cfg;
  cfg.n_replicas = 1;
  cfg.bsize = 20;
  cfg.seed = 505;
  const auto inv = run(cfg, 0.3, 8);
  EXPECT_TRUE(inv.consistent);
  EXPECT_GT(inv.committed_blocks, 10u);
}

TEST(Properties, MixedAttackersStaySafe) {
  // byz_no replicas all run the configured strategy; combine with a crash
  // by flipping one of them mid-run.
  core::Config cfg;
  cfg.protocol = "2chs";
  cfg.n_replicas = 7;
  cfg.byz_no = 1;
  cfg.strategy = "forking";
  cfg.timeout = sim::milliseconds(30);
  cfg.bsize = 100;
  cfg.seed = 606;

  harness::Cluster cluster(cfg);
  client::WorkloadConfig wl;
  wl.concurrency = 48;
  wl.session_timeout = sim::milliseconds(500);
  client::WorkloadDriver driver(cluster.simulator(), cluster.network(),
                                cluster.config(), wl);
  driver.install();
  cluster.simulator().schedule_at(sim::from_seconds(0.3), [&cluster] {
    cluster.crash_replica(1);  // honest crash on top of the forking byz
  });
  cluster.start();
  driver.start();
  cluster.simulator().run_for(sim::from_seconds(1.0));

  EXPECT_TRUE(cluster.check_consistency().consistent);
  EXPECT_GT(cluster.observer().stats().blocks_committed, 10u);
}

TEST(Properties, ThroughputScalesWithOfferedLoadBelowSaturation) {
  core::Config cfg;
  cfg.bsize = 400;
  cfg.seed = 707;
  const auto low = run(cfg, 0.5, 32);
  const auto high = run(cfg, 0.5, 256);
  EXPECT_GT(high.completed, low.completed * 3);
}

}  // namespace
}  // namespace bamboo
