// Liveness regression suite (PR 9): commits must RESUME after the two
// canonical recovery scenarios — a partition that heals, and a fail-stop
// leader crash the quorum survives — for every registered protocol
// family, including the multi-leader FnF-BFT.
//
// The resume tests place the whole disturbance inside the warm-up window
// and measure strictly after it: any protocol whose pacemaker, sync path
// or (for FnF-BFT) slot-repair pipeline fails to restart the chain shows
// up as a zero-commit measurement window.
//
// The Pinned suite captures one full recovery trajectory per protocol on
// a fixed seed, byte-stable across runs and thread counts (the same
// discipline as test_perf_pinned.cpp): a behavior change in the pacemaker
// slot timers, the stuck-slot probe, the churn engine or the sync path
// moves these counters and must be re-recorded DELIBERATELY (the recipe
// in docs/ARCHITECTURE.md, "Re-recording a pinned capture") with the diff
// recorded in CHANGES.md.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "client/workload.h"
#include "harness/cluster.h"
#include "harness/experiment.h"
#include "model/perf_model.h"
#include "util/json.h"

namespace bamboo {
namespace {

struct Proto {
  const char* protocol;
  const char* election;
};

const Proto kProtocols[] = {
    {"hotstuff", "roundrobin"},     {"2chs", "roundrobin"},
    {"streamlet", "roundrobin"},    {"fasthotstuff", "roundrobin"},
    {"fnfbft", "multi:2"},
};

harness::RunSpec recovery_spec(const Proto& p, const std::string& churn) {
  harness::RunSpec spec;
  spec.cfg.protocol = p.protocol;
  spec.cfg.election = p.election;
  spec.cfg.n_replicas = 4;
  spec.cfg.seed = 7;
  spec.cfg.churn = churn;
  spec.workload.concurrency = 32;
  spec.opts.warmup_s = 0.4;
  spec.opts.measure_s = 0.6;
  return spec;
}

// --- commits resume after the disturbance ---------------------------------

TEST(LivenessResume, AfterPartitionHeals) {
  // 2-2 split: neither side holds a quorum of 3, so the chain stalls until
  // the heal at 0.3 s; the measurement window [0.4, 1.0] is entirely
  // post-heal.
  for (const Proto& p : kProtocols) {
    const auto r = harness::execute(
        recovery_spec(p, "partition@0.1s:groups=0-1|2-3;heal@0.3s"));
    EXPECT_TRUE(r.consistent) << p.protocol;
    EXPECT_EQ(r.safety_violations, 0u) << p.protocol;
    EXPECT_GT(r.blocks_committed, 0u)
        << p.protocol << ": no commits after the partition healed";
  }
}

TEST(LivenessResume, AfterLeaderCrash) {
  // Replica 1 leads views (and, for FnF-BFT, slots) on rotation; its
  // fail-stop leaves a 3-of-4 quorum that must keep committing through
  // the dead leader's turns (timeout/TC or slot repair, per protocol).
  for (const Proto& p : kProtocols) {
    const auto r =
        harness::execute(recovery_spec(p, "crash@0.2s:replica=1"));
    EXPECT_TRUE(r.consistent) << p.protocol;
    EXPECT_EQ(r.safety_violations, 0u) << p.protocol;
    EXPECT_GT(r.blocks_committed, 0u)
        << p.protocol << ": no commits after the leader crash";
  }
}

TEST(LivenessResume, PipelinedSyncRecoversAfterItsFetchesExpire) {
  // The repository benchmark's fault workload (2CHS, n=7, file stores,
  // sync batch 8, pipeline 4, snapshots from a gap of 8, 100 ms sync
  // timeout, open-loop load at 35% of the model's saturation) on the
  // cluster seed of its seed 18, cut down to the four churn events that
  // together wedged replica 5. During the last loss burst (14-14.8 s) two
  // of its fetches ran out of retries; every later trigger named a block
  // already in its orphan buffer, and such a trigger used to start no
  // fetch, so replica 5 stayed at height 4,807 for the rest of the run.
  // 0.7 s after the burst it must be back at the cluster's height.
  const core::Config cfg = core::Config::from_json(util::Json::parse(R"({
      "protocol": "2chs", "n": 7, "bsize": 400, "psize": 128,
      "rtt_ms": 1, "rtt_stddev_ms": 0.1, "memsize": 2000,
      "admission": "drop", "store": "file", "retention": 64,
      "sync_batch": 8, "sync_pipeline": 4, "snapshot_gap": 8,
      "sync_timeout_ms": 100, "seed": 602628908198590,
      "churn": "partition@2s:groups=0-1-2-4-5-6|3;heal@3s;burst@6s:replica=1:loss=0.9:for=0.8s;crash-restart@10s:replica=2:for=0.8s;burst@14s:replica=5:loss=0.9:for=0.8s"})"));
  client::WorkloadConfig wl;
  wl.mode = client::LoadMode::kOpenLoop;
  wl.arrival_rate_tps = 0.35 * model::PerfModel(cfg).saturation_tps();
  wl.client_population = 1'000'000;
  wl.payload_size = cfg.psize;

  harness::RecoveryProbe probe;  // outlives the cluster's recovery observer
  harness::Cluster cluster(cfg);
  client::WorkloadDriver driver(cluster.simulator(), cluster.network(),
                                cluster.config(), wl);
  driver.install();
  harness::install_churn(cluster, harness::effective_churn({}, cfg), &probe);
  cluster.start();
  driver.start();
  cluster.simulator().run_for(sim::from_seconds(1));
  driver.begin_measurement();
  cluster.simulator().run_for(sim::from_seconds(14.5));

  types::Height highest = 0;
  for (types::NodeId id = 0; id < cfg.n_replicas; ++id) {
    highest =
        std::max(highest, cluster.replica(id).forest().committed_height());
  }
  const types::Height lagging = cluster.replica(5).forest().committed_height();
  EXPECT_GE(lagging + 2, highest)
      << "replica 5 at " << lagging << ", the cluster at " << highest;
  EXPECT_TRUE(cluster.check_consistency().consistent);
}

// --- pinned recovery trajectories, one per protocol -----------------------

harness::RunResult pinned_run(const Proto& p) {
  return harness::execute(
      recovery_spec(p, "partition@0.1s:groups=0-1|2-3;heal@0.3s"));
}

TEST(LivenessPinned, Hotstuff) {
  const auto r = pinned_run(kProtocols[0]);
  EXPECT_EQ(r.views, 442u);
  EXPECT_EQ(r.blocks_committed, 441u);
  EXPECT_EQ(r.timeouts, 3u);
  EXPECT_EQ(r.latency_samples, 2046u);
  EXPECT_EQ(r.net_bytes, 2151545u);
  EXPECT_EQ(r.certs_verified, 1339u);
  EXPECT_EQ(r.certs_rejected, 0u);
  EXPECT_NEAR(r.recovery_ms, 1.3447890000000129, 1e-9);
  EXPECT_TRUE(r.consistent);
}

TEST(LivenessPinned, TwoChainHotstuff) {
  const auto r = pinned_run(kProtocols[1]);
  EXPECT_EQ(r.views, 439u);
  EXPECT_EQ(r.blocks_committed, 439u);
  EXPECT_EQ(r.timeouts, 0u);
  EXPECT_EQ(r.latency_samples, 2467u);
  EXPECT_EQ(r.net_bytes, 2419386u);
  EXPECT_EQ(r.certs_verified, 1317u);
  EXPECT_EQ(r.certs_rejected, 0u);
  EXPECT_NEAR(r.recovery_ms, 0.7721470000000008, 1e-9);
  EXPECT_TRUE(r.consistent);
}

TEST(LivenessPinned, Streamlet) {
  const auto r = pinned_run(kProtocols[2]);
  EXPECT_EQ(r.views, 287u);
  EXPECT_EQ(r.blocks_committed, 287u);
  EXPECT_EQ(r.timeouts, 0u);
  EXPECT_EQ(r.latency_samples, 2040u);
  EXPECT_EQ(r.net_bytes, 9296619u);
  EXPECT_EQ(r.certs_verified, 4305u);
  EXPECT_EQ(r.certs_rejected, 0u);
  EXPECT_NEAR(r.recovery_ms, 2.0429740000000307, 1e-9);
  EXPECT_TRUE(r.consistent);
}

TEST(LivenessPinned, FastHotstuff) {
  const auto r = pinned_run(kProtocols[3]);
  EXPECT_EQ(r.views, 439u);
  EXPECT_EQ(r.blocks_committed, 439u);
  EXPECT_EQ(r.timeouts, 0u);
  EXPECT_EQ(r.latency_samples, 2467u);
  EXPECT_EQ(r.net_bytes, 2419386u);
  EXPECT_EQ(r.certs_verified, 1317u);
  EXPECT_EQ(r.certs_rejected, 0u);
  EXPECT_NEAR(r.recovery_ms, 0.7721470000000008, 1e-9);
  EXPECT_TRUE(r.consistent);
}

TEST(LivenessPinned, FnfBft) {
  const auto r = pinned_run(kProtocols[4]);
  // Two slots per view: committed blocks run ahead of views — the
  // multi-leader capture also pins the slot pipeline's shape.
  EXPECT_EQ(r.views, 259u);
  EXPECT_EQ(r.blocks_committed, 518u);
  EXPECT_EQ(r.timeouts, 0u);
  EXPECT_EQ(r.latency_samples, 956u);
  EXPECT_EQ(r.net_bytes, 1980374u);
  EXPECT_EQ(r.certs_verified, 3105u);
  EXPECT_EQ(r.certs_rejected, 0u);
  EXPECT_DOUBLE_EQ(r.recovery_ms, 0.0);
  EXPECT_TRUE(r.consistent);
}

}  // namespace
}  // namespace bamboo
