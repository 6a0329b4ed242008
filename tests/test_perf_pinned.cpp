// Pinned whole-run captures guarding the perf-engine hot paths (PR 6).
//
// The inline-callback event queue, the SimNetwork envelope pool, the
// broadcast single-sizing and the cached Block::wire_size() are pure
// mechanical optimizations: they must not move a single event, RNG draw or
// byte. These full-precision RunResult captures were recorded on the
// pre-optimization build (std::function callbacks, per-recipient sizing,
// per-message envelope lambdas) and every optimized build must reproduce
// them bit-for-bit — across all three protocols and the WAN + churn
// configurations that exercise delay families, loss, partitions and the
// chain-sync path.
//
// The LAN/default captures for hotstuff and streamlet live in
// test_link_model.cpp (pinned there since PR 3); this file covers the
// remaining protocol × scenario grid.
//
// If a change legitimately alters the schedule (a new RNG draw, a
// different event ordering), re-record with the recipe in
// docs/ARCHITECTURE.md ("Re-recording a pinned capture") and say so
// loudly in CHANGES.md — these literals are the proof that a perf change
// is schedule-preserving.

#include <gtest/gtest.h>

#include <string>

#include "client/workload.h"
#include "harness/experiment.h"

namespace bamboo {
namespace {

/// The compat-spec shape shared with bench_micro's BM_WholeRun cases.
harness::RunSpec base_spec(const std::string& protocol) {
  core::Config cfg;
  cfg.protocol = protocol;
  cfg.n_replicas = 4;
  cfg.bsize = 400;
  cfg.psize = 128;
  cfg.memsize = 200000;
  cfg.seed = 11;
  client::WorkloadConfig wl;
  wl.mode = client::LoadMode::kClosedLoop;
  wl.concurrency = 256;
  harness::RunSpec spec;
  spec.cfg = cfg;
  spec.workload = wl;
  spec.opts.warmup_s = 0.25;
  spec.opts.measure_s = 0.75;
  return spec;
}

/// 6 replicas over a 3-region WAN, lognormal links, 1% ambient loss.
harness::RunSpec wan_spec(const std::string& protocol) {
  harness::RunSpec spec = base_spec(protocol);
  spec.cfg.n_replicas = 6;
  spec.cfg.topology = "wan:3:10";
  spec.cfg.link_model = "lognormal";
  spec.cfg.link_loss = 0.01;
  spec.cfg.timeout = sim::milliseconds(300);
  return spec;
}

/// Full churn grammar in one run: degrade, Gilbert-Elliott bursts, a loss
/// burst, a partition + heal (driving the Syncer), and a fluct window.
harness::RunSpec churn_spec(const std::string& protocol) {
  harness::RunSpec spec = base_spec(protocol);
  spec.cfg.timeout = sim::milliseconds(200);
  spec.cfg.ge_p = 0.01;
  spec.cfg.ge_r = 0.3;
  spec.cfg.ge_loss_bad = 0.5;
  spec.cfg.sync_batch = 4;
  spec.cfg.churn =
      "degrade@0.35s:link=0-1:+5ms;"
      "burst@0.45s:loss=0.3:for=100ms;"
      "partition@0.6s:groups=0-1|2-3;heal@0.7s;"
      "fluct@0.75s:for=100ms:lo=2ms:hi=8ms";
  return spec;
}

TEST(PerfPinned, HotstuffWan) {
  const harness::RunResult r = harness::execute(wan_spec("hotstuff"));
  EXPECT_DOUBLE_EQ(r.throughput_tps, 446.66666666666669);
  EXPECT_DOUBLE_EQ(r.latency_ms_mean, 511.14843873432812);
  EXPECT_DOUBLE_EQ(r.latency_ms_p50, 664.69554500000004);
  EXPECT_DOUBLE_EQ(r.latency_ms_p99, 764.16890190000004);
  EXPECT_DOUBLE_EQ(r.cgr_per_view, 0.90909090909090906);
  EXPECT_DOUBLE_EQ(r.cgr_per_block, 1.1111111111111112);
  EXPECT_DOUBLE_EQ(r.block_interval, 3.3000000000000003);
  EXPECT_EQ(r.latency_samples, 335u);
  EXPECT_EQ(r.views, 11u);
  EXPECT_EQ(r.blocks_committed, 10u);
  EXPECT_EQ(r.blocks_received, 9u);
  EXPECT_EQ(r.blocks_forked, 0u);
  EXPECT_EQ(r.timeouts, 12u);
  EXPECT_EQ(r.rejected, 0u);
  EXPECT_EQ(r.net_bytes, 643540u);
  EXPECT_EQ(r.sync_requests, 1u);
  EXPECT_EQ(r.sync_blocks, 0u);
  EXPECT_EQ(r.sync_bytes, 11371u);
  EXPECT_DOUBLE_EQ(r.recovery_ms, 0);
  EXPECT_EQ(r.certs_verified, 111u);
  EXPECT_EQ(r.certs_rejected, 0u);
  EXPECT_TRUE(r.consistent);
}

TEST(PerfPinned, HotstuffChurn) {
  const harness::RunResult r = harness::execute(churn_spec("hotstuff"));
  EXPECT_DOUBLE_EQ(r.throughput_tps, 1124);
  EXPECT_DOUBLE_EQ(r.latency_ms_mean, 203.90749827402149);
  EXPECT_DOUBLE_EQ(r.latency_ms_p50, 20.494797999999999);
  EXPECT_DOUBLE_EQ(r.latency_ms_p99, 821.66869969999993);
  EXPECT_DOUBLE_EQ(r.cgr_per_view, 0.93333333333333335);
  EXPECT_DOUBLE_EQ(r.cgr_per_block, 0.96551724137931039);
  EXPECT_DOUBLE_EQ(r.block_interval, 3.4999999999999996);
  EXPECT_EQ(r.latency_samples, 843u);
  EXPECT_EQ(r.views, 30u);
  EXPECT_EQ(r.blocks_committed, 28u);
  EXPECT_EQ(r.blocks_received, 29u);
  EXPECT_EQ(r.blocks_forked, 1u);
  EXPECT_EQ(r.timeouts, 12u);
  EXPECT_EQ(r.rejected, 0u);
  EXPECT_EQ(r.net_bytes, 1401875u);
  EXPECT_EQ(r.sync_requests, 10u);
  EXPECT_EQ(r.sync_blocks, 7u);
  EXPECT_EQ(r.sync_bytes, 270849u);
  EXPECT_DOUBLE_EQ(r.recovery_ms, 0);
  EXPECT_EQ(r.certs_verified, 156u);
  EXPECT_EQ(r.certs_rejected, 0u);
  EXPECT_TRUE(r.consistent);
}

TEST(PerfPinned, TwoChainDefault) {
  const harness::RunResult r = harness::execute(base_spec("2chs"));
  EXPECT_DOUBLE_EQ(r.throughput_tps, 26821.333333333332);
  EXPECT_DOUBLE_EQ(r.latency_ms_mean, 9.5321883514614996);
  EXPECT_DOUBLE_EQ(r.latency_ms_p50, 9.3935250000000003);
  EXPECT_DOUBLE_EQ(r.latency_ms_p99, 12.7287341);
  EXPECT_DOUBLE_EQ(r.cgr_per_view, 1);
  EXPECT_DOUBLE_EQ(r.cgr_per_block, 1);
  EXPECT_DOUBLE_EQ(r.block_interval, 2);
  EXPECT_EQ(r.latency_samples, 20116u);
  EXPECT_EQ(r.views, 433u);
  EXPECT_EQ(r.blocks_committed, 433u);
  EXPECT_EQ(r.blocks_received, 433u);
  EXPECT_EQ(r.blocks_forked, 0u);
  EXPECT_EQ(r.timeouts, 0u);
  EXPECT_EQ(r.rejected, 0u);
  EXPECT_EQ(r.net_bytes, 24433414u);
  EXPECT_EQ(r.sync_requests, 0u);
  EXPECT_EQ(r.sync_blocks, 0u);
  EXPECT_EQ(r.sync_bytes, 0u);
  EXPECT_DOUBLE_EQ(r.recovery_ms, 0);
  EXPECT_EQ(r.certs_verified, 1298u);
  EXPECT_EQ(r.certs_rejected, 0u);
  EXPECT_TRUE(r.consistent);
}

TEST(PerfPinned, TwoChainWan) {
  const harness::RunResult r = harness::execute(wan_spec("2chs"));
  EXPECT_DOUBLE_EQ(r.throughput_tps, 3090.6666666666665);
  EXPECT_DOUBLE_EQ(r.latency_ms_mean, 62.075482171699825);
  EXPECT_DOUBLE_EQ(r.latency_ms_p50, 61.871888499999997);
  EXPECT_DOUBLE_EQ(r.latency_ms_p99, 100.00571373999999);
  EXPECT_DOUBLE_EQ(r.cgr_per_view, 1);
  EXPECT_DOUBLE_EQ(r.cgr_per_block, 1);
  EXPECT_DOUBLE_EQ(r.block_interval, 2.0158730158730158);
  EXPECT_EQ(r.latency_samples, 2318u);
  EXPECT_EQ(r.views, 63u);
  EXPECT_EQ(r.blocks_committed, 63u);
  EXPECT_EQ(r.blocks_received, 63u);
  EXPECT_EQ(r.blocks_forked, 0u);
  EXPECT_EQ(r.timeouts, 0u);
  EXPECT_EQ(r.rejected, 0u);
  EXPECT_EQ(r.net_bytes, 4333095u);
  EXPECT_EQ(r.sync_requests, 9u);
  EXPECT_EQ(r.sync_blocks, 7u);
  EXPECT_EQ(r.sync_bytes, 107872u);
  EXPECT_DOUBLE_EQ(r.recovery_ms, 0);
  EXPECT_EQ(r.certs_verified, 321u);
  EXPECT_EQ(r.certs_rejected, 0u);
  EXPECT_TRUE(r.consistent);
}

TEST(PerfPinned, TwoChainChurn) {
  const harness::RunResult r = harness::execute(churn_spec("2chs"));
  EXPECT_DOUBLE_EQ(r.throughput_tps, 330.66666666666669);
  EXPECT_DOUBLE_EQ(r.latency_ms_mean, 424.80088305241918);
  EXPECT_DOUBLE_EQ(r.latency_ms_p50, 416.51151749999997);
  EXPECT_DOUBLE_EQ(r.latency_ms_p99, 838.80428565);
  EXPECT_DOUBLE_EQ(r.cgr_per_view, 0.84615384615384615);
  EXPECT_DOUBLE_EQ(r.cgr_per_block, 1);
  EXPECT_DOUBLE_EQ(r.block_interval, 2.6363636363636362);
  EXPECT_EQ(r.latency_samples, 248u);
  EXPECT_EQ(r.views, 13u);
  EXPECT_EQ(r.blocks_committed, 11u);
  EXPECT_EQ(r.blocks_received, 11u);
  EXPECT_EQ(r.blocks_forked, 0u);
  EXPECT_EQ(r.timeouts, 16u);
  EXPECT_EQ(r.rejected, 0u);
  EXPECT_EQ(r.net_bytes, 417422u);
  EXPECT_EQ(r.sync_requests, 3u);
  EXPECT_EQ(r.sync_blocks, 3u);
  EXPECT_EQ(r.sync_bytes, 69225u);
  EXPECT_DOUBLE_EQ(r.recovery_ms, 77.076384000000047);
  EXPECT_EQ(r.certs_verified, 94u);
  EXPECT_EQ(r.certs_rejected, 0u);
  EXPECT_TRUE(r.consistent);
}

TEST(PerfPinned, StreamletWan) {
  const harness::RunResult r = harness::execute(wan_spec("streamlet"));
  EXPECT_DOUBLE_EQ(r.throughput_tps, 4546.666666666667);
  EXPECT_DOUBLE_EQ(r.latency_ms_mean, 42.359339260997039);
  EXPECT_DOUBLE_EQ(r.latency_ms_p50, 42.314746);
  EXPECT_DOUBLE_EQ(r.latency_ms_p99, 68.42667299);
  EXPECT_DOUBLE_EQ(r.cgr_per_view, 1);
  EXPECT_DOUBLE_EQ(r.cgr_per_block, 1);
  EXPECT_DOUBLE_EQ(r.block_interval, 2);
  EXPECT_EQ(r.latency_samples, 3410u);
  EXPECT_EQ(r.views, 93u);
  EXPECT_EQ(r.blocks_committed, 93u);
  EXPECT_EQ(r.blocks_received, 93u);
  EXPECT_EQ(r.blocks_forked, 0u);
  EXPECT_EQ(r.timeouts, 0u);
  EXPECT_EQ(r.rejected, 0u);
  EXPECT_EQ(r.net_bytes, 39035132u);
  EXPECT_EQ(r.sync_requests, 0u);
  EXPECT_EQ(r.sync_blocks, 0u);
  EXPECT_EQ(r.sync_bytes, 0u);
  EXPECT_DOUBLE_EQ(r.recovery_ms, 0);
  EXPECT_EQ(r.certs_verified, 3236u);
  EXPECT_EQ(r.certs_rejected, 0u);
  EXPECT_TRUE(r.consistent);
}

TEST(PerfPinned, StreamletChurn) {
  const harness::RunResult r = harness::execute(churn_spec("streamlet"));
  EXPECT_DOUBLE_EQ(r.throughput_tps, 2070.6666666666665);
  EXPECT_DOUBLE_EQ(r.latency_ms_mean, 10.49201182678687);
  EXPECT_DOUBLE_EQ(r.latency_ms_p50, 9.8845340000000004);
  EXPECT_DOUBLE_EQ(r.latency_ms_p99, 19.646548920000029);
  EXPECT_DOUBLE_EQ(r.cgr_per_view, 0.99509803921568629);
  EXPECT_DOUBLE_EQ(r.cgr_per_block, 1.004950495049505);
  EXPECT_DOUBLE_EQ(r.block_interval, 2.0197044334975378);
  EXPECT_EQ(r.latency_samples, 1553u);
  EXPECT_EQ(r.views, 204u);
  EXPECT_EQ(r.blocks_committed, 203u);
  EXPECT_EQ(r.blocks_received, 202u);
  EXPECT_EQ(r.blocks_forked, 0u);
  EXPECT_EQ(r.timeouts, 4u);
  EXPECT_EQ(r.rejected, 0u);
  EXPECT_EQ(r.net_bytes, 10166149u);
  EXPECT_EQ(r.sync_requests, 1u);
  EXPECT_EQ(r.sync_blocks, 0u);
  EXPECT_EQ(r.sync_bytes, 0u);
  EXPECT_DOUBLE_EQ(r.recovery_ms, 0);
  EXPECT_EQ(r.certs_verified, 2990u);
  EXPECT_EQ(r.certs_rejected, 0u);
  EXPECT_TRUE(r.consistent);
}

/// events_executed is engine accounting, not a metric: it must be stable
/// across repeated executions of the same spec (determinism) and nonzero.
TEST(PerfPinned, EventsExecutedDeterministic) {
  const harness::RunOutput a = harness::execute_full(base_spec("hotstuff"));
  const harness::RunOutput b = harness::execute_full(base_spec("hotstuff"));
  EXPECT_GT(a.events_executed, 0u);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_TRUE(a.result == b.result);
}

}  // namespace
}  // namespace bamboo
