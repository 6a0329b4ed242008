// Tests for the harness layer: workload driver semantics (closed/open
// loop, retries, watchdogs, measurement windows), cluster construction,
// experiment metrics, and the table printer.

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "client/workload.h"
#include "harness/cluster.h"
#include "harness/experiment.h"
#include "harness/table.h"

namespace bamboo {
namespace {

// ---------------------------------------------------------------------------
// TextTable
// ---------------------------------------------------------------------------

TEST(TextTable, AlignsColumns) {
  harness::TextTable table({"a", "long-header"});
  table.add_row({"wide-cell", "x"});
  std::ostringstream out;
  table.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("long-header"), std::string::npos);
  EXPECT_NE(text.find("wide-cell"), std::string::npos);
  // Three lines: header, rule, row.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
}

TEST(TextTable, NumberFormatting) {
  EXPECT_EQ(harness::TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(harness::TextTable::num(5, 0), "5");
  EXPECT_EQ(harness::TextTable::count(0), "0");
  EXPECT_EQ(harness::TextTable::count(999), "999");
  EXPECT_EQ(harness::TextTable::count(1000), "1,000");
  EXPECT_EQ(harness::TextTable::count(20096), "20,096");
  EXPECT_EQ(harness::TextTable::count(131275), "131,275");
  EXPECT_EQ(harness::TextTable::count(1234567890), "1,234,567,890");
}

// ---------------------------------------------------------------------------
// Cluster
// ---------------------------------------------------------------------------

TEST(Cluster, BuildsConfiguredTopology) {
  core::Config cfg;
  cfg.n_replicas = 7;
  cfg.protocol = "2chs";
  cfg.byz_no = 2;
  cfg.strategy = "forking";
  harness::Cluster cluster(cfg);
  cluster.start();
  EXPECT_EQ(cluster.size(), 7u);
  EXPECT_EQ(cluster.network().num_endpoints(), 7u + cfg.n_client_hosts);
  // Byzantine strategies applied to the top ids only.
  EXPECT_FALSE(cluster.replica(0).is_byzantine());
  EXPECT_FALSE(cluster.replica(4).is_byzantine());
  EXPECT_TRUE(cluster.replica(5).is_byzantine());
  EXPECT_TRUE(cluster.replica(6).is_byzantine());
  EXPECT_EQ(cluster.replica(3).safety().name(), "2chs");
}

TEST(Cluster, OhsProfileLowersIngestCost) {
  core::Config cfg;
  cfg.protocol = "ohs";
  harness::Cluster cluster(cfg);
  EXPECT_LT(cluster.config().cpu_ingest_per_tx, sim::microseconds(18));
  cluster.start();
  EXPECT_EQ(cluster.replica(0).safety().name(), "hotstuff");
}

TEST(Cluster, ConsistencyReportDetailsHeights) {
  core::Config cfg;
  harness::Cluster cluster(cfg);
  client::WorkloadConfig wl;
  wl.concurrency = 16;
  client::WorkloadDriver driver(cluster.simulator(), cluster.network(),
                                cluster.config(), wl);
  driver.install();
  cluster.start();
  driver.start();
  cluster.simulator().run_for(sim::from_seconds(0.3));
  const auto report = cluster.check_consistency();
  EXPECT_TRUE(report.consistent);
  EXPECT_GT(report.max_committed_height, 0u);
  EXPECT_LE(report.min_committed_height, report.max_committed_height);
}

TEST(Cluster, SameSeedIsBitForBitReproducible) {
  auto run = [](std::uint64_t seed) {
    core::Config cfg;
    cfg.seed = seed;
    cfg.bsize = 50;
    harness::Cluster cluster(cfg);
    client::WorkloadConfig wl;
    wl.concurrency = 32;
    client::WorkloadDriver driver(cluster.simulator(), cluster.network(),
                                  cluster.config(), wl);
    driver.install();
    cluster.start();
    driver.start();
    cluster.simulator().run_for(sim::from_seconds(0.4));
    return std::tuple{cluster.observer().stats().blocks_committed,
                      cluster.observer().current_view(),
                      driver.stats().completed,
                      cluster.network().bytes_sent()};
  };
  EXPECT_EQ(run(111), run(111));
  EXPECT_NE(run(111), run(222));
}

// ---------------------------------------------------------------------------
// Workload driver
// ---------------------------------------------------------------------------

TEST(Workload, ClosedLoopBoundsOutstandingRequests) {
  core::Config cfg;
  cfg.bsize = 50;
  harness::Cluster cluster(cfg);
  client::WorkloadConfig wl;
  wl.concurrency = 8;
  client::WorkloadDriver driver(cluster.simulator(), cluster.network(),
                                cluster.config(), wl);
  driver.install();
  cluster.start();
  driver.start();
  cluster.simulator().run_for(sim::from_seconds(0.3));
  // Issued is always completed + in-flight (<= concurrency).
  EXPECT_LE(driver.stats().issued,
            driver.stats().completed + driver.stats().rejected + 8);
  EXPECT_GT(driver.stats().completed, 0u);
}

TEST(Workload, OpenLoopApproximatesPoissonRate) {
  core::Config cfg;
  cfg.bsize = 400;
  harness::Cluster cluster(cfg);
  client::WorkloadConfig wl;
  wl.mode = client::LoadMode::kOpenLoop;
  wl.arrival_rate_tps = 5000;
  client::WorkloadDriver driver(cluster.simulator(), cluster.network(),
                                cluster.config(), wl);
  driver.install();
  cluster.start();
  driver.start();
  cluster.simulator().run_for(sim::from_seconds(1.0));
  EXPECT_NEAR(static_cast<double>(driver.stats().issued), 5000.0, 300.0);
}

TEST(Workload, MeasurementWindowExcludesWarmup) {
  core::Config cfg;
  cfg.bsize = 50;
  harness::Cluster cluster(cfg);
  client::WorkloadConfig wl;
  wl.concurrency = 16;
  client::WorkloadDriver driver(cluster.simulator(), cluster.network(),
                                cluster.config(), wl);
  driver.install();
  cluster.start();
  driver.start();
  cluster.simulator().run_for(sim::from_seconds(0.2));
  const auto warmup_completed = driver.stats().completed;
  EXPECT_GT(warmup_completed, 0u);
  EXPECT_EQ(driver.measured_completed(), 0u);  // not measuring yet

  driver.begin_measurement();
  cluster.simulator().run_for(sim::from_seconds(0.2));
  driver.end_measurement();
  EXPECT_GT(driver.measured_completed(), 0u);
  EXPECT_LT(driver.measured_completed(), driver.stats().completed);
  EXPECT_NEAR(driver.measured_seconds(), 0.2, 1e-9);
  EXPECT_EQ(driver.latencies_ms().count(), driver.measured_completed());
}

TEST(Workload, WatchdogAbandonsStuckSessions) {
  core::Config cfg;
  cfg.bsize = 50;
  cfg.byz_no = 2;       // f+1 crashes: the cluster can never commit
  cfg.strategy = "crash";
  cfg.timeout = sim::milliseconds(20);
  harness::Cluster cluster(cfg);
  client::WorkloadConfig wl;
  wl.concurrency = 4;
  wl.session_timeout = sim::milliseconds(100);
  client::WorkloadDriver driver(cluster.simulator(), cluster.network(),
                                cluster.config(), wl);
  driver.install();
  cluster.start();
  driver.start();
  cluster.simulator().run_for(sim::from_seconds(1.0));
  // Nothing commits, so every re-issue comes from the watchdog.
  EXPECT_EQ(driver.stats().completed, 0u);
  EXPECT_GT(driver.stats().abandoned, 20u);
  EXPECT_GT(driver.stats().issued, driver.stats().abandoned);
}

// ---------------------------------------------------------------------------
// execute() metrics
// ---------------------------------------------------------------------------

TEST(Experiment, MetricsAreInternallyConsistent) {
  harness::RunSpec spec;
  spec.cfg.bsize = 100;
  spec.workload.concurrency = 64;
  spec.opts = {0.2, 0.6};
  const auto r = harness::execute(spec);
  EXPECT_NEAR(r.measured_s, 0.6, 1e-9);
  EXPECT_GT(r.throughput_tps, 0);
  EXPECT_GT(r.latency_samples, 0u);
  EXPECT_GE(r.latency_ms_p99, r.latency_ms_p50);
  EXPECT_GT(r.views, 0u);
  EXPECT_GT(r.blocks_committed, 0u);
  EXPECT_LE(r.cgr_per_view, 1.001);
  EXPECT_LE(r.cgr_per_block, 1.001);
  EXPECT_NEAR(r.block_interval, 3.0, 0.2);  // HotStuff happy path
  EXPECT_TRUE(r.consistent);
  EXPECT_EQ(r.safety_violations, 0u);
}

TEST(Experiment, SweepsReturnOnePointPerLevel) {
  core::Config cfg;
  cfg.bsize = 50;
  client::WorkloadConfig wl;
  const auto closed_specs =
      harness::closed_loop_specs(cfg, wl, {8, 32}, {0.1, 0.3});
  ASSERT_EQ(closed_specs.size(), 2u);
  EXPECT_DOUBLE_EQ(closed_specs[0].offered, 8);
  EXPECT_DOUBLE_EQ(closed_specs[1].offered, 32);
  // More clients => at least as much throughput below saturation.
  EXPECT_GE(harness::execute(closed_specs[1]).throughput_tps,
            harness::execute(closed_specs[0]).throughput_tps * 0.9);

  const auto open_specs =
      harness::open_loop_specs(cfg, wl, {500.0, 2000.0}, {0.1, 0.3});
  ASSERT_EQ(open_specs.size(), 2u);
  EXPECT_DOUBLE_EQ(open_specs[1].offered, 2000.0);
  EXPECT_GT(harness::execute(open_specs[1]).throughput_tps,
            harness::execute(open_specs[0]).throughput_tps);
}

TEST(Experiment, TimelineBucketsCoverHorizon) {
  core::Config cfg;
  cfg.bsize = 100;
  client::WorkloadConfig wl;
  wl.mode = client::LoadMode::kOpenLoop;
  wl.arrival_rate_tps = 2000;
  const auto t = harness::execute_full(
      harness::timeline_spec(cfg, wl, /*horizon_s=*/1.0, /*bucket_s=*/0.25));
  ASSERT_EQ(t.tx_per_s.size(), 4u);
  ASSERT_EQ(t.bucket_start_s.size(), 4u);
  EXPECT_DOUBLE_EQ(t.bucket_start_s[3], 0.75);
  // Steady state: every bucket near the offered rate.
  for (std::size_t i = 1; i < t.tx_per_s.size(); ++i) {
    EXPECT_NEAR(t.tx_per_s[i], 2000.0, 600.0) << "bucket " << i;
  }
  EXPECT_TRUE(t.result.consistent);
}

// ---------------------------------------------------------------------------
// Window counters: every one is a delta of a total that never decreases
// ---------------------------------------------------------------------------

/// A static-leader cluster whose replica 3 is partitioned away (and times
/// out) in [0.1 s, 0.9 s), then loses its place in the honest set at
/// 1.2 s through `fault`; the window [1 s, 2 s) straddles the fault.
harness::RunSpec lone_timeout_spec(const std::string& fault) {
  harness::RunSpec spec;
  spec.cfg.protocol = "hotstuff";
  spec.cfg.election = "static:0";
  spec.cfg.timeout = sim::milliseconds(50);
  spec.cfg.churn = "partition@0.1s:groups=3|0-1-2;heal@0.9s;" + fault;
  spec.opts = {1.0, 1.0};
  return spec;
}

TEST(WindowCounters, TimeoutsSurviveCrashSilenceAndRestart) {
  for (const std::string fault :
       {"crash@1.2s:replica=3", "crash-restart@1.2s:replica=3:for=0.01s",
        "silence@1.2s:replica=3"}) {
    const harness::RunResult r = harness::execute(lone_timeout_spec(fault));
    // Replica 3 timed out before the window only; its count must neither
    // vanish from the total (the delta would wrap) nor land in the window.
    EXPECT_EQ(r.timeouts, 0u) << fault;
    EXPECT_GT(r.blocks_committed, 0u) << fault;
  }
}

TEST(WindowCounters, TotalTimeoutsNeverDecrease) {
  for (const std::string fault :
       {"crash@1.2s:replica=3", "crash-restart@1.2s:replica=3:for=0.01s",
        "silence@1.2s:replica=3"}) {
    const harness::RunSpec spec = lone_timeout_spec(fault);
    harness::Cluster cluster(spec.cfg);
    harness::install_churn(cluster,
                           harness::effective_churn(spec.faults, spec.cfg));
    cluster.start();
    std::uint64_t last = 0;
    for (int step = 0; step < 40; ++step) {
      cluster.simulator().run_for(sim::milliseconds(50));
      const std::uint64_t now = cluster.total_timeouts();
      EXPECT_GE(now, last) << fault << " at step " << step;
      last = now;
    }
    EXPECT_GT(last, 0u) << fault;
  }
}

TEST(WindowCounters, ClientRejectionsCountOnlyInsideTheWindow) {
  harness::RunSpec spec;
  spec.cfg.memsize = 2000;
  spec.workload.mode = client::LoadMode::kOpenLoop;
  spec.workload.arrival_rate_tps = 200000;
  spec.opts = {1.0, 0.5};
  const harness::RunResult r = harness::execute(spec);
  // Overload: the mempool refuses a large share of the window's load. A
  // whole-run count would also include every warm-up rejection and
  // exceed what the clients issued inside the window.
  const double issued = r.offered_tps * r.measured_s;
  EXPECT_GT(r.mem_rejected, 0u);
  EXPECT_GT(r.rejected, 0u);
  EXPECT_LT(static_cast<double>(r.rejected), issued);
}

TEST(WindowCounters, CrashRestartOfTheObserverIsRefused) {
  harness::RunSpec spec;
  spec.cfg.churn = "crash-restart@1.2s:replica=0:for=0.05s";
  spec.opts = {1.0, 1.0};
  try {
    (void)harness::execute(spec);
    ADD_FAILURE() << "crash-restart of replica 0 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("metrics observer"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace bamboo
