// Tests for the parallel experiment engine: RunSpec/execute determinism,
// ParallelRunner thread-count invariance (a T-thread sweep must be
// bit-identical to the sequential one), multi-seed aggregation, and
// cross-process sharding (partition property + shard-merge bit-identity
// with single-process run_repeated).

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <stdexcept>
#include <utility>

#include "client/workload.h"
#include "harness/experiment.h"
#include "harness/runner.h"
#include "util/rng.h"

namespace bamboo {
namespace {

harness::RunSpec small_spec(std::uint64_t seed = 7) {
  harness::RunSpec spec;
  spec.cfg.bsize = 50;
  spec.cfg.seed = seed;
  spec.workload.concurrency = 32;
  spec.opts.warmup_s = 0.1;
  spec.opts.measure_s = 0.3;
  return spec;
}

// ---------------------------------------------------------------------------
// execute() determinism
// ---------------------------------------------------------------------------

TEST(Execute, SameSpecSameResultBitForBit) {
  const auto a = harness::execute(small_spec());
  const auto b = harness::execute(small_spec());
  EXPECT_EQ(a, b);
  EXPECT_GT(a.throughput_tps, 0);
  EXPECT_GT(a.net_bytes, 0u);
}

TEST(Execute, DifferentSeedsDiffer) {
  const auto a = harness::execute(small_spec(7));
  const auto b = harness::execute(small_spec(8));
  EXPECT_NE(a, b);
}

// ---------------------------------------------------------------------------
// ParallelRunner
// ---------------------------------------------------------------------------

std::vector<harness::RunSpec> grid_specs() {
  std::vector<harness::RunSpec> specs;
  for (const char* protocol : {"hotstuff", "2chs", "streamlet"}) {
    for (std::uint32_t conc : {8u, 64u}) {
      auto spec = small_spec();
      spec.cfg.protocol = protocol;
      spec.workload.concurrency = conc;
      spec.offered = conc;
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

TEST(ParallelRunner, ThreadCountDoesNotChangeResults) {
  const auto specs = grid_specs();
  harness::ParallelRunner sequential(1);
  harness::ParallelRunner pool4(4);
  harness::ParallelRunner pool7(7);  // more threads than one deal round
  const auto r1 = sequential.run(specs);
  const auto r4 = pool4.run(specs);
  const auto r7 = pool7.run(specs);
  ASSERT_EQ(r1.size(), specs.size());
  EXPECT_EQ(r1, r4);
  EXPECT_EQ(r1, r7);
}

TEST(ParallelRunner, ResultsOrderedBySpecIndex) {
  const auto specs = grid_specs();
  harness::ParallelRunner runner(4);
  const auto results = runner.run(specs);
  std::vector<harness::RunResult> reference;
  reference.reserve(specs.size());
  for (const auto& spec : specs) reference.push_back(harness::execute(spec));
  EXPECT_EQ(results, reference);
}

TEST(ParallelRunner, PropagatesRunExceptions) {
  auto spec = small_spec();
  spec.cfg.protocol = "no-such-protocol";
  harness::ParallelRunner runner(2);
  EXPECT_THROW(runner.run({spec, small_spec()}), std::invalid_argument);
}

TEST(ParallelRunner, EmptySpecListIsFine) {
  harness::ParallelRunner runner(4);
  EXPECT_TRUE(runner.run({}).empty());
}

TEST(ParallelRunner, ResolveThreadsPrecedence) {
  EXPECT_EQ(harness::ParallelRunner::resolve_threads(3), 3u);
  ::setenv("BAMBOO_THREADS", "5", 1);
  EXPECT_EQ(harness::ParallelRunner::resolve_threads(0), 5u);
  EXPECT_EQ(harness::ParallelRunner::resolve_threads(2), 2u);
  ::unsetenv("BAMBOO_THREADS");
  EXPECT_GE(harness::ParallelRunner::resolve_threads(0), 1u);
}

// ---------------------------------------------------------------------------
// Multi-seed aggregation
// ---------------------------------------------------------------------------

TEST(Aggregate, RepeatedRunsProduceStats) {
  harness::ParallelRunner runner(4);
  const auto agg = runner.run_repeated(small_spec(), 4, /*base_seed=*/100);
  EXPECT_EQ(agg.runs, 4u);
  ASSERT_EQ(agg.results.size(), 4u);
  EXPECT_TRUE(agg.all_consistent);
  EXPECT_EQ(agg.safety_violations, 0u);
  // Seeds differ, so throughput varies; the mean sits inside [min, max].
  EXPECT_GT(agg.throughput_tps.stats.min(), 0.0);
  EXPECT_GE(agg.throughput_tps.mean(), agg.throughput_tps.stats.min());
  EXPECT_LE(agg.throughput_tps.mean(), agg.throughput_tps.stats.max());
  EXPECT_GT(agg.throughput_tps.ci95(), 0.0);
  // Per-seed results are ordered and reproducible.
  EXPECT_EQ(agg.results[0], harness::execute(small_spec(100)));
  EXPECT_EQ(agg.results[3], harness::execute(small_spec(103)));
}

TEST(Aggregate, IndependentOfThreadCount) {
  harness::ParallelRunner one(1);
  harness::ParallelRunner four(4);
  const auto a = one.run_repeated(small_spec(), 3, 50);
  const auto b = four.run_repeated(small_spec(), 3, 50);
  EXPECT_EQ(a.results, b.results);
  EXPECT_DOUBLE_EQ(a.throughput_tps.mean(), b.throughput_tps.mean());
  EXPECT_DOUBLE_EQ(a.latency_ms_mean.ci95(), b.latency_ms_mean.ci95());
}

// ---------------------------------------------------------------------------
// Sharding
// ---------------------------------------------------------------------------

TEST(Shard, ParseAcceptsOneBasedIOverN) {
  const auto s = harness::Shard::parse("2/3");
  EXPECT_EQ(s.index, 1u);
  EXPECT_EQ(s.count, 3u);
  EXPECT_TRUE(s.enabled());
  EXPECT_EQ(s.label(), "shard2of3");
  const auto whole = harness::Shard::parse("1/1");
  EXPECT_FALSE(whole.enabled());
  EXPECT_EQ(whole.label(), "");
}

TEST(Shard, ParseRejectsMalformedInput) {
  EXPECT_THROW(harness::Shard::parse("3"), std::invalid_argument);
  EXPECT_THROW(harness::Shard::parse("0/3"), std::invalid_argument);
  EXPECT_THROW(harness::Shard::parse("4/3"), std::invalid_argument);
  EXPECT_THROW(harness::Shard::parse("1/0"), std::invalid_argument);
  EXPECT_THROW(harness::Shard::parse("a/b"), std::invalid_argument);
  EXPECT_THROW(harness::Shard::parse("1/"), std::invalid_argument);
  EXPECT_THROW(harness::Shard::parse("/3"), std::invalid_argument);
  EXPECT_THROW(harness::Shard::parse("1x/3"), std::invalid_argument);
}

TEST(Shard, PartitionCoversEveryJobExactlyOnce) {
  // Property: for random grid sizes and every n in 1..8, the union of the
  // n shard slices is the full flattened job list with no overlap.
  util::Rng rng(2024);
  for (int trial = 0; trial < 25; ++trial) {
    const auto jobs = static_cast<std::size_t>(rng.uniform_int(1, 200));
    for (std::uint32_t n = 1; n <= 8; ++n) {
      std::vector<int> owners(jobs, 0);
      for (std::uint32_t i = 0; i < n; ++i) {
        const harness::Shard shard{i, n};
        for (std::size_t j = 0; j < jobs; ++j) {
          if (shard.owns(j)) ++owners[j];
        }
      }
      for (std::size_t j = 0; j < jobs; ++j) {
        ASSERT_EQ(owners[j], 1)
            << "job " << j << " of " << jobs << " with n=" << n;
      }
    }
  }
}

TEST(RunRepeatedGrid, UnshardedMatchesRunRepeatedBitForBit) {
  std::vector<harness::RunSpec> grid = {small_spec(7), small_spec(21)};
  grid[1].cfg.protocol = "2chs";
  harness::ParallelRunner runner(4);
  const auto grid_run = runner.run_repeated_grid(grid, 3);

  ASSERT_EQ(grid_run.jobs.size(), 6u);
  ASSERT_EQ(grid_run.aggregates.size(), 2u);
  for (std::size_t s = 0; s < grid.size(); ++s) {
    ASSERT_TRUE(grid_run.aggregates[s]);
    const auto reference = runner.run_repeated(grid[s], 3);
    EXPECT_EQ(grid_run.aggregates[s]->results, reference.results);
    EXPECT_EQ(grid_run.aggregates[s]->throughput_tps.mean(),
              reference.throughput_tps.mean());
    EXPECT_EQ(grid_run.aggregates[s]->latency_ms_mean.ci95(),
              reference.latency_ms_mean.ci95());
  }
}

TEST(RunRepeatedGrid, ShardUnionIsTheFullGridAndMergesBitForBit) {
  std::vector<harness::RunSpec> grid = {small_spec(7), small_spec(21),
                                        small_spec(35)};
  grid[1].workload.concurrency = 16;
  const std::uint32_t reps = 2;
  harness::ParallelRunner runner(2);

  // Union this shard count's slices: every (spec, rep) exactly once.
  const std::uint32_t n = 3;
  std::map<std::pair<std::uint32_t, std::uint32_t>, harness::RunResult> jobs;
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto shard_run =
        runner.run_repeated_grid(grid, reps, harness::Shard{i, n});
    for (const auto& job : shard_run.jobs) {
      const auto key = std::make_pair(job.spec_index, job.rep);
      ASSERT_EQ(jobs.count(key), 0u) << "overlapping shards";
      jobs.emplace(key, job.result);
    }
  }
  ASSERT_EQ(jobs.size(), grid.size() * reps);

  // Refold each spec's reps in rep order: bit-identical to the
  // single-process run_repeated under the same seeds.
  for (std::uint32_t s = 0; s < grid.size(); ++s) {
    harness::Aggregate merged;
    for (std::uint32_t rep = 0; rep < reps; ++rep) {
      merged.add(jobs.at({s, rep}));
      merged.results.push_back(jobs.at({s, rep}));
    }
    const auto reference = runner.run_repeated(grid[s], reps);
    EXPECT_EQ(merged.results, reference.results);
    EXPECT_EQ(merged.throughput_tps.mean(), reference.throughput_tps.mean());
    EXPECT_EQ(merged.throughput_tps.ci95(), reference.throughput_tps.ci95());
    EXPECT_EQ(merged.latency_ms_p99.mean(), reference.latency_ms_p99.mean());
    EXPECT_EQ(merged.block_interval.ci95(), reference.block_interval.ci95());
  }
}

TEST(Aggregate, Ci95ShrinksWithMoreRuns) {
  util::RunningStats wide;
  harness::MetricSummary few;
  harness::MetricSummary many;
  for (int i = 0; i < 4; ++i) few.stats.add(10.0 + i);
  for (int i = 0; i < 64; ++i) many.stats.add(10.0 + (i % 4));
  EXPECT_GT(few.ci95(), many.ci95());
  EXPECT_EQ(harness::MetricSummary{}.ci95(), 0.0);
}

}  // namespace
}  // namespace bamboo
