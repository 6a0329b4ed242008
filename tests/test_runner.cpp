// Tests for the parallel experiment engine: RunSpec/execute determinism,
// ParallelRunner thread-count invariance (a T-thread sweep must be
// bit-identical to the sequential one), multi-seed repetition, and
// cross-process sharding (partition property + shard-merge bit-identity
// with the unsharded grid run).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <thread>
#include <utility>

#include "client/workload.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/runner.h"
#include "util/rng.h"
#include "util/stats.h"

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
  // A malformed value is ignored, not read as its leading digits.
  ::setenv("BAMBOO_THREADS", "5x", 1);
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  EXPECT_EQ(harness::ParallelRunner::resolve_threads(0), hardware);
  ::unsetenv("BAMBOO_THREADS");
  EXPECT_EQ(harness::ParallelRunner::resolve_threads(0), hardware);
}

// ---------------------------------------------------------------------------
// Multi-seed aggregation
// ---------------------------------------------------------------------------

std::vector<harness::RunResult> results_of(const harness::GridRun& run) {
  std::vector<harness::RunResult> results;
  for (const auto& job : run.jobs) results.push_back(job.result);
  return results;
}

/// The aggregate row of a one-spec grid run.
harness::report::Record aggregate_of(const harness::RunSpec& spec,
                                     const harness::GridRun& run) {
  const auto rows = harness::report::grid_rows(
      "test", "runner", {spec}, run, [](std::size_t) { return "s"; });
  EXPECT_TRUE(rows.at(0).aggregate);
  return rows.at(0).aggregate.value_or(harness::report::Record{});
}

TEST(Aggregate, RepeatedRunsProduceStats) {
  harness::ParallelRunner runner(4);
  const auto spec = small_spec(100);
  const auto run = runner.run_repeated_grid({spec}, 4);
  const auto results = results_of(run);
  ASSERT_EQ(results.size(), 4u);
  const auto agg = aggregate_of(spec, run);
  EXPECT_EQ(agg.reps, 4u);
  EXPECT_TRUE(agg.result.consistent);
  EXPECT_EQ(agg.result.safety_violations, 0u);
  // Seeds differ, so throughput varies; the mean sits inside [min, max].
  util::RunningStats thr;
  for (const auto& r : results) thr.add(r.throughput_tps);
  EXPECT_GT(thr.min(), 0.0);
  EXPECT_GE(agg.result.throughput_tps, thr.min());
  EXPECT_LE(agg.result.throughput_tps, thr.max());
  EXPECT_GT(agg.ci.throughput_tps, 0.0);
  // Per-seed results are ordered and reproducible: rep r runs seed 100 + r.
  EXPECT_EQ(results[0], harness::execute(small_spec(100)));
  EXPECT_EQ(results[3], harness::execute(small_spec(103)));
}

TEST(Aggregate, IndependentOfThreadCount) {
  harness::ParallelRunner one(1);
  harness::ParallelRunner four(4);
  const auto spec = small_spec(50);
  const auto a = one.run_repeated_grid({spec}, 3);
  const auto b = four.run_repeated_grid({spec}, 3);
  EXPECT_EQ(results_of(a), results_of(b));
  EXPECT_EQ(harness::report::csv_row(aggregate_of(spec, a)),
            harness::report::csv_row(aggregate_of(spec, b)));
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

TEST(RunRepeatedGrid, UnshardedMatchesOneSpecRunsBitForBit) {
  std::vector<harness::RunSpec> grid = {small_spec(7), small_spec(21)};
  grid[1].cfg.protocol = "2chs";
  harness::ParallelRunner runner(4);
  const auto grid_run = runner.run_repeated_grid(grid, 3);

  ASSERT_EQ(grid_run.jobs.size(), 6u);
  EXPECT_EQ(grid_run.reps, 3u);
  for (std::size_t s = 0; s < grid.size(); ++s) {
    // Spec-major, rep-minor: spec s owns jobs [3s, 3s + 3).
    const auto reference = runner.run_repeated_grid({grid[s]}, 3);
    for (std::uint32_t rep = 0; rep < 3; ++rep) {
      const auto& job = grid_run.jobs[s * 3 + rep];
      EXPECT_EQ(job.spec_index, s);
      EXPECT_EQ(job.rep, rep);
      EXPECT_EQ(job.result, reference.jobs[rep].result);
    }
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

  // Refold each spec's reps in rep order: bit-identical to the aggregate
  // row of the unsharded run under the same seeds.
  const auto unsharded = harness::report::grid_rows(
      "test", "runner", grid, runner.run_repeated_grid(grid, reps),
      [](std::size_t) { return "s"; });
  for (std::uint32_t s = 0; s < grid.size(); ++s) {
    std::vector<harness::RunResult> merged;
    for (std::uint32_t rep = 0; rep < reps; ++rep) {
      merged.push_back(jobs.at({s, rep}));
    }
    ASSERT_TRUE(unsharded[s].aggregate);
    EXPECT_EQ(harness::report::csv_row(harness::report::make_aggregate_record(
                  "test", "runner", "s", s, grid[s], merged)),
              harness::report::csv_row(*unsharded[s].aggregate));
  }
}

TEST(Aggregate, Ci95ShrinksWithMoreRuns) {
  util::RunningStats few;
  util::RunningStats many;
  for (int i = 0; i < 4; ++i) few.add(10.0 + i);
  for (int i = 0; i < 64; ++i) many.add(10.0 + (i % 4));
  EXPECT_GT(few.ci95(), many.ci95());
  EXPECT_EQ(util::RunningStats{}.ci95(), 0.0);
}

}  // namespace
}  // namespace bamboo
