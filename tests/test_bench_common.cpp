// Tests for the shared bench plumbing (bench/bench_common.h): the aggregate
// row a bench prints from is, by report::csv_row, the aggregate row it
// persists under --out, unsharded and sharded; a shard returns no rows for
// the specs another shard owns.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "../bench/bench_common.h"

namespace bamboo {
namespace {

namespace fs = std::filesystem;
using harness::report::Record;
using harness::report::SpecRows;

std::vector<harness::RunSpec> tiny_grid() {
  std::vector<harness::RunSpec> grid;
  for (const char* protocol : {"hotstuff", "2chs", "streamlet"}) {
    harness::RunSpec spec;
    spec.cfg.protocol = protocol;
    spec.cfg.bsize = 50;
    spec.cfg.seed = 11;
    spec.workload.concurrency = 32;
    spec.opts.warmup_s = 0.1;
    spec.opts.measure_s = 0.3;
    spec.offered = 32;
    grid.push_back(std::move(spec));
  }
  return grid;
}

struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag) {
    path = fs::temp_directory_path() /
           ("bamboo_bench_common_test_" + std::to_string(::getpid()) + "_" +
            tag);
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream body;
  body << in.rdbuf();
  return body.str();
}

/// Run the grid through a Reporter persisting to `dir`; returns the rows
/// the bench would print from.
std::vector<SpecRows> report_grid(const fs::path& dir, std::uint32_t reps,
                                  harness::Shard shard) {
  bench::Args args;
  args.threads = 2;
  args.reps = reps;
  args.out = dir.string();
  args.shard = shard;
  bench::Reporter reporter(args, "tiny");
  auto rows = reporter.run("tiny", tiny_grid(),
                           [](std::size_t s) { return std::to_string(s); });
  reporter.finish();
  return rows;
}

/// The persisted CSV file must hold exactly the returned rows, in order,
/// and the JSON file must decode to the same aggregate rows.
void expect_rows_persisted(const std::vector<SpecRows>& rows,
                           const fs::path& dir, const std::string& stem) {
  std::string csv = harness::report::csv_header() + "\n";
  std::vector<std::string> aggregates;
  for (const SpecRows& spec : rows) {
    for (const Record& r : spec.runs) csv += harness::report::csv_row(r) + "\n";
    if (spec.aggregate) {
      aggregates.push_back(harness::report::csv_row(*spec.aggregate));
      csv += aggregates.back() + "\n";
    }
  }
  EXPECT_EQ(read_file(dir / (stem + ".csv")), csv);

  std::vector<std::string> from_json;
  for (const Record& r : harness::report::records_from_json_text(
           read_file(dir / (stem + ".json")))) {
    if (r.kind == "aggregate") from_json.push_back(harness::report::csv_row(r));
  }
  EXPECT_EQ(from_json, aggregates);
}

TEST(Reporter, PrintsThePersistedAggregateRows) {
  TempDir tmp("unsharded");
  const auto rows = report_grid(tmp.path, 2, {});
  ASSERT_EQ(rows.size(), 3u);
  for (const SpecRows& spec : rows) {
    ASSERT_TRUE(spec.aggregate);
    EXPECT_EQ(spec.runs.size(), 2u);
    EXPECT_EQ(spec.aggregate->kind, "aggregate");
    EXPECT_EQ(spec.aggregate->reps, 2u);
    EXPECT_GT(spec.aggregate->result.throughput_tps, 0.0);
  }
  expect_rows_persisted(rows, tmp.path, "tiny");
}

TEST(Reporter, ShardReturnsOnlyTheSpecsItOwns) {
  // One rep per spec: job j is spec j, and shard i of 2 owns the specs
  // with j % 2 == i.
  for (std::uint32_t i = 0; i < 2; ++i) {
    TempDir tmp("shard" + std::to_string(i));
    const harness::Shard shard{i, 2};
    const auto rows = report_grid(tmp.path, 1, shard);
    ASSERT_EQ(rows.size(), 3u);
    for (std::size_t s = 0; s < rows.size(); ++s) {
      if (shard.owns(s)) {
        ASSERT_TRUE(rows[s].aggregate) << "spec " << s;
        EXPECT_EQ(rows[s].runs.size(), 1u);
      } else {
        EXPECT_FALSE(rows[s].aggregate) << "spec " << s;
        EXPECT_TRUE(rows[s].runs.empty()) << "spec " << s;
      }
    }
    expect_rows_persisted(rows, tmp.path, "tiny." + shard.label());
  }
}

TEST(Reporter, PartialRepSetsPersistRunsButPrintNothing) {
  // Two reps over two shards: every spec's rep set is split, so neither
  // shard can fold an aggregate; bench_merge does it from both files.
  TempDir tmp("partial");
  const harness::Shard shard{0, 2};
  const auto rows = report_grid(tmp.path, 2, shard);
  for (const SpecRows& spec : rows) {
    EXPECT_FALSE(spec.aggregate);
    ASSERT_EQ(spec.runs.size(), 1u);
    EXPECT_EQ(spec.runs[0].rep, 0u);
  }
  expect_rows_persisted(rows, tmp.path, "tiny." + shard.label());
}

}  // namespace
}  // namespace bamboo
