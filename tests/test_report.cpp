// Tests for the harness::report subsystem: golden-file byte-for-byte checks
// of the CSV and JSON emitters (fixtures under tests/golden/; regenerate
// with BAMBOO_UPDATE_GOLDEN=1), lossless JSON round-trip, ArtifactWriter
// directory layout + manifest, and the shard-merge fold.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "client/workload.h"
#include "harness/report.h"
#include "util/histogram.h"
#include "util/json.h"

#ifndef BAMBOO_GOLDEN_DIR
#define BAMBOO_GOLDEN_DIR "tests/golden"
#endif

namespace bamboo {
namespace {

namespace fs = std::filesystem;
using harness::report::Record;

harness::RunSpec fixture_spec() {
  harness::RunSpec spec;
  spec.cfg.protocol = "hotstuff";
  spec.cfg.n_replicas = 8;
  spec.cfg.byz_no = 2;
  spec.cfg.strategy = "forking";
  spec.cfg.election = "roundrobin";
  spec.cfg.bsize = 400;
  spec.cfg.psize = 128;
  spec.cfg.memsize = 200000;
  spec.cfg.delay = sim::milliseconds(5);
  spec.cfg.delay_jitter = sim::milliseconds(1);
  spec.cfg.timeout = sim::milliseconds(100);
  spec.cfg.seed = 42;
  spec.workload.concurrency = 1024;
  spec.workload.arrival_rate_tps = 1500.5;
  spec.opts.warmup_s = 0.25;
  spec.opts.measure_s = 1.5;
  spec.offered = 1024;
  return spec;
}

harness::RunResult fixture_result(int rep) {
  harness::RunResult r;
  const double shift = rep;
  r.throughput_tps = 72123.125 + 100 * shift;
  r.latency_ms_mean = 56.0625 + shift;
  r.latency_ms_p50 = 54.5 + shift;
  r.latency_ms_p99 = 91.75 + shift;
  r.cgr_per_view = 0.875 + 0.01 * shift;
  r.cgr_per_block = 0.9375;
  r.block_interval = 3.25 - 0.125 * shift;
  r.measured_s = 1.5;
  r.latency_samples = 108000 + 10 * static_cast<std::uint64_t>(rep);
  r.views = 270;
  r.blocks_committed = 268;
  r.blocks_received = 271;
  r.blocks_forked = 3;
  r.timeouts = 1;
  r.rejected = 7;
  r.net_bytes = 123456789 + static_cast<std::uint64_t>(rep);
  r.consistent = true;
  r.safety_violations = 0;
  return r;
}

/// The fixed record set both golden fixtures serialize: three run rows plus
/// the aggregate folded from them.
std::vector<Record> fixture_records() {
  const harness::RunSpec spec = fixture_spec();
  std::vector<Record> records;
  std::vector<harness::RunResult> results;
  for (int rep = 0; rep < 3; ++rep) {
    results.push_back(fixture_result(rep));
    records.push_back(harness::report::make_run_record(
        "fig12_scalability", "fig12_scalability", "HS", 4, spec,
        static_cast<std::uint32_t>(rep), 3, results.back()));
  }
  records.push_back(harness::report::make_aggregate_record(
      "fig12_scalability", "fig12_scalability", "HS", 4, spec, results));
  return records;
}

// The all-fields fixture: every Provenance and RunResult field holds a
// distinct, non-default value, so a swapped column or a broken aggregate
// rule shows up as a byte difference in report_full.{csv,json}.
harness::RunSpec full_spec() {
  harness::RunSpec spec;
  spec.cfg.protocol = "streamlet";
  spec.cfg.n_replicas = 7;
  spec.cfg.byz_no = 2;
  spec.cfg.strategy = "forking";
  spec.cfg.election = "static:3";
  spec.cfg.bsize = 256;
  spec.cfg.psize = 64;
  spec.cfg.memsize = 5000;
  spec.cfg.delay = sim::from_milliseconds(2.5);
  spec.cfg.delay_jitter = sim::from_milliseconds(0.75);
  spec.cfg.timeout = sim::milliseconds(150);
  spec.cfg.link_model = "pareto";
  spec.cfg.link_shape = 1.5;
  spec.cfg.link_loss = 0.01;
  spec.cfg.topology = "wan";
  spec.cfg.churn =
      "degrade@2s:link=0-3:+40ms;partition@4s:groups=0-1|2-3;heal@6s";
  spec.cfg.ge_p = 0.05;
  spec.cfg.ge_r = 0.3;
  spec.cfg.ge_loss_good = 0.001;
  spec.cfg.ge_loss_bad = 0.6;
  spec.cfg.sync_batch = 8;
  spec.cfg.sync_timeout = sim::milliseconds(250);
  spec.cfg.sync_retries = 5;
  spec.cfg.sync_pipeline = 4;
  spec.cfg.snapshot_gap = 64;
  spec.cfg.store = "file";
  spec.cfg.retention = 128;
  spec.cfg.verify_strategy = "batch";
  spec.cfg.cpu_workers = 3;
  spec.cfg.cpu_verify_per_sig = sim::microseconds(12);
  spec.cfg.cpu_verify_batch_base = sim::microseconds(80);
  spec.cfg.cpu_verify_batch_per_sig = sim::microseconds(3);
  spec.cfg.admission = "priority";
  spec.cfg.seed = 9007199254740993ull;  // 2^53 + 1
  spec.workload.mode = client::LoadMode::kOpenLoop;
  spec.workload.concurrency = 96;
  spec.workload.arrival_rate_tps = 2500.25;
  spec.workload.arrival = "bursty";
  spec.workload.client_population = 100000;
  spec.opts.warmup_s = 0.75;
  spec.opts.measure_s = 2.25;
  spec.offered = 2400.5;
  spec.timeline_bucket_s = 0.125;
  return spec;
}

harness::RunResult full_result(int rep) {
  harness::RunResult r;
  const double d = rep;
  const auto u = static_cast<std::uint64_t>(rep);
  r.throughput_tps = 41250.5 + 250 * d;
  r.latency_ms_mean = 31.25 + 2 * d;
  r.latency_ms_p50 = 29.5 + 1.5 * d;
  r.latency_ms_p99 = 77.75 - d;
  r.cgr_per_view = 0.625 + 0.0625 * d;
  r.cgr_per_block = 0.8125 - 0.03125 * d;
  r.block_interval = 2.5 + 0.25 * d;
  // Three 0.2 s windows: sum / reps (0.20000000000000004), not a
  // RunningStats mean (0.2).
  r.measured_s = 0.2;
  r.latency_samples = 5001 + 7 * u;
  r.views = 311 + u;
  r.blocks_committed = 297 + 2 * u;
  r.blocks_received = 305 + 3 * u;
  r.blocks_forked = 4 + u;
  r.timeouts = 9 + 5 * u;
  r.rejected = 1234 + 11 * u;
  r.net_bytes = 987654321 + 1000 * u;
  r.sync_requests = 17 + u;
  r.sync_blocks = 23 + 2 * u;
  r.sync_bytes = 45678 + 13 * u;
  r.recovery_ms = rep == 1 ? 0.0 : 120.5 - 40 * d;  // no recovery in rep 1
  r.certs_verified = 2222 + 3 * u;
  r.certs_rejected = 6 + u;
  r.disk_bytes_written = 765432 + 99 * u;
  r.write_amplification = rep == 2 ? 0.0 : 0.8125 + 0.125 * d;
  r.store_reads = 333 + u;
  r.snapshot_bytes = 65536 + 512 * u;
  r.snapshot_chunks = 19 + u;
  r.snapshots_installed = 2 + 2 * u;
  r.snapshots_rejected = 1 + u * u;
  r.restarts = 3 + u;
  r.offered_tps = 50000.25 + 125 * d;
  util::LatencyHistogram hist;
  for (double ms : {0.5 + d, 12.25, 40.0 + 3 * d, 250.75, 13.5 * (d + 1)}) {
    hist.add(ms);
  }
  r.hist_p50_ms = hist.quantile(0.50);
  r.hist_p99_ms = hist.quantile(0.99);
  r.hist_p999_ms = hist.quantile(0.999);
  r.latency_hist = hist.encode();
  r.mem_admitted = 88888 + 17 * u;
  r.mem_rejected = 4321 + 5 * u;
  const std::map<types::NodeId, std::uint64_t> counts = {
      {0, 40 + u}, {1, 35}, {3, 30 + 2 * u}, {5, 12 + u}, {6, 3}};
  r.commit_share = harness::encode_commit_share(counts);
  const harness::DemocracyScalars dem =
      harness::democracy_scalars(counts, 7, 2);
  r.chain_quality = dem.chain_quality;
  r.commit_share_max = dem.commit_share_max;
  r.proposer_gini = dem.proposer_gini;
  r.consistent = rep != 2;
  r.safety_violations = rep == 2 ? 3 : 0;
  return r;
}

/// Three run rows, their aggregate and one timeline row, in the order
/// merge_records emits them.
std::vector<Record> full_records() {
  const harness::RunSpec spec = full_spec();
  const std::string bench = "fig,\"full\"";
  std::vector<Record> records;
  std::vector<harness::RunResult> results;
  for (int rep = 0; rep < 3; ++rep) {
    results.push_back(full_result(rep));
    records.push_back(harness::report::make_run_record(
        bench, "full_fields", "SL-full", 5, spec,
        static_cast<std::uint32_t>(rep), 3, results.back()));
  }
  records.push_back(harness::report::make_aggregate_record(
      bench, "full_fields", "SL-full", 5, spec, results));
  harness::RunOutput out;
  out.bucket_start_s = {1.375};
  out.tx_per_s = {39875.5};
  for (Record& r : harness::report::make_timeline_records(
           bench, "full_fields", "SL-full", 5, spec, out)) {
    records.push_back(std::move(r));
  }
  return records;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "missing fixture " << path
                  << " (regenerate with BAMBOO_UPDATE_GOLDEN=1)";
  std::ostringstream body;
  body << in.rdbuf();
  return body.str();
}

void check_golden(const std::string& name, const std::string& serialized) {
  const fs::path path = fs::path(BAMBOO_GOLDEN_DIR) / name;
  if (std::getenv("BAMBOO_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << serialized;
    GTEST_SKIP() << "updated " << path;
  }
  EXPECT_EQ(serialized, read_file(path))
      << name << " drifted from the checked-in fixture; if the schema "
      << "change is intentional, regenerate with BAMBOO_UPDATE_GOLDEN=1";
}

// ---------------------------------------------------------------------------
// Golden files
// ---------------------------------------------------------------------------

TEST(ReportGolden, CsvEmitterMatchesFixtureByteForByte) {
  harness::report::CsvSink sink;
  for (const Record& r : fixture_records()) sink.add(r);
  check_golden("report.csv", sink.serialize());
}

TEST(ReportGolden, JsonEmitterMatchesFixtureByteForByte) {
  harness::report::JsonSink sink;
  for (const Record& r : fixture_records()) sink.add(r);
  check_golden("report.json", sink.serialize());
}

TEST(ReportGolden, FullFieldsCsvMatchesFixtureByteForByte) {
  harness::report::CsvSink sink;
  for (const Record& r : full_records()) sink.add(r);
  check_golden("report_full.csv", sink.serialize());
}

TEST(ReportGolden, FullFieldsJsonMatchesFixtureByteForByte) {
  harness::report::JsonSink sink;
  for (const Record& r : full_records()) sink.add(r);
  check_golden("report_full.json", sink.serialize());
}

TEST(ReportGolden, FullFieldsFixtureSetsEveryColumn) {
  // Each column holds a non-default value in at least one fixture row, so
  // no column of the all-fields fixture is vacuous.
  const util::Json blank = harness::report::to_json(Record{});
  std::vector<util::Json> rows;
  for (const Record& r : full_records()) {
    rows.push_back(harness::report::to_json(r));
  }
  for (const std::string& column : harness::report::csv_columns()) {
    const util::Json* fallback = blank.find(column);
    ASSERT_NE(fallback, nullptr) << column;
    const bool set = std::any_of(rows.begin(), rows.end(), [&](const auto& j) {
      const util::Json* v = j.find(column);
      return v != nullptr && v->dump() != fallback->dump();
    });
    EXPECT_TRUE(set) << column << " holds its default in every row";
  }
}

TEST(ReportSchema, FullFieldsJsonRoundTripIsLossless) {
  const std::vector<Record> records = full_records();
  harness::report::JsonSink sink;
  for (const Record& r : records) sink.add(r);
  const auto reparsed =
      harness::report::records_from_json_text(sink.serialize());
  ASSERT_EQ(reparsed.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(reparsed[i], records[i]) << "record " << i;
  }
}

TEST(MergeRecords, RegeneratesTheFullFieldsRows) {
  const std::vector<Record> records = full_records();
  // Timeline first and runs reversed: merge must reorder and refold.
  std::vector<Record> rows = {records[4], records[2], records[0],
                              records[1]};
  const std::vector<Record> merged = harness::report::merge_records(rows);
  ASSERT_EQ(merged.size(), records.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i], records[i]) << "row " << i;
  }
}

// ---------------------------------------------------------------------------
// Schema / round-trip
// ---------------------------------------------------------------------------

TEST(ReportSchema, CsvRowHasOneCellPerColumn) {
  // Empty leading cells still take their place in the row.
  Record blank = fixture_records().front();
  blank.bench = blank.artifact = blank.series = "";
  for (const Record& r : {fixture_records().front(), blank}) {
    const std::string row = harness::report::csv_row(r);
    // Fixture values contain no embedded commas, so counting is exact.
    const std::size_t cells =
        static_cast<std::size_t>(std::count(row.begin(), row.end(), ',')) +
        1;
    EXPECT_EQ(cells, harness::report::csv_columns().size());
  }
  EXPECT_EQ(harness::report::csv_header(),
            [] {
              std::string joined;
              for (const auto& c : harness::report::csv_columns()) {
                if (!joined.empty()) joined += ',';
                joined += c;
              }
              return joined;
            }());
}

TEST(ReportSchema, JsonRoundTripIsLossless) {
  const std::vector<Record> records = fixture_records();
  harness::report::JsonSink sink;
  for (const Record& r : records) sink.add(r);
  const auto reparsed =
      harness::report::records_from_json_text(sink.serialize());
  ASSERT_EQ(reparsed.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(reparsed[i], records[i]) << "record " << i;
  }
}

TEST(ReportSchema, MissingMembersDecodeToDefaults) {
  const Record decoded =
      harness::report::record_from_json(util::Json::parse("{}"));
  EXPECT_EQ(decoded, Record{});
  EXPECT_EQ(decoded.kind, "run");
  EXPECT_EQ(decoded.prov.workload.mode, client::LoadMode::kClosedLoop);
  EXPECT_EQ(decoded.prov.cfg.n_replicas, 4u);
  // A member of the wrong JSON type is ignored the same way.
  const Record typed = harness::report::record_from_json(util::Json::parse(
      R"({"bsize":"many","seed":"12","base_seed":true,"mode":3,)"
      R"("delay_ms":"5","rep":2})"));
  EXPECT_EQ(typed.prov.cfg.bsize, Record{}.prov.cfg.bsize);
  EXPECT_EQ(typed.prov.cfg.seed, 12u);
  EXPECT_EQ(typed.prov.base_seed, Record{}.prov.base_seed);
  EXPECT_EQ(typed.prov.workload.mode, Record{}.prov.workload.mode);
  EXPECT_EQ(typed.prov.cfg.delay, Record{}.prov.cfg.delay);
  EXPECT_EQ(typed.rep, 2u);
}

TEST(ReportSchema, DefaultProvenanceMatchesADefaultRunSpec) {
  // Each run input's default is declared once, where the run reads it: a
  // default Record's provenance cells equal those of a default RunSpec's
  // run row. base_seed alone is not a RunSpec field.
  const util::Json blank = harness::report::to_json(Record{});
  const util::Json run = harness::report::to_json(
      harness::report::make_run_record("b", "a", "s", 0, harness::RunSpec{},
                                       0, 1, harness::RunResult{}));
  const std::vector<std::string>& columns = harness::report::csv_columns();
  const auto first = std::find(columns.begin(), columns.end(), "protocol");
  const auto last = std::find(columns.begin(), columns.end(), "offered");
  ASSERT_LT(first, last);
  for (auto it = first; it != std::next(last); ++it) {
    if (*it == "base_seed") continue;
    ASSERT_NE(blank.find(*it), nullptr) << *it;
    ASSERT_NE(run.find(*it), nullptr) << *it;
    EXPECT_EQ(blank.find(*it)->dump(), run.find(*it)->dump()) << *it;
  }
}

/// Decoding {"<column>": <cell>} must throw std::invalid_argument naming
/// the column: a corrupt shard row is refused, not merged.
void expect_refused(const std::string& column, const std::string& cell) {
  const std::string text = "{\"" + column + "\":" + cell + "}";
  try {
    static_cast<void>(
        harness::report::record_from_json(util::Json::parse(text)));
    ADD_FAILURE() << text << " decoded";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'" + column + "'"),
              std::string::npos)
        << e.what();
  }
}

/// Seed cells no run writes: junk, a sign or a fraction in the decimal
/// string, and numbers that are negative, fractional or past 2^64.
constexpr const char* kCorruptSeeds[] = {R"("x7")", R"("-1")", R"("7x")",
                                         R"("7.5")", R"("")", "-1",
                                         "7.5",     "1e30"};

TEST(ReportSchema, CorruptSeedIsRefused) {
  for (const char* cell : kCorruptSeeds) expect_refused("seed", cell);
  const auto seed_of = [](const char* text) {
    return harness::report::record_from_json(util::Json::parse(text))
        .prov.cfg.seed;
  };
  EXPECT_EQ(seed_of(R"({"seed":"18446744073709551615"})"),
            18446744073709551615ull);
  EXPECT_EQ(seed_of(R"({"seed":7})"), 7u);
}

TEST(ReportSchema, CorruptBaseSeedIsRefused) {
  for (const char* cell : kCorruptSeeds) expect_refused("base_seed", cell);
  EXPECT_EQ(harness::report::record_from_json(
                util::Json::parse(R"({"base_seed":"42"})"))
                .prov.base_seed,
            42u);
}

TEST(ReportSchema, UnknownModeIsRefused) {
  for (const char* cell : {R"("bursty")", R"("Closed")", R"("")"}) {
    expect_refused("mode", cell);
  }
  EXPECT_EQ(harness::report::record_from_json(
                util::Json::parse(R"({"mode":"open"})"))
                .prov.workload.mode,
            client::LoadMode::kOpenLoop);
}

TEST(ReportSchema, SingleRecordJsonRoundTrip) {
  const Record original = fixture_records().back();  // the aggregate row
  const util::Json j =
      util::Json::parse(harness::report::to_json(original).dump());
  EXPECT_EQ(harness::report::record_from_json(j), original);
}

TEST(ReportSchema, FullWidthSeedsRoundTripThroughJson) {
  // Seeds above 2^53 are not exactly representable as doubles; the JSON
  // emitter writes them as decimal strings so nothing is lost.
  Record r = fixture_records().front();
  r.prov.base_seed = 9007199254740993ull;  // 2^53 + 1
  r.prov.cfg.seed = r.prov.base_seed + 1;
  const util::Json j = util::Json::parse(harness::report::to_json(r).dump());
  EXPECT_EQ(harness::report::record_from_json(j), r);
}

TEST(ReportSchema, AggregateRowCarriesCis) {
  const Record agg = fixture_records().back();
  EXPECT_EQ(agg.kind, "aggregate");
  EXPECT_EQ(agg.reps, 3u);
  EXPECT_GT(agg.ci.throughput_tps, 0.0);
  EXPECT_GT(agg.ci.latency_ms_mean, 0.0);
  EXPECT_EQ(agg.prov.cfg.seed, agg.prov.base_seed);
  // Run rows carry the shifted per-rep seed.
  const Record run1 = fixture_records()[1];
  EXPECT_EQ(run1.prov.cfg.seed, run1.prov.base_seed + 1);
  EXPECT_EQ(run1.ci, harness::report::CiSet{});
}

TEST(ReportSchema, CsvEscapesSeparatorsAndQuotes) {
  Record r = fixture_records().front();
  r.series = "odd,\"series\"";
  const std::string row = harness::report::csv_row(r);
  EXPECT_NE(row.find("\"odd,\"\"series\"\"\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// ArtifactWriter
// ---------------------------------------------------------------------------

struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("bamboo_report_test_" + std::to_string(::getpid()));
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

TEST(ArtifactWriter, WritesOneFilePerArtifactAndFormatPlusManifest) {
  TempDir tmp;
  harness::report::ArtifactWriter writer(tmp.path.string(), "fig12",
                                         {"csv", "json"});
  for (const Record& r : fixture_records()) writer.add("fig12", r);
  const auto files = writer.finish();

  // 2 formats x 1 artifact + manifest.
  ASSERT_EQ(files.size(), 3u);
  EXPECT_TRUE(fs::exists(tmp.path / "fig12.csv"));
  EXPECT_TRUE(fs::exists(tmp.path / "fig12.json"));
  EXPECT_TRUE(fs::exists(tmp.path / "manifest.json"));

  const util::Json manifest =
      util::Json::parse(read_file(tmp.path / "manifest.json"));
  EXPECT_EQ(manifest.get_string("bench", ""), "fig12");
  const util::Json* artifacts = manifest.find("artifacts");
  ASSERT_NE(artifacts, nullptr);
  ASSERT_EQ(artifacts->as_array().size(), 1u);
  EXPECT_EQ(artifacts->as_array()[0].get_string("name", ""), "fig12");

  // Records re-read from disk are the records that were written.
  const auto reparsed = harness::report::records_from_json_text(
      read_file(tmp.path / "fig12.json"));
  EXPECT_EQ(reparsed, fixture_records());
}

TEST(ArtifactWriter, ShardTagsEveryFilename) {
  TempDir tmp;
  harness::report::ArtifactWriter writer(tmp.path.string(), "fig12",
                                         {"json"}, harness::Shard{1, 3});
  writer.add("fig12", fixture_records().front());
  writer.finish();
  EXPECT_TRUE(fs::exists(tmp.path / "fig12.shard2of3.json"));
  EXPECT_TRUE(fs::exists(tmp.path / "manifest.shard2of3.json"));
  EXPECT_FALSE(fs::exists(tmp.path / "fig12.json"));
}

TEST(ArtifactWriter, DisabledWriterIsANoOp) {
  harness::report::ArtifactWriter writer("", "fig12", {"csv", "json"});
  EXPECT_FALSE(writer.enabled());
  writer.add("fig12", fixture_records().front());
  EXPECT_TRUE(writer.finish().empty());
}

// ---------------------------------------------------------------------------
// Shard merge
// ---------------------------------------------------------------------------

TEST(MergeRecords, RegeneratesExactlyTheUnshardedRows) {
  // Unsharded emission: per spec, run rows then the aggregate row.
  const harness::RunSpec spec = fixture_spec();
  std::vector<Record> unsharded;
  std::vector<Record> shards[3];
  for (std::uint32_t s = 0; s < 2; ++s) {
    std::vector<harness::RunResult> results;
    for (std::uint32_t rep = 0; rep < 3; ++rep) {
      results.push_back(fixture_result(static_cast<int>(s * 3 + rep)));
      const Record run = harness::report::make_run_record(
          "fig12", "fig12", "HS", s, spec, rep, 3, results.back());
      unsharded.push_back(run);
      // Deal job s*3+rep to shard (job % 3), like run_repeated_grid.
      shards[(s * 3 + rep) % 3].push_back(run);
    }
    unsharded.push_back(harness::report::make_aggregate_record(
        "fig12", "fig12", "HS", s, spec, results));
  }

  // Union the shard files in arbitrary order; merge must reorder and
  // regenerate the aggregates bit-for-bit.
  std::vector<Record> rows;
  for (int i = 2; i >= 0; --i) {
    rows.insert(rows.end(), shards[i].begin(), shards[i].end());
  }
  const std::vector<Record> merged = harness::report::merge_records(rows);
  ASSERT_EQ(merged.size(), unsharded.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i], unsharded[i]) << "row " << i;
  }
}

TEST(MergeRecords, DropsStaleAggregateRowsAndRefolds) {
  std::vector<Record> rows = fixture_records();  // 3 runs + 1 aggregate
  Record stale = rows.back();
  stale.result.throughput_tps = -1;  // lies; must be recomputed, not copied
  rows.back() = stale;
  const auto merged = harness::report::merge_records(rows);
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged.back(), fixture_records().back());
}

TEST(MergeRecords, ThrowsOnDuplicateRep) {
  std::vector<Record> rows = fixture_records();
  rows.push_back(rows.front());
  EXPECT_THROW(harness::report::merge_records(rows), std::invalid_argument);
}

TEST(MergeRecords, ThrowsOnMissingRep) {
  std::vector<Record> rows = fixture_records();
  rows.erase(rows.begin() + 1);  // drop rep 1 of 3
  EXPECT_THROW(harness::report::merge_records(rows), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Timeline records (Fig. 15 buckets as flat rows)
// ---------------------------------------------------------------------------

std::vector<Record> fixture_timeline(std::uint32_t spec_index) {
  harness::RunSpec spec = fixture_spec();
  spec.timeline_bucket_s = 0.5;
  harness::RunOutput out;
  out.bucket_start_s = {0.0, 0.5, 1.0};
  out.tx_per_s = {71500.0, 72000.0 + spec_index, 70250.0};
  return harness::report::make_timeline_records(
      "fig15", "fig15_timeline", "t10-HS", spec_index, spec, out);
}

TEST(TimelineRecords, CarryBucketsAsFlatRows) {
  const std::vector<Record> rows = fixture_timeline(2);
  ASSERT_EQ(rows.size(), 3u);
  for (std::uint32_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].kind, "timeline");
    EXPECT_EQ(rows[i].rep, i);  // bucket index
    EXPECT_EQ(rows[i].spec_index, 2u);
    EXPECT_DOUBLE_EQ(rows[i].prov.offered, 0.5 * i);  // bucket start
    EXPECT_DOUBLE_EQ(rows[i].result.measured_s, 0.5);  // bucket width
  }
  EXPECT_DOUBLE_EQ(rows[1].result.throughput_tps, 72002.0);
  // Lossless through the JSON path like any other record.
  const util::Json j =
      util::Json::parse(harness::report::to_json(rows[1]).dump());
  EXPECT_EQ(harness::report::record_from_json(j), rows[1]);
}

TEST(MergeRecords, TimelineRowsPassThroughInBucketOrder) {
  // Two specs' timelines arriving from different shards, interleaved and
  // out of order, alongside a run/aggregate group in another artifact.
  std::vector<Record> rows = fixture_records();
  const std::vector<Record> t0 = fixture_timeline(0);
  const std::vector<Record> t1 = fixture_timeline(1);
  rows.insert(rows.end(), {t1[2], t0[1], t1[0], t0[0], t1[1], t0[2]});

  const std::vector<Record> merged = harness::report::merge_records(rows);
  // 3 runs + regenerated aggregate + 6 timeline rows.
  ASSERT_EQ(merged.size(), 10u);
  std::vector<Record> timeline;
  for (const Record& r : merged) {
    if (r.kind == "timeline") timeline.push_back(r);
  }
  const std::vector<Record> expected = {t0[0], t0[1], t0[2],
                                        t1[0], t1[1], t1[2]};
  EXPECT_EQ(timeline, expected);
}

TEST(MergeRecords, ThrowsOnDuplicateTimelineBucket) {
  std::vector<Record> rows = fixture_timeline(0);
  rows.push_back(rows[1]);
  EXPECT_THROW(harness::report::merge_records(rows), std::invalid_argument);
}

}  // namespace
}  // namespace bamboo
