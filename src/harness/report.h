#pragma once

// Result persistence: the paper's figures and tables are data artifacts, so
// every bench run can land on disk as machine-readable CSV/JSON rows with
// full provenance (which spec produced the number) and multi-seed statistics
// (mean + 95% CI). The subsystem is three layers:
//
//   Record        one flattened (provenance, result, CI) row
//   ResultSink    serializes an ordered row set (CsvSink / JsonSink)
//   ArtifactWriter one file per figure/table under --out, plus manifest.json
//
// plus merge_records(), which unions per-run rows from cross-process shards
// (--shard i/n) and regenerates aggregate rows bit-identical to the
// unsharded run — the library core of the bench_merge tool.

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "harness/runner.h"
#include "util/json.h"

namespace bamboo::harness::report {

/// A row's run inputs: the spec's own Config, WorkloadConfig and
/// RunOptions, so each persisted input and its default are declared once,
/// where the run reads it. for_each_column (report.cpp) names the inputs
/// that reach a column; the rest keep their defaults through a JSON
/// round trip.
struct Provenance {
  /// seed = this row's seed (base_seed + rep); churn = the canonical DSL
  /// of the EFFECTIVE schedule (spec.faults events, then cfg.churn's), so
  /// re-parsing a persisted row yields the schedule the run executed.
  core::Config cfg;
  client::WorkloadConfig workload;
  RunOptions opts;
  std::uint64_t base_seed = 0;  ///< repetition base seed
  double offered = 0;  ///< sweep label (concurrency, λ, N, byz, ...)

  bool operator==(const Provenance&) const = default;
};

/// The inputs of `spec`'s repetition `rep`: its seed shifted the way
/// run_repeated_grid does, its churn the effective schedule.
Provenance provenance_of(const RunSpec& spec, std::uint32_t rep = 0);

/// 95% CI half-widths for the headline metrics; all zero on per-run rows.
struct CiSet {
  double throughput_tps = 0;
  double latency_ms_mean = 0;
  double latency_ms_p50 = 0;
  double latency_ms_p99 = 0;
  double cgr_per_view = 0;
  double cgr_per_block = 0;
  double block_interval = 0;

  bool operator==(const CiSet&) const = default;
};

/// One emitted row. kind == "run" carries a single seed's RunResult; kind ==
/// "aggregate" carries rep-order means in `result` (counters rounded to the
/// nearest integer, safety_violations summed, consistent = all consistent)
/// and the CI half-widths in `ci`. kind == "timeline" carries one
/// throughput bucket of a timeline-enabled run (Fig. 15): rep is the
/// bucket index, prov.offered the bucket start in seconds,
/// result.throughput_tps the committed-tx rate inside the bucket, and
/// result.measured_s the bucket width — flat rows that survive the shard
/// merge. A member missing from a JSON record decodes to its value in a
/// default-constructed Record: the run input's own default.
struct Record {
  std::string bench;     ///< bench id, e.g. "fig12_scalability"
  std::string artifact;  ///< figure/table name; keys the artifact file
  std::string series;    ///< series label, e.g. "HS-b400"
  std::string kind = "run";  ///< "run" | "aggregate" | "timeline"
  std::uint32_t spec_index = 0;  ///< position in the bench's spec grid
  std::uint32_t rep = 0;         ///< repetition (0 on aggregate rows)
  std::uint32_t reps = 1;        ///< repetitions behind this row's spec
  Provenance prov;
  RunResult result;
  CiSet ci;

  bool operator==(const Record&) const = default;
};

Record make_run_record(const std::string& bench, const std::string& artifact,
                       const std::string& series, std::uint32_t spec_index,
                       const RunSpec& spec, std::uint32_t rep,
                       std::uint32_t reps, const RunResult& result);

/// Fold `results` (rep order, rep r under seed base + r) into an aggregate
/// row, each metric by its Fold rule in run_metrics(). This is the one
/// fold between runs and anything that reads them: benches print its
/// rows, --out persists them, and merge_records regenerates them from
/// shard files bit-identically, since every statistic is built by merging
/// one-sample util::RunningStats in rep order.
Record make_aggregate_record(const std::string& bench,
                             const std::string& artifact,
                             const std::string& series,
                             std::uint32_t spec_index, const RunSpec& spec,
                             const std::vector<RunResult>& results);

/// One spec of a repeated grid run, as readers and the artifact files see
/// it: the run rows this shard executed, in rep order, and the aggregate
/// row when the whole rep set ran here.
struct SpecRows {
  std::vector<Record> runs;
  std::optional<Record> aggregate;
};

/// rows[s] for every spec s of `grid`: one run row per executed job of
/// `run` and, for a complete rep set, make_aggregate_record over it.
/// Specs owned by other shards come back with no rows at all.
std::vector<SpecRows> grid_rows(
    const std::string& bench, const std::string& artifact,
    const std::vector<RunSpec>& grid, const GridRun& run,
    const std::function<std::string(std::size_t)>& series_of);

/// "mean±ci" table cell for a kMeanCi metric of an aggregate row: the
/// row's mean and its `_ci95` half-width, both times `scale`. Throws
/// std::invalid_argument for a metric with no CI column.
std::string ci_cell(const Record& row, double RunResult::*metric,
                    double scale, int precision);

/// One kind == "timeline" row per throughput bucket of `out` (empty when
/// the run captured no timeline). Persisting buckets as records lets
/// sharded runs carry their timelines through bench_merge bit-identically.
std::vector<Record> make_timeline_records(const std::string& bench,
                                          const std::string& artifact,
                                          const std::string& series,
                                          std::uint32_t spec_index,
                                          const RunSpec& spec,
                                          const RunOutput& out);

// --- serialization ---------------------------------------------------------

/// The fixed CSV column order (also the JSON member set): the record's
/// keys, the provenance, then run_metrics() with a `_ci95` column after
/// each kMeanCi metric.
const std::vector<std::string>& csv_columns();
std::string csv_header();
std::string csv_row(const Record& r);

util::Json to_json(const Record& r);
Record record_from_json(const util::Json& j);

/// Parse one artifact document (the JsonSink layout) back into records.
std::vector<Record> records_from_json_text(const std::string& text);

/// Serializes an ordered set of records into one artifact file body.
class ResultSink {
 public:
  virtual ~ResultSink() = default;
  virtual void add(const Record& r) = 0;
  [[nodiscard]] virtual std::string serialize() const = 0;
  [[nodiscard]] virtual const char* format() const = 0;  ///< "csv" | "json"
};

/// Header + one line per record; doubles use Json::number_to_string, so CSV
/// and JSON emit bit-identical numbers.
class CsvSink final : public ResultSink {
 public:
  void add(const Record& r) override { rows_.push_back(csv_row(r)); }
  [[nodiscard]] std::string serialize() const override;
  [[nodiscard]] const char* format() const override { return "csv"; }

 private:
  std::vector<std::string> rows_;
};

/// One compact JSON document: {"records":[...],"schema":...}.
class JsonSink final : public ResultSink {
 public:
  void add(const Record& r) override { records_.push_back(to_json(r)); }
  [[nodiscard]] std::string serialize() const override;
  [[nodiscard]] const char* format() const override { return "json"; }

 private:
  util::Json::Array records_;
};

// --- artifact directory ----------------------------------------------------

/// One file written under the --out directory.
struct ArtifactFile {
  std::string artifact;
  std::string format;
  std::string path;  ///< relative to the out directory
  std::size_t records = 0;
};

/// Collects records per artifact (figure/table) and, on finish(), writes
/// one file per (artifact, format) plus a manifest. Sharded runs append the
/// shard tag to every filename (fig12.shard2of3.csv, manifest.shard2of3.json)
/// so N shards can share one directory or be rsync'ed into one.
class ArtifactWriter {
 public:
  /// Empty out_dir disables the writer (enabled() == false, add/finish
  /// are no-ops).
  ArtifactWriter(std::string out_dir, std::string bench,
                 std::vector<std::string> formats, Shard shard = {});

  [[nodiscard]] bool enabled() const { return !out_dir_.empty(); }
  void add(const std::string& artifact, const Record& r);

  /// Write every artifact file and the manifest; returns what was written
  /// (empty when disabled).
  std::vector<ArtifactFile> finish();

 private:
  std::string out_dir_;
  std::string bench_;
  std::vector<std::string> formats_;
  Shard shard_;
  std::map<std::string, std::vector<Record>> records_;
};

// --- shard merge -----------------------------------------------------------

/// Union per-run rows from any number of shard files, order them by
/// (bench, artifact, spec_index, rep), and regenerate one aggregate row per
/// spec by the same rep-order fold the unsharded run uses. Timeline rows
/// pass through in (artifact, spec_index, bucket) order. Input aggregate
/// rows are dropped (they are recomputed); duplicate (artifact, spec_index,
/// rep) rows throw std::invalid_argument.
std::vector<Record> merge_records(std::vector<Record> rows);

}  // namespace bamboo::harness::report
