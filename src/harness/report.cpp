#include "harness/report.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <variant>

#include "core/churn.h"
#include "harness/table.h"
#include "sim/time.h"
#include "util/histogram.h"
#include "util/parse.h"
#include "util/stats.h"

namespace bamboo::harness::report {

namespace {

constexpr const char* kRecordSchema = "bamboo.report/v1";
constexpr const char* kManifestSchema = "bamboo.report.manifest/v1";

/// Every aggregate statistic merges one-sample accumulators in rep order
/// through this path, so a row regenerated from shard files is
/// bit-identical to the unsharded fold.
void fold(util::RunningStats& stats, double value) {
  util::RunningStats one;
  one.add(value);
  stats.merge(one);
}

std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

/// Shared core of make_aggregate_record and merge_records: fold rep-order
/// results under an already-flattened base provenance, one metric at a
/// time by its table rule.
Record aggregate_from(const std::string& bench, const std::string& artifact,
                      const std::string& series, std::uint32_t spec_index,
                      Provenance base_prov,
                      const std::vector<RunResult>& results) {
  Record rec;
  rec.bench = bench;
  rec.artifact = artifact;
  rec.series = series;
  rec.kind = "aggregate";
  rec.spec_index = spec_index;
  rec.rep = 0;
  rec.reps = static_cast<std::uint32_t>(results.size());
  rec.prov = std::move(base_prov);
  rec.prov.cfg.seed = rec.prov.base_seed;

  const double n = results.empty() ? 1.0 : static_cast<double>(results.size());
  // Pooled data: histogram buckets and per-proposer commit counts add as
  // integers, which is associative, so the shard-merged aggregate is
  // bit-identical to the unsharded one (no mean of per-rep ratios or
  // quantiles can promise that).
  util::LatencyHistogram hist;
  std::map<types::NodeId, std::uint64_t> commit_counts;
  RunResult& out = rec.result;
  for (const Metric& m : run_metrics()) {
    switch (m.fold) {
      case Fold::kMeanCi:
      case Fold::kMean: {
        const auto member = std::get<double RunResult::*>(m.member);
        util::RunningStats stats;
        for (const RunResult& r : results) fold(stats, r.*member);
        out.*member = stats.mean();
        if (m.ci != nullptr) rec.ci.*m.ci = stats.ci95();
        break;
      }
      case Fold::kSumOverReps: {
        const auto member = std::get<double RunResult::*>(m.member);
        double sum = 0;
        for (const RunResult& r : results) sum += r.*member;
        out.*member = sum / n;
        break;
      }
      case Fold::kCount: {
        const auto member = std::get<std::uint64_t RunResult::*>(m.member);
        double sum = 0;
        for (const RunResult& r : results) {
          sum += static_cast<double>(r.*member);
        }
        out.*member = static_cast<std::uint64_t>(std::llround(sum / n));
        break;
      }
      case Fold::kNonZeroMean: {
        // 0 means "no event this rep" (no recovery, nothing appended);
        // averaging those zeros in would understate the observed value.
        const auto member = std::get<double RunResult::*>(m.member);
        double sum = 0, events = 0;
        for (const RunResult& r : results) {
          if (r.*member > 0) {
            sum += r.*member;
            events += 1;
          }
        }
        out.*member = events > 0 ? sum / events : 0.0;
        break;
      }
      case Fold::kPooledHist: {
        const auto member = std::get<std::string RunResult::*>(m.member);
        for (const RunResult& r : results) {
          if (!(r.*member).empty()) {
            hist.merge(util::LatencyHistogram::decode(r.*member));
          }
        }
        break;
      }
      case Fold::kPooledShare: {
        const auto member = std::get<std::string RunResult::*>(m.member);
        for (const RunResult& r : results) {
          for (const auto& [id, count] : decode_commit_share(r.*member)) {
            commit_counts[id] += count;
          }
        }
        break;
      }
      case Fold::kAll: {
        const auto member = std::get<bool RunResult::*>(m.member);
        for (const RunResult& r : results) {
          out.*member = out.*member && r.*member;
        }
        break;
      }
      case Fold::kSum: {
        const auto member = std::get<std::uint64_t RunResult::*>(m.member);
        for (const RunResult& r : results) out.*member += r.*member;
        break;
      }
      case Fold::kDerived:
        break;
    }
  }
  // Exact pooled quantiles over every rep's samples, and democracy
  // scalars from the pooled counts (weighting reps by committed blocks).
  out.set_latency_hist(hist);
  out.set_commit_share(commit_counts, rec.prov.cfg.n_replicas,
                       rec.prov.cfg.byz_no);
  return rec;
}

}  // namespace

Provenance provenance_of(const RunSpec& spec, std::uint32_t rep) {
  Provenance p{spec.cfg, spec.workload, spec.opts, spec.cfg.seed,
               spec.offered};
  p.cfg.seed += rep;
  p.cfg.churn = core::format_churn(effective_churn(spec.faults, spec.cfg));
  return p;
}

Record make_run_record(const std::string& bench, const std::string& artifact,
                       const std::string& series, std::uint32_t spec_index,
                       const RunSpec& spec, std::uint32_t rep,
                       std::uint32_t reps, const RunResult& result) {
  Record rec;
  rec.bench = bench;
  rec.artifact = artifact;
  rec.series = series;
  rec.kind = "run";
  rec.spec_index = spec_index;
  rec.rep = rep;
  rec.reps = reps;
  rec.prov = provenance_of(spec, rep);
  rec.result = result;
  return rec;
}

Record make_aggregate_record(const std::string& bench,
                             const std::string& artifact,
                             const std::string& series,
                             std::uint32_t spec_index, const RunSpec& spec,
                             const std::vector<RunResult>& results) {
  return aggregate_from(bench, artifact, series, spec_index,
                        provenance_of(spec, 0), results);
}

std::vector<SpecRows> grid_rows(
    const std::string& bench, const std::string& artifact,
    const std::vector<RunSpec>& grid, const GridRun& run,
    const std::function<std::string(std::size_t)>& series_of) {
  std::vector<SpecRows> rows(grid.size());
  for (const GridRun::Job& job : run.jobs) {
    const std::uint32_t s = job.spec_index;
    rows[s].runs.push_back(make_run_record(bench, artifact, series_of(s), s,
                                           grid[s], job.rep, run.reps,
                                           job.result));
  }
  for (std::size_t s = 0; s < rows.size(); ++s) {
    if (rows[s].runs.size() != run.reps) continue;  // partial rep set
    std::vector<RunResult> results;
    results.reserve(run.reps);
    for (const Record& r : rows[s].runs) results.push_back(r.result);
    rows[s].aggregate = make_aggregate_record(
        bench, artifact, rows[s].runs.front().series,
        static_cast<std::uint32_t>(s), grid[s], results);
  }
  return rows;
}

std::string ci_cell(const Record& row, double RunResult::*metric,
                    double scale, int precision) {
  for (const Metric& m : run_metrics()) {
    const auto* member = std::get_if<double RunResult::*>(&m.member);
    if (member == nullptr || *member != metric) continue;
    if (m.ci == nullptr) break;
    return TextTable::num(row.result.*metric * scale, precision) + "±" +
           TextTable::num(row.ci.*m.ci * scale, precision);
  }
  throw std::invalid_argument("ci_cell: metric has no _ci95 column");
}

std::vector<Record> make_timeline_records(const std::string& bench,
                                          const std::string& artifact,
                                          const std::string& series,
                                          std::uint32_t spec_index,
                                          const RunSpec& spec,
                                          const RunOutput& out) {
  std::vector<Record> records;
  records.reserve(out.tx_per_s.size());
  const Provenance prov = provenance_of(spec, 0);
  for (std::size_t i = 0; i < out.tx_per_s.size(); ++i) {
    Record rec;
    rec.bench = bench;
    rec.artifact = artifact;
    rec.series = series;
    rec.kind = "timeline";
    rec.spec_index = spec_index;
    rec.rep = static_cast<std::uint32_t>(i);  // bucket index
    rec.reps = 1;
    rec.prov = prov;
    rec.prov.offered =
        i < out.bucket_start_s.size() ? out.bucket_start_s[i] : 0.0;
    rec.result.throughput_tps = out.tx_per_s[i];
    rec.result.measured_s = spec.timeline_bucket_s;
    records.push_back(std::move(rec));
  }
  return records;
}

// --- serialization ---------------------------------------------------------

namespace {

/// A persisted cell of the right JSON type that no run could have
/// written: refused, not decoded to an input the run never had.
[[noreturn]] void bad_cell(std::string_view column, const util::Json& v,
                           const char* want) {
  throw std::invalid_argument("report column '" + std::string(column) +
                              "' holds " + v.dump() + ", not " + want);
}

// Cell adapters: a column whose member is not written as itself. shown()
// is the plain cell value both emitters write; read() decodes a JSON
// value of the cell's type back into the member (another type leaves the
// member as it is). Each refers into a Record, const when it is.

/// A full-width uint64 written to JSON as a decimal string (util::Json
/// numbers are doubles, exact only up to 2^53): the seeds, so the
/// emitters and the shard merge stay lossless for any seed.
template <typename T>
struct Decimal {
  explicit Decimal(T& v) : value(v) {}
  T& value;

  [[nodiscard]] std::string shown() const { return std::to_string(value); }
  void read(std::string_view column, const util::Json& v) const {
    if (v.is_string()) {
      const auto parsed = util::parse_unsigned(v.as_string());
      if (!parsed) bad_cell(column, v, "a whole number");
      value = *parsed;
    } else if (v.is_number()) {
      const double x = v.as_number();
      if (!(x >= 0 && x < 0x1p64 && x == std::floor(x))) {
        bad_cell(column, v, "a whole number");
      }
      value = static_cast<std::uint64_t>(x);
    }
  }
};

/// A sim::Duration written as a count of `unit`s (ms or µs).
template <typename T>
struct DurationIn {
  DurationIn(T& v, sim::Duration u) : value(v), unit(u) {}
  T& value;
  sim::Duration unit;

  [[nodiscard]] double shown() const {
    return static_cast<double>(value) / static_cast<double>(unit);
  }
  void read(std::string_view, const util::Json& v) const {
    if (v.is_number()) {
      value = std::llround(v.as_number() * static_cast<double>(unit));
    }
  }
};

/// The client load mode, written "closed" or "open".
template <typename T>
struct ModeName {
  explicit ModeName(T& v) : value(v) {}
  T& value;

  [[nodiscard]] std::string shown() const {
    return value == client::LoadMode::kClosedLoop ? "closed" : "open";
  }
  void read(std::string_view column, const util::Json& v) const {
    if (!v.is_string()) return;
    if (v.as_string() == "closed") {
      value = client::LoadMode::kClosedLoop;
    } else if (v.as_string() == "open") {
      value = client::LoadMode::kOpenLoop;
    } else {
      bad_cell(column, v, "closed or open");
    }
  }
};

template <typename T>
concept CellAdapter = requires(const T& a) { a.shown(); };

/// The one column list. Calls f(name, field) for every schema column in
/// order; `field` refers into `r` (const when `r` is), directly or through
/// a cell adapter. The RunResult metrics and their `_ci95` columns come
/// from run_metrics().
template <typename R, typename F>
void for_each_column(R& r, F&& f) {
  f("bench", r.bench);
  f("artifact", r.artifact);
  f("series", r.series);
  f("kind", r.kind);
  f("spec_index", r.spec_index);
  f("rep", r.rep);
  f("reps", r.reps);
  auto& c = r.prov.cfg;
  auto& w = r.prov.workload;
  const auto ms = [](auto& d) { return DurationIn(d, sim::kMillisecond); };
  const auto us = [](auto& d) { return DurationIn(d, sim::kMicrosecond); };
  f("protocol", c.protocol);
  f("n_replicas", c.n_replicas);
  f("byz_no", c.byz_no);
  f("strategy", c.strategy);
  f("election", c.election);
  f("bsize", c.bsize);
  f("psize", c.psize);
  f("memsize", c.memsize);
  f("delay_ms", ms(c.delay));
  f("delay_jitter_ms", ms(c.delay_jitter));
  f("timeout_ms", ms(c.timeout));
  f("link_model", c.link_model);
  f("link_shape", c.link_shape);
  f("link_loss", c.link_loss);
  f("topology", c.topology);
  f("churn", c.churn);
  f("ge_p", c.ge_p);
  f("ge_r", c.ge_r);
  f("ge_loss_good", c.ge_loss_good);
  f("ge_loss_bad", c.ge_loss_bad);
  f("sync_batch", c.sync_batch);
  f("sync_timeout_ms", ms(c.sync_timeout));
  f("sync_retries", c.sync_retries);
  f("sync_pipeline", c.sync_pipeline);
  f("snapshot_gap", c.snapshot_gap);
  f("store", c.store);
  f("retention", c.retention);
  f("verify_strategy", c.verify_strategy);
  f("cpu_workers", c.cpu_workers);
  f("cpu_verify_per_sig_us", us(c.cpu_verify_per_sig));
  f("cpu_verify_batch_base_us", us(c.cpu_verify_batch_base));
  f("cpu_verify_batch_per_sig_us", us(c.cpu_verify_batch_per_sig));
  f("mode", ModeName(w.mode));
  f("concurrency", w.concurrency);
  f("arrival_rate_tps", w.arrival_rate_tps);
  f("arrival", w.arrival);
  f("client_population", w.client_population);
  f("admission", c.admission);
  f("seed", Decimal(c.seed));
  f("base_seed", Decimal(r.prov.base_seed));
  f("warmup_s", r.prov.opts.warmup_s);
  f("measure_s", r.prov.opts.measure_s);
  f("offered", r.prov.offered);
  for (const Metric& m : run_metrics()) {
    std::visit([&](auto member) { f(m.name, r.result.*member); }, m.member);
    if (m.ci != nullptr) f(std::string(m.name) + "_ci95", r.ci.*m.ci);
  }
}

template <typename T>
std::string csv_cell(const T& v) {
  if constexpr (CellAdapter<T>) {
    return csv_cell(v.shown());
  } else if constexpr (std::is_same_v<T, std::string>) {
    return csv_escape(v);
  } else if constexpr (std::is_same_v<T, double>) {
    return util::Json::number_to_string(v);
  } else if constexpr (std::is_same_v<T, bool>) {
    return v ? "true" : "false";
  } else {
    return std::to_string(v);
  }
}

template <typename T>
util::Json json_cell(const T& v) {
  if constexpr (CellAdapter<T>) {
    return util::Json(v.shown());
  } else if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>) {
    return util::Json(static_cast<std::int64_t>(v));
  } else {
    return util::Json(v);
  }
}

/// Overwrite `field` from `v` when `v` has the field's JSON type; any
/// other value leaves the default-constructed Record's value in place.
/// An adapter throws std::invalid_argument naming `column` for a value it
/// cannot decode.
template <typename T>
void decode_cell(std::string_view column, const util::Json& v, T&& field) {
  using U = std::remove_cvref_t<T>;
  if constexpr (CellAdapter<U>) {
    field.read(column, v);
  } else if constexpr (std::is_same_v<U, std::string>) {
    if (v.is_string()) field = v.as_string();
  } else if constexpr (std::is_same_v<U, bool>) {
    if (v.is_bool()) field = v.as_bool();
  } else if constexpr (std::is_same_v<U, double>) {
    if (v.is_number()) field = v.as_number();
  } else if (v.is_number()) {
    field = static_cast<U>(v.as_int());
  }
}

}  // namespace

const std::vector<std::string>& csv_columns() {
  static const std::vector<std::string> columns = [] {
    std::vector<std::string> names;
    const Record blank;
    for_each_column(blank, [&](std::string_view name, const auto&) {
      names.emplace_back(name);
    });
    return names;
  }();
  return columns;
}

std::string csv_header() {
  std::string out;
  for (const std::string& c : csv_columns()) {
    if (!out.empty()) out += ',';
    out += c;
  }
  return out;
}

std::string csv_row(const Record& r) {
  // Joined by position: an empty leading cell still gets its separator.
  std::string out;
  bool first = true;
  for_each_column(r, [&](std::string_view, const auto& field) {
    if (!first) out += ',';
    first = false;
    out += csv_cell(field);
  });
  return out;
}

util::Json to_json(const Record& r) {
  util::Json::Object o;
  for_each_column(r, [&](std::string_view name, const auto& field) {
    o.emplace(std::string(name), json_cell(field));
  });
  return util::Json(std::move(o));
}

Record record_from_json(const util::Json& j) {
  if (!j.is_object()) {
    throw std::invalid_argument("report record must be a JSON object");
  }
  Record r;
  for_each_column(r, [&](std::string_view name, auto&& field) {
    if (const util::Json* v = j.find(name)) {
      decode_cell(name, *v, std::forward<decltype(field)>(field));
    }
  });
  return r;
}

std::vector<Record> records_from_json_text(const std::string& text) {
  const util::Json doc = util::Json::parse(text);
  const util::Json* records = doc.find("records");
  if (records == nullptr || !records->is_array()) {
    throw std::invalid_argument("artifact document has no records array");
  }
  std::vector<Record> out;
  out.reserve(records->as_array().size());
  for (const util::Json& j : records->as_array()) {
    out.push_back(record_from_json(j));
  }
  return out;
}

std::string CsvSink::serialize() const {
  std::string out = csv_header();
  out += '\n';
  for (const std::string& row : rows_) {
    out += row;
    out += '\n';
  }
  return out;
}

std::string JsonSink::serialize() const {
  util::Json::Object doc;
  doc.emplace("records", util::Json(records_));
  doc.emplace("schema", util::Json(kRecordSchema));
  return util::Json(std::move(doc)).dump() + "\n";
}

// --- artifact directory ----------------------------------------------------

ArtifactWriter::ArtifactWriter(std::string out_dir, std::string bench,
                               std::vector<std::string> formats, Shard shard)
    : out_dir_(std::move(out_dir)),
      bench_(std::move(bench)),
      formats_(std::move(formats)),
      shard_(shard) {}

void ArtifactWriter::add(const std::string& artifact, const Record& r) {
  if (!enabled()) return;
  records_[artifact].push_back(r);
}

namespace {

void write_file(const std::filesystem::path& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("cannot write artifact file: " + path.string());
  }
  out << body;
}

}  // namespace

std::vector<ArtifactFile> ArtifactWriter::finish() {
  std::vector<ArtifactFile> written;
  if (!enabled()) return written;
  namespace fs = std::filesystem;
  const fs::path dir(out_dir_);
  fs::create_directories(dir);

  const std::string tag = shard_.label();
  const auto filename = [&](const std::string& artifact,
                            const std::string& format) {
    std::string name = artifact;
    if (!tag.empty()) name += "." + tag;
    return name + "." + format;
  };

  util::Json::Array manifest_artifacts;
  // std::map iteration = deterministic alphabetical artifact order, the
  // same order merge_records groups by — keeps merged output byte-identical.
  for (const auto& [artifact, records] : records_) {
    util::Json::Array files;
    for (const std::string& format : formats_) {
      CsvSink csv;
      JsonSink json;
      ResultSink& sink = format == "csv" ? static_cast<ResultSink&>(csv) : json;
      for (const Record& r : records) sink.add(r);
      const std::string name = filename(artifact, format);
      write_file(dir / name, sink.serialize());
      written.push_back(ArtifactFile{artifact, format, name, records.size()});
      util::Json::Object f;
      f.emplace("format", util::Json(format));
      f.emplace("path", util::Json(name));
      f.emplace("records",
                util::Json(static_cast<std::int64_t>(records.size())));
      files.emplace_back(std::move(f));
    }
    util::Json::Object a;
    a.emplace("files", util::Json(std::move(files)));
    a.emplace("name", util::Json(artifact));
    manifest_artifacts.emplace_back(std::move(a));
  }

  util::Json::Object manifest;
  manifest.emplace("artifacts", util::Json(std::move(manifest_artifacts)));
  manifest.emplace("bench", util::Json(bench_));
  {
    util::Json::Array fmts;
    for (const std::string& f : formats_) fmts.emplace_back(f);
    manifest.emplace("formats", util::Json(std::move(fmts)));
  }
  manifest.emplace("schema", util::Json(kManifestSchema));
  {
    util::Json::Object s;
    s.emplace("count", util::Json(static_cast<std::int64_t>(shard_.count)));
    s.emplace("index", util::Json(static_cast<std::int64_t>(shard_.index)));
    manifest.emplace("shard", util::Json(std::move(s)));
  }
  const std::string manifest_name =
      tag.empty() ? "manifest.json" : "manifest." + tag + ".json";
  write_file(dir / manifest_name,
             util::Json(std::move(manifest)).dump() + "\n");
  written.push_back(ArtifactFile{"manifest", "json", manifest_name, 0});
  return written;
}

// --- shard merge -----------------------------------------------------------

std::vector<Record> merge_records(std::vector<Record> rows) {
  // Aggregates are regenerated from the run rows; run and timeline rows
  // are the durable per-shard data.
  std::erase_if(rows, [](const Record& r) {
    return r.kind != "run" && r.kind != "timeline";
  });
  std::sort(rows.begin(), rows.end(), [](const Record& a, const Record& b) {
    return std::tie(a.bench, a.artifact, a.spec_index, a.kind, a.rep) <
           std::tie(b.bench, b.artifact, b.spec_index, b.kind, b.rep);
  });

  std::vector<Record> out;
  std::size_t i = 0;
  while (i < rows.size()) {
    // One (bench, artifact, spec_index, kind) group = one spec's rep set
    // (kind "run") or one spec's timeline buckets (kind "timeline").
    std::size_t end = i;
    while (end < rows.size() && rows[end].bench == rows[i].bench &&
           rows[end].artifact == rows[i].artifact &&
           rows[end].spec_index == rows[i].spec_index &&
           rows[end].kind == rows[i].kind) {
      ++end;
    }
    if (rows[i].kind == "timeline") {
      // A spec's timeline comes wholly from the shard that ran it; a
      // duplicate bucket means the same shard file was merged twice.
      for (std::size_t j = i + 1; j < end; ++j) {
        if (rows[j].rep == rows[j - 1].rep) {
          throw std::invalid_argument(
              "duplicate timeline bucket " + std::to_string(rows[j].rep) +
              " for spec " + std::to_string(rows[j].spec_index) + " of " +
              rows[j].artifact);
        }
      }
      for (std::size_t j = i; j < end; ++j) out.push_back(std::move(rows[j]));
      i = end;
      continue;
    }
    std::vector<RunResult> results;
    for (std::size_t j = i; j < end; ++j) {
      const std::uint32_t expected_rep = static_cast<std::uint32_t>(j - i);
      if (rows[j].rep != expected_rep) {
        throw std::invalid_argument(
            rows[j].rep < expected_rep
                ? "duplicate rep " + std::to_string(rows[j].rep) +
                      " for spec " + std::to_string(rows[j].spec_index) +
                      " of " + rows[j].artifact
                : "missing rep " + std::to_string(expected_rep) +
                      " for spec " + std::to_string(rows[j].spec_index) +
                      " of " + rows[j].artifact);
      }
      results.push_back(rows[j].result);
    }
    if (results.size() != rows[i].reps) {
      throw std::invalid_argument(
          "incomplete rep set for spec " + std::to_string(rows[i].spec_index) +
          " of " + rows[i].artifact + ": have " +
          std::to_string(results.size()) + ", want " +
          std::to_string(rows[i].reps));
    }
    Record agg = aggregate_from(rows[i].bench, rows[i].artifact,
                                rows[i].series, rows[i].spec_index,
                                rows[i].prov, results);
    for (std::size_t j = i; j < end; ++j) out.push_back(std::move(rows[j]));
    out.push_back(std::move(agg));
    i = end;
  }
  return out;
}

}  // namespace bamboo::harness::report
