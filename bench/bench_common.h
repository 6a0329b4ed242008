#pragma once

// Shared plumbing for the per-figure bench binaries: one CLI layer
// (--full/--threads/--seed/--reps/--duration/--out/--format/--shard), the
// Reporter that routes every RunSpec grid through multi-seed repetition +
// the report sinks (tables print the aggregate rows, with 95% CIs, that
// land on disk), and the standard column set printed for
// latency/throughput sweeps.

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/runner.h"
#include "harness/table.h"
#include "util/parse.h"

namespace bamboo::bench {

struct Args {
  bool full = false;       ///< longer windows / more points
  unsigned threads = 0;    ///< 0 = auto (BAMBOO_THREADS or all cores)
  std::uint64_t seed = 0;  ///< 0 = keep each bench's published default
  std::uint32_t reps = 1;  ///< seeds per spec (CIs need >= 2)
  double duration = 0;     ///< >0 overrides every measurement window (s)
  std::string out;         ///< artifact directory; empty = don't persist
  std::vector<std::string> formats = {"csv", "json"};
  harness::Shard shard;    ///< --shard i/n cross-process slice
};

inline std::vector<std::string> parse_formats(const std::string& list) {
  std::vector<std::string> formats;
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    const std::string f = list.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (f != "csv" && f != "json") {
      std::cerr << "unknown --format '" << f << "' (want csv and/or json)\n";
      std::exit(2);
    }
    formats.push_back(f);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return formats;
}

inline void print_usage(std::ostream& out, const char* argv0) {
  out << "usage: " << argv0
      << " [--full] [--threads N] [--seed S] [--reps R]\n"
      << "       [--duration S] [--out DIR] [--format csv,json]"
      << " [--shard i/n]\n"
      << "  --full        longer measurement windows and denser sweeps\n"
      << "  --threads N   worker threads for the run grid (default:\n"
      << "                BAMBOO_THREADS env var, else all cores)\n"
      << "  --seed S      override the bench's default base seed\n"
      << "  --reps R      repetitions per sweep point under seeds\n"
      << "                S..S+R-1; tables then show mean ± 95% CI\n"
      << "  --duration S  override every measurement window (smoke runs)\n"
      << "  --out DIR     persist results: one CSV/JSON file per\n"
      << "                figure/table plus manifest.json\n"
      << "  --format F    comma list of csv,json (default both)\n"
      << "  --shard i/n   run only the i-th of n deterministic slices of\n"
      << "                the (spec x rep) grid; merge the per-shard\n"
      << "                files with bench_merge\n";
}

/// Refuse a malformed command line before anything runs: the reason and
/// the usage text on stderr, exit status 2.
[[noreturn]] inline void usage_error(const char* argv0,
                                     const std::string& why) {
  std::cerr << argv0 << ": " << why << "\n";
  print_usage(std::cerr, argv0);
  std::exit(2);
}

/// Parse the shared bench CLI. An unknown argument, a flag without its
/// value, a --threads, --seed or --reps value that is not a whole decimal
/// number, --reps 0, and a --duration that is not a finite positive number
/// are usage_errors.
inline Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&] {
      if (i + 1 >= argc) usage_error(argv[0], flag + " needs a value");
      return std::string(argv[++i]);
    };
    if (flag == "--full") {
      args.full = true;
    } else if (flag == "--threads") {
      const std::string text = value();
      const auto threads = util::parse_unsigned(
          text, std::numeric_limits<unsigned>::max());
      if (!threads) {
        usage_error(argv[0],
                    "--threads needs a whole number, got '" + text + "'");
      }
      args.threads = static_cast<unsigned>(*threads);
    } else if (flag == "--seed") {
      const std::string text = value();
      const auto seed = util::parse_unsigned(text);
      if (!seed) {
        usage_error(argv[0],
                    "--seed needs a whole number, got '" + text + "'");
      }
      args.seed = *seed;
    } else if (flag == "--reps") {
      const std::string text = value();
      const auto reps = util::parse_unsigned(
          text, std::numeric_limits<std::uint32_t>::max());
      if (!reps || *reps == 0) {
        usage_error(argv[0], "--reps needs a positive whole number, got '" +
                                 text + "'");
      }
      args.reps = static_cast<std::uint32_t>(*reps);
    } else if (flag == "--duration") {
      const std::string text = value();
      const auto duration = util::parse_finite_double(text);
      if (!duration || *duration <= 0) {
        usage_error(argv[0], "--duration needs a positive number of "
                             "seconds, got '" + text + "'");
      }
      args.duration = *duration;
    } else if (flag == "--out") {
      args.out = value();
    } else if (flag == "--format") {
      args.formats = parse_formats(value());
    } else if (flag == "--shard") {
      try {
        args.shard = harness::Shard::parse(value());
      } catch (const std::exception& e) {
        std::cerr << e.what() << "\n";
        std::exit(2);
      }
    } else if (flag == "--help") {
      print_usage(std::cout, argv[0]);
      std::exit(0);
    } else {
      usage_error(argv[0], "unknown argument '" + flag + "'");
    }
  }
  return args;
}

/// The bench's published default seed unless --seed overrode it.
inline std::uint64_t seed_or(const Args& args, std::uint64_t fallback) {
  return args.seed != 0 ? args.seed : fallback;
}

/// Apply the global --duration override to a built grid.
inline void apply_duration(std::vector<harness::RunSpec>& grid,
                           const Args& args) {
  if (args.duration <= 0) return;
  for (harness::RunSpec& spec : grid) {
    spec.opts.measure_s = args.duration;
    spec.opts.warmup_s = std::min(spec.opts.warmup_s, args.duration / 2);
  }
}

inline void print_header(const std::string& title,
                         const std::string& subtitle) {
  std::cout << "\n=== " << title << " ===\n";
  if (!subtitle.empty()) std::cout << subtitle << "\n";
  std::cout << "\n";
}

/// Mean over a spec's reps of a value the table derives per run (views/s,
/// MB/s). run_metrics() metrics are read from the aggregate row instead.
template <typename Fn>
double per_run_mean(const harness::report::SpecRows& rows, Fn&& per_run) {
  if (rows.runs.empty()) return 0.0;
  double sum = 0;
  for (const harness::report::Record& r : rows.runs) sum += per_run(r.result);
  return sum / static_cast<double>(rows.runs.size());
}

/// "mean±ci" cell for a kMeanCi metric of an aggregate row.
using harness::report::ci_cell;

/// Append one sweep point (multi-seed aggregate) with the standard columns.
inline void add_sweep_row(harness::TextTable& table, const std::string& label,
                          double offered, const harness::report::Record& agg) {
  using harness::RunResult;
  table.add_row({label, harness::TextTable::num(offered, 0),
                 ci_cell(agg, &RunResult::throughput_tps, 1e-3, 1),
                 ci_cell(agg, &RunResult::latency_ms_mean, 1.0, 1),
                 ci_cell(agg, &RunResult::latency_ms_p99, 1.0, 1),
                 agg.result.consistent ? "ok" : "VIOLATED"});
}

inline std::vector<std::string> sweep_headers(const std::string& offered) {
  return {"series", offered, "thr(KTx/s)", "lat(ms)", "p99(ms)", "safety"};
}

/// A labelled slice of one flat RunSpec grid: bench binaries append every
/// series' specs into a single vector, submit it to the ParallelRunner in
/// one call (maximum overlap across series), then print per-series slices.
struct SeriesSlice {
  std::string label;
  std::size_t begin = 0;
  std::size_t count = 0;
};

inline void append_series(std::vector<harness::RunSpec>& grid,
                          std::vector<SeriesSlice>& series,
                          const std::string& label,
                          std::vector<harness::RunSpec> specs) {
  series.push_back(SeriesSlice{label, grid.size(), specs.size()});
  for (auto& spec : specs) grid.push_back(std::move(spec));
}

/// Label lookup over the series slices for a flat grid index.
inline std::function<std::string(std::size_t)> series_labels(
    const std::vector<SeriesSlice>& series) {
  return [&series](std::size_t index) {
    for (const SeriesSlice& s : series) {
      if (index >= s.begin && index < s.begin + s.count) return s.label;
    }
    return std::string("?");
  };
}

/// Print every series slice of a sweep grid with the standard columns.
inline void print_series(harness::TextTable& table,
                         const std::vector<harness::RunSpec>& grid,
                         const std::vector<SeriesSlice>& series,
                         const std::vector<harness::report::SpecRows>& rows) {
  for (const SeriesSlice& s : series) {
    for (std::size_t i = 0; i < s.count; ++i) {
      const auto& agg = rows[s.begin + i].aggregate;
      if (!agg) continue;  // not owned by this shard
      add_sweep_row(table, s.label, grid[s.begin + i].offered, *agg);
    }
  }
}

/// Runs grids through multi-seed repetition + the result sinks: the glue
/// every bench binary shares. One Reporter per binary; run() per figure
/// artifact; finish() writes the artifact directory.
class Reporter {
 public:
  Reporter(Args args, std::string bench)
      : args_(std::move(args)),
        bench_(std::move(bench)),
        runner_(harness::RunnerOptions{args_.threads}),
        writer_(args_.out, bench_, args_.formats, args_.shard) {}

  [[nodiscard]] const Args& args() const { return args_; }
  [[nodiscard]] harness::ParallelRunner& runner() { return runner_; }
  [[nodiscard]] bool sharded() const { return args_.shard.enabled(); }

  /// Execute grid x --reps (this shard's slice) in one submission and
  /// persist every row report::grid_rows builds: one run row per (spec,
  /// rep) plus one aggregate row per complete spec. Returns those rows,
  /// so a table prints exactly the aggregate row --out persists; specs
  /// owned by other shards come back empty.
  std::vector<harness::report::SpecRows> run(
      const std::string& artifact, const std::vector<harness::RunSpec>& grid,
      const std::function<std::string(std::size_t)>& series_of) {
    const auto grid_run =
        runner_.run_repeated_grid(grid, args_.reps, args_.shard);
    auto rows =
        harness::report::grid_rows(bench_, artifact, grid, grid_run, series_of);
    for (const harness::report::SpecRows& spec : rows) {
      for (const harness::report::Record& r : spec.runs) {
        writer_.add(artifact, r);
      }
      if (spec.aggregate) writer_.add(artifact, *spec.aggregate);
    }
    executed_ += grid_run.jobs.size();
    total_ += grid.size() * args_.reps;
    return rows;
  }

  /// Single-seed execute_full for timeline benches, sharded per spec;
  /// persists one run + one (1-rep) aggregate row per owned spec, plus —
  /// when the spec captured a timeline — one "timeline" record per bucket
  /// under the `<artifact>_timeline` artifact. Timeline records survive
  /// bench_merge (unlike free-form side tables), so a sharded timeline
  /// bench merges bit-identically to the unsharded run.
  std::vector<std::optional<harness::RunOutput>> run_full(
      const std::string& artifact, const std::vector<harness::RunSpec>& grid,
      const std::function<std::string(std::size_t)>& series_of) {
    std::vector<harness::RunSpec> owned;
    std::vector<std::size_t> owned_index;
    for (std::size_t s = 0; s < grid.size(); ++s) {
      if (!args_.shard.owns(s)) continue;
      owned.push_back(grid[s]);
      owned_index.push_back(s);
    }
    const auto outputs = runner_.run_full(owned);
    std::vector<std::optional<harness::RunOutput>> out(grid.size());
    for (std::size_t k = 0; k < outputs.size(); ++k) {
      const std::size_t s = owned_index[k];
      if (writer_.enabled()) {
        const std::string label = series_of(s);
        const auto idx = static_cast<std::uint32_t>(s);
        writer_.add(artifact, harness::report::make_run_record(
                                  bench_, artifact, label, idx, grid[s], 0, 1,
                                  outputs[k].result));
        writer_.add(artifact, harness::report::make_aggregate_record(
                                  bench_, artifact, label, idx, grid[s],
                                  {outputs[k].result}));
        if (!outputs[k].tx_per_s.empty()) {
          const std::string timeline_artifact = artifact + "_timeline";
          for (auto& rec : harness::report::make_timeline_records(
                   bench_, timeline_artifact, label, idx, grid[s],
                   outputs[k])) {
            writer_.add(timeline_artifact, rec);
          }
        }
      }
      out[s] = outputs[k];
    }
    executed_ += outputs.size();
    total_ += grid.size();
    return out;
  }

  /// Write the artifact directory (if --out) and print what happened.
  void finish() {
    if (sharded()) {
      std::cout << "\nshard " << args_.shard.index + 1 << "/"
                << args_.shard.count << ": executed " << executed_ << " of "
                << total_ << " jobs; merge shard files with bench_merge\n";
    }
    const auto files = writer_.finish();
    if (!files.empty()) {
      std::cout << "\nartifacts (" << bench_ << ") -> " << args_.out << ":\n";
      for (const auto& f : files) {
        std::cout << "  " << f.path << "\n";
      }
    }
  }

 private:
  Args args_;
  std::string bench_;
  harness::ParallelRunner runner_;
  harness::report::ArtifactWriter writer_;
  std::size_t executed_ = 0;
  std::size_t total_ = 0;
};

/// The paper's three evaluated protocols.
inline const std::vector<std::string>& evaluated_protocols() {
  static const std::vector<std::string> names = {"hotstuff", "2chs",
                                                 "streamlet"};
  return names;
}

inline const char* short_name(const std::string& protocol) {
  if (protocol == "hotstuff") return "HS";
  if (protocol == "2chs") return "2CHS";
  if (protocol == "streamlet") return "SL";
  if (protocol == "fasthotstuff") return "FHS";
  if (protocol == "fnfbft") return "FnF";
  if (protocol == "ohs") return "OHS";
  return protocol.c_str();
}

}  // namespace bamboo::bench
