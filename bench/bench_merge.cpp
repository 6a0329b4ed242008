// bench_merge: union the result files written by N `--shard i/n` bench
// processes (possibly on N machines) and regenerate the per-spec aggregate
// rows + 95% CIs. The merged directory is bit-identical to what the same
// bench writes unsharded: per-run rows are reordered by (artifact,
// spec_index, rep) and aggregates are refolded in rep order by the same
// report::make_aggregate_record fold the unsharded run uses.
//
//   bench_merge --out merged/ shards/            # dir: reads manifest*.json
//   bench_merge --out merged/ a/manifest.shard1of3.json b/... c/...

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness/report.h"
#include "harness/table.h"
#include "util/json.h"

namespace {

namespace fs = std::filesystem;
using bamboo::harness::report::Record;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot read: " + path.string());
  }
  std::ostringstream body;
  body << in.rdbuf();
  return body.str();
}

/// Expand an input argument into manifest paths (sorted for determinism).
std::vector<fs::path> find_manifests(const std::string& arg) {
  std::vector<fs::path> manifests;
  const fs::path p(arg);
  if (fs::is_directory(p)) {
    for (const auto& entry : fs::directory_iterator(p)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("manifest", 0) == 0 && entry.path().extension() == ".json") {
        manifests.push_back(entry.path());
      }
    }
    std::sort(manifests.begin(), manifests.end());
  } else {
    manifests.push_back(p);
  }
  return manifests;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bamboo;

  std::string out_dir;
  std::vector<std::string> inputs;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::cout << "usage: " << argv[0]
                << " --out DIR <shard-dir-or-manifest.json>...\n"
                << "Unions per-run result rows from --shard i/n bench runs\n"
                << "and recomputes aggregate rows + 95% CIs; the merged\n"
                << "directory is bit-identical to the unsharded run's.\n";
      return 0;
    } else {
      inputs.push_back(argv[i]);
    }
  }
  if (out_dir.empty() || inputs.empty()) {
    std::cerr << "usage: " << argv[0]
              << " --out DIR <shard-dir-or-manifest.json>...\n";
    return 2;
  }

  try {
    std::vector<Record> rows;
    std::string bench;
    std::vector<std::string> formats;
    std::size_t manifests_read = 0;

    for (const std::string& input : inputs) {
      for (const fs::path& manifest_path : find_manifests(input)) {
        const util::Json manifest =
            util::Json::parse(read_file(manifest_path));
        const std::string this_bench = manifest.get_string("bench", "");
        if (bench.empty()) {
          bench = this_bench;
        } else if (bench != this_bench) {
          throw std::runtime_error("manifests from different benches: '" +
                                   bench + "' vs '" + this_bench + "' in " +
                                   manifest_path.string());
        }
        if (formats.empty()) {
          if (const util::Json* fmts = manifest.find("formats");
              fmts != nullptr && fmts->is_array()) {
            for (const util::Json& f : fmts->as_array()) {
              formats.push_back(f.as_string());
            }
          }
        }
        const util::Json* artifacts = manifest.find("artifacts");
        if (artifacts == nullptr || !artifacts->is_array()) continue;
        for (const util::Json& artifact : artifacts->as_array()) {
          const util::Json* files = artifact.find("files");
          if (files == nullptr || !files->is_array()) continue;
          for (const util::Json& file : files->as_array()) {
            if (file.get_string("format", "") != "json") continue;
            const fs::path path =
                manifest_path.parent_path() / file.get_string("path", "");
            const util::Json doc = util::Json::parse(read_file(path));
            if (doc.find("records") == nullptr) {
              std::cerr << "note: skipping non-record artifact "
                        << path.filename().string() << "\n";
              continue;
            }
            for (const util::Json& j : doc.find("records")->as_array()) {
              rows.push_back(harness::report::record_from_json(j));
            }
          }
        }
        ++manifests_read;
      }
    }
    if (manifests_read == 0) {
      throw std::runtime_error("no manifest*.json found in the inputs");
    }
    if (formats.empty()) formats = {"csv", "json"};

    const std::vector<Record> merged =
        harness::report::merge_records(std::move(rows));

    harness::report::ArtifactWriter writer(out_dir, bench, formats);
    for (const Record& r : merged) writer.add(r.artifact, r);
    const auto written = writer.finish();

    std::cout << "merged " << manifests_read << " shard manifest(s) of '"
              << bench << "' -> " << out_dir << "\n\n";
    harness::TextTable table({"artifact", "series", "offered", "reps",
                              "thr(KTx/s)", "lat(ms)", "safety"});
    using harness::RunResult;
    using harness::report::ci_cell;
    for (const Record& r : merged) {
      if (r.kind != "aggregate") continue;
      table.add_row(
          {r.artifact, r.series, harness::TextTable::num(r.prov.offered, 0),
           std::to_string(r.reps),
           ci_cell(r, &RunResult::throughput_tps, 1e-3, 1),
           ci_cell(r, &RunResult::latency_ms_mean, 1.0, 1),
           r.result.consistent ? "ok" : "VIOLATED"});
    }
    table.print(std::cout);
    std::cout << "\nfiles:\n";
    for (const auto& f : written) std::cout << "  " << f.path << "\n";
  } catch (const std::exception& e) {
    std::cerr << "bench_merge: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
