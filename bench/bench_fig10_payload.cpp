// Figure 10: throughput vs latency for transaction payload sizes 0, 128,
// and 1024 bytes (block size 400). Expected shapes: all protocols lose
// throughput as payloads grow (NIC bytes dominate); Streamlet is the most
// payload-sensitive (message echoing multiplies the bytes); the HS-vs-2CHS
// latency gap narrows at p1024 because transmission delay dominates the
// extra voting round.
//
// The full (protocol, psize, concurrency) grid runs through the
// ParallelRunner in a single submission.

#include "bench_common.h"
#include "client/workload.h"

int main(int argc, char** argv) {
  using namespace bamboo;
  const auto args = bench::parse_args(argc, argv);

  bench::print_header("Figure 10 — throughput vs latency by payload size",
                      "series <proto>-p<bytes>; block size 400");

  const std::vector<std::uint32_t> payloads = {0, 128, 1024};
  std::vector<std::uint32_t> ladder = {64, 256, 1024, 2048, 4096};
  if (args.full) ladder.push_back(8192);

  harness::RunOptions opts;
  opts.warmup_s = 0.3;
  opts.measure_s = args.full ? 2.0 : 0.8;

  std::vector<harness::RunSpec> grid;
  std::vector<bench::SeriesSlice> series;
  for (const std::string& protocol : bench::evaluated_protocols()) {
    for (std::uint32_t psize : payloads) {
      core::Config cfg;
      cfg.protocol = protocol;
      cfg.n_replicas = 4;
      cfg.bsize = 400;
      cfg.psize = psize;
      cfg.memsize = 200000;
      cfg.seed = bench::seed_or(args, 10);
      client::WorkloadConfig wl;
      const std::string label =
          std::string(bench::short_name(protocol)) + "-p" +
          std::to_string(psize);
      bench::append_series(grid, series, label,
                           harness::closed_loop_specs(cfg, wl, ladder, opts));
    }
  }

  bench::apply_duration(grid, args);
  bench::Reporter reporter(args, "fig10_payload");
  const auto rows =
      reporter.run("fig10_payload", grid, bench::series_labels(series));

  harness::TextTable table(bench::sweep_headers("clients"));
  bench::print_series(table, grid, series, rows);
  table.print(std::cout);
  std::cout << "\nresult: larger payloads cut saturation throughput for\n"
               "every protocol; SL most sensitive; HS/2CHS latency gap\n"
               "narrows with payload (paper Fig. 10).\n";
  reporter.finish();
  return 0;
}
