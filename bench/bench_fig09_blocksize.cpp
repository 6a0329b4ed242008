// Figure 9: throughput vs latency for block sizes 100/400/800, protocols
// HS / 2CHS / SL plus the original-HotStuff (OHS) baseline profile at
// b100/b800. Closed-loop concurrency is raised until saturation, exactly
// the paper's methodology. Expected shapes: L-curves; a large gain from
// b100 -> b400 and a small one from b400 -> b800; SL lowest throughput;
// OHS slightly ahead of Bamboo-HS.
//
// Every (protocol, bsize, concurrency) point is an independent RunSpec;
// the whole grid is submitted to the ParallelRunner in one call.

#include <algorithm>

#include "bench_common.h"
#include "client/workload.h"

int main(int argc, char** argv) {
  using namespace bamboo;
  const auto args = bench::parse_args(argc, argv);

  bench::print_header("Figure 9 — throughput vs latency by block size",
                      "series <proto>-b<bsize>; zero-payload transactions");

  const std::vector<std::uint32_t> block_sizes = {100, 400, 800};
  std::vector<std::uint32_t> ladder = {64, 256, 1024, 2048, 4096};
  if (args.full) ladder.push_back(8192);

  harness::RunOptions opts;
  opts.warmup_s = 0.3;
  opts.measure_s = args.full ? 2.0 : 0.8;

  std::vector<harness::RunSpec> grid;
  std::vector<bench::SeriesSlice> series;
  auto add_series = [&](const std::string& protocol, std::uint32_t bsize) {
    core::Config cfg;
    cfg.protocol = protocol;
    cfg.n_replicas = 4;
    cfg.bsize = bsize;
    cfg.psize = 0;
    cfg.memsize = 200000;
    cfg.seed = bench::seed_or(args, 9);
    client::WorkloadConfig wl;
    const std::string label =
        std::string(bench::short_name(protocol)) + "-b" +
        std::to_string(bsize);
    bench::append_series(grid, series, label,
                         harness::closed_loop_specs(cfg, wl, ladder, opts));
  };

  for (const std::string& protocol : bench::evaluated_protocols()) {
    for (std::uint32_t bsize : block_sizes) add_series(protocol, bsize);
  }
  add_series("ohs", 100);
  add_series("ohs", 800);

  bench::apply_duration(grid, args);
  bench::Reporter reporter(args, "fig09_blocksize");
  const auto rows =
      reporter.run("fig09_blocksize", grid, bench::series_labels(series));

  harness::TextTable table(bench::sweep_headers("clients"));
  bench::print_series(table, grid, series, rows);
  table.print(std::cout);

  double ohs_b100_peak = 0;
  for (const auto& s : series) {
    if (s.label != "OHS-b100") continue;
    for (std::size_t i = 0; i < s.count; ++i) {
      const auto& a = rows[s.begin + i].aggregate;
      if (!a) continue;
      ohs_b100_peak = std::max(ohs_b100_peak, a->result.throughput_tps);
    }
  }

  std::cout << "\nresult: expect b100 << b400, b400 -> b800 marginal, SL\n"
               "lowest, OHS >= Bamboo-HS (paper Fig. 9). OHS-b100 peak: "
            << static_cast<long>(ohs_b100_peak / 1e3) << " KTx/s\n";
  reporter.finish();
  return 0;
}
