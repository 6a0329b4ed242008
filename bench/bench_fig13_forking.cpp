// Figure 13: the forking attack — 32 replicas, 0..10 Byzantine proposers
// forking the uncommitted tail. Four panels: throughput, latency, chain
// growth rate, block intervals. Expected shapes: Streamlet flat on every
// metric (immune); 2CHS strictly better than HS on every metric (its
// attacker overwrites one block per fork, HS's two); BI starts at 3 (HS)
// vs 2 (2CHS); HS latency grows fastest (forked transactions recycle
// through the mempool).
//
// One RunSpec per (protocol, byz) cell, fanned across the ParallelRunner.

#include "bench_common.h"
#include "client/workload.h"

int main(int argc, char** argv) {
  using namespace bamboo;
  const auto args = bench::parse_args(argc, argv);

  bench::print_header(
      "Figure 13 — forking attack (32 replicas, byz 0..10)",
      "CGR = committed blocks / appended blocks (the share no fork "
      "overwrites);"
      "\nCGRv = committed blocks / views (Eq. 1)");

  std::vector<std::uint32_t> byz_counts = {0, 2, 4, 6, 8, 10};
  if (args.full) byz_counts = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10};

  harness::RunOptions opts;
  opts.warmup_s = 0.4;
  opts.measure_s = args.full ? 4.0 : 1.5;

  std::vector<harness::RunSpec> grid;
  for (const std::string& protocol : bench::evaluated_protocols()) {
    for (std::uint32_t byz : byz_counts) {
      harness::RunSpec spec;
      spec.cfg.protocol = protocol;
      spec.cfg.n_replicas = 32;
      spec.cfg.byz_no = byz;
      spec.cfg.strategy = "forking";
      spec.cfg.bsize = 400;
      spec.cfg.psize = 128;
      spec.cfg.memsize = 200000;
      spec.cfg.seed = bench::seed_or(args, 13);
      spec.workload.concurrency = 512;
      spec.workload.session_timeout = sim::milliseconds(300);
      spec.opts = opts;
      spec.offered = byz;
      grid.push_back(std::move(spec));
    }
  }

  bench::apply_duration(grid, args);
  bench::Reporter reporter(args, "fig13_forking");
  const std::size_t per_series = byz_counts.size();
  const auto series_of = [&](std::size_t index) {
    return std::string(
        bench::short_name(bench::evaluated_protocols()[index / per_series]));
  };
  const auto rows = reporter.run("fig13_forking", grid, series_of);
  using harness::RunResult;

  harness::TextTable table({"series", "byz", "thr(KTx/s)", "lat(ms)", "CGR",
                            "CGRv", "BI", "forked", "safety"});
  std::size_t i = 0;
  for (const std::string& protocol : bench::evaluated_protocols()) {
    for (std::uint32_t byz : byz_counts) {
      const std::size_t index = i++;
      if (!rows[index].aggregate) continue;  // another shard's cell
      const harness::report::Record& a = *rows[index].aggregate;
      table.add_row({std::string(bench::short_name(protocol)),
                     std::to_string(byz),
                     bench::ci_cell(a, &RunResult::throughput_tps, 1e-3, 1),
                     bench::ci_cell(a, &RunResult::latency_ms_mean, 1.0, 1),
                     bench::ci_cell(a, &RunResult::cgr_per_block, 1.0, 2),
                     bench::ci_cell(a, &RunResult::cgr_per_view, 1.0, 2),
                     bench::ci_cell(a, &RunResult::block_interval, 1.0, 1),
                     std::to_string(a.result.blocks_forked),
                     a.result.consistent ? "ok" : "VIOLATED"});
    }
  }
  table.print(std::cout);
  std::cout << "\nresult: SL flat across metrics; 2CHS > HS everywhere; BI\n"
               "starts at 3 (HS) / 2 (2CHS); HS latency grows fastest\n"
               "(paper Fig. 13).\n";
  reporter.finish();
  return 0;
}
