// Table II: transaction arrival rate vs transaction throughput, HotStuff,
// block size 400, 4 replicas. The paper's point: below saturation, observed
// blockchain throughput tracks the offered Poisson arrival rate almost
// exactly (queueing delays dominate, but no work is lost).
//
// Each arrival rate is one RunSpec; the ladder runs through the
// ParallelRunner.

#include "bench_common.h"
#include "client/workload.h"
#include "core/config.h"

int main(int argc, char** argv) {
  using namespace bamboo;
  const auto args = bench::parse_args(argc, argv);

  bench::print_header(
      "Table II — arrival rate vs throughput (HotStuff, 4 replicas, b=400)",
      "paper rows: 19,992/20,115 ... 131,232/131,275 Tx/s");

  core::Config cfg;
  cfg.protocol = "hotstuff";
  cfg.n_replicas = 4;
  cfg.bsize = 400;
  cfg.memsize = 200000;
  cfg.seed = bench::seed_or(args, 2021);

  client::WorkloadConfig wl;
  wl.mode = client::LoadMode::kOpenLoop;

  // Our simulated substrate saturates near 107 KTx/s at this configuration
  // (the paper's testbed: ~140 K); the sweep stays below the knee, where
  // the paper's observation (throughput == arrival rate) applies.
  std::vector<double> rates = {20000, 40000, 60000, 80000, 90000};
  if (args.full) rates.push_back(95000);

  harness::RunOptions opts;
  opts.warmup_s = 0.3;
  opts.measure_s = args.full ? 4.0 : 1.5;

  auto grid = harness::open_loop_specs(cfg, wl, rates, opts);
  bench::apply_duration(grid, args);
  bench::Reporter reporter(args, "table2_arrival");
  const auto rows = reporter.run(
      "table2_arrival", grid, [](std::size_t) { return std::string("HS"); });

  harness::TextTable table({"Arrival rate (Tx/s)", "Throughput (Tx/s)",
                            "ratio", "lat(ms)"});
  bool all_tracking = true;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (!rows[i].aggregate) continue;  // another shard's row
    const harness::report::Record& a = *rows[i].aggregate;
    const double offered = grid[i].offered;
    const double ratio = a.result.throughput_tps / offered;
    if (ratio < 0.97 || ratio > 1.03) all_tracking = false;
    table.add_row(
        {harness::TextTable::count(static_cast<std::uint64_t>(offered)),
         harness::TextTable::count(
             static_cast<std::uint64_t>(a.result.throughput_tps)) +
             "±" +
             harness::TextTable::count(
                 static_cast<std::uint64_t>(a.ci.throughput_tps)),
         harness::TextTable::num(ratio, 3),
         bench::ci_cell(a, &harness::RunResult::latency_ms_mean, 1.0, 1)});
  }
  table.print(std::cout);
  std::cout << "\nresult: throughput "
            << (all_tracking ? "tracks" : "DOES NOT track")
            << " the arrival rate below saturation (paper: tracks)\n";
  reporter.finish();
  // Short smoke windows (--duration) are too noisy for a hard gate; the
  // published windows keep the strict exit code.
  return all_tracking || args.duration > 0 ? 0 : 1;
}
