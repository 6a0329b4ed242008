// Figure 11: throughput vs latency with additional network delays of 0 ms,
// 5 ms (± 1 ms), and 10 ms (± 2 ms). Expected shapes: every protocol
// suffers as delay grows; the SL-vs-2CHS gap closes at d10 because link
// delay swamps the cost of Streamlet's message echoing.
//
// The full (protocol, delay, concurrency) grid runs through the
// ParallelRunner in a single submission.

#include "bench_common.h"
#include "client/workload.h"

int main(int argc, char** argv) {
  using namespace bamboo;
  const auto args = bench::parse_args(argc, argv);

  bench::print_header(
      "Figure 11 — throughput vs latency with added network delay",
      "series <proto>-d<ms>; one-way delay added per message");

  struct DelaySetting {
    sim::Duration delay;
    sim::Duration jitter;
    const char* tag;
  };
  const std::vector<DelaySetting> delays = {
      {0, 0, "d0"},
      {sim::milliseconds(5), sim::milliseconds(1), "d5"},
      {sim::milliseconds(10), sim::milliseconds(2), "d10"},
  };
  std::vector<std::uint32_t> ladder = {256, 1024, 4096};
  if (args.full) ladder = {64, 256, 1024, 2048, 4096, 8192};

  harness::RunOptions opts;
  opts.warmup_s = 0.4;
  opts.measure_s = args.full ? 2.5 : 1.0;

  std::vector<harness::RunSpec> grid;
  std::vector<bench::SeriesSlice> series;
  for (const std::string& protocol : bench::evaluated_protocols()) {
    for (const DelaySetting& d : delays) {
      core::Config cfg;
      cfg.protocol = protocol;
      cfg.n_replicas = 4;
      cfg.bsize = 400;
      cfg.psize = 128;
      cfg.delay = d.delay;
      cfg.delay_jitter = d.jitter;
      cfg.memsize = 200000;
      cfg.seed = bench::seed_or(args, 11);
      // The added delay flows through the LinkModel subsystem's default
      // normal/uniform scenario, whose schedule is bit-identical to the
      // pre-LinkModel transport (pinned by tests/test_link_model.cpp).
      cfg.link_model = "normal";
      cfg.topology = "uniform";
      client::WorkloadConfig wl;
      const std::string label =
          std::string(bench::short_name(protocol)) + "-" + d.tag;
      bench::append_series(grid, series, label,
                           harness::closed_loop_specs(cfg, wl, ladder, opts));
    }
  }

  bench::apply_duration(grid, args);
  bench::Reporter reporter(args, "fig11_netdelay");
  const auto rows =
      reporter.run("fig11_netdelay", grid, bench::series_labels(series));

  harness::TextTable table(bench::sweep_headers("clients"));
  bench::print_series(table, grid, series, rows);
  table.print(std::cout);
  std::cout << "\nresult: latency rises with added delay for all protocols;\n"
               "SL approaches 2CHS at d10 (paper Fig. 11).\n";
  reporter.finish();
  return 0;
}
