// Figure 16 (extension): chained-BFT under WAN scenarios, driven by the
// pluggable LinkModel/Topology subsystem (net/link_model.h, net/topology.h).
//
// Two artifacts:
//   fig16_wan_dist — delay distribution family x protocol on a 3-region
//     WAN: every family is parameterized to the SAME mean one-way delay,
//     so differences isolate the *shape* of the distribution (the
//     heavy-tail Pareto stresses view timers hardest; cf. "Unraveling
//     Responsiveness of Chained BFT Consensus with Network Delay").
//   fig16_wan_topo — topology scenario x protocol at fixed load: uniform
//     LAN vs 3-region WAN vs a single slow replica vs an asymmetric slow
//     leader uplink (the FnF-BFT heterogeneous-leader condition).
//
// Chain growth rate is reported alongside latency/throughput: delay shape
// and link asymmetry move CGR before they move throughput.

#include "bench_common.h"
#include "client/workload.h"

namespace {

bamboo::core::Config base_config(const std::string& protocol,
                                 std::uint64_t seed) {
  bamboo::core::Config cfg;
  cfg.protocol = protocol;
  cfg.n_replicas = 6;
  cfg.bsize = 400;
  cfg.psize = 128;
  cfg.memsize = 200000;
  // Cross-region hops add ~20 ms one-way; give view timers WAN headroom.
  cfg.timeout = bamboo::sim::milliseconds(300);
  cfg.seed = seed;
  return cfg;
}

void add_wan_row(bamboo::harness::TextTable& table, const std::string& label,
                 double offered, const bamboo::harness::report::Record& agg) {
  using bamboo::bench::ci_cell;
  using bamboo::harness::RunResult;
  table.add_row({label, bamboo::harness::TextTable::num(offered, 0),
                 ci_cell(agg, &RunResult::throughput_tps, 1e-3, 1),
                 ci_cell(agg, &RunResult::latency_ms_mean, 1.0, 1),
                 ci_cell(agg, &RunResult::latency_ms_p99, 1.0, 1),
                 ci_cell(agg, &RunResult::cgr_per_block, 1.0, 3),
                 agg.result.consistent ? "ok" : "VIOLATED"});
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bamboo;
  const auto args = bench::parse_args(argc, argv);

  bench::print_header(
      "Figure 16 — WAN scenarios: delay distributions & topologies",
      "3-region WAN (40 ms inter-region RTT); families share one mean");

  const std::vector<std::string> families = {"normal", "uniform", "lognormal",
                                             "pareto"};
  const char* kWan = "wan:3:40";
  std::vector<std::uint32_t> ladder = {256, 1024};
  if (args.full) ladder = {64, 256, 1024, 4096};

  harness::RunOptions opts;
  opts.warmup_s = 0.4;
  opts.measure_s = args.full ? 2.5 : 1.0;

  // --- artifact 1: delay distribution x protocol on the WAN --------------
  std::vector<harness::RunSpec> dist_grid;
  std::vector<bench::SeriesSlice> dist_series;
  for (const std::string& protocol : bench::evaluated_protocols()) {
    for (const std::string& family : families) {
      core::Config cfg = base_config(protocol, bench::seed_or(args, 16));
      cfg.link_model = family;
      cfg.topology = kWan;
      client::WorkloadConfig wl;
      bench::append_series(
          dist_grid, dist_series,
          std::string(bench::short_name(protocol)) + "-" + family,
          harness::closed_loop_specs(cfg, wl, ladder, opts));
    }
  }

  // --- artifact 2: topology scenario x protocol at fixed load ------------
  struct Scenario {
    const char* tag;
    const char* topology;
  };
  const std::vector<Scenario> scenarios = {
      {"lan", "uniform"},
      {"wan", kWan},
      {"slowrep", "slow-replica:5:20"},
      {"slowleader", "slow-leader:20:0"},
  };
  const std::vector<std::uint32_t> topo_ladder = {1024};
  std::vector<harness::RunSpec> topo_grid;
  std::vector<bench::SeriesSlice> topo_series;
  for (const std::string& protocol : bench::evaluated_protocols()) {
    for (const Scenario& scenario : scenarios) {
      core::Config cfg = base_config(protocol, bench::seed_or(args, 16));
      cfg.topology = scenario.topology;
      client::WorkloadConfig wl;
      bench::append_series(
          topo_grid, topo_series,
          std::string(bench::short_name(protocol)) + "-" + scenario.tag,
          harness::closed_loop_specs(cfg, wl, topo_ladder, opts));
    }
  }

  bench::apply_duration(dist_grid, args);
  bench::apply_duration(topo_grid, args);
  bench::Reporter reporter(args, "fig16_wan");
  const auto dist_rows = reporter.run("fig16_wan_dist", dist_grid,
                                      bench::series_labels(dist_series));
  const auto topo_rows = reporter.run("fig16_wan_topo", topo_grid,
                                      bench::series_labels(topo_series));

  const std::vector<std::string> headers = {
      "series", "clients", "thr(KTx/s)", "lat(ms)", "p99(ms)", "cgr", "safety"};
  {
    std::cout << "--- delay distribution x protocol (" << kWan << ") ---\n";
    harness::TextTable table(headers);
    for (const bench::SeriesSlice& s : dist_series) {
      for (std::size_t i = 0; i < s.count; ++i) {
        const auto& agg = dist_rows[s.begin + i].aggregate;
        if (!agg) continue;  // another shard's spec
        add_wan_row(table, s.label, dist_grid[s.begin + i].offered, *agg);
      }
    }
    table.print(std::cout);
  }
  {
    std::cout << "\n--- topology scenario x protocol ---\n";
    harness::TextTable table(headers);
    for (const bench::SeriesSlice& s : topo_series) {
      for (std::size_t i = 0; i < s.count; ++i) {
        const auto& agg = topo_rows[s.begin + i].aggregate;
        if (!agg) continue;
        add_wan_row(table, s.label, topo_grid[s.begin + i].offered, *agg);
      }
    }
    table.print(std::cout);
  }

  std::cout << "\nresult: heavy-tail (pareto) delays cut chain growth and\n"
               "raise p99 hardest; the slow-leader uplink degrades CGR with\n"
               "little throughput warning (heterogeneous-leader effect).\n";
  reporter.finish();
  return 0;
}
