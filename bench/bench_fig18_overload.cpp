// Figure 18 (extension): the overload regime. Open-loop Poisson load is
// swept PAST saturation against a bounded mempool, exposing what the
// closed-loop figures cannot: goodput plateaus (or collapses) while
// offered load keeps rising, exact p99/p999 tail latencies explode, and
// the mempool's admission policy decides who absorbs the overflow.
//
//   fig18_saturation — protocol x λ ladder (fractions of the analytic
//       saturation throughput, 0.25x .. 3x): goodput-vs-offered curves
//       with histogram-exact p50/p99/p999 columns.
//   fig18_admission  — admission policy (drop | backoff:5 | priority:0.1)
//       x λ ladder at and past the knee, HotStuff only: how the
//       backpressure strategy shifts goodput, tails, and rejections.
//
// --full adds a 3-region WAN series per protocol to fig18_saturation and
// densifies both ladders. All quantile columns come from the merged
// log-scale histogram (util/histogram.h), so sharded runs reproduce them
// bit-identically.

#include "bench_common.h"
#include "client/workload.h"
#include "model/perf_model.h"

namespace {

/// Sweep row: offered vs goodput plus exact tails. The aggregate row's
/// quantiles come from the merge of every rep's histogram, not from
/// averaging per-rep quantiles.
void add_overload_row(bamboo::harness::TextTable& table,
                      const std::string& label, double lambda,
                      const bamboo::harness::report::Record& agg) {
  using bamboo::bench::ci_cell;
  using bamboo::harness::RunResult;
  using bamboo::harness::TextTable;
  const RunResult& r = agg.result;
  table.add_row({label, TextTable::num(lambda, 0),
                 TextTable::num(r.offered_tps / 1e3, 1),
                 ci_cell(agg, &RunResult::throughput_tps, 1e-3, 1),
                 TextTable::num(r.hist_p50_ms, 1),
                 TextTable::num(r.hist_p99_ms, 1),
                 TextTable::num(r.hist_p999_ms, 1),
                 std::to_string(r.mem_rejected),
                 r.consistent ? "ok" : "VIOLATED"});
}

const std::vector<std::string>& overload_headers() {
  static const std::vector<std::string> h = {
      "series",   "lambda(Tx/s)", "offered(K/s)", "goodput(K/s)", "p50(ms)",
      "p99(ms)",  "p999(ms)",     "rejected",     "safety"};
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bamboo;
  const auto args = bench::parse_args(argc, argv);

  bench::print_header(
      "Figure 18 — open-loop overload & mempool backpressure",
      "λ swept past analytic saturation; bounded mempool (memsize 4000); "
      "1M-client open-loop population");

  std::vector<double> load_fractions = {0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0};
  if (args.full) {
    load_fractions = {0.25, 0.5, 0.75, 0.9, 1.0, 1.25, 1.5, 2.0, 3.0, 4.0};
  }
  std::vector<double> admission_fractions = {1.0, 1.5, 2.0, 3.0};
  if (args.full) admission_fractions = {0.75, 1.0, 1.25, 1.5, 2.0, 3.0, 4.0};

  harness::RunOptions opts;
  opts.warmup_s = 0.3;
  opts.measure_s = args.full ? 3.0 : 1.0;

  const auto base_config = [&](const std::string& protocol) {
    core::Config cfg;
    cfg.protocol = protocol;
    cfg.bsize = 400;
    // Bounded pool: small enough that past-saturation load overflows it
    // within the window, so admission policy is load-bearing.
    cfg.memsize = 4000;
    cfg.seed = bench::seed_or(args, 18);
    return cfg;
  };
  const auto base_workload = [] {
    client::WorkloadConfig wl;
    wl.mode = client::LoadMode::kOpenLoop;
    // One aggregate arrival process standing in for a million logical
    // clients; only session ids are materialized.
    wl.client_population = 1'000'000;
    return wl;
  };
  const auto rates_of = [](const core::Config& cfg,
                           const std::vector<double>& fractions) {
    const model::PerfModel pm(cfg);
    const double saturation = pm.saturation_tps();
    std::vector<double> rates;
    rates.reserve(fractions.size());
    for (double f : fractions) rates.push_back(f * saturation);
    return rates;
  };

  // --- artifact 1: protocol x offered-load ladder ------------------------
  std::vector<harness::RunSpec> sat_grid;
  std::vector<bench::SeriesSlice> sat_series;
  for (const std::string& protocol : bench::evaluated_protocols()) {
    core::Config cfg = base_config(protocol);
    bench::append_series(sat_grid, sat_series, bench::short_name(protocol),
                         harness::open_loop_specs(
                             cfg, base_workload(),
                             rates_of(cfg, load_fractions), opts));
    if (args.full) {
      cfg.topology = "wan:3:40";
      bench::append_series(
          sat_grid, sat_series,
          std::string(bench::short_name(protocol)) + "-wan",
          harness::open_loop_specs(cfg, base_workload(),
                                   rates_of(cfg, load_fractions), opts));
    }
  }

  // --- artifact 2: admission policy x offered load (HotStuff) -----------
  const std::vector<std::string> policies = {"drop", "backoff:5",
                                             "priority:0.1"};
  std::vector<harness::RunSpec> adm_grid;
  std::vector<bench::SeriesSlice> adm_series;
  for (const std::string& policy : policies) {
    core::Config cfg = base_config("hotstuff");
    cfg.admission = policy;
    bench::append_series(adm_grid, adm_series, policy,
                         harness::open_loop_specs(
                             cfg, base_workload(),
                             rates_of(cfg, admission_fractions), opts));
  }

  bench::apply_duration(sat_grid, args);
  bench::apply_duration(adm_grid, args);
  bench::Reporter reporter(args, "fig18_overload");

  const auto sat_rows =
      reporter.run("fig18_saturation", sat_grid, bench::series_labels(sat_series));
  const auto adm_rows =
      reporter.run("fig18_admission", adm_grid, bench::series_labels(adm_series));

  std::cout << "--- saturation: goodput & tails vs offered load ---\n";
  harness::TextTable sat_table(overload_headers());
  for (const bench::SeriesSlice& s : sat_series) {
    for (std::size_t i = 0; i < s.count; ++i) {
      const auto& agg = sat_rows[s.begin + i].aggregate;
      if (!agg) continue;  // another shard's point
      add_overload_row(sat_table, s.label, sat_grid[s.begin + i].offered, *agg);
    }
  }
  sat_table.print(std::cout);

  std::cout << "\n--- admission policy under overload (HotStuff) ---\n";
  harness::TextTable adm_table(overload_headers());
  for (const bench::SeriesSlice& s : adm_series) {
    for (std::size_t i = 0; i < s.count; ++i) {
      const auto& agg = adm_rows[s.begin + i].aggregate;
      if (!agg) continue;
      add_overload_row(adm_table, s.label, adm_grid[s.begin + i].offered, *agg);
    }
  }
  adm_table.print(std::cout);

  std::cout
      << "\nresult: goodput tracks offered load up to the saturation knee,\n"
         "then plateaus while offered keeps rising; histogram-exact p99 and\n"
         "p999 explode past the knee, and the mempool starts rejecting —\n"
         "drop sheds load cheapest, backoff trades rejections for client\n"
         "retry latency, priority reserves recycle headroom.\n";
  reporter.finish();
  return 0;
}
