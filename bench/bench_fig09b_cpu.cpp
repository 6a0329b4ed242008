// Figure 9b (companion study): where does certificate verification move the
// bottleneck from the network to the CPU, and how much does batch
// verification buy back?
//
// The paper's Fig. 9 sweeps block size with signature verification priced
// at a flat per-message cost. This bench prices the k signatures inside
// every QC/TC (Config::verify_strategy) and sweeps the per-signature
// verify cost λ, block size, worker count and — in a second artifact —
// the cluster size (quorum k = 2f+1 is what eager verification actually
// pays per certificate). Expected shapes:
//
//   * λ = 0: all strategies identical (network-bound; the zero-surcharge
//     default is byte-identical to the pre-pipeline simulator).
//   * λ large: throughput collapses under eager verification — the run is
//     CPU-bound; extra verify workers (w4) recover part of the loss.
//   * batch verification pays base + k·(λ/10) per certificate and beats
//     eager increasingly with quorum size (fig09b_quorum artifact).

#include <algorithm>
#include <string>
#include <vector>

#include "bench_common.h"
#include "client/workload.h"

int main(int argc, char** argv) {
  using namespace bamboo;
  const auto args = bench::parse_args(argc, argv);

  bench::print_header(
      "Figure 9b — CPU-bound verification: strategy / workers / quorum",
      "series <strategy>-w<workers>-b<bsize>; x = per-signature verify "
      "cost (us)");

  const std::vector<std::string> strategies = {"eager", "batch",
                                               "amortized-qc"};

  // x axis: the simulated cost of verifying one secp256k1 signature.
  // 40 us ~ a mid-range core; 320 us ~ an embedded-class one.
  std::vector<std::uint32_t> lambda_us = {0, 40, 160, 320};
  if (args.full) lambda_us.push_back(640);

  harness::RunOptions opts;
  opts.warmup_s = 0.3;
  opts.measure_s = args.full ? 2.0 : 0.8;

  std::vector<harness::RunSpec> grid;
  std::vector<bench::SeriesSlice> series;

  auto spec_for = [&](const std::string& strategy, std::uint32_t workers,
                      std::uint32_t n, std::uint32_t bsize,
                      std::uint32_t lambda) {
    core::Config cfg;
    cfg.protocol = "hotstuff";
    cfg.n_replicas = n;
    cfg.bsize = bsize;
    cfg.psize = 0;
    cfg.memsize = 200000;
    cfg.seed = bench::seed_or(args, 9);
    cfg.verify_strategy = strategy;
    cfg.cpu_workers = workers;
    cfg.cpu_verify_per_sig = sim::microseconds(lambda);
    // Batch verification amortizes: one λ-sized base pass per certificate
    // plus λ/10 per signature (the ~10x speedup of batched Schnorr/BLS-style
    // verification over k independent checks).
    cfg.cpu_verify_batch_base = sim::microseconds(lambda);
    cfg.cpu_verify_batch_per_sig = sim::microseconds(lambda / 10);

    harness::RunSpec spec;
    spec.cfg = cfg;
    spec.workload.mode = client::LoadMode::kClosedLoop;
    spec.workload.concurrency = 1024;
    spec.opts = opts;
    spec.offered = lambda;
    return spec;
  };

  // Artifact 1: λ sweep across strategy x workers x block size at n = 4.
  for (const std::string& strategy : strategies) {
    for (std::uint32_t workers : {1u, 4u}) {
      for (std::uint32_t bsize : {100u, 400u}) {
        std::vector<harness::RunSpec> specs;
        for (std::uint32_t lambda : lambda_us) {
          specs.push_back(spec_for(strategy, workers, 4, bsize, lambda));
        }
        const std::string label = strategy + "-w" + std::to_string(workers) +
                                  "-b" + std::to_string(bsize);
        bench::append_series(grid, series, label, std::move(specs));
      }
    }
  }

  // Artifact 2: quorum-size sweep at a fixed λ = 80 us — the per-
  // certificate bill is k·λ eager vs λ + k·(λ/10) batch, so the batch
  // advantage grows with the quorum k = 2f+1.
  const std::vector<std::uint32_t> cluster_sizes = {4, 8, 16};
  std::vector<harness::RunSpec> quorum_grid;
  std::vector<bench::SeriesSlice> quorum_series;
  for (const std::string& strategy : strategies) {
    std::vector<harness::RunSpec> specs;
    for (std::uint32_t n : cluster_sizes) {
      harness::RunSpec spec = spec_for(strategy, 1, n, 400, 80);
      spec.offered = n;
      specs.push_back(std::move(spec));
    }
    bench::append_series(quorum_grid, quorum_series, strategy,
                         std::move(specs));
  }

  bench::apply_duration(grid, args);
  bench::apply_duration(quorum_grid, args);
  bench::Reporter reporter(args, "fig09b_cpu");
  const auto rows =
      reporter.run("fig09b_cpu", grid, bench::series_labels(series));
  const auto quorum_rows = reporter.run("fig09b_quorum", quorum_grid,
                                        bench::series_labels(quorum_series));

  harness::TextTable table(bench::sweep_headers("sig-us"));
  bench::print_series(table, grid, series, rows);
  table.print(std::cout);

  std::cout << "\n";
  harness::TextTable quorum_table(bench::sweep_headers("replicas"));
  bench::print_series(quorum_table, quorum_grid, quorum_series, quorum_rows);
  quorum_table.print(std::cout);

  // Crossover + batch-vs-eager summary over the points this process ran
  // (sharded runs only see their own slice; merge with bench_merge).
  auto series_peak = [&](const std::vector<bench::SeriesSlice>& slices,
                         const std::vector<harness::RunSpec>& g,
                         const std::vector<harness::report::SpecRows>& r,
                         const std::string& label,
                         double offered) -> double {
    for (const auto& s : slices) {
      for (std::size_t i = 0; i < s.count; ++i) {
        if (s.label != label) continue;
        if (g[s.begin + i].offered != offered) continue;
        if (!r[s.begin + i].aggregate) continue;
        return r[s.begin + i].aggregate->result.throughput_tps;
      }
    }
    return 0;
  };
  const double max_lambda = lambda_us.back();
  const double free_thr = series_peak(series, grid, rows, "eager-w1-b400", 0);
  const double eager_thr =
      series_peak(series, grid, rows, "eager-w1-b400", max_lambda);
  const double batch_thr =
      series_peak(series, grid, rows, "batch-w1-b400", max_lambda);
  const double eager_n16 =
      series_peak(quorum_series, quorum_grid, quorum_rows, "eager", 16);
  const double batch_n16 =
      series_peak(quorum_series, quorum_grid, quorum_rows, "batch", 16);

  std::cout << "\nresult: expect a network->CPU-bound crossover as the\n"
               "per-signature cost grows, batch >= eager at high cost and\n"
               "large quorums, and w4 recovering part of the eager loss.\n";
  if (free_thr > 0 && eager_thr > 0) {
    std::cout << "eager-w1-b400: " << static_cast<long>(free_thr / 1e3)
              << " KTx/s free -> " << static_cast<long>(eager_thr / 1e3)
              << " KTx/s at " << static_cast<long>(max_lambda)
              << " us/sig (x"
              << harness::TextTable::num(free_thr / eager_thr, 1)
              << " drop); batch at same cost: "
              << static_cast<long>(batch_thr / 1e3) << " KTx/s (x"
              << harness::TextTable::num(batch_thr / std::max(eager_thr, 1.0),
                                         1)
              << " vs eager)\n";
  }
  if (eager_n16 > 0 && batch_n16 > 0) {
    std::cout << "n=16 @80us/sig: eager "
              << static_cast<long>(eager_n16 / 1e3) << " KTx/s, batch "
              << static_cast<long>(batch_n16 / 1e3) << " KTx/s (x"
              << harness::TextTable::num(batch_n16 / eager_n16, 1) << ")\n";
  }
  reporter.finish();
  return 0;
}
