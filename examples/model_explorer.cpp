// Model explorer: the paper's queuing model (§V) as a design tool — the
// "back-of-the-envelope guide" for dissecting a cBFT deployment before
// building it. Sweeps one parameter at a time and prints the predicted
// latency decomposition (Eq. 3) and saturation point.
//
//   ./build/examples/model_explorer

#include <iostream>

#include "client/workload.h"
#include "harness/report.h"
#include "harness/runner.h"
#include "harness/table.h"
#include "model/order_stats.h"
#include "model/perf_model.h"

int main() {
  using namespace bamboo;

  std::cout << "The paper's Eq. 3: latency = t_L + t_s + t_commit + w_Q\n"
               "with t_s = CPU stages + NIC hops + t_Q (Eq. 4) and w_Q from\n"
               "an M/D/1 queue (Eq. 5). All constants from Config.\n\n";

  {
    std::cout << "--- t_Q: quorum wait as the cluster grows (RTT 1ms "
                 "± 0.1ms) ---\n";
    harness::TextTable table({"replicas", "quorum", "t_Q(ms)"});
    for (std::uint32_t n : {4u, 8u, 16u, 32u, 64u, 128u}) {
      table.add_row({std::to_string(n),
                     std::to_string(types::quorum_size(n)),
                     harness::TextTable::num(
                         model::quorum_delay(n, 1.0, 0.1), 3)});
    }
    table.print(std::cout);
    std::cout << "(the (2N/3-1)-th order statistic of N-1 normal delays —\n"
                 "it grows, but slowly: the tail quantile flattens)\n\n";
  }

  {
    std::cout << "--- latency decomposition per protocol (N=4, b=400, "
                 "50% load) ---\n";
    harness::TextTable table({"protocol", "t_L", "t_s", "t_commit", "w_Q",
                              "turn-wait", "total(ms)", "sat(KTx/s)"});
    for (const std::string protocol : {"hotstuff", "2chs", "streamlet",
                                       "fasthotstuff"}) {
      core::Config cfg;
      cfg.protocol = protocol;
      const model::PerfModel pm(cfg);
      const double lambda = 0.5 * pm.saturation_tps();
      table.add_row(
          {protocol, harness::TextTable::num(sim::to_milliseconds(cfg.rtt_mean), 2),
           harness::TextTable::num(pm.t_s_ms(), 2),
           harness::TextTable::num(pm.t_commit_ms(), 2),
           harness::TextTable::num(pm.w_q_ms(lambda), 2),
           harness::TextTable::num(pm.turn_wait_ms(), 2),
           harness::TextTable::num(pm.latency_ms(lambda), 1),
           harness::TextTable::num(pm.saturation_tps() / 1e3, 1)});
    }
    table.print(std::cout);
    std::cout << "(HotStuff's extra t_s of commit wait vs the two-chain\n"
                 "protocols is the paper's central latency trade-off)\n\n";
  }

  {
    std::cout << "--- what-if: faster NICs (N=16, b=400, p=128) ---\n";
    harness::TextTable table({"bandwidth", "saturation(KTx/s)",
                              "lat@50%(ms)"});
    for (double gbps : {1.0, 2.5, 10.0, 25.0}) {
      core::Config cfg;
      cfg.n_replicas = 16;
      cfg.psize = 128;
      cfg.bandwidth_bps = gbps * 1e9;
      const model::PerfModel pm(cfg);
      table.add_row({harness::TextTable::num(gbps, 1) + " Gb/s",
                     harness::TextTable::num(pm.saturation_tps() / 1e3, 1),
                     harness::TextTable::num(
                         pm.latency_ms(0.5 * pm.saturation_tps()), 1)});
    }
    table.print(std::cout);
    std::cout << "(leader egress fan-out is the scalability wall; past a\n"
                 "few Gb/s the CPU pipeline takes over as the bottleneck)\n\n";
  }

  {
    std::cout << "--- what-if: batching vs latency (N=4, 30% load) ---\n";
    harness::TextTable table({"bsize", "saturation(KTx/s)", "lat(ms)"});
    for (std::uint32_t bsize : {50u, 100u, 200u, 400u, 800u, 1600u}) {
      core::Config cfg;
      cfg.bsize = bsize;
      const model::PerfModel pm(cfg);
      table.add_row({std::to_string(bsize),
                     harness::TextTable::num(pm.saturation_tps() / 1e3, 1),
                     harness::TextTable::num(
                         pm.latency_ms(0.3 * pm.saturation_tps()), 1)});
    }
    table.print(std::cout);
    std::cout << "(throughput gains flatten past b=400 while batching keeps\n"
                 "adding latency — why the paper settles on 400)\n\n";
  }

  {
    std::cout << "--- sanity: model vs engine at 50% load (N=4, b=400, "
                 "3 seeds) ---\n";
    // Three quick simulated seeds per protocol through the multi-seed grid
    // runner, to show the paper-style overlay (with 95% CIs) the full
    // Fig. 8 bench sweeps.
    std::vector<harness::RunSpec> grid;
    const std::vector<std::string> protocols = {"hotstuff", "2chs",
                                                "streamlet"};
    for (const std::string& protocol : protocols) {
      harness::RunSpec spec;
      spec.cfg.protocol = protocol;
      spec.cfg.memsize = 200000;
      spec.cfg.seed = 5;
      spec.workload.mode = client::LoadMode::kOpenLoop;
      const model::PerfModel pm(spec.cfg);
      spec.workload.arrival_rate_tps = 0.5 * pm.saturation_tps();
      spec.offered = spec.workload.arrival_rate_tps;
      spec.opts.warmup_s = 0.2;
      spec.opts.measure_s = 0.6;
      grid.push_back(std::move(spec));
    }
    harness::ParallelRunner runner;
    const auto rows = harness::report::grid_rows(
        "model_explorer", "sanity", grid, runner.run_repeated_grid(grid, 3),
        [&](std::size_t i) { return protocols[i]; });

    harness::TextTable table({"protocol", "lambda(Tx/s)", "engine lat(ms)",
                              "model lat(ms)"});
    for (std::size_t i = 0; i < protocols.size(); ++i) {
      // Predict from the exact config that was measured.
      const model::PerfModel pm(grid[i].cfg);
      table.add_row({protocols[i],
                     harness::TextTable::num(grid[i].offered, 0),
                     harness::report::ci_cell(
                         *rows[i].aggregate,
                         &harness::RunResult::latency_ms_mean, 1.0, 1),
                     harness::TextTable::num(
                         pm.latency_ms(grid[i].offered), 1)});
    }
    table.print(std::cout);
    std::cout << "(the engine run and Eq. 3 should land in the same regime;\n"
                 "bench_fig08_model sweeps the full overlay)\n";
  }
  return 0;
}
