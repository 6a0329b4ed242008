// Ablations of the design choices the paper singles out (§V-E and §VI-E):
// what does each mechanism cost, holding everything else fixed?
//   1. Vote routing: Streamlet's broadcast+echo vs HotStuff's
//      next-leader unicast (the O(n^3) price of forking immunity).
//   2. Commit-rule depth: three-chain (HS) vs two-chain (2CHS/FHS) —
//      latency paid for responsiveness/fork budget.
//   3. Leader election: round-robin vs hash-based rotation.
//   4. Conservative proposing: the wait-Δ after view changes under a
//      silent leader (the responsiveness knob of Fig. 15).
//
// All nine ablation cells are independent RunSpecs executed through the
// ParallelRunner in one submission; the vote-routing section reads the
// cluster-wide byte counter now carried in RunResult::net_bytes.

#include "bench_common.h"
#include "client/workload.h"

int main(int argc, char** argv) {
  using namespace bamboo;
  const auto args = bench::parse_args(argc, argv);
  const double measure = args.full ? 3.0 : 1.0;
  const std::uint64_t seed = bench::seed_or(args, 42);

  bench::print_header("Ablations — the cost of each design choice",
                      "every row pair differs in exactly one mechanism");

  auto make_spec = [&](core::Config cfg, std::uint32_t concurrency,
                       double warmup_s) {
    cfg.seed = seed;
    harness::RunSpec spec;
    spec.cfg = std::move(cfg);
    spec.workload.concurrency = concurrency;
    spec.workload.session_timeout = sim::milliseconds(300);
    spec.opts.warmup_s = warmup_s;
    spec.opts.measure_s = measure;
    return spec;
  };

  std::vector<harness::RunSpec> grid;

  // 1. vote routing (N=8, b=400): 2CHS (next-leader unicast) vs SL
  // (broadcast+echo). High concurrency, no session watchdog — mirror the
  // raw driver setup this section used before the RunSpec port.
  for (const std::string protocol : {"2chs", "streamlet"}) {
    core::Config cfg;
    cfg.protocol = protocol;
    cfg.n_replicas = 8;
    auto spec = make_spec(cfg, 2048, 0.3);
    spec.workload.session_timeout = 0;
    grid.push_back(std::move(spec));
  }

  // 2. commit-rule depth (N=4, b=400).
  for (const std::string protocol : {"2chs", "hotstuff"}) {
    core::Config cfg;
    cfg.protocol = protocol;
    grid.push_back(make_spec(cfg, 256, 0.3));
  }

  // 3. leader election (HS, N=8).
  for (const std::string election : {"roundrobin", "hash"}) {
    core::Config cfg;
    cfg.election = election;
    cfg.n_replicas = 8;
    grid.push_back(make_spec(cfg, 1024, 0.3));
  }

  // 4. conservative proposing under a silent leader (2CHS, N=4).
  const sim::Duration waits[] = {sim::Duration{0}, sim::milliseconds(10),
                                 sim::milliseconds(20)};
  for (const sim::Duration wait : waits) {
    core::Config cfg;
    cfg.protocol = "2chs";
    cfg.byz_no = 1;
    cfg.strategy = "silence";
    cfg.timeout = sim::milliseconds(40);
    cfg.propose_wait_after_vc = wait;
    grid.push_back(make_spec(cfg, 256, 0.3));
  }

  bench::apply_duration(grid, args);
  bench::Reporter reporter(args, "ablation");
  static const char* kLabels[] = {
      "routing-2chs", "routing-sl", "rule-2chs",  "rule-hs", "elect-rr",
      "elect-hash",   "wait-0ms",   "wait-10ms", "wait-20ms"};
  const auto rows = reporter.run(
      "ablation", grid,
      [](std::size_t index) { return std::string(kLabels[index]); });
  using harness::RunResult;

  std::size_t i = 0;

  {
    std::cout << "--- vote routing: unicast-to-next-leader vs "
                 "broadcast+echo (N=8, b=400) ---\n";
    harness::TextTable table({"routing", "thr(KTx/s)", "lat(ms)",
                              "net MB/s", "forking-immune"});
    for (const std::string protocol : {"2chs", "streamlet"}) {
      const std::size_t index = i++;
      if (!rows[index].aggregate) continue;  // another shard's cell
      const harness::report::Record& a = *rows[index].aggregate;
      const double mb_per_s =
          bench::per_run_mean(rows[index], [](const RunResult& r) {
            return r.measured_s > 0
                       ? static_cast<double>(r.net_bytes) / r.measured_s / 1e6
                       : 0.0;
          });
      table.add_row(
          {protocol == "streamlet" ? "broadcast+echo" : "next leader",
           bench::ci_cell(a, &RunResult::throughput_tps, 1e-3, 1),
           bench::ci_cell(a, &RunResult::latency_ms_mean, 1.0, 1),
           harness::TextTable::num(mb_per_s, 0),
           protocol == "streamlet" ? "yes" : "no"});
    }
    table.print(std::cout);
    std::cout << "\n";
  }

  {
    std::cout << "--- commit-rule depth: two-chain vs three-chain "
                 "(N=4, b=400) ---\n";
    harness::TextTable table(
        {"rule", "lat(ms)", "BI", "fork budget(blocks)"});
    for (const std::string protocol : {"2chs", "hotstuff"}) {
      const std::size_t index = i++;
      if (!rows[index].aggregate) continue;
      const harness::report::Record& a = *rows[index].aggregate;
      table.add_row({protocol == "hotstuff" ? "three-chain" : "two-chain",
                     bench::ci_cell(a, &RunResult::latency_ms_mean, 1.0, 1),
                     bench::ci_cell(a, &RunResult::block_interval, 1.0, 1),
                     protocol == "hotstuff" ? "2" : "1"});
    }
    table.print(std::cout);
    std::cout << "(one commit-chain link ~= one t_s of client latency)\n\n";
  }

  {
    std::cout << "--- leader election: round-robin vs hash rotation "
                 "(HS, N=8) ---\n";
    harness::TextTable table({"election", "thr(KTx/s)", "lat(ms)", "CGR"});
    for (const std::string election : {"roundrobin", "hash"}) {
      const std::size_t index = i++;
      if (!rows[index].aggregate) continue;
      const harness::report::Record& a = *rows[index].aggregate;
      table.add_row({election,
                     bench::ci_cell(a, &RunResult::throughput_tps, 1e-3, 1),
                     bench::ci_cell(a, &RunResult::latency_ms_mean, 1.0, 1),
                     bench::ci_cell(a, &RunResult::cgr_per_block, 1.0, 2)});
    }
    table.print(std::cout);
    std::cout << "(hash rotation can elect the same leader twice in a row;\n"
                 "throughput is unchanged in the happy path)\n\n";
  }

  {
    std::cout << "--- conservative proposing under a silent leader "
                 "(2CHS, N=4, timeout 40 ms) ---\n";
    harness::TextTable table({"wait-after-VC", "thr(KTx/s)", "lat(ms)",
                              "timeouts"});
    for (const sim::Duration wait : waits) {
      const std::size_t index = i++;
      if (!rows[index].aggregate) continue;
      const harness::report::Record& a = *rows[index].aggregate;
      table.add_row({harness::TextTable::num(sim::to_milliseconds(wait), 0) +
                         " ms",
                     bench::ci_cell(a, &RunResult::throughput_tps, 1e-3, 1),
                     bench::ci_cell(a, &RunResult::latency_ms_mean, 1.0, 1),
                     std::to_string(a.result.timeouts)});
    }
    table.print(std::cout);
    std::cout << "(every ms of Δ is paid on every timeout-driven view\n"
                 "change — the price of non-responsiveness, §VI-D)\n";
  }
  reporter.finish();
  return 0;
}
