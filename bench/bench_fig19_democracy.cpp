// Figure 19 (extension): leadership democracy — who actually gets blocks
// committed. 16 replicas; every registered protocol family (including the
// multi-leader FnF-BFT under a width-4 election) crossed with adversarial
// scenarios: calm, the Fig. 13 forking attack, a targeted degrade that
// follows the current leader, and both at once. Reported per cell:
// chain quality (honest fraction of committed blocks), the largest single
// replica's commit share, and the Gini coefficient of per-replica commit
// counts (0 = perfectly even proposer representation).
//
// Expected shapes: single-leader rotation is even (Gini near the byz-only
// floor) until the forking attack deletes honest tail blocks; FnF-BFT's
// parallel slots keep certified early-slot blocks through view changes,
// so its chain quality degrades more slowly under the leader-targeted
// degrade than single-leader protocols whose whole view stalls.

#include "bench_common.h"
#include "client/workload.h"
#include "harness/experiment.h"

namespace {

struct Scenario {
  const char* label;
  std::uint32_t byz;
  const char* strategy;
  const char* churn;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace bamboo;
  const auto args = bench::parse_args(argc, argv);

  bench::print_header(
      "Figure 19 — leadership democracy (16 replicas, protocol x scenario)",
      "CQ = honest fraction of committed blocks; share-max = largest single"
      "\nreplica's commit share; Gini over per-replica commit counts"
      " (0 = even)");

  const std::vector<std::string> protocols = {
      "hotstuff", "2chs", "streamlet", "fasthotstuff", "fnfbft"};
  // The leader-follow degrade chases whoever currently leads — the
  // targeted attack SCENARIOS.md recipe 16 builds on.
  std::vector<Scenario> scenarios = {
      {"calm", 0, "silence", ""},
      {"fork", 4, "forking", ""},
      {"degrade", 0, "silence", "degrade@0.3s:leader=follow:+40ms"},
      {"fork+degrade", 4, "forking", "degrade@0.3s:leader=follow:+40ms"},
  };
  if (args.full) {
    scenarios.push_back({"fork-heavy", 5, "forking", ""});
    scenarios.push_back(
        {"degrade-heavy", 0, "silence", "degrade@0.3s:leader=follow:+90ms"});
  }

  harness::RunOptions opts;
  opts.warmup_s = 0.4;
  opts.measure_s = args.full ? 4.0 : 1.5;

  std::vector<harness::RunSpec> grid;
  for (const std::string& protocol : protocols) {
    for (std::size_t s = 0; s < scenarios.size(); ++s) {
      const Scenario& sc = scenarios[s];
      harness::RunSpec spec;
      spec.cfg.protocol = protocol;
      // FnF-BFT needs a multi-leader election; width 4, epoch 8 views so
      // a degraded set rotates out within the measurement window.
      spec.cfg.election = protocol == "fnfbft" ? "multi:4:8" : "roundrobin";
      spec.cfg.n_replicas = 16;
      spec.cfg.byz_no = sc.byz;
      spec.cfg.strategy = sc.strategy;
      spec.cfg.churn = sc.churn;
      spec.cfg.bsize = 400;
      spec.cfg.psize = 128;
      spec.cfg.memsize = 200000;
      spec.cfg.seed = bench::seed_or(args, 19);
      spec.workload.concurrency = 256;
      spec.workload.session_timeout = sim::milliseconds(300);
      spec.opts = opts;
      spec.offered = static_cast<double>(s);
      grid.push_back(std::move(spec));
    }
  }

  bench::apply_duration(grid, args);
  bench::Reporter reporter(args, "fig19_democracy");
  const std::size_t per_series = scenarios.size();
  const auto series_of = [&](std::size_t index) {
    return std::string(bench::short_name(protocols[index / per_series]));
  };
  const auto rows = reporter.run("fig19_democracy", grid, series_of);

  harness::TextTable table({"series", "scenario", "thr(KTx/s)", "CQ",
                            "share-max", "gini", "commits", "views",
                            "safety"});
  std::size_t i = 0;
  for (const std::string& protocol : protocols) {
    for (const Scenario& sc : scenarios) {
      const std::size_t index = i++;
      if (!rows[index].aggregate) continue;  // another shard's cell
      // The aggregate row derives the democracy scalars from the pooled
      // per-proposer counts of every rep.
      const harness::report::Record& a = *rows[index].aggregate;
      table.add_row({std::string(bench::short_name(protocol)), sc.label,
                     bench::ci_cell(a, &harness::RunResult::throughput_tps,
                                    1e-3, 1),
                     harness::TextTable::num(a.result.chain_quality, 3),
                     harness::TextTable::num(a.result.commit_share_max, 3),
                     harness::TextTable::num(a.result.proposer_gini, 3),
                     std::to_string(a.result.blocks_committed),
                     std::to_string(a.result.views),
                     a.result.consistent ? "ok" : "VIOLATED"});
    }
  }
  table.print(std::cout);
  std::cout << "\nresult: rotation keeps single-leader Gini at the byz-only\n"
               "floor until forking deletes honest tails; FnF-BFT's slot\n"
               "chains hold chain quality up under the leader-chasing\n"
               "degrade (certified early-slot blocks survive view changes).\n";
  reporter.finish();
  return 0;
}
