// Figure 15b (extension): responsiveness under STAGED network churn.
//
// The paper's Fig. 15 injects one global fluctuation window and one
// crash. Real WAN incidents are staged — individual links degrade on a
// schedule, loss arrives in bursts, regions partition and heal — and
// "Unraveling Responsiveness of Chained BFT Consensus with Network
// Delay" (PAPERS.md) shows exactly these time-varying patterns separate
// optimistically-responsive protocols from the rest. This bench sweeps
// protocol x churn scenario and records throughput timelines:
//
//   baseline        no churn (reference)
//   leader-degrade  leader 0's OUTBOUND links +40 ms at T1, restored at T2
//   partition       2|2 split at T1 (no side has a quorum), healed at T2
//   loss-burst      90% loss on every link of replica 3 for the window
//   bursty-loss     Gilbert-Elliott channel on all links the whole run
//   staged          the compound incident: link degrade, then a
//                   partition on top, heal, restore (the ISSUE's example)
//
// Expected shapes: the partition stalls every protocol flat until heal
// (4 replicas, quorum 3); leader-degrade hurts chained protocols on the
// degraded leader's views and recovers instantly at restore; loss bursts
// and Gilbert-Elliott dent throughput without stalling; the staged
// scenario composes the partition stall inside the degrade window.
//
// Every (scenario x protocol) cell is one timeline RunSpec executed
// through the ParallelRunner; timelines persist as per-bucket "timeline"
// records that survive bench_merge (smoke_shard_merge_fig15b).

#include "bench_common.h"
#include "client/workload.h"
#include "core/churn.h"

int main(int argc, char** argv) {
  using namespace bamboo;
  const auto args = bench::parse_args(argc, argv);

  // --duration S compresses the scenario to an 8S horizon (smoke runs).
  const double horizon = args.duration > 0 ? std::max(2.0, 8 * args.duration)
                                           : (args.full ? 24.0 : 12.0);
  const double t1 = horizon / 4.0;  // incident start
  const double t2 = horizon / 2.0;  // incident end / heal
  const double bucket = horizon / 32.0;

  bench::print_header(
      "Figure 15b — responsiveness under staged network churn",
      "incident window [" + harness::TextTable::num(t1, 1) + "s, " +
          harness::TextTable::num(t2, 1) + "s); churn DSL in provenance");

  struct Scenario {
    const char* tag;
    std::function<void(core::Config&)> apply;
  };
  const auto dsl = [](core::ChurnSchedule s) { return core::format_churn(s); };
  const auto event = [](core::ChurnKind kind, double at) {
    core::ChurnEvent ev;
    ev.kind = kind;
    ev.at_s = at;
    return ev;
  };
  const auto leader_degrade = [&](double at, double extra_ms) {
    auto ev = event(core::ChurnKind::kLinkDegrade, at);
    ev.target = core::ChurnTarget::kLeader;
    ev.extra_ms = extra_ms;
    return ev;
  };
  const auto leader_restore = [&](double at) {
    auto ev = event(core::ChurnKind::kLinkRestore, at);
    ev.target = core::ChurnTarget::kLeader;
    return ev;
  };
  const auto split22 = [&](double at) {
    auto ev = event(core::ChurnKind::kPartitionStart, at);
    ev.groups = {{0, 1}, {2, 3}};
    return ev;
  };

  const std::vector<Scenario> scenarios = {
      {"baseline", [](core::Config&) {}},
      {"leader-degrade",
       [&](core::Config& cfg) {
         cfg.churn = dsl({leader_degrade(t1, 40), leader_restore(t2)});
       }},
      {"partition",
       [&](core::Config& cfg) {
         cfg.churn =
             dsl({split22(t1), event(core::ChurnKind::kPartitionHeal, t2)});
       }},
      {"loss-burst",
       [&](core::Config& cfg) {
         auto ev = event(core::ChurnKind::kLossBurst, t1);
         ev.target = core::ChurnTarget::kReplica;
         ev.a = 3;
         ev.loss = 0.9;
         ev.for_s = t2 - t1;
         cfg.churn = dsl({ev});
       }},
      {"bursty-loss",
       [](core::Config& cfg) {
         // Gilbert-Elliott on every link: stationary loss p*h/(p+r) ~ 5.6%
         // arriving in mean-1/r = 3.3-message bursts.
         cfg.ge_p = 0.02;
         cfg.ge_r = 0.3;
         cfg.ge_loss_bad = 0.9;
       }},
      {"staged",
       [&](core::Config& cfg) {
         // The compound incident of the churn-DSL reference: a link pair
         // degrades, a partition lands on top, heals, then full restore.
         auto degrade = event(core::ChurnKind::kLinkDegrade, t1);
         degrade.target = core::ChurnTarget::kLink;
         degrade.a = 0;
         degrade.b = 3;
         degrade.extra_ms = 40;
         cfg.churn = dsl({degrade, split22((t1 + t2) / 2),
                          event(core::ChurnKind::kPartitionHeal, t2),
                          event(core::ChurnKind::kLinkRestore, t2)});
       }},
  };

  std::vector<harness::RunSpec> grid;
  for (const Scenario& scenario : scenarios) {
    for (const std::string& protocol : bench::evaluated_protocols()) {
      core::Config cfg;
      cfg.protocol = protocol;
      cfg.n_replicas = 4;
      cfg.bsize = 400;
      cfg.memsize = 200000;
      cfg.timeout = sim::milliseconds(100);
      cfg.seed = bench::seed_or(args, 155);
      scenario.apply(cfg);

      // 10 kTx/s offered: enough headroom to see every dent, low enough
      // that the loss scenarios' backlog doesn't dominate the runtime.
      client::WorkloadConfig wl;
      wl.mode = client::LoadMode::kOpenLoop;
      wl.arrival_rate_tps = 10000;

      grid.push_back(harness::timeline_spec(cfg, wl, horizon, bucket));
    }
  }

  bench::Reporter reporter(args, "fig15b_churn");
  const std::size_t protocols = bench::evaluated_protocols().size();
  const auto series_of = [&](std::size_t index) {
    return std::string(scenarios[index / protocols].tag) + "-" +
           bench::short_name(bench::evaluated_protocols()[index % protocols]);
  };
  const auto outputs = reporter.run_full("fig15b_churn", grid, series_of);

  for (std::size_t si = 0; si < scenarios.size(); ++si) {
    harness::TextTable table(
        {"t(s)", "HS(KTx/s)", "2CHS(KTx/s)", "SL(KTx/s)"});
    const std::size_t base = si * protocols;
    std::size_t buckets = 0;
    for (std::size_t p = 0; p < protocols; ++p) {
      if (outputs[base + p]) {
        buckets = std::max(buckets, outputs[base + p]->tx_per_s.size());
      }
    }
    for (std::size_t i = 0; i < buckets; ++i) {
      std::vector<std::string> row;
      row.push_back(harness::TextTable::num(i * bucket, 1));
      for (std::size_t p = 0; p < protocols; ++p) {
        if (!outputs[base + p]) {
          row.push_back("-");  // another shard's timeline
          continue;
        }
        const auto& s = outputs[base + p]->tx_per_s;
        row.push_back(
            harness::TextTable::num((i < s.size() ? s[i] : 0.0) / 1e3, 1));
      }
      table.add_row(std::move(row));
    }
    std::cout << "--- scenario " << scenarios[si].tag << " ---\n";
    table.print(std::cout);
    std::cout << "\n";
  }

  harness::TextTable summary({"scenario", "series", "thr(KTx/s)", "lat(ms)",
                              "timeouts", "committed", "safety"});
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (!outputs[i]) continue;
    const harness::RunResult& r = outputs[i]->result;
    summary.add_row({scenarios[i / protocols].tag, series_of(i),
                     harness::TextTable::num(r.throughput_tps / 1e3, 1),
                     harness::TextTable::num(r.latency_ms_mean, 1),
                     std::to_string(r.timeouts),
                     std::to_string(r.blocks_committed),
                     r.consistent ? "ok" : "VIOLATED"});
  }
  std::cout << "--- whole-run summary ---\n";
  summary.print(std::cout);
  std::cout << "\nresult: the 2|2 partition stalls every protocol flat until\n"
               "heal; leader-degrade dents throughput only on the degraded\n"
               "leader's views and snaps back at restore; loss bursts and\n"
               "Gilbert-Elliott degrade gracefully without stalling.\n";
  reporter.finish();
  return 0;
}
