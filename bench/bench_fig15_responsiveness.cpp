// Figure 15: responsiveness — throughput over time for two settings:
//   t10 : 10 ms view timeout, every protocol proposes as soon as 2f+1
//         view-change messages arrive (responsive proposing),
//   t100: 100 ms timeout, every protocol waits the full timeout after a
//         view change (conservative proposing).
// A 10-second window of network fluctuation (extra one-way delay uniform
// in [10 ms, 100 ms]) hits mid-run; afterwards one replica turns silent.
// Expected shapes: under t10 everyone stalls during the fluctuation; the
// responsive HotStuff resumes at network speed afterwards, with throughput
// waves from the silent leader; the non-responsive protocols recover far
// worse. Under t100 all three stay live throughout, at lower throughput.
//
// All six timelines (2 settings x 3 protocols) are independent RunSpecs
// executed through the ParallelRunner in one submission.

#include "bench_common.h"
#include "client/workload.h"
#include "core/churn.h"

int main(int argc, char** argv) {
  using namespace bamboo;
  const auto args = bench::parse_args(argc, argv);

  // --duration S compresses the whole scenario to an 8S horizon (smoke
  // runs); otherwise the published 24 s / 40 s (--full) timelines.
  const double horizon =
      args.duration > 0 ? std::max(2.0, 8 * args.duration)
                        : (args.full ? 40.0 : 24.0);
  const double fluct_start = horizon / 4.0;
  const double fluct_end = horizon / 2.0;
  const double fault_at = fluct_end + (args.duration > 0 ? horizon / 12.0 : 2.0);
  const double bucket = args.full ? horizon / 40.0 : horizon / 48.0;

  bench::print_header(
      "Figure 15 — responsiveness under fluctuation + silent replica",
      "fluctuation [" + harness::TextTable::num(fluct_start, 0) + "s, " +
          harness::TextTable::num(fluct_end, 0) + "s), replica turns " +
          "silent at " + harness::TextTable::num(fault_at, 0) + "s");

  struct Setting {
    const char* tag;
    sim::Duration timeout;
    sim::Duration propose_wait;
  };
  // t100's conservative wait is the assumed maximal network delay; it must
  // stay below the view timer or the delayed proposal always loses the
  // race against peers' timeouts and no view can ever complete.
  const Setting settings[] = {
      {"t10", sim::milliseconds(10), 0},
      {"t100", sim::milliseconds(100), sim::milliseconds(50)},
  };

  std::vector<harness::RunSpec> grid;
  for (const Setting& setting : settings) {
    for (const std::string& protocol : bench::evaluated_protocols()) {
      core::Config cfg;
      cfg.protocol = protocol;
      cfg.n_replicas = 4;
      cfg.bsize = 400;
      cfg.memsize = 200000;
      cfg.timeout = setting.timeout;
      cfg.propose_wait_after_vc = setting.propose_wait;
      cfg.seed = bench::seed_or(args, 15);
      // Baseline network through the LinkModel subsystem: the default
      // normal/uniform pair is bit-compatible with the original transport,
      // and the mid-run fluctuation is injected on top of whatever link
      // model the scenario configures.
      cfg.link_model = "normal";
      cfg.topology = "uniform";

      // The fluctuation window, then the last replica's silence.
      core::ChurnEvent fluct;
      fluct.kind = core::ChurnKind::kFluctuation;
      fluct.at_s = fluct_start;
      fluct.for_s = fluct_end - fluct_start;
      fluct.lo_ms = 10;
      fluct.hi_ms = 100;
      core::ChurnEvent silence;
      silence.kind = core::ChurnKind::kSilence;
      silence.at_s = fault_at;
      silence.target = core::ChurnTarget::kReplica;
      silence.a = cfg.n_replicas - 1;
      cfg.churn = core::format_churn({fluct, silence});

      client::WorkloadConfig wl;
      wl.mode = client::LoadMode::kOpenLoop;
      wl.arrival_rate_tps = 20000;

      grid.push_back(harness::timeline_spec(cfg, wl, horizon, bucket));
    }
  }

  bench::Reporter reporter(args, "fig15_responsiveness");
  const std::size_t protocols = bench::evaluated_protocols().size();
  const auto series_of = [&](std::size_t index) {
    return std::string(settings[index / protocols].tag) + "-" +
           bench::short_name(bench::evaluated_protocols()[index % protocols]);
  };
  const auto outputs =
      reporter.run_full("fig15_responsiveness", grid, series_of);

  for (std::size_t si = 0; si < std::size(settings); ++si) {
    const Setting& setting = settings[si];
    harness::TextTable table({"t(s)", "HS(KTx/s)", "2CHS(KTx/s)",
                              "SL(KTx/s)"});
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
        row.push_back(harness::TextTable::num(
            (i < s.size() ? s[i] : 0.0) / 1e3, 1));
      }
      table.add_row(std::move(row));
    }
    // Timelines persist as per-bucket "timeline" Records (artifact
    // fig15_responsiveness_timeline) via Reporter::run_full — flat rows
    // that bench_merge recombines bit-identically, replacing the side
    // tables sharded runs used to skip.
    std::cout << "--- setting " << setting.tag << " (timeout "
              << sim::to_milliseconds(setting.timeout) << " ms, wait "
              << sim::to_milliseconds(setting.propose_wait)
              << " ms after view change) ---\n";
    table.print(std::cout);
    std::cout << "\n";
  }
  std::cout << "result: t10 stalls everyone during fluctuation, HS recovers\n"
               "at network speed with waves under the silent leader; t100\n"
               "keeps all protocols live at lower throughput (paper "
               "Fig. 15).\n";
  reporter.finish();
  return 0;
}
