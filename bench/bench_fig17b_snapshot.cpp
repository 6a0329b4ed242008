// Figure 17b (extension): chain-sync vs snapshot state transfer as the
// outage gap grows.
//
// PR 10's durable-ledger subsystem adds checkpoint state transfer: a
// laggard whose gap to the cluster head exceeds cfg.snapshot_gap fetches
// one snapshot (the committed hash chain + a certified anchor QC) instead
// of range-fetching every missed block. This bench makes the trade-off
// the measured axis: it sweeps protocol x transfer mode x outage window
// and records
//
//   recovery_ms       heal-to-caught-up latency (RecoveryProbe, as fig17:
//                     taken at the commit or snapshot install that
//                     catches the laggard up, so a snapshot recovery of
//                     a few ms reads as such)
//   snapshot_bytes / snapshot_chunks / snapshots_installed
//                     the state-transfer traffic the snapshot path cost
//   sync_requests / sync_blocks
//                     the per-block fetch traffic the chain path cost
//
// Scenario: a 3|1 partition strands replica 3 at T1 and heals after a
// window W; the majority keeps committing through the window, so the gap
// the laggard must close is proportional to W. "chain" mode
// (snapshot_gap = 0) replays the gap block by block through batched
// range fetches; "snapshot" mode (snapshot_gap = 16) jumps the committed
// prefix in one certified transfer and chain-syncs only the tail beyond
// the anchor.
//
// Expected shape: below the snapshot_gap threshold the two modes are
// identical (the syncer falls back to chain-sync). Beyond it there is a
// crossover: chain-sync recovery grows with the gap (more blocks, more
// locator rounds), while the snapshot path stays near-flat — one request,
// a few chunks, one QC verification — so for long outages the snapshot
// column wins on recovery_ms and total bytes moved.

#include "bench_common.h"
#include "client/workload.h"
#include "core/churn.h"

int main(int argc, char** argv) {
  using namespace bamboo;
  const auto args = bench::parse_args(argc, argv);

  // --duration S compresses the scenario to an 8S horizon (smoke runs).
  const double horizon = args.duration > 0 ? std::max(2.0, 8 * args.duration)
                                           : (args.full ? 24.0 : 12.0);
  const double t1 = horizon / 8.0;  // outage start
  const double bucket = horizon / 32.0;
  // The gap axis: three outage windows, the longest committing a gap far
  // beyond the snapshot threshold.
  const std::vector<double> windows = {horizon / 24.0, horizon / 4.0,
                                       horizon * 5.0 / 12.0};

  bench::print_header(
      "Figure 17b — chain-sync vs snapshot state transfer vs outage gap",
      "3|1 partition at " + harness::TextTable::num(t1, 2) +
          "s healed after W; recovery_ms = heal -> caught-up");

  struct Mode {
    const char* tag;
    std::uint32_t snapshot_gap;  ///< 0 = chain-sync only
  };
  const std::vector<Mode> modes = {{"chain", 0}, {"snapshot", 16}};

  std::vector<harness::RunSpec> grid;
  for (double window : windows) {
    for (const std::string& protocol : bench::evaluated_protocols()) {
      for (const Mode& mode : modes) {
        core::Config cfg;
        cfg.protocol = protocol;
        cfg.n_replicas = 4;
        // A static leader inside the majority: under round-robin the
        // stranded replica keeps winning election every 4th view and the
        // majority all but stalls on its timeouts, leaving no gap for the
        // transfer modes to disagree over.
        cfg.election = "static:0";
        cfg.bsize = 400;
        cfg.memsize = 200000;
        cfg.timeout = sim::milliseconds(100);
        cfg.seed = bench::seed_or(args, 1017);
        cfg.sync_batch = 8;
        cfg.sync_timeout = sim::milliseconds(100);
        cfg.sync_retries = 4;
        cfg.snapshot_gap = mode.snapshot_gap;
        cfg.snapshot_chunk = 512;
        cfg.churn = "partition@" + harness::TextTable::num(t1, 3) +
                    "s:groups=0-1-2|3;heal@" +
                    harness::TextTable::num(t1 + window, 3) + "s";

        client::WorkloadConfig wl;
        wl.mode = client::LoadMode::kOpenLoop;
        wl.arrival_rate_tps = 10000;

        auto spec = harness::timeline_spec(cfg, wl, horizon, bucket,
                                           /*fluct_start_s=*/-1,
                                           /*fluct_end_s=*/-1, 0, 0,
                                           /*crash_at_s=*/-1, 0);
        spec.offered = window;  // sweep label: the outage window (s)
        grid.push_back(std::move(spec));
      }
    }
  }

  bench::Reporter reporter(args, "fig17b_snapshot");
  const std::size_t protocols = bench::evaluated_protocols().size();
  const std::size_t per_window = protocols * modes.size();
  const auto series_of = [&](std::size_t index) {
    const std::size_t protocol = (index % per_window) / modes.size();
    const std::size_t mode = index % modes.size();
    return std::string(bench::short_name(
               bench::evaluated_protocols()[protocol])) +
           "-" + modes[mode].tag;
  };
  const auto outputs = reporter.run_full("fig17b_snapshot", grid, series_of);

  harness::TextTable table({"window(s)", "series", "recovery(ms)", "snaps",
                            "snap_chunks", "snap_KB", "sync_req",
                            "sync_blocks", "thr(KTx/s)", "safety"});
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (!outputs[i]) continue;  // another shard's cell
    const harness::RunResult& r = outputs[i]->result;
    table.add_row(
        {harness::TextTable::num(windows[i / per_window], 2), series_of(i),
         harness::TextTable::num(r.recovery_ms, 1),
         std::to_string(r.snapshots_installed),
         std::to_string(r.snapshot_chunks),
         harness::TextTable::num(static_cast<double>(r.snapshot_bytes) / 1e3,
                                 1),
         std::to_string(r.sync_requests), std::to_string(r.sync_blocks),
         harness::TextTable::num(r.throughput_tps / 1e3, 1),
         r.consistent ? "ok" : "VIOLATED"});
  }
  table.print(std::cout);

  // Per-protocol crossover summary: the first window where the snapshot
  // column's recovery beats chain-sync (only meaningful unsharded).
  if (!reporter.sharded()) {
    std::cout << "\ncrossover (snapshot recovery < chain recovery):\n";
    for (std::size_t p = 0; p < protocols; ++p) {
      const std::string name =
          bench::short_name(bench::evaluated_protocols()[p]);
      std::string at = "none observed";
      for (std::size_t w = 0; w < windows.size(); ++w) {
        const std::size_t base = w * per_window + p * modes.size();
        if (!outputs[base] || !outputs[base + 1]) continue;
        const double chain = outputs[base]->result.recovery_ms;
        const double snap = outputs[base + 1]->result.recovery_ms;
        if (snap > 0 && chain > 0 && snap < chain) {
          at = "window >= " + harness::TextTable::num(windows[w], 2) + "s (" +
               harness::TextTable::num(snap, 1) + "ms vs " +
               harness::TextTable::num(chain, 1) + "ms chain)";
          break;
        }
      }
      std::cout << "  " << name << ": " << at << "\n";
    }
  }

  std::cout << "\nresult: below the snapshot_gap threshold both modes run\n"
               "the identical chain-sync path; beyond it the certified\n"
               "snapshot replaces per-block range fetches with one anchor\n"
               "transfer, so recovery stays near-flat as the gap grows\n"
               "while chain-sync recovery keeps climbing.\n";
  reporter.finish();
  return 0;
}
