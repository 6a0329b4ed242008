// Figure 17 (extension): post-churn recovery latency under batched chain
// sync.
//
// PR 4's churn engine creates lagging replicas (partitioned minorities,
// loss-burst victims); the sync subsystem (sync/syncer.h) is what brings
// them back. This bench makes recovery itself the measured axis: it
// sweeps protocol x churn scenario x sync_batch and records
//
//   recovery_ms     heal-to-caught-up latency (RecoveryProbe: time from
//                   the healing churn event until every lagging honest
//                   replica has committed up to the height the rest of
//                   the cluster held at the heal, taken at the commit
//                   or snapshot install that catches the last one up)
//   sync_requests / sync_blocks / sync_bytes
//                   the fetch traffic that recovery cost
//
// plus the usual whole-run throughput timeline per cell (the stall and
// the catch-up spike are visible per bucket, exactly as in fig15b).
//
// Scenarios (the recovery recipes of docs/SCENARIOS.md):
//
//   partition    2|2 split at T1 healed at T2, under 2% ambient link
//                loss — the minority misses the majority's whole window
//                and must range-fetch it back through a lossy network
//   crash-heal   replica 3 is isolated by a partition at T1; the
//                partition heals at T2 and replica 1 crashes right
//                after — recovery must route around the dead peer
//                (timeout + rotation), not wedge on it
//   bursty-loss  a 90% loss burst on replica 3's links for [T1, T2);
//                the burst end is the healing moment
//   flaky-soak   a repeating loss burst (every= in the churn DSL):
//                every period strands replica 3 a little and the syncer
//                pulls it back — steady-state recovery churn
//
// Expected shape: sync_batch = 1 (the legacy one-block-per-round path)
// pays one round trip per missed block, so recovery grows with the
// outage length; batched sync (sync_batch = 8) collapses the same range
// into a handful of locator rounds and recovers several times faster,
// with the same sync_blocks but far fewer sync_requests.

#include "bench_common.h"
#include "client/workload.h"
#include "core/churn.h"

int main(int argc, char** argv) {
  using namespace bamboo;
  const auto args = bench::parse_args(argc, argv);

  // --duration S compresses the scenario to an 8S horizon (smoke runs).
  const double horizon = args.duration > 0 ? std::max(2.0, 8 * args.duration)
                                           : (args.full ? 20.0 : 10.0);
  const double t1 = horizon / 4.0;  // incident start
  const double t2 = horizon / 2.0;  // heal
  const double bucket = horizon / 32.0;

  bench::print_header(
      "Figure 17 — post-churn recovery latency under batched chain sync",
      "incident [" + harness::TextTable::num(t1, 1) + "s, " +
          harness::TextTable::num(t2, 1) +
          "s); recovery_ms = heal -> caught-up");

  const auto fmt = [](double at, const char* body) {
    return harness::TextTable::num(at, 3) + "s" + body;
  };
  struct Scenario {
    const char* tag;
    std::function<void(core::Config&)> apply;
  };
  const std::vector<Scenario> scenarios = {
      {"partition",
       [&](core::Config& cfg) {
         // 3|1: the majority keeps its quorum and commits through the
         // window; replica 3 must range-fetch the window back after heal,
         // through 2% ambient loss.
         cfg.link_loss = 0.02;
         cfg.churn = "partition@" + fmt(t1, ":groups=0-1-2|3;heal@") +
                     harness::TextTable::num(t2, 3) + "s";
       }},
      {"crash-heal",
       [&](core::Config& cfg) {
         // Replica 3 misses the window alone; replica 1 dies right after
         // the heal, so any fetch routed at it must time out and rotate.
         cfg.churn = "partition@" + fmt(t1, ":groups=0-1-2|3;heal@") +
                     fmt(t2, ";crash@") +
                     harness::TextTable::num(t2 + bucket, 3) +
                     "s:replica=1";
       }},
      {"bursty-loss",
       [&](core::Config& cfg) {
         cfg.churn = "burst@" + fmt(t1, ":replica=3:loss=0.9:for=") +
                     harness::TextTable::num(t2 - t1, 3) + "s";
       }},
      {"flaky-soak",
       [&](core::Config& cfg) {
         cfg.churn = "burst@" +
                     fmt(t1, ":replica=3:loss=0.85:for=") +
                     harness::TextTable::num(bucket * 4, 3) + "s:every=" +
                     harness::TextTable::num((t2 - t1), 3) + "s";
       }},
  };
  const std::vector<std::uint32_t> batches = {1, 8};

  std::vector<harness::RunSpec> grid;
  for (const Scenario& scenario : scenarios) {
    for (const std::string& protocol : bench::evaluated_protocols()) {
      for (std::uint32_t batch : batches) {
        core::Config cfg;
        cfg.protocol = protocol;
        cfg.n_replicas = 4;
        cfg.bsize = 400;
        cfg.memsize = 200000;
        cfg.timeout = sim::milliseconds(100);
        cfg.seed = bench::seed_or(args, 177);
        // Tight fetch timer so lost requests retry quickly relative to
        // the horizon; the sweep axis is the batch size.
        cfg.sync_batch = batch;
        cfg.sync_timeout = sim::milliseconds(100);
        cfg.sync_retries = 4;
        scenario.apply(cfg);

        client::WorkloadConfig wl;
        wl.mode = client::LoadMode::kOpenLoop;
        wl.arrival_rate_tps = 10000;

        auto spec = harness::timeline_spec(cfg, wl, horizon, bucket);
        spec.offered = batch;  // sweep label: the batch size
        grid.push_back(std::move(spec));
      }
    }
  }

  bench::Reporter reporter(args, "fig17_recovery");
  const std::size_t protocols = bench::evaluated_protocols().size();
  const std::size_t per_scenario = protocols * batches.size();
  const auto series_of = [&](std::size_t index) {
    const std::size_t scenario = index / per_scenario;
    const std::size_t protocol = (index % per_scenario) / batches.size();
    const std::size_t batch = index % batches.size();
    return std::string(scenarios[scenario].tag) + "-" +
           bench::short_name(bench::evaluated_protocols()[protocol]) + "-b" +
           std::to_string(batches[batch]);
  };
  const auto outputs = reporter.run_full("fig17_recovery", grid, series_of);

  harness::TextTable table({"scenario", "series", "batch", "recovery(ms)",
                            "sync_req", "sync_blocks", "sync_KB",
                            "thr(KTx/s)", "timeouts", "safety"});
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (!outputs[i]) continue;  // another shard's cell
    const harness::RunResult& r = outputs[i]->result;
    table.add_row({scenarios[i / per_scenario].tag, series_of(i),
                   std::to_string(batches[i % batches.size()]),
                   harness::TextTable::num(r.recovery_ms, 1),
                   std::to_string(r.sync_requests),
                   std::to_string(r.sync_blocks),
                   harness::TextTable::num(
                       static_cast<double>(r.sync_bytes) / 1e3, 1),
                   harness::TextTable::num(r.throughput_tps / 1e3, 1),
                   std::to_string(r.timeouts),
                   r.consistent ? "ok" : "VIOLATED"});
  }
  table.print(std::cout);
  std::cout << "\nresult: batched sync (b8) collapses the per-block round\n"
               "trips of the legacy path (b1) into a few locator rounds —\n"
               "fewer sync_requests for the same sync_blocks and a lower\n"
               "recovery_ms, retries routing around loss and dead peers.\n";
  reporter.finish();
  return 0;
}
