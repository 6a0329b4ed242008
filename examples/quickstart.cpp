// Quickstart: spin up a 4-replica HotStuff cluster on the simulated
// network, offer closed-loop load for one simulated second, and print the
// paper's four metrics plus a cross-replica consistency check.
//
// Build & run (each command is one line; long ones are wrapped here):
//   cmake -B build -G Ninja && cmake --build build
//   ./build/quickstart [protocol] [topology] [link_model] [churn-dsl]
//                      [workload] [mempool] [store]
// where protocol is one of: hotstuff (default), 2chs, streamlet,
// fasthotstuff; topology is a WAN scenario spec (e.g. "wan:3:40",
// "slow-leader:20"); link_model is normal | uniform | lognormal | pareto;
// churn-dsl is a network-churn schedule (docs/SCENARIOS.md); workload is
// "closed[:sessions]" (default closed:256) or "open:<tps>[:arrival-dsl]"
// (docs/OVERLOAD.md, e.g. "open:40000:burst:1x0.2,4x0.1"); mempool is
// "<memsize>[:admission-dsl]" (e.g. "2000:priority:0.1"); store is
// "memory" (default) or "file[:retention]" — the durable block store that
// crash-restart churn replays on restart (docs/SCENARIOS.md recipe 17).
// Try:
//   ./build/quickstart hotstuff wan:3:40 pareto
//   ./build/quickstart hotstuff uniform normal 'partition@0.5s:...;heal@0.8s'
//   ./build/quickstart hotstuff uniform normal '' open:120000 2000:backoff:5
//   ./build/quickstart hotstuff uniform normal
//       'crash-restart@0.5s:replica=2:for=0.2s' '' '' file

#include <cstdlib>
#include <iostream>
#include <string>

#include "client/workload.h"
#include "core/config.h"
#include "harness/experiment.h"

int main(int argc, char** argv) {
  using namespace bamboo;

  core::Config cfg;
  cfg.protocol = argc > 1 ? argv[1] : "hotstuff";
  cfg.n_replicas = 4;
  cfg.bsize = 400;
  cfg.seed = 2021;
  if (argc > 2) cfg.topology = argv[2];
  if (argc > 3) cfg.link_model = argv[3];
  if (argc > 4) cfg.churn = argv[4];
  // WAN scenarios add tens of ms per hop; keep view timers clear of it.
  if (cfg.topology != "uniform") cfg.timeout = sim::milliseconds(300);

  client::WorkloadConfig wl;
  wl.mode = client::LoadMode::kClosedLoop;
  wl.concurrency = 256;
  if (argc > 5) {
    const std::string spec = argv[5];
    if (spec.rfind("open:", 0) == 0) {
      wl.mode = client::LoadMode::kOpenLoop;
      wl.client_population = 1'000'000;
      const std::string body = spec.substr(5);
      const std::size_t colon = body.find(':');
      wl.arrival_rate_tps = std::atof(body.substr(0, colon).c_str());
      if (colon != std::string::npos) wl.arrival = body.substr(colon + 1);
    } else if (spec.rfind("closed", 0) == 0) {
      const std::size_t colon = spec.find(':');
      if (colon != std::string::npos) {
        wl.concurrency = static_cast<std::uint32_t>(
            std::atoi(spec.c_str() + colon + 1));
      }
    } else if (!spec.empty()) {
      std::cerr << "invalid workload '" << spec
                << "': want closed[:sessions] or open:<tps>[:arrival]\n";
      return 2;
    }
  }
  if (argc > 6 && argv[6][0] != '\0') {
    const std::string spec = argv[6];
    const std::size_t colon = spec.find(':');
    cfg.memsize = static_cast<std::uint32_t>(
        std::atoi(spec.substr(0, colon).c_str()));
    if (colon != std::string::npos) cfg.admission = spec.substr(colon + 1);
  }
  if (argc > 7 && argv[7][0] != '\0') {
    const std::string spec = argv[7];
    const std::size_t colon = spec.find(':');
    cfg.store = spec.substr(0, colon);
    if (colon != std::string::npos) {
      cfg.retention = static_cast<std::uint32_t>(
          std::atoi(spec.c_str() + colon + 1));
    }
  }

  harness::RunOptions opts;
  opts.warmup_s = 0.25;
  opts.measure_s = 1.0;

  std::cout << "protocol   : " << cfg.protocol << "\n"
            << "network    : " << cfg.topology << " / " << cfg.link_model
            << " links\n"
            << "churn      : " << (cfg.churn.empty() ? "none" : cfg.churn)
            << "\n"
            << "replicas   : " << cfg.n_replicas << " (quorum "
            << cfg.quorum() << ")\n"
            << "block size : " << cfg.bsize << " txns\n"
            << "clients    : "
            << (wl.mode == client::LoadMode::kClosedLoop
                    ? std::to_string(wl.concurrency) + " closed-loop sessions"
                    : "open loop, " + wl.arrival +
                          " arrivals at base " +
                          std::to_string(
                              static_cast<long>(wl.arrival_rate_tps)) +
                          " tx/s (admission " + cfg.admission + ")")
            << "\n"
            << "\nrunning " << opts.warmup_s + opts.measure_s
            << "s of simulated time...\n\n";

  // Config parsing, topology construction and churn installation all
  // throw std::invalid_argument on user typos — exit cleanly, not via
  // std::terminate.
  harness::RunSpec spec;
  spec.cfg = cfg;
  spec.workload = wl;
  spec.opts = opts;
  harness::RunResult r;
  try {
    r = harness::execute(spec);
  } catch (const std::exception& e) {
    std::cerr << "invalid configuration: " << e.what() << "\n";
    return 2;
  }

  std::cout << "throughput     : " << static_cast<long>(r.throughput_tps)
            << " tx/s\n";
  if (wl.mode == client::LoadMode::kOpenLoop) {
    std::cout << "offered        : " << static_cast<long>(r.offered_tps)
              << " tx/s (mempool admitted " << r.mem_admitted
              << ", rejected " << r.mem_rejected << ")\n"
              << "latency (hist) : p50 " << r.hist_p50_ms << " / p99 "
              << r.hist_p99_ms << " / p999 " << r.hist_p999_ms << " ms\n";
  }
  if (cfg.store != "memory" || r.restarts > 0) {
    std::cout << "durability     : " << r.disk_bytes_written << " B to the "
              << cfg.store << " store (write amp " << r.write_amplification
              << "), " << r.store_reads << " store reads, " << r.restarts
              << " crash-restart(s) replayed from disk\n";
  }
  std::cout << "latency (mean) : " << r.latency_ms_mean << " ms\n"
            << "latency (p99)  : " << r.latency_ms_p99 << " ms\n"
            << "chain growth   : " << r.cgr_per_block
            << " committed/appended (" << r.cgr_per_view << " per view)\n"
            << "block interval : " << r.block_interval << " views\n"
            << "views          : " << r.views << ", committed blocks: "
            << r.blocks_committed << ", timeouts: " << r.timeouts << "\n"
            << "consistency    : "
            << (r.consistent ? "all honest replicas agree" : "VIOLATED!")
            << "\n";

  return (r.consistent && r.safety_violations == 0 && r.blocks_committed > 0)
             ? 0
             : 1;
}
