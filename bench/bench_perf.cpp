// Perf-regression driver: the simulator's raw-speed benchmarks, emitted as
// one canonical BENCH_<n>.json per PR so engine speed is a tracked,
// regression-gated number (ROADMAP item "Simulator raw speed").
//
// Unlike the figure benches this binary measures WALL time of the harness
// itself: end-to-end events/sec for a fixed RunSpec per protocol, broadcast
// fan-out cost, chain-sync batch apply, per-link delay sampling, churn
// dispatch, event-queue churn, and block wire sizing. Iteration counts are
// pinned (--quick scales them down for smoke tests) and every metric is a
// higher-is-better rate. A fixed integer-arithmetic calibration metric is
// included so tools/check_perf.py can normalize away machine-speed
// differences before gating.
//
// Usage:
//   bench_perf [--quick] [--out FILE] [--label NAME] [--baseline FILE]
//
// --baseline embeds a previous BENCH json's metric values (e.g. numbers
// recorded on the pre-optimization build of the same PR) into the output
// under "baseline", with per-metric speedup ratios.

#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <unistd.h>

#include <vector>

#include "client/workload.h"
#include "core/churn.h"
#include "harness/cluster.h"
#include "harness/experiment.h"
#include "model/perf_model.h"
#include "net/link_model.h"
#include "net/network.h"
#include "quorum/cert_verifier.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "storage/block_store.h"
#include "sync/syncer.h"
#include "types/block.h"
#include "types/messages.h"
#include "util/json.h"

namespace {

using namespace bamboo;

double now_s() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

struct Metric {
  std::string name;
  double value = 0;  ///< higher is better
  std::string unit;
  std::uint64_t iters = 0;
  double wall_s = 0;
};

struct Options {
  bool quick = false;
  std::string out;
  std::string label = "BENCH";
  std::string baseline;
};

/// Scale a pinned iteration count down for --quick smoke runs.
std::uint64_t scaled(const Options& opt, std::uint64_t full) {
  return opt.quick ? (full + 19) / 20 : full;
}

// ---------------------------------------------------------------------------
// Calibration: fixed integer arithmetic, proportional to raw CPU speed.
// ---------------------------------------------------------------------------

Metric bm_calibration(const Options& opt) {
  const std::uint64_t iters = scaled(opt, 400'000'000);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const double t0 = now_s();
  for (std::uint64_t i = 0; i < iters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const double wall = now_s() - t0;
  // The sink keeps the loop alive under optimization.
  volatile std::uint64_t sink = x;
  (void)sink;
  return {"calibration", static_cast<double>(iters) / wall / 1e6, "Mops/s",
          iters, wall};
}

// ---------------------------------------------------------------------------
// Event queue churn: schedule + pop through the inline-callback hot path.
// ---------------------------------------------------------------------------

Metric bm_event_queue(const Options& opt) {
  const std::uint64_t rounds = scaled(opt, 200'000);
  sim::EventQueue queue;
  std::uint64_t fired = 0;
  sim::Time t = 0;
  const double t0 = now_s();
  for (std::uint64_t r = 0; r < rounds; ++r) {
    for (int i = 0; i < 64; ++i) {
      queue.schedule(t + (i * 37) % 1000, [&fired] { ++fired; });
    }
    while (!queue.empty()) {
      auto ev = queue.pop();
      t = ev.at;
      ev.fn();
    }
  }
  const double wall = now_s() - t0;
  return {"event_queue", static_cast<double>(fired) / wall / 1e6, "Mevents/s",
          fired, wall};
}

// ---------------------------------------------------------------------------
// Broadcast fan-out: one sender fanning a message to 31 peers through the
// NIC queues, link sampling, and delivery scheduling.
// ---------------------------------------------------------------------------

Metric bm_broadcast(const Options& opt, bool proposal) {
  const std::uint64_t rounds = scaled(opt, proposal ? 25'000 : 20'000);
  constexpr std::uint32_t kEndpoints = 32;
  sim::Simulator s(7);
  net::NetConfig nc;
  net::SimNetwork n(s, kEndpoints, nc);
  std::uint64_t delivered = 0;
  for (types::NodeId id = 0; id < kEndpoints; ++id) {
    n.set_handler(id, [&delivered](const net::Envelope&) { ++delivered; });
  }
  types::MessagePtr msg;
  if (proposal) {
    types::Block::Fields f;
    f.parent_hash = types::Block::genesis()->hash();
    f.view = 1;
    f.height = 1;
    f.txns.resize(400);
    for (std::size_t i = 0; i < f.txns.size(); ++i) f.txns[i].id = i;
    types::ProposalMsg prop;
    prop.block = std::make_shared<const types::Block>(std::move(f));
    msg = types::make_message(std::move(prop));
  } else {
    msg = types::make_message(types::VoteMsg{});
  }
  const double t0 = now_s();
  for (std::uint64_t r = 0; r < rounds; ++r) {
    s.schedule_at(s.now(), [&n, &msg] { n.broadcast(0, kEndpoints, msg); });
    s.run_all();
  }
  const double wall = now_s() - t0;
  return {proposal ? "broadcast_proposal" : "broadcast_vote",
          static_cast<double>(delivered) / wall / 1e6, "Mmsgs/s", delivered,
          wall};
}

// ---------------------------------------------------------------------------
// Per-link delay sampling (net/link_model hot path; PR 3).
// ---------------------------------------------------------------------------

Metric bm_link_sampling(const Options& opt) {
  const std::uint64_t iters = scaled(opt, 20'000'000);
  net::LinkSpec base;
  base.base = 0.5e6;
  base.spread = 0.07e6;
  net::LinkMatrix m(32, base);
  util::Rng rng(11);
  const double t0 = now_s();
  sim::Duration acc = 0;
  for (std::uint64_t i = 0; i < iters; ++i) {
    acc += m.sample(static_cast<types::NodeId>(i % 31),
                    static_cast<types::NodeId>((i + 1) % 32), rng);
  }
  const double wall = now_s() - t0;
  volatile sim::Duration sink = acc;
  (void)sink;
  return {"link_sampling", static_cast<double>(iters) / wall / 1e6,
          "Msamples/s", iters, wall};
}

// ---------------------------------------------------------------------------
// Block wire sizing (types/block.h; cached at construction).
// ---------------------------------------------------------------------------

Metric bm_block_wire_size(const Options& opt) {
  const std::uint64_t iters = scaled(opt, 100'000'000);
  // A pool of distinct heap blocks (varying txn counts) so the compiler
  // cannot hoist or fold the wire_size() call out of the loop.
  std::vector<types::BlockPtr> blocks;
  for (std::uint32_t b = 0; b < 64; ++b) {
    types::Block::Fields f;
    f.parent_hash = types::Block::genesis()->hash();
    f.view = b + 1;
    f.height = b + 1;
    f.txns.resize(300 + (b % 8) * 25);
    for (std::size_t i = 0; i < f.txns.size(); ++i) f.txns[i].id = i;
    blocks.push_back(std::make_shared<const types::Block>(std::move(f)));
  }
  std::uint64_t acc = 0;
  const double t0 = now_s();
  for (std::uint64_t i = 0; i < iters; ++i) {
    acc += blocks[i & 63]->wire_size();
  }
  const double wall = now_s() - t0;
  volatile std::uint64_t sink = acc;
  (void)sink;
  return {"block_wire_size", static_cast<double>(iters) / wall / 1e6,
          "Mcalls/s", iters, wall};
}

// ---------------------------------------------------------------------------
// Certificate verification (quorum/cert_verifier.h): real HMAC checks per
// wall second over a pool of honestly signed QCs and TCs at n = 16
// (11-signature quorum) — the host-side cost every received certificate
// now pays on the replica hot path.
// ---------------------------------------------------------------------------

Metric bm_verify_pipeline(const Options& opt) {
  const std::uint64_t iters = scaled(opt, 120'000);
  constexpr std::uint32_t n = 16;
  const std::uint32_t q = types::quorum_size(n);
  const crypto::KeyStore keys(11, n);
  std::vector<types::QuorumCert> qcs;
  std::vector<types::TimeoutCert> tcs;
  for (std::uint32_t v = 1; v <= 32; ++v) {
    types::QuorumCert qc;
    qc.view = v;
    qc.height = v;
    qc.block_hash = crypto::Sha256::hash("block" + std::to_string(v));
    const crypto::Digest digest = types::vote_digest(v, qc.block_hash);
    for (std::uint32_t i = 0; i < q; ++i) qc.sigs.push_back(keys.sign(i, digest));
    types::TimeoutCert tc;
    tc.view = v + 1;
    for (std::uint32_t i = 0; i < q; ++i) {
      tc.reported_qc_views.push_back(v);
      tc.sigs.push_back(keys.sign(i, types::timeout_digest(tc.view, v)));
    }
    tc.high_qc = qc;
    qcs.push_back(std::move(qc));
    tcs.push_back(std::move(tc));
  }
  quorum::CertVerifier verifier(keys, n);
  std::uint64_t ok = 0;
  const double t0 = now_s();
  for (std::uint64_t i = 0; i < iters; ++i) {
    ok += verifier.check_qc(qcs[i & 31]) == quorum::CertCheck::kOk;
    ok += verifier.check_tc(tcs[i & 31]) == quorum::CertCheck::kOk;
  }
  const double wall = now_s() - t0;
  if (ok != 2 * iters) {
    std::cerr << "bench_perf: verify_pipeline rejected a valid cert\n";
    std::exit(1);
  }
  return {"verify_pipeline", static_cast<double>(2 * iters) / wall / 1e6,
          "Mchecks/s", 2 * iters, wall};
}

// ---------------------------------------------------------------------------
// End-to-end whole runs: simulated events per WALL second for a fixed
// RunSpec per protocol, plus a WAN+churn scenario and a chain-sync
// recovery scenario. These are the headline numbers — the whole harness
// (consensus, transport, workload, metrics) at real benchmark scale.
// ---------------------------------------------------------------------------

harness::RunSpec e2e_spec(const std::string& protocol) {
  core::Config cfg;
  cfg.protocol = protocol;
  cfg.n_replicas = 4;
  cfg.bsize = 400;
  cfg.psize = 128;
  cfg.memsize = 200000;
  cfg.seed = 11;
  client::WorkloadConfig wl;
  wl.mode = client::LoadMode::kClosedLoop;
  wl.concurrency = 256;
  harness::RunSpec spec;
  spec.cfg = cfg;
  spec.workload = wl;
  spec.opts.warmup_s = 0.25;
  spec.opts.measure_s = 0.75;
  return spec;
}

/// Run `spec` `reps` times back to back and report simulated events per
/// wall second (plus a throughput sanity print the first time).
Metric bm_e2e(const Options& opt, const std::string& name,
              const harness::RunSpec& spec, std::uint64_t full_reps) {
  const std::uint64_t reps = std::max<std::uint64_t>(1, scaled(opt, full_reps));
  std::uint64_t events = 0;
  const double t0 = now_s();
  for (std::uint64_t r = 0; r < reps; ++r) {
    const harness::RunOutput out = harness::execute_full(spec);
    events += out.events_executed;
    if (!out.result.consistent) {
      std::cerr << "bench_perf: " << name << " run violated safety\n";
      std::exit(1);
    }
  }
  const double wall = now_s() - t0;
  return {name, static_cast<double>(events) / wall / 1e6, "Mevents/s", events,
          wall};
}

Metric bm_e2e_protocol(const Options& opt, const std::string& protocol) {
  return bm_e2e(opt, "e2e_" + protocol, e2e_spec(protocol), 6);
}

Metric bm_e2e_wan_churn(const Options& opt) {
  harness::RunSpec spec = e2e_spec("hotstuff");
  spec.cfg.n_replicas = 6;
  spec.cfg.topology = "wan:3:10";
  spec.cfg.link_model = "lognormal";
  spec.cfg.link_loss = 0.01;
  spec.cfg.timeout = sim::milliseconds(300);
  spec.cfg.churn =
      "degrade@0.3s:link=0-1:+5ms:every=200ms;"
      "restore@0.4s:link=0-1:every=200ms;"
      "fluct@0.5s:for=100ms:lo=2ms:hi=8ms";
  return bm_e2e(opt, "e2e_wan_churn", spec, 40);
}

/// Chain-sync batch apply under partition + heal: replicas 2-3 miss the
/// partition window and batch-fetch the gap afterwards (sync_batch = 8).
Metric bm_chain_sync(const Options& opt) {
  harness::RunSpec spec = e2e_spec("hotstuff");
  spec.cfg.timeout = sim::milliseconds(200);
  spec.cfg.sync_batch = 8;
  spec.cfg.link_loss = 0.02;
  spec.cfg.churn = "partition@0.4s:groups=0-1|2-3;heal@0.6s";
  return bm_e2e(opt, "e2e_chain_sync", spec, 40);
}

/// CPU-bound consensus: batch certificate verification priced at 160 us
/// per signature with a 2-worker verify pool — the cpu_dispatch /
/// charge_qc hot path under real backpressure.
Metric bm_e2e_cpu_bound(const Options& opt) {
  harness::RunSpec spec = e2e_spec("hotstuff");
  spec.cfg.verify_strategy = "batch";
  spec.cfg.cpu_verify_per_sig = sim::microseconds(160);
  spec.cfg.cpu_verify_batch_base = sim::microseconds(160);
  spec.cfg.cpu_verify_batch_per_sig = sim::microseconds(16);
  spec.cfg.cpu_workers = 2;
  return bm_e2e(opt, "e2e_cpu_bound", spec, 8);
}

/// Open-loop saturated regime: Poisson arrivals at ~1.5x the analytic
/// saturation rate against a bounded mempool with a 1M-client population —
/// the arrival scheduler, admission rejections, and per-completion
/// histogram recording all on the hot path.
Metric bm_e2e_openloop_saturated(const Options& opt) {
  harness::RunSpec spec = e2e_spec("hotstuff");
  spec.workload.mode = client::LoadMode::kOpenLoop;
  spec.workload.concurrency = 0;
  spec.workload.client_population = 1'000'000;
  spec.cfg.memsize = 4000;
  const model::PerfModel pm(spec.cfg);
  spec.workload.arrival_rate_tps = 1.5 * pm.saturation_tps();
  spec.offered = spec.workload.arrival_rate_tps;
  return bm_e2e(opt, "e2e_openloop_saturated", spec, 8);
}

// ---------------------------------------------------------------------------
// Churn-event dispatch: a dense repeating degrade/restore schedule with no
// client workload — the run is dominated by churn firing + link mutation.
// ---------------------------------------------------------------------------

Metric bm_churn_dispatch(const Options& opt) {
  const std::uint64_t reps = std::max<std::uint64_t>(1, scaled(opt, 80));
  core::Config cfg;
  cfg.seed = 11;
  cfg.churn =
      "degrade@1ms:link=0-1:+1ms:every=2ms;"
      "restore@2ms:link=0-1:every=2ms;"
      "burst@1ms:link=2-3:loss=0.5:for=1ms:every=2ms;"
      "fluct@1ms:for=1ms:lo=1ms:hi=2ms:every=2ms";
  std::uint64_t events = 0;
  const double t0 = now_s();
  for (std::uint64_t r = 0; r < reps; ++r) {
    harness::Cluster cluster(cfg);
    harness::install_churn(cluster, harness::effective_churn({}, cfg));
    cluster.start();
    cluster.simulator().run_for(sim::seconds(1));
    events += cluster.simulator().events_executed();
  }
  const double wall = now_s() - t0;
  return {"churn_dispatch", static_cast<double>(events) / wall / 1e6,
          "Mevents/s", events, wall};
}

// ---------------------------------------------------------------------------
// Durable ledger append: the file-backed block store's hot path (encode +
// checksum + one write), the per-commit cost of store = "file" runs.
// ---------------------------------------------------------------------------

Metric bm_store_append(const Options& opt) {
  const std::uint64_t iters = scaled(opt, 20'000);
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("bamboo-perf-store-" + std::to_string(::getpid()) + ".blk"))
          .string();
  // Distinct blocks built outside the timed loop: append() dedupes by
  // hash, so a repeated block would measure the no-op path.
  std::vector<types::BlockPtr> blocks;
  blocks.reserve(iters);
  crypto::Digest parent = types::Block::genesis()->hash();
  for (std::uint64_t i = 0; i < iters; ++i) {
    types::Block::Fields f;
    f.parent_hash = parent;
    f.view = i + 1;
    f.height = i + 1;
    f.txns.resize(128);
    for (std::size_t t = 0; t < f.txns.size(); ++t) f.txns[t].id = t;
    blocks.push_back(std::make_shared<const types::Block>(std::move(f)));
    parent = blocks.back()->hash();
  }
  double wall = 0;
  {
    storage::FileBlockStore store(path);
    const double t0 = now_s();
    for (const types::BlockPtr& block : blocks) store.append(block);
    wall = now_s() - t0;
  }
  std::filesystem::remove(path);
  return {"store_append", static_cast<double>(iters) / wall / 1e3,
          "Kappends/s", iters, wall};
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

util::Json metric_json(const Metric& m) {
  util::Json::Object o;
  o["name"] = m.name;
  o["value"] = m.value;
  o["unit"] = m.unit;
  o["iters"] = static_cast<double>(m.iters);
  o["wall_s"] = m.wall_s;
  return util::Json(std::move(o));
}

int run(const Options& opt) {
  std::vector<Metric> metrics;
  const auto add = [&metrics](Metric m) {
    std::cout << "  " << m.name << ": " << m.value << " " << m.unit << "  ("
              << m.iters << " iters, " << m.wall_s << " s)\n";
    metrics.push_back(std::move(m));
  };

  std::cout << "bench_perf (" << (opt.quick ? "quick" : "full")
            << " iteration counts)\n";
  add(bm_calibration(opt));
  add(bm_event_queue(opt));
  add(bm_broadcast(opt, /*proposal=*/false));
  add(bm_broadcast(opt, /*proposal=*/true));
  add(bm_link_sampling(opt));
  add(bm_block_wire_size(opt));
  add(bm_verify_pipeline(opt));
  add(bm_churn_dispatch(opt));
  add(bm_store_append(opt));
  for (const char* protocol : {"hotstuff", "2chs", "streamlet"}) {
    add(bm_e2e_protocol(opt, protocol));
  }
  add(bm_e2e_wan_churn(opt));
  add(bm_chain_sync(opt));
  add(bm_e2e_cpu_bound(opt));
  add(bm_e2e_openloop_saturated(opt));

  util::Json::Object root;
  root["schema"] = "bamboo-perf/1";
  root["label"] = opt.label;
  root["mode"] = opt.quick ? "quick" : "full";
  util::Json::Array arr;
  for (const Metric& m : metrics) arr.push_back(metric_json(m));
  root["metrics"] = util::Json(std::move(arr));

  if (!opt.baseline.empty()) {
    std::ifstream in(opt.baseline);
    if (!in) {
      std::cerr << "bench_perf: cannot read --baseline " << opt.baseline
                << "\n";
      return 1;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    const util::Json prev = util::Json::parse(buf.str());
    util::Json::Object base;
    util::Json::Object speedup;
    if (const util::Json* pm = prev.find("metrics"); pm && pm->is_array()) {
      for (const util::Json& entry : pm->as_array()) {
        const std::string name = entry.get_string("name", "");
        const double value = entry.get_number("value", 0);
        if (name.empty() || value <= 0) continue;
        base[name] = value;
        for (const Metric& m : metrics) {
          if (m.name == name) speedup[name] = m.value / value;
        }
      }
    }
    util::Json::Object b;
    b["label"] = prev.get_string("label", "");
    b["metrics"] = util::Json(std::move(base));
    b["speedup"] = util::Json(std::move(speedup));
    root["baseline"] = util::Json(std::move(b));
  }

  const std::string text = util::Json(std::move(root)).dump();
  if (opt.out.empty()) {
    std::cout << text << "\n";
  } else {
    std::ofstream out(opt.out);
    if (!out) {
      std::cerr << "bench_perf: cannot write " << opt.out << "\n";
      return 1;
    }
    out << text << "\n";
    std::cout << "wrote " << opt.out << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      opt.quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      opt.out = argv[++i];
    } else if (std::strcmp(argv[i], "--label") == 0 && i + 1 < argc) {
      opt.label = argv[++i];
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      opt.baseline = argv[++i];
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::cout << "usage: bench_perf [--quick] [--out FILE] [--label NAME]"
                   " [--baseline FILE]\n"
                   "  --quick      ~20x fewer iterations (smoke tests)\n"
                   "  --out FILE   write the BENCH json here (default: stdout)\n"
                   "  --label L    json 'label' field (e.g. BENCH_6)\n"
                   "  --baseline F embed a previous BENCH json's metric\n"
                   "               values + speedup ratios under 'baseline'\n";
      return 0;
    } else {
      std::cerr << "bench_perf: unknown argument '" << argv[i] << "'\n";
      return 2;
    }
  }
  return run(opt);
}
