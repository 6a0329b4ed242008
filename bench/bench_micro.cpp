// Component microbenchmarks (google-benchmark): the substrate costs that
// feed the calibration constants in Config, and whole
// runs at a small fixed scale. Not a paper figure; kept so regressions in
// the hot paths are visible. tools/check_perf.py gates a subset of the
// cases (its GATED list) in CI against the committed BENCH_<n>.json.

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <array>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/churn.h"
#include "crypto/sha256.h"
#include "crypto/sha256_kernels.h"
#include "crypto/signer.h"
#include "forest/block_forest.h"
#include "harness/cluster.h"
#include "harness/experiment.h"
#include "mempool/mempool.h"
#include "model/order_stats.h"
#include "model/perf_model.h"
#include "net/link_model.h"
#include "net/network.h"
#include "quorum/cert_verifier.h"
#include "quorum/vote_aggregator.h"
#include "sim/event_queue.h"
#include "storage/block_store.h"
#include "storage/crc32c.h"
#include "sync/syncer.h"
#include "util/rng.h"

namespace {

using namespace bamboo;

// Machine-speed normalizer for the gate: a fixed xorshift64 loop that
// touches no memory, so its time scales with single-core speed alone.
void BM_Calibration(benchmark::State& state) {
  constexpr std::int64_t kSteps = std::int64_t{1} << 20;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (auto _ : state) {
    for (std::int64_t i = 0; i < kSteps; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    benchmark::DoNotOptimize(x);
  }
  state.SetItemsProcessed(state.iterations() * kSteps);
}
BENCHMARK(BM_Calibration);

void BM_Sha256(benchmark::State& state) {
  const std::vector<std::uint8_t> data(
      static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

// One compression of one 64-byte block, per kernel the host can run (the
// cases are registered below).
void BM_Sha256Compress(benchmark::State& state,
                       crypto::detail::CompressFn kernel) {
  crypto::detail::Sha256State chain = {
      0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
      0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  std::array<std::uint8_t, 64> block;
  block.fill(0xab);
  for (auto _ : state) {
    kernel(chain, block.data());
    benchmark::DoNotOptimize(chain);
  }
  state.SetBytesProcessed(state.iterations() * 64);
}

const bool kSha256CompressRegistered = [] {
  benchmark::RegisterBenchmark("BM_Sha256Compress/portable", BM_Sha256Compress,
                               &crypto::detail::compress_portable);
  if (const auto hardware = crypto::detail::compress_hardware()) {
    benchmark::RegisterBenchmark("BM_Sha256Compress/sha_extensions",
                                 BM_Sha256Compress, hardware);
  }
  return true;
}();

// CRC32C over 4 KiB, about a record of a 120-transaction block.
void BM_Crc32c(benchmark::State& state) {
  std::vector<std::uint8_t> data(4096);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(storage::crc32c(data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_Crc32c);

void BM_SignVerify(benchmark::State& state) {
  crypto::KeyStore keys(1, 4);
  const auto digest = crypto::Sha256::hash("message");
  const auto sig = keys.sign(0, digest);
  for (auto _ : state) {
    benchmark::DoNotOptimize(keys.verify(sig, digest));
  }
}
BENCHMARK(BM_SignVerify);

void BM_BlockHash(benchmark::State& state) {
  std::vector<types::Transaction> txns(
      static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < txns.size(); ++i) txns[i].id = i;
  const auto genesis = types::Block::genesis();
  for (auto _ : state) {
    types::Block::Fields f;
    f.parent_hash = genesis->hash();
    f.view = 1;
    f.height = 1;
    f.txns = txns;
    types::Block block(std::move(f));
    benchmark::DoNotOptimize(block.hash());
  }
}
BENCHMARK(BM_BlockHash)->Arg(100)->Arg(400)->Arg(800);

void BM_ForestChainAddCommitPrune(benchmark::State& state) {
  for (auto _ : state) {
    forest::BlockForest forest;
    types::BlockPtr tip = types::Block::genesis();
    for (types::View v = 1; v <= 256; ++v) {
      types::Block::Fields f;
      f.parent_hash = tip->hash();
      f.view = v;
      f.height = tip->height() + 1;
      f.justify.view = tip->view();
      f.justify.block_hash = tip->hash();
      tip = std::make_shared<const types::Block>(std::move(f));
      forest.add(tip);
    }
    benchmark::DoNotOptimize(forest.commit(tip->hash()));
    benchmark::DoNotOptimize(forest.prune());
  }
}
BENCHMARK(BM_ForestChainAddCommitPrune);

// The replica's commit path, one block per step: a block arrives and is
// certified, its grandparent commits (a three-chain) and the forest is
// pruned; with `retention` the forest is then cut to the last `retained`
// committed blocks, otherwise it holds `retained` to `retained + 64` of
// them (a pause every 64 steps cuts it back). Cost that grows with the
// forest shows as a slope across the Args. Blocks are built 64 at a time
// in the pause, outside the timing.
void forest_commit_path(benchmark::State& state, types::Height retained,
                        bool retention) {
  constexpr std::size_t kBatch = 64;
  const auto child = [](const types::BlockPtr& parent) {
    types::Block::Fields f;
    f.parent_hash = parent->hash();
    f.view = parent->view() + 1;
    f.height = parent->height() + 1;
    f.justify.view = parent->view();
    f.justify.height = parent->height();
    f.justify.block_hash = parent->hash();
    return std::make_shared<const types::Block>(std::move(f));
  };
  const auto qc = [](const types::Block& b) {
    types::QuorumCert q;
    q.view = b.view();
    q.height = b.height();
    q.block_hash = b.hash();
    return q;
  };
  forest::BlockForest forest;
  std::vector<types::BlockPtr> blocks{types::Block::genesis()};
  const auto step = [&](std::size_t i) {
    benchmark::DoNotOptimize(forest.add(blocks[i]));
    benchmark::DoNotOptimize(forest.add_qc(qc(*blocks[i])));
    benchmark::DoNotOptimize(forest.commit(blocks[i - 2]->hash()));
  };
  blocks.push_back(child(blocks.back()));
  forest.add(blocks.back());
  for (std::size_t i = 2; i < retained + 3; ++i) {
    blocks.push_back(child(blocks.back()));
    step(i);
  }
  forest.prune();
  std::size_t next = blocks.size();
  for (auto _ : state) {
    if (next == blocks.size()) {
      state.PauseTiming();
      if (!retention) forest.prune_below(forest.committed_height() - retained);
      blocks.erase(blocks.begin(), blocks.end() - 2);
      for (std::size_t i = 0; i < kBatch; ++i) {
        blocks.push_back(child(blocks.back()));
      }
      next = 2;
      state.ResumeTiming();
    }
    step(next++);
    benchmark::DoNotOptimize(forest.prune());
    if (retention) {
      benchmark::DoNotOptimize(
          forest.prune_below(forest.committed_height() - retained));
    }
  }
}

void BM_ForestCommitPruneRetained(benchmark::State& state) {
  forest_commit_path(state, static_cast<types::Height>(state.range(0)),
                     /*retention=*/false);
}
BENCHMARK(BM_ForestCommitPruneRetained)->Arg(256)->Arg(2048)->Arg(16384);

void BM_ForestCommitPruneBelow(benchmark::State& state) {
  forest_commit_path(state, static_cast<types::Height>(state.range(0)),
                     /*retention=*/true);
}
BENCHMARK(BM_ForestCommitPruneBelow)->Arg(64);

// A chain of `n` committed blocks from genesis with `txns` transactions
// each and a 3-signature justify QC.
std::vector<types::BlockPtr> store_chain(std::size_t n, std::size_t txns) {
  std::vector<types::BlockPtr> blocks;
  types::BlockPtr parent = types::Block::genesis();
  for (std::size_t b = 0; b < n; ++b) {
    types::Block::Fields f;
    f.parent_hash = parent->hash();
    f.view = b + 1;
    f.height = b + 1;
    f.justify.view = parent->view();
    f.justify.height = parent->height();
    f.justify.block_hash = parent->hash();
    for (crypto::SignerId signer = 0; signer < 3; ++signer) {
      f.justify.sigs.push_back(
          crypto::Signature{signer, crypto::Sha256::hash("sig")});
    }
    f.txns.resize(txns);
    for (std::size_t i = 0; i < f.txns.size(); ++i) {
      f.txns[i].id = b * f.txns.size() + i + 1;
      f.txns[i].session = static_cast<std::uint32_t>(i);
      f.txns[i].submitted_at = static_cast<sim::Time>(1000 * i);
      f.txns[i].payload_size = 128;
    }
    parent = std::make_shared<const types::Block>(std::move(f));
    blocks.push_back(parent);
  }
  return blocks;
}

/// A file-log path under the temp directory, unique to this process.
std::string micro_store_path(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("bamboo-micro-store-" + std::to_string(::getpid()) + "-" + tag +
           ".blk"))
      .string();
}

// BlockStore::append, with a file log, of committed blocks with `range(0)`
// transactions and a 3-signature justify QC. About 80 is the block size of
// the perfbench fault workload, 400 that of the saturated LAN one. Each of
// `n_stores` stores appends every block in turn; several share one
// RecordFramer, as harness::Cluster builds them, so a lone store encodes,
// checksums and writes each block, and the cluster path frames it once and
// writes it n_stores times. One iteration is one block, and items count appends.
// append() dedupes by hash, so the stores are recreated, outside the
// timing, every time the 64 prebuilt blocks run out.
void store_append(benchmark::State& state, std::size_t n_stores) {
  constexpr std::size_t kBatch = 64;
  const std::vector<types::BlockPtr> blocks =
      store_chain(kBatch, static_cast<std::size_t>(state.range(0)));
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < n_stores; ++i) {
    paths.push_back(micro_store_path(std::to_string(i)));
  }
  storage::RecordFramer framer;
  std::vector<std::unique_ptr<storage::BlockStore>> stores(n_stores);
  std::size_t next = kBatch;
  for (auto _ : state) {
    if (next == kBatch) {
      state.PauseTiming();
      for (std::size_t i = 0; i < n_stores; ++i) {
        stores[i].reset();
        std::filesystem::remove(paths[i]);
        stores[i] = std::make_unique<storage::BlockStore>(
            paths[i], n_stores > 1 ? &framer : nullptr);
      }
      next = 0;
      state.ResumeTiming();
    }
    for (const auto& store : stores) store->append(blocks[next]);
    ++next;
  }
  stores.clear();
  for (const std::string& path : paths) std::filesystem::remove(path);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n_stores));
}

void BM_FileStoreAppend(benchmark::State& state) { store_append(state, 1); }
BENCHMARK(BM_FileStoreAppend)->Arg(80)->Arg(400);

// The seven stores of a perfbench fault-workload cluster.
void BM_ClusterStoreAppend(benchmark::State& state) {
  store_append(state, 7);
}
BENCHMARK(BM_ClusterStoreAppend)->Arg(80);

// BlockStore::replay of a file log of 1,000 committed blocks with
// `range(0)` transactions: the crash-restart read path, which streams the
// file through one record buffer, checks each record's CRC32C and decodes
// (and so hashes) each block. Items count replayed blocks.
void BM_StoreReplay(benchmark::State& state) {
  constexpr std::size_t kBlocks = 1000;
  const std::string path = micro_store_path("replay");
  std::filesystem::remove(path);
  {
    storage::BlockStore store(path);
    for (const types::BlockPtr& block :
         store_chain(kBlocks, static_cast<std::size_t>(state.range(0)))) {
      store.append(block);
    }
  }
  storage::BlockStore store(path);
  std::size_t replayed = 0;
  for (auto _ : state) {
    store.replay([&replayed](const types::BlockPtr&) { ++replayed; });
  }
  if (replayed != kBlocks * static_cast<std::size_t>(state.iterations())) {
    state.SkipWithError("replay lost blocks");
  }
  std::filesystem::remove(path);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kBlocks));
}
BENCHMARK(BM_StoreReplay)->Arg(80);

// Broadcast fan-out: one sender fanning a vote (arg 0) or a proposal of
// 400 transactions (arg 1) to 31 peers through the NIC queues, link
// sampling and delivery scheduling, one broadcast per iteration.
void BM_Broadcast(benchmark::State& state) {
  constexpr std::uint32_t kEndpoints = 32;
  sim::Simulator simulator(7);
  net::SimNetwork network(simulator, kEndpoints, net::NetConfig{});
  std::int64_t delivered = 0;
  for (types::NodeId id = 0; id < kEndpoints; ++id) {
    network.set_handler(id,
                        [&delivered](const net::Envelope&) { ++delivered; });
  }
  types::MessagePtr msg = types::make_message(types::VoteMsg{});
  if (state.range(0) == 1) {
    types::Block::Fields f;
    f.parent_hash = types::Block::genesis()->hash();
    f.view = 1;
    f.height = 1;
    f.txns.resize(400);
    for (std::size_t i = 0; i < f.txns.size(); ++i) f.txns[i].id = i;
    types::ProposalMsg prop;
    prop.block = std::make_shared<const types::Block>(std::move(f));
    msg = types::make_message(std::move(prop));
  }
  for (auto _ : state) {
    simulator.schedule_at(simulator.now(), [&network, &msg] {
      network.broadcast(0, kEndpoints, msg);
    });
    simulator.run_all();
  }
  state.SetItemsProcessed(delivered);
}
BENCHMARK(BM_Broadcast)->Arg(0)->Arg(1);

// Certificate verification: one check_qc plus one check_tc per iteration,
// real HMAC checks over a pool of 32 honestly signed QCs and TCs at n = 16
// (an 11-signature quorum), the host cost every certificate a replica
// receives pays. Rejecting one of them is an error, not a rate.
void BM_CertificateChecks(benchmark::State& state) {
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
  std::size_t i = 0;
  for (auto _ : state) {
    const bool ok =
        verifier.check_qc(qcs[i & 31]) == quorum::CertCheck::kOk &&
        verifier.check_tc(tcs[i & 31]) == quorum::CertCheck::kOk;
    ++i;
    if (!ok) {
      state.SkipWithError("a valid certificate was rejected");
      break;
    }
  }
  state.SetItemsProcessed(2 * state.iterations());
}
BENCHMARK(BM_CertificateChecks);

void BM_MempoolAddTake(benchmark::State& state) {
  mempool::Mempool pool(100000);
  types::TxId next = 1;
  for (auto _ : state) {
    for (int i = 0; i < 400; ++i) {
      types::Transaction tx;
      tx.id = next++;
      pool.add_new(tx);
    }
    benchmark::DoNotOptimize(pool.take(400));
  }
}
BENCHMARK(BM_MempoolAddTake);

void BM_VoteAggregationToQc(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto hash = crypto::Sha256::hash("block");
  types::View view = 1;
  quorum::VoteAggregator agg(n);
  for (auto _ : state) {
    ++view;
    for (types::NodeId voter = 0; voter < n; ++voter) {
      types::VoteMsg vote;
      vote.view = view;
      vote.block_hash = hash;
      vote.sig.signer = voter;
      benchmark::DoNotOptimize(agg.add(vote));
    }
    if (view % 64 == 0) agg.gc_below(view - 32);
  }
}
BENCHMARK(BM_VoteAggregationToQc)->Arg(4)->Arg(32);

void BM_EchoedVoteCopies(benchmark::State& state) {
  // Streamlet's copy path at one receiver: every vote of a view arrives n
  // times (its broadcast plus n-1 echoes). The first copy misses has_vote()
  // and is added; the other n-1 hit has_vote() and are dropped. Items are
  // copies.
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto hash = crypto::Sha256::hash("block");
  types::View view = 1;
  quorum::VoteAggregator agg(n);
  for (auto _ : state) {
    ++view;
    for (types::NodeId voter = 0; voter < n; ++voter) {
      types::VoteMsg vote;
      vote.view = view;
      vote.block_hash = hash;
      vote.sig.signer = voter;
      benchmark::DoNotOptimize(agg.has_vote(vote));
      benchmark::DoNotOptimize(agg.add(vote));
      for (std::uint32_t copy = 1; copy < n; ++copy) {
        benchmark::DoNotOptimize(agg.has_vote(vote));
      }
    }
    if (view % 64 == 0) agg.gc_below(view - 64);
  }
  state.SetItemsProcessed(state.iterations() * std::int64_t{n} * n);
}
BENCHMARK(BM_EchoedVoteCopies)->Arg(16);

void BM_EventQueueChurn(benchmark::State& state) {
  sim::EventQueue queue;
  sim::Time t = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      queue.schedule(t + (i * 37) % 1000, [] {});
    }
    while (!queue.empty()) {
      auto fired = queue.pop();
      t = fired.at;
    }
  }
}
BENCHMARK(BM_EventQueueChurn);

void BM_EventQueueDelayMix(benchmark::State& state) {
  // One pop plus one schedule per iteration at a steady pending depth (the
  // arg; lan_saturated at seed 7 has a median of 8 and a p90 of 320), with
  // delays drawn in the proportions measured there: 28% at 0.5-1 us, 28%
  // at 2-4 us, 14% at 16-32 us, 29% at 0.26-1 ms and 0.2% at about 67 ms
  // (timers).
  constexpr std::size_t kDelays = std::size_t{1} << 16;
  util::Rng rng(19);
  std::vector<sim::Duration> delays(kDelays);
  for (sim::Duration& d : delays) {
    const std::uint64_t pick = rng.uniform_u64(992);  // per mille, summed
    const auto between = [&rng](sim::Duration lo, sim::Duration hi) {
      return lo + static_cast<sim::Duration>(
                      rng.uniform_u64(static_cast<std::uint64_t>(hi - lo)));
    };
    if (pick < 280) {
      d = between(500, 1'000);
    } else if (pick < 560) {
      d = between(2'000, 4'000);
    } else if (pick < 700) {
      d = between(16'000, 32'000);
    } else if (pick < 990) {
      d = between(260'000, 1'000'000);
    } else {
      d = between(66'000'000, 68'000'000);
    }
  }
  sim::EventQueue queue;
  std::uint64_t fired = 0;
  const auto depth = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < depth; ++i) {
    queue.schedule(delays[i], [&fired] { ++fired; });
  }
  std::size_t next = depth;
  for (auto _ : state) {
    sim::EventQueue::Fired ev = queue.pop();
    ev.fn();
    queue.schedule(ev.at + delays[next++ & (kDelays - 1)],
                   [&fired] { ++fired; });
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueDelayMix)->Arg(8)->Arg(64)->Arg(320);

void BM_BlockComputeWireSize(benchmark::State& state) {
  // The O(txns) sum a Block caches at construction (wire_size() itself is
  // a member read), over a pool of distinct blocks so that no result can
  // be hoisted out of the loop.
  std::vector<types::BlockPtr> blocks;
  for (std::uint32_t b = 0; b < 64; ++b) {
    types::Block::Fields f;
    f.parent_hash = types::Block::genesis()->hash();
    f.view = b + 1;
    f.height = b + 1;
    f.txns.resize(static_cast<std::size_t>(state.range(0)));
    for (std::size_t i = 0; i < f.txns.size(); ++i) f.txns[i].id = i;
    blocks.push_back(std::make_shared<const types::Block>(std::move(f)));
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    const types::Block& block = *blocks[i++ & 63];
    benchmark::DoNotOptimize(types::Block::compute_wire_size(
        block.slot(), block.justify(), block.txns()));
  }
}
BENCHMARK(BM_BlockComputeWireSize)->Arg(100)->Arg(400);

void BM_LinkDelaySampling(benchmark::State& state) {
  // The per-message hot path of the WAN engine (PR 3): one LinkMatrix
  // sample per link traversal, family set by the arg index.
  static constexpr net::DelayFamily kFamilies[] = {
      net::DelayFamily::kNormal, net::DelayFamily::kUniform,
      net::DelayFamily::kLogNormal, net::DelayFamily::kPareto};
  net::LinkSpec spec;
  spec.family = kFamilies[state.range(0)];
  spec.base = 0.5e6;
  spec.spread = 0.07e6;
  spec.shape = 0.25;
  net::LinkMatrix matrix(32, spec);
  util::Rng rng(11);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(matrix.sample(
        static_cast<types::NodeId>(i % 31),
        static_cast<types::NodeId>((i + 1) % 32), rng));
    ++i;
  }
}
BENCHMARK(BM_LinkDelaySampling)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void BM_ChurnDispatch(benchmark::State& state) {
  // Churn-event firing + link mutation (PR 4): a dense repeating
  // degrade/restore/burst/fluct schedule on an otherwise idle cluster,
  // one simulated second per iteration.
  core::Config cfg;
  cfg.seed = 11;
  cfg.churn =
      "degrade@1ms:link=0-1:+1ms:every=2ms;"
      "restore@2ms:link=0-1:every=2ms;"
      "burst@1ms:link=2-3:loss=0.5:for=1ms:every=2ms;"
      "fluct@1ms:for=1ms:lo=1ms:hi=2ms:every=2ms";
  for (auto _ : state) {
    harness::Cluster cluster(cfg);
    harness::install_churn(cluster, harness::effective_churn({}, cfg));
    cluster.start();
    cluster.simulator().run_for(sim::seconds(1));
    benchmark::DoNotOptimize(cluster.simulator().events_executed());
  }
}
BENCHMARK(BM_ChurnDispatch);

// Whole runs: one fixed RunSpec through harness::execute_full per
// iteration, simulated events counted as items, so the case's rate is the
// whole harness's speed (consensus, transport, workload, metrics). A run
// that violates safety is an error, not a rate.
void BM_WholeRun(benchmark::State& state, const harness::RunSpec& spec) {
  std::int64_t events = 0;
  for (auto _ : state) {
    const harness::RunOutput out = harness::execute_full(spec);
    events += static_cast<std::int64_t>(out.events_executed);
    if (!out.result.consistent) {
      state.SkipWithError("the run violated safety");
      break;
    }
  }
  state.SetItemsProcessed(events);
}

// HotStuff-family closed loop at n = 4, 400-transaction blocks, 256
// sessions, 0.25 s warm-up and a 0.75 s window (test_perf_pinned's
// shape).
harness::RunSpec whole_run_spec(const std::string& protocol) {
  harness::RunSpec spec;
  spec.cfg.protocol = protocol;
  spec.cfg.n_replicas = 4;
  spec.cfg.bsize = 400;
  spec.cfg.psize = 128;
  spec.cfg.memsize = 200000;
  spec.cfg.seed = 11;
  spec.workload.mode = client::LoadMode::kClosedLoop;
  spec.workload.concurrency = 256;
  spec.opts.warmup_s = 0.25;
  spec.opts.measure_s = 0.75;
  return spec;
}

// n = 6 over three WAN regions with lognormal links, 1% loss and a
// repeating degrade/restore plus a fluctuation window.
harness::RunSpec wan_churn_spec() {
  harness::RunSpec spec = whole_run_spec("hotstuff");
  spec.cfg.n_replicas = 6;
  spec.cfg.topology = "wan:3:10";
  spec.cfg.link_model = "lognormal";
  spec.cfg.link_loss = 0.01;
  spec.cfg.timeout = sim::milliseconds(300);
  spec.cfg.churn =
      "degrade@0.3s:link=0-1:+5ms:every=200ms;"
      "restore@0.4s:link=0-1:every=200ms;"
      "fluct@0.5s:for=100ms:lo=2ms:hi=8ms";
  return spec;
}

// Chain-sync batch apply: replicas 2-3 miss a partition window under 2%
// loss and fetch the gap in batches of 8 after the heal.
harness::RunSpec chain_sync_spec() {
  harness::RunSpec spec = whole_run_spec("hotstuff");
  spec.cfg.timeout = sim::milliseconds(200);
  spec.cfg.sync_batch = 8;
  spec.cfg.link_loss = 0.02;
  spec.cfg.churn = "partition@0.4s:groups=0-1|2-3;heal@0.6s";
  return spec;
}

// CPU-bound consensus: batch certificate verification at 160 us per
// signature on a 2-worker verify pool, under real backpressure.
harness::RunSpec cpu_bound_spec() {
  harness::RunSpec spec = whole_run_spec("hotstuff");
  spec.cfg.verify_strategy = "batch";
  spec.cfg.cpu_verify_per_sig = sim::microseconds(160);
  spec.cfg.cpu_verify_batch_base = sim::microseconds(160);
  spec.cfg.cpu_verify_batch_per_sig = sim::microseconds(16);
  spec.cfg.cpu_workers = 2;
  return spec;
}

// Open loop past the knee: Poisson arrivals at 1.5x the model's
// saturation rate from a 1M-client population into a 4,000-transaction
// mempool, so admission rejects and histogram recording run hot.
harness::RunSpec openloop_saturated_spec() {
  harness::RunSpec spec = whole_run_spec("hotstuff");
  spec.workload.mode = client::LoadMode::kOpenLoop;
  spec.workload.concurrency = 0;
  spec.workload.client_population = 1'000'000;
  spec.cfg.memsize = 4000;
  spec.workload.arrival_rate_tps =
      1.5 * model::PerfModel(spec.cfg).saturation_tps();
  spec.offered = spec.workload.arrival_rate_tps;
  return spec;
}

BENCHMARK_CAPTURE(BM_WholeRun, hotstuff, whole_run_spec("hotstuff"));
BENCHMARK_CAPTURE(BM_WholeRun, 2chs, whole_run_spec("2chs"));
BENCHMARK_CAPTURE(BM_WholeRun, streamlet, whole_run_spec("streamlet"));
BENCHMARK_CAPTURE(BM_WholeRun, wan_churn, wan_churn_spec());
BENCHMARK_CAPTURE(BM_WholeRun, chain_sync, chain_sync_spec());
BENCHMARK_CAPTURE(BM_WholeRun, cpu_bound, cpu_bound_spec());
BENCHMARK_CAPTURE(BM_WholeRun, openloop_saturated, openloop_saturated_spec());

void BM_SyncerBatchApply(benchmark::State& state) {
  // Chain-sync validation + batch apply (PR 5): one ChainResponseMsg of
  // `batch` certified parent-first blocks through Syncer::on_response.
  const auto batch = static_cast<std::uint32_t>(state.range(0));
  std::vector<types::BlockPtr> chain;
  types::BlockPtr tip = types::Block::genesis();
  for (std::uint32_t v = 1; v <= batch; ++v) {
    types::Block::Fields f;
    f.parent_hash = tip->hash();
    f.view = v;
    f.height = tip->height() + 1;
    f.justify.view = tip->view();
    f.justify.block_hash = tip->hash();
    f.txns.resize(64);
    tip = std::make_shared<const types::Block>(std::move(f));
    chain.push_back(tip);
  }
  types::ChainResponseMsg resp;
  resp.blocks = chain;
  for (auto _ : state) {
    sim::Simulator simulator(11);
    forest::BlockForest forest;
    sync::Syncer::Hooks hooks;
    hooks.send = [](types::NodeId, types::MessagePtr) {};
    hooks.apply_block = [&forest](const types::BlockPtr& b, types::NodeId) {
      return forest.add(b);
    };
    sync::Syncer syncer(simulator, forest,
                        sync::Syncer::Settings{batch, sim::milliseconds(500), 3},
                        /*id=*/0, /*n_replicas=*/4, hooks);
    syncer.request(chain.back()->hash(), /*from=*/1);
    syncer.on_response(resp, /*from=*/1);
    benchmark::DoNotOptimize(syncer.stats().blocks_applied);
  }
}
BENCHMARK(BM_SyncerBatchApply)->Arg(1)->Arg(8)->Arg(64);

void BM_RngGaussian(benchmark::State& state) {
  util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.gaussian(1.0, 0.1));
  }
}
BENCHMARK(BM_RngGaussian);

void BM_NormalOrderStatistic(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(model::normal_order_statistic(
        static_cast<std::uint32_t>(2 * state.range(0) / 3),
        static_cast<std::uint32_t>(state.range(0))));
  }
}
BENCHMARK(BM_NormalOrderStatistic)->Arg(7)->Arg(31)->Arg(63);

}  // namespace

BENCHMARK_MAIN();
