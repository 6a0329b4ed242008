// Component microbenchmarks (google-benchmark): the substrate costs that
// feed the calibration constants in Config and DESIGN.md §5. Not a paper
// figure; kept so regressions in the hot paths are visible.

#include <benchmark/benchmark.h>

#include "core/churn.h"
#include "crypto/sha256.h"
#include "crypto/signer.h"
#include "forest/block_forest.h"
#include "harness/cluster.h"
#include "harness/experiment.h"
#include "mempool/mempool.h"
#include "model/order_stats.h"
#include "net/link_model.h"
#include "quorum/vote_aggregator.h"
#include "sim/event_queue.h"
#include "sync/syncer.h"
#include "util/rng.h"

namespace {

using namespace bamboo;

void BM_Sha256(benchmark::State& state) {
  const std::vector<std::uint8_t> data(
      static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

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

void BM_BlockWireSize(benchmark::State& state) {
  // Pool of distinct blocks so the cached size cannot be hoisted.
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
    benchmark::DoNotOptimize(blocks[i++ & 63]->wire_size());
  }
}
BENCHMARK(BM_BlockWireSize)->Arg(100)->Arg(400);

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
