// Tests for the recovery & state-sync subsystem (sync/syncer.h): the
// batched chain-sync protocol (locator -> parent-first response), the
// outstanding-request lifecycle (dedupe, timeout, peer rotation, bounded
// retries, expiry), rejection of duplicate/stale/Byzantine responses, and
// the end-to-end recovery path through the churn engine (partition under
// ambient loss -> heal -> batched catch-up with populated sync_* /
// recovery_ms columns).

#include <gtest/gtest.h>

#include <vector>

#include "crypto/sha256.h"

#include "client/workload.h"
#include "core/churn.h"
#include "forest/block_forest.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/runner.h"
#include "sim/simulator.h"
#include "sync/syncer.h"
#include "types/messages.h"

namespace bamboo {
namespace {

using forest::AddResult;
using forest::BlockForest;
using types::BlockPtr;

BlockPtr child_of(const BlockPtr& parent, types::View view) {
  types::Block::Fields f;
  f.parent_hash = parent->hash();
  f.view = view;
  f.height = parent->height() + 1;
  f.proposer = 0;
  f.justify.view = parent->view();
  f.justify.height = parent->height();
  f.justify.block_hash = parent->hash();
  return std::make_shared<const types::Block>(std::move(f));
}

/// A Syncer wired to a local forest with captured sends: the unit-test
/// harness for the state machine (no cluster, no network).
struct SyncerRig {
  struct Sent {
    types::NodeId to;
    types::MessagePtr msg;
  };

  sim::Simulator sim{7};
  BlockForest forest;
  std::vector<Sent> sent;
  sync::Syncer syncer;

  explicit SyncerRig(sync::Syncer::Settings settings, types::NodeId id = 0,
                     std::uint32_t n_replicas = 4)
      : syncer(sim, forest, settings, id, n_replicas,
               sync::Syncer::Hooks{
                   [this](types::NodeId to, types::MessagePtr msg) {
                     sent.push_back({to, std::move(msg)});
                   },
                   [this](const BlockPtr& block, types::NodeId) {
                     return forest.add(block);
                   },
                   /*verify_qc=*/{},         // unset = accept
                   /*install_snapshot=*/{}}) {}

  [[nodiscard]] const types::ChainRequestMsg& request_at(std::size_t i) const {
    return std::get<types::ChainRequestMsg>(*sent.at(i).msg);
  }
};

/// Genesis + a chain of `n` blocks; returns the blocks tip-last.
std::vector<BlockPtr> make_chain(std::size_t n) {
  std::vector<BlockPtr> chain;
  BlockPtr cursor = types::Block::genesis();
  for (std::size_t i = 0; i < n; ++i) {
    cursor = child_of(cursor, static_cast<types::View>(i + 1));
    chain.push_back(cursor);
  }
  return chain;
}

types::ChainResponseMsg response_of(std::vector<BlockPtr> blocks) {
  types::ChainResponseMsg resp;
  resp.blocks = std::move(blocks);
  return resp;
}

// ---------------------------------------------------------------------------
// Server side
// ---------------------------------------------------------------------------

TEST(SyncerServer, ServesBatchedRangeParentFirst) {
  SyncerRig server({/*batch=*/1});
  const auto chain = make_chain(10);
  for (const BlockPtr& b : chain) server.forest.add(b);

  types::ChainRequestMsg req;
  req.want_hash = chain[9]->hash();  // height 10
  req.committed_height = 2;          // requester holds heights 0..2
  req.batch = 4;
  server.syncer.on_request(req, 1);

  ASSERT_EQ(server.sent.size(), 1u);
  const auto& resp = std::get<types::ChainResponseMsg>(*server.sent[0].msg);
  ASSERT_EQ(resp.blocks.size(), 4u);
  // Parent-first, ending at the wanted hash.
  EXPECT_EQ(resp.blocks[0]->height(), 7u);
  EXPECT_EQ(resp.blocks[3]->hash(), chain[9]->hash());
  for (std::size_t i = 1; i < resp.blocks.size(); ++i) {
    EXPECT_EQ(resp.blocks[i]->parent_hash(), resp.blocks[i - 1]->hash());
  }
  EXPECT_EQ(server.syncer.stats().requests_served, 1u);
  EXPECT_EQ(server.syncer.stats().blocks_served, 4u);
}

TEST(SyncerServer, StopsAtTheRequestersCommittedHeight) {
  SyncerRig server({1});
  const auto chain = make_chain(5);
  for (const BlockPtr& b : chain) server.forest.add(b);

  types::ChainRequestMsg req;
  req.want_hash = chain[4]->hash();  // height 5
  req.committed_height = 3;          // only 4 and 5 are missing
  req.batch = 64;
  server.syncer.on_request(req, 2);
  ASSERT_EQ(server.sent.size(), 1u);
  const auto& resp = std::get<types::ChainResponseMsg>(*server.sent[0].msg);
  ASSERT_EQ(resp.blocks.size(), 2u);
  EXPECT_EQ(resp.blocks[0]->height(), 4u);
}

TEST(SyncerServer, UnknownWantIsSilentlyIgnored) {
  SyncerRig server({1});
  types::ChainRequestMsg req;
  req.want_hash = crypto::Sha256::hash("nowhere");
  server.syncer.on_request(req, 1);
  EXPECT_TRUE(server.sent.empty());
}

// ---------------------------------------------------------------------------
// Requester lifecycle
// ---------------------------------------------------------------------------

TEST(SyncerRequester, DedupesInFlightFetches) {
  SyncerRig rig({/*batch=*/4});
  const auto chain = make_chain(3);
  rig.syncer.request(chain[2]->hash(), 1);
  rig.syncer.request(chain[2]->hash(), 2);  // same hash, different trigger
  EXPECT_EQ(rig.sent.size(), 1u);
  EXPECT_EQ(rig.sent[0].to, 1u);
  EXPECT_EQ(rig.syncer.in_flight(), 1u);
  // The locator carries our committed height and the batch cap.
  EXPECT_EQ(rig.request_at(0).committed_height, 0u);
  EXPECT_EQ(rig.request_at(0).batch, 4u);
}

TEST(SyncerRequester, IgnoresSelfClientsAndPresentHashes) {
  SyncerRig rig({1}, /*id=*/0, /*n_replicas=*/4);
  const auto chain = make_chain(2);
  rig.forest.add(chain[0]);
  rig.syncer.request(chain[0]->hash(), 1);  // already present
  rig.syncer.request(chain[1]->hash(), 0);  // self
  rig.syncer.request(chain[1]->hash(), 4);  // client endpoint
  EXPECT_TRUE(rig.sent.empty());
}

TEST(SyncerRequester, TimeoutRotatesPastTheDeadPeerAndExpires) {
  SyncerRig rig({/*batch=*/1, /*timeout=*/sim::milliseconds(50),
                 /*retries=*/2});
  const auto chain = make_chain(1);
  rig.syncer.request(chain[0]->hash(), 2);
  ASSERT_EQ(rig.sent.size(), 1u);
  EXPECT_EQ(rig.sent[0].to, 2u);

  rig.sim.run_for(sim::milliseconds(60));  // first timeout
  ASSERT_EQ(rig.sent.size(), 2u);
  EXPECT_EQ(rig.sent[1].to, 3u);  // rotated past the dead peer

  rig.sim.run_for(sim::milliseconds(50));  // second timeout
  ASSERT_EQ(rig.sent.size(), 3u);
  EXPECT_EQ(rig.sent[2].to, 1u);  // 0 is self: skipped

  rig.sim.run_for(sim::milliseconds(50));  // retries exhausted
  EXPECT_EQ(rig.sent.size(), 3u);
  EXPECT_EQ(rig.syncer.in_flight(), 0u);  // expired, not wedged
  EXPECT_EQ(rig.syncer.stats().timeouts, 3u);
  EXPECT_EQ(rig.syncer.stats().retries, 2u);
  EXPECT_EQ(rig.syncer.stats().exhausted, 1u);

  // A later trigger starts a FRESH fetch — loss cannot wedge recovery.
  rig.syncer.request(chain[0]->hash(), 2);
  EXPECT_EQ(rig.sent.size(), 4u);
}

TEST(SyncerRequester, ResponseCancelsTheTimer) {
  SyncerRig rig({1, sim::milliseconds(50), 3});
  const auto chain = make_chain(1);
  rig.syncer.request(chain[0]->hash(), 1);
  rig.syncer.on_response(response_of({chain[0]}), 1);
  EXPECT_TRUE(rig.forest.contains(chain[0]->hash()));
  EXPECT_EQ(rig.syncer.in_flight(), 0u);
  rig.sim.run_for(sim::milliseconds(200));
  EXPECT_EQ(rig.sent.size(), 1u);  // no retry fired
  EXPECT_EQ(rig.syncer.stats().timeouts, 0u);
}

TEST(SyncerRequester, AppliesBatchAndContinuesBelowTheGap) {
  // Forest holds genesis; the gap is 1..6 and the batch is 3: the first
  // response leaves its range orphaned and the syncer walks further down
  // with a new locator to the same peer.
  SyncerRig rig({/*batch=*/3, sim::milliseconds(100), 3});
  const auto chain = make_chain(6);
  rig.syncer.request(chain[5]->hash(), 2);
  ASSERT_EQ(rig.sent.size(), 1u);

  rig.syncer.on_response(response_of({chain[3], chain[4], chain[5]}), 2);
  EXPECT_EQ(rig.forest.orphan_count(), 3u);  // buffered, not connected
  ASSERT_EQ(rig.sent.size(), 2u);            // continuation fetch
  EXPECT_EQ(rig.sent[1].to, 2u);
  EXPECT_EQ(rig.request_at(1).want_hash, chain[2]->hash());

  rig.syncer.on_response(response_of({chain[0], chain[1], chain[2]}), 2);
  // The deeper range connects and flushes the buffered orphans.
  EXPECT_EQ(rig.forest.orphan_count(), 0u);
  for (const BlockPtr& b : chain) EXPECT_TRUE(rig.forest.contains(b->hash()));
  EXPECT_EQ(rig.syncer.stats().blocks_applied, 6u);
  EXPECT_EQ(rig.syncer.in_flight(), 0u);
  EXPECT_GT(rig.syncer.stats().bytes_received, 0u);
}

// ---------------------------------------------------------------------------
// Byzantine / stale responses
// ---------------------------------------------------------------------------

TEST(SyncerRejects, DuplicateAndStaleResponses) {
  SyncerRig rig({1});
  const auto chain = make_chain(1);
  rig.syncer.request(chain[0]->hash(), 1);
  rig.syncer.on_response(response_of({chain[0]}), 1);
  EXPECT_EQ(rig.syncer.stats().responses_applied, 1u);

  // A duplicate of a satisfied fetch (e.g. from a slower peer) is stale.
  rig.syncer.on_response(response_of({chain[0]}), 2);
  EXPECT_EQ(rig.syncer.stats().responses_rejected, 1u);
  EXPECT_EQ(rig.syncer.stats().responses_applied, 1u);
}

TEST(SyncerRejects, UnrequestedBlocksNeverTouchTheForest) {
  SyncerRig rig({1});
  const auto chain = make_chain(3);
  // Nothing was requested: a pushy Byzantine peer is ignored wholesale.
  rig.syncer.on_response(response_of({chain[0], chain[1], chain[2]}), 3);
  EXPECT_EQ(rig.syncer.stats().responses_rejected, 1u);
  EXPECT_EQ(rig.forest.size(), 1u);  // genesis only
  EXPECT_EQ(rig.forest.orphan_count(), 0u);
}

TEST(SyncerRejects, UnchainedBatchIsRejectedWholesale) {
  SyncerRig rig({4});
  const auto chain = make_chain(4);
  rig.syncer.request(chain[3]->hash(), 1);
  // blocks[1] does not extend blocks[0]: the batch is not one chain.
  rig.syncer.on_response(response_of({chain[0], chain[2], chain[3]}), 1);
  EXPECT_EQ(rig.syncer.stats().responses_rejected, 1u);
  EXPECT_EQ(rig.forest.size(), 1u);
  EXPECT_EQ(rig.forest.orphan_count(), 0u);
  // The fetch entry survives for the honest retry.
  EXPECT_EQ(rig.syncer.in_flight(), 1u);
}

TEST(SyncerRejects, ResponsesBeyondTheRequestedBatchCap) {
  // An honest responder never exceeds the locator's batch cap; a
  // Byzantine one shipping a huge (validly chained) range is rejected
  // before any of it touches the forest.
  SyncerRig rig({/*batch=*/2});
  const auto chain = make_chain(5);
  rig.syncer.request(chain[4]->hash(), 1);
  rig.syncer.on_response(
      response_of({chain[0], chain[1], chain[2], chain[3], chain[4]}), 1);
  EXPECT_EQ(rig.syncer.stats().responses_rejected, 1u);
  EXPECT_EQ(rig.forest.size(), 1u);  // genesis only
  EXPECT_EQ(rig.syncer.in_flight(), 1u);
}

TEST(SyncerRejects, InvalidBlockAbortsTheRestOfTheBatch) {
  SyncerRig rig({4});
  const auto good = make_chain(1);

  // A height-lying child: parent links to genesis but height skips ahead.
  types::Block::Fields f;
  f.parent_hash = types::Block::genesis()->hash();
  f.view = 1;
  f.height = 7;  // must be 1
  f.proposer = 0;
  const auto liar = std::make_shared<const types::Block>(std::move(f));
  const auto liar_child = child_of(liar, 2);

  rig.syncer.request(liar_child->hash(), 1);
  rig.syncer.on_response(response_of({liar, liar_child}), 1);
  EXPECT_EQ(rig.syncer.stats().blocks_rejected, 1u);
  EXPECT_FALSE(rig.forest.contains(liar->hash()));
  EXPECT_FALSE(rig.forest.contains(liar_child->hash()));
  EXPECT_EQ(rig.syncer.in_flight(), 0u);
  (void)good;
}

TEST(SyncerRequester, StopCancelsEverything) {
  SyncerRig rig({1, sim::milliseconds(20), 5});
  const auto chain = make_chain(2);
  rig.syncer.request(chain[0]->hash(), 1);
  rig.syncer.request(chain[1]->hash(), 2);
  rig.syncer.stop();
  EXPECT_EQ(rig.syncer.in_flight(), 0u);
  rig.sim.run_for(sim::milliseconds(200));
  EXPECT_EQ(rig.sent.size(), 2u);  // no timer ever fired a retry
}

// ---------------------------------------------------------------------------
// Pipelined sync (parallel segment fetches)
// ---------------------------------------------------------------------------

TEST(SyncerPipelined, FansOutParallelSegmentFetchesAcrossPeers) {
  // Gap of 10 below the first fetched batch, batch 2, pipeline 3: after
  // the first response the syncer keeps the serial walk AND opens two
  // segment fetches (skip 2 and 4) on rotated peers — one round trip now
  // fills three segments of the gap.
  SyncerRig rig({/*batch=*/2, sim::milliseconds(100), /*retries=*/3,
                 /*pipeline=*/3});
  const auto chain = make_chain(12);
  rig.syncer.request(chain[11]->hash(), 1);
  ASSERT_EQ(rig.sent.size(), 1u);

  rig.syncer.on_response(response_of({chain[10], chain[11]}), 1);
  ASSERT_EQ(rig.sent.size(), 4u);  // serial continuation + 2 segments
  // Serial walk: next locator for the parent of the fetched bottom.
  EXPECT_EQ(rig.request_at(1).want_hash, chain[9]->hash());
  EXPECT_EQ(rig.request_at(1).skip, 0u);
  // Segments: same want hash, ascending skips, rotating peers.
  EXPECT_EQ(rig.request_at(2).want_hash, chain[9]->hash());
  EXPECT_EQ(rig.request_at(2).skip, 2u);
  EXPECT_EQ(rig.sent[2].to, 1u);
  EXPECT_EQ(rig.request_at(3).skip, 4u);
  EXPECT_EQ(rig.sent[3].to, 2u);
  // In flight: the original (still-orphaned) want, the serial
  // continuation, and the two segments.
  EXPECT_EQ(rig.syncer.in_flight(), 4u);

  // A segment response (top block is NOT the want hash) is matched by its
  // (want, skip) echo, lands in the orphan buffer, and retires its entry.
  types::ChainResponseMsg seg = response_of({chain[6], chain[7]});
  seg.want_hash = chain[9]->hash();
  seg.skip = 2;
  rig.syncer.on_response(seg, 1);
  EXPECT_EQ(rig.forest.orphan_count(), 4u);  // 2 tip blocks + this segment
  EXPECT_EQ(rig.syncer.in_flight(), 3u);
  EXPECT_EQ(rig.syncer.stats().blocks_applied, 4u);
}

TEST(SyncerPipelined, SegmentResponsesRequireAMatchingEcho) {
  SyncerRig rig({/*batch=*/2, sim::milliseconds(100), 3, /*pipeline=*/3});
  const auto chain = make_chain(12);
  rig.syncer.request(chain[11]->hash(), 1);
  rig.syncer.on_response(response_of({chain[10], chain[11]}), 1);
  ASSERT_EQ(rig.syncer.in_flight(), 4u);

  // A Byzantine peer echoing a skip that was never requested is rejected
  // wholesale — segment entries only accept their own (want, skip).
  types::ChainResponseMsg bogus = response_of({chain[4], chain[5]});
  bogus.want_hash = chain[9]->hash();
  bogus.skip = 6;  // requested skips are 2 and 4
  rig.syncer.on_response(bogus, 1);
  EXPECT_EQ(rig.syncer.stats().responses_rejected, 1u);
  EXPECT_EQ(rig.syncer.in_flight(), 4u);
}

// ---------------------------------------------------------------------------
// Snapshot state transfer
// ---------------------------------------------------------------------------

types::QuorumCert qc_certifying(const BlockPtr& b) {
  types::QuorumCert qc;
  qc.view = b->view();
  qc.height = b->height();
  qc.block_hash = b->hash();
  return qc;
}

/// A rig with the full client-side hook set: QC verification (verdict
/// settable per test) and snapshot install into the local forest.
struct SnapshotRig {
  sim::Simulator sim{7};
  BlockForest forest;
  std::vector<SyncerRig::Sent> sent;
  bool qc_verdict = true;
  sync::Syncer syncer;

  explicit SnapshotRig(sync::Syncer::Settings settings, types::NodeId id = 0,
                       std::uint32_t n_replicas = 4)
      : syncer(sim, forest, settings, id, n_replicas,
               sync::Syncer::Hooks{
                   [this](types::NodeId to, types::MessagePtr msg) {
                     sent.push_back({to, std::move(msg)});
                   },
                   [this](const BlockPtr& block, types::NodeId) {
                     return forest.add(block);
                   },
                   [this](const types::QuorumCert&) { return qc_verdict; },
                   [this](const BlockPtr& anchor,
                          const types::QuorumCert& qc,
                          const std::vector<crypto::Digest>& hashes) {
                     return forest.install_snapshot(anchor, qc, hashes);
                   }}) {}
};

/// Build a server rig whose forest committed the first `committed` blocks
/// of `chain` (tip certified, as on_snapshot_request requires).
void commit_prefix(SyncerRig& server, const std::vector<BlockPtr>& chain,
                   std::size_t committed) {
  for (const BlockPtr& b : chain) server.forest.add(b);
  server.forest.add_qc(qc_certifying(chain[committed - 1]));
  ASSERT_TRUE(server.forest.commit(chain[committed - 1]->hash()).has_value());
  ASSERT_EQ(server.forest.committed_height(), committed);
}

/// Drive a client into snapshot mode: request the tip of `chain`, serve
/// the top `batch` blocks, and return the captured SnapshotRequestMsg.
types::SnapshotRequestMsg trigger_snapshot(SnapshotRig& client,
                                           const std::vector<BlockPtr>& chain,
                                           std::uint32_t batch,
                                           types::NodeId peer) {
  client.syncer.request(chain.back()->hash(), peer);
  std::vector<BlockPtr> top(chain.end() - batch, chain.end());
  client.syncer.on_response(response_of(std::move(top)), peer);
  EXPECT_TRUE(client.syncer.snapshot_in_flight());
  return std::get<types::SnapshotRequestMsg>(*client.sent.back().msg);
}

TEST(SnapshotServer, ServesChunkedCommittedChainWithCertifiedAnchor) {
  SyncerRig server({/*batch=*/4, sim::milliseconds(100), 3, 1,
                    /*snapshot_gap=*/8, /*snapshot_chunk=*/128});
  const auto chain = make_chain(12);
  commit_prefix(server, chain, 10);

  types::SnapshotRequestMsg req;
  req.want_hash = chain[11]->hash();
  req.committed_height = 0;
  server.syncer.on_snapshot_request(req, 1);

  // 11 committed hashes (genesis..height 10), 128/32 = 4 per chunk ->
  // 3 self-describing chunks, all bound to the same root, the final one
  // carrying the certified anchor.
  ASSERT_EQ(server.sent.size(), 3u);
  EXPECT_EQ(server.syncer.stats().snapshots_served, 1u);
  const crypto::Digest root =
      sync::Syncer::snapshot_root(server.forest.committed_hashes());
  std::vector<crypto::Digest> reassembled;
  for (std::size_t i = 0; i < server.sent.size(); ++i) {
    EXPECT_EQ(server.sent[i].to, 1u);
    const auto& chunk =
        std::get<types::SnapshotChunkMsg>(*server.sent[i].msg);
    EXPECT_EQ(chunk.seq, i);
    EXPECT_EQ(chunk.total, 3u);
    EXPECT_EQ(chunk.root, root);
    EXPECT_EQ(chunk.base_height, i * 4);
    reassembled.insert(reassembled.end(), chunk.hashes.begin(),
                       chunk.hashes.end());
    if (i + 1 < server.sent.size()) {
      EXPECT_FALSE(chunk.anchor);
    } else {
      ASSERT_TRUE(chunk.anchor);
      EXPECT_EQ(chunk.anchor->hash(), chain[9]->hash());
      EXPECT_EQ(chunk.anchor_qc.block_hash, chain[9]->hash());
    }
  }
  EXPECT_EQ(reassembled, server.forest.committed_hashes());

  // A requester already at (or past) our committed tip gets nothing —
  // its own chain-sync timer will route it elsewhere.
  server.sent.clear();
  req.committed_height = 10;
  server.syncer.on_snapshot_request(req, 1);
  EXPECT_TRUE(server.sent.empty());
}

TEST(SnapshotTransfer, ClientInstallsValidSnapshotAndResumesChainSync) {
  const sync::Syncer::Settings settings{/*batch=*/4, sim::milliseconds(100),
                                        /*retries=*/3, /*pipeline=*/1,
                                        /*snapshot_gap=*/8,
                                        /*snapshot_chunk=*/128};
  const auto chain = make_chain(40);
  SyncerRig server(settings, /*id=*/1);
  commit_prefix(server, chain, 30);
  SnapshotRig client(settings);

  const auto req = trigger_snapshot(client, chain, settings.batch, 1);
  EXPECT_EQ(req.committed_height, 0u);
  EXPECT_EQ(client.syncer.stats().snapshots_requested, 1u);

  // The server chunks its committed-hash chain (31 hashes, 4 per 128-byte
  // chunk -> 8 chunks) and anchors the final chunk with its certified tip.
  server.syncer.on_snapshot_request(req, 0);
  EXPECT_EQ(server.syncer.stats().snapshots_served, 1u);
  ASSERT_EQ(server.sent.size(), 8u);
  const auto& last =
      std::get<types::SnapshotChunkMsg>(*server.sent.back().msg);
  ASSERT_TRUE(last.anchor);
  EXPECT_EQ(last.anchor->hash(), chain[29]->hash());
  EXPECT_EQ(last.anchor_qc.block_hash, chain[29]->hash());

  const std::size_t before = client.sent.size();
  for (const auto& out : server.sent) {
    client.syncer.on_snapshot_chunk(
        std::get<types::SnapshotChunkMsg>(*out.msg), 1);
  }
  // Installed: the committed prefix jumped to the anchor without fetching
  // a single body below it, and chain-sync resumed above the anchor.
  EXPECT_EQ(client.syncer.stats().snapshots_installed, 1u);
  EXPECT_EQ(client.syncer.stats().snapshots_rejected, 0u);
  EXPECT_FALSE(client.syncer.snapshot_in_flight());
  EXPECT_EQ(client.forest.committed_height(), 30u);
  ASSERT_GT(client.sent.size(), before);
  const auto& resume =
      std::get<types::ChainRequestMsg>(*client.sent.back().msg);
  EXPECT_EQ(resume.committed_height, 30u);
}

TEST(SnapshotTransfer, TamperedChunkIsRejectedAndRotatesToHonestPeer) {
  const sync::Syncer::Settings settings{/*batch=*/4, sim::milliseconds(100),
                                        /*retries=*/3, /*pipeline=*/1,
                                        /*snapshot_gap=*/8,
                                        /*snapshot_chunk=*/128};
  const auto chain = make_chain(40);
  SyncerRig server(settings, /*id=*/2);
  commit_prefix(server, chain, 30);
  SnapshotRig client(settings);

  const auto req = trigger_snapshot(client, chain, settings.batch, 1);
  server.syncer.on_snapshot_request(req, 0);
  ASSERT_GE(server.sent.size(), 2u);

  // Peer 1 is Byzantine: it swaps one committed hash mid-stream. The
  // reassembled chain fails the root check, the whole transfer is
  // rejected, and the retry rotates to peer 2.
  for (std::size_t i = 0; i < server.sent.size(); ++i) {
    auto chunk = std::get<types::SnapshotChunkMsg>(*server.sent[i].msg);
    if (i == 1) chunk.hashes[0] = crypto::Sha256::hash("forged history");
    client.syncer.on_snapshot_chunk(chunk, 1);
  }
  EXPECT_EQ(client.syncer.stats().snapshots_rejected, 1u);
  EXPECT_EQ(client.syncer.stats().snapshots_installed, 0u);
  EXPECT_EQ(client.forest.committed_height(), 0u);  // nothing adopted
  EXPECT_TRUE(client.syncer.snapshot_in_flight());
  const auto retry =
      std::get<types::SnapshotRequestMsg>(*client.sent.back().msg);
  EXPECT_EQ(client.sent.back().to, 2u);  // rotated off the liar

  // The honest peer serves the same snapshot; this time it installs.
  server.sent.clear();
  server.syncer.on_snapshot_request(retry, 0);
  for (const auto& out : server.sent) {
    client.syncer.on_snapshot_chunk(
        std::get<types::SnapshotChunkMsg>(*out.msg), 2);
  }
  EXPECT_EQ(client.syncer.stats().snapshots_installed, 1u);
  EXPECT_EQ(client.forest.committed_height(), 30u);
}

TEST(SnapshotTransfer, UnverifiableAnchorQcRejectsTheSnapshot) {
  const sync::Syncer::Settings settings{/*batch=*/4, sim::milliseconds(100),
                                        /*retries=*/3, /*pipeline=*/1,
                                        /*snapshot_gap=*/8,
                                        /*snapshot_chunk=*/128};
  const auto chain = make_chain(40);
  SyncerRig server(settings, /*id=*/1);
  commit_prefix(server, chain, 30);
  SnapshotRig client(settings);
  client.qc_verdict = false;  // CertVerifier refuses the anchor QC

  const auto req = trigger_snapshot(client, chain, settings.batch, 1);
  server.syncer.on_snapshot_request(req, 0);
  for (const auto& out : server.sent) {
    client.syncer.on_snapshot_chunk(
        std::get<types::SnapshotChunkMsg>(*out.msg), 1);
  }
  // Shape and root were fine — only the certificate failed. Nothing may
  // be installed on the strength of an unverifiable QC.
  EXPECT_EQ(client.syncer.stats().snapshots_rejected, 1u);
  EXPECT_EQ(client.syncer.stats().snapshots_installed, 0u);
  EXPECT_EQ(client.forest.committed_height(), 0u);
}

TEST(SnapshotTransfer, UnsolicitedChunksNeverTouchTheForest) {
  SnapshotRig client({/*batch=*/4, sim::milliseconds(100), 3, 1,
                      /*snapshot_gap=*/8, /*snapshot_chunk=*/128});
  types::SnapshotChunkMsg chunk;
  chunk.seq = 0;
  chunk.total = 1;
  chunk.hashes = {types::Block::genesis()->hash()};
  client.syncer.on_snapshot_chunk(chunk, 3);
  EXPECT_EQ(client.syncer.stats().responses_rejected, 1u);
  EXPECT_EQ(client.syncer.stats().snapshot_chunks_received, 0u);
  EXPECT_EQ(client.forest.committed_height(), 0u);
}

// ---------------------------------------------------------------------------
// End-to-end recovery through the churn engine
// ---------------------------------------------------------------------------

harness::RunSpec recovery_spec(std::uint32_t sync_batch) {
  harness::RunSpec spec;
  spec.cfg.n_replicas = 4;
  spec.cfg.bsize = 100;
  spec.cfg.memsize = 200000;
  spec.cfg.seed = 33;
  spec.cfg.link_loss = 0.02;  // ambient loss: retries must carry recovery
  spec.cfg.sync_batch = sync_batch;
  spec.cfg.sync_timeout = sim::milliseconds(80);
  spec.cfg.sync_retries = 4;
  // 3|1: the majority keeps its quorum and commits through the window,
  // replica 3 misses all of it and must range-fetch it back after heal.
  spec.cfg.churn = "partition@0.2s:groups=0-1-2|3;heal@0.6s";
  spec.workload.mode = client::LoadMode::kClosedLoop;
  spec.workload.concurrency = 64;
  spec.opts.warmup_s = 0.1;
  spec.opts.measure_s = 1.1;
  return spec;
}

TEST(SyncRecovery, PartitionedMinorityCatchesUpViaBatchedSync) {
  // The ISSUE's end-to-end bar: a 2|2 partition under ambient link loss,
  // healed mid-run — the minority misses the majority's window and must
  // fetch it back; sync_* and recovery_ms must be populated.
  const auto r = harness::execute(recovery_spec(/*sync_batch=*/6));
  EXPECT_TRUE(r.consistent);
  EXPECT_EQ(r.safety_violations, 0u);
  EXPECT_GT(r.blocks_committed, 0u);
  EXPECT_GT(r.sync_requests, 0u);
  EXPECT_GT(r.sync_blocks, 0u);
  EXPECT_GT(r.sync_bytes, 0u);
  // One heal event with laggards -> one recovery measurement, bounded by
  // the post-heal window.
  EXPECT_GT(r.recovery_ms, 0.0);
  EXPECT_LE(r.recovery_ms, 700.0);
}

TEST(SyncRecovery, RecoveryColumnsReachPersistedRecords) {
  const auto spec = recovery_spec(6);
  const auto result = harness::execute(spec);
  const auto rec = harness::report::make_run_record("t", "a", "s", 0, spec,
                                                    0, 1, result);
  const std::string row = harness::report::csv_row(rec);
  const auto json = harness::report::to_json(rec);
  const auto back = harness::report::record_from_json(json);
  EXPECT_EQ(back.result.sync_requests, result.sync_requests);
  EXPECT_EQ(back.result.sync_blocks, result.sync_blocks);
  EXPECT_EQ(back.result.sync_bytes, result.sync_bytes);
  EXPECT_DOUBLE_EQ(back.result.recovery_ms, result.recovery_ms);
  EXPECT_EQ(back.prov.cfg.sync_batch, 6u);
  EXPECT_EQ(back.prov.cfg.sync_retries, 4u);
  EXPECT_EQ(back.prov.cfg.sync_timeout, sim::milliseconds(80));
  // The CSV row has one cell per column.
  std::size_t cells = 1;
  bool quoted = false;
  for (char c : row) {
    if (c == '"') quoted = !quoted;
    if (c == ',' && !quoted) ++cells;
  }
  EXPECT_EQ(cells, harness::report::csv_columns().size());
}

TEST(SyncRecovery, DeterministicAcrossThreadCountsAndBatches) {
  std::vector<harness::RunSpec> grid = {recovery_spec(1), recovery_spec(4),
                                        recovery_spec(16)};
  harness::ParallelRunner one(1);
  harness::ParallelRunner four(4);
  const auto a = one.run(grid);
  const auto b = four.run(grid);
  EXPECT_EQ(a, b);
}

TEST(SyncRecovery, CrashedPeerCannotWedgeRecovery) {
  // Replica 3 misses a window alone, then a majority peer dies right at
  // the heal: fetches routed at the corpse must rotate, not stall.
  harness::RunSpec spec = recovery_spec(4);
  spec.cfg.churn =
      "partition@0.2s:groups=0-1-2|3;heal@0.6s;crash@0.62s:replica=1";
  const auto r = harness::execute(spec);
  EXPECT_TRUE(r.consistent);
  EXPECT_GT(r.sync_blocks, 0u);
  EXPECT_GT(r.recovery_ms, 0.0);
}

TEST(SyncRecovery, LaggardCrashingRightAfterHealAbandonsTheEvent) {
  // The only laggard dies 10 ms after the heal: nothing ever catches up,
  // so the event is unmeasurable and must NOT report a tiny recovery_ms.
  harness::RunSpec spec = recovery_spec(4);
  spec.cfg.churn =
      "partition@0.2s:groups=0-1-2|3;heal@0.6s;crash@0.61s:replica=3";
  const auto r = harness::execute(spec);
  EXPECT_TRUE(r.consistent);
  EXPECT_DOUBLE_EQ(r.recovery_ms, 0.0);
}

TEST(SyncRecovery, EmptyChurnLeavesRecoveryColumnsZero) {
  harness::RunSpec spec = recovery_spec(1);
  spec.cfg.churn.clear();
  spec.cfg.link_loss = 0;
  const auto r = harness::execute(spec);
  EXPECT_DOUBLE_EQ(r.recovery_ms, 0.0);
}

/// recovery_spec tuned so the 0.4 s outage opens a REAL commit gap. Under
/// round-robin the partitioned replica still gets elected every 4th view
/// and the majority all but stalls on its timeouts (~2 blocks committed
/// per outage) — far too small a gap to discriminate the accelerators. A
/// static leader inside the majority keeps the commit pipe full, so the
/// healed laggard faces tens-to-hundreds of missing blocks.
harness::RunSpec open_loop_recovery_spec(std::uint32_t sync_batch) {
  harness::RunSpec spec = recovery_spec(sync_batch);
  spec.cfg.election = "static:0";  // keep committing while 3 is gone
  spec.cfg.link_loss = 0;          // isolate the accelerator from retry noise
  spec.workload.mode = client::LoadMode::kOpenLoop;
  spec.workload.arrival_rate_tps = 4000;
  return spec;
}

TEST(SyncRecovery, PipelinedSyncNeedsFewerLocatorRounds) {
  // Small batches across a real gap: the serial walk pays one link round
  // trip per batch; the pipelined fan-out covers several segments per
  // round, so the laggard catches up in strictly fewer serial rounds —
  // visible as lower heal-to-caught-up latency once links cost something.
  harness::RunSpec serial = open_loop_recovery_spec(/*sync_batch=*/2);
  serial.cfg.delay = sim::milliseconds(3);  // make round trips measurable
  harness::RunSpec piped = serial;
  piped.cfg.sync_pipeline = 8;

  const auto a = harness::execute(serial);
  const auto b = harness::execute(piped);
  ASSERT_GT(a.recovery_ms, 0.0);
  ASSERT_GT(b.recovery_ms, 0.0);
  EXPECT_LT(b.recovery_ms, a.recovery_ms);
  EXPECT_TRUE(b.consistent);
  EXPECT_EQ(b.safety_violations, 0u);
  EXPECT_GT(b.sync_blocks, 0u);
}

TEST(SyncRecovery, SnapshotTransferCarriesLongOutageRecovery) {
  // A small snapshot threshold guarantees the healed laggard's gap
  // qualifies: recovery must ride the snapshot path (installed >= 1, the
  // traffic columns populated) and still converge to a consistent chain.
  harness::RunSpec spec = open_loop_recovery_spec(/*sync_batch=*/8);
  spec.cfg.snapshot_gap = 8;
  spec.cfg.snapshot_chunk = 256;
  const auto r = harness::execute(spec);
  EXPECT_TRUE(r.consistent);
  EXPECT_EQ(r.safety_violations, 0u);
  EXPECT_GE(r.snapshots_installed, 1u);
  EXPECT_GT(r.snapshot_chunks, 0u);
  EXPECT_GT(r.snapshot_bytes, 0u);
  EXPECT_GT(r.recovery_ms, 0.0);
  EXPECT_EQ(r.snapshots_rejected, 0u);  // honest peers only
}

TEST(SyncRecovery, AcceleratorsAreDeterministicAcrossThreadCounts) {
  harness::RunSpec piped = open_loop_recovery_spec(2);
  piped.cfg.sync_pipeline = 8;
  piped.cfg.delay = sim::milliseconds(3);
  harness::RunSpec snap = open_loop_recovery_spec(8);
  snap.cfg.snapshot_gap = 8;
  snap.cfg.snapshot_chunk = 256;
  harness::RunSpec both = open_loop_recovery_spec(4);
  both.cfg.sync_pipeline = 2;
  both.cfg.snapshot_gap = 12;
  std::vector<harness::RunSpec> grid = {piped, snap, both};
  harness::ParallelRunner one(1);
  harness::ParallelRunner four(4);
  EXPECT_EQ(one.run(grid), four.run(grid));
}

}  // namespace
}  // namespace bamboo
