// Tests for the certificate-verification pipeline: CertVerifier structural
// and HMAC checks on hand-crafted QCs/TCs, the forge-qc Byzantine strategy
// end-to-end (forged certificates must be rejected and counted, never
// committed), strategy cost-model sanity, determinism of the simulated
// multi-worker verify pool, a forged vote or proposal delivered ahead of
// the genuine one, and a forged vote that no replica may echo.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "client/workload.h"
#include "crypto/sha256.h"
#include "crypto/signer.h"
#include "harness/cluster.h"
#include "harness/experiment.h"
#include "quorum/cert_verifier.h"
#include "types/block.h"
#include "types/certificates.h"

namespace bamboo {
namespace {

using quorum::CertCheck;
using quorum::CertVerifier;

constexpr std::uint32_t kN = 4;  // quorum 3

/// A QC for (view, hash) signed honestly by replicas [0, signers).
types::QuorumCert signed_qc(const crypto::KeyStore& keys, types::View view,
                            const crypto::Digest& hash,
                            std::uint32_t signers = 3) {
  types::QuorumCert qc;
  qc.view = view;
  qc.height = 1;
  qc.block_hash = hash;
  const crypto::Digest digest = types::vote_digest(view, hash);
  for (std::uint32_t i = 0; i < signers; ++i) {
    qc.sigs.push_back(keys.sign(i, digest));
  }
  return qc;
}

/// A TC for `view` whose i-th signer honestly reports reported[i]; the
/// embedded high_qc must be supplied by the caller.
types::TimeoutCert signed_tc(const crypto::KeyStore& keys, types::View view,
                             std::vector<types::View> reported,
                             types::QuorumCert high_qc) {
  types::TimeoutCert tc;
  tc.view = view;
  tc.reported_qc_views = std::move(reported);
  tc.high_qc = std::move(high_qc);
  for (std::uint32_t i = 0; i < tc.reported_qc_views.size(); ++i) {
    tc.sigs.push_back(
        keys.sign(i, types::timeout_digest(view, tc.reported_qc_views[i])));
  }
  return tc;
}

class CertVerifierTest : public ::testing::Test {
 protected:
  crypto::KeyStore keys{42, kN};
  CertVerifier verifier{keys, kN};
  crypto::Digest h = crypto::Sha256::hash("block");
};

TEST_F(CertVerifierTest, ValidQcPasses) {
  EXPECT_EQ(verifier.check_qc(signed_qc(keys, 3, h)), CertCheck::kOk);
}

TEST_F(CertVerifierTest, GenesisQcValidByConvention) {
  EXPECT_EQ(verifier.check_qc(types::QuorumCert{}), CertCheck::kOk);
}

TEST_F(CertVerifierTest, TooFewSigsRejected) {
  EXPECT_EQ(verifier.check_qc(signed_qc(keys, 3, h, 2)),
            CertCheck::kTooFewSigs);
  types::QuorumCert empty;
  empty.view = 3;  // non-genesis, zero signatures
  EXPECT_EQ(verifier.check_qc(empty), CertCheck::kTooFewSigs);
}

TEST_F(CertVerifierTest, SignerOutOfRangeRejected) {
  auto qc = signed_qc(keys, 3, h);
  qc.sigs[1].signer = kN + 3;
  EXPECT_EQ(verifier.check_qc(qc), CertCheck::kSignerOutOfRange);
}

TEST_F(CertVerifierTest, DuplicateSignerRejected) {
  // Three signatures but only two distinct replicas: not a quorum, even
  // though both of signer 0's tags verify.
  auto qc = signed_qc(keys, 3, h);
  qc.sigs[2] = qc.sigs[0];
  EXPECT_EQ(verifier.check_qc(qc), CertCheck::kDuplicateSigner);
}

TEST_F(CertVerifierTest, ForgedTagRejected) {
  auto qc = signed_qc(keys, 3, h);
  qc.sigs[1].tag = crypto::Sha256::hash("not a real signature");
  EXPECT_EQ(verifier.check_qc(qc), CertCheck::kBadSignature);
}

TEST_F(CertVerifierTest, TamperedFieldsBreakEverySignature) {
  // Signatures bind (view, block_hash): altering either after signing must
  // invalidate the certificate.
  auto qc = signed_qc(keys, 3, h);
  qc.view = 4;
  EXPECT_EQ(verifier.check_qc(qc), CertCheck::kBadSignature);
  qc = signed_qc(keys, 3, h);
  qc.block_hash = crypto::Sha256::hash("other block");
  EXPECT_EQ(verifier.check_qc(qc), CertCheck::kBadSignature);
}

TEST_F(CertVerifierTest, ReusedVerifierStateIsClean) {
  // The epoch-tagged dedup scratch must not leak between calls: the same
  // signers passing once cannot trip the duplicate check later.
  const auto qc = signed_qc(keys, 3, h);
  EXPECT_EQ(verifier.check_qc(qc), CertCheck::kOk);
  EXPECT_EQ(verifier.check_qc(qc), CertCheck::kOk);
}

TEST_F(CertVerifierTest, ValidTcPasses) {
  const auto tc =
      signed_tc(keys, 5, {1, 3, 0}, signed_qc(keys, 3, h));
  EXPECT_EQ(verifier.check_tc(tc), CertCheck::kOk);
}

TEST_F(CertVerifierTest, TcReportedViewsMustMatchSigs) {
  auto tc = signed_tc(keys, 5, {1, 3, 0}, signed_qc(keys, 3, h));
  tc.reported_qc_views.push_back(2);  // 4 reports, 3 signatures
  EXPECT_EQ(verifier.check_tc(tc), CertCheck::kMalformed);
}

TEST_F(CertVerifierTest, TcHighQcMustBeMaxReported) {
  // AggQC invariant: the embedded high_qc must be the freshest QC any
  // signer reported. A stale or inflated high_qc is malformed.
  auto tc = signed_tc(keys, 5, {1, 3, 0}, signed_qc(keys, 2, h));
  EXPECT_EQ(verifier.check_tc(tc), CertCheck::kMalformed);
  tc = signed_tc(keys, 5, {1, 3, 0}, signed_qc(keys, 4, h));
  EXPECT_EQ(verifier.check_tc(tc), CertCheck::kMalformed);
}

TEST_F(CertVerifierTest, TcForgedTimeoutSigRejected) {
  auto tc = signed_tc(keys, 5, {1, 3, 0}, signed_qc(keys, 3, h));
  tc.sigs[0].tag = crypto::Sha256::hash("junk");
  EXPECT_EQ(verifier.check_tc(tc), CertCheck::kBadSignature);
}

TEST_F(CertVerifierTest, TcLyingReportRejected) {
  // Signer 1 signed "my high QC is view 3" but the TC claims it reported
  // view 2: the tag no longer matches the per-signer timeout digest.
  auto tc = signed_tc(keys, 5, {1, 3, 0}, signed_qc(keys, 3, h));
  tc.reported_qc_views[1] = 2;
  tc.high_qc = signed_qc(keys, 2, h);  // keep the max-invariant intact
  EXPECT_EQ(verifier.check_tc(tc), CertCheck::kBadSignature);
}

TEST_F(CertVerifierTest, TcBadEmbeddedHighQcRejected) {
  auto bad_qc = signed_qc(keys, 3, h);
  bad_qc.sigs[2].tag = crypto::Sha256::hash("junk");
  const auto tc = signed_tc(keys, 5, {1, 3, 0}, bad_qc);
  EXPECT_EQ(verifier.check_tc(tc), CertCheck::kBadSignature);
}

// ---------------------------------------------------------------------------
// End-to-end: the verification pipeline inside full runs
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

TEST(VerifyPipeline, HonestRunVerifiesAndRejectsNothing) {
  const harness::RunResult r = harness::execute(e2e_spec("hotstuff"));
  EXPECT_GT(r.certs_verified, 0u);
  EXPECT_EQ(r.certs_rejected, 0u);
  EXPECT_TRUE(r.consistent);
}

TEST(VerifyPipeline, ForgeQcAttackIsRejectedEndToEnd) {
  // A Byzantine leader proposing off a stale parent under a forged QC (fake
  // HMAC tags from a full quorum of signer ids) must have every forged
  // certificate dropped at the receivers: the forgeries are counted, no
  // safety violation occurs, and the honest majority keeps committing.
  harness::RunSpec spec = e2e_spec("hotstuff");
  spec.cfg.byz_no = 1;
  spec.cfg.strategy = "forge-qc";
  const harness::RunResult r = harness::execute(spec);
  EXPECT_GT(r.certs_rejected, 0u);
  EXPECT_EQ(r.safety_violations, 0u);
  EXPECT_TRUE(r.consistent);
  EXPECT_GT(r.throughput_tps, 0.0);
}

TEST(VerifyPipeline, ForgeQcRejectedUnderEveryStrategy) {
  // The verify *strategy* changes only the simulated cost, never the
  // verdict: forgeries are rejected under batch and amortized-qc too.
  for (const char* strategy : {"batch", "amortized-qc"}) {
    harness::RunSpec spec = e2e_spec("hotstuff");
    spec.cfg.byz_no = 1;
    spec.cfg.strategy = "forge-qc";
    spec.cfg.verify_strategy = strategy;
    spec.cfg.cpu_verify_per_sig = sim::microseconds(10);
    const harness::RunResult r = harness::execute(spec);
    EXPECT_GT(r.certs_rejected, 0u) << strategy;
    EXPECT_EQ(r.safety_violations, 0u) << strategy;
    EXPECT_TRUE(r.consistent) << strategy;
  }
}

TEST(VerifyPipeline, VerifySurchargeCostsThroughput) {
  // Charging per-signature certificate verification must make the run
  // CPU-bound and commit less than the free-verification baseline.
  const harness::RunResult base = harness::execute(e2e_spec("hotstuff"));
  harness::RunSpec loaded = e2e_spec("hotstuff");
  loaded.cfg.verify_strategy = "eager";
  loaded.cfg.cpu_verify_per_sig = sim::microseconds(320);
  const harness::RunResult r = harness::execute(loaded);
  EXPECT_LT(r.throughput_tps, base.throughput_tps);
  EXPECT_TRUE(r.consistent);
}

TEST(VerifyPipeline, WorkerPoolRunsAreDeterministic) {
  // A multi-worker verify pool must stay bit-deterministic: the same spec
  // executed twice yields field-identical results.
  harness::RunSpec spec = e2e_spec("2chs");
  spec.cfg.cpu_workers = 4;
  spec.cfg.verify_strategy = "batch";
  spec.cfg.cpu_verify_per_sig = sim::microseconds(40);
  const harness::RunResult a = harness::execute(spec);
  const harness::RunResult b = harness::execute(spec);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(a.consistent);
  EXPECT_GT(a.certs_verified, 0u);
}

TEST(VerifyPipeline, ExtraWorkersRelieveCpuPressure) {
  // Under a heavy eager surcharge, adding simulated verify workers must
  // not hurt throughput (the pool drains the same queue concurrently).
  harness::RunSpec spec = e2e_spec("hotstuff");
  spec.cfg.verify_strategy = "eager";
  spec.cfg.cpu_verify_per_sig = sim::microseconds(320);
  const harness::RunResult w1 = harness::execute(spec);
  spec.cfg.cpu_workers = 4;
  const harness::RunResult w4 = harness::execute(spec);
  EXPECT_GE(w4.throughput_tps, w1.throughput_tps);
  EXPECT_TRUE(w4.consistent);
}

TEST(VerifyPipeline, ForgedVoteCannotShadowTheGenuineVote) {
  // Streamlet echoes every vote, and a replica skips verifying a copy of a
  // vote it has already counted. A forged vote (garbage tag) arriving first
  // must still be verified and dropped: it must neither form a QC nor stop
  // the genuine vote from the same voter counting when it arrives.
  core::Config cfg;
  cfg.protocol = "streamlet";
  cfg.n_replicas = 4;  // quorum 3
  cfg.byz_no = 2;      // replicas 2 and 3 crash at start, so the two live
  cfg.strategy = "crash";  // replicas alone can certify nothing
  cfg.seed = 5;
  harness::Cluster cluster(cfg);
  cluster.start();
  cluster.simulator().run_for(sim::milliseconds(450));

  // A live block: proposed by replica 0 or 1 and voted by both. Without a
  // QC nothing commits, so every block extends genesis.
  const core::Replica& r0 = cluster.replica(0);
  ASSERT_EQ(r0.forest().committed_height(), 0u);
  types::BlockPtr block;
  for (const types::BlockPtr& b :
       r0.forest().children(r0.forest().committed_tip()->hash())) {
    if (b->proposer() < 2 && (!block || b->view() > block->view())) block = b;
  }
  ASSERT_NE(block, nullptr);
  ASSERT_FALSE(r0.forest().is_certified(block->hash()));

  types::VoteMsg vote;
  vote.view = block->view();
  vote.height = block->height();
  vote.slot = block->slot();
  vote.block_hash = block->hash();
  types::VoteMsg forged = vote;
  forged.sig.signer = 3;
  forged.sig.tag = crypto::Sha256::hash("garbage");
  types::VoteMsg genuine = vote;
  genuine.sig = cluster.keys().sign(
      3, types::vote_digest(vote.view, vote.block_hash));
  // Delivered as replica 1's echo of voter 3's vote.
  const auto deliver = [&cluster](const types::VoteMsg& v) {
    cluster.network().send(1, 0, types::make_message(v));
    cluster.simulator().run_for(sim::milliseconds(5));
  };

  deliver(forged);
  EXPECT_FALSE(r0.forest().is_certified(block->hash()));

  deliver(genuine);
  ASSERT_TRUE(r0.forest().is_certified(block->hash()));
  const types::QuorumCert qc = *r0.forest().qc_for(block->hash());
  EXPECT_EQ(qc.sigs.size(), 3u);
  EXPECT_NE(std::find(qc.sigs.begin(), qc.sigs.end(), genuine.sig),
            qc.sigs.end());

  deliver(forged);
  EXPECT_EQ(*r0.forest().qc_for(block->hash()), qc);
}

TEST(VerifyPipeline, ForgedVoteIsNotEchoed) {
  // Streamlet echoes each vote it accepts to every other replica. A forged
  // vote (garbage tag) must be dropped before the echo, whether its voter
  // has not voted (replica 3 crashed) or its voter's genuine vote was
  // already counted (replica 1): no replica may send anything for it. Each
  // forgery goes, from a client host, to replica 0 of a cluster, and the
  // cluster's sends over the next 50 ms are compared with those of an
  // identical cluster that gets none.
  const auto sends_in_window = [](std::optional<crypto::SignerId> voter) {
    core::Config cfg;
    cfg.protocol = "streamlet";
    cfg.n_replicas = 4;  // quorum 3
    cfg.byz_no = 2;      // replicas 2 and 3 crash at start, so the two live
    cfg.strategy = "crash";  // replicas alone can certify nothing
    cfg.seed = 5;
    harness::Cluster cluster(cfg);
    cluster.start();
    cluster.simulator().run_for(sim::milliseconds(450));
    const std::uint64_t before = cluster.network().messages_sent();
    if (voter) {
      // The newest live block: proposed by replica 0 or 1, voted by both.
      const core::Replica& r0 = cluster.replica(0);
      types::BlockPtr block;
      for (const types::BlockPtr& b :
           r0.forest().children(r0.forest().committed_tip()->hash())) {
        if (b->proposer() < 2 && (!block || b->view() > block->view())) {
          block = b;
        }
      }
      EXPECT_NE(block, nullptr);
      if (!block) return std::uint64_t{0};
      types::VoteMsg forged;
      forged.view = block->view();
      forged.height = block->height();
      forged.slot = block->slot();
      forged.block_hash = block->hash();
      forged.sig.signer = *voter;
      forged.sig.tag = crypto::Sha256::hash("garbage");
      cluster.network().send(cfg.client_endpoint(0), 0,
                             types::make_message(forged));
    }
    cluster.simulator().run_for(sim::milliseconds(50));
    return cluster.network().messages_sent() - before;
  };
  const std::uint64_t quiet = sends_in_window(std::nullopt);
  EXPECT_EQ(quiet, 0u);
  // The forgery itself is the one extra message.
  EXPECT_EQ(sends_in_window(3), quiet + 1);
  EXPECT_EQ(sends_in_window(1), quiet + 1);
}

TEST(VerifyPipeline, ForgedProposalCannotRideTheMemo) {
  // Streamlet echoes every proposal, and a replica skips the HMAC of a copy
  // whose (block hash, signature) pair already passed. A forged copy
  // arriving first must be checked and dropped every time, not remembered;
  // the genuine proposal must then be accepted and voted on; and another
  // block of the same view carrying the genuine tag must be rejected.
  core::Config cfg;
  cfg.protocol = "streamlet";
  cfg.n_replicas = 4;  // quorum 3
  cfg.byz_no = 2;      // replicas 2 and 3 crash at start: no QC ever forms,
  cfg.strategy = "crash";  // so every votable block extends genesis
  cfg.seed = 5;
  harness::Cluster cluster(cfg);
  cluster.start();
  cluster.simulator().run_for(sim::milliseconds(450));

  const core::Replica& r0 = cluster.replica(0);
  ASSERT_EQ(r0.forest().committed_height(), 0u);
  // A view ahead of replica 0's pacemaker (views time out after 100 ms):
  // votable, and no live proposal of it arrives during the test.
  const types::View view = r0.current_view() + 5;
  const types::NodeId leader = cluster.election().leader(view);
  const auto make_block = [&](std::uint32_t txs) {
    types::Block::Fields fields;
    fields.parent_hash = r0.forest().committed_tip()->hash();
    fields.view = view;
    fields.height = 1;
    fields.proposer = leader;
    fields.txns.resize(txs);
    return std::make_shared<const types::Block>(std::move(fields));
  };
  types::ProposalMsg genuine;
  genuine.block = make_block(0);
  genuine.sig = cluster.keys().sign(leader, genuine.block->hash());
  types::ProposalMsg forged = genuine;
  forged.sig.tag = crypto::Sha256::hash("garbage");
  types::ProposalMsg other = genuine;  // the genuine tag, another block
  other.block = make_block(1);
  ASSERT_NE(other.block->hash(), genuine.block->hash());
  // Delivered as replica 1's echo of the leader's proposal.
  const auto deliver = [&cluster](const types::ProposalMsg& p) {
    cluster.network().send(1, 0, types::make_message(p));
    cluster.simulator().run_for(sim::milliseconds(5));
  };

  for (int copy = 0; copy < 2; ++copy) {
    deliver(forged);
    EXPECT_FALSE(r0.forest().contains(genuine.block->hash())) << copy;
    EXPECT_LT(r0.safety().last_voted_view(), view) << copy;
  }

  deliver(genuine);
  EXPECT_TRUE(r0.forest().contains(genuine.block->hash()));
  EXPECT_EQ(r0.safety().last_voted_view(), view);
  const std::uint64_t votes = r0.stats().votes_sent;

  deliver(other);
  EXPECT_FALSE(r0.forest().contains(other.block->hash()));
  EXPECT_EQ(r0.stats().votes_sent, votes);
}

TEST(VerifyPipeline, ForgedProposalCannotTakeTheEchoSlot) {
  // Streamlet echoes a proposal once per (view, block hash). A forged copy
  // that reaches a replica first must not be echoed in the genuine
  // proposal's place: replica 0 alone receives both, and replica 1 must
  // get the block through replica 0's echo of the genuine one.
  core::Config cfg;
  cfg.protocol = "streamlet";
  cfg.n_replicas = 4;  // quorum 3
  cfg.byz_no = 2;      // replicas 2 and 3 crash at start: no QC ever forms,
  cfg.strategy = "crash";  // so every votable block extends genesis
  cfg.seed = 5;
  harness::Cluster cluster(cfg);
  cluster.start();
  cluster.simulator().run_for(sim::milliseconds(450));

  const core::Replica& r0 = cluster.replica(0);
  ASSERT_EQ(r0.forest().committed_height(), 0u);
  // A view no live proposal reaches during the test.
  const types::View view = r0.current_view() + 5;
  const types::NodeId leader = cluster.election().leader(view);
  types::Block::Fields fields;
  fields.parent_hash = r0.forest().committed_tip()->hash();
  fields.view = view;
  fields.height = 1;
  fields.proposer = leader;
  types::ProposalMsg genuine;
  genuine.block = std::make_shared<const types::Block>(std::move(fields));
  genuine.sig = cluster.keys().sign(leader, genuine.block->hash());
  types::ProposalMsg forged = genuine;
  forged.sig.tag = crypto::Sha256::hash("garbage");
  // Sent from a client host, so no other replica receives either copy.
  const auto deliver = [&cluster, &cfg](const types::ProposalMsg& p) {
    cluster.network().send(cfg.client_endpoint(0), 0, types::make_message(p));
    cluster.simulator().run_for(sim::milliseconds(5));
  };

  deliver(forged);
  deliver(genuine);
  EXPECT_TRUE(r0.forest().contains(genuine.block->hash()));
  EXPECT_TRUE(cluster.replica(1).forest().contains(genuine.block->hash()));
}

}  // namespace
}  // namespace bamboo
