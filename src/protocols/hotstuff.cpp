#include "protocols/hotstuff.h"

namespace bamboo::protocols {

using types::BlockPtr;
using types::QuorumCert;

HotStuffFamily::HotStuffFamily() {
  lock_hash_ = types::Block::genesis()->hash();
  lock_view_ = types::kGenesisView;
}

std::optional<core::ProposalPlan> HotStuffFamily::plan_proposal(
    types::View, const core::ProtocolContext& ctx) {
  // Proposing rule: build on the block certified by the highest QC.
  const BlockPtr parent = ctx.forest.high_qc_block();
  if (!parent) return std::nullopt;
  return core::ProposalPlan{parent, ctx.forest.high_qc()};
}

bool HotStuffFamily::should_vote(const types::ProposalMsg& proposal,
                                 const core::ProtocolContext& ctx) {
  const BlockPtr& b = proposal.block;
  // (1) Newer than anything we voted for.
  if (b->view() <= last_voted_view_) return false;
  // (2) Safety: extends the locked block, or — the liveness escape hatch —
  // its justify QC is from a higher view than our lock.
  if (ctx.forest.extends(b->hash(), lock_hash_)) return true;
  return b->justify().view > lock_view_;
}

void HotStuffFamily::did_vote(const types::Block& block) {
  if (block.view() > last_voted_view_) last_voted_view_ = block.view();
}

void HotStuffFamily::maybe_lock(const BlockPtr& block) {
  if (block && block->view() > lock_view_) {
    lock_view_ = block->view();
    lock_hash_ = block->hash();
  }
}

// ---------------------------------------------------------------------------
// HotStuff (three-chain)
// ---------------------------------------------------------------------------

void HotStuff::update_state(const QuorumCert& qc,
                            const core::ProtocolContext& ctx) {
  // State-Updating rule: a QC for b makes b the tail of a one-chain; if b's
  // justify certifies its direct parent, that parent heads a two-chain —
  // the new lock candidate.
  const BlockPtr b = ctx.forest.get(qc.block_hash);
  if (!b || !b->justify_is_parent()) return;
  maybe_lock(ctx.forest.get(b->parent_hash()));
}

std::optional<crypto::Digest> HotStuff::commit_target(
    const QuorumCert& qc, const core::ProtocolContext& ctx) {
  // Commit rule (PODC'19): a three-chain b3 <- b2 <- b1 of certified blocks
  // linked by *direct parent* edges commits b3 and its whole prefix. Views
  // may skip numbers across the chain (Fig. 2: QC_v4 does not commit b_v1
  // because b_v3's parent is the forked b_v2, not b_v1; QC_v5 commits b_v3
  // through the direct chain b_v3 <- b_v4 <- b_v5).
  //
  // Deliberately NOT the LibraBFT contiguous-round variant: with
  // round-robin leaders and votes routed to the next leader, a single
  // crashed replica at N=4 suppresses every fourth QC, so three
  // consecutively-certified views never occur and the contiguous rule
  // commits nothing — which would contradict the paper's own Fig. 15
  // (HotStuff progressing under the crashed node), which
  // LivenessResume.AfterLeaderCrash in tests/test_liveness.cpp holds.
  const BlockPtr b1 = ctx.forest.get(qc.block_hash);
  if (!b1 || !b1->justify_is_parent()) return std::nullopt;
  const BlockPtr b2 = ctx.forest.get(b1->parent_hash());
  if (!b2 || !b2->justify_is_parent()) return std::nullopt;
  const BlockPtr b3 = ctx.forest.get(b2->parent_hash());
  if (!b3) return std::nullopt;
  if (b3->height() <= ctx.forest.committed_height()) return std::nullopt;
  return b3->hash();
}

// ---------------------------------------------------------------------------
// Two-chain HotStuff
// ---------------------------------------------------------------------------

void TwoChainHotStuff::update_state(const QuorumCert& qc,
                                    const core::ProtocolContext& ctx) {
  // Lock on the head of the highest one-chain: the certified block itself.
  maybe_lock(ctx.forest.get(qc.block_hash));
}

std::optional<crypto::Digest> TwoChainHotStuff::commit_target(
    const QuorumCert& qc, const core::ProtocolContext& ctx) {
  // Commit rule: a two-chain b2 <- b1 of certified blocks with a direct
  // parent link in consecutive views commits b2 (and its prefix). Unlike
  // the three-chain rule, a two-chain commit *requires* view contiguity
  // for safety (the Jolteon/DiemBFT rule): without it, a QC formed in a
  // much later view can certify a conflicting branch.
  const BlockPtr b1 = ctx.forest.get(qc.block_hash);
  if (!b1 || !b1->justify_is_parent()) return std::nullopt;
  const BlockPtr b2 = ctx.forest.get(b1->parent_hash());
  if (!b2) return std::nullopt;
  if (b1->view() != b2->view() + 1) return std::nullopt;
  if (b2->height() <= ctx.forest.committed_height()) return std::nullopt;
  return b2->hash();
}

}  // namespace bamboo::protocols
