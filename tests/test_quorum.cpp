// Tests for vote/timeout aggregation: thresholds, dedup, equivocation
// evidence, TC high-QC tracking, garbage collection.

#include <gtest/gtest.h>

#include "crypto/sha256.h"
#include "quorum/vote_aggregator.h"

namespace bamboo {
namespace {

types::VoteMsg vote(types::NodeId voter, types::View view,
                    const crypto::Digest& hash, types::Height height = 1) {
  types::VoteMsg v;
  v.view = view;
  v.height = height;
  v.block_hash = hash;
  v.sig.signer = voter;
  return v;
}

types::TimeoutMsg timeout(types::NodeId sender, types::View view,
                          types::View qc_view) {
  types::TimeoutMsg t;
  t.view = view;
  t.high_qc.view = qc_view;
  t.sig.signer = sender;
  return t;
}

TEST(VoteAggregator, QcAtQuorum) {
  quorum::VoteAggregator agg(4);  // quorum 3
  const auto h = crypto::Sha256::hash("b");
  EXPECT_FALSE(agg.add(vote(0, 1, h)).has_value());
  EXPECT_FALSE(agg.add(vote(1, 1, h)).has_value());
  const auto qc = agg.add(vote(2, 1, h));
  ASSERT_TRUE(qc.has_value());
  EXPECT_EQ(qc->view, 1u);
  EXPECT_EQ(qc->block_hash, h);
  EXPECT_EQ(qc->sigs.size(), 3u);
}

TEST(VoteAggregator, QcFormedOnlyOnce) {
  quorum::VoteAggregator agg(4);
  const auto h = crypto::Sha256::hash("b");
  agg.add(vote(0, 1, h));
  agg.add(vote(1, 1, h));
  ASSERT_TRUE(agg.add(vote(2, 1, h)).has_value());
  EXPECT_FALSE(agg.add(vote(3, 1, h)).has_value());  // late vote: no new QC
}

TEST(VoteAggregator, DuplicateVotesIgnored) {
  quorum::VoteAggregator agg(4);
  const auto h = crypto::Sha256::hash("b");
  agg.add(vote(0, 1, h));
  agg.add(vote(0, 1, h));
  agg.add(vote(0, 1, h));
  EXPECT_EQ(agg.duplicate_count(), 2u);
  EXPECT_FALSE(agg.add(vote(1, 1, h)).has_value());  // still only 2 voters
}

TEST(VoteAggregator, EquivocationDetectedAndNotCounted) {
  quorum::VoteAggregator agg(4);
  const auto h1 = crypto::Sha256::hash("b1");
  const auto h2 = crypto::Sha256::hash("b2");
  agg.add(vote(0, 1, h1));
  agg.add(vote(0, 1, h2));  // same voter, same view, different block
  EXPECT_EQ(agg.equivocation_count(), 1u);
  // The equivocating vote must not count toward the other block's quorum.
  agg.add(vote(1, 1, h2));
  EXPECT_FALSE(agg.add(vote(2, 1, h2)).has_value());
  ASSERT_TRUE(agg.add(vote(3, 1, h2)).has_value());
}

TEST(VoteAggregator, SameVoterDifferentViewsOk) {
  quorum::VoteAggregator agg(4);
  const auto h1 = crypto::Sha256::hash("b1");
  const auto h2 = crypto::Sha256::hash("b2");
  agg.add(vote(0, 1, h1));
  agg.add(vote(0, 2, h2));
  EXPECT_EQ(agg.equivocation_count(), 0u);
}

TEST(VoteAggregator, SeparateBucketsPerBlock) {
  quorum::VoteAggregator agg(7);  // quorum 5
  const auto h1 = crypto::Sha256::hash("b1");
  const auto h2 = crypto::Sha256::hash("b2");
  for (types::NodeId n = 0; n < 4; ++n) agg.add(vote(n, 3, h1));
  for (types::NodeId n = 4; n < 7; ++n) agg.add(vote(n, 3, h2));
  // 4 + 3 votes, but no single block reached 5.
  EXPECT_EQ(agg.quorum(), 5u);
}

TEST(VoteAggregator, GcDropsOldViews) {
  quorum::VoteAggregator agg(4);
  const auto h = crypto::Sha256::hash("b");
  agg.add(vote(0, 1, h));
  agg.add(vote(1, 1, h));
  agg.gc_below(2);
  // Votes were erased: the third vote alone cannot form a QC.
  EXPECT_FALSE(agg.add(vote(2, 1, h)).has_value());
}

TEST(VoteAggregator, HasVoteOnlyForCountedExactCopies) {
  // A replica skips verifying a vote when has_vote() holds, so it must hold
  // exactly for the votes add() would ignore as duplicates: same voter,
  // view, slot and block as a recorded vote.
  quorum::VoteAggregator agg(4);
  const auto h1 = crypto::Sha256::hash("b1");
  const auto h2 = crypto::Sha256::hash("b2");
  types::VoteMsg v = vote(0, 3, h1);
  v.slot = 1;
  EXPECT_FALSE(agg.has_vote(v));
  agg.add(v);
  EXPECT_TRUE(agg.has_vote(v));

  types::VoteMsg other_block = v;
  other_block.block_hash = h2;
  types::VoteMsg other_slot = v;
  other_slot.slot = 0;
  types::VoteMsg other_view = v;
  other_view.view = 4;
  types::VoteMsg unseen_voter = v;
  unseen_voter.sig.signer = 1;
  EXPECT_FALSE(agg.has_vote(other_block));
  EXPECT_FALSE(agg.has_vote(other_slot));
  EXPECT_FALSE(agg.has_vote(other_view));
  EXPECT_FALSE(agg.has_vote(unseen_voter));

  // add() agrees: the exact copy is a duplicate, the other block is
  // equivocation evidence (which a replica verifies before adding).
  agg.add(v);
  EXPECT_EQ(agg.duplicate_count(), 1u);
  agg.add(other_block);
  EXPECT_EQ(agg.equivocation_count(), 1u);

  agg.gc_below(4);
  EXPECT_FALSE(agg.has_vote(v));
}

TEST(VoteAggregator, HasVoteInsertsNoState) {
  // Queries on an empty aggregator leave nothing behind: a recorded
  // placeholder would turn the first real vote into an equivocation.
  quorum::VoteAggregator agg(4);
  const auto h = crypto::Sha256::hash("b");
  const types::VoteMsg zero_hash = vote(0, 1, crypto::Digest{});
  EXPECT_FALSE(agg.has_vote(zero_hash));
  EXPECT_FALSE(agg.has_vote(zero_hash));
  for (types::NodeId n = 0; n < 3; ++n) {
    EXPECT_FALSE(agg.has_vote(vote(n, 1, h)));
  }
  EXPECT_FALSE(agg.add(vote(0, 1, h)).has_value());
  EXPECT_FALSE(agg.add(vote(1, 1, h)).has_value());
  ASSERT_TRUE(agg.add(vote(2, 1, h)).has_value());
  EXPECT_EQ(agg.duplicate_count(), 0u);
  EXPECT_EQ(agg.equivocation_count(), 0u);
}

TEST(TimeoutAggregator, TcAtQuorumCarriesHighestQc) {
  quorum::TimeoutAggregator agg(4);
  EXPECT_FALSE(agg.add(timeout(0, 5, 2)).has_value());
  EXPECT_FALSE(agg.add(timeout(1, 5, 4)).has_value());
  const auto tc = agg.add(timeout(2, 5, 3));
  ASSERT_TRUE(tc.has_value());
  EXPECT_EQ(tc->view, 5u);
  EXPECT_EQ(tc->high_qc.view, 4u);  // max of the reported QCs
  EXPECT_EQ(tc->sigs.size(), 3u);
  ASSERT_EQ(tc->reported_qc_views.size(), 3u);
}

TEST(TimeoutAggregator, DuplicateSendersIgnored) {
  quorum::TimeoutAggregator agg(4);
  agg.add(timeout(0, 5, 1));
  agg.add(timeout(0, 5, 1));
  agg.add(timeout(0, 5, 2));
  EXPECT_EQ(agg.count(5), 1u);
  EXPECT_FALSE(agg.add(timeout(1, 5, 1)).has_value());
}

TEST(TimeoutAggregator, TcFormedOncePerView) {
  quorum::TimeoutAggregator agg(4);
  agg.add(timeout(0, 5, 1));
  agg.add(timeout(1, 5, 1));
  ASSERT_TRUE(agg.add(timeout(2, 5, 1)).has_value());
  EXPECT_FALSE(agg.add(timeout(3, 5, 1)).has_value());
}

TEST(TimeoutAggregator, ViewsAreIndependent) {
  quorum::TimeoutAggregator agg(4);
  agg.add(timeout(0, 5, 1));
  agg.add(timeout(1, 5, 1));
  agg.add(timeout(0, 6, 1));
  EXPECT_EQ(agg.count(5), 2u);
  EXPECT_EQ(agg.count(6), 1u);
  EXPECT_EQ(agg.count(7), 0u);
}

TEST(TimeoutAggregator, GcDropsOldViews) {
  quorum::TimeoutAggregator agg(4);
  agg.add(timeout(0, 5, 1));
  agg.gc_below(6);
  EXPECT_EQ(agg.count(5), 0u);
}

TEST(VoteAggregator, MismatchedHeightCannotPoisonQc) {
  // Regression: the bucket height used to be overwritten by every vote, so
  // a Byzantine vote carrying a wrong height for the right block could
  // poison the formed QC's height. The height is now pinned at bucket
  // creation and a mismatch is Byzantine evidence, not a quorum vote.
  quorum::VoteAggregator agg(4);
  const auto h = crypto::Sha256::hash("b");
  agg.add(vote(0, 1, h, 5));
  agg.add(vote(1, 1, h, 9));  // lies about the block's height
  EXPECT_EQ(agg.equivocation_count(), 1u);
  // The lying vote did not count toward quorum: two more honest votes are
  // still needed, and the QC carries the pinned height.
  EXPECT_FALSE(agg.add(vote(2, 1, h, 5)).has_value());
  const auto qc = agg.add(vote(3, 1, h, 5));
  ASSERT_TRUE(qc.has_value());
  EXPECT_EQ(qc->height, 5u);
  EXPECT_EQ(qc->sigs.size(), 3u);
}

TEST(TimeoutAggregator, CountKeepsGrowingAfterTcFormed) {
  // Regression: the certificate must stop accumulating signatures once
  // formed, but count() (which drives the f+1 early-join rule) still has
  // to see every distinct sender.
  quorum::TimeoutAggregator agg(4);
  agg.add(timeout(0, 5, 1));
  agg.add(timeout(1, 5, 1));
  const auto tc = agg.add(timeout(2, 5, 1));
  ASSERT_TRUE(tc.has_value());
  EXPECT_EQ(tc->sigs.size(), 3u);
  EXPECT_FALSE(agg.add(timeout(3, 5, 9)).has_value());
  EXPECT_EQ(agg.count(5), 4u);
}

TEST(TimeoutAggregator, LargeClusterQuorum) {
  quorum::TimeoutAggregator agg(32);  // quorum 22
  for (types::NodeId n = 0; n < 21; ++n) {
    EXPECT_FALSE(agg.add(timeout(n, 9, n)).has_value());
  }
  const auto tc = agg.add(timeout(21, 9, 0));
  ASSERT_TRUE(tc.has_value());
  EXPECT_EQ(tc->high_qc.view, 20u);
}

}  // namespace
}  // namespace bamboo
