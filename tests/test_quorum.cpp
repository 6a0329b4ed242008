// Tests for vote/timeout aggregation: thresholds, dedup, equivocation
// evidence, TC high-QC tracking, garbage collection; the voter-indexed vote
// state against a map-based reference model on seeded sequences; and the
// per-view container the aggregator and the replica memos live in.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "crypto/sha256.h"
#include "quorum/view_map.h"
#include "quorum/vote_aggregator.h"
#include "util/rng.h"

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

TEST(VoteAggregator, RefusesVoterOutsideTheCluster) {
  // Voter ids index the per-(view, slot) record, so an id that is not a
  // replica's (>= n) is refused: nothing is recorded or counted, and
  // has_vote() never holds for it.
  quorum::VoteAggregator agg(4);
  const auto h = crypto::Sha256::hash("b");
  for (const types::NodeId outsider : {4u, 5u, 1000u}) {
    EXPECT_FALSE(agg.add(vote(outsider, 1, h)).has_value());
    EXPECT_FALSE(agg.add(vote(outsider, 1, h)).has_value());
    EXPECT_FALSE(agg.has_vote(vote(outsider, 1, h)));
  }
  EXPECT_EQ(agg.duplicate_count(), 0u);
  EXPECT_EQ(agg.equivocation_count(), 0u);
  // The refused votes did not count toward the quorum either.
  EXPECT_FALSE(agg.add(vote(0, 1, h)).has_value());
  EXPECT_FALSE(agg.add(vote(1, 1, h)).has_value());
  const auto qc = agg.add(vote(2, 1, h));
  ASSERT_TRUE(qc.has_value());
  EXPECT_EQ(qc->sigs.size(), 3u);
}

/// The map-based aggregator the voter-indexed one replaced, kept as the
/// reference model: view -> slot -> {block hash -> bucket, voter -> hash}.
class MapVoteAggregator {
 public:
  explicit MapVoteAggregator(std::uint32_t n)
      : quorum_(types::quorum_size(n)) {}

  std::optional<types::QuorumCert> add(const types::VoteMsg& vote) {
    auto& by_voter = votes_by_voter_[vote.view][vote.slot];
    const auto [voter_it, first] =
        by_voter.emplace(vote.voter(), vote.block_hash);
    if (!first) {
      if (voter_it->second != vote.block_hash) {
        ++equivocations_;
      } else {
        ++duplicates_;
      }
      return std::nullopt;
    }
    Bucket& bucket = buckets_[vote.view][vote.slot][vote.block_hash];
    if (bucket.formed) return std::nullopt;
    if (bucket.sigs.empty()) {
      bucket.height = vote.height;
    } else if (vote.height != bucket.height) {
      ++equivocations_;
      return std::nullopt;
    }
    bucket.sigs.push_back(vote.sig);
    if (bucket.sigs.size() < quorum_) return std::nullopt;
    bucket.formed = true;
    types::QuorumCert qc;
    qc.view = vote.view;
    qc.height = bucket.height;
    qc.slot = vote.slot;
    qc.block_hash = vote.block_hash;
    qc.sigs = bucket.sigs;
    return qc;
  }

  [[nodiscard]] bool has_vote(const types::VoteMsg& vote) const {
    const auto view_it = votes_by_voter_.find(vote.view);
    if (view_it == votes_by_voter_.end()) return false;
    const auto slot_it = view_it->second.find(vote.slot);
    if (slot_it == view_it->second.end()) return false;
    const auto voter_it = slot_it->second.find(vote.voter());
    return voter_it != slot_it->second.end() &&
           voter_it->second == vote.block_hash;
  }

  void gc_below(types::View view) {
    buckets_.erase(buckets_.begin(), buckets_.lower_bound(view));
    votes_by_voter_.erase(votes_by_voter_.begin(),
                          votes_by_voter_.lower_bound(view));
  }

  [[nodiscard]] std::uint64_t equivocation_count() const {
    return equivocations_;
  }
  [[nodiscard]] std::uint64_t duplicate_count() const { return duplicates_; }

 private:
  struct Bucket {
    types::Height height = 0;
    std::vector<crypto::Signature> sigs;
    bool formed = false;
  };
  std::uint32_t quorum_;
  std::map<types::View,
           std::map<types::Slot, std::unordered_map<crypto::Digest, Bucket>>>
      buckets_;
  std::map<types::View,
           std::map<types::Slot,
                    std::unordered_map<types::NodeId, crypto::Digest>>>
      votes_by_voter_;
  std::uint64_t equivocations_ = 0;
  std::uint64_t duplicates_ = 0;
};

TEST(VoteAggregator, MatchesTheMapModelOnSeededSequences) {
  // Seeded random sequences of first votes, exact duplicates, equivocations
  // (another block, same voter and (view, slot)), mismatched heights,
  // has_vote queries (also on views with no votes), gc_below, votes below
  // the last GC horizon (which re-create their view) and far-future views.
  // After every step the aggregator must agree with the reference model on
  // add()'s QC (every field, signature order included), has_vote and both
  // counters. A voter id >= n goes to the aggregator alone, which refuses
  // it.
  const std::array<crypto::Digest, 3> hashes = {crypto::Sha256::hash("b0"),
                                                crypto::Sha256::hash("b1"),
                                                crypto::Sha256::hash("b2")};
  for (const std::uint32_t n : {4u, 7u, 16u}) {
    std::uint64_t qcs = 0;
    std::uint64_t dup_hits = 0;
    std::uint64_t equivocations = 0;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      util::Rng rng(seed * 131 + n);
      quorum::VoteAggregator agg(n);
      MapVoteAggregator model(n);
      std::vector<types::VoteMsg> added;
      types::View current = 1;
      types::View horizon = 0;
      std::uint64_t tags = 0;
      const auto fresh_vote = [&](types::View view) {
        types::VoteMsg v;
        v.view = view;
        // Slot 0 and block 0 dominate, so quorums form.
        const std::uint64_t slot_pick = rng.uniform_u64(10);
        v.slot = slot_pick < 8 ? 0 : static_cast<types::Slot>(slot_pick - 7);
        const std::uint64_t block_pick = rng.uniform_u64(10);
        const std::size_t block = block_pick < 8 ? 0 : block_pick - 7;
        v.block_hash = hashes[block];
        v.height = view * 4 + block + (rng.uniform_u64(10) == 0 ? 1 : 0);
        v.sig.signer = static_cast<types::NodeId>(rng.uniform_u64(n));
        ++tags;
        for (std::size_t i = 0; i < 8; ++i) {
          v.sig.tag[i] = static_cast<std::uint8_t>(tags >> (8 * i));
        }
        return v;
      };
      const auto near_view = [&] {  // the current view, else 1-3 back
        const std::uint64_t pick = rng.uniform_u64(8);
        const types::View back = pick < 5 ? 0 : pick - 4;
        return current > back ? current - back : types::View{1};
      };
      for (int step = 0; step < 3000; ++step) {
        SCOPED_TRACE(::testing::Message()
                     << "n=" << n << " seed=" << seed << " step=" << step);
        const std::uint64_t op = rng.uniform_u64(100);
        std::optional<types::VoteMsg> probe;
        if (op < 50 || (op >= 90 && op < 97)) {
          types::View view = near_view();
          if (op >= 90 && op < 94 && horizon > 1) {
            view = horizon - 1 - rng.uniform_u64(std::min<types::View>(
                                     horizon - 1, 8));  // below the horizon
          } else if (op >= 94) {
            view = current + 1000 + rng.uniform_u64(1'000'000);  // far ahead
          }
          const types::VoteMsg v = fresh_vote(view);
          const auto got = agg.add(v);
          ASSERT_EQ(got, model.add(v));
          if (got) ++qcs;
          added.push_back(v);
          probe = v;
        } else if (op < 62) {
          if (added.empty()) continue;
          const types::VoteMsg& v = added[rng.uniform_u64(added.size())];
          ASSERT_EQ(agg.add(v), model.add(v));
          probe = v;
        } else if (op < 80) {
          const bool replay = !added.empty() && rng.uniform_u64(2) == 0;
          const types::VoteMsg v =
              replay ? added[rng.uniform_u64(added.size())]
                     : fresh_vote(rng.uniform_u64(3) == 0
                                      ? current + 1 + rng.uniform_u64(50)
                                      : near_view());
          probe = v;
        } else if (op < 84) {
          const types::View span = std::min<types::View>(current, 70);
          horizon = current - rng.uniform_u64(span);
          agg.gc_below(horizon);
          model.gc_below(horizon);
        } else if (op < 90) {
          // Views last longer in larger clusters, so quorums can form.
          if (rng.uniform_u64(n / 4 + 1) == 0) ++current;
        } else {
          types::VoteMsg outsider = fresh_vote(near_view());
          outsider.sig.signer = n + static_cast<types::NodeId>(
                                        rng.uniform_u64(3 * n));
          const std::uint64_t dups = agg.duplicate_count();
          const std::uint64_t equivs = agg.equivocation_count();
          EXPECT_FALSE(agg.add(outsider).has_value());
          EXPECT_FALSE(agg.has_vote(outsider));
          ASSERT_EQ(agg.duplicate_count(), dups);
          ASSERT_EQ(agg.equivocation_count(), equivs);
        }
        if (!probe && !added.empty()) {
          probe = added[rng.uniform_u64(added.size())];
        }
        if (probe) {
          const bool has = agg.has_vote(*probe);
          ASSERT_EQ(has, model.has_vote(*probe));
          if (has) ++dup_hits;
        }
        ASSERT_EQ(agg.duplicate_count(), model.duplicate_count());
        ASSERT_EQ(agg.equivocation_count(), model.equivocation_count());
      }
      equivocations += model.equivocation_count();
    }
    // The sequences reach every outcome, not just the empty ones.
    EXPECT_GT(qcs, 50u) << "n=" << n;
    EXPECT_GT(dup_hits, 500u) << "n=" << n;
    EXPECT_GT(equivocations, 500u) << "n=" << n;
  }
}

TEST(ViewMap, LookupInsertsNothing) {
  quorum::ViewMap<std::vector<int>> map;
  EXPECT_EQ(map.find(7), nullptr);
  EXPECT_EQ(map.size(), 0u);

  map[5].push_back(50);
  map[9].push_back(90);
  map[7].push_back(70);  // inserted in order, between 5 and 9
  ASSERT_EQ(map.size(), 3u);
  // Lookups of absent views (between, below, far ahead) leave no entry.
  for (const types::View absent : {0u, 4u, 6u, 8u, 10u, 1'000'000u}) {
    EXPECT_EQ(map.find(absent), nullptr);
  }
  EXPECT_EQ(map.size(), 3u);
  ASSERT_NE(map.find(7), nullptr);
  EXPECT_EQ(*map.find(7), std::vector<int>{70});
  EXPECT_EQ(*map.find(9), std::vector<int>{90});
  map[7].push_back(71);  // an existing entry is returned, not replaced
  EXPECT_EQ(*map.find(7), (std::vector<int>{70, 71}));

  map.erase_below(7);
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.find(5), nullptr);
  EXPECT_NE(map.find(7), nullptr);
  // A view below the erased horizon is re-created empty on insertion.
  EXPECT_TRUE(map[5].empty());
  EXPECT_EQ(map.size(), 3u);
  map.erase_below(1'000'000);
  EXPECT_EQ(map.size(), 0u);
}

}  // namespace
}  // namespace bamboo
