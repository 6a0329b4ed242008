// Tests for the block forest (the paper's data module): insertion, orphan
// buffering, QC tracking, commits, pruning, longest-notarized-tip.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "forest/block_forest.h"
#include "util/rng.h"

namespace bamboo {
namespace {

using forest::AddResult;
using forest::BlockForest;
using types::BlockPtr;

BlockPtr child_of(const BlockPtr& parent, types::View view,
                  types::NodeId proposer = 0) {
  types::Block::Fields f;
  f.parent_hash = parent->hash();
  f.view = view;
  f.height = parent->height() + 1;
  f.proposer = proposer;
  f.justify.view = parent->view();
  f.justify.height = parent->height();
  f.justify.block_hash = parent->hash();
  return std::make_shared<const types::Block>(std::move(f));
}

types::QuorumCert qc_for(const BlockPtr& b) {
  types::QuorumCert qc;
  qc.view = b->view();
  qc.height = b->height();
  qc.block_hash = b->hash();
  qc.sigs.resize(3);
  return qc;
}

std::vector<crypto::Digest> hashes_of(const std::vector<BlockPtr>& blocks) {
  std::vector<crypto::Digest> out;
  for (const BlockPtr& b : blocks) out.push_back(b->hash());
  return out;
}

class ForestFixture : public ::testing::Test {
 protected:
  BlockForest forest;
  BlockPtr genesis = types::Block::genesis();
};

TEST_F(ForestFixture, StartsWithCommittedGenesis) {
  EXPECT_TRUE(forest.contains(genesis->hash()));
  EXPECT_EQ(forest.committed_tip()->hash(), genesis->hash());
  EXPECT_EQ(forest.committed_height(), 0u);
  EXPECT_EQ(forest.high_qc().view, types::kGenesisView);
  EXPECT_EQ(forest.longest_certified_tip()->hash(), genesis->hash());
}

TEST_F(ForestFixture, AddConnectsChild) {
  const auto b1 = child_of(genesis, 1);
  EXPECT_EQ(forest.add(b1), AddResult::kAdded);
  EXPECT_TRUE(forest.contains(b1->hash()));
  EXPECT_EQ(forest.get(b1->hash())->view(), 1u);
  const auto children = forest.children(genesis->hash());
  ASSERT_EQ(children.size(), 1u);
  EXPECT_EQ(children[0]->hash(), b1->hash());
}

TEST_F(ForestFixture, DuplicateAddIsDetected) {
  const auto b1 = child_of(genesis, 1);
  EXPECT_EQ(forest.add(b1), AddResult::kAdded);
  EXPECT_EQ(forest.add(b1), AddResult::kDuplicate);
}

TEST_F(ForestFixture, WrongHeightIsInvalid) {
  types::Block::Fields f;
  f.parent_hash = genesis->hash();
  f.view = 1;
  f.height = 5;  // must be 1
  f.proposer = 0;
  const auto bad = std::make_shared<const types::Block>(std::move(f));
  EXPECT_EQ(forest.add(bad), AddResult::kInvalid);
}

TEST_F(ForestFixture, OrphanBufferedAndFlushed) {
  const auto b1 = child_of(genesis, 1);
  const auto b2 = child_of(b1, 2);
  EXPECT_EQ(forest.add(b2), AddResult::kOrphaned);
  EXPECT_FALSE(forest.contains(b2->hash()));
  EXPECT_EQ(forest.orphan_count(), 1u);
  ASSERT_EQ(forest.missing_parents().size(), 1u);
  EXPECT_EQ(forest.missing_parents()[0], b1->hash());

  EXPECT_EQ(forest.add(b1), AddResult::kAdded);
  EXPECT_TRUE(forest.contains(b2->hash()));  // flushed automatically
  EXPECT_EQ(forest.orphan_count(), 0u);
}

TEST_F(ForestFixture, OrphanChainFlushesRecursively) {
  const auto b1 = child_of(genesis, 1);
  const auto b2 = child_of(b1, 2);
  const auto b3 = child_of(b2, 3);
  EXPECT_EQ(forest.add(b3), AddResult::kOrphaned);
  EXPECT_EQ(forest.add(b2), AddResult::kOrphaned);
  EXPECT_EQ(forest.add(b1), AddResult::kAdded);
  EXPECT_TRUE(forest.contains(b2->hash()));
  EXPECT_TRUE(forest.contains(b3->hash()));
}

TEST_F(ForestFixture, ExtendsWalksParents) {
  const auto b1 = child_of(genesis, 1);
  const auto b2 = child_of(b1, 2);
  const auto fork = child_of(genesis, 3);
  forest.add(b1);
  forest.add(b2);
  forest.add(fork);
  EXPECT_TRUE(forest.extends(b2->hash(), genesis->hash()));
  EXPECT_TRUE(forest.extends(b2->hash(), b1->hash()));
  EXPECT_TRUE(forest.extends(b1->hash(), b1->hash()));  // reflexive
  EXPECT_FALSE(forest.extends(b2->hash(), fork->hash()));
  EXPECT_FALSE(forest.extends(b1->hash(), b2->hash()));  // wrong direction
}

TEST_F(ForestFixture, AncestorWalk) {
  const auto b1 = child_of(genesis, 1);
  const auto b2 = child_of(b1, 2);
  const auto b3 = child_of(b2, 3);
  forest.add(b1);
  forest.add(b2);
  forest.add(b3);
  EXPECT_EQ(forest.ancestor(b3, 0)->hash(), b3->hash());
  EXPECT_EQ(forest.ancestor(b3, 1)->hash(), b2->hash());
  EXPECT_EQ(forest.ancestor(b3, 2)->hash(), b1->hash());
  EXPECT_EQ(forest.ancestor(b3, 3)->hash(), genesis->hash());
  EXPECT_EQ(forest.ancestor(b3, 4), nullptr);
}

TEST_F(ForestFixture, QcTrackingAndHighQc) {
  const auto b1 = child_of(genesis, 1);
  forest.add(b1);
  EXPECT_FALSE(forest.is_certified(b1->hash()));
  EXPECT_TRUE(forest.add_qc(qc_for(b1)));
  EXPECT_TRUE(forest.is_certified(b1->hash()));
  EXPECT_EQ(forest.high_qc().view, 1u);
  EXPECT_EQ(forest.high_qc_block()->hash(), b1->hash());
  EXPECT_FALSE(forest.add_qc(qc_for(b1)));  // duplicate
}

TEST_F(ForestFixture, LongestCertifiedTipFollowsQcs) {
  const auto b1 = child_of(genesis, 1);
  const auto b2 = child_of(b1, 2);
  const auto fork = child_of(genesis, 3);
  forest.add(b1);
  forest.add(b2);
  forest.add(fork);

  forest.add_qc(qc_for(fork));
  EXPECT_EQ(forest.longest_certified_tip()->hash(), fork->hash());

  forest.add_qc(qc_for(b1));
  // Same height (1): tie breaks toward the higher view (fork, view 3).
  EXPECT_EQ(forest.longest_certified_tip()->hash(), fork->hash());

  forest.add_qc(qc_for(b2));
  EXPECT_EQ(forest.longest_certified_tip()->hash(), b2->hash());
}

TEST_F(ForestFixture, CommitReturnsAscendingChain) {
  const auto b1 = child_of(genesis, 1);
  const auto b2 = child_of(b1, 2);
  const auto b3 = child_of(b2, 3);
  forest.add(b1);
  forest.add(b2);
  forest.add(b3);

  const auto chain = forest.commit(b2->hash());
  ASSERT_TRUE(chain.has_value());
  ASSERT_EQ(chain->size(), 2u);
  EXPECT_EQ((*chain)[0]->hash(), b1->hash());
  EXPECT_EQ((*chain)[1]->hash(), b2->hash());
  EXPECT_EQ(forest.committed_height(), 2u);
  EXPECT_EQ(forest.committed_hash_at(1), b1->hash());
  EXPECT_EQ(forest.committed_hash_at(2), b2->hash());
  EXPECT_EQ(forest.committed_hash_at(3), std::nullopt);
}

TEST_F(ForestFixture, RecommitIsEmptyNotError) {
  const auto b1 = child_of(genesis, 1);
  forest.add(b1);
  ASSERT_TRUE(forest.commit(b1->hash()).has_value());
  const auto again = forest.commit(b1->hash());
  ASSERT_TRUE(again.has_value());
  EXPECT_TRUE(again->empty());
}

TEST_F(ForestFixture, ConflictingCommitIsRefused) {
  const auto b1 = child_of(genesis, 1);
  const auto fork = child_of(genesis, 2);
  const auto fork2 = child_of(fork, 3);
  forest.add(b1);
  forest.add(fork);
  forest.add(fork2);
  ASSERT_TRUE(forest.commit(b1->hash()).has_value());
  // fork2 does not extend the committed tip b1: must refuse.
  EXPECT_FALSE(forest.commit(fork2->hash()).has_value());
  // And a conflicting block at the committed height as well.
  EXPECT_FALSE(forest.commit(fork->hash()).has_value());
}

TEST_F(ForestFixture, PruneDropsForkedBranchesAndReturnsThem) {
  const auto b1 = child_of(genesis, 1);
  const auto fork = child_of(genesis, 2, /*proposer=*/3);
  const auto b2 = child_of(b1, 3);
  forest.add(b1);
  forest.add(fork);
  forest.add(b2);
  forest.commit(b1->hash());

  const auto dropped = forest.prune();
  ASSERT_EQ(dropped.size(), 1u);
  EXPECT_EQ(dropped[0]->hash(), fork->hash());
  EXPECT_FALSE(forest.contains(fork->hash()));
  EXPECT_TRUE(forest.contains(b1->hash()));  // committed chain kept
  EXPECT_TRUE(forest.contains(b2->hash()));  // descendant of tip kept
}

TEST_F(ForestFixture, PruneDropsDescendantsOfForkedBranches) {
  const auto b1 = child_of(genesis, 1);
  const auto fork = child_of(genesis, 2);
  const auto fork_child = child_of(fork, 4);
  forest.add(b1);
  forest.add(fork);
  forest.add(fork_child);
  forest.commit(b1->hash());

  const auto dropped = forest.prune();
  EXPECT_EQ(dropped.size(), 2u);
  EXPECT_FALSE(forest.contains(fork->hash()));
  EXPECT_FALSE(forest.contains(fork_child->hash()));
}

TEST_F(ForestFixture, PruneRepairsLongestCertifiedTip) {
  const auto b1 = child_of(genesis, 1);
  const auto fork = child_of(genesis, 2);
  const auto fork_child = child_of(fork, 3);
  forest.add(b1);
  forest.add(fork);
  forest.add(fork_child);
  forest.add_qc(qc_for(fork_child));  // certified tip is on the fork
  EXPECT_EQ(forest.longest_certified_tip()->hash(), fork_child->hash());

  forest.add_qc(qc_for(b1));
  forest.commit(b1->hash());
  forest.prune();
  // The certified fork is gone; the tip must fall back to the main chain.
  EXPECT_EQ(forest.longest_certified_tip()->hash(), b1->hash());
}

TEST_F(ForestFixture, CertifiedTipTieBreaksTowardLowerHash) {
  // An equivocating leader: two blocks at the same height and view. The
  // certified tip is the lower hash whatever order the QCs and blocks
  // arrive in, and whichever site picks it (add_qc, connect, prune).
  const auto a = child_of(genesis, 1, /*proposer=*/0);
  const auto b = child_of(genesis, 1, /*proposer=*/1);
  const BlockPtr low = a->hash() < b->hash() ? a : b;
  const BlockPtr high = a->hash() < b->hash() ? b : a;
  for (const bool low_first : {true, false}) {
    SCOPED_TRACE(low_first);
    const BlockPtr first = low_first ? low : high;
    const BlockPtr second = low_first ? high : low;

    BlockForest qcs_after_blocks;
    qcs_after_blocks.add(a);
    qcs_after_blocks.add(b);
    qcs_after_blocks.add_qc(qc_for(first));
    qcs_after_blocks.add_qc(qc_for(second));
    EXPECT_EQ(qcs_after_blocks.longest_certified_tip()->hash(), low->hash());

    BlockForest qcs_before_blocks;
    qcs_before_blocks.add_qc(qc_for(a));
    qcs_before_blocks.add_qc(qc_for(b));
    qcs_before_blocks.add(first);
    qcs_before_blocks.add(second);
    EXPECT_EQ(qcs_before_blocks.longest_certified_tip()->hash(), low->hash());
  }

  // prune()'s rescan: the certified tip sits on a fork that the commit
  // drops, and the tied pair hangs off the new committed tip.
  const auto c1 = child_of(genesis, 2);
  const auto x = child_of(c1, 5, /*proposer=*/0);
  const auto y = child_of(c1, 5, /*proposer=*/1);
  auto fork = child_of(genesis, 3);
  forest.add(fork);
  for (types::View v = 6; v <= 7; ++v) {
    fork = child_of(fork, v);
    forest.add(fork);
  }
  forest.add_qc(qc_for(fork));
  for (const BlockPtr& blk : {c1, x, y}) {
    forest.add(blk);
    forest.add_qc(qc_for(blk));
  }
  ASSERT_EQ(forest.longest_certified_tip()->hash(), fork->hash());
  ASSERT_TRUE(forest.commit(c1->hash()).has_value());
  forest.prune();
  EXPECT_EQ(forest.longest_certified_tip()->hash(),
            std::min(x->hash(), y->hash()));
}

TEST_F(ForestFixture, PruneReturnsDroppedBlocksInConnectOrder) {
  // Forks off genesis arrive interleaved with orphans that connect only
  // when their parent does; the dropped list follows connect order, so
  // every parent precedes its children.
  const auto c1 = child_of(genesis, 1);
  const auto f1 = child_of(genesis, 2);
  const auto f2 = child_of(f1, 3);
  const auto f3 = child_of(f2, 4);
  const auto g1 = child_of(genesis, 5);
  const auto g2 = child_of(g1, 6);
  forest.add(c1);
  EXPECT_EQ(forest.add(f3), AddResult::kOrphaned);
  forest.add(g1);
  forest.add(f1);
  EXPECT_EQ(forest.add(f2), AddResult::kAdded);  // flushes f3
  forest.add(g2);
  ASSERT_TRUE(forest.commit(c1->hash()).has_value());
  EXPECT_EQ(hashes_of(forest.prune()), hashes_of({g1, f1, f2, f3, g2}));
  EXPECT_EQ(hashes_of(forest.children(genesis->hash())), hashes_of({c1}));
}

// A snapshot's gap: g1 is committed, the anchor at height 4 is installed,
// and its parents g2 and g3 arrive only later, connecting uncommitted.
class SnapshotGapFixture : public ForestFixture {
 protected:
  void SetUp() override {
    forest.add(g1);
    forest.add_qc(qc_for(g1));
    ASSERT_TRUE(forest.commit(g1->hash()).has_value());
    ASSERT_TRUE(forest.install_snapshot(anchor, qc_for(anchor),
                                        chain_to(anchor)));
  }
  std::vector<crypto::Digest> chain_to(BlockPtr b) const {
    std::vector<crypto::Digest> hashes(b->height() + 1);
    for (const BlockPtr& x : {genesis, g1, g2, g3, anchor, next, n6, n7}) {
      if (x->height() <= b->height()) hashes[x->height()] = x->hash();
    }
    return hashes;
  }
  const BlockPtr g1 = child_of(genesis, 1);
  const BlockPtr g2 = child_of(g1, 2);
  const BlockPtr g3 = child_of(g2, 3);
  const BlockPtr anchor = child_of(g3, 4);
  const BlockPtr next = child_of(anchor, 5, /*proposer=*/2);
  const BlockPtr n6 = child_of(next, 6);
  const BlockPtr n7 = child_of(n6, 7);
};

TEST_F(SnapshotGapFixture, PruneDropsChildrenOfARetentionDroppedParent) {
  // Retention drops the anchor and `next`, and both come back: the anchor
  // connects under g3 now, then `next` under it. A forked child c of the
  // first anchor copy hangs off a vertex that is gone, below the committed
  // tip; prune() drops it with the rest, each in the order it connected.
  const auto c = child_of(anchor, 5, /*proposer=*/1);
  forest.add(c);
  forest.add(next);
  forest.add(n6);
  forest.add_qc(qc_for(n6));
  ASSERT_TRUE(forest.commit(n6->hash()).has_value());
  forest.add(g2);
  forest.add(g3);
  // genesis, g1, anchor and next; g2 and g3 are not committed vertices.
  EXPECT_EQ(forest.prune_below(n6->height()), 4u);
  EXPECT_EQ(forest.add(anchor), AddResult::kAdded);
  EXPECT_EQ(forest.add(next), AddResult::kAdded);

  EXPECT_EQ(hashes_of(forest.prune()),
            hashes_of({c, g2, g3, anchor, next}));
  EXPECT_EQ(forest.size(), 1u);
  EXPECT_TRUE(forest.contains(n6->hash()));
}

TEST_F(SnapshotGapFixture, RetentionDropsGapBlocksALaterSnapshotCommits) {
  // g2 and g3 sit below the retention horizon while uncommitted, so
  // retention passes them by. A second snapshot commits them; the next
  // retention pass must still drop them.
  forest.add(g2);
  forest.add(g3);
  forest.add(next);
  forest.add_qc(qc_for(next));
  ASSERT_TRUE(forest.commit(next->hash()).has_value());
  EXPECT_EQ(forest.prune_below(next->height()), 3u);  // genesis, g1, anchor
  EXPECT_TRUE(forest.contains(g2->hash()));
  ASSERT_TRUE(forest.install_snapshot(n7, qc_for(n7), chain_to(n7)));
  EXPECT_EQ(forest.prune_below(n7->height()), 3u);  // g2, g3, next
  EXPECT_FALSE(forest.contains(g2->hash()));
  EXPECT_FALSE(forest.contains(g3->hash()));
  EXPECT_EQ(forest.size(), 1u);
}

TEST_F(ForestFixture, CommitOfUnknownBlockFails) {
  const auto b1 = child_of(genesis, 1);
  EXPECT_FALSE(forest.commit(b1->hash()).has_value());
}

TEST_F(ForestFixture, QcBeforeBlockIsRememberedOnConnect) {
  const auto b1 = child_of(genesis, 1);
  forest.add_qc(qc_for(b1));  // QC arrives first
  EXPECT_TRUE(forest.is_certified(b1->hash()));
  EXPECT_EQ(forest.high_qc_block(), nullptr);
  forest.add(b1);
  EXPECT_EQ(forest.high_qc_block()->hash(), b1->hash());
  EXPECT_EQ(forest.longest_certified_tip()->hash(), b1->hash());
}

TEST_F(ForestFixture, DeepChainCommitCollapsesPrefix) {
  BlockPtr tip = genesis;
  std::vector<BlockPtr> blocks;
  for (types::View v = 1; v <= 50; ++v) {
    tip = child_of(tip, v);
    blocks.push_back(tip);
    forest.add(tip);
  }
  const auto chain = forest.commit(tip->hash());
  ASSERT_TRUE(chain.has_value());
  EXPECT_EQ(chain->size(), 50u);
  EXPECT_EQ(forest.committed_height(), 50u);
  for (types::Height h = 1; h <= 50; ++h) {
    EXPECT_EQ(forest.committed_hash_at(h), blocks[h - 1]->hash());
  }
}

TEST_F(ForestFixture, BufferedReportsOrphansUntilTheyConnect) {
  const auto b1 = child_of(genesis, 1);
  const auto b2 = child_of(b1, 2);
  EXPECT_EQ(forest.add(b2), AddResult::kOrphaned);
  EXPECT_TRUE(forest.buffered(b2->hash()));
  EXPECT_FALSE(forest.contains(b2->hash()));
  EXPECT_FALSE(forest.buffered(b1->hash()));
  forest.add(b1);
  EXPECT_FALSE(forest.buffered(b2->hash()));
  EXPECT_TRUE(forest.contains(b2->hash()));
}

TEST_F(ForestFixture, OrphanBufferPropertyUnderLongPartitionArrivals) {
  // A replica behind a long partition receives the missed range in an
  // arbitrary interleaving of proposals, sync batches and stragglers —
  // i.e. an arbitrary permutation, possibly with duplicates. Whatever
  // the order:
  //  * every block is either connected or buffered (never dropped),
  //  * missing_parents() names exactly the parents of disconnected
  //    subtrees — each either a known hash (a gap inside the range) or
  //    the not-yet-seen ancestor,
  //  * once all blocks arrived the forest is fully connected with an
  //    empty orphan buffer,
  //  * buffered() and contains() partition the seen, unconnected set.
  util::Rng rng(99);
  for (int trial = 0; trial < 30; ++trial) {
    BlockForest forest2;
    // A main chain of 40 with a short fork hanging off height 20 — the
    // shape a forking leader leaves behind a partition.
    std::vector<BlockPtr> blocks;
    BlockPtr tip = types::Block::genesis();
    for (types::View v = 1; v <= 40; ++v) {
      tip = child_of(tip, v);
      blocks.push_back(tip);
    }
    BlockPtr fork = blocks[19];
    for (types::View v = 41; v <= 44; ++v) {
      fork = child_of(fork, v);
      blocks.push_back(fork);
    }
    // Random arrival order with ~20% duplicated deliveries.
    std::vector<BlockPtr> arrivals = blocks;
    for (const BlockPtr& b : blocks) {
      if (rng.bernoulli(0.2)) arrivals.push_back(b);
    }
    for (std::size_t i = arrivals.size(); i > 1; --i) {
      std::swap(arrivals[i - 1], arrivals[rng.uniform_u64(i)]);
    }

    std::unordered_set<crypto::Digest> seen;
    for (const BlockPtr& b : arrivals) {
      forest2.add(b);
      seen.insert(b->hash());

      std::size_t connected = 0, buffered = 0;
      for (const BlockPtr& block : blocks) {
        if (seen.count(block->hash()) == 0) continue;
        const bool in_forest = forest2.contains(block->hash());
        const bool in_buffer = forest2.buffered(block->hash());
        EXPECT_NE(in_forest, in_buffer);  // exactly one, never both/neither
        connected += in_forest;
        buffered += in_buffer;
        // Connectivity invariant: a connected non-genesis block's parent
        // is connected too.
        if (in_forest) {
          EXPECT_TRUE(forest2.contains(block->parent_hash()));
        }
      }
      EXPECT_EQ(buffered, forest2.orphan_count());

      // missing_parents() lists exactly the parents of orphan buckets,
      // and none of them is a connected hash.
      for (const crypto::Digest& parent : forest2.missing_parents()) {
        EXPECT_FALSE(forest2.contains(parent));
      }
    }
    EXPECT_EQ(forest2.orphan_count(), 0u);
    EXPECT_TRUE(forest2.missing_parents().empty());
    for (const BlockPtr& b : blocks) {
      EXPECT_TRUE(forest2.contains(b->hash()));
      EXPECT_FALSE(forest2.buffered(b->hash()));
    }
  }
}

// ---------------------------------------------------------------------------
// Garbage-collection property test: seeded random sequences of every forest
// operation, checked after each step against a brute-force model built from
// the test's own record of every block it made.
// ---------------------------------------------------------------------------

// The certified-tip order, restated here: higher, then later view, then
// lower hash.
bool ranks_above(const BlockPtr& a, const BlockPtr& b) {
  if (a->height() != b->height()) return a->height() > b->height();
  if (a->view() != b->view()) return a->view() > b->view();
  return a->hash() < b->hash();
}

class ForestModel {
 public:
  ForestModel() {
    const BlockPtr genesis = types::Block::genesis();
    blocks_[genesis->hash()] = genesis;
    present_[genesis->hash()] = Vertex{next_seq_++, false, true};
    committed_.push_back(genesis->hash());
    certified_.insert(genesis->hash());
    tip_ = genesis;
  }

  bool record(const BlockPtr& b) { return blocks_.emplace(b->hash(), b).second; }
  const BlockPtr& block(const crypto::Digest& h) const { return blocks_.at(h); }
  const BlockPtr& tip() const { return tip_; }
  bool present(const crypto::Digest& h) const { return present_.count(h) > 0; }
  bool certified(const crypto::Digest& h) const {
    return certified_.count(h) > 0;
  }
  // Committed as a vertex. A block fetched into a snapshot's gap connects
  // uncommitted although its hash is on the committed chain; prune() later
  // drops it as off the committed tip's subtree.
  bool committed_vertex(const crypto::Digest& h) const {
    const auto it = present_.find(h);
    return it != present_.end() && it->second.committed;
  }

  AddResult add(const BlockPtr& b) {
    if (present(b->hash())) return AddResult::kDuplicate;
    if (!present(b->parent_hash())) {
      auto& bucket = orphans_[b->parent_hash()];
      if (std::none_of(bucket.begin(), bucket.end(), [&](const BlockPtr& o) {
            return o->hash() == b->hash();
          })) {
        bucket.push_back(b);
      }
      return AddResult::kOrphaned;
    }
    connect(b);
    return AddResult::kAdded;
  }

  bool add_qc(const types::QuorumCert& qc) {
    high_view_ = std::max(high_view_, qc.view);
    return certified_.insert(qc.block_hash).second;
  }

  std::optional<std::vector<crypto::Digest>> commit(const crypto::Digest& t) {
    if (!present(t)) return std::nullopt;
    const BlockPtr& target = block(t);
    if (target->height() <= tip_->height()) {
      if (committed_[target->height()] == t) {
        return std::vector<crypto::Digest>{};
      }
      return std::nullopt;
    }
    std::vector<crypto::Digest> chain;
    for (crypto::Digest h = t; h != tip_->hash(); h = block(h)->parent_hash()) {
      if (!present(h) || block(h)->height() <= tip_->height()) {
        return std::nullopt;
      }
      chain.push_back(h);
    }
    std::reverse(chain.begin(), chain.end());
    for (const crypto::Digest& h : chain) {
      present_.at(h).committed = true;
      committed_.push_back(h);
    }
    tip_ = target;
    return chain;
  }

  // Everything neither committed nor a descendant of the committed tip
  // leaves, in connect order; so do orphans at or below the tip.
  std::vector<crypto::Digest> prune() {
    std::vector<std::pair<std::uint64_t, crypto::Digest>> gone;
    for (const auto& [h, v] : present_) {
      if (!v.committed && !descends_from_tip(h)) gone.emplace_back(v.seq, h);
    }
    std::sort(gone.begin(), gone.end());
    std::vector<crypto::Digest> out;
    for (const auto& [seq, h] : gone) {
      present_.erase(h);
      certified_.erase(h);
      out.push_back(h);
    }
    for (auto it = orphans_.begin(); it != orphans_.end();) {
      auto& bucket = it->second;
      bucket.erase(std::remove_if(bucket.begin(), bucket.end(),
                                  [&](const BlockPtr& b) {
                                    return b->height() <= tip_->height();
                                  }),
                   bucket.end());
      it = bucket.empty() ? orphans_.erase(it) : std::next(it);
    }
    return out;
  }

  std::size_t prune_below(types::Height horizon) {
    horizon = std::min(horizon, tip_->height());
    std::vector<crypto::Digest> gone;
    for (const auto& [h, v] : present_) {
      if (v.committed && block(h)->height() < horizon) gone.push_back(h);
    }
    for (const crypto::Digest& h : gone) {
      present_.erase(h);
      certified_.erase(h);
    }
    return gone.size();
  }

  bool install_snapshot(const BlockPtr& anchor,
                        const std::vector<crypto::Digest>& hashes) {
    if (anchor->height() <= tip_->height()) return false;
    if (!std::equal(committed_.begin(), committed_.end(), hashes.begin())) {
      return false;
    }
    committed_ = hashes;
    present_.try_emplace(anchor->hash(), Vertex{next_seq_++, false, true});
    for (const crypto::Digest& h : hashes) {
      if (const auto it = present_.find(h); it != present_.end()) {
        it->second.committed = true;
      }
    }
    tip_ = anchor;
    add_qc(qc_for(anchor));
    flush(anchor->hash());
    return true;
  }

  void check(const BlockForest& forest) const {
    ASSERT_EQ(forest.size(), present_.size());
    for (const auto& [h, b] : blocks_) {
      ASSERT_EQ(forest.contains(h), present(h)) << "height " << b->height();
    }
    EXPECT_EQ(forest.committed_tip()->hash(), tip_->hash());
    EXPECT_EQ(forest.committed_hashes(), committed_);
    EXPECT_EQ(forest.high_qc().view, high_view_);

    // children(): the present blocks that connected under the parent's
    // current vertex (a snapshot anchor is installed, not connected), in
    // connect order.
    std::unordered_map<crypto::Digest, std::map<std::uint64_t, crypto::Digest>>
        kids;
    for (const auto& [h, v] : present_) {
      if (!v.connected) continue;
      const auto parent = present_.find(block(h)->parent_hash());
      if (parent != present_.end() && parent->second.seq < v.seq) {
        kids[parent->first].emplace(v.seq, h);
      }
    }
    for (const auto& [h, v] : present_) {
      std::vector<crypto::Digest> expected;
      for (const auto& [seq, child] : kids[h]) expected.push_back(child);
      EXPECT_EQ(hashes_of(forest.children(h)), expected);
    }

    BlockPtr best;
    for (const auto& [h, v] : present_) {
      if (certified(h) && (!best || ranks_above(block(h), best))) {
        best = block(h);
      }
    }
    ASSERT_NE(best, nullptr);
    EXPECT_EQ(forest.longest_certified_tip()->hash(), best->hash());

    std::size_t buffered = 0;
    std::unordered_set<crypto::Digest> buckets;
    for (const auto& [parent, bucket] : orphans_) {
      buffered += bucket.size();
      buckets.insert(parent);
      for (const BlockPtr& b : bucket) EXPECT_TRUE(forest.buffered(b->hash()));
    }
    EXPECT_EQ(forest.orphan_count(), buffered);
    const auto missing = forest.missing_parents();
    EXPECT_EQ(std::unordered_set<crypto::Digest>(missing.begin(), missing.end()),
              buckets);
  }

 private:
  struct Vertex {
    std::uint64_t seq;  // when this vertex appeared (connect order)
    bool connected;     // under its parent (not genesis or a snapshot anchor)
    bool committed;
  };

  void connect(const BlockPtr& b) {
    present_[b->hash()] = Vertex{next_seq_++, true, false};
    flush(b->hash());
  }

  void flush(const crypto::Digest& parent) {
    const auto it = orphans_.find(parent);
    if (it == orphans_.end()) return;
    const std::vector<BlockPtr> pending = std::move(it->second);
    orphans_.erase(it);
    for (const BlockPtr& b : pending) {
      if (!present(b->hash())) connect(b);
    }
  }

  bool descends_from_tip(crypto::Digest h) const {
    while (h != tip_->hash()) {
      const BlockPtr& b = block(h);
      if (b->height() <= tip_->height() || !present(b->parent_hash())) {
        return false;
      }
      h = b->parent_hash();
    }
    return true;
  }

  std::unordered_map<crypto::Digest, BlockPtr> blocks_;
  std::unordered_map<crypto::Digest, Vertex> present_;
  std::unordered_map<crypto::Digest, std::vector<BlockPtr>> orphans_;
  std::unordered_set<crypto::Digest> certified_;
  std::vector<crypto::Digest> committed_;
  BlockPtr tip_;
  types::View high_view_ = types::kGenesisView;
  std::uint64_t next_seq_ = 0;
};

TEST(ForestGcProperty, RandomSequencesMatchBruteForceModel) {
  constexpr std::uint64_t kSequences = 256;
  constexpr int kSteps = 160;
  std::size_t dropped_total = 0, retained_total = 0, snapshots = 0;
  for (std::uint64_t seed = 1; seed <= kSequences; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    util::Rng rng(seed);
    BlockForest forest;
    ForestModel model;
    std::vector<BlockPtr> made{types::Block::genesis()};
    types::View view = 0;

    // Mostly near the newest blocks (so chains grow past the committed
    // tip), sometimes anywhere (forks, stale blocks below the tip).
    const auto pick = [&]() -> const BlockPtr& {
      const std::size_t recent = std::min<std::size_t>(made.size(), 8);
      return rng.bernoulli(0.7)
                 ? made[made.size() - 1 - rng.uniform_u64(recent)]
                 : made[rng.uniform_u64(made.size())];
    };
    // A fresh block under a picked parent; one in ten copies the view of
    // an existing block under the same parent, tying (height, view).
    const auto make = [&]() {
      const BlockPtr& parent = pick();
      types::View v = ++view;
      if (made.size() > 1 && rng.bernoulli(0.1)) {
        const BlockPtr& twin = made[1 + rng.uniform_u64(made.size() - 1)];
        if (model.present(twin->parent_hash())) {
          const BlockPtr sibling =
              child_of(model.block(twin->parent_hash()), twin->view(),
                       static_cast<types::NodeId>(1 + rng.uniform_u64(3)));
          if (model.record(sibling)) {
            made.push_back(sibling);
            return sibling;
          }
        }
      }
      const BlockPtr b = child_of(parent, v);
      model.record(b);
      made.push_back(b);
      return b;
    };

    for (int step = 0; step < kSteps; ++step) {
      SCOPED_TRACE(::testing::Message() << "step " << step);
      const double op = rng.uniform();
      if (op < 0.30) {  // a new block, delivered now
        const BlockPtr b = make();
        ASSERT_EQ(forest.add(b), model.add(b));
      } else if (op < 0.38) {  // a new block, not delivered yet
        make();
      } else if (op < 0.50) {  // late, duplicate or re-added delivery
        const BlockPtr b = made[rng.uniform_u64(made.size())];
        ASSERT_EQ(forest.add(b), model.add(b));
      } else if (op < 0.62) {  // QC, possibly before its block
        const types::QuorumCert qc = qc_for(pick());
        ASSERT_EQ(forest.add_qc(qc), model.add_qc(qc));
      } else if (op < 0.74) {  // commit a certified block
        std::vector<BlockPtr> certified;
        for (const BlockPtr& b : made) {
          if (model.present(b->hash()) && model.certified(b->hash())) {
            certified.push_back(b);
          }
        }
        const BlockPtr& target =
            certified[rng.uniform_u64(certified.size())];
        const auto got = forest.commit(target->hash());
        const auto want = model.commit(target->hash());
        ASSERT_EQ(got.has_value(), want.has_value());
        if (got) {
          ASSERT_EQ(hashes_of(*got), *want);
        }
      } else if (op < 0.85) {
        const auto got = hashes_of(forest.prune());
        ASSERT_EQ(got, model.prune());
        dropped_total += got.size();
      } else if (op < 0.93) {
        const types::Height horizon = static_cast<types::Height>(
            rng.uniform_u64(model.tip()->height() + 3));
        std::vector<BlockPtr> kept, gone;
        for (const BlockPtr& b : made) {
          if (!forest.contains(b->hash())) continue;
          (model.committed_vertex(b->hash()) &&
                   b->height() < std::min(horizon, model.tip()->height())
               ? gone
               : kept)
              .push_back(b);
        }
        const std::size_t n = forest.prune_below(horizon);
        ASSERT_EQ(n, model.prune_below(horizon));
        EXPECT_EQ(n, gone.size());
        retained_total += n;
        for (const BlockPtr& b : gone) EXPECT_FALSE(forest.contains(b->hash()));
        for (const BlockPtr& b : kept) EXPECT_TRUE(forest.contains(b->hash()));
      } else {  // snapshot: the anchor's chain as this test recorded it
        const BlockPtr& anchor = pick();
        std::vector<crypto::Digest> hashes(anchor->height() + 1);
        for (BlockPtr b = anchor; !b->is_genesis();
             b = model.block(b->parent_hash())) {
          hashes[b->height()] = b->hash();
        }
        hashes[0] = types::Block::genesis()->hash();
        const bool ok =
            forest.install_snapshot(anchor, qc_for(anchor), hashes);
        ASSERT_EQ(ok, model.install_snapshot(anchor, hashes));
        snapshots += ok;
      }
      model.check(forest);
      if (::testing::Test::HasFailure()) return;
    }
  }
  // The sequences must actually reach the interesting states.
  EXPECT_GT(dropped_total, 1000u);
  EXPECT_GT(retained_total, 400u);
  EXPECT_GT(snapshots, 150u);
}

}  // namespace
}  // namespace bamboo
