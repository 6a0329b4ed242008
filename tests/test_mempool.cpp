// Tests for the bidirectional mempool: FIFO order, front recycling,
// dedup, capacity, committed-transaction tombstoning.

#include <gtest/gtest.h>

#include <stdexcept>

#include "mempool/mempool.h"

namespace bamboo {
namespace {

types::Transaction tx(types::TxId id) {
  types::Transaction t;
  t.id = id;
  return t;
}

TEST(Mempool, FifoOrder) {
  mempool::Mempool pool(100);
  for (types::TxId id = 1; id <= 5; ++id) EXPECT_TRUE(pool.add_new(tx(id)));
  const auto taken = pool.take(3);
  ASSERT_EQ(taken.size(), 3u);
  EXPECT_EQ(taken[0].id, 1u);
  EXPECT_EQ(taken[1].id, 2u);
  EXPECT_EQ(taken[2].id, 3u);
  EXPECT_EQ(pool.size(), 2u);
}

TEST(Mempool, TakeMoreThanAvailable) {
  mempool::Mempool pool(100);
  pool.add_new(tx(1));
  const auto taken = pool.take(10);
  EXPECT_EQ(taken.size(), 1u);
  EXPECT_TRUE(pool.empty());
}

TEST(Mempool, RejectsDuplicates) {
  mempool::Mempool pool(100);
  EXPECT_TRUE(pool.add_new(tx(1)));
  EXPECT_FALSE(pool.add_new(tx(1)));
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.rejected_count(), 1u);
}

TEST(Mempool, CapacityEnforced) {
  mempool::Mempool pool(3);
  for (types::TxId id = 1; id <= 3; ++id) EXPECT_TRUE(pool.add_new(tx(id)));
  EXPECT_FALSE(pool.add_new(tx(4)));
  EXPECT_EQ(pool.size(), 3u);
  // Taking frees capacity again.
  pool.take(1);
  EXPECT_TRUE(pool.add_new(tx(4)));
}

TEST(Mempool, RecycleGoesToFrontInOrder) {
  mempool::Mempool pool(100);
  pool.add_new(tx(10));
  pool.add_new(tx(11));
  // Transactions from a forked-out block are re-proposed first.
  EXPECT_EQ(pool.recycle({tx(1), tx(2), tx(3)}), 3u);
  const auto taken = pool.take(5);
  ASSERT_EQ(taken.size(), 5u);
  EXPECT_EQ(taken[0].id, 1u);
  EXPECT_EQ(taken[1].id, 2u);
  EXPECT_EQ(taken[2].id, 3u);
  EXPECT_EQ(taken[3].id, 10u);
  EXPECT_EQ(taken[4].id, 11u);
}

TEST(Mempool, RecycleSkipsPresentIds) {
  mempool::Mempool pool(100);
  pool.add_new(tx(1));
  EXPECT_EQ(pool.recycle({tx(1), tx(2)}), 1u);
  EXPECT_EQ(pool.size(), 2u);
}

TEST(Mempool, RecycleSkipsCommitted) {
  mempool::Mempool pool(100);
  pool.add_new(tx(1));
  pool.mark_committed(1);
  // id 1 committed while pooled: recycling it again must be refused.
  EXPECT_EQ(pool.recycle({tx(1)}), 0u);
  EXPECT_EQ(pool.take(10).size(), 0u);  // the tombstoned tx is dropped
}

TEST(Mempool, MarkCommittedDropsPooledTx) {
  mempool::Mempool pool(100);
  pool.add_new(tx(1));
  pool.add_new(tx(2));
  pool.mark_committed(1);
  EXPECT_EQ(pool.size(), 1u);
  const auto taken = pool.take(10);
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_EQ(taken[0].id, 2u);
}

TEST(Mempool, MarkCommittedUnknownIdIsNoop) {
  mempool::Mempool pool(100);
  pool.add_new(tx(1));
  pool.mark_committed(99);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(Mempool, TombstoneFreesCapacity) {
  mempool::Mempool pool(2);
  pool.add_new(tx(1));
  pool.add_new(tx(2));
  pool.mark_committed(1);
  EXPECT_TRUE(pool.add_new(tx(3)));  // live size is 1, capacity 2
  const auto taken = pool.take(10);
  ASSERT_EQ(taken.size(), 2u);
  EXPECT_EQ(taken[0].id, 2u);
  EXPECT_EQ(taken[1].id, 3u);
}

TEST(Mempool, ReAddAfterTakeIsAllowed) {
  mempool::Mempool pool(100);
  pool.add_new(tx(1));
  pool.take(1);
  EXPECT_TRUE(pool.add_new(tx(1)));
}

TEST(Mempool, RecycleRespectsCapacity) {
  mempool::Mempool pool(2);
  pool.add_new(tx(1));
  EXPECT_EQ(pool.recycle({tx(2), tx(3), tx(4)}), 1u);
  EXPECT_EQ(pool.size(), 2u);
}

TEST(Mempool, CountersAccumulate) {
  mempool::Mempool pool(1);
  pool.add_new(tx(1));
  pool.add_new(tx(2));  // rejected: full
  pool.take(1);
  pool.recycle({tx(3)});
  EXPECT_EQ(pool.rejected_count(), 1u);
  EXPECT_EQ(pool.recycled_count(), 1u);
  EXPECT_EQ(pool.admitted_count(), 1u);
}

// ---------------------------------------------------------------------------
// Admission policies
// ---------------------------------------------------------------------------

TEST(Mempool, ParseAdmissionAcceptsTheThreePolicies) {
  const auto drop = mempool::parse_admission("drop");
  EXPECT_EQ(drop.policy, mempool::AdmissionPolicy::kDrop);
  EXPECT_EQ(mempool::parse_admission("").policy,
            mempool::AdmissionPolicy::kDrop);

  const auto backoff = mempool::parse_admission("backoff:12.5");
  EXPECT_EQ(backoff.policy, mempool::AdmissionPolicy::kBackoff);
  EXPECT_DOUBLE_EQ(backoff.backoff_ms, 12.5);

  const auto prio = mempool::parse_admission("priority:0.1");
  EXPECT_EQ(prio.policy, mempool::AdmissionPolicy::kPriority);
  EXPECT_DOUBLE_EQ(prio.reserve_frac, 0.1);
}

TEST(Mempool, ParseAdmissionRejectsHalfSpecifiedSpecs) {
  for (const char* spec : {"backoff", "backoff:", "backoff:0", "priority",
                           "priority:1", "priority:-0.1", "fifo"}) {
    EXPECT_THROW((void)mempool::parse_admission(spec), std::invalid_argument)
        << spec;
  }
}

TEST(Mempool, PriorityReservesRecycleHeadroom) {
  // capacity 10, reserve 20% -> add_new sees 8 slots; recycle sees all 10.
  mempool::Mempool pool(10, mempool::parse_admission("priority:0.2"));
  for (std::uint64_t i = 1; i <= 10; ++i) pool.add_new(tx(i));
  EXPECT_EQ(pool.size(), 8u);
  EXPECT_EQ(pool.rejected_count(), 2u);
  // Recycled (in-flight, timed-out) transactions may use the reserve.
  EXPECT_EQ(pool.recycle({tx(11), tx(12), tx(13)}), 2u);
  EXPECT_EQ(pool.size(), 10u);
}

TEST(Mempool, BackoffPolicyStillBoundsCapacity) {
  // The backoff policy changes the client hint, not pool behavior.
  mempool::Mempool pool(2, mempool::parse_admission("backoff:5"));
  EXPECT_TRUE(pool.add_new(tx(1)));
  EXPECT_TRUE(pool.add_new(tx(2)));
  EXPECT_FALSE(pool.add_new(tx(3)));
  EXPECT_DOUBLE_EQ(pool.admission().backoff_ms, 5.0);
}

}  // namespace
}  // namespace bamboo
