#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "quorum/view_map.h"
#include "types/certificates.h"
#include "types/messages.h"

namespace bamboo::quorum {

/// The paper's Quorum component: collects votes (voted()) and produces QCs
/// (certified()) once n-f matching votes arrive. Forming certificates are
/// keyed by (view, slot, block) — multi-leader protocols collect one QC
/// per proposal slot concurrently; single-leader traffic only ever uses
/// slot 0, which degenerates to the legacy per-view keying. Duplicate
/// votes are ignored; equivocating votes (same voter, same (view, slot),
/// different blocks) are counted as Byzantine evidence.
///
/// The state of one (view, slot) is indexed by voter: the block each
/// replica voted for, plus one short list entry per block voted (pinned
/// height, signatures, formed). A vote whose voter id is not a replica id
/// (>= num_replicas) is refused: add() records and counts nothing for it.
class VoteAggregator {
 public:
  explicit VoteAggregator(std::uint32_t num_replicas)
      : n_(num_replicas), quorum_(types::quorum_size(num_replicas)) {}

  /// Add a vote. Returns a freshly formed QC exactly once per
  /// (view, slot, block) when the quorum threshold is crossed.
  std::optional<types::QuorumCert> add(const types::VoteMsg& vote);

  /// True iff add() already recorded this voter's vote for this block in
  /// this (view, slot), so adding `vote` again would be ignored as a
  /// duplicate. Inserts no state.
  [[nodiscard]] bool has_vote(const types::VoteMsg& vote) const;

  /// Votes by a voter who already voted a different block in the same
  /// (view, slot). Cumulative Byzantine evidence: per-view voter state is
  /// GC'd by gc_below, so the same voter equivocating in two consecutive
  /// views is counted once per view (see test_quorum).
  [[nodiscard]] std::uint64_t equivocation_count() const {
    return equivocations_;
  }
  /// Exact copies passed to add(). core::Replica drops copies of a counted
  /// vote before add() (see has_vote), so its aggregator counts none.
  [[nodiscard]] std::uint64_t duplicate_count() const { return duplicates_; }

  /// Drop all state for views strictly below `view` (garbage collection).
  void gc_below(types::View view);

  [[nodiscard]] std::uint32_t quorum() const { return quorum_; }

 private:
  /// The votes counted for one block of a (view, slot).
  struct BlockVotes {
    crypto::Digest hash{};
    /// Pinned by the block's first vote: a later vote carrying another
    /// height for the same block is evidence, not a quorum vote.
    types::Height height = 0;
    /// Moved into the QC when it forms; nothing reads them after that.
    std::vector<crypto::Signature> sigs;
    bool formed = false;
  };
  /// Every vote of one (view, slot).
  struct SlotVotes {
    types::Slot slot = 0;
    /// choice[voter]: the index in `blocks` of the block `voter` voted
    /// for, kNoVote while it has not voted.
    std::vector<std::uint32_t> choice;
    /// At most one entry per voter; one in an honest (view, slot).
    std::vector<BlockVotes> blocks;
  };
  static constexpr std::uint32_t kNoVote = ~std::uint32_t{0};

  std::uint32_t n_;
  std::uint32_t quorum_;
  /// view -> the (view, slot) records of the slots voted in that view (one
  /// under single-leader elections, at most the election width).
  ViewMap<std::vector<SlotVotes>> views_;
  std::uint64_t equivocations_ = 0;
  std::uint64_t duplicates_ = 0;
};

/// Collects ⟨TIMEOUT, view⟩ messages into timeout certificates, tracking the
/// highest QC reported by the timing-out replicas (the view-change
/// justification / Fast-HotStuff AggQC).
class TimeoutAggregator {
 public:
  explicit TimeoutAggregator(std::uint32_t num_replicas)
      : quorum_(types::quorum_size(num_replicas)) {}

  /// Add a timeout message. Returns a TC exactly once per view when the
  /// threshold is crossed.
  std::optional<types::TimeoutCert> add(const types::TimeoutMsg& msg);

  /// Distinct senders seen timing out at `view` (f+1 triggers early join).
  [[nodiscard]] std::size_t count(types::View view) const;

  void gc_below(types::View view);

  [[nodiscard]] std::uint32_t quorum() const { return quorum_; }

 private:
  struct Bucket {
    std::vector<crypto::Signature> sigs;
    std::vector<types::View> reported_qc_views;
    std::unordered_map<types::NodeId, bool> senders;
    types::QuorumCert high_qc;
    bool formed = false;
  };

  std::uint32_t quorum_;
  std::map<types::View, Bucket> buckets_;
};

}  // namespace bamboo::quorum
