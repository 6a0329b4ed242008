#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

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
class VoteAggregator {
 public:
  explicit VoteAggregator(std::uint32_t num_replicas)
      : quorum_(types::quorum_size(num_replicas)) {}

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
  struct Bucket {
    types::Height height = 0;
    std::vector<crypto::Signature> sigs;
    std::unordered_map<types::NodeId, bool> voters;
    bool formed = false;
  };

  std::uint32_t quorum_;
  // view -> slot -> block hash -> bucket. The outer std::map gives cheap
  // ordered GC by view; the slot map is a std::map too (tiny: at most the
  // election width).
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
