#include "quorum/vote_aggregator.h"

namespace bamboo::quorum {

std::optional<types::QuorumCert> VoteAggregator::add(
    const types::VoteMsg& vote) {
  const types::NodeId voter = vote.voter();

  auto& by_voter = votes_by_voter_[vote.view][vote.slot];
  const auto [voter_it, first_vote_this_slot] =
      by_voter.emplace(voter, vote.block_hash);
  if (!first_vote_this_slot) {
    if (voter_it->second != vote.block_hash) {
      ++equivocations_;
    } else {
      ++duplicates_;
    }
    return std::nullopt;
  }

  Bucket& bucket = buckets_[vote.view][vote.slot][vote.block_hash];
  // The certificate stops growing once formed (long views would otherwise
  // accumulate signatures unboundedly).
  if (bucket.formed) return std::nullopt;
  if (bucket.sigs.empty()) {
    // Pin the height at bucket creation: a later vote carrying a mismatched
    // height for the same block must not poison the formed QC's height.
    bucket.height = vote.height;
  } else if (vote.height != bucket.height) {
    ++equivocations_;
    return std::nullopt;
  }
  bucket.voters.emplace(voter, true);
  bucket.sigs.push_back(vote.sig);

  if (bucket.sigs.size() >= quorum_) {
    bucket.formed = true;
    types::QuorumCert qc;
    qc.view = vote.view;
    qc.height = bucket.height;
    qc.slot = vote.slot;
    qc.block_hash = vote.block_hash;
    qc.sigs = bucket.sigs;
    return qc;
  }
  return std::nullopt;
}

bool VoteAggregator::has_vote(const types::VoteMsg& vote) const {
  const auto view_it = votes_by_voter_.find(vote.view);
  if (view_it == votes_by_voter_.end()) return false;
  const auto slot_it = view_it->second.find(vote.slot);
  if (slot_it == view_it->second.end()) return false;
  const auto voter_it = slot_it->second.find(vote.voter());
  return voter_it != slot_it->second.end() &&
         voter_it->second == vote.block_hash;
}

void VoteAggregator::gc_below(types::View view) {
  buckets_.erase(buckets_.begin(), buckets_.lower_bound(view));
  votes_by_voter_.erase(votes_by_voter_.begin(),
                        votes_by_voter_.lower_bound(view));
}

std::optional<types::TimeoutCert> TimeoutAggregator::add(
    const types::TimeoutMsg& msg) {
  Bucket& bucket = buckets_[msg.view];
  const auto [it, inserted] = bucket.senders.emplace(msg.sender(), true);
  if (!inserted) return std::nullopt;
  // `senders` keeps growing above — count() drives the f+1 early join —
  // but the certificate itself stops accumulating once formed.
  if (bucket.formed) return std::nullopt;

  bucket.sigs.push_back(msg.sig);
  bucket.reported_qc_views.push_back(msg.high_qc.view);
  if (bucket.sigs.size() == 1 || msg.high_qc.view > bucket.high_qc.view) {
    bucket.high_qc = msg.high_qc;
  }

  if (bucket.sigs.size() >= quorum_) {
    bucket.formed = true;
    types::TimeoutCert tc;
    tc.view = msg.view;
    tc.sigs = bucket.sigs;
    tc.reported_qc_views = bucket.reported_qc_views;
    tc.high_qc = bucket.high_qc;
    return tc;
  }
  return std::nullopt;
}

std::size_t TimeoutAggregator::count(types::View view) const {
  const auto it = buckets_.find(view);
  return it == buckets_.end() ? 0 : it->second.senders.size();
}

void TimeoutAggregator::gc_below(types::View view) {
  buckets_.erase(buckets_.begin(), buckets_.lower_bound(view));
}

}  // namespace bamboo::quorum
