#include "quorum/vote_aggregator.h"

#include <algorithm>
#include <utility>

namespace bamboo::quorum {

std::optional<types::QuorumCert> VoteAggregator::add(
    const types::VoteMsg& vote) {
  const types::NodeId voter = vote.voter();
  if (voter >= n_) return std::nullopt;  // not a replica: refused

  std::vector<SlotVotes>& slots = views_[vote.view];
  auto slot_it =
      std::find_if(slots.begin(), slots.end(), [&vote](const SlotVotes& s) {
        return s.slot == vote.slot;
      });
  if (slot_it == slots.end()) {
    slot_it = slots.insert(slots.end(), SlotVotes{vote.slot, {}, {}});
    slot_it->choice.assign(n_, kNoVote);
  }
  SlotVotes& slot = *slot_it;

  std::uint32_t& choice = slot.choice[voter];
  if (choice != kNoVote) {
    if (slot.blocks[choice].hash != vote.block_hash) {
      ++equivocations_;
    } else {
      ++duplicates_;
    }
    return std::nullopt;
  }
  const auto block_it = std::find_if(
      slot.blocks.begin(), slot.blocks.end(),
      [&vote](const BlockVotes& b) { return b.hash == vote.block_hash; });
  choice = static_cast<std::uint32_t>(block_it - slot.blocks.begin());
  if (block_it == slot.blocks.end()) {
    // Pin the height at the block's first vote: a later vote carrying a
    // mismatched height for the same block must not poison the formed QC's
    // height.
    BlockVotes& block = slot.blocks.emplace_back();
    block.hash = vote.block_hash;
    block.height = vote.height;
    block.sigs.reserve(quorum_);
  }

  BlockVotes& block = slot.blocks[choice];
  // The certificate stops growing once formed (long views would otherwise
  // accumulate signatures unboundedly).
  if (block.formed) return std::nullopt;
  if (vote.height != block.height) {
    ++equivocations_;
    return std::nullopt;
  }
  block.sigs.push_back(vote.sig);
  if (block.sigs.size() < quorum_) return std::nullopt;

  block.formed = true;
  types::QuorumCert qc;
  qc.view = vote.view;
  qc.height = block.height;
  qc.slot = vote.slot;
  qc.block_hash = vote.block_hash;
  qc.sigs = std::move(block.sigs);
  return qc;
}

bool VoteAggregator::has_vote(const types::VoteMsg& vote) const {
  const types::NodeId voter = vote.voter();
  if (voter >= n_) return false;
  const std::vector<SlotVotes>* slots = views_.find(vote.view);
  if (slots == nullptr) return false;
  for (const SlotVotes& slot : *slots) {
    if (slot.slot != vote.slot) continue;
    const std::uint32_t choice = slot.choice[voter];
    return choice != kNoVote && slot.blocks[choice].hash == vote.block_hash;
  }
  return false;
}

void VoteAggregator::gc_below(types::View view) { views_.erase_below(view); }

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
