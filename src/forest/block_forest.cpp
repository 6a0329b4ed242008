#include "forest/block_forest.h"

#include <algorithm>

namespace bamboo::forest {

using types::Block;
using types::BlockPtr;
using types::QuorumCert;

namespace {

// The certified-tip order (longest_certified_tip()): higher first, then the
// later view, then the lower hash. Total over distinct blocks.
bool outranks(const Block& a, const Block& b) {
  if (a.height() != b.height()) return a.height() > b.height();
  if (a.view() != b.view()) return a.view() > b.view();
  return a.hash() < b.hash();
}

}  // namespace

BlockForest::BlockForest() {
  BlockPtr genesis = Block::genesis();
  Vertex v;
  v.block = genesis;
  v.committed = true;
  vertices_.emplace(genesis->hash(), std::move(v));
  committed_tip_ = genesis;
  committed_hashes_.push_back(genesis->hash());
  high_qc_ = Block::genesis_qc();
  qcs_.emplace(genesis->hash(), high_qc_);
  longest_certified_ = genesis;
}

AddResult BlockForest::add(BlockPtr block) {
  if (!block) return AddResult::kInvalid;
  if (vertices_.count(block->hash()) > 0) return AddResult::kDuplicate;

  const auto parent_it = vertices_.find(block->parent_hash());
  if (parent_it == vertices_.end()) {
    auto& bucket = orphans_[block->parent_hash()];
    // Avoid unbounded duplicates in the orphan buffer.
    for (const BlockPtr& existing : bucket) {
      if (existing->hash() == block->hash()) return AddResult::kOrphaned;
    }
    bucket.push_back(std::move(block));
    return AddResult::kOrphaned;
  }

  if (block->height() != parent_it->second.block->height() + 1) {
    return AddResult::kInvalid;
  }

  connect(std::move(block));
  return AddResult::kAdded;
}

void BlockForest::connect(BlockPtr block) {
  const crypto::Digest hash = block->hash();
  vertices_[block->parent_hash()].children.push_back(hash);
  Vertex v;
  v.block = std::move(block);
  v.seq = next_seq_++;
  uncommitted_.push_back(ConnectRecord{hash, v.seq});
  const auto it = vertices_.emplace(hash, std::move(v)).first;
  // If this block was certified before it arrived (QC travelled faster),
  // refresh the certified-tip tracking now.
  if (qcs_.count(hash) > 0) offer_certified(it->second.block);
  flush_orphans_of(hash);
}

void BlockForest::flush_orphans_of(const crypto::Digest& parent_hash) {
  const auto it = orphans_.find(parent_hash);
  if (it == orphans_.end()) return;
  std::vector<BlockPtr> pending = std::move(it->second);
  orphans_.erase(it);
  for (BlockPtr& orphan : pending) {
    const auto parent_it = vertices_.find(parent_hash);
    if (parent_it != vertices_.end() &&
        orphan->height() == parent_it->second.block->height() + 1 &&
        vertices_.count(orphan->hash()) == 0) {
      connect(std::move(orphan));
    }
  }
}

bool BlockForest::contains(const crypto::Digest& hash) const {
  return vertices_.count(hash) > 0;
}

BlockPtr BlockForest::get(const crypto::Digest& hash) const {
  const auto it = vertices_.find(hash);
  return it == vertices_.end() ? nullptr : it->second.block;
}

bool BlockForest::add_qc(const QuorumCert& qc) {
  const auto [it, inserted] = qcs_.emplace(qc.block_hash, qc);
  if (!inserted && qc.view > it->second.view) it->second = qc;
  // (view, slot) lexicographic freshness: slot ties only arise under
  // multi-leader elections — single-leader QCs all carry slot 0, where
  // this is exactly the legacy view comparison.
  if (qc.view > high_qc_.view ||
      (qc.view == high_qc_.view && qc.slot > high_qc_.slot)) {
    high_qc_ = qc;
  }

  if (inserted) {
    if (const BlockPtr block = get(qc.block_hash)) offer_certified(block);
  }
  return inserted;
}

void BlockForest::offer_certified(const BlockPtr& block) {
  if (!longest_certified_ || outranks(*block, *longest_certified_)) {
    longest_certified_ = block;
  }
}

bool BlockForest::is_certified(const crypto::Digest& hash) const {
  return qcs_.count(hash) > 0;
}

const QuorumCert* BlockForest::qc_for(const crypto::Digest& hash) const {
  const auto it = qcs_.find(hash);
  return it == qcs_.end() ? nullptr : &it->second;
}

BlockPtr BlockForest::high_qc_block() const { return get(high_qc_.block_hash); }

bool BlockForest::extends(const crypto::Digest& descendant,
                          const crypto::Digest& ancestor) const {
  const BlockPtr anc = get(ancestor);
  if (!anc) return false;
  BlockPtr cursor = get(descendant);
  while (cursor) {
    if (cursor->hash() == ancestor) return true;
    if (cursor->height() <= anc->height()) return false;
    cursor = get(cursor->parent_hash());
  }
  return false;
}

BlockPtr BlockForest::ancestor(const BlockPtr& block, std::uint32_t k) const {
  BlockPtr cursor = block;
  for (std::uint32_t i = 0; i < k && cursor; ++i) {
    cursor = get(cursor->parent_hash());
  }
  return cursor;
}

std::vector<BlockPtr> BlockForest::children(const crypto::Digest& hash) const {
  std::vector<BlockPtr> out;
  const auto it = vertices_.find(hash);
  if (it == vertices_.end()) return out;
  out.reserve(it->second.children.size());
  for (const crypto::Digest& child : it->second.children) {
    if (const BlockPtr b = get(child)) out.push_back(b);
  }
  return out;
}

std::optional<std::vector<BlockPtr>> BlockForest::commit(
    const crypto::Digest& target) {
  const BlockPtr tip = get(target);
  if (!tip) return std::nullopt;
  if (tip->height() <= committed_tip_->height()) {
    // Already committed (or conflicts below the committed tip).
    if (committed_hash_at(tip->height()) == tip->hash()) {
      return std::vector<BlockPtr>{};
    }
    return std::nullopt;
  }

  // Walk down from the target to the committed tip, collecting the chain.
  std::vector<BlockPtr> chain;
  BlockPtr cursor = tip;
  while (cursor && cursor->height() > committed_tip_->height()) {
    chain.push_back(cursor);
    cursor = get(cursor->parent_hash());
  }
  if (!cursor || cursor->hash() != committed_tip_->hash()) {
    return std::nullopt;  // does not extend the main chain: refuse
  }
  std::reverse(chain.begin(), chain.end());
  for (const BlockPtr& b : chain) {
    vertices_[b->hash()].committed = true;
    committed_hashes_.push_back(b->hash());
  }
  committed_tip_ = tip;
  return chain;
}

std::optional<crypto::Digest> BlockForest::committed_hash_at(
    types::Height h) const {
  if (h >= committed_hashes_.size()) return std::nullopt;
  return committed_hashes_[h];
}

std::vector<BlockPtr> BlockForest::prune() {
  // Keep the committed chain plus the committed tip's subtree. One pass over
  // the uncommitted vertices in connect order: a parent connects before its
  // children, so it is decided first. A vertex stays when its parent is the
  // committed tip or an uncommitted vertex that stayed. A parent with a
  // later seq is a re-added copy of one retention dropped, so the child sits
  // below the committed tip and goes. Dropped blocks leave in connect order,
  // parents first.
  std::vector<BlockPtr> dropped;
  std::size_t kept = 0;
  for (const ConnectRecord& entry : uncommitted_) {
    const auto it = vertices_.find(entry.hash);
    if (it == vertices_.end() || it->second.committed ||
        it->second.seq != entry.seq) {
      continue;  // stale
    }
    const auto parent = vertices_.find(it->second.block->parent_hash());
    const bool in_subtree =
        parent != vertices_.end() &&
        (parent->second.committed ? parent->first == committed_tip_->hash()
                                  : parent->second.seq < entry.seq);
    if (in_subtree) {
      uncommitted_[kept++] = entry;
      continue;
    }
    dropped.push_back(std::move(it->second.block));
    qcs_.erase(entry.hash);
    vertices_.erase(it);
  }
  uncommitted_.resize(kept);
  // A dropped vertex's parent is a committed block or was dropped too; only
  // a surviving parent needs its child list repaired. The first repair of
  // a parent removes all of its dropped children at once.
  for (const BlockPtr& block : dropped) {
    const auto parent = vertices_.find(block->parent_hash());
    if (parent == vertices_.end()) continue;
    auto& ch = parent->second.children;
    ch.erase(std::remove_if(ch.begin(), ch.end(),
                            [this](const crypto::Digest& c) {
                              return vertices_.count(c) == 0;
                            }),
             ch.end());
  }

  // Stale orphans below the committed tip can never connect.
  for (auto it = orphans_.begin(); it != orphans_.end();) {
    auto& bucket = it->second;
    bucket.erase(std::remove_if(bucket.begin(), bucket.end(),
                                [this](const BlockPtr& b) {
                                  return b->height() <=
                                         committed_tip_->height();
                                }),
                 bucket.end());
    it = bucket.empty() ? orphans_.erase(it) : std::next(it);
  }

  // The longest certified tip may have been on a dropped branch. Every
  // certified block that could replace it is the committed tip or in its
  // subtree, and the surviving uncommitted vertices are that subtree.
  if (!longest_certified_ || !contains(longest_certified_->hash())) {
    longest_certified_ = committed_tip_;
    for (const ConnectRecord& entry : uncommitted_) {
      if (qcs_.count(entry.hash) > 0) {
        offer_certified(vertices_.at(entry.hash).block);
      }
    }
  }
  return dropped;
}

std::size_t BlockForest::prune_below(types::Height horizon) {
  if (horizon > committed_tip_->height()) horizon = committed_tip_->height();
  // No child list needs repair: a committed vertex's parent is committed
  // and lower, so it goes first (a snapshot anchor is nobody's child).
  std::size_t dropped = 0;
  for (; retained_from_ < horizon; ++retained_from_) {
    const auto it = vertices_.find(committed_hashes_[retained_from_]);
    if (it == vertices_.end() || !it->second.committed) continue;
    qcs_.erase(it->first);
    vertices_.erase(it);
    ++dropped;
  }
  // The certified-tip cache cannot point below the committed tip once
  // anything was dropped below it; refresh defensively anyway.
  if (dropped > 0 && (!longest_certified_ ||
                      !contains(longest_certified_->hash()))) {
    longest_certified_ = committed_tip_;
  }
  return dropped;
}

bool BlockForest::install_snapshot(const BlockPtr& anchor,
                                   const QuorumCert& anchor_qc,
                                   const std::vector<crypto::Digest>& hashes) {
  if (!anchor || anchor_qc.block_hash != anchor->hash()) return false;
  if (anchor->height() <= committed_tip_->height()) return false;  // stale
  if (hashes.size() != anchor->height() + 1) return false;
  if (hashes.back() != anchor->hash()) return false;
  // The snapshot must agree with everything this replica already
  // committed — a mismatched prefix is a Byzantine snapshot, not a merge.
  for (std::size_t h = 0; h < committed_hashes_.size(); ++h) {
    if (hashes[h] != committed_hashes_[h]) return false;
  }

  committed_hashes_ = hashes;
  Vertex v;
  v.block = anchor;
  v.committed = true;
  auto [it, inserted] = vertices_.emplace(anchor->hash(), std::move(v));
  if (!inserted) it->second.committed = true;
  // Mark any locally present blocks on the snapshot chain committed (the
  // gap region is absent by definition, but blocks near our old tip may
  // overlap the chain). One below prune_below()'s cursor pulls it back.
  for (types::Height h = 0; h < committed_hashes_.size(); ++h) {
    const auto vit = vertices_.find(committed_hashes_[h]);
    if (vit == vertices_.end() || vit->second.committed) continue;
    vit->second.committed = true;
    retained_from_ = std::min(retained_from_, h);
  }
  committed_tip_ = anchor;
  add_qc(anchor_qc);
  offer_certified(anchor);
  // Buffered children of the anchor (from concurrent chain sync or live
  // traffic) can connect now.
  flush_orphans_of(anchor->hash());
  return true;
}

BlockPtr BlockForest::longest_certified_tip() const {
  return longest_certified_ ? longest_certified_ : committed_tip_;
}

std::vector<crypto::Digest> BlockForest::missing_parents() const {
  std::vector<crypto::Digest> out;
  out.reserve(orphans_.size());
  for (const auto& [parent_hash, bucket] : orphans_) {
    if (!bucket.empty()) out.push_back(parent_hash);
  }
  return out;
}

bool BlockForest::buffered(const crypto::Digest& hash) const {
  return buffered_get(hash) != nullptr;
}

types::BlockPtr BlockForest::buffered_get(const crypto::Digest& hash) const {
  for (const auto& [parent_hash, bucket] : orphans_) {
    for (const BlockPtr& b : bucket) {
      if (b->hash() == hash) return b;
    }
  }
  return nullptr;
}

std::size_t BlockForest::orphan_count() const {
  std::size_t n = 0;
  for (const auto& [parent_hash, bucket] : orphans_) n += bucket.size();
  return n;
}

}  // namespace bamboo::forest
