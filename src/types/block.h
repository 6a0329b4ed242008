#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "crypto/sha256.h"
#include "types/certificates.h"
#include "types/ids.h"
#include "types/transaction.h"

namespace bamboo::types {

/// Fixed wire overhead of a block header (hashes, view, height, proposer,
/// framing), excluding the embedded QC and transactions.
inline constexpr std::uint64_t kBlockHeaderBytes = 120;

/// An immutable block: a batch of transactions, a parent link, and the
/// proposer's justification QC ("hQC" at proposal time). Construct via
/// BlockBuilder or Block::genesis(); blocks are shared as BlockPtr and
/// never mutated after construction.
class Block {
 public:
  struct Fields {
    crypto::Digest parent_hash{};
    View view = 0;
    Height height = 0;
    /// Proposal slot within the view. 0 (the single-leader default) is
    /// elided from the hash and the wire size, so every pre-slot block is
    /// bit-identical under the extended encoding.
    Slot slot = 0;
    NodeId proposer = 0;
    QuorumCert justify;
    std::vector<Transaction> txns;
  };

  explicit Block(Fields f)
      : parent_hash_(f.parent_hash),
        view_(f.view),
        height_(f.height),
        slot_(f.slot),
        proposer_(f.proposer),
        justify_(std::move(f.justify)),
        txns_(std::move(f.txns)),
        hash_(compute_hash(parent_hash_, view_, height_, slot_, proposer_,
                           justify_, txns_)),
        wire_size_(compute_wire_size(slot_, justify_, txns_)) {}

  [[nodiscard]] const crypto::Digest& hash() const { return hash_; }
  [[nodiscard]] const crypto::Digest& parent_hash() const {
    return parent_hash_;
  }
  [[nodiscard]] View view() const { return view_; }
  [[nodiscard]] Height height() const { return height_; }
  [[nodiscard]] Slot slot() const { return slot_; }
  [[nodiscard]] NodeId proposer() const { return proposer_; }
  [[nodiscard]] const QuorumCert& justify() const { return justify_; }
  [[nodiscard]] const std::vector<Transaction>& txns() const { return txns_; }
  [[nodiscard]] bool is_genesis() const { return view_ == kGenesisView; }

  /// True when the justify QC certifies the direct parent (a "one-chain
  /// link"; the building block of the HotStuff commit rules).
  [[nodiscard]] bool justify_is_parent() const {
    return justify_.block_hash == parent_hash_;
  }

  /// Cached at construction like the hash: blocks are immutable and the
  /// transport sizes every proposal it forwards, so the O(txns) sum would
  /// otherwise be repaid on each send.
  [[nodiscard]] std::uint64_t wire_size() const { return wire_size_; }

  /// The wire-model size wire_size() caches, from the fields it depends on.
  [[nodiscard]] static std::uint64_t compute_wire_size(
      Slot slot, const QuorumCert& justify,
      const std::vector<Transaction>& txns) {
    // Slot rides as a proto3-style default-elided varint field: absent at
    // 0, one tag byte + 4-byte value otherwise.
    std::uint64_t bytes = kBlockHeaderBytes + (slot == 0 ? 0 : 5) +
                          justify.wire_size();
    for (const Transaction& tx : txns) bytes += tx.wire_size();
    return bytes;
  }

  static crypto::Digest compute_hash(const crypto::Digest& parent_hash,
                                     View view, Height height, Slot slot,
                                     NodeId proposer,
                                     const QuorumCert& justify,
                                     const std::vector<Transaction>& txns);

  /// The unique genesis block (view 0, height 0, zero parent).
  static std::shared_ptr<const Block> genesis();

  /// The conventional QC certifying genesis.
  static QuorumCert genesis_qc();

 private:
  crypto::Digest parent_hash_;
  View view_;
  Height height_;
  Slot slot_;
  NodeId proposer_;
  QuorumCert justify_;
  std::vector<Transaction> txns_;
  crypto::Digest hash_;
  std::uint64_t wire_size_;
};

using BlockPtr = std::shared_ptr<const Block>;

}  // namespace bamboo::types
