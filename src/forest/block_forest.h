#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "types/block.h"
#include "types/certificates.h"

namespace bamboo::forest {

/// Result of inserting a block.
enum class AddResult {
  kAdded,      ///< inserted and connected to its parent
  kDuplicate,  ///< already present
  kOrphaned,   ///< parent unknown; buffered until the parent arrives
  kInvalid,    ///< height does not equal parent height + 1
};

/// The paper's *data* module: a height-indexed forest of blocks with a QC
/// store, orphan buffering, main-chain (committed) tracking, and pruning.
///
/// Invariants maintained:
///  * every connected vertex has height == parent height + 1;
///  * committed blocks form a single chain from genesis (the main chain);
///  * after prune(), every stored block is the committed tip, one of its
///    ancestors on the main chain, or a descendant of the committed tip.
class BlockForest {
 public:
  BlockForest();

  /// Insert a block. Orphans (parent not yet known) are buffered and
  /// connected automatically when the parent arrives; the return value for
  /// the *triggering* block is still kOrphaned in that case.
  AddResult add(types::BlockPtr block);

  [[nodiscard]] bool contains(const crypto::Digest& hash) const;
  [[nodiscard]] types::BlockPtr get(const crypto::Digest& hash) const;

  /// Record a QC. Keeps the highest-view QC reachable via high_qc().
  /// Returns true if this certifies a block for the first time.
  bool add_qc(const types::QuorumCert& qc);

  [[nodiscard]] bool is_certified(const crypto::Digest& hash) const;
  [[nodiscard]] const types::QuorumCert* qc_for(
      const crypto::Digest& hash) const;
  [[nodiscard]] const types::QuorumCert& high_qc() const { return high_qc_; }

  /// Block certified by the highest QC, if present in the forest.
  [[nodiscard]] types::BlockPtr high_qc_block() const;

  /// True if `descendant` has `ancestor` on its parent path (or equals it).
  /// Unknown hashes yield false.
  [[nodiscard]] bool extends(const crypto::Digest& descendant,
                             const crypto::Digest& ancestor) const;

  /// k-th ancestor of a block (k=0 returns the block itself); nullptr when
  /// the walk leaves the forest.
  [[nodiscard]] types::BlockPtr ancestor(const types::BlockPtr& block,
                                         std::uint32_t k) const;

  /// Direct children currently known: the present blocks that connected
  /// under this one (a snapshot anchor is installed, not connected, so it
  /// is listed under no parent).
  [[nodiscard]] std::vector<types::BlockPtr> children(
      const crypto::Digest& hash) const;

  /// Commit `target` and all its uncommitted ancestors. Returns the newly
  /// committed blocks in ascending height order. Returns nullopt — and
  /// commits nothing — if target does not extend the committed tip
  /// (a safety violation in the calling protocol).
  std::optional<std::vector<types::BlockPtr>> commit(
      const crypto::Digest& target);

  [[nodiscard]] types::BlockPtr committed_tip() const { return committed_tip_; }
  [[nodiscard]] types::Height committed_height() const {
    return committed_tip_->height();
  }

  /// Hash of the committed block at a height (consistency checks across
  /// replicas, paper §III-A); nullopt if not yet committed that far.
  [[nodiscard]] std::optional<crypto::Digest> committed_hash_at(
      types::Height h) const;

  /// The whole committed-hash chain, indexed by height (snapshot builds
  /// serve slices of this; never pruned, 32 bytes per committed block).
  [[nodiscard]] const std::vector<crypto::Digest>& committed_hashes() const {
    return committed_hashes_;
  }

  /// Drop every block that is not on the main chain and not a descendant of
  /// the committed tip, and every buffered orphan at or below the committed
  /// height. Returns the dropped blocks (the forked-out blocks whose
  /// transactions the replica recycles into its mempool) in connect order,
  /// so a parent comes before its children.
  ///
  /// Cost: one visit per block connected since the previous prune(), per
  /// uncommitted block kept by it (the committed tip's subtree) and per
  /// buffered orphan, never per retained committed block. Allocates only
  /// the returned vector.
  std::vector<types::BlockPtr> prune();

  /// Retention pruning (durable ledger): drop committed vertices strictly
  /// below `horizon` from the in-memory forest. Their bodies live in the
  /// replica's BlockStore; their hashes stay in committed_hashes_, so
  /// consistency checks and snapshot serving are unaffected. Returns the
  /// number of vertices dropped (these are NOT forks — their transactions
  /// committed — so they are not recycled).
  ///
  /// Cost: one lookup per height the horizon advanced since the previous
  /// call; a cursor walks committed_hashes_ upward and never scans the
  /// forest.
  std::size_t prune_below(types::Height horizon);

  /// Snapshot install (state transfer): adopt `hashes` — the serving
  /// peer's committed-hash chain for heights [0, anchor->height()] — and
  /// `anchor` as the new committed tip, certified by `anchor_qc` (already
  /// verified by the caller through quorum::CertVerifier). Refuses (false,
  /// no change) when the snapshot is stale (anchor at or below our
  /// committed tip), internally inconsistent (length/tail mismatch), or
  /// conflicts with a hash this replica already committed.
  bool install_snapshot(const types::BlockPtr& anchor,
                        const types::QuorumCert& anchor_qc,
                        const std::vector<crypto::Digest>& hashes);

  /// Tip of the longest certified ("notarized") chain — Streamlet's
  /// proposing base: the greatest certified block present, ordered by
  /// height, then view, then lower hash (a total order, so the answer does
  /// not depend on the order blocks and QCs arrived in). When prune() drops
  /// that block, the rescan starts from the committed tip, which is itself
  /// certified when the commit rule only commits certified blocks, as the
  /// shipped protocols' rules do.
  [[nodiscard]] types::BlockPtr longest_certified_tip() const;

  /// Hashes whose parents are missing (targets for chain sync).
  [[nodiscard]] std::vector<crypto::Digest> missing_parents() const;

  /// True if `hash` sits in the orphan buffer: the block arrived (e.g.
  /// via a sync batch) but is not yet connected to the forest.
  [[nodiscard]] bool buffered(const crypto::Digest& hash) const;

  /// The buffered orphan with this hash, if any (pipelined sync descends
  /// through fetched-but-unconnected segments to the first real hole).
  [[nodiscard]] types::BlockPtr buffered_get(const crypto::Digest& hash) const;

  [[nodiscard]] std::size_t size() const { return vertices_.size(); }
  [[nodiscard]] std::size_t orphan_count() const;

 private:
  struct Vertex {
    types::BlockPtr block;
    std::vector<crypto::Digest> children;
    bool committed = false;
    std::uint64_t seq = 0;  // connect order (0: installed, not connected)
  };
  struct ConnectRecord {
    crypto::Digest hash;
    std::uint64_t seq;
  };

  void connect(types::BlockPtr block);
  void flush_orphans_of(const crypto::Digest& parent_hash);
  void offer_certified(const types::BlockPtr& block);

  std::unordered_map<crypto::Digest, Vertex> vertices_;
  std::unordered_map<crypto::Digest, types::QuorumCert> qcs_;
  std::unordered_map<crypto::Digest, std::vector<types::BlockPtr>> orphans_;
  types::QuorumCert high_qc_;
  types::BlockPtr committed_tip_;
  std::vector<crypto::Digest> committed_hashes_;  // indexed by height
  types::BlockPtr longest_certified_;

  // prune()'s working set: every uncommitted vertex, in connect order, by
  // (hash, seq). An entry goes stale when its vertex commits or leaves the
  // forest (a re-added block connects under a new seq); the next prune()
  // drops it.
  std::vector<ConnectRecord> uncommitted_;
  std::uint64_t next_seq_ = 1;
  // prune_below()'s cursor: no committed vertex below this height remains
  // (install_snapshot pulls it back when it commits a vertex below).
  types::Height retained_from_ = 0;
};

}  // namespace bamboo::forest
