#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <variant>
#include <vector>

#include "crypto/signer.h"
#include "types/block.h"
#include "types/certificates.h"
#include "types/ids.h"
#include "types/transaction.h"

namespace bamboo::types {

/// Leader's block proposal for a view. After a timeout-driven view change
/// the proposal carries the TC that justifies entering the view.
struct ProposalMsg {
  BlockPtr block;
  std::optional<TimeoutCert> tc;
  crypto::Signature sig;
};

/// A replica's vote for (view, block). Routed to the next leader in the
/// HotStuff family; broadcast in Streamlet; routed to the block's own
/// proposer in multi-leader protocols (each slot leader aggregates the
/// QCs for its own proposals).
struct VoteMsg {
  View view = 0;
  Height height = 0;
  /// Slot of the voted block; 0 (single-leader default) is wire-elided.
  Slot slot = 0;
  crypto::Digest block_hash{};
  crypto::Signature sig;

  [[nodiscard]] NodeId voter() const { return sig.signer; }
};

/// ⟨TIMEOUT, view⟩, broadcast when a replica's view timer fires. Carries
/// the sender's highest QC so a new leader can adopt the freshest state.
struct TimeoutMsg {
  View view = 0;
  QuorumCert high_qc;
  crypto::Signature sig;

  [[nodiscard]] NodeId sender() const { return sig.signer; }
};

/// A formed timeout certificate, forwarded to the leader of view+1 (and
/// broadcast so lagging replicas catch up).
struct TcMsg {
  TimeoutCert tc;
};

/// Client -> replica transaction submission.
struct ClientRequestMsg {
  Transaction tx;
};

/// Replica -> client commit confirmation (or mempool rejection).
struct ClientResponseMsg {
  TxId tx_id = 0;
  std::uint32_t session = 0;
  sim::Time submitted_at = 0;
  bool rejected = false;
  /// Retry-after hint on rejections under the "backoff:<ms>" admission
  /// policy (0 = no hint; closed-loop clients then retry after 1 ms).
  /// Rides in the modeled payload — wire_size unchanged.
  double backoff_ms = 0;
};

/// Batched chain-sync fetch (sync::Syncer): ask a peer for the block
/// `want_hash` plus up to `batch - 1` of its ancestors above the
/// requester's committed height — the chain locator. With batch == 1 this
/// degenerates to the legacy one-block-per-round request (same wire size).
struct ChainRequestMsg {
  crypto::Digest want_hash{};
  Height committed_height = 0;  ///< requester's committed tip (exclusive)
  std::uint32_t batch = 1;      ///< max blocks the responder may return
  /// Pipelined sync: ancestors of `want_hash` the responder walks past
  /// before serving `batch` blocks — so several segments of one long gap
  /// can be in flight at once. 0 (the legacy serial walk) is wire-elided.
  std::uint32_t skip = 0;
};

/// Answer to ChainRequestMsg: up to `batch` blocks, PARENT-FIRST, ending
/// at the requested hash (`blocks.back()->hash()` identifies the request).
/// Each block's justify QC certifies its parent, so applying a fetched
/// chain in order fast-paths QC application without extra round trips.
struct ChainResponseMsg {
  std::vector<BlockPtr> blocks;
  /// Pipelined sync: echo of the request's (want_hash, skip) so the
  /// requester can match a mid-gap segment (whose top block is NOT the
  /// wanted hash). Both zero — and wire-elided — on the legacy path.
  crypto::Digest want_hash{};
  std::uint32_t skip = 0;
};

/// A freshly formed QC, broadcast by the slot leader that aggregated it
/// (multi-leader protocols only — single-leader protocols disseminate QCs
/// embedded in the next proposal, so legacy traffic never carries this).
struct QcMsg {
  QuorumCert qc;
};

/// Snapshot/checkpoint state transfer (storage subsystem): a replica too
/// far behind `want_hash` asks a peer for its committed checkpoint instead
/// of chain-syncing the whole gap block-by-block.
struct SnapshotRequestMsg {
  crypto::Digest want_hash{};   ///< the block that exposed the gap
  Height committed_height = 0;  ///< requester's committed tip
};

/// One chunk of a snapshot: a slice of the server's committed-hash chain
/// [0, anchor.height], bound to a state root (the hash over the whole
/// chain). The FINAL chunk carries the anchor block and its certifying QC
/// — the part the receiver validates through quorum::CertVerifier before
/// installing anything. Chunks are self-describing (seq/total/root), so a
/// tampered or reordered stream is detected without peer state.
struct SnapshotChunkMsg {
  std::uint32_t seq = 0;    ///< chunk index, 0-based
  std::uint32_t total = 0;  ///< chunk count for this snapshot
  crypto::Digest root{};    ///< state root over the full hash chain
  Height base_height = 0;   ///< height of hashes.front()
  std::vector<crypto::Digest> hashes;  ///< committed-hash slice
  BlockPtr anchor;          ///< final chunk only: the checkpoint block
  QuorumCert anchor_qc;     ///< final chunk only: QC certifying `anchor`
};

using Message =
    std::variant<ProposalMsg, VoteMsg, TimeoutMsg, TcMsg, ClientRequestMsg,
                 ClientResponseMsg, ChainRequestMsg, ChainResponseMsg, QcMsg,
                 SnapshotRequestMsg, SnapshotChunkMsg>;

/// Messages are immutable and shared between broadcast recipients.
using MessagePtr = std::shared_ptr<const Message>;

/// Wire size of a message in bytes (drives the NIC/bandwidth model).
[[nodiscard]] std::uint64_t wire_size(const Message& msg);

/// Human-readable message kind for logs and statistics.
[[nodiscard]] const char* kind_name(const Message& msg);

template <typename T>
MessagePtr make_message(T msg) {
  return std::make_shared<const Message>(std::move(msg));
}

}  // namespace bamboo::types
