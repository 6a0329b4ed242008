#pragma once

// The recovery & state-sync subsystem: a per-replica chain-sync state
// machine that fetches ranges of missing certified blocks from peers.
//
// It replaces the replica's original ad-hoc request path (one
// BlockRequestMsg per missing parent, sent to a single peer, with no
// timeout — one lost response wedged recovery forever). The Syncer owns
// the whole fetch lifecycle:
//
//   request(want, from)   a hash referenced by `from` is missing locally.
//     │                   Deduped against in-flight fetches; `from`
//     ▼                   becomes the first peer asked.
//   ChainRequestMsg       chain locator: want hash + local committed
//     │                   height + batch cap (Config::sync_batch).
//     ▼
//   ChainResponseMsg      up to `batch` certified blocks, parent-first,
//     │                   ending at the requested hash. The responder
//     ▼                   walks parents from the wanted block down to the
//   apply, parent-first   requester's committed height.
//
// Outstanding requests carry a simulator timer (Config::sync_timeout):
// on expiry the fetch is retried against the NEXT peer (rotating past
// this replica and the peer that just failed), up to Config::sync_retries
// retries, after which the entry expires — a later trigger simply starts
// a fresh fetch, so message loss can delay recovery but never wedge it.
//
// Responses are validated before anything touches the forest: a response
// whose tip was never requested (or was already satisfied) is rejected
// wholesale, and the blocks must form one contiguous parent chain — a
// Byzantine peer cannot pollute the forest with unrequested or unchained
// blocks. Each accepted block is handed to the replica's ingestion hook
// (forest insert + justify-QC processing), so a fetched certified chain
// fast-paths QC application the moment it connects.
//
// Two catch-up accelerators sit on top of the serial locator walk, both
// off by default:
//
//   Pipelined sync (Config::sync_pipeline > 1). The first locator round
//   reveals the gap length (fetched bottom height minus committed
//   height). Instead of walking it one batch per round trip, the syncer
//   fans out up to `pipeline` parallel segment fetches — the same want
//   hash with ascending `skip` counts, each served `batch` blocks deeper
//   down the parent chain — so one round trip fills several segments of
//   the gap at once. Segments land in the orphan buffer and connect
//   when the bottom of the gap arrives.
//
//   Snapshot transfer (Config::snapshot_gap > 0). When the revealed gap
//   is at least `snapshot_gap` blocks, fetching every block is slower
//   than adopting a checkpoint: the syncer sends SnapshotRequestMsg and
//   the peer streams its committed-hash chain in SnapshotChunkMsg pieces
//   (snapshot_chunk payload bytes each), the final chunk carrying the
//   anchor block — its committed tip — and the QC certifying it. The
//   receiver recomputes the state root over the reassembled chain,
//   validates the anchor certificate through the replica's
//   quorum::CertVerifier hook, and only then installs the snapshot and
//   resumes chain-sync from the anchor. A tampered chunk, root, or
//   anchor rejects the whole snapshot and rotates to the next peer,
//   bounded by the same retry budget as chain fetches.
//
// With sync_batch == 1 (and both accelerators off) the protocol
// degenerates to the legacy semantics (one block per round, requested
// from the peer that revealed the hash, identical wire sizes), which
// keeps default no-loss runs byte-identical to the pre-Syncer engine.

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "forest/block_forest.h"
#include "sim/simulator.h"
#include "types/messages.h"

namespace bamboo::sync {

/// Server-side ceiling on one response, whatever batch a (possibly
/// Byzantine) requester asks for; the serve CPU cost is capped to match.
inline constexpr std::uint32_t kMaxServeBatch = 1024;

/// Counters exported per replica (summed into RunResult::sync_*).
struct SyncStats {
  std::uint64_t requests_sent = 0;  ///< ChainRequestMsg sent (incl. retries)
  std::uint64_t timeouts = 0;       ///< request timers that fired
  std::uint64_t retries = 0;        ///< timeout-driven re-requests
  std::uint64_t exhausted = 0;      ///< fetches dropped after max retries
  std::uint64_t responses_applied = 0;
  std::uint64_t responses_rejected = 0;  ///< stale / duplicate / unrequested
  std::uint64_t blocks_applied = 0;      ///< blocks accepted into the forest
  std::uint64_t blocks_rejected = 0;     ///< invalid / unchained blocks
  std::uint64_t bytes_received = 0;      ///< wire bytes of accepted responses
  std::uint64_t requests_served = 0;     ///< server side: requests answered
  std::uint64_t blocks_served = 0;       ///< server side: blocks shipped
  // --- snapshot state transfer --------------------------------------------
  std::uint64_t snapshots_requested = 0;  ///< SnapshotRequestMsg sent
  std::uint64_t snapshots_served = 0;     ///< server side: snapshots built
  std::uint64_t snapshot_chunks_received = 0;  ///< chunks accepted
  std::uint64_t snapshot_bytes_received = 0;   ///< wire bytes of those chunks
  std::uint64_t snapshots_installed = 0;  ///< snapshots adopted into forest
  std::uint64_t snapshots_rejected = 0;   ///< tampered / stale / mismatched
};

class Syncer {
 public:
  struct Settings {
    std::uint32_t batch = 1;  ///< blocks per response (Config::sync_batch)
    sim::Duration timeout = sim::milliseconds(500);
    std::uint32_t retries = 3;  ///< peer-rotating retries after first send
    /// Max parallel in-flight segment fetches per gap (Config::
    /// sync_pipeline); 1 = the legacy serial locator walk.
    std::uint32_t pipeline = 1;
    /// Gap length at which catch-up switches to snapshot transfer
    /// (Config::snapshot_gap); 0 = snapshots disabled.
    std::uint32_t snapshot_gap = 0;
    /// Committed-hash payload bytes per chunk (Config::snapshot_chunk).
    std::uint32_t snapshot_chunk = 4096;
  };

  struct Hooks {
    /// Transport: send one message to a peer.
    std::function<void(types::NodeId, types::MessagePtr)> send;
    /// Ingest one fetched block through the replica's pipeline (forest
    /// insert, justify-QC processing, pending-proposal retry). Returns
    /// the forest's verdict; kInvalid aborts the rest of the response.
    std::function<forest::AddResult(const types::BlockPtr&, types::NodeId)>
        apply_block;
    /// Verify a snapshot anchor certificate through the replica's
    /// quorum::CertVerifier (counted in certs_verified/rejected there).
    /// Unset = accept (unit rigs without a verifier).
    std::function<bool(const types::QuorumCert&)> verify_qc;
    /// Install a validated snapshot (forest::BlockForest::install_snapshot
    /// plus whatever replica-side bookkeeping rides on adoption).
    std::function<bool(const types::BlockPtr&, const types::QuorumCert&,
                       const std::vector<crypto::Digest>&)>
        install_snapshot;
  };

  Syncer(sim::Simulator& simulator, const forest::BlockForest& forest,
         Settings settings, types::NodeId id, std::uint32_t n_replicas,
         Hooks hooks);
  ~Syncer() { stop(); }
  Syncer(const Syncer&) = delete;
  Syncer& operator=(const Syncer&) = delete;

  /// Ensure a fetch for `want` is in flight. `from` (the peer whose
  /// message referenced the hash) is asked first; self/client/unknown
  /// sources and already-present or already-in-flight hashes are no-ops.
  /// With pipelining on, a hash already in the orphan buffer continues
  /// the gap walk below it (continue_gap) instead.
  void request(const crypto::Digest& want, types::NodeId from);

  /// Serve a peer's chain request from the local forest (no-op when the
  /// wanted block is unknown; the requester's timer handles it).
  void on_request(const types::ChainRequestMsg& req, types::NodeId from);

  /// Validate and apply a chain response (see file comment).
  void on_response(const types::ChainResponseMsg& resp, types::NodeId from);

  /// Serve a snapshot of the local committed state (see file comment).
  void on_snapshot_request(const types::SnapshotRequestMsg& req,
                           types::NodeId from);

  /// Accept one snapshot chunk; the final chunk triggers root + anchor
  /// validation and, on success, snapshot install + chain-sync resume.
  void on_snapshot_chunk(const types::SnapshotChunkMsg& chunk,
                         types::NodeId from);

  /// Cancel every outstanding timer (crash / teardown).
  void stop();

  [[nodiscard]] const SyncStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t in_flight() const { return pending_.size(); }
  [[nodiscard]] bool snapshot_in_flight() const { return snap_.active; }

  /// State root binding a committed-hash chain (SHA-256 over the
  /// concatenated hashes) — what SnapshotChunkMsg::root carries.
  [[nodiscard]] static crypto::Digest snapshot_root(
      const std::vector<crypto::Digest>& hashes);

 private:
  /// Fetches are keyed by (want hash, skip): the serial walk always uses
  /// skip 0; pipelined segment fetches share the want hash with ascending
  /// skips. std::map (not unordered) so iteration order — and thus retry
  /// scheduling — is deterministic across platforms.
  using Key = std::pair<crypto::Digest, std::uint32_t>;

  struct Pending {
    types::NodeId peer = 0;     ///< peer the live request went to
    std::uint32_t attempt = 0;  ///< 0 = first send, 1.. = retries
    sim::EventId timer = sim::kInvalidEventId;
  };

  /// One snapshot transfer in flight (at most one at a time). Chunks are
  /// collected by sequence number (links may reorder under jitter) and
  /// assembled once all `total` arrived.
  struct SnapshotSession {
    bool active = false;
    types::NodeId peer = 0;
    std::uint32_t attempt = 0;
    crypto::Digest want{};  ///< the hash whose gap triggered the transfer
    crypto::Digest root{};  ///< root announced by the first chunk
    std::uint32_t total = 0;
    std::map<std::uint32_t, std::vector<crypto::Digest>> chunks;
    types::BlockPtr anchor;
    types::QuorumCert anchor_qc;
    sim::EventId timer = sim::kInvalidEventId;
  };

  void send_request(const Key& key, Pending& pending);
  void on_timer(const Key& key);
  /// Continuation after a fetched batch that still hangs below a missing
  /// ancestor: serial walk, pipelined fan-out, or snapshot request.
  void continue_gap(const types::BlockPtr& bottom, types::NodeId from);
  void start_snapshot(const crypto::Digest& want, types::NodeId peer);
  void send_snapshot_request();
  /// Rotate to the next peer and re-request, bounded by the retry budget;
  /// on exhaustion fall back to plain chain-sync for the gap.
  void snapshot_retry();
  void snapshot_failed();
  void on_snapshot_timer();
  /// Next replica id after `prev`, skipping this replica — the rotation
  /// that routes a retry around a suspected-dead peer.
  [[nodiscard]] types::NodeId rotate_peer(types::NodeId prev) const;

  sim::Simulator& sim_;
  const forest::BlockForest& forest_;
  Settings settings_;
  types::NodeId id_;
  std::uint32_t n_replicas_;
  Hooks hooks_;
  bool stopped_ = false;
  std::map<Key, Pending> pending_;
  SnapshotSession snap_;
  SyncStats stats_;
};

}  // namespace bamboo::sync
