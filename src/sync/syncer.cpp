#include "sync/syncer.h"

#include <algorithm>

#include "crypto/sha256.h"

namespace bamboo::sync {

Syncer::Syncer(sim::Simulator& simulator, const forest::BlockForest& forest,
               Settings settings, types::NodeId id, std::uint32_t n_replicas,
               Hooks hooks)
    : sim_(simulator),
      forest_(forest),
      settings_(settings),
      id_(id),
      n_replicas_(n_replicas),
      hooks_(std::move(hooks)) {
  if (settings_.batch == 0) settings_.batch = 1;
  if (settings_.pipeline == 0) settings_.pipeline = 1;
  if (settings_.snapshot_chunk < 32) settings_.snapshot_chunk = 32;
}

void Syncer::stop() {
  stopped_ = true;
  for (auto& [key, pending] : pending_) {
    if (pending.timer != sim::kInvalidEventId) sim_.cancel(pending.timer);
  }
  pending_.clear();
  if (snap_.timer != sim::kInvalidEventId) sim_.cancel(snap_.timer);
  snap_ = SnapshotSession{};
}

types::NodeId Syncer::rotate_peer(types::NodeId prev) const {
  types::NodeId next = (prev + 1) % n_replicas_;
  if (next == id_) next = (next + 1) % n_replicas_;
  return next;
}

crypto::Digest Syncer::snapshot_root(
    const std::vector<crypto::Digest>& hashes) {
  crypto::Sha256 h;
  for (const crypto::Digest& d : hashes) {
    h.update(std::span<const std::uint8_t>(d.data(), d.size()));
  }
  return h.finish();
}

void Syncer::send_request(const Key& key, Pending& pending) {
  types::ChainRequestMsg req;
  req.want_hash = key.first;
  req.committed_height = forest_.committed_height();
  req.batch = settings_.batch;
  req.skip = key.second;
  ++stats_.requests_sent;
  pending.timer = sim_.schedule_after(settings_.timeout,
                                      [this, key] { on_timer(key); });
  hooks_.send(pending.peer, types::make_message(std::move(req)));
}

void Syncer::request(const crypto::Digest& want, types::NodeId from) {
  if (stopped_ || from == id_ || from >= n_replicas_) return;
  if (forest_.contains(want)) return;
  // Pipelined mode already fetched buffered blocks as gap segments, so
  // re-fetching bytes sitting in the orphan buffer is pointless; but the
  // fetch of the first missing ancestor below them may have expired, so
  // continue the gap walk from the buffered block instead. (Gated so the
  // legacy serial schedule stays byte-identical.)
  if (settings_.pipeline > 1) {
    if (const types::BlockPtr held = forest_.buffered_get(want)) {
      continue_gap(held, from);
      return;
    }
  }
  const Key key{want, 0};
  if (pending_.count(key) > 0) return;  // dedupe in-flight fetches
  Pending pending;
  pending.peer = from;
  send_request(key, pending);
  pending_.emplace(key, pending);
}

void Syncer::on_timer(const Key& key) {
  const auto it = pending_.find(key);
  if (it == pending_.end()) return;
  ++stats_.timeouts;
  it->second.timer = sim::kInvalidEventId;
  if (forest_.contains(key.first) ||
      (key.second == 0 && forest_.buffered(key.first))) {
    // Connected via another path, or the block itself already arrived and
    // waits in the orphan buffer for its ancestors (which have their own
    // fetches): re-fetching bytes we hold is pointless. (A mid-gap
    // segment — skip > 0 — is only provably satisfied once the want hash
    // connects, which pulls its whole ancestor chain in.)
    pending_.erase(it);
    return;
  }
  if (it->second.attempt >= settings_.retries) {
    // Expire the entry: a later trigger starts a fresh fetch instead of
    // being deduped against a fetch that will never complete.
    ++stats_.exhausted;
    pending_.erase(it);
    return;
  }
  ++it->second.attempt;
  ++stats_.retries;
  it->second.peer = rotate_peer(it->second.peer);
  send_request(key, it->second);
}

void Syncer::on_request(const types::ChainRequestMsg& req,
                        types::NodeId from) {
  if (stopped_ || from == id_ || from >= n_replicas_) return;
  const types::BlockPtr tip = forest_.get(req.want_hash);
  if (!tip) return;

  // Pipelined segments: walk `skip` ancestors below the wanted block
  // before serving (each in-flight segment of a long gap lands `batch`
  // blocks deeper down the parent chain).
  types::BlockPtr top = tip;
  for (std::uint32_t i = 0; i < req.skip && top; ++i) {
    top = forest_.get(top->parent_hash());
  }
  if (!top || top->height() <= req.committed_height) return;

  // Walk parents from the segment top down to the requester's committed
  // height, newest first, then reverse to parent-first order.
  const std::uint32_t batch =
      std::min(std::max<std::uint32_t>(req.batch, 1), kMaxServeBatch);
  types::ChainResponseMsg resp;
  resp.blocks.push_back(top);
  types::BlockPtr cursor = top;
  while (resp.blocks.size() < batch) {
    const types::BlockPtr parent = forest_.get(cursor->parent_hash());
    if (!parent || parent->height() <= req.committed_height) break;
    resp.blocks.push_back(parent);
    cursor = parent;
  }
  std::reverse(resp.blocks.begin(), resp.blocks.end());
  if (req.skip > 0) {
    // Echo the segment coordinates so the requester can match a response
    // whose top block is not the wanted hash itself.
    resp.want_hash = req.want_hash;
    resp.skip = req.skip;
  }

  ++stats_.requests_served;
  stats_.blocks_served += resp.blocks.size();
  hooks_.send(from, types::make_message(std::move(resp)));
}

void Syncer::on_response(const types::ChainResponseMsg& resp,
                         types::NodeId from) {
  if (stopped_) return;
  if (resp.blocks.empty() || !resp.blocks.back() ||
      resp.blocks.size() > settings_.batch) {
    // Empty, or more blocks than the locator asked for — an honest peer
    // never exceeds the requested batch cap.
    ++stats_.responses_rejected;
    return;
  }
  const Key key = resp.skip > 0 ? Key{resp.want_hash, resp.skip}
                                : Key{resp.blocks.back()->hash(), 0};
  const auto it = pending_.find(key);
  if (it == pending_.end()) {
    // Stale (already satisfied or expired) or never requested at all: a
    // Byzantine peer cannot push blocks we did not ask for.
    ++stats_.responses_rejected;
    return;
  }
  // The batch must be one contiguous parent chain ending at the wanted
  // hash; anything else is rejected wholesale before touching the forest.
  for (std::size_t i = 0; i < resp.blocks.size(); ++i) {
    if (!resp.blocks[i] ||
        (i > 0 &&
         resp.blocks[i]->parent_hash() != resp.blocks[i - 1]->hash())) {
      ++stats_.responses_rejected;
      stats_.blocks_rejected += resp.blocks.size();
      return;
    }
  }

  if (it->second.timer != sim::kInvalidEventId) {
    sim_.cancel(it->second.timer);
    it->second.timer = sim::kInvalidEventId;
  }
  ++stats_.responses_applied;
  stats_.bytes_received += types::wire_size(types::Message(resp));

  for (const types::BlockPtr& block : resp.blocks) {
    const forest::AddResult result = hooks_.apply_block(block, from);
    if (result == forest::AddResult::kInvalid) {
      ++stats_.blocks_rejected;
      pending_.erase(key);
      return;  // no forest pollution: drop the rest of the batch
    }
    // A fetched block counts as applied whether it connected immediately
    // or was buffered for the deeper range still in flight (kOrphaned);
    // only duplicate deliveries don't count.
    if (result == forest::AddResult::kAdded ||
        result == forest::AddResult::kOrphaned) {
      ++stats_.blocks_applied;
    }
  }
  // A mid-gap segment is complete once its one response was applied; the
  // serial entry below owns the continuation.
  if (key.second > 0) pending_.erase(key);

  // Drop every fetch this batch satisfied — including entries for other
  // hashes the orphan flush just connected transitively.
  std::erase_if(pending_, [this](auto& entry) {
    if (!forest_.contains(entry.first.first)) return false;
    if (entry.second.timer != sim::kInvalidEventId) {
      sim_.cancel(entry.second.timer);
    }
    return true;
  });
  if (key.second > 0) return;
  const crypto::Digest& want = key.first;
  if (forest_.contains(want)) return;
  // The whole batch hangs below a still-missing ancestor. Keep the entry
  // (it dedupes further triggers for `want` while the gap persists — the
  // legacy semantics), re-arm its timer so a stalled continuation still
  // expires, and continue the fetch: serially from the same peer, one
  // chain locator per round — or, with the accelerators on, a pipelined
  // fan-out / snapshot transfer sized to the now-known gap.
  const auto kept = pending_.find(key);
  if (kept != pending_.end()) {
    kept->second.timer = sim_.schedule_after(
        settings_.timeout, [this, key] { on_timer(key); });
  }
  continue_gap(resp.blocks.front(), from);
}

void Syncer::continue_gap(const types::BlockPtr& bottom, types::NodeId from) {
  crypto::Digest next = bottom->parent_hash();
  types::Height above = bottom->height();
  if (settings_.pipeline > 1) {
    // Segments fetched in earlier rounds sit in the orphan buffer: descend
    // through the contiguous buffered prefix so the serial continuation
    // targets the first ancestor actually missing — otherwise the walk
    // would stall on a hash we already hold and the gap would only close
    // when fresh protocol traffic re-triggered it.
    while (const types::BlockPtr held = forest_.buffered_get(next)) {
      next = held->parent_hash();
      above = held->height();
    }
  }
  const types::Height committed = forest_.committed_height();
  const std::uint64_t gap =
      above > committed + 1 ? above - 1 - committed : 0;

  if (settings_.snapshot_gap > 0 && !snap_.active &&
      gap >= settings_.snapshot_gap) {
    start_snapshot(next, from);
    return;
  }

  request(next, from);

  if (settings_.pipeline > 1 && gap > settings_.batch) {
    // Fan out parallel segment fetches across the rest of the gap,
    // rotating peers so one slow server cannot serialize the pipeline.
    // Bounded by the retry budget's spirit: at most `pipeline` segments
    // in flight for this gap.
    const std::uint64_t segments =
        (gap + settings_.batch - 1) / settings_.batch;
    const std::uint32_t fan = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(segments, settings_.pipeline));
    types::NodeId peer = from;
    for (std::uint32_t i = 1; i < fan; ++i) {
      const Key key{next, i * settings_.batch};
      if (pending_.count(key) > 0) continue;
      Pending pending;
      pending.peer = peer;
      send_request(key, pending);
      pending_.emplace(key, pending);
      peer = rotate_peer(peer);
    }
  }
}

// --- snapshot state transfer ------------------------------------------------

void Syncer::start_snapshot(const crypto::Digest& want, types::NodeId peer) {
  snap_ = SnapshotSession{};
  snap_.active = true;
  snap_.peer = peer;
  snap_.want = want;
  send_snapshot_request();
}

void Syncer::send_snapshot_request() {
  snap_.root = crypto::Digest{};
  snap_.total = 0;
  snap_.chunks.clear();
  snap_.anchor = nullptr;
  snap_.anchor_qc = types::QuorumCert{};
  types::SnapshotRequestMsg req;
  req.want_hash = snap_.want;
  req.committed_height = forest_.committed_height();
  ++stats_.snapshots_requested;
  snap_.timer = sim_.schedule_after(settings_.timeout,
                                    [this] { on_snapshot_timer(); });
  hooks_.send(snap_.peer, types::make_message(req));
}

void Syncer::snapshot_retry() {
  if (snap_.timer != sim::kInvalidEventId) {
    sim_.cancel(snap_.timer);
    snap_.timer = sim::kInvalidEventId;
  }
  if (snap_.attempt >= settings_.retries) {
    // Exhausted: fall back to plain chain-sync for the gap so recovery
    // degrades to the slow path instead of wedging.
    const crypto::Digest want = snap_.want;
    const types::NodeId peer = rotate_peer(snap_.peer);
    snap_ = SnapshotSession{};
    request(want, peer);
    return;
  }
  ++snap_.attempt;
  ++stats_.retries;
  snap_.peer = rotate_peer(snap_.peer);
  send_snapshot_request();
}

void Syncer::snapshot_failed() {
  ++stats_.snapshots_rejected;
  snapshot_retry();
}

void Syncer::on_snapshot_timer() {
  if (!snap_.active) return;
  snap_.timer = sim::kInvalidEventId;
  ++stats_.timeouts;
  snapshot_retry();
}

void Syncer::on_snapshot_request(const types::SnapshotRequestMsg& req,
                                 types::NodeId from) {
  if (stopped_ || from == id_ || from >= n_replicas_) return;
  const types::BlockPtr anchor = forest_.committed_tip();
  if (!anchor || anchor->height() <= req.committed_height) return;
  const types::QuorumCert* qc = forest_.qc_for(anchor->hash());
  if (qc == nullptr) return;  // tip not certified here; requester retries

  const std::vector<crypto::Digest>& chain = forest_.committed_hashes();
  const std::size_t count = std::min<std::size_t>(
      chain.size(), static_cast<std::size_t>(anchor->height()) + 1);
  const std::vector<crypto::Digest> hashes(chain.begin(),
                                           chain.begin() + count);
  if (hashes.empty() || hashes.back() != anchor->hash()) return;

  const crypto::Digest root = snapshot_root(hashes);
  const std::uint32_t per_chunk =
      std::max<std::uint32_t>(settings_.snapshot_chunk / 32, 1);
  const std::uint32_t total = static_cast<std::uint32_t>(
      (hashes.size() + per_chunk - 1) / per_chunk);

  ++stats_.snapshots_served;
  for (std::uint32_t seq = 0; seq < total; ++seq) {
    types::SnapshotChunkMsg chunk;
    chunk.seq = seq;
    chunk.total = total;
    chunk.root = root;
    chunk.base_height = static_cast<types::Height>(seq) * per_chunk;
    const std::size_t begin = static_cast<std::size_t>(seq) * per_chunk;
    const std::size_t end =
        std::min<std::size_t>(begin + per_chunk, hashes.size());
    chunk.hashes.assign(hashes.begin() + begin, hashes.begin() + end);
    if (seq + 1 == total) {
      chunk.anchor = anchor;
      chunk.anchor_qc = *qc;
    }
    hooks_.send(from, types::make_message(std::move(chunk)));
  }
}

void Syncer::on_snapshot_chunk(const types::SnapshotChunkMsg& chunk,
                               types::NodeId from) {
  if (stopped_) return;
  if (!snap_.active || from != snap_.peer) {
    // Unsolicited chunk — a peer cannot push us a snapshot we did not
    // request (or one from a session already rotated away from).
    ++stats_.responses_rejected;
    return;
  }
  // Self-description checks: a chunk that disagrees with the session's
  // announced (root, total) — or is malformed — fails the whole transfer
  // and rotates to the next peer.
  if (chunk.total == 0 || chunk.seq >= chunk.total || chunk.hashes.empty()) {
    snapshot_failed();
    return;
  }
  if (snap_.total == 0) {
    snap_.total = chunk.total;
    snap_.root = chunk.root;
  } else if (chunk.total != snap_.total || chunk.root != snap_.root) {
    snapshot_failed();
    return;
  }
  if (snap_.chunks.contains(chunk.seq)) return;  // duplicate delivery
  snap_.chunks.emplace(chunk.seq, chunk.hashes);
  if (chunk.anchor) {
    snap_.anchor = chunk.anchor;
    snap_.anchor_qc = chunk.anchor_qc;
  }
  ++stats_.snapshot_chunks_received;
  stats_.snapshot_bytes_received +=
      types::wire_size(types::Message(chunk));
  // Progress re-arms the transfer timer (a large snapshot is many NIC-
  // serialized chunks; per-chunk progress is the liveness signal).
  if (snap_.timer != sim::kInvalidEventId) sim_.cancel(snap_.timer);
  snap_.timer = sim_.schedule_after(settings_.timeout,
                                    [this] { on_snapshot_timer(); });
  if (static_cast<std::uint32_t>(snap_.chunks.size()) < snap_.total) return;

  // All chunks arrived: assemble in sequence order and validate the whole
  // snapshot before anything touches the forest.
  std::vector<crypto::Digest> hashes;
  for (const auto& [seq, slice] : snap_.chunks) {
    hashes.insert(hashes.end(), slice.begin(), slice.end());
  }
  const bool shape_ok =
      snap_.anchor && snap_.anchor_qc.block_hash == snap_.anchor->hash() &&
      hashes.size() == snap_.anchor->height() + 1 &&
      hashes.back() == snap_.anchor->hash() &&
      snapshot_root(hashes) == snap_.root;
  const bool anchor_ok =
      shape_ok && (!hooks_.verify_qc || hooks_.verify_qc(snap_.anchor_qc));
  const bool installed =
      anchor_ok && hooks_.install_snapshot &&
      hooks_.install_snapshot(snap_.anchor, snap_.anchor_qc, hashes);
  if (!installed) {
    snapshot_failed();
    return;
  }
  ++stats_.snapshots_installed;
  if (snap_.timer != sim::kInvalidEventId) sim_.cancel(snap_.timer);
  const crypto::Digest want = snap_.want;
  snap_ = SnapshotSession{};
  // The committed height just jumped past every in-flight fetch; clear
  // them and resume plain chain-sync for the hash that exposed the gap.
  for (auto& [key, pending] : pending_) {
    if (pending.timer != sim::kInvalidEventId) sim_.cancel(pending.timer);
  }
  pending_.clear();
  request(want, from);
}

}  // namespace bamboo::sync
