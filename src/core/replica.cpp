#include "core/replica.h"

#include <algorithm>

namespace bamboo::core {

using types::BlockPtr;
using types::MessagePtr;
using types::NodeId;
using types::View;

Replica::Replica(sim::Simulator& simulator, net::SimNetwork& network,
                 const crypto::KeyStore& keys, const Config& config,
                 NodeId id, std::unique_ptr<SafetyProtocol> safety,
                 const election::LeaderElection& election,
                 const ReplicaObservers& observers)
    : sim_(simulator),
      net_(network),
      keys_(keys),
      cfg_(config),
      id_(id),
      safety_(std::move(safety)),
      election_(election),
      observers_(observers),
      strategy_(config.is_byzantine(id) ? parse_strategy(config.strategy)
                                        : ByzStrategy::kHonest),
      mempool_(config.memsize, mempool::parse_admission(config.admission)),
      votes_(config.n_replicas),
      timeouts_(config.n_replicas),
      cert_verifier_(keys, config.n_replicas),
      pacemaker_(
          simulator,
          pacemaker::Pacemaker::Settings{.base_timeout = config.timeout,
                                         .backoff = config.timeout_backoff,
                                         .slots = election.width()},
          pacemaker::Pacemaker::Callbacks{
              [this](View v) { broadcast_timeout(v); },
              [this](View v, pacemaker::AdvanceReason r) {
                enter_view(v, r);
              },
              [this](View v, types::Slot s) { on_slot_stuck(v, s); }}),
      syncer_(simulator, forest_,
              sync::Syncer::Settings{config.sync_batch, config.sync_timeout,
                                     config.sync_retries, config.sync_pipeline,
                                     config.snapshot_gap,
                                     config.snapshot_chunk},
              id, config.n_replicas,
              sync::Syncer::Hooks{
                  [this](types::NodeId to, types::MessagePtr msg) {
                    net_.send(id_, to, std::move(msg));
                  },
                  [this](const types::BlockPtr& block, types::NodeId from) {
                    return ingest_synced_block(block, from);
                  },
                  [this](const types::QuorumCert& qc) { return verify_qc(qc); },
                  [this](const types::BlockPtr& anchor,
                         const types::QuorumCert& qc,
                         const std::vector<crypto::Digest>& hashes) {
                    if (!forest_.install_snapshot(anchor, qc, hashes)) {
                      return false;
                    }
                    for (ReplicaObserver* o : observers_) {
                      o->on_snapshot_installed(*this, anchor);
                    }
                    // Adopt the anchor certificate into protocol state: it is
                    // the freshest QC this replica knows, so processing it
                    // catches the pacemaker (and safety rules) up to the
                    // serving peer's view in one step.
                    if (store_) store_->append(anchor);
                    process_qc(qc, id_);
                    retry_pending_proposals();
                    return true;
                  }}) {
  verify_strategy_ = parse_verify_strategy(config.verify_strategy);
}

Replica::~Replica() {
  // Ids of completions that already fired are stale: cancel() ignores them.
  for (const InService& work : cpu_in_service_) sim_.cancel(work.done);
  for (const auto& [view, wait] : propose_waits_) sim_.cancel(wait);
}

void Replica::start() {
  net_.set_handler(id_, [this](const net::Envelope& env) {
    handle_envelope(env);
  });
  if (strategy_ == ByzStrategy::kCrash) {
    crash();
    return;
  }
  pacemaker_.start(1);
}

void Replica::crash() {
  if (crashed_) return;
  crashed_ = true;
  pacemaker_.stop();
  syncer_.stop();
  // Queued work is released now, work in service when its completion
  // fires (cpu_complete).
  cpu_queue_.clear();
  net_.set_down(id_, true);
  for (ReplicaObserver* o : observers_) o->on_crash(*this);
}

ProtocolContext Replica::context() {
  return ProtocolContext{id_, pacemaker_.current_view(), forest_, cfg_};
}

// --------------------------------------------------------------------------
// CPU queue
// --------------------------------------------------------------------------

template <typename F>
void Replica::enqueue_cpu(sim::Duration cost, F&& fn) {
  if (crashed_) return;
  cpu_queue_.emplace_back(cost, std::forward<F>(fn));
  cpu_dispatch();
}

void Replica::cpu_dispatch() {
  // Hand the head of the FIFO to every idle worker. With cpu_workers == 1
  // this is the legacy single-server queue, event-for-event: the service
  // charge lands at the same instant and completions dispatch the next item
  // only after the finished item's continuation ran (so work enqueued by
  // that continuation observes the worker still busy, as before).
  while (!crashed_ && !cpu_queue_.empty() &&
         cpu_busy_workers_ < cfg_.cpu_workers) {
    ++cpu_busy_workers_;
    std::uint32_t slot;
    if (cpu_in_service_free_.empty()) {
      slot = static_cast<std::uint32_t>(cpu_in_service_.size());
      cpu_in_service_.emplace_back();
    } else {
      slot = cpu_in_service_free_.back();
      cpu_in_service_free_.pop_back();
    }
    CpuWork& work = cpu_queue_.front();
    InService& served = cpu_in_service_[slot];
    served.fn = std::move(work.fn);
    const sim::Duration cost = work.cost;
    cpu_queue_.pop_front();
    stats_.cpu_busy += cost;
    served.done =
        sim_.schedule_after(cost, [this, slot] { cpu_complete(slot); });
  }
}

void Replica::cpu_complete(std::uint32_t slot) {
  // Move the work out first: it may dispatch to another worker, which can
  // grow cpu_in_service_ under it.
  sim::EventQueue::Callback fn = std::move(cpu_in_service_[slot].fn);
  cpu_in_service_free_.push_back(slot);
  if (crashed_) return;  // crash() already drained the queue
  fn();
  --cpu_busy_workers_;
  cpu_dispatch();
}

sim::Duration Replica::cert_cost(std::size_t k) const {
  if (k == 0) return 0;
  switch (verify_strategy_) {
    case VerifyStrategy::kEager:
    case VerifyStrategy::kAmortizedQc:
      return static_cast<sim::Duration>(k) * cfg_.cpu_verify_per_sig;
    case VerifyStrategy::kBatch:
      return cfg_.cpu_verify_batch_base +
             static_cast<sim::Duration>(k) * cfg_.cpu_verify_batch_per_sig;
  }
  return 0;
}

sim::Duration Replica::charge_qc(const types::QuorumCert& qc) {
  if (qc.is_genesis() || qc.sigs.empty()) return 0;
  if (verify_strategy_ == VerifyStrategy::kAmortizedQc &&
      !charged_qcs_[qc.view].insert(qc.block_hash).second) {
    return 0;  // this certificate was already paid for once
  }
  return cert_cost(qc.sigs.size());
}

sim::Duration Replica::charge_tc(const types::TimeoutCert& tc) {
  sim::Duration cost = charge_qc(tc.high_qc);
  if (tc.sigs.empty()) return cost;
  if (verify_strategy_ == VerifyStrategy::kAmortizedQc &&
      !charged_tcs_.insert(tc.view).second) {
    return cost;
  }
  return cost + cert_cost(tc.sigs.size());
}

sim::Duration Replica::cost_of(const types::Message& msg) {
  struct Visitor {
    Replica& self;
    const Config& cfg;
    sim::Duration operator()(const types::ClientRequestMsg&) const {
      return cfg.cpu_ingest_per_tx;
    }
    sim::Duration operator()(const types::ProposalMsg& p) const {
      const auto ntx =
          static_cast<sim::Duration>(p.block ? p.block->txns().size() : 0);
      // proposer signature + flat QC handling + per-tx validation, plus the
      // strategy-aware per-signature cost of the carried certificates
      sim::Duration cost = 2 * cfg.cpu_verify + ntx * cfg.cpu_validate_per_tx;
      if (p.block) cost += self.charge_qc(p.block->justify());
      if (p.tc) cost += self.charge_tc(*p.tc);
      return cost;
    }
    sim::Duration operator()(const types::VoteMsg&) const {
      return cfg.cpu_verify;
    }
    sim::Duration operator()(const types::TimeoutMsg& t) const {
      // timeout signature + the embedded high_qc's quorum of signatures
      return cfg.cpu_verify + self.charge_qc(t.high_qc);
    }
    sim::Duration operator()(const types::TcMsg& m) const {
      // a TC carries quorum signatures (and a high_qc), not one signature
      return cfg.cpu_verify + self.charge_tc(m.tc);
    }
    sim::Duration operator()(const types::ClientResponseMsg&) const {
      return sim::microseconds(1);
    }
    sim::Duration operator()(const types::ChainRequestMsg& r) const {
      // The serve cost scales with the range the responder may walk and
      // ship (capped like the server itself caps the batch); at the
      // legacy batch of 1 this is exactly the old flat request cost.
      const auto batch = static_cast<sim::Duration>(
          std::clamp<std::uint32_t>(r.batch, 1, sync::kMaxServeBatch));
      return batch * sim::microseconds(2);
    }
    sim::Duration operator()(const types::ChainResponseMsg& r) const {
      // One QC verification + per-tx validation per carried block (the
      // batch fast path pays CPU proportional to what it ships).
      sim::Duration cost = 0;
      for (const types::BlockPtr& b : r.blocks) {
        const auto ntx =
            static_cast<sim::Duration>(b ? b->txns().size() : 0);
        cost += cfg.cpu_verify + ntx * cfg.cpu_validate_per_tx;
        if (b) cost += self.charge_qc(b->justify());
      }
      return cost;
    }
    sim::Duration operator()(const types::QcMsg& m) const {
      // The carried quorum of signatures, under the strategy cost model.
      return cfg.cpu_verify + self.charge_qc(m.qc);
    }
    sim::Duration operator()(const types::SnapshotRequestMsg&) const {
      // Serving a snapshot scans the committed-hash chain to slice it into
      // chunks: a small flat charge plus a per-committed-block scan cost.
      return sim::microseconds(2) +
             static_cast<sim::Duration>(self.forest_.committed_height()) * 10;
    }
    sim::Duration operator()(const types::SnapshotChunkMsg& m) const {
      // Hashing the chunk's digest payload into the state root, plus — on
      // the final chunk — the anchor block's signature/QC verification.
      sim::Duration cost = static_cast<sim::Duration>(m.hashes.size()) * 50;
      if (m.anchor) {
        cost += cfg.cpu_verify + self.charge_qc(m.anchor_qc);
      }
      return cost;
    }
  };
  return std::visit(Visitor{*this, cfg_}, msg);
}

// --------------------------------------------------------------------------
// Certificate verification
// --------------------------------------------------------------------------

bool Replica::verify_qc(const types::QuorumCert& qc) {
  if (qc.is_genesis()) return true;  // valid by convention (check_qc agrees)
  // Memo: a byte-identical certificate that already passed needs no second
  // HMAC pass. Certificates are formed once and then echoed broadly
  // (Streamlet echoes, timeout storms attaching the same high-QC, sync
  // responses), so repeats dominate in exactly the runs that are slowest.
  // Only full equality hits — a forged look-alike never matches — and only
  // successes are entered, so verdicts and counters are unchanged and a
  // rejected certificate (say, for a forged far-future view) leaves no
  // entry behind.
  if (const auto* seen = verified_qcs_.find(qc.view);
      seen != nullptr &&
      std::find(seen->begin(), seen->end(), qc) != seen->end()) {
    ++stats_.certs_verified;
    return true;
  }
  if (cert_verifier_.check_qc(qc) == quorum::CertCheck::kOk) {
    verified_qcs_[qc.view].push_back(qc);
    ++stats_.certs_verified;
    return true;
  }
  ++stats_.certs_rejected;
  return false;
}

bool Replica::verify_tc(const types::TimeoutCert& tc) {
  if (const auto* seen = verified_tcs_.find(tc.view);
      seen != nullptr &&
      std::find(seen->begin(), seen->end(), tc) != seen->end()) {
    ++stats_.certs_verified;
    return true;
  }
  if (cert_verifier_.check_tc(tc) == quorum::CertCheck::kOk) {
    verified_tcs_[tc.view].push_back(tc);
    ++stats_.certs_verified;
    return true;
  }
  ++stats_.certs_rejected;
  return false;
}

bool Replica::verify_proposal(const types::ProposalMsg& p) {
  // Authenticity + leadership checks, per slot: single-leader elections
  // only ever see slot 0, where slot_leader degenerates to leader().
  const types::Block& block = *p.block;
  if (block.slot() >= election_.width() || p.sig.signer != block.proposer() ||
      block.proposer() != election_.slot_leader(block.view(), block.slot())) {
    return false;
  }
  // Memo: Streamlet echoes every proposal, so a replica receives each one
  // up to n times. keys_.verify is a pure function of (signature, block
  // hash), so a copy whose pair already passed needs no second HMAC pass.
  // Only passes are entered, keyed by the full signature (signer and tag)
  // and the block hash: a forged copy is checked every time, and a genuine
  // tag on another block never matches.
  if (const auto* seen = verified_proposals_.find(block.view())) {
    for (const VerifiedProposal& v : *seen) {
      if (v.sig == p.sig && v.block_hash == block.hash()) return true;
    }
  }
  if (!keys_.verify(p.sig, block.hash())) return false;
  verified_proposals_[block.view()].push_back({block.hash(), p.sig});
  return true;
}

// --------------------------------------------------------------------------
// Inbound path
// --------------------------------------------------------------------------

void Replica::handle_envelope(const net::Envelope& env) {
  if (crashed_ || !env.msg) return;
  ++stats_.msgs_handled;

  // Backpressure: overloaded replicas refuse new client work instead of
  // queueing unboundedly (TCP accept-queue analogue).
  if (std::holds_alternative<types::ClientRequestMsg>(*env.msg) &&
      cpu_queue_.size() + cpu_busy_workers_ >= cfg_.cpu_queue_limit) {
    const auto& req = std::get<types::ClientRequestMsg>(*env.msg);
    ++stats_.client_rejections;
    send_client_response(req.tx, /*rejected=*/true);
    return;
  }

  enqueue_cpu(cost_of(*env.msg), [this, env] { dispatch(env); });
}

void Replica::dispatch(const net::Envelope& env) {
  const types::Message& msg = *env.msg;
  if (std::holds_alternative<types::ClientRequestMsg>(msg)) {
    on_client_request(std::get<types::ClientRequestMsg>(msg));
  } else if (std::holds_alternative<types::ProposalMsg>(msg)) {
    const auto& p = std::get<types::ProposalMsg>(msg);
    // Checked before the echo: the echo slot is deduped by block hash, so a
    // forged copy arriving first must not take it from the genuine one.
    if (!p.block || !verify_proposal(p)) return;
    if (safety_->echo_messages()) {
      echo(env.msg, p.block->view(), p.block->hash());
    }
    on_proposal(p, env.from, false);
  } else if (std::holds_alternative<types::VoteMsg>(msg)) {
    const auto& vote = std::get<types::VoteMsg>(msg);
    // Checked before the echo, so a forged vote is not rebroadcast. A copy
    // of a counted vote (Streamlet echoes each vote n times) is one add()
    // would ignore, so it skips the HMAC and on_vote, unless it would take
    // an echo slot: that is a replica's own vote coming back, or a forged
    // tag (has_vote does not compare tags).
    const bool counted = votes_.has_vote(vote);
    const bool echo_it = safety_->echo_messages() &&
                         !echoed(vote.view, vote.sig.tag);
    if ((!counted || echo_it) &&
        !keys_.verify(vote.sig,
                      types::vote_digest(vote.view, vote.block_hash))) {
      return;
    }
    if (echo_it) echo(env.msg, vote.view, vote.sig.tag);
    if (!counted) on_vote(vote, env.from);
  } else if (std::holds_alternative<types::TimeoutMsg>(msg)) {
    const auto& t = std::get<types::TimeoutMsg>(msg);
    // The signature and the embedded high QC are checked before the echo,
    // and before the timeout advances anything: a forged certificate
    // invalidates the whole timeout message.
    if (!keys_.verify(t.sig, types::timeout_digest(t.view, t.high_qc.view)) ||
        !verify_qc(t.high_qc)) {
      return;
    }
    if (safety_->echo_messages()) echo(env.msg, t.view, t.sig.tag);
    on_timeout_msg(t, env.from);
  } else if (std::holds_alternative<types::TcMsg>(msg)) {
    on_tc_msg(std::get<types::TcMsg>(msg), env.from);
  } else if (std::holds_alternative<types::ChainRequestMsg>(msg)) {
    syncer_.on_request(std::get<types::ChainRequestMsg>(msg), env.from);
  } else if (std::holds_alternative<types::ChainResponseMsg>(msg)) {
    syncer_.on_response(std::get<types::ChainResponseMsg>(msg), env.from);
  } else if (std::holds_alternative<types::SnapshotRequestMsg>(msg)) {
    syncer_.on_snapshot_request(std::get<types::SnapshotRequestMsg>(msg),
                                env.from);
  } else if (std::holds_alternative<types::SnapshotChunkMsg>(msg)) {
    syncer_.on_snapshot_chunk(std::get<types::SnapshotChunkMsg>(msg),
                              env.from);
  } else if (std::holds_alternative<types::QcMsg>(msg)) {
    on_qc_msg(std::get<types::QcMsg>(msg), env.from);
  }
}

void Replica::on_qc_msg(const types::QcMsg& m, NodeId from) {
  // A broadcast certificate from a slot leader: full ingress verification
  // before any state transition, like every other certificate path.
  if (m.qc.is_genesis() || !verify_qc(m.qc)) return;
  note_public_qc(m.qc);
  process_qc(m.qc, from);
}

bool Replica::echoed(View view, const crypto::Digest& dedup_key) const {
  const auto* seen = echo_seen_.find(view);
  return seen != nullptr && seen->contains(dedup_key);
}

void Replica::echo(const MessagePtr& msg, View view,
                   const crypto::Digest& dedup_key) {
  if (!echo_seen_[view].insert(dedup_key).second) return;
  // Forward once to every other replica (Streamlet's O(n^3) pattern). The
  // forward itself is cheap on CPU; the cost is NIC bytes, which the
  // network model charges in full.
  net_.broadcast(id_, cfg_.n_replicas, msg);
}

void Replica::on_client_request(const types::ClientRequestMsg& req) {
  if (!mempool_.add_new(req.tx)) {
    ++stats_.client_rejections;
    send_client_response(req.tx, /*rejected=*/true);
  }
}

void Replica::send_client_response(const types::Transaction& tx,
                                   bool rejected) {
  types::ClientResponseMsg resp;
  resp.tx_id = tx.id;
  resp.session = tx.session;
  resp.submitted_at = tx.submitted_at;
  resp.rejected = rejected;
  // Under the backoff admission policy, rejections carry the server's
  // retry-after hint; acceptances and the drop policy leave it at 0.
  if (rejected) resp.backoff_ms = mempool_.admission().backoff_ms;
  net_.send(id_, tx.client_endpoint,
            types::make_message(std::move(resp)));
}

// --------------------------------------------------------------------------
// Proposals and voting
// --------------------------------------------------------------------------

void Replica::on_proposal(const types::ProposalMsg& p, NodeId from,
                          bool self) {
  if (!p.block) return;
  const BlockPtr& block = p.block;

  if (!self) {
    // Certificate verification: the justify QC and any piggybacked TC must
    // check out before any of their state transitions run — a forged
    // certificate must not advance the pacemaker, enter the forest, or
    // earn a vote.
    if (!verify_qc(block->justify())) return;
    if (p.tc && !verify_tc(*p.tc)) return;
  }

  if (p.tc) handle_tc(*p.tc);
  if (!self) note_public_qc(block->justify());
  process_qc(block->justify(), from);

  const forest::AddResult result = forest_.add(block);
  switch (result) {
    case forest::AddResult::kAdded: {
      ++stats_.blocks_received;
      // A QC may have arrived before the block (votes travel fast under
      // broadcast); apply it now that the block is connected.
      if (const types::QuorumCert* qc = forest_.qc_for(block->hash());
          qc != nullptr && !qc->is_genesis()) {
        apply_qc(*qc);
      }
      maybe_vote(p);
      // Multi-leader pipelining: if we lead the NEXT slot of this view, we
      // extend this block optimistically (before its QC forms) — one
      // network hop per slot block instead of two.
      if (election_.width() > 1) maybe_propose_slot(block);
      retry_pending_proposals();
      break;
    }
    case forest::AddResult::kOrphaned:
      pending_proposals_.emplace(block->hash(), p);
      request_block(block->parent_hash(), from);
      break;
    case forest::AddResult::kDuplicate:
    case forest::AddResult::kInvalid:
      break;
  }
}

void Replica::retry_pending_proposals() {
  // Orphans connected by the forest may now be votable.
  if (pending_proposals_.empty()) return;
  std::vector<crypto::Digest> ready;
  for (const auto& [hash, proposal] : pending_proposals_) {
    if (forest_.contains(hash)) ready.push_back(hash);
  }
  for (const crypto::Digest& hash : ready) {
    const auto it = pending_proposals_.find(hash);
    if (it == pending_proposals_.end()) continue;
    types::ProposalMsg p = it->second;
    pending_proposals_.erase(it);
    ++stats_.blocks_received;
    if (const types::QuorumCert* qc = forest_.qc_for(hash);
        qc != nullptr && !qc->is_genesis()) {
      apply_qc(*qc);
    }
    maybe_vote(p);
  }
}

void Replica::maybe_vote(const types::ProposalMsg& p) {
  if (crashed_) return;
  const BlockPtr& block = p.block;
  // Stale proposals are never votable. Proposals *ahead* of our pacemaker
  // are: the paper's voting rule gates only on lastVotedView and the lock
  // (§II-B), and the Fig. 5 forking attack depends on it — the attacker
  // holds the only QC that would advance honest pacemakers, so honest
  // replicas necessarily vote from the previous view.
  if (block->view() < pacemaker_.current_view()) return;

  const ProtocolContext ctx = context();
  if (!safety_->should_vote(p, ctx)) return;
  safety_->did_vote(*block);
  if (safety_->multi_leader() &&
      (!slot_voted_tip_ || block->view() > slot_voted_tip_->view() ||
       (block->view() == slot_voted_tip_->view() &&
        block->slot() > slot_voted_tip_->slot()))) {
    slot_voted_tip_ = block;
  }

  types::VoteMsg vote;
  vote.view = block->view();
  vote.height = block->height();
  vote.slot = block->slot();
  vote.block_hash = block->hash();
  // Multi-leader protocols route each vote to the voted block's own
  // proposer (every slot leader aggregates the QCs for its own blocks).
  const NodeId collector = safety_->multi_leader()
                               ? block->proposer()
                               : election_.leader(vote.view + 1);

  enqueue_cpu(cfg_.cpu_sign, [this, vote, collector]() mutable {
    vote.sig = keys_.sign(id_, types::vote_digest(vote.view, vote.block_hash));
    ++stats_.votes_sent;
    if (safety_->broadcast_votes()) {
      const MessagePtr msg = types::make_message(vote);
      net_.broadcast(id_, cfg_.n_replicas, msg);
      on_vote(vote, id_);  // count our own vote
    } else {
      if (collector == id_) {
        on_vote(vote, id_);
      } else {
        net_.send(id_, collector, types::make_message(vote));
      }
    }
  });
}

void Replica::on_vote(const types::VoteMsg& v, NodeId from) {
  // Verified and not yet counted (dispatch checks both), or this replica's
  // own vote. A different block from the same voter was verified too, so
  // only verified equivocations are counted.
  if (auto qc = votes_.add(v)) {
    // Multi-leader: single-leader protocols disseminate a fresh QC inside
    // the next proposal, but a slot leader's successor may already have
    // proposed (optimistic chaining), so the collector broadcasts the QC
    // explicitly. Every recipient re-verifies it at ingress (on_qc_msg).
    if (safety_->multi_leader()) {
      net_.broadcast(id_, cfg_.n_replicas,
                     types::make_message(types::QcMsg{*qc}));
    }
    // Forming the certificate from n-f verified votes costs real CPU under
    // the strategy cost model; charge it before the QC's transitions run.
    // Zero cost (the default) keeps the legacy inline path event-for-event.
    if (const sim::Duration cost = charge_qc(*qc); cost > 0) {
      enqueue_cpu(cost, [this, qc = std::move(*qc), from] {
        process_qc(qc, from);
      });
    } else {
      process_qc(*qc, from);
    }
  }
}

// --------------------------------------------------------------------------
// QCs, state updates, commits
// --------------------------------------------------------------------------

void Replica::process_qc(const types::QuorumCert& qc, NodeId from) {
  if (qc.is_genesis()) return;
  const bool fresh = forest_.add_qc(qc);
  // Advance the view before running the commit rule: a QC for view v is
  // what carries us into view v+1, and commits it unlocks are observed
  // *during* that view (this ordering is what makes measured block
  // intervals start at 3 for HotStuff and 2 for 2CHS, as in Fig. 13).
  // Multi-leader: only the FINAL slot's QC ends the view; a mid-view QC
  // resets that slot's timer (and catches a lagging replica up into the
  // view) without advancing past it. Width-1 elections always take the
  // first branch (slot 0 is the final slot), byte-identical to before.
  if (qc.slot + 1 >= election_.width()) {
    pacemaker_.on_qc(qc.view);
  } else {
    pacemaker_.on_slot_qc(qc.view, qc.slot);
  }
  if (forest_.contains(qc.block_hash)) {
    if (fresh) apply_qc(qc);
  } else {
    request_block(qc.block_hash, from);
  }
}

void Replica::apply_qc(const types::QuorumCert& qc) {
  const ProtocolContext ctx = context();
  safety_->update_state(qc, ctx);
  if (const auto target = safety_->commit_target(qc, ctx)) {
    do_commit(*target);
  }
}

void Replica::do_commit(const crypto::Digest& target) {
  auto chain = forest_.commit(target);
  if (!chain) {
    // The protocol asked to commit a block that conflicts with the main
    // chain: a safety violation (never happens for the shipped protocols;
    // counted so tests and the protocol_designer example can observe it).
    ++stats_.safety_violations;
    return;
  }
  for (const BlockPtr& block : *chain) {
    ++stats_.blocks_committed;
    // Durable ledger: commit order IS append order, so the store doubles as
    // a write-ahead commit log for crash-restart recovery.
    if (store_ && !block->is_genesis()) store_->append(block);
    for (ReplicaObserver* o : observers_) o->on_commit(*this, block);
    for (const types::Transaction& tx : block->txns()) {
      if (tx.serving_replica != id_) continue;
      mempool_.mark_committed(tx.id);
      ++stats_.txs_committed;
      send_client_response(tx, /*rejected=*/false);
    }
  }
  if (chain->empty()) return;

  // Garbage-collect forked-out branches; recycle our own transactions to
  // the front of the mempool (paper §III-E).
  const std::vector<BlockPtr> dropped = forest_.prune();
  for (const BlockPtr& block : dropped) {
    ++stats_.blocks_forked;
    if (block->proposer() != id_) continue;
    std::vector<types::Transaction> mine;
    mine.reserve(block->txns().size());
    for (const types::Transaction& tx : block->txns()) {
      if (tx.serving_replica == id_) mine.push_back(tx);
    }
    if (!mine.empty()) mempool_.recycle(mine);
  }

  prune_retained();
}

void Replica::prune_retained() {
  // Retention pruning: cap the in-memory forest to the last `retention`
  // committed blocks; older bodies live only in the store (0 = keep all).
  if (cfg_.retention > 0 && forest_.committed_height() > cfg_.retention) {
    forest_.prune_below(forest_.committed_height() - cfg_.retention);
  }
}

void Replica::reload_from_store() {
  if (!store_ || store_->empty()) return;
  // Append-order replay: each record connects to the already-rebuilt prefix
  // unless the log has a snapshot hole (blocks after an installed anchor
  // whose gap bodies were never fetched) — those buffer as orphans and
  // reconnect via live sync once the gap closes again. A block that
  // connects above the committed tip commits at once, and retention prunes
  // behind it, so from a log without a hole the forest never holds more of
  // the log than a live replica would. After a hole it does: every later
  // block is an orphan, and nothing bounds the orphans (ROADMAP item 2's
  // orphan-buffer bound would). The log is one committed chain, so this
  // ends where adding all of it, committing the deepest block and pruning
  // once would.
  // Commits here raise no events and count nothing: the pre-crash instance
  // already counted them and answered their clients.
  store_->replay([this](const BlockPtr& block) {
    if (!block || block->is_genesis()) return;
    if (forest_.add(block) != forest::AddResult::kAdded) return;
    // Each block's justify certifies its parent; restoring them makes the
    // rebuilt replica able to serve chain-sync (and snapshots) again.
    forest_.add_qc(block->justify());
    if (block->height() <= forest_.committed_height()) return;
    forest_.commit(block->hash());
    prune_retained();
  });
}

// --------------------------------------------------------------------------
// View changes
// --------------------------------------------------------------------------

void Replica::broadcast_timeout(View view) {
  if (crashed_) return;
  for (ReplicaObserver* o : observers_) o->on_timeout(*this, view);
  types::TimeoutMsg msg;
  msg.view = view;
  msg.high_qc = reported_high_qc();
  last_timeout_sent_ = std::max(last_timeout_sent_, view);

  enqueue_cpu(cfg_.cpu_sign, [this, msg]() mutable {
    msg.sig = keys_.sign(
        id_, types::timeout_digest(msg.view, msg.high_qc.view));
    const MessagePtr wire = types::make_message(msg);
    net_.broadcast(id_, cfg_.n_replicas, wire);
    on_timeout_msg(msg, id_);  // aggregate our own timeout
  });
}

types::QuorumCert Replica::reported_high_qc() const {
  const types::QuorumCert& hqc = forest_.high_qc();
  if (strategy_ == ByzStrategy::kHonest) return hqc;
  // Byzantine replicas under-report: they hide the newest QC (which they
  // may exclusively hold as the previous view's vote collector) by
  // advertising its parent's QC instead. Lying low is undetectable —
  // withholding cannot be proven — and is what makes the silence attack
  // overwrite the tail block (paper Fig. 6).
  const BlockPtr hqc_block = forest_.get(hqc.block_hash);
  if (!hqc_block || hqc_block->is_genesis()) return hqc;
  return hqc_block->justify();
}

void Replica::on_timeout_msg(const types::TimeoutMsg& t, NodeId from) {
  // Verified by dispatch (signature and high QC), or this replica's own.
  if (from != id_) note_public_qc(t.high_qc);
  process_qc(t.high_qc, from);

  if (auto tc = timeouts_.add(t)) {
    if (const sim::Duration cost = charge_tc(*tc); cost > 0) {
      enqueue_cpu(cost, [this, tc = std::move(*tc)] { handle_tc(tc); });
    } else {
      handle_tc(*tc);
    }
    return;
  }
  // Early join: if f+1 peers are timing out at or above our view, our own
  // timer is likely late — join the view change now.
  if (t.view >= pacemaker_.current_view() && t.view > last_timeout_sent_ &&
      timeouts_.count(t.view) > cfg_.f()) {
    pacemaker_.join_timeout(t.view);
  }
}

void Replica::handle_tc(const types::TimeoutCert& tc) {
  process_qc(tc.high_qc, id_ /*self: high_qc block requests go nowhere*/);
  if (!last_tc_ || tc.view > last_tc_->view) last_tc_ = tc;
  pacemaker_.on_tc(tc.view);
}

void Replica::on_tc_msg(const types::TcMsg& m, NodeId) {
  if (!verify_tc(m.tc)) return;
  handle_tc(m.tc);
}

void Replica::enter_view(View view, pacemaker::AdvanceReason reason) {
  for (ReplicaObserver* o : observers_) o->on_enter_view(*this, view);
  // Garbage collection of per-view state.
  const View gc_horizon = view > 64 ? view - 64 : 0;
  votes_.gc_below(gc_horizon);
  timeouts_.gc_below(gc_horizon);
  echo_seen_.erase_below(gc_horizon);
  charged_qcs_.erase_below(gc_horizon);
  charged_tcs_.erase(charged_tcs_.begin(),
                     charged_tcs_.lower_bound(gc_horizon));
  verified_qcs_.erase_below(gc_horizon);
  verified_tcs_.erase_below(gc_horizon);
  verified_proposals_.erase_below(gc_horizon);
  if (!pending_proposals_.empty()) {
    for (auto it = pending_proposals_.begin();
         it != pending_proposals_.end();) {
      it = (it->second.block->view() + 64 < view)
               ? pending_proposals_.erase(it)
               : std::next(it);
    }
  }
  try_propose(view, reason);
}

void Replica::try_propose(View view, pacemaker::AdvanceReason reason) {
  if (crashed_ || election_.leader(view) != id_) return;
  if (view <= last_proposed_view_) return;
  if (strategy_ == ByzStrategy::kSilence) return;  // the silence attack

  if (reason == pacemaker::AdvanceReason::kTimeoutCert &&
      cfg_.propose_wait_after_vc > 0) {
    // Non-responsive mode: wait Δ after a view change so that slow honest
    // replicas' high QCs reach us (paper §II-C; §VI-D "t100").
    propose_waits_[view] =
        sim_.schedule_after(cfg_.propose_wait_after_vc, [this, view] {
          propose_waits_.erase(view);
          if (!crashed_ && pacemaker_.current_view() == view &&
              view > last_proposed_view_) {
            do_propose(view);
          }
        });
    return;
  }
  do_propose(view);
}

void Replica::do_propose(View view) {
  const std::size_t batch =
      std::min<std::size_t>(cfg_.bsize, mempool_.size());
  const sim::Duration cost =
      cfg_.cpu_sign +
      static_cast<sim::Duration>(batch) * cfg_.cpu_validate_per_tx;

  enqueue_cpu(cost, [this, view] {
    if (crashed_ || pacemaker_.current_view() != view ||
        view <= last_proposed_view_) {
      return;  // the cluster moved on while we were queued
    }
    const auto plan = plan_with_attack(view);
    if (!plan) return;

    types::Block::Fields fields;
    fields.parent_hash = plan->parent->hash();
    fields.view = view;
    fields.height = plan->parent->height() + 1;
    fields.proposer = id_;
    fields.justify = plan->justify;
    fields.txns = mempool_.take(cfg_.bsize);

    auto block = std::make_shared<const types::Block>(std::move(fields));
    types::ProposalMsg p;
    p.block = block;
    if (last_tc_ && last_tc_->view + 1 == view) p.tc = *last_tc_;
    p.sig = keys_.sign(id_, block->hash());

    last_proposed_view_ = view;
    ++stats_.blocks_proposed;

    net_.broadcast(id_, cfg_.n_replicas, types::make_message(p));
    on_proposal(p, id_, /*self=*/true);
  });
}

void Replica::maybe_propose_slot(const BlockPtr& prev) {
  // Multi-leader pipelining: `prev` (the slot s block of its view) just
  // connected; if we lead slot s+1 of the same view, extend it now —
  // optimistically, without waiting for prev's QC.
  const View view = prev->view();
  const types::Slot next = prev->slot() + 1;
  if (next >= election_.width()) return;
  if (election_.slot_leader(view, next) != id_) return;
  if (crashed_ || view != pacemaker_.current_view()) return;
  if (view <= last_proposed_view_) return;
  if (strategy_ == ByzStrategy::kSilence) return;  // the silence attack
  do_propose_slot(view, next, prev);
}

void Replica::on_slot_stuck(View view, types::Slot stuck) {
  if (crashed_ || view != pacemaker_.current_view()) return;
  if (election_.width() <= 1) return;
  if (view <= last_proposed_view_) return;
  if (strategy_ == ByzStrategy::kSilence) return;
  // Only the immediate successor repairs the pipeline — later leaders
  // proposing concurrently would split the (view, slot)-monotone vote.
  const types::Slot mine = stuck + 1;
  if (mine >= election_.width()) return;
  if (election_.slot_leader(view, mine) != id_) return;
  // do_propose_slot picks the parent (our voted tip of this view, else
  // the certified tip) — exactly the skip-over-the-bad-slot rule.
  do_propose_slot(view, mine, nullptr);
}

void Replica::do_propose_slot(View view, types::Slot slot, BlockPtr prev) {
  const std::size_t batch =
      std::min<std::size_t>(cfg_.bsize, mempool_.size());
  const sim::Duration cost =
      cfg_.cpu_sign +
      static_cast<sim::Duration>(batch) * cfg_.cpu_validate_per_tx;

  enqueue_cpu(cost, [this, view, slot, prev] {
    if (crashed_ || pacemaker_.current_view() != view ||
        view <= last_proposed_view_) {
      return;  // the view moved on while we were queued
    }
    // An honest slot leader extends the last block it *voted for* in this
    // view, not blindly the slot s-1 block: if that block was an
    // equivocating fork the replica refused, the new block skips the bad
    // slot and chains the view's honest prefix instead. The slot gap is
    // safe — votes are (view, slot)-monotone and the commit rule
    // certifies whole prefixes — and it restores liveness: without the
    // skip a single forking slot leader poisons every later slot of the
    // view and the final-slot QC can never form. When nothing of this
    // view was votable at all, fall back to the certified tip the slot-0
    // proposal rule uses.
    BlockPtr parent = prev;
    if (slot_voted_tip_ && slot_voted_tip_->view() == view) {
      parent = slot_voted_tip_;
    } else if (BlockPtr certified = forest_.high_qc_block()) {
      parent = std::move(certified);
    }
    // The protocol owns the justification choice (FnF-BFT: the forest's
    // high QC — the freshest certificate this slot leader holds).
    types::QuorumCert justify = forest_.high_qc();
    if (const auto plan = safety_->plan_slot_proposal(view, slot, context())) {
      justify = plan->justify;
    }
    if (strategy_ != ByzStrategy::kHonest) {
      // Byzantine slot leaders run the same attack planner as slot-0
      // leaders (forking from the public high QC, forging the justify).
      const auto plan = plan_with_attack(view);
      if (!plan) return;
      parent = plan->parent;
      justify = plan->justify;
    }
    if (!parent || !forest_.contains(parent->hash())) return;

    types::Block::Fields fields;
    fields.parent_hash = parent->hash();
    fields.view = view;
    fields.height = parent->height() + 1;
    fields.slot = slot;
    fields.proposer = id_;
    fields.justify = justify;
    fields.txns = mempool_.take(cfg_.bsize);

    auto block = std::make_shared<const types::Block>(std::move(fields));
    types::ProposalMsg p;
    p.block = block;
    p.sig = keys_.sign(id_, block->hash());

    last_proposed_view_ = view;
    ++stats_.blocks_proposed;

    net_.broadcast(id_, cfg_.n_replicas, types::make_message(p));
    on_proposal(p, id_, /*self=*/true);
  });
}

void Replica::note_public_qc(const types::QuorumCert& qc) {
  if (qc.view > public_high_qc_.view) public_high_qc_ = qc;
}

std::optional<ProposalPlan> Replica::plan_with_attack(View view) {
  const ProtocolContext ctx = context();
  auto honest = safety_->plan_proposal(view, ctx);
  if (strategy_ == ByzStrategy::kForgeQc) {
    // Forged-certificate attack: propose on the honest parent, but justify
    // the block with a fabricated QC carrying quorum-many garbage tags —
    // the forgery certificate verification exists to stop. Honest replicas
    // must reject the proposal outright; the view then times out and the
    // next leader recovers. (At view 1 the honest justify is the genesis
    // QC, which carries no signatures — nothing to forge yet.)
    if (!honest || view < 2) return honest;
    types::QuorumCert forged;
    forged.view = view - 1;  // claim the freshest certificate possible
    forged.height = honest->parent->height();
    forged.block_hash = honest->parent->hash();
    forged.sigs.resize(cfg_.quorum());
    for (std::uint32_t i = 0; i < cfg_.quorum(); ++i) {
      forged.sigs[i].signer = i;
      forged.sigs[i].tag = forged.block_hash;  // not a valid HMAC tag
    }
    return ProposalPlan{honest->parent, forged};
  }
  if (strategy_ != ByzStrategy::kForking || safety_->fork_depth() == 0) {
    return honest;
  }
  // Forking attack (paper §IV-A1, Fig. 5): build on the head of the honest
  // replicas' locked chain instead of the tip. Honest locks derive from
  // *public* QCs only — the freshest QC is private to this attacker, who
  // gathered it as the previous view's vote collector — so the fork base
  // is fork_depth-1 ancestors below the public high-QC block: in Fig. 5
  // the attacker holds QC_3 privately, the public high QC certifies B2,
  // and B4 is proposed on B1 = parent(B2), overwriting B2 and B3.
  const BlockPtr public_tip = forest_.get(public_high_qc_.block_hash);
  if (!public_tip) return honest;
  const BlockPtr base =
      forest_.ancestor(public_tip, safety_->fork_depth() - 1);
  // Note: no check against this replica's own committed chain — a
  // Byzantine proposer happily forks blocks it has privately committed
  // (its withheld QC completes commit chains early). For the stock
  // protocols the base never lies below the attacker's committed tip
  // anyway; for weaker commit rules (examples/protocol_designer.cpp) the
  // fork is exactly what exposes their unsafety.
  if (!base) return honest;
  const types::QuorumCert* base_qc = forest_.qc_for(base->hash());
  if (base_qc == nullptr) return honest;
  return ProposalPlan{base, *base_qc};
}

// --------------------------------------------------------------------------
// Chain sync
// --------------------------------------------------------------------------

void Replica::request_block(const crypto::Digest& hash, NodeId from) {
  // The Syncer owns the fetch lifecycle: in-flight dedupe, the chain
  // locator (committed height + sync_batch), timeouts, and peer rotation.
  syncer_.request(hash, from);
}

forest::AddResult Replica::ingest_synced_block(const types::BlockPtr& block,
                                               NodeId from) {
  if (!block) return forest::AddResult::kInvalid;
  // Synced blocks come from arbitrary peers: the carried justify must
  // check out before the block can enter the forest.
  if (!verify_qc(block->justify())) return forest::AddResult::kInvalid;
  const forest::AddResult result = forest_.add(block);
  if (result == forest::AddResult::kAdded) {
    ++stats_.blocks_received;
    note_public_qc(block->justify());
    process_qc(block->justify(), from);
    if (const types::QuorumCert* qc = forest_.qc_for(block->hash());
        qc != nullptr && !qc->is_genesis()) {
      apply_qc(*qc);
    }
    retry_pending_proposals();
  }
  return result;
}

}  // namespace bamboo::core
