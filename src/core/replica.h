#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/safety.h"
#include "crypto/signer.h"
#include "election/leader_election.h"
#include "forest/block_forest.h"
#include "mempool/mempool.h"
#include "net/network.h"
#include "pacemaker/pacemaker.h"
#include "quorum/cert_verifier.h"
#include "quorum/vote_aggregator.h"
#include "sim/simulator.h"
#include "storage/block_store.h"
#include "sync/syncer.h"

namespace bamboo::core {

/// Counters exported by a replica (inputs to the paper's metrics: CGR, BI,
/// fork counts; plus engine health numbers asserted by tests).
struct ReplicaStats {
  std::uint64_t blocks_proposed = 0;
  std::uint64_t blocks_received = 0;  ///< connected into the forest
  std::uint64_t blocks_committed = 0;
  std::uint64_t blocks_forked = 0;  ///< pruned off the main chain
  std::uint64_t txs_committed = 0;  ///< txs this replica served & committed
  std::uint64_t votes_sent = 0;
  std::uint64_t msgs_handled = 0;
  std::uint64_t client_rejections = 0;
  std::uint64_t safety_violations = 0;  ///< commit target off the main chain
  std::uint64_t certs_verified = 0;  ///< received QCs/TCs that checked out
  std::uint64_t certs_rejected = 0;  ///< forged/malformed certificates dropped
  sim::Duration cpu_busy = 0;
};

/// The protocol-agnostic replica engine. It wires the shared modules —
/// block forest, mempool, pacemaker, vote/timeout aggregation, simulated
/// network and CPU — around a SafetyProtocol that supplies the four
/// protocol-specific rules. Byzantine strategies modify the Proposing rule
/// (and, for crash, drop all traffic), as in the paper.
///
/// CPU model: every inbound message and every signing action is serviced by
/// a FIFO queue drained by Config::cpu_workers simulated workers (1 by
/// default — the single-server queue of the paper's M/D/1 model) whose
/// service times come from Config (cpu_verify, cpu_sign, cpu_ingest_per_tx,
/// the strategy-aware certificate costs, ...). This is the t_CPU of the
/// paper's queuing model; together with the network's NIC queues it
/// produces the queuing behaviour the model predicts.
///
/// Certificate verification: every QC/TC received from another replica is
/// structurally validated and HMAC-checked (quorum/cert_verifier.h) before
/// any of its state transitions run; forgeries are dropped and counted in
/// ReplicaStats::certs_rejected.
class Replica {
 public:
  struct Hooks {
    /// A block was committed at this replica (once per block, ascending).
    std::function<void(const types::BlockPtr&, types::View commit_view,
                       sim::Time when)>
        on_commit_block;
    /// A transaction served by this replica committed.
    std::function<void(const types::Transaction&, sim::Time when)>
        on_tx_committed;
    /// This replica entered a view (before it proposes there). The churn
    /// engine's leader-follow target hangs off this.
    std::function<void(types::View)> on_enter_view;
  };

  Replica(sim::Simulator& simulator, net::SimNetwork& network,
          const crypto::KeyStore& keys, const Config& config,
          types::NodeId id, std::unique_ptr<SafetyProtocol> safety,
          const election::LeaderElection& election, Hooks hooks = {});

  /// Cancels the pending events that call back into this replica: the
  /// completions of work in service and the propose waits after a view
  /// change. A crash-restart with no downtime destroys a replica while
  /// they are pending.
  ~Replica();

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  /// Register the network handler and enter view 1.
  void start();

  /// Fail-stop this replica (responsiveness experiment). A crashed replica
  /// drops all traffic and fires no timers.
  void crash();

  /// Attach the durable block store committed blocks are appended to. The
  /// store outlives the replica (the Cluster owns it), which is what makes
  /// crash-restart recovery possible. Call before start().
  void set_store(storage::BlockStore* store) { store_ = store; }

  /// Crash-restart recovery: rebuild the committed chain from the attached
  /// store (append-order replay, then commit the deepest connected block).
  /// Blocks after a snapshot hole stay buffered as orphans and reconnect
  /// via live sync. Call after set_store() and before start().
  void reload_from_store();

  /// Switch the Byzantine strategy at runtime (the Fig. 15 experiment
  /// turns one replica silent mid-run). Not valid on a crashed replica.
  void set_strategy(ByzStrategy strategy) { strategy_ = strategy; }

  // --- accessors ----------------------------------------------------------
  [[nodiscard]] types::NodeId id() const { return id_; }
  [[nodiscard]] types::View current_view() const {
    return pacemaker_.current_view();
  }
  [[nodiscard]] const forest::BlockForest& forest() const { return forest_; }
  [[nodiscard]] mempool::Mempool& pool() { return mempool_; }
  [[nodiscard]] const mempool::Mempool& pool() const { return mempool_; }
  [[nodiscard]] const ReplicaStats& stats() const { return stats_; }
  [[nodiscard]] const SafetyProtocol& safety() const { return *safety_; }
  [[nodiscard]] const pacemaker::Pacemaker& pm() const { return pacemaker_; }
  [[nodiscard]] ByzStrategy strategy() const { return strategy_; }
  [[nodiscard]] bool is_byzantine() const {
    return strategy_ != ByzStrategy::kHonest;
  }
  [[nodiscard]] bool crashed() const { return crashed_; }
  [[nodiscard]] const sync::SyncStats& sync_stats() const {
    return syncer_.stats();
  }
  [[nodiscard]] const storage::BlockStore* store() const { return store_; }

 private:
  // --- CPU queue ----------------------------------------------------------
  struct CpuWork {
    template <typename F>
    CpuWork(sim::Duration c, F&& f) : cost(c), fn(std::forward<F>(f)) {}
    sim::Duration cost;
    sim::EventQueue::Callback fn;
  };
  /// Queue `fn` (any `void()` callable, constructed in its queue entry)
  /// behind `cost` of simulated CPU service.
  template <typename F>
  void enqueue_cpu(sim::Duration cost, F&& fn);
  /// Hand queued work to idle verify workers (cpu_workers-server FIFO).
  void cpu_dispatch();
  /// A worker finished the item in cpu_in_service_[slot]: run it (unless
  /// the replica crashed meanwhile) and free the worker.
  void cpu_complete(std::uint32_t slot);
  [[nodiscard]] sim::Duration cost_of(const types::Message& msg);
  /// Strategy-aware simulated cost of verifying (or constructing) a
  /// k-signature certificate; the surcharge on top of the legacy flat
  /// charges. 0 under the default config (eager, cpu_verify_per_sig = 0).
  [[nodiscard]] sim::Duration cert_cost(std::size_t k) const;
  /// Per-certificate charge, honoring amortized-qc first-seen dedup.
  sim::Duration charge_qc(const types::QuorumCert& qc);
  sim::Duration charge_tc(const types::TimeoutCert& tc);

  // --- certificate verification -------------------------------------------
  /// Check a received certificate for real; counts the outcome and drops
  /// forgeries. Certificates this replica formed itself are trusted.
  bool verify_qc(const types::QuorumCert& qc);
  bool verify_tc(const types::TimeoutCert& tc);

  // --- inbound dispatch ----------------------------------------------------
  void handle_envelope(const net::Envelope& env);
  void dispatch(const net::Envelope& env);
  void on_client_request(const types::ClientRequestMsg& req);
  void on_proposal(const types::ProposalMsg& p, types::NodeId from,
                   bool self);
  void on_vote(const types::VoteMsg& v, types::NodeId from);
  /// Broadcast QC from a multi-leader slot collector (ingress-verified).
  void on_qc_msg(const types::QcMsg& m, types::NodeId from);
  /// Track the highest QC that travelled over the wire (i.e. is known to
  /// honest replicas) separately from QCs this replica formed itself as a
  /// vote collector — the distinction the forking attacker exploits.
  void note_public_qc(const types::QuorumCert& qc);
  void on_timeout_msg(const types::TimeoutMsg& t, types::NodeId from);
  void on_tc_msg(const types::TcMsg& m, types::NodeId from);
  /// Syncer ingestion hook: insert one fetched block and, when it
  /// connects, run the same QC/pending-proposal pipeline an inline block
  /// arrival runs.
  forest::AddResult ingest_synced_block(const types::BlockPtr& block,
                                        types::NodeId from);

  // --- consensus actions ---------------------------------------------------
  void enter_view(types::View view, pacemaker::AdvanceReason reason);
  void try_propose(types::View view, pacemaker::AdvanceReason reason);
  void do_propose(types::View view);
  /// Multi-leader chaining: called when a slot block connects; proposes
  /// the next slot of the same view if this replica leads it.
  void maybe_propose_slot(const types::BlockPtr& prev);
  /// Multi-leader pipeline repair: slot `stuck` has shown no certificate
  /// for half a timeout window (withheld, lost, or rejected at ingress —
  /// a forged-justify block never connects, so the connect-trigger chain
  /// breaks there). If this replica leads the immediate successor slot,
  /// propose over the stuck slot now.
  void on_slot_stuck(types::View view, types::Slot stuck);
  void do_propose_slot(types::View view, types::Slot slot,
                       types::BlockPtr prev);
  [[nodiscard]] std::optional<ProposalPlan> plan_with_attack(types::View view);
  void maybe_vote(const types::ProposalMsg& p);
  void process_qc(const types::QuorumCert& qc, types::NodeId from);
  void apply_qc(const types::QuorumCert& qc);
  void do_commit(const crypto::Digest& target);
  void broadcast_timeout(types::View view);
  void handle_tc(const types::TimeoutCert& tc);
  void request_block(const crypto::Digest& hash, types::NodeId from);
  void echo(const types::MessagePtr& msg, types::View view,
            const crypto::Digest& dedup_key);
  void retry_pending_proposals();
  void send_client_response(const types::Transaction& tx, bool rejected);
  [[nodiscard]] types::QuorumCert reported_high_qc() const;
  [[nodiscard]] ProtocolContext context();

  sim::Simulator& sim_;
  net::SimNetwork& net_;
  const crypto::KeyStore& keys_;
  const Config& cfg_;
  types::NodeId id_;
  std::unique_ptr<SafetyProtocol> safety_;
  const election::LeaderElection& election_;
  Hooks hooks_;
  ByzStrategy strategy_ = ByzStrategy::kHonest;

  storage::BlockStore* store_ = nullptr;  ///< owned by the Cluster
  forest::BlockForest forest_;
  mempool::Mempool mempool_;
  quorum::VoteAggregator votes_;
  quorum::TimeoutAggregator timeouts_;
  quorum::CertVerifier cert_verifier_;
  pacemaker::Pacemaker pacemaker_;
  sync::Syncer syncer_;

  // CPU
  std::deque<CpuWork> cpu_queue_;
  /// Work in service, one slot per busy worker, so its completion event
  /// captures only [this, slot] (inline, no heap cell). A slot lives from
  /// dispatch to completion, also across a crash.
  struct InService {
    sim::EventQueue::Callback fn;
    sim::EventId done = sim::kInvalidEventId;  ///< the completion event
  };
  std::vector<InService> cpu_in_service_;
  std::vector<std::uint32_t> cpu_in_service_free_;
  std::uint32_t cpu_busy_workers_ = 0;
  bool crashed_ = false;
  VerifyStrategy verify_strategy_ = VerifyStrategy::kEager;
  // amortized-qc: certificates already charged (first-seen dedup), keyed by
  // view for GC along the same 64-view horizon as the aggregators.
  std::map<types::View, std::unordered_set<crypto::Digest>> charged_qcs_;
  std::set<types::View> charged_tcs_;
  // Certificates that already passed full verification (byte-identical
  // matches skip the repeat HMAC pass; see verify_qc), same GC horizon.
  std::map<types::View, std::vector<types::QuorumCert>> verified_qcs_;
  std::map<types::View, std::vector<types::TimeoutCert>> verified_tcs_;

  // consensus bookkeeping
  types::View last_proposed_view_ = 0;
  types::View last_timeout_sent_ = 0;
  types::QuorumCert public_high_qc_;  ///< highest QC seen on the wire
  /// Multi-leader: the highest-(view, slot) block this replica voted for.
  /// An honest slot leader extends this tip, not blindly the previous
  /// slot's block — so one equivocating slot leader is skipped instead of
  /// dragging the rest of the view's slot chain onto an unvotable fork.
  types::BlockPtr slot_voted_tip_;
  std::optional<types::TimeoutCert> last_tc_;
  std::unordered_map<crypto::Digest, types::ProposalMsg> pending_proposals_;
  /// Pending propose_wait_after_vc timers by view; ~Replica cancels them.
  std::map<types::View, sim::EventId> propose_waits_;
  std::map<types::View, std::unordered_set<crypto::Digest>> echo_seen_;

  ReplicaStats stats_;
};

}  // namespace bamboo::core
