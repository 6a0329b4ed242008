#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/replica.h"
#include "crypto/signer.h"
#include "election/leader_election.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "storage/block_store.h"

namespace bamboo::harness {

/// Builds a complete simulated deployment from one Config: simulator,
/// key store, network, leader election, and N replicas running the
/// configured protocol (with the configured Byzantine strategies applied to
/// the byz_no highest-id replicas). This is the programmatic equivalent of
/// Bamboo's JSON-config-driven deployment.
class Cluster {
 public:
  explicit Cluster(core::Config config);
  ~Cluster();

  /// Starts every replica (view 1). Call after installing hooks.
  void start();

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] net::SimNetwork& network() { return net_; }
  [[nodiscard]] const net::SimNetwork& network() const { return net_; }
  [[nodiscard]] const core::Config& config() const { return cfg_; }
  [[nodiscard]] std::uint32_t size() const {
    return static_cast<std::uint32_t>(replicas_.size());
  }
  [[nodiscard]] core::Replica& replica(types::NodeId id) {
    return *replicas_.at(id);
  }
  [[nodiscard]] const core::Replica& replica(types::NodeId id) const {
    return *replicas_.at(id);
  }
  [[nodiscard]] const election::LeaderElection& election() const {
    return *election_;
  }

  /// Replica 0 is always honest (Config::is_byzantine) — the designated
  /// metrics observer.
  [[nodiscard]] core::Replica& observer() { return *replicas_.front(); }

  /// Install commit hooks on one replica. Must be called before start().
  void set_hooks(types::NodeId id, core::Replica::Hooks hooks);

  /// Register a cluster-wide view-entry listener (any replica entering a
  /// view fires it, before that replica proposes). Must be called before
  /// start(); the churn engine's leader-follow target uses this.
  void add_view_listener(
      std::function<void(types::NodeId, types::View)> listener);

  /// Crash a replica (fail-stop) — used by the responsiveness experiment.
  void crash_replica(types::NodeId id) { replicas_.at(id)->crash(); }

  /// Crash-restart recovery: tear the replica down and rebuild it from its
  /// durable BlockStore (which the Cluster owns, so it survives the old
  /// instance), then start it — it rejoins at the recovered height and
  /// chain-syncs the rest. The departing instance's counters are folded
  /// into the retired accumulators so cluster-wide sums stay monotonic.
  void restart_replica(types::NodeId id);

  /// The durable store backing a replica (valid after start()).
  [[nodiscard]] const storage::BlockStore& store(types::NodeId id) const {
    return *stores_.at(id);
  }

  /// Counters carried over from replica instances torn down by
  /// restart_replica (summed into cluster-wide metrics alongside the live
  /// replicas' own counters).
  [[nodiscard]] const core::ReplicaStats& retired_stats() const {
    return retired_;
  }
  [[nodiscard]] const sync::SyncStats& retired_sync_stats() const {
    return retired_sync_;
  }
  [[nodiscard]] std::uint64_t retired_mem_admitted() const {
    return retired_mem_admitted_;
  }
  [[nodiscard]] std::uint64_t retired_mem_rejected() const {
    return retired_mem_rejected_;
  }
  [[nodiscard]] std::uint64_t restarts() const { return restarts_; }

  /// Turn a replica silent mid-run (the paper's Fig. 15 "silence attack
  /// (crash)" fault: it stops proposing but keeps collecting votes).
  void silence_replica(types::NodeId id);

  /// Cross-replica consistency check (paper §III-A): every pair of honest
  /// replicas must agree on the committed block hash at every height both
  /// have committed.
  struct ConsistencyReport {
    bool consistent = true;
    types::Height min_committed_height = 0;
    types::Height max_committed_height = 0;
    std::string detail;
  };
  [[nodiscard]] ConsistencyReport check_consistency() const;

  /// Pacemaker timeouts honest replicas fired while honest. A crashed
  /// replica's frozen count stays in; a silenced or crash-restarted
  /// instance's count is kept in a retired total, so the sum never
  /// decreases.
  [[nodiscard]] std::uint64_t total_timeouts() const;

 private:
  /// Build one replica instance: hooks copied from pending_hooks_ (kept,
  /// not moved, so restart_replica can rebuild with the same wiring),
  /// view listeners chained in front, store attached.
  [[nodiscard]] std::unique_ptr<core::Replica> build_replica(types::NodeId id);

  core::Config cfg_;
  sim::Simulator sim_;
  crypto::KeyStore keys_;
  net::SimNetwork net_;
  std::unique_ptr<election::LeaderElection> election_;
  std::vector<core::Replica::Hooks> pending_hooks_;
  std::vector<std::function<void(types::NodeId, types::View)>>
      view_listeners_;
  std::vector<std::unique_ptr<storage::BlockStore>> stores_;
  std::string store_dir_;       ///< directory holding file-backed stores
  bool owns_store_dir_ = false;  ///< auto-generated dir, removed in dtor
  std::vector<std::unique_ptr<core::Replica>> replicas_;
  core::ReplicaStats retired_;
  sync::SyncStats retired_sync_;
  std::uint64_t retired_mem_admitted_ = 0;
  std::uint64_t retired_mem_rejected_ = 0;
  std::uint64_t retired_timeouts_ = 0;
  std::uint64_t restarts_ = 0;
  bool started_ = false;
};

}  // namespace bamboo::harness
