#include "harness/cluster.h"

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <sstream>

#include "crypto/sha256.h"
#include "protocols/registry.h"

namespace bamboo::harness {

namespace {

/// The "ohs" baseline is HotStuff under the libhotstuff cost profile: the
/// paper attributes the original implementation's edge to its TCP client
/// path and batching (no HTTP request handling), which shows up as a lower
/// per-transaction ingest cost.
core::Config apply_protocol_profile(core::Config cfg) {
  if (cfg.protocol == "ohs") {
    cfg.cpu_ingest_per_tx = sim::microseconds(6);
  }
  return cfg;
}

net::NetConfig net_config_of(const core::Config& cfg) {
  net::NetConfig nc;
  nc.bandwidth_bps = cfg.bandwidth_bps;
  nc.rtt_mean = cfg.rtt_mean;
  nc.rtt_stddev = cfg.rtt_stddev;
  nc.added_delay = cfg.delay;
  nc.added_delay_jitter = cfg.delay_jitter;
  nc.min_one_way = cfg.min_one_way_delay;
  nc.link_model = cfg.link_model;
  nc.link_shape = cfg.link_shape;
  nc.link_loss = cfg.link_loss;
  nc.topology = cfg.topology;
  nc.ge_p = cfg.ge_p;
  nc.ge_r = cfg.ge_r;
  nc.ge_loss_good = cfg.ge_loss_good;
  nc.ge_loss_bad = cfg.ge_loss_bad;
  nc.n_replicas = cfg.n_replicas;
  return nc;
}

/// Process-wide sequence for auto-generated store directories: two
/// clusters in one process (or one test re-running) never collide. The
/// path is outside the simulation — it never affects schedules.
std::string next_store_dir() {
  static std::atomic<std::uint64_t> seq{0};
  const auto base = std::filesystem::temp_directory_path() /
                    ("bamboo-ledger-" + std::to_string(::getpid()) + "-" +
                     std::to_string(seq.fetch_add(1)));
  return base.string();
}

/// Field-wise accumulate (restart_replica's retired bookkeeping).
void fold(core::ReplicaStats& into, const core::ReplicaStats& s) {
  into.blocks_proposed += s.blocks_proposed;
  into.blocks_received += s.blocks_received;
  into.blocks_committed += s.blocks_committed;
  into.blocks_forked += s.blocks_forked;
  into.txs_committed += s.txs_committed;
  into.votes_sent += s.votes_sent;
  into.msgs_handled += s.msgs_handled;
  into.client_rejections += s.client_rejections;
  into.safety_violations += s.safety_violations;
  into.certs_verified += s.certs_verified;
  into.certs_rejected += s.certs_rejected;
  into.cpu_busy += s.cpu_busy;
}

void fold(sync::SyncStats& into, const sync::SyncStats& s) {
  into.requests_sent += s.requests_sent;
  into.timeouts += s.timeouts;
  into.retries += s.retries;
  into.exhausted += s.exhausted;
  into.responses_applied += s.responses_applied;
  into.responses_rejected += s.responses_rejected;
  into.blocks_applied += s.blocks_applied;
  into.blocks_rejected += s.blocks_rejected;
  into.bytes_received += s.bytes_received;
  into.requests_served += s.requests_served;
  into.blocks_served += s.blocks_served;
  into.snapshots_requested += s.snapshots_requested;
  into.snapshots_served += s.snapshots_served;
  into.snapshot_chunks_received += s.snapshot_chunks_received;
  into.snapshot_bytes_received += s.snapshot_bytes_received;
  into.snapshots_installed += s.snapshots_installed;
  into.snapshots_rejected += s.snapshots_rejected;
}

}  // namespace

Cluster::Cluster(core::Config config)
    : cfg_(apply_protocol_profile(std::move(config))),
      sim_(cfg_.seed),
      keys_(cfg_.seed ^ 0x9e3779b97f4a7c15ULL, cfg_.num_endpoints()),
      net_(sim_, cfg_.num_endpoints(), net_config_of(cfg_)),
      election_(election::make_election(cfg_.election, cfg_.n_replicas,
                                        cfg_.seed)) {
  cfg_.validate();
}

Cluster::~Cluster() {
  // Replicas hold raw pointers into stores_: tear them down first.
  replicas_.clear();
  stores_.clear();
  if (owns_store_dir_ && !store_dir_.empty()) {
    std::error_code ec;  // best-effort cleanup; never throw from a dtor
    std::filesystem::remove_all(store_dir_, ec);
  }
}

void Cluster::start() {
  if (started_) return;
  started_ = true;
  // Protocol <-> election compatibility: multi-leader protocols need a
  // multi-leader election (and vice versa); a width the protocol does not
  // expect would silently degrade into one-leader-per-view behavior.
  {
    const auto probe = protocols::make_protocol(cfg_.protocol);
    if (probe->multi_leader() != (election_->width() > 1)) {
      throw std::invalid_argument(
          probe->multi_leader()
              ? "protocol '" + cfg_.protocol +
                    "' is multi-leader and needs a multi:<width> election "
                    "(got '" + cfg_.election + "')"
              : "election '" + cfg_.election +
                    "' is multi-leader but protocol '" + cfg_.protocol +
                    "' is not");
    }
  }
  // Durable stores are created once and outlive replica instances — the
  // point of the exercise: restart_replica rebuilds a replica from the
  // store it appended to before it died.
  if (cfg_.store == "file") {
    store_dir_ = cfg_.store_path;
    if (store_dir_.empty()) {
      store_dir_ = next_store_dir();
      owns_store_dir_ = true;
    }
    std::filesystem::create_directories(store_dir_);
  }
  stores_.reserve(cfg_.n_replicas);
  for (types::NodeId id = 0; id < cfg_.n_replicas; ++id) {
    const std::string path =
        cfg_.store == "file"
            ? (std::filesystem::path(store_dir_) /
               ("replica" + std::to_string(id) + ".blk"))
                  .string()
            : std::string();
    stores_.push_back(storage::make_store(cfg_.store, path));
  }
  replicas_.reserve(cfg_.n_replicas);
  for (types::NodeId id = 0; id < cfg_.n_replicas; ++id) {
    replicas_.push_back(build_replica(id));
  }
  for (auto& replica : replicas_) replica->start();
}

std::unique_ptr<core::Replica> Cluster::build_replica(types::NodeId id) {
  auto replica = std::make_unique<core::Replica>(
      sim_, net_, keys_, cfg_, id, protocols::make_protocol(cfg_.protocol),
      *election_, observers_);
  replica->set_store(stores_.at(id).get());
  return replica;
}

void Cluster::restart_replica(types::NodeId id) {
  if (!started_) return;
  core::Replica& old = *replicas_.at(id);
  fold(retired_, old.stats());
  fold(retired_sync_, old.sync_stats());
  retired_mem_admitted_ += old.pool().admitted_count();
  retired_mem_rejected_ += old.pool().rejected_count();
  if (!old.is_byzantine()) retired_timeouts_ += old.pm().timeouts_fired();
  if (!old.crashed()) old.crash();  // quiesce timers before the swap
  ++restarts_;
  replicas_.at(id) = build_replica(id);
  net_.set_down(id, false);  // crash() downed the NIC; bring it back
  replicas_.at(id)->reload_from_store();
  replicas_.at(id)->start();
}

void Cluster::silence_replica(types::NodeId id) {
  core::Replica& replica = *replicas_.at(id);
  // Leaving the honest set: keep the timeouts it fired while honest.
  if (!replica.is_byzantine()) {
    retired_timeouts_ += replica.pm().timeouts_fired();
  }
  replica.set_strategy(core::ByzStrategy::kSilence);
}

Cluster::ConsistencyReport Cluster::check_consistency() const {
  ConsistencyReport report;
  const core::Replica* reference = nullptr;
  types::Height min_h = 0;
  types::Height max_h = 0;
  bool first = true;

  for (const auto& replica : replicas_) {
    if (replica->is_byzantine() || replica->crashed()) continue;
    const types::Height h = replica->forest().committed_height();
    if (first) {
      reference = replica.get();
      min_h = max_h = h;
      first = false;
      continue;
    }
    min_h = std::min(min_h, h);
    max_h = std::max(max_h, h);

    // Compare committed hashes up to the common height.
    const types::Height common =
        std::min(h, reference->forest().committed_height());
    for (types::Height level = 0; level <= common; ++level) {
      const auto a = reference->forest().committed_hash_at(level);
      const auto b = replica->forest().committed_hash_at(level);
      if (a != b) {
        report.consistent = false;
        std::ostringstream oss;
        oss << "replica " << replica->id() << " disagrees with replica "
            << reference->id() << " at height " << level;
        report.detail = oss.str();
        return report;
      }
    }
  }
  report.min_committed_height = min_h;
  report.max_committed_height = max_h;
  return report;
}

std::uint64_t Cluster::total_timeouts() const {
  std::uint64_t total = retired_timeouts_;
  for (const auto& replica : replicas_) {
    if (!replica->is_byzantine()) total += replica->pm().timeouts_fired();
  }
  return total;
}

}  // namespace bamboo::harness
