#include "harness/experiment.h"

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "harness/report.h"
#include "util/histogram.h"
#include "util/stats.h"

namespace bamboo::harness {

std::string encode_commit_share(
    const std::map<types::NodeId, std::uint64_t>& counts) {
  std::string out;
  for (const auto& [id, count] : counts) {
    if (count == 0) continue;
    if (!out.empty()) out += ';';
    out += std::to_string(id);
    out += ':';
    out += std::to_string(count);
  }
  return out;
}

std::map<types::NodeId, std::uint64_t> decode_commit_share(
    const std::string& text) {
  std::map<types::NodeId, std::uint64_t> counts;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find(';', pos);
    if (end == std::string::npos) end = text.size();
    const std::string entry = text.substr(pos, end - pos);
    const std::size_t colon = entry.find(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= entry.size()) {
      throw std::invalid_argument("bad commit_share entry: " + entry);
    }
    try {
      const auto id = static_cast<types::NodeId>(
          std::stoul(entry.substr(0, colon)));
      counts[id] += std::stoull(entry.substr(colon + 1));
    } catch (const std::invalid_argument&) {
      throw std::invalid_argument("bad commit_share entry: " + entry);
    } catch (const std::out_of_range&) {
      throw std::invalid_argument("bad commit_share entry: " + entry);
    }
    pos = end + 1;
  }
  return counts;
}

DemocracyScalars democracy_scalars(
    const std::map<types::NodeId, std::uint64_t>& counts,
    std::uint32_t n_replicas, std::uint32_t byz_no) {
  DemocracyScalars s;
  if (n_replicas == 0) return s;
  std::uint64_t total = 0, honest = 0, top = 0;
  // Dense count vector over all replicas: silent replicas are zeros —
  // they drag the Gini up exactly like disenfranchised voters should.
  std::vector<std::uint64_t> dense(n_replicas, 0);
  for (const auto& [id, count] : counts) {
    total += count;
    if (count > top) top = count;
    if (!core::Config::is_byzantine(id, n_replicas, byz_no)) honest += count;
    if (id < n_replicas) dense[id] = count;
  }
  if (total == 0) return s;
  s.chain_quality =
      static_cast<double>(honest) / static_cast<double>(total);
  s.commit_share_max =
      static_cast<double>(top) / static_cast<double>(total);
  // Gini over the ascending-sorted counts:
  //   G = (2 * sum_i i * x_i) / (n * sum x) - (n + 1) / n,  i in 1..n.
  std::sort(dense.begin(), dense.end());
  double weighted = 0;
  for (std::size_t i = 0; i < dense.size(); ++i) {
    weighted += static_cast<double>(i + 1) * static_cast<double>(dense[i]);
  }
  const double n = static_cast<double>(n_replicas);
  s.proposer_gini =
      2.0 * weighted / (n * static_cast<double>(total)) - (n + 1.0) / n;
  return s;
}

void RunResult::set_latency_hist(const util::LatencyHistogram& hist) {
  if (hist.empty()) return;
  hist_p50_ms = hist.quantile(0.50);
  hist_p99_ms = hist.quantile(0.99);
  hist_p999_ms = hist.quantile(0.999);
  latency_hist = hist.encode();
}

void RunResult::set_commit_share(
    const std::map<types::NodeId, std::uint64_t>& counts,
    std::uint32_t n_replicas, std::uint32_t byz_no) {
  commit_share = encode_commit_share(counts);
  const DemocracyScalars dem = democracy_scalars(counts, n_replicas, byz_no);
  chain_quality = dem.chain_quality;
  commit_share_max = dem.commit_share_max;
  proposer_gini = dem.proposer_gini;
}

namespace {

using Driver = client::WorkloadDriver;

// Window-counter readers for the metric table. Each returns a running
// total that never decreases over a run.

/// A stat of the metrics observer (replica 0, never crash-restarted).
template <auto M>
std::uint64_t observer_total(const Cluster& cluster, const Driver&) {
  return cluster.replica(0).stats().*M;
}

/// A replica stat summed over the cluster, plus the instances torn down
/// by crash-restart (a rebuilt replica restarts its own stats at zero).
template <auto M>
std::uint64_t replica_total(const Cluster& cluster, const Driver&) {
  std::uint64_t total = cluster.retired_stats().*M;
  for (types::NodeId id = 0; id < cluster.size(); ++id) {
    total += cluster.replica(id).stats().*M;
  }
  return total;
}

/// A syncer stat summed like replica_total: sync and snapshot transfer
/// happen at the lagging replicas.
template <auto M>
std::uint64_t sync_total(const Cluster& cluster, const Driver&) {
  std::uint64_t total = cluster.retired_sync_stats().*M;
  for (types::NodeId id = 0; id < cluster.size(); ++id) {
    total += cluster.replica(id).sync_stats().*M;
  }
  return total;
}

/// A mempool counter summed like replica_total: every replica owns a pool.
template <auto Count, auto Retired>
std::uint64_t pool_total(const Cluster& cluster, const Driver&) {
  std::uint64_t total = (cluster.*Retired)();
  for (types::NodeId id = 0; id < cluster.size(); ++id) {
    total += (cluster.replica(id).pool().*Count)();
  }
  return total;
}

/// A store stat summed over the Cluster-owned stores, which survive
/// crash-restarts.
template <auto M>
std::uint64_t store_total(const Cluster& cluster, const Driver&) {
  std::uint64_t total = 0;
  for (types::NodeId id = 0; id < cluster.size(); ++id) {
    total += cluster.store(id).stats().*M;
  }
  return total;
}

}  // namespace

const std::vector<Metric>& run_metrics() {
  using report::CiSet;
  using sync::SyncStats;
  using core::ReplicaStats;
  static const std::vector<Metric> metrics = {
      {"throughput_tps", &RunResult::throughput_tps, Fold::kMeanCi, nullptr,
       &CiSet::throughput_tps},
      {"latency_ms_mean", &RunResult::latency_ms_mean, Fold::kMeanCi, nullptr,
       &CiSet::latency_ms_mean},
      {"latency_ms_p50", &RunResult::latency_ms_p50, Fold::kMeanCi, nullptr,
       &CiSet::latency_ms_p50},
      {"latency_ms_p99", &RunResult::latency_ms_p99, Fold::kMeanCi, nullptr,
       &CiSet::latency_ms_p99},
      {"cgr_per_view", &RunResult::cgr_per_view, Fold::kMeanCi, nullptr,
       &CiSet::cgr_per_view},
      {"cgr_per_block", &RunResult::cgr_per_block, Fold::kMeanCi, nullptr,
       &CiSet::cgr_per_block},
      {"block_interval", &RunResult::block_interval, Fold::kMeanCi, nullptr,
       &CiSet::block_interval},
      {"measured_s", &RunResult::measured_s, Fold::kSumOverReps},
      {"latency_samples", &RunResult::latency_samples, Fold::kCount},
      {"views", &RunResult::views, Fold::kCount,
       [](const Cluster& c, const Driver&) {
         return c.replica(0).current_view();
       }},
      {"blocks_committed", &RunResult::blocks_committed, Fold::kCount,
       observer_total<&ReplicaStats::blocks_committed>},
      {"blocks_received", &RunResult::blocks_received, Fold::kCount,
       observer_total<&ReplicaStats::blocks_received>},
      {"blocks_forked", &RunResult::blocks_forked, Fold::kCount,
       observer_total<&ReplicaStats::blocks_forked>},
      {"timeouts", &RunResult::timeouts, Fold::kCount,
       [](const Cluster& c, const Driver&) { return c.total_timeouts(); }},
      {"rejected", &RunResult::rejected, Fold::kCount,
       [](const Cluster&, const Driver& d) { return d.stats().rejected; }},
      {"net_bytes", &RunResult::net_bytes, Fold::kCount,
       [](const Cluster& c, const Driver&) {
         return c.network().bytes_sent();
       }},
      {"sync_requests", &RunResult::sync_requests, Fold::kCount,
       sync_total<&SyncStats::requests_sent>},
      {"sync_blocks", &RunResult::sync_blocks, Fold::kCount,
       sync_total<&SyncStats::blocks_applied>},
      {"sync_bytes", &RunResult::sync_bytes, Fold::kCount,
       sync_total<&SyncStats::bytes_received>},
      {"certs_verified", &RunResult::certs_verified, Fold::kCount,
       replica_total<&ReplicaStats::certs_verified>},
      {"certs_rejected", &RunResult::certs_rejected, Fold::kCount,
       replica_total<&ReplicaStats::certs_rejected>},
      {"recovery_ms", &RunResult::recovery_ms, Fold::kNonZeroMean},
      {"disk_bytes_written", &RunResult::disk_bytes_written, Fold::kCount,
       store_total<&storage::StoreStats::bytes_written>},
      {"write_amplification", &RunResult::write_amplification,
       Fold::kNonZeroMean},
      {"store_reads", &RunResult::store_reads, Fold::kCount,
       store_total<&storage::StoreStats::reads>},
      {"snapshot_bytes", &RunResult::snapshot_bytes, Fold::kCount,
       sync_total<&SyncStats::snapshot_bytes_received>},
      {"snapshot_chunks", &RunResult::snapshot_chunks, Fold::kCount,
       sync_total<&SyncStats::snapshot_chunks_received>},
      {"snapshots_installed", &RunResult::snapshots_installed, Fold::kCount,
       sync_total<&SyncStats::snapshots_installed>},
      {"snapshots_rejected", &RunResult::snapshots_rejected, Fold::kCount,
       sync_total<&SyncStats::snapshots_rejected>},
      {"restarts", &RunResult::restarts, Fold::kCount,
       [](const Cluster& c, const Driver&) { return c.restarts(); }},
      {"offered_tps", &RunResult::offered_tps, Fold::kMean},
      {"hist_p50_ms", &RunResult::hist_p50_ms, Fold::kDerived},
      {"hist_p99_ms", &RunResult::hist_p99_ms, Fold::kDerived},
      {"hist_p999_ms", &RunResult::hist_p999_ms, Fold::kDerived},
      {"mem_admitted", &RunResult::mem_admitted, Fold::kCount,
       pool_total<&mempool::Mempool::admitted_count,
                  &Cluster::retired_mem_admitted>},
      {"mem_rejected", &RunResult::mem_rejected, Fold::kCount,
       pool_total<&mempool::Mempool::rejected_count,
                  &Cluster::retired_mem_rejected>},
      {"latency_hist", &RunResult::latency_hist, Fold::kPooledHist},
      {"commit_share", &RunResult::commit_share, Fold::kPooledShare},
      {"chain_quality", &RunResult::chain_quality, Fold::kDerived},
      {"commit_share_max", &RunResult::commit_share_max, Fold::kDerived},
      {"proposer_gini", &RunResult::proposer_gini, Fold::kDerived},
      {"consistent", &RunResult::consistent, Fold::kAll},
      {"safety_violations", &RunResult::safety_violations, Fold::kSum},
  };
  return metrics;
}

namespace {

/// The metrics observer: replica 0's commits inside the measurement
/// window, folded into block intervals and per-proposer commit counts
/// (the democracy metrics).
struct MetricsObserver final : core::ReplicaObserver {
  bool measuring = false;
  util::RunningStats block_intervals;
  std::map<types::NodeId, std::uint64_t> proposer_counts;

  void on_commit(const core::Replica& replica,
                 const types::BlockPtr& block) override {
    if (replica.id() != 0 || !measuring) return;
    ++proposer_counts[block->proposer()];
    const types::View commit_view = replica.current_view();
    if (commit_view > block->view()) {
      block_intervals.add(static_cast<double>(commit_view - block->view()));
    }
  }
};

/// Every window counter's running total at one window edge, plus the
/// store's logical bytes (the write-amplification denominator, which is
/// not a metric of its own).
struct Snapshot {
  RunResult totals;
  std::uint64_t logical_bytes = 0;

  static Snapshot of(const Cluster& cluster, const Driver& driver) {
    Snapshot s;
    for (const Metric& m : run_metrics()) {
      if (m.read == nullptr) continue;
      s.totals.*std::get<std::uint64_t RunResult::*>(m.member) =
          m.read(cluster, driver);
    }
    s.logical_bytes =
        store_total<&storage::StoreStats::logical_bytes>(cluster, driver);
    return s;
  }
};

RunResult finalize(Cluster& cluster, Driver& driver, const MetricsObserver& obs,
                   const Snapshot& before, const Snapshot& after) {
  RunResult r;
  for (const Metric& m : run_metrics()) {
    if (m.read == nullptr) continue;
    const auto member = std::get<std::uint64_t RunResult::*>(m.member);
    r.*member = after.totals.*member - before.totals.*member;
  }

  r.measured_s = driver.measured_seconds();
  r.throughput_tps =
      r.measured_s > 0
          ? static_cast<double>(driver.measured_completed()) / r.measured_s
          : 0.0;
  r.offered_tps =
      r.measured_s > 0
          ? static_cast<double>(driver.measured_issued()) / r.measured_s
          : 0.0;
  auto& lat = driver.latencies_ms();
  r.latency_samples = lat.count();
  if (!lat.empty()) {
    r.latency_ms_mean = lat.mean();
    r.latency_ms_p50 = lat.percentile(50);
    r.latency_ms_p99 = lat.percentile(99);
  }
  r.set_latency_hist(driver.latency_hist());

  const std::uint64_t logical = after.logical_bytes - before.logical_bytes;
  r.write_amplification =
      logical > 0 ? static_cast<double>(r.disk_bytes_written) /
                        static_cast<double>(logical)
                  : 0.0;
  r.cgr_per_view = r.views > 0 ? static_cast<double>(r.blocks_committed) /
                                     static_cast<double>(r.views)
                               : 0.0;
  r.cgr_per_block =
      r.blocks_received > 0
          ? static_cast<double>(r.blocks_committed) /
                static_cast<double>(r.blocks_received)
          : 0.0;
  r.block_interval = obs.block_intervals.mean();
  r.set_commit_share(obs.proposer_counts, cluster.config().n_replicas,
                     cluster.config().byz_no);

  r.consistent = cluster.check_consistency().consistent;
  for (types::NodeId id = 0; id < cluster.size(); ++id) {
    r.safety_violations += cluster.replica(id).stats().safety_violations;
  }
  return r;
}

client::WorkloadConfig with_payload(const client::WorkloadConfig& wl,
                                    const core::Config& cfg) {
  client::WorkloadConfig out = wl;
  out.payload_size = cfg.psize;
  return out;
}

[[noreturn]] void churn_fail(const core::ChurnEvent& ev,
                             const std::string& why) {
  throw std::invalid_argument("churn event '" +
                              core::format_churn({ev}) + "': " + why);
}

/// Resolve an event's link target into directed (from, to) pairs over the
/// cluster's endpoints, range-checking every id against the config.
std::vector<std::pair<types::NodeId, types::NodeId>> target_links(
    const core::ChurnEvent& ev, const core::Config& cfg) {
  const std::uint32_t n = cfg.num_endpoints();
  std::vector<std::pair<types::NodeId, types::NodeId>> pairs;
  const auto both = [&pairs](types::NodeId a, types::NodeId b) {
    pairs.emplace_back(a, b);
    pairs.emplace_back(b, a);
  };
  switch (ev.target) {
    case core::ChurnTarget::kAll:
      for (types::NodeId from = 0; from < n; ++from) {
        for (types::NodeId to = 0; to < n; ++to) {
          if (from != to) pairs.emplace_back(from, to);
        }
      }
      break;
    case core::ChurnTarget::kLink:
      if (ev.a >= n || ev.b >= n) {
        churn_fail(ev, "link endpoint out of range (have " +
                           std::to_string(n) + " endpoints)");
      }
      if (ev.directed) {
        pairs.emplace_back(ev.a, ev.b);
      } else {
        both(ev.a, ev.b);
      }
      break;
    case core::ChurnTarget::kReplica:
      if (ev.a >= n) {
        churn_fail(ev, "endpoint out of range (have " + std::to_string(n) +
                           " endpoints)");
      }
      for (types::NodeId other = 0; other < n; ++other) {
        if (other != ev.a) both(ev.a, other);
      }
      break;
    case core::ChurnTarget::kRegion: {
      // Round-robin regions as in the wan topology: replica i is in region
      // i % regions. Degrade every link CROSSING the region boundary, both
      // directions — the region's uplink; intra-region links stay LAN.
      // The DSL parser guarantees 1 <= regions and region < regions, but a
      // programmatic FaultPlan can hand us anything (regions defaults to
      // 0, which would be a modulo-by-zero SIGFPE below).
      if (ev.regions < 1 || ev.region >= ev.regions) {
        churn_fail(ev, "region target wants region < regions and "
                       "regions >= 1");
      }
      const auto in_region = [&](types::NodeId id) {
        return id < cfg.n_replicas && id % ev.regions == ev.region;
      };
      for (types::NodeId from = 0; from < n; ++from) {
        for (types::NodeId to = 0; to < n; ++to) {
          if (from == to) continue;
          if (in_region(from) != in_region(to)) pairs.emplace_back(from, to);
        }
      }
      break;
    }
    case core::ChurnTarget::kLeader:
      if (ev.a >= cfg.n_replicas) {
        churn_fail(ev, "leader replica out of range (have " +
                           std::to_string(cfg.n_replicas) + " replicas)");
      }
      for (types::NodeId to = 0; to < n; ++to) {
        if (to != ev.a) pairs.emplace_back(ev.a, to);  // outbound only
      }
      break;
    case core::ChurnTarget::kLeaderFollow:
      // The follow target is resolved dynamically by install_churn's
      // observer, never to a static link set (and only degrade/restore
      // support it — the DSL parser enforces the same).
      churn_fail(ev, "leader=follow is only valid on degrade/restore");
  }
  return pairs;
}

/// Expand a partition event into SimNetwork's group-of-endpoint vector.
/// Endpoints not named by any group (client hosts, unlisted replicas or
/// regions) join the FIRST group, so the observer side keeps its clients.
std::vector<int> partition_of(const core::ChurnEvent& ev,
                              const core::Config& cfg) {
  std::vector<int> group(cfg.num_endpoints(), 0);
  std::vector<bool> assigned(cfg.num_endpoints(), false);
  const auto assign = [&](types::NodeId id, int g) {
    if (assigned[id]) {
      churn_fail(ev, "replica " + std::to_string(id) +
                         " appears in two partition groups");
    }
    assigned[id] = true;
    group[id] = g;
  };
  for (std::size_t g = 0; g < ev.groups.size(); ++g) {
    for (std::uint32_t member : ev.groups[g]) {
      if (ev.regions > 0) {
        // Region form: member is a region id. The parser validates both,
        // but a programmatic schedule may not have been through it.
        if (member >= ev.regions) {
          churn_fail(ev, "region id " + std::to_string(member) +
                             " out of range for " +
                             std::to_string(ev.regions) + " regions");
        }
        for (types::NodeId id = 0; id < cfg.n_replicas; ++id) {
          if (id % ev.regions == member) assign(id, static_cast<int>(g));
        }
      } else {
        if (member >= cfg.n_replicas) {
          churn_fail(ev, "replica " + std::to_string(member) +
                             " out of range (have " +
                             std::to_string(cfg.n_replicas) + " replicas)");
        }
        assign(member, static_cast<int>(g));
      }
    }
  }
  return group;
}

// --- the churn engine's state and observer ---------------------------------

/// What one schedule's events share, and their observer on the replica
/// seam. The cluster owns it; the event closures hold a pointer.
struct ChurnState final : core::ReplicaObserver {
  // Overlapping windows: a window's end must not clobber another window
  // still open on the same knob (the latest-started open window wins,
  // matching the overwrite order of the start callbacks). Keyed by a
  // per-install monotonically increasing window id.
  struct FluctWindow {
    int id;
    sim::Duration lo, hi;
  };
  struct BurstEntry {
    int id;
    double loss;
  };
  /// An open recovery event: the height its laggards must reach.
  struct Recovery {
    std::size_t event = 0;  ///< index into probe->events
    types::Height target = 0;
    std::vector<types::NodeId> lagging;
    bool any_caught_up = false;
  };
  /// One leader-follow degradation.
  struct Follow {
    bool active = false;
    double applied_ns = 0;      ///< outbound delta currently on `current`
    types::NodeId current = 0;  ///< leader carrying the degradation
  };

  ChurnState(Cluster& c, RecoveryProbe* p) : cluster(c), probe(p) {}

  Cluster& cluster;
  RecoveryProbe* probe;
  std::vector<FluctWindow> fluct;  // open fluct windows, start order
  // Open burst windows per directed link, start order.
  std::map<std::pair<types::NodeId, types::NodeId>, std::vector<BurstEntry>>
      burst;
  int next_window = 0;
  std::vector<Recovery> recoveries;
  /// '@timeout' events, fired at the first timeout of an honest replica.
  std::vector<std::function<void()>> on_first_timeout;
  std::vector<Follow> follows;
  types::View max_view = 1;  ///< highest view entered cluster-wide

  /// A healing moment: open a recovery event when honest live replicas
  /// lag the highest committed height among them.
  void heal() {
    if (probe == nullptr) return;
    Recovery open;
    std::vector<std::pair<types::NodeId, types::Height>> live;
    for (types::NodeId id = 0; id < cluster.size(); ++id) {
      const core::Replica& r = cluster.replica(id);
      if (r.is_byzantine() || r.crashed()) continue;
      live.emplace_back(id, r.forest().committed_height());
      open.target = std::max(open.target, live.back().second);
    }
    for (const auto& [id, height] : live) {
      if (height < open.target) open.lagging.push_back(id);
    }
    if (open.lagging.empty()) return;
    open.event = probe->events.size();
    probe->events.push_back({sim::to_seconds(cluster.simulator().now()), -1});
    recoveries.push_back(std::move(open));
  }

  /// `replica` reached a target (`progress`) or crashed: take it off those
  /// events' laggards, closing the events it was the last laggard of.
  void settle(const core::Replica& replica, bool progress) {
    const types::Height height = replica.forest().committed_height();
    std::erase_if(recoveries, [&](Recovery& ev) {
      if (progress && height < ev.target) return false;
      if (std::erase(ev.lagging, replica.id()) == 0) return false;
      ev.any_caught_up = ev.any_caught_up || progress;
      if (!ev.lagging.empty()) return false;
      // If the list emptied only through crashes, nothing recovered —
      // recording "recovered now" would skew recovery_ms downward.
      RecoveryProbe::Event& out = probe->events[ev.event];
      out.abandoned = !ev.any_caught_up;
      if (ev.any_caught_up) out.recovered_at_s = sim::to_seconds(replica.now());
      return true;
    });
  }

  /// Add `delta_ns` to every outbound link of `from`.
  void shift(types::NodeId from, double delta_ns) {
    const std::uint32_t n = cluster.config().num_endpoints();
    for (types::NodeId to = 0; to < n; ++to) {
      if (to != from) cluster.network().degrade_link(from, to, delta_ns);
    }
  }

  /// Stop every leader-follow degradation, lifting exactly the delta it
  /// applied (not a full baseline reset — concurrent mutations like an
  /// open loss burst on the carrier's links must survive).
  void stop_follows() {
    for (Follow& fs : follows) {
      if (!fs.active) continue;
      shift(fs.current, -fs.applied_ns);
      fs.active = false;
      fs.applied_ns = 0;
    }
  }

  void on_commit(const core::Replica& r, const types::BlockPtr&) override {
    settle(r, /*progress=*/true);
  }
  void on_snapshot_installed(const core::Replica& r,
                             const types::BlockPtr&) override {
    settle(r, /*progress=*/true);
  }
  void on_crash(const core::Replica& r) override {
    settle(r, /*progress=*/false);
  }
  /// Each fire is scheduled at this instant, never run inside the
  /// emission: a crash-restart would destroy the replica calling out.
  void on_timeout(const core::Replica& r, types::View) override {
    if (on_first_timeout.empty() || r.is_byzantine()) return;
    for (std::function<void()>& fire : on_first_timeout) {
      cluster.simulator().schedule_after(0, std::move(fire));
    }
    on_first_timeout.clear();
  }
  /// Move every active leader-follow delta onto the new view's leader,
  /// inline: the one mutation an observer makes.
  void on_enter_view(const core::Replica&, types::View view) override {
    if (follows.empty() || view <= max_view) return;
    max_view = view;
    const types::NodeId leader = cluster.election().leader(view);
    for (Follow& fs : follows) {
      if (!fs.active || fs.current == leader) continue;
      shift(fs.current, -fs.applied_ns);
      shift(leader, fs.applied_ns);
      fs.current = leader;
    }
  }
};

// --- repeating events ------------------------------------------------------

struct Repeat {
  std::function<void()> fire;
  sim::Duration period;
};

void schedule_repeating(sim::Simulator& simulator, sim::Time at,
                        const std::shared_ptr<Repeat>& repeat) {
  simulator.schedule_at(at, [&simulator, repeat] {
    repeat->fire();
    // Self-rescheduling keeps exactly one pending occurrence; whatever is
    // pending when the run's horizon ends simply never executes.
    schedule_repeating(simulator, simulator.now() + repeat->period, repeat);
  });
}

}  // namespace

double RecoveryProbe::mean_ms(double end_s) const {
  double sum = 0;
  std::size_t measurable = 0;
  for (const Event& ev : events) {
    if (ev.abandoned) continue;
    const double recovered =
        ev.recovered_at_s >= 0 ? ev.recovered_at_s : end_s;
    sum += (recovered - ev.heal_at_s) * 1e3;
    ++measurable;
  }
  return measurable > 0 ? sum / static_cast<double>(measurable) : 0.0;
}

core::ChurnSchedule effective_churn(const FaultPlan& faults,
                                    const core::Config& cfg) {
  core::ChurnSchedule schedule = faults.schedule;
  if (!cfg.churn.empty()) {
    const core::ChurnSchedule parsed = core::parse_churn(cfg.churn);
    schedule.insert(schedule.end(), parsed.begin(), parsed.end());
  }
  return schedule;
}

void install_churn(Cluster& cluster, const core::ChurnSchedule& schedule,
                   RecoveryProbe* probe) {
  if (schedule.empty()) return;
  auto& simulator = cluster.simulator();
  const core::Config& cfg = cluster.config();
  ChurnState* const state =
      &cluster.attach(std::make_unique<ChurnState>(cluster, probe));

  for (const core::ChurnEvent& ev : schedule) {
    const sim::Time at = sim::from_seconds(ev.at_s);
    // One-shot events are scheduled at install time; every=<dur> events
    // self-reschedule. '@timeout' events (whose at_s is 0) wait for the
    // first timeout of an honest replica, which the observer sees without
    // drawing or sending anything — so an armed trigger that never trips
    // perturbs nothing.
    const auto fire_at = [&](std::function<void()> fire) {
      if (ev.on_timeout) {
        state->on_first_timeout.push_back(std::move(fire));
      } else if (ev.every_s <= 0) {
        simulator.schedule_at(at, std::move(fire));
      } else {
        schedule_repeating(
            simulator, at,
            std::make_shared<Repeat>(
                Repeat{std::move(fire), sim::from_seconds(ev.every_s)}));
      }
    };
    switch (ev.kind) {
      case core::ChurnKind::kLinkDegrade: {
        if (ev.target == core::ChurnTarget::kLeaderFollow) {
          const std::size_t k = state->follows.size();
          state->follows.emplace_back();
          const double extra_ns =
              ev.extra_ms * static_cast<double>(sim::kMillisecond);
          fire_at([state, k, extra_ns] {
            ChurnState::Follow& fs = state->follows[k];
            if (!fs.active) {
              fs.active = true;
              fs.current = state->cluster.election().leader(state->max_view);
            }
            fs.applied_ns += extra_ns;
            state->shift(fs.current, extra_ns);
          });
          break;
        }
        auto pairs = target_links(ev, cfg);
        const double extra_ns =
            ev.extra_ms * static_cast<double>(sim::kMillisecond);
        fire_at([&cluster, pairs = std::move(pairs), extra_ns] {
          for (const auto& [from, to] : pairs) {
            cluster.network().degrade_link(from, to, extra_ns);
          }
        });
        break;
      }
      case core::ChurnKind::kLinkRestore: {
        if (ev.target == core::ChurnTarget::kLeaderFollow ||
            ev.target == core::ChurnTarget::kAll) {
          const bool all = ev.target == core::ChurnTarget::kAll;
          fire_at([&cluster, state, all] {
            // A full reset also stops any leader-following degradation —
            // otherwise the observer would keep moving a delta that the
            // reset just wiped.
            state->stop_follows();
            if (all) cluster.network().restore_all_links();
            state->heal();
          });
          break;
        }
        auto pairs = target_links(ev, cfg);
        fire_at([&cluster, state, pairs = std::move(pairs)] {
          for (const auto& [from, to] : pairs) {
            cluster.network().restore_link(from, to);
          }
          // A targeted restore that reset an active follow-carrier's
          // outbound link wiped the follow delta with it: re-impose it,
          // so the later rotation subtraction still lands at baseline.
          for (const ChurnState::Follow& fs : state->follows) {
            if (!fs.active) continue;
            for (const auto& [from, to] : pairs) {
              if (from == fs.current && to != fs.current) {
                cluster.network().degrade_link(from, to, fs.applied_ns);
              }
            }
          }
          state->heal();
        });
        break;
      }
      case core::ChurnKind::kPartitionStart: {
        auto groups = partition_of(ev, cfg);
        simulator.schedule_at(at, [&cluster, groups = std::move(groups)] {
          cluster.network().set_partition(groups);
        });
        break;
      }
      case core::ChurnKind::kPartitionHeal:
        simulator.schedule_at(at, [&cluster, state] {
          cluster.network().set_partition({});
          state->heal();
        });
        break;
      case core::ChurnKind::kLossBurst: {
        auto pairs = target_links(ev, cfg);
        const double loss = ev.loss;
        const auto begin_burst = [&cluster, state, loss](const auto& links,
                                                         int id) {
          for (const auto& [from, to] : links) {
            state->burst[{from, to}].push_back(
                ChurnState::BurstEntry{id, loss});
            cluster.network().set_link_loss(from, to, loss);
          }
        };
        const auto end_burst = [&cluster, state](const auto& links, int id) {
          bool healed = false;
          for (const auto& [from, to] : links) {
            auto& open = state->burst[{from, to}];
            std::erase_if(open, [id](const ChurnState::BurstEntry& e) {
              return e.id == id;
            });
            if (open.empty()) {
              cluster.network().restore_link_loss(from, to);
              healed = true;
            } else {
              // Another burst still covers this link: reapply the
              // latest-started one instead of the baseline.
              cluster.network().set_link_loss(from, to, open.back().loss);
            }
          }
          // Only a burst end that actually returned a link to baseline is
          // a healing moment; the end of a window nested inside a wider
          // one changes nothing and must not arm the probe.
          if (healed) state->heal();
        };
        if (ev.every_s <= 0) {
          const int id = state->next_window++;
          simulator.schedule_at(at, [begin_burst, pairs, id] {
            begin_burst(pairs, id);
          });
          simulator.schedule_at(sim::from_seconds(ev.at_s + ev.for_s),
                                [end_burst, pairs = std::move(pairs), id] {
                                  end_burst(pairs, id);
                                });
        } else {
          // Each occurrence opens its own window and schedules its own
          // end relative to the fire time.
          const sim::Duration window = sim::from_seconds(ev.for_s);
          fire_at([&simulator, state, begin_burst, end_burst,
                   pairs = std::move(pairs), window] {
            const int id = state->next_window++;
            begin_burst(pairs, id);
            simulator.schedule_after(window, [end_burst, pairs, id] {
              end_burst(pairs, id);
            });
          });
        }
        break;
      }
      case core::ChurnKind::kFluctuation: {
        const sim::Duration lo = sim::from_milliseconds(ev.lo_ms);
        const sim::Duration hi = sim::from_milliseconds(ev.hi_ms);
        const auto begin_fluct = [&cluster, state, lo, hi](int id) {
          state->fluct.push_back(ChurnState::FluctWindow{id, lo, hi});
          cluster.network().set_fluctuation(lo, hi);
        };
        const auto end_fluct = [&cluster, state](int id) {
          std::erase_if(state->fluct, [id](const ChurnState::FluctWindow& w) {
            return w.id == id;
          });
          if (state->fluct.empty()) {
            cluster.network().set_fluctuation(0, 0);
          } else {
            const ChurnState::FluctWindow& w = state->fluct.back();
            cluster.network().set_fluctuation(w.lo, w.hi);
          }
        };
        if (ev.every_s <= 0) {
          const int id = state->next_window++;
          simulator.schedule_at(at, [begin_fluct, id] { begin_fluct(id); });
          simulator.schedule_at(sim::from_seconds(ev.at_s + ev.for_s),
                                [end_fluct, id] { end_fluct(id); });
        } else {
          const sim::Duration window = sim::from_seconds(ev.for_s);
          fire_at([&simulator, state, begin_fluct, end_fluct, window] {
            const int id = state->next_window++;
            begin_fluct(id);
            simulator.schedule_after(window,
                                     [end_fluct, id] { end_fluct(id); });
          });
        }
        break;
      }
      case core::ChurnKind::kCrash:
      case core::ChurnKind::kSilence: {
        if (ev.a >= cfg.n_replicas) {
          churn_fail(ev, "replica out of range (have " +
                             std::to_string(cfg.n_replicas) + " replicas)");
        }
        const types::NodeId victim = ev.a;
        const bool hard = ev.kind == core::ChurnKind::kCrash;
        fire_at([&cluster, victim, hard] {
          if (hard) {
            cluster.crash_replica(victim);
          } else {
            cluster.silence_replica(victim);
          }
        });
        break;
      }
      case core::ChurnKind::kCrashRestart: {
        if (ev.a >= cfg.n_replicas) {
          churn_fail(ev, "replica out of range (have " +
                             std::to_string(cfg.n_replicas) + " replicas)");
        }
        if (ev.a == 0) {
          // A rebuilt observer restarts its stats at zero, so the
          // observer's window counters would run backwards.
          churn_fail(ev, "replica 0 is the metrics observer and cannot "
                         "crash-restart");
        }
        const types::NodeId victim = ev.a;
        const sim::Duration downtime = sim::from_seconds(ev.for_s);
        fire_at([&simulator, &cluster, victim, downtime, state] {
          cluster.crash_replica(victim);
          simulator.schedule_after(downtime, [&cluster, victim, state] {
            cluster.restart_replica(victim);
            // The rebuilt replica rejoins at its recovered height; the
            // probe measures how long it lags the rest of the cluster.
            state->heal();
          });
        });
        break;
      }
    }
  }
}

RunOutput execute_full(const RunSpec& spec, core::ReplicaObserver* observer) {
  // Declared before the cluster, whose observers write into them.
  RecoveryProbe probe;
  MetricsObserver metrics;
  metrics.measuring = spec.measure_whole_run;
  Cluster cluster(spec.cfg);
  cluster.attach(metrics);
  if (observer != nullptr) cluster.attach(*observer);

  client::WorkloadDriver driver(cluster.simulator(), cluster.network(),
                                cluster.config(),
                                with_payload(spec.workload, spec.cfg));

  // The simulated span: whole-run mode never executes the warm-up window.
  const double horizon_s = spec.measure_whole_run
                               ? spec.opts.measure_s
                               : spec.opts.warmup_s + spec.opts.measure_s;
  std::unique_ptr<util::TimelineCounter> timeline;
  if (spec.timeline_bucket_s > 0) {
    timeline = std::make_unique<util::TimelineCounter>(spec.timeline_bucket_s,
                                                       horizon_s);
    driver.set_timeline(timeline.get());
  }
  driver.install();
  install_churn(cluster, effective_churn(spec.faults, spec.cfg), &probe);

  cluster.start();
  driver.start();

  Snapshot before{};  // zero baseline (whole-run mode)
  if (spec.measure_whole_run) {
    driver.begin_measurement();
  } else {
    cluster.simulator().run_for(sim::from_seconds(spec.opts.warmup_s));
    before = Snapshot::of(cluster, driver);
    driver.begin_measurement();
    metrics.measuring = true;
  }

  cluster.simulator().run_for(sim::from_seconds(spec.opts.measure_s));
  metrics.measuring = false;
  driver.end_measurement();
  const Snapshot after = Snapshot::of(cluster, driver);
  driver.stop();

  RunOutput out;
  out.events_executed = cluster.simulator().events_executed();
  out.result = finalize(cluster, driver, metrics, before, after);
  out.result.recovery_ms =
      probe.mean_ms(sim::to_seconds(cluster.simulator().now()));
  if (timeline) {
    const auto buckets =
        static_cast<std::size_t>(horizon_s / spec.timeline_bucket_s);
    out.bucket_start_s.reserve(buckets);
    out.tx_per_s.reserve(buckets);
    for (std::size_t i = 0; i < buckets && i < timeline->num_buckets(); ++i) {
      out.bucket_start_s.push_back(timeline->bucket_start(i));
      out.tx_per_s.push_back(timeline->rate(i));
    }
  }
  return out;
}

RunResult execute(const RunSpec& spec) {
  return execute_full(spec).result;
}

std::vector<RunSpec> closed_loop_specs(
    const core::Config& cfg, const client::WorkloadConfig& base_wl,
    const std::vector<std::uint32_t>& concurrencies, const RunOptions& opts) {
  std::vector<RunSpec> specs;
  specs.reserve(concurrencies.size());
  for (std::uint32_t c : concurrencies) {
    RunSpec spec;
    spec.cfg = cfg;
    spec.workload = base_wl;
    spec.workload.mode = client::LoadMode::kClosedLoop;
    spec.workload.concurrency = c;
    spec.opts = opts;
    spec.offered = static_cast<double>(c);
    specs.push_back(std::move(spec));
  }
  return specs;
}

std::vector<RunSpec> open_loop_specs(const core::Config& cfg,
                                     const client::WorkloadConfig& base_wl,
                                     const std::vector<double>& rates_tps,
                                     const RunOptions& opts) {
  std::vector<RunSpec> specs;
  specs.reserve(rates_tps.size());
  for (double rate : rates_tps) {
    RunSpec spec;
    spec.cfg = cfg;
    spec.workload = base_wl;
    spec.workload.mode = client::LoadMode::kOpenLoop;
    spec.workload.arrival_rate_tps = rate;
    spec.opts = opts;
    spec.offered = rate;
    specs.push_back(std::move(spec));
  }
  return specs;
}

RunSpec timeline_spec(const core::Config& cfg,
                      const client::WorkloadConfig& wl, double horizon_s,
                      double bucket_s) {
  RunSpec spec;
  spec.cfg = cfg;
  spec.workload = wl;
  spec.opts.warmup_s = 0;
  spec.opts.measure_s = horizon_s;
  spec.measure_whole_run = true;
  spec.timeline_bucket_s = bucket_s;
  return spec;
}

}  // namespace bamboo::harness
