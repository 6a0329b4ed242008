#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "net/link_model.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "types/messages.h"

namespace bamboo::net {

/// Network-level parameters (a subset of core::Config, duplicated here so
/// the transport has no dependency on the consensus configuration).
struct NetConfig {
  double bandwidth_bps = 1e9;       ///< per-endpoint NIC, each direction
  sim::Duration rtt_mean = sim::milliseconds(1);      ///< µ (round trip)
  sim::Duration rtt_stddev = sim::microseconds(100);  ///< σ (round trip)
  sim::Duration added_delay = 0;         ///< Table I "delay" (one-way)
  sim::Duration added_delay_jitter = 0;  ///< stddev of the added delay
  sim::Duration min_one_way = sim::microseconds(20);

  // --- WAN scenario engine ------------------------------------------------
  /// Link delay distribution family ("normal" | "uniform" | "lognormal" |
  /// "pareto"). "normal" is bit-compatible with the original transport.
  std::string link_model = "normal";
  /// Family shape: lognormal log-σ / pareto tail α / uniform half-width as
  /// a fraction of the mean. 0 = family default.
  double link_shape = 0;
  /// Independent per-message loss probability applied to every link.
  double link_loss = 0;
  /// Named topology scenario (see topology.h): "uniform", "wan:...",
  /// "slow-replica:...", "slow-leader:...".
  std::string topology = "uniform";
  /// Gilbert-Elliott bursty-loss channel applied to every link (see
  /// LinkSpec); ge_p == 0 disables it and costs no RNG.
  double ge_p = 0;
  double ge_r = 0;
  double ge_loss_good = 0;
  double ge_loss_bad = 1.0;
  /// Endpoints [0, n_replicas) are replicas (topology scenarios only
  /// perturb replica links); 0 means every endpoint is a replica.
  std::uint32_t n_replicas = 0;
};

/// Derive the base (LAN) LinkSpec the topology replicates: the configured
/// family centered on the one-way delay rtt_mean/2. For the normal family
/// the Table I added delay stays a separate conditional draw
/// (bit-compatibility with the pre-LinkModel schedule); the other families
/// fold its mean into their location so distributions compare at equal
/// mean, with the delay jitter riding as a zero-mean Normal component.
[[nodiscard]] LinkSpec base_link_spec(const NetConfig& config);

/// A delivered message with its transport metadata.
struct Envelope {
  types::NodeId from = 0;
  types::NodeId to = 0;
  sim::Time sent_at = 0;
  std::uint64_t bytes = 0;
  types::MessagePtr msg;
};

/// Simulated message-passing transport (replaces Bamboo's Paxi-derived
/// TCP/Go-channel network). Per endpoint it models a
/// single-server egress queue and ingress queue at NIC bandwidth — giving
/// t_NIC = 2m/b exactly as in the paper's model — plus a per-message
/// one-way link delay and loss drawn from the per-ordered-pair LinkMatrix
/// (default: every pair ~ Normal(µ/2, σ/√2), bit-compatible with the
/// original single-distribution transport), runtime-adjustable extra
/// delays (the "slow" command / network fluctuation), partitions, and
/// crash drops.
///
/// Broadcast fans out as unicast copies through the sender's egress queue,
/// which is what makes leader bandwidth the scalability bottleneck.
class SimNetwork {
 public:
  using Handler = std::function<void(const Envelope&)>;

  SimNetwork(sim::Simulator& simulator, std::uint32_t num_endpoints,
             NetConfig config);

  void set_handler(types::NodeId endpoint, Handler handler);

  /// Queue a message from -> to. Self-sends bypass the NIC and the link.
  void send(types::NodeId from, types::NodeId to, types::MessagePtr msg);

  /// Send to every replica in [0, n_replicas) except `from`.
  void broadcast(types::NodeId from, std::uint32_t n_replicas,
                 const types::MessagePtr& msg);

  /// Crash / recover an endpoint: a down endpoint neither sends nor
  /// receives; in-flight messages to it are dropped on arrival.
  void set_down(types::NodeId endpoint, bool down);
  [[nodiscard]] bool is_down(types::NodeId endpoint) const;

  /// Inject symmetric extra one-way delay sampled uniformly from [lo, hi]
  /// per message (the paper's 10–100 ms network fluctuation). Pass (0, 0)
  /// to clear.
  void set_fluctuation(sim::Duration lo, sim::Duration hi);

  /// Assign endpoints to partition groups; messages across groups are
  /// dropped. Empty vector = no partition.
  void set_partition(std::vector<int> group_of_endpoint);

  // --- runtime link mutation (the churn engine) ---------------------------
  // The construction-time matrix is kept as the baseline; degradations and
  // loss overrides mutate the live matrix and restore_* resets from the
  // baseline. Mutations never touch the Gilbert-Elliott channel STATE —
  // a link that is mid-burst stays mid-burst.

  /// Shift the directed link's delay location by extra one-way ns
  /// (cumulative across calls; respects the family parameterization).
  void degrade_link(types::NodeId from, types::NodeId to, double extra_ns);
  /// Reset the directed link's full spec (delay, loss, GE parameters) to
  /// its construction-time baseline.
  void restore_link(types::NodeId from, types::NodeId to);
  /// Reset every link to the baseline matrix.
  void restore_all_links();
  /// Override the directed link's per-message Bernoulli loss probability.
  void set_link_loss(types::NodeId from, types::NodeId to, double loss);
  /// Reset the directed link's loss to its construction-time baseline,
  /// leaving delay mutations in place.
  void restore_link_loss(types::NodeId from, types::NodeId to);

  /// The per-ordered-pair delay/loss matrix this transport samples from.
  [[nodiscard]] const LinkMatrix& links() const { return links_; }
  /// The construction-time matrix restore_* resets from.
  [[nodiscard]] const LinkMatrix& base_links() const { return base_links_; }

  // --- statistics ---------------------------------------------------------
  [[nodiscard]] std::uint64_t messages_sent() const { return messages_sent_; }
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }
  [[nodiscard]] std::uint64_t messages_dropped() const {
    return messages_dropped_;
  }
  /// Messages dropped by the per-link loss model alone (a subset of
  /// messages_dropped()).
  [[nodiscard]] std::uint64_t messages_lost() const { return messages_lost_; }

  [[nodiscard]] std::uint32_t num_endpoints() const {
    return static_cast<std::uint32_t>(endpoints_.size());
  }

 private:
  struct Outgoing {
    types::NodeId to = 0;
    std::uint64_t bytes = 0;
    types::MessagePtr msg;
    sim::Time queued_at = 0;
  };
  struct Endpoint {
    Handler handler;
    std::deque<Outgoing> egress;
    bool egress_busy = false;
    std::deque<Envelope> ingress;
    bool ingress_busy = false;
    bool down = false;
  };

  [[nodiscard]] sim::Duration serialization_delay(std::uint64_t bytes) const;
  [[nodiscard]] sim::Duration sample_one_way_delay(types::NodeId from,
                                                   types::NodeId to);

  /// Admission control shared by send()/broadcast(): counts the drop and
  /// returns nullptr when the sender is down or the pair is partitioned,
  /// otherwise the sender's endpoint. Lets broadcast() size the message
  /// once for all admitted recipients.
  Endpoint* admit(types::NodeId from, types::NodeId to);
  /// Post-admission path: stats, loopback scheduling, egress queueing.
  void enqueue(Endpoint& src, types::NodeId from, types::NodeId to,
               types::MessagePtr msg, std::uint64_t bytes);

  /// In-flight envelope pool. Messages traversing a link (and loopback
  /// deliveries) park their Envelope in a recycled pool slot so the
  /// scheduled delivery callback captures only [this, slot] — trivially
  /// copyable, inline in the event queue, no per-message allocation. A
  /// slot lives exactly from acquire (at schedule) to take (at fire).
  std::uint32_t acquire_envelope(Envelope env);
  Envelope take_envelope(std::uint32_t slot);

  void start_egress(types::NodeId id);
  void finish_egress(types::NodeId id);
  void deliver_loopback(std::uint32_t slot);
  void arrive(Envelope env);
  void start_ingress(types::NodeId id);
  void finish_ingress(types::NodeId id);

  sim::Simulator& sim_;
  NetConfig cfg_;
  LinkMatrix links_;
  LinkMatrix base_links_;  ///< construction-time copy; restore_* source
  /// Per-directed-link Gilbert-Elliott state (row-major, [from * n + to]);
  /// false = good. Mutated on every traversal of a GE-enabled link.
  std::vector<bool> ge_bad_;
  std::vector<Endpoint> endpoints_;
  std::vector<Envelope> pool_;  ///< in-flight envelopes, indexed by slot
  std::vector<std::uint32_t> pool_free_;
  std::vector<int> partition_;
  sim::Duration fluct_lo_ = 0;
  sim::Duration fluct_hi_ = 0;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t messages_dropped_ = 0;
  std::uint64_t messages_lost_ = 0;
};

}  // namespace bamboo::net
