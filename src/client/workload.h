#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "util/histogram.h"
#include "util/stats.h"

namespace bamboo::client {

/// How load is offered to the cluster.
enum class LoadMode {
  /// The paper's benchmark mode: `concurrency` client sessions, each with
  /// one outstanding request; a session issues its next request when the
  /// previous one is confirmed. Raising concurrency raises offered load
  /// until the system saturates (§VI: "the clients' concurrency level is
  /// increased until the network is saturated").
  kClosedLoop,
  /// Aggregate arrival process at a configured rate — independent of how
  /// the system responds, which is what exposes the overload regime. The
  /// process shape comes from the `arrival` DSL (Poisson by default, the
  /// arrival process assumed by the analytic model §V-A3).
  kOpenLoop,
};

/// One segment of a modulated arrival process: `value` is a rate
/// multiplier (burst) or an absolute rate in tx/s (trace), held for
/// `dur_s` simulated seconds.
struct ArrivalPhase {
  double value = 1;
  double dur_s = 0;

  bool operator==(const ArrivalPhase&) const = default;
};

/// Parsed open-loop arrival process.
struct ArrivalProcess {
  enum class Kind {
    kPoisson,  ///< exponential gaps at arrival_rate_tps (legacy default)
    kFixed,    ///< deterministic 1/λ spacing — draws no randomness
    kBurst,    ///< cyclic rate-multiplier phases, Poisson within a phase
    kTrace,    ///< absolute-rate schedule replayed once; holds the last rate
  };
  Kind kind = Kind::kPoisson;
  std::vector<ArrivalPhase> phases;  ///< burst/trace segments
  double cycle_s = 0;                ///< total burst cycle length

  bool operator==(const ArrivalProcess&) const = default;
};

/// Parse the arrival DSL: "poisson" | "fixed" |
/// "burst:<mult>x<dur_s>[,<mult>x<dur_s>...]" |
/// "trace:<tps>@<dur_s>[,<tps>@<dur_s>...]".
/// Throws std::invalid_argument on unknown, half-specified, or
/// out-of-range specs (multipliers/rates/durations must be > 0) — the
/// same strictness as the churn and admission DSLs.
[[nodiscard]] ArrivalProcess parse_arrival(const std::string& spec);

struct WorkloadConfig {
  LoadMode mode = LoadMode::kClosedLoop;
  std::uint32_t concurrency = 10;   ///< sessions (closed loop)
  double arrival_rate_tps = 1000;   ///< λ (open loop; base rate for burst)
  /// Open-loop arrival-process DSL (see parse_arrival). "poisson" keeps
  /// the legacy schedule bit-identical.
  std::string arrival = "poisson";
  /// Open loop: number of logical clients the aggregate process stands in
  /// for. 0 (default) = the legacy single anonymous session, drawing no
  /// extra randomness; > 0 tags each arrival with a session id drawn
  /// uniformly from the population (millions of clients without
  /// per-client objects — only the id is materialized).
  std::uint64_t client_population = 0;
  std::uint32_t payload_size = 0;   ///< psize
  /// Closed-loop session watchdog: if a request is unanswered for this
  /// long, the session abandons it and issues a fresh one (REST client
  /// timeout). 0 disables. Needed under attacks that starve individual
  /// replicas, or sessions drain into the starved mempools and offered
  /// load collapses to zero.
  sim::Duration session_timeout = 0;
};

/// Issues transactions from the simulated client hosts, receives commit
/// confirmations, and records client-side latency — the Bamboo client
/// library + benchmarker (§III-D), minus HTTP.
class WorkloadDriver {
 public:
  struct Stats {
    std::uint64_t issued = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t stale_responses = 0;  ///< answers to abandoned requests
    std::uint64_t abandoned = 0;        ///< session-timeout give-ups
  };

  WorkloadDriver(sim::Simulator& simulator, net::SimNetwork& network,
                 const core::Config& config, WorkloadConfig workload);

  /// Register handlers on the client endpoints. Call before start().
  void install();

  /// Begin issuing requests.
  void start();

  /// Stop issuing new requests (in-flight ones still complete).
  void stop() { stopped_ = true; }

  /// Latency samples are recorded only between begin/end_measurement
  /// (warm-up exclusion).
  void begin_measurement();
  void end_measurement();

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] util::Samples& latencies_ms() { return latencies_ms_; }
  /// Log-scale latency histogram over the measurement window — the
  /// merge-safe source of exact p50/p99/p999 (util/histogram.h).
  [[nodiscard]] const util::LatencyHistogram& latency_hist() const {
    return latency_hist_;
  }
  /// Transactions confirmed inside the measurement window.
  [[nodiscard]] std::uint64_t measured_completed() const {
    return measured_completed_;
  }
  /// Transactions issued inside the measurement window (offered load).
  [[nodiscard]] std::uint64_t measured_issued() const {
    return measured_issued_;
  }
  [[nodiscard]] double measured_seconds() const;

  /// Optional: count every confirmation into a timeline (Fig. 15).
  void set_timeline(util::TimelineCounter* timeline) { timeline_ = timeline; }

 private:
  void issue(std::uint32_t session);
  void schedule_next_arrival();
  /// Instantaneous arrival rate at simulated time `now` (burst phases
  /// cycle; a trace holds its last segment's rate after the replay ends).
  [[nodiscard]] double rate_at(sim::Time now) const;
  void on_response(const types::ClientResponseMsg& resp);
  void arm_watchdog(std::uint32_t session, types::TxId tx);

  sim::Simulator& sim_;
  net::SimNetwork& net_;
  const core::Config& cfg_;
  WorkloadConfig wl_;
  ArrivalProcess arrival_;

  bool stopped_ = false;
  bool measuring_ = false;
  sim::Time window_start_ = 0;
  sim::Time window_end_ = 0;
  sim::Time arrival_start_ = 0;  ///< t=0 of the burst/trace clock
  std::uint64_t measured_completed_ = 0;
  std::uint64_t measured_issued_ = 0;
  std::uint64_t next_tx_id_ = 1;
  Stats stats_;
  util::Samples latencies_ms_;
  util::LatencyHistogram latency_hist_;
  util::TimelineCounter* timeline_ = nullptr;
  /// Closed loop: the tx id each session is currently waiting on (0 = not
  /// waiting) and its watchdog timer.
  std::vector<types::TxId> outstanding_;
  std::vector<sim::EventId> watchdogs_;
};

}  // namespace bamboo::client
