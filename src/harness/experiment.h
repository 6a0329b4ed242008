#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "client/workload.h"
#include "core/churn.h"
#include "core/config.h"
#include "harness/cluster.h"

namespace bamboo::util {
class LatencyHistogram;
}

namespace bamboo::harness {

namespace report {
struct CiSet;
}

/// Everything one benchmark run produces — the paper's four metrics
/// (throughput, latency, chain growth rate, block interval; §IV-B) plus
/// engine health numbers.
struct RunResult {
  // paper metrics
  double throughput_tps = 0;  ///< committed tx/s confirmed at clients
  double latency_ms_mean = 0;
  double latency_ms_p50 = 0;
  double latency_ms_p99 = 0;
  /// Committed blocks per elapsed view (Eq. 1 read literally).
  double cgr_per_view = 0;
  /// Committed blocks per block appended to the chain: the share no fork
  /// overwrites, the reading the paper's Fig. 13/14 narratives match.
  double cgr_per_block = 0;
  /// Mean views from a block's proposal to its commitment (Eq. 2).
  double block_interval = 0;

  // run accounting
  double measured_s = 0;
  std::uint64_t latency_samples = 0;
  std::uint64_t views = 0;
  std::uint64_t blocks_committed = 0;
  std::uint64_t blocks_received = 0;
  std::uint64_t blocks_forked = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t rejected = 0;
  /// Network bytes sent cluster-wide inside the measurement window.
  std::uint64_t net_bytes = 0;

  // recovery & state sync (sync::Syncer), summed over every replica
  std::uint64_t sync_requests = 0;  ///< ChainRequestMsg sent (incl. retries)
  std::uint64_t sync_blocks = 0;    ///< fetched blocks accepted into forests
  std::uint64_t sync_bytes = 0;     ///< wire bytes of accepted responses
  /// Mean heal-to-caught-up latency (ms) across the run's churn recovery
  /// events (partition heal / link restore / loss-burst end); events still
  /// unrecovered at run end count up to the end. 0 = no recovery event.
  double recovery_ms = 0;

  // certificate-verification pipeline (quorum/cert_verifier.h), summed
  // over every replica
  std::uint64_t certs_verified = 0;  ///< received QCs/TCs that checked out
  std::uint64_t certs_rejected = 0;  ///< forged/malformed certificates dropped

  // durable ledger (storage/block_store.h) + snapshot state transfer,
  // summed over every replica's store / syncer
  /// Physical store bytes written (record framing included) in the window.
  std::uint64_t disk_bytes_written = 0;
  /// Physical bytes / logical (wire-size) bytes appended; exactly 1.0 for
  /// the in-memory store (it accounts logical as physical). The file log
  /// usually lands BELOW 1: its records store block metadata compactly
  /// while the wire model also charges the simulated (never materialized)
  /// transaction payload bytes; record framing pushes it back up only for
  /// near-empty blocks. 0 when nothing was written in the window.
  double write_amplification = 0;
  std::uint64_t store_reads = 0;  ///< store lookups (reads + replays)
  std::uint64_t snapshot_bytes = 0;   ///< snapshot chunk wire bytes accepted
  std::uint64_t snapshot_chunks = 0;  ///< snapshot chunks accepted
  std::uint64_t snapshots_installed = 0;
  std::uint64_t snapshots_rejected = 0;  ///< tampered/stale snapshots refused
  std::uint64_t restarts = 0;  ///< crash-restart recoveries performed

  // open-loop / overload accounting
  /// Client-issued tx/s inside the measurement window — the offered load
  /// actually generated (vs throughput_tps, the goodput). Their gap is the
  /// overload regime.
  double offered_tps = 0;
  /// Exact quantiles from the log-scale latency histogram
  /// (util/histogram.h). Unlike the sample-sorted latency_ms_p50/p99,
  /// these merge across reps and shards bit-identically, and p999 is
  /// only available here.
  double hist_p50_ms = 0;
  double hist_p99_ms = 0;
  double hist_p999_ms = 0;
  /// Mempool admissions/rejections inside the window, summed cluster-wide
  /// (the backpressure ledger; rejections include duplicates and
  /// capacity/priority-reserve refusals).
  std::uint64_t mem_admitted = 0;
  std::uint64_t mem_rejected = 0;
  /// The window's latency histogram, sparse-encoded ("index:count;...") —
  /// what aggregate rows and shard merges rebuild quantiles from.
  std::string latency_hist;

  // leadership democracy (multi-leader / chain-quality accounting)
  /// Committed blocks per proposer inside the measurement window at the
  /// observer, sparse-encoded "id:count;..." with ids ascending — what
  /// aggregate rows and shard merges rebuild the three scalars below
  /// from (count addition is associative, so the merged scalars are
  /// bit-identical to the unsharded fold). Empty = nothing committed.
  std::string commit_share;
  /// Chain quality: the fraction of committed blocks proposed by honest
  /// replicas (core::Config::is_byzantine's set). 0 when nothing
  /// committed.
  double chain_quality = 0;
  /// The largest single replica's share of committed blocks.
  double commit_share_max = 0;
  /// Gini coefficient of per-replica committed-block counts over ALL
  /// n_replicas (replicas that proposed nothing count as zeros).
  /// 0 = perfectly even proposer representation; -> 1 = one dictator.
  double proposer_gini = 0;

  // invariants
  bool consistent = true;
  std::uint64_t safety_violations = 0;

  /// Set latency_hist and the exact quantiles read from it (unchanged
  /// when `hist` is empty).
  void set_latency_hist(const util::LatencyHistogram& hist);
  /// Set commit_share and the democracy scalars derived from the same
  /// per-proposer counts.
  void set_commit_share(const std::map<types::NodeId, std::uint64_t>& counts,
                        std::uint32_t n_replicas, std::uint32_t byz_no);

  /// Field-for-field equality — the determinism tests compare entire
  /// results bit-for-bit across repeated and multi-threaded executions.
  bool operator==(const RunResult&) const = default;
};

/// How an aggregate row folds one metric over a spec's repetitions. Every
/// fold runs in rep order, so an aggregate regenerated from shard files is
/// bit-identical to the unsharded one.
enum class Fold {
  kMeanCi,       ///< RunningStats mean, plus a `_ci95` column (CiSet)
  kMean,         ///< RunningStats mean
  kSumOverReps,  ///< sum / reps (not a RunningStats mean: bits differ)
  kCount,        ///< sum / reps, rounded to the nearest integer
  kNonZeroMean,  ///< mean over the reps where it is > 0 (0 = no event)
  kPooledHist,   ///< latency histograms merged bucket by bucket
  kPooledShare,  ///< per-proposer commit counts added
  kAll,          ///< logical AND
  kSum,          ///< integer sum
  kDerived,      ///< recomputed from a pooled metric, not folded itself
};

/// One RunResult metric, declared once. The entry drives the report
/// schema (column name and order), the aggregate fold and, for window
/// counters, the capture: `read` returns a running total that never
/// decreases, and the metric is its value at the end of the measurement
/// window minus its value at the start.
struct Metric {
  const char* name;
  std::variant<double RunResult::*, std::uint64_t RunResult::*,
               std::string RunResult::*, bool RunResult::*>
      member;
  Fold fold;
  std::uint64_t (*read)(const Cluster&,
                        const client::WorkloadDriver&) = nullptr;
  double report::CiSet::*ci = nullptr;  ///< kMeanCi: its CI half-width
};

/// Every RunResult metric, in report column order.
[[nodiscard]] const std::vector<Metric>& run_metrics();

struct RunOptions {
  double warmup_s = 0.5;
  double measure_s = 1.5;

  bool operator==(const RunOptions&) const = default;
};

/// Sparse codec for RunResult::commit_share ("id:count;..."; ids
/// ascending, zero counts elided). decode() accepts the empty string
/// (no commits) and throws std::invalid_argument on malformed text.
[[nodiscard]] std::string encode_commit_share(
    const std::map<types::NodeId, std::uint64_t>& counts);
[[nodiscard]] std::map<types::NodeId, std::uint64_t> decode_commit_share(
    const std::string& text);

/// The three leadership-democracy scalars derived from a per-proposer
/// commit-count map (RunResult::set_commit_share), so pooled-count
/// recomputation on aggregate rows matches the per-run path exactly.
struct DemocracyScalars {
  double chain_quality = 0;
  double commit_share_max = 0;
  double proposer_gini = 0;
};
[[nodiscard]] DemocracyScalars democracy_scalars(
    const std::map<types::NodeId, std::uint64_t>& counts,
    std::uint32_t n_replicas, std::uint32_t byz_no);

/// A programmatic mid-run churn schedule: typed, timed events (link
/// degradation/restoration, partitions, loss bursts, fluctuation windows,
/// crash/silence faults — see core/churn.h) that execute() runs ahead of
/// the core::Config::churn DSL events. Empty by default; the benches
/// write their faults as DSL in cfg.churn. Provenance records the
/// effective schedule of both.
struct FaultPlan {
  core::ChurnSchedule schedule;

  [[nodiscard]] bool empty() const { return schedule.empty(); }

  bool operator==(const FaultPlan&) const = default;
};

/// The effective schedule execute() installs for a spec: the programmatic
/// FaultPlan events followed by the parsed core::Config::churn DSL events
/// (throws std::invalid_argument on an unparseable DSL, like
/// Config::validate()).
[[nodiscard]] core::ChurnSchedule effective_churn(
    const FaultPlan& faults, const core::Config& cfg);

/// Heal-to-caught-up measurement, armed by install_churn at every
/// "healing" churn moment: a partition heal, a link restore, the end of a
/// loss-burst window, or a crash-restart's rebuild. At that instant the
/// probe samples the max committed height across honest live replicas;
/// replicas below it are lagging, and the event's recovery latency is the
/// time from the heal to the commit or snapshot install that brings the
/// last laggard up to that height (a laggard that crashes is dropped).
/// It observes the replicas (core::ReplicaObserver), so arming it never
/// perturbs the run. Heals with no laggards record nothing.
struct RecoveryProbe {
  struct Event {
    double heal_at_s = 0;
    double recovered_at_s = -1;  ///< -1 = still lagging at run end
    /// Every laggard crashed before catching up: the event has nothing
    /// left to measure and is excluded from the mean.
    bool abandoned = false;
  };
  std::vector<Event> events;

  /// Mean heal→recovered latency in ms over measurable events;
  /// unfinished events count to end_s, abandoned ones are skipped.
  [[nodiscard]] double mean_ms(double end_s) const;
};

/// Schedule every churn event of `schedule` on the cluster's simulator
/// (call before Cluster::start()). Endpoint/replica ids are range-checked
/// against the cluster's configuration here — std::invalid_argument names
/// the offending event. A non-empty schedule attaches one observer. A
/// non-null `probe` must outlive the simulation; it accumulates one
/// RecoveryProbe::Event per healing moment that found lagging replicas.
/// Exposed for tests; execute() calls it.
void install_churn(Cluster& cluster, const core::ChurnSchedule& schedule,
                   RecoveryProbe* probe = nullptr);

/// The complete, self-contained description of ONE simulation run: protocol
/// + cluster configuration, offered workload, measurement windows, seed
/// (inside cfg), and the fault/fluctuation plan. A RunSpec is a pure value —
/// executing it has no side effects on the spec or any shared state — which
/// is what lets the ParallelRunner fan specs out across threads while
/// staying bit-identical to a sequential loop.
struct RunSpec {
  core::Config cfg;
  client::WorkloadConfig workload;
  RunOptions opts;
  FaultPlan faults;
  /// When true the metrics cover the whole run from t=0 (no warm-up
  /// exclusion; counters baseline at zero) — timeline semantics.
  bool measure_whole_run = false;
  /// >0: capture committed-tx throughput per bucket (Fig. 15 timelines).
  double timeline_bucket_s = 0;
  /// Label passthrough: the offered-load value of this sweep point
  /// (concurrency or λ); purely descriptive.
  double offered = 0;

  /// Copy of this spec with a different seed (multi-seed repetition).
  [[nodiscard]] RunSpec with_seed(std::uint64_t seed) const {
    RunSpec s = *this;
    s.cfg.seed = seed;
    return s;
  }
};

/// Execute one spec: build cluster + workload, run warm-up then the
/// measurement window, and compute all metrics (observer = replica 0).
/// Pure in the functional sense: same spec -> same RunResult, independent
/// of what else runs on other threads.
RunResult execute(const RunSpec& spec);

/// execute() plus the optional throughput timeline.
struct RunOutput {
  RunResult result;
  std::vector<double> bucket_start_s;  ///< empty unless timeline requested
  std::vector<double> tx_per_s;
  /// Simulator events executed over the whole run (warm-up included).
  /// Engine-speed accounting for bench_micro's whole-run cases: events/sec
  /// = events_executed / host time. Not part of RunResult, so result
  /// equality and the report schema are untouched.
  std::uint64_t events_executed = 0;
};
/// A non-null `observer` also watches the run's replicas.
RunOutput execute_full(const RunSpec& spec,
                       core::ReplicaObserver* observer = nullptr);

/// Build the specs for a closed-loop concurrency ladder (one spec per
/// level) — feed these to execute() or a ParallelRunner.
std::vector<RunSpec> closed_loop_specs(
    const core::Config& cfg, const client::WorkloadConfig& base_wl,
    const std::vector<std::uint32_t>& concurrencies,
    const RunOptions& opts = {});

/// Build the specs for an open-loop λ ladder.
std::vector<RunSpec> open_loop_specs(const core::Config& cfg,
                                     const client::WorkloadConfig& base_wl,
                                     const std::vector<double>& rates_tps,
                                     const RunOptions& opts = {});

/// Build the spec for a whole-run throughput timeline (Fig. 15): no
/// warm-up, a `horizon_s` window, `bucket_s` buckets. Its faults ride in
/// cfg.churn, like any run's.
RunSpec timeline_spec(const core::Config& cfg,
                      const client::WorkloadConfig& wl, double horizon_s,
                      double bucket_s);

}  // namespace bamboo::harness
