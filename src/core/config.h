#pragma once

#include <cstdint>
#include <string>

#include "sim/time.h"
#include "types/ids.h"
#include "util/json.h"

namespace bamboo::core {

/// Byzantine strategies (paper §IV-A). Both are implemented by modifying the
/// Proposing rule, exactly as in Bamboo; `kCrash` additionally drops all
/// traffic (used by the responsiveness study, §VI-D).
enum class ByzStrategy {
  kHonest,
  kSilence,  ///< stay silent when selected as leader (withholds the QC it
             ///< gathered as the previous view's vote collector)
  kForking,  ///< propose from the deepest ancestor honest replicas still
             ///< accept, overwriting uncommitted blocks
  kCrash,    ///< full fail-stop
  kForgeQc,  ///< propose with a fabricated QC (quorum-many garbage
             ///< signatures) — must be rejected by certificate verification
};

[[nodiscard]] ByzStrategy parse_strategy(const std::string& name);
[[nodiscard]] const char* strategy_name(ByzStrategy s);

/// How replicas charge (and verify) the k signatures inside a QC/TC
/// (quorum/cert_verifier.h + the Replica cost model).
enum class VerifyStrategy {
  kEager,        ///< k independent verifications: k * cpu_verify_per_sig
  kBatch,        ///< batch verification (batch-ECDSA / BLS aggregate):
                 ///< cpu_verify_batch_base + k * cpu_verify_batch_per_sig
  kAmortizedQc,  ///< eager cost, but each distinct certificate is charged
                 ///< only the first time this replica sees it
};

[[nodiscard]] VerifyStrategy parse_verify_strategy(const std::string& name);
[[nodiscard]] const char* verify_strategy_name(VerifyStrategy s);

/// One experiment's complete configuration: the paper's Table I parameters
/// plus the simulation-substrate parameters that replace the physical
/// testbed (network and CPU cost constants, the latter timed by
/// bench/bench_micro.cpp's component cases).
struct Config {
  // --- Table I -----------------------------------------------------------
  std::uint32_t n_replicas = 4;   ///< "address": number of peers
  /// "master": 0 means rotating leaders; here expressed as an election spec
  /// ("roundrobin", "static:<id>", "hash").
  std::string election = "roundrobin";
  std::string strategy = "silence";  ///< Byzantine strategy for byz nodes
  std::uint32_t byz_no = 0;          ///< number of Byzantine nodes
  std::uint32_t bsize = 400;         ///< transactions per block
  /// "memsize": transactions held in the memory pool. Table I defaults to
  /// 1000; we default higher so the pool is not the bottleneck at the
  /// concurrency levels the paper sweeps to.
  std::uint32_t memsize = 20000;
  std::uint32_t psize = 0;              ///< transaction payload bytes
  sim::Duration delay = 0;              ///< added one-way network delay
  sim::Duration delay_jitter = 0;       ///< stddev of the added delay
  sim::Duration timeout = sim::milliseconds(100);  ///< view timeout

  // --- protocol ----------------------------------------------------------
  std::string protocol = "hotstuff";  ///< hotstuff | 2chs | streamlet |
                                      ///< fasthotstuff | ohs
  /// Wait Δ after a timeout-driven view change before proposing
  /// (non-responsive mode; 0 = propose as soon as the TC forms).
  sim::Duration propose_wait_after_vc = 0;
  double timeout_backoff = 1.0;  ///< multiplier per consecutive timeout

  // --- simulation substrate (model parameters, §V) ------------------------
  std::uint64_t seed = 1;
  double bandwidth_bps = 1e9;                         ///< NIC bandwidth b
  sim::Duration rtt_mean = sim::milliseconds(1);      ///< µ
  sim::Duration rtt_stddev = sim::microseconds(100);  ///< σ
  sim::Duration min_one_way_delay = sim::microseconds(20);

  // --- WAN scenario engine (net/link_model.h, net/topology.h) -------------
  // String-keyed + scalar so report provenance / CSV schemas stay flat.
  /// Per-link delay distribution family: "normal" (default; bit-compatible
  /// with the original transport), "uniform", "lognormal", "pareto".
  std::string link_model = "normal";
  /// Family shape parameter: lognormal log-σ / pareto tail index α /
  /// uniform half-width as a fraction of the mean. 0 = family default.
  double link_shape = 0;
  /// Independent per-message loss probability in [0, 1) on every link.
  double link_loss = 0;
  /// Named topology scenario generating the per-link matrix: "uniform",
  /// "wan:<regions>:<rtt_ms>[,...]", "slow-replica:<id>:<extra_ms>",
  /// "slow-leader:<extra_ms>[:<id>]" (see net/topology.h).
  std::string topology = "uniform";

  // --- network-churn engine (core/churn.h) --------------------------------
  /// Scheduled mid-run network churn, as the compact event DSL — e.g.
  /// "degrade@2s:link=0-3:+40ms;partition@4s:groups=0-1|2-3;heal@6s".
  /// Empty = no churn (bit-compatible with the pre-churn engine).
  /// validate() rejects any unparseable or half-specified schedule.
  std::string churn;
  /// Gilbert-Elliott two-state bursty-loss channel, per directed link,
  /// layered UNDER the independent Bernoulli `link_loss`. ge_p > 0 enables
  /// the channel; with it at 0 (default) no extra RNG is drawn and the
  /// schedule stays bit-compatible.
  double ge_p = 0;  ///< per-message P(good -> bad) transition, [0, 1)
  double ge_r = 0;  ///< per-message P(bad -> good) transition, [0, 1)
  double ge_loss_good = 0;  ///< per-message loss rate in the good state
  double ge_loss_bad = 1.0;  ///< per-message loss rate in the bad state

  // --- recovery & state sync (sync/syncer.h) ------------------------------
  /// Max certified blocks per ChainResponseMsg. 1 (default) keeps the
  /// legacy one-block-per-round semantics and wire sizes; larger values
  /// let lagging replicas fetch whole missed ranges in few round trips.
  std::uint32_t sync_batch = 1;
  /// Outstanding-fetch timer: an unanswered ChainRequestMsg is retried
  /// against the next peer after this long (loss cannot wedge recovery).
  sim::Duration sync_timeout = sim::milliseconds(500);
  /// Peer-rotating retries per fetch after the first attempt; the entry
  /// expires afterwards so a later trigger starts fresh.
  std::uint32_t sync_retries = 3;
  /// Max parallel in-flight range fetches the syncer issues against one
  /// known gap (proactive pipelined sync). 1 (default) keeps the legacy
  /// serial locator walk: one request, one response, one continuation.
  std::uint32_t sync_pipeline = 1;
  /// Catch-up gap (blocks) at or beyond which the syncer requests a
  /// snapshot instead of chain-syncing the whole range. 0 (default) =
  /// snapshot transfer disabled; every gap chain-syncs.
  std::uint32_t snapshot_gap = 0;
  /// Committed-hash payload bytes carried per SnapshotChunkMsg.
  std::uint32_t snapshot_chunk = 4096;

  // --- durable ledger (storage/block_store.h) -----------------------------
  /// Committed-block store backing each replica: "memory" (default; no
  /// file I/O, schedules bit-compatible with the pre-storage engine) or
  /// "file" (append log + index, one log per replica under store_path).
  std::string store = "memory";
  /// Directory for file-backed stores. Empty (default) = a per-cluster
  /// scratch directory under the system temp dir, removed on teardown.
  std::string store_path;
  /// Committed blocks kept in the in-memory forest behind the committed
  /// tip; older vertices are pruned to the store. 0 (default) = infinite
  /// retention, the legacy keep-everything behavior.
  std::uint32_t retention = 0;
  sim::Duration cpu_sign = sim::microseconds(50);     ///< secp256k1 sign
  sim::Duration cpu_verify = sim::microseconds(80);   ///< secp256k1 verify
  /// Per-transaction server-side request handling (HTTP parse, mempool
  /// insert, response write). Dominates t_CPU at large block sizes; the
  /// `ohs` profile lowers it (TCP pipelining in libhotstuff).
  sim::Duration cpu_ingest_per_tx = sim::microseconds(18);
  /// Per-transaction batching/validation cost inside proposals.
  sim::Duration cpu_validate_per_tx = sim::microseconds(1);
  /// Backpressure limit on a replica's CPU work queue; client requests
  /// beyond it are rejected (TCP accept-queue analogue).
  std::size_t cpu_queue_limit = 200000;

  // --- certificate-verification pipeline (quorum/cert_verifier.h) ---------
  /// Cost strategy for the k signatures inside a QC/TC: "eager", "batch",
  /// "amortized-qc". The default (eager with cpu_verify_per_sig = 0) adds a
  /// zero surcharge on top of the legacy flat cost_of charges, keeping
  /// pre-pipeline captures byte-identical.
  std::string verify_strategy = "eager";
  /// Simulated verify workers per replica serving the CPU queue. 1 keeps
  /// the legacy single-server FIFO semantics.
  std::uint32_t cpu_workers = 1;
  /// Eager / amortized-qc per-signature certificate verification cost.
  sim::Duration cpu_verify_per_sig = 0;
  /// Batch-verification cost model: base + k * per_sig per certificate.
  sim::Duration cpu_verify_batch_base = sim::microseconds(100);
  sim::Duration cpu_verify_batch_per_sig = sim::microseconds(2);

  // --- mempool admission control (mempool/mempool.h) ----------------------
  /// What a full mempool does with fresh client transactions — the overflow
  /// behavior, made explicit: "drop" (default; the legacy silent-reject
  /// semantics), "backoff:<ms>" (reject with a retry-after hint carried in
  /// the client response), "priority:<frac>" (reserve that fraction of
  /// memsize for recycled forked-out transactions). validate() rejects
  /// unknown or half-specified policies with the same strictness as the
  /// churn DSL.
  std::string admission = "drop";

  /// Client host endpoints (paper: "2 VMs as clients").
  static constexpr std::uint32_t n_client_hosts = 2;

  // --- derived -----------------------------------------------------------
  [[nodiscard]] std::uint32_t f() const { return types::max_faulty(n_replicas); }
  [[nodiscard]] std::uint32_t quorum() const {
    return types::quorum_size(n_replicas);
  }
  /// Network endpoint ids: replicas [0, n), client hosts [n, n + hosts).
  [[nodiscard]] std::uint32_t num_endpoints() const {
    return n_replicas + n_client_hosts;
  }
  [[nodiscard]] types::NodeId client_endpoint(std::uint32_t session) const {
    return n_replicas + (session % n_client_hosts);
  }
  /// Replicas [n_replicas - byz_no, n_replicas) are Byzantine; replica 0 is
  /// always honest and serves as the metrics observer.
  [[nodiscard]] bool is_byzantine(types::NodeId id) const {
    return is_byzantine(id, n_replicas, byz_no);
  }
  /// The same rule over bare counts (a persisted record's provenance).
  [[nodiscard]] static bool is_byzantine(types::NodeId id, std::uint32_t n,
                                         std::uint32_t byz) {
    return id < n && id >= n - byz && byz > 0;
  }

  /// Validate invariants (byz_no <= f is NOT required — the paper sweeps
  /// beyond f — but structural bounds are).
  void validate() const;

  /// Load overrides from a Bamboo-style JSON object; unknown keys ignored.
  /// Client load is not a Config key: it comes from
  /// client::WorkloadConfig and the run windows from harness::RunOptions.
  static Config from_json(const util::Json& j);
};

}  // namespace bamboo::core
