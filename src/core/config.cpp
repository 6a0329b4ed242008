#include "core/config.h"

#include <stdexcept>

#include "core/churn.h"
#include "mempool/mempool.h"

namespace bamboo::core {

ByzStrategy parse_strategy(const std::string& name) {
  if (name == "silence") return ByzStrategy::kSilence;
  if (name == "forking") return ByzStrategy::kForking;
  if (name == "crash") return ByzStrategy::kCrash;
  if (name == "forge-qc") return ByzStrategy::kForgeQc;
  if (name == "honest" || name.empty()) return ByzStrategy::kHonest;
  throw std::invalid_argument("unknown Byzantine strategy: " + name);
}

const char* strategy_name(ByzStrategy s) {
  switch (s) {
    case ByzStrategy::kHonest: return "honest";
    case ByzStrategy::kSilence: return "silence";
    case ByzStrategy::kForking: return "forking";
    case ByzStrategy::kCrash: return "crash";
    case ByzStrategy::kForgeQc: return "forge-qc";
  }
  return "?";
}

VerifyStrategy parse_verify_strategy(const std::string& name) {
  if (name == "eager" || name.empty()) return VerifyStrategy::kEager;
  if (name == "batch") return VerifyStrategy::kBatch;
  if (name == "amortized-qc") return VerifyStrategy::kAmortizedQc;
  throw std::invalid_argument("unknown verify strategy: " + name);
}

const char* verify_strategy_name(VerifyStrategy s) {
  switch (s) {
    case VerifyStrategy::kEager: return "eager";
    case VerifyStrategy::kBatch: return "batch";
    case VerifyStrategy::kAmortizedQc: return "amortized-qc";
  }
  return "?";
}

void Config::validate() const {
  if (n_replicas < 1) throw std::invalid_argument("n_replicas must be >= 1");
  if (byz_no > n_replicas)
    throw std::invalid_argument("byz_no exceeds n_replicas");
  if (bsize == 0) throw std::invalid_argument("bsize must be >= 1");
  if (memsize == 0) throw std::invalid_argument("memsize must be >= 1");
  if (bandwidth_bps <= 0)
    throw std::invalid_argument("bandwidth must be positive");
  if (timeout <= 0) throw std::invalid_argument("timeout must be positive");
  if (link_loss < 0 || link_loss >= 1)
    throw std::invalid_argument("link_loss must be in [0, 1)");
  if (ge_p < 0 || ge_p >= 1 || ge_r < 0 || ge_r >= 1)
    throw std::invalid_argument("ge_p / ge_r must be in [0, 1)");
  if (ge_loss_good < 0 || ge_loss_good > 1 || ge_loss_bad < 0 ||
      ge_loss_bad > 1)
    throw std::invalid_argument("ge_loss_good / ge_loss_bad must be in [0, 1]");
  if (sync_batch == 0)
    throw std::invalid_argument("sync_batch must be >= 1");
  if (sync_timeout <= 0)
    throw std::invalid_argument("sync_timeout must be positive");
  if (sync_pipeline == 0)
    throw std::invalid_argument("sync_pipeline must be >= 1");
  if (snapshot_chunk < 32)
    throw std::invalid_argument(
        "snapshot_chunk must hold at least one 32-byte hash");
  if (store != "memory" && store != "file")
    throw std::invalid_argument("unknown block store kind: " + store);
  (void)parse_strategy(strategy);  // throws on unknown strategy
  (void)parse_verify_strategy(verify_strategy);  // throws on unknown strategy
  if (cpu_workers == 0)
    throw std::invalid_argument("cpu_workers must be >= 1");
  if (cpu_verify_per_sig < 0 || cpu_verify_batch_base < 0 ||
      cpu_verify_batch_per_sig < 0)
    throw std::invalid_argument("certificate verify costs must be >= 0");
  // A churn schedule either parses completely or the experiment refuses to
  // start — the old FaultPlan silently ignored half-specified windows.
  (void)parse_churn(churn);  // throws std::invalid_argument with the event
  // Same contract for the mempool-overflow policy: half-specified
  // ("backoff" without a delay) or out-of-range specs refuse to start.
  (void)mempool::parse_admission(admission);
  // link_model / topology strings are validated where they are consumed
  // (net::parse_delay_family / net::make_topology at cluster construction).
}

Config Config::from_json(const util::Json& j) {
  Config c;
  c.n_replicas = static_cast<std::uint32_t>(j.get_int("n", c.n_replicas));
  c.election = j.get_string("election", c.election);
  // Table I compatibility: "master" 0 = rotating, otherwise a static leader.
  if (const util::Json* master = j.find("master");
      master != nullptr && master->is_number()) {
    const auto id = master->as_int();
    c.election = id == 0 ? "roundrobin" : "static:" + std::to_string(id);
  }
  c.strategy = j.get_string("strategy", c.strategy);
  c.byz_no = static_cast<std::uint32_t>(j.get_int("byzNo", c.byz_no));
  c.bsize = static_cast<std::uint32_t>(j.get_int("bsize", c.bsize));
  c.memsize = static_cast<std::uint32_t>(j.get_int("memsize", c.memsize));
  c.psize = static_cast<std::uint32_t>(j.get_int("psize", c.psize));
  c.delay = sim::from_milliseconds(j.get_number(
      "delay", sim::to_milliseconds(c.delay)));
  c.delay_jitter = sim::from_milliseconds(j.get_number(
      "delay_jitter", sim::to_milliseconds(c.delay_jitter)));
  c.timeout = sim::from_milliseconds(j.get_number(
      "timeout", sim::to_milliseconds(c.timeout)));
  c.protocol = j.get_string("protocol", c.protocol);
  c.propose_wait_after_vc = sim::from_milliseconds(j.get_number(
      "propose_wait_ms", sim::to_milliseconds(c.propose_wait_after_vc)));
  c.timeout_backoff = j.get_number("timeout_backoff", c.timeout_backoff);
  c.seed = static_cast<std::uint64_t>(j.get_int("seed", static_cast<std::int64_t>(c.seed)));
  c.bandwidth_bps = j.get_number("bandwidth_bps", c.bandwidth_bps);
  c.link_model = j.get_string("link_model", c.link_model);
  c.link_shape = j.get_number("link_shape", c.link_shape);
  c.link_loss = j.get_number("link_loss", c.link_loss);
  c.topology = j.get_string("topology", c.topology);
  c.churn = j.get_string("churn", c.churn);
  c.ge_p = j.get_number("ge_p", c.ge_p);
  c.ge_r = j.get_number("ge_r", c.ge_r);
  c.ge_loss_good = j.get_number("ge_loss_good", c.ge_loss_good);
  c.ge_loss_bad = j.get_number("ge_loss_bad", c.ge_loss_bad);
  c.admission = j.get_string("admission", c.admission);
  c.sync_batch =
      static_cast<std::uint32_t>(j.get_int("sync_batch", c.sync_batch));
  c.sync_timeout = sim::from_milliseconds(j.get_number(
      "sync_timeout_ms", sim::to_milliseconds(c.sync_timeout)));
  c.sync_retries =
      static_cast<std::uint32_t>(j.get_int("sync_retries", c.sync_retries));
  c.sync_pipeline =
      static_cast<std::uint32_t>(j.get_int("sync_pipeline", c.sync_pipeline));
  c.snapshot_gap =
      static_cast<std::uint32_t>(j.get_int("snapshot_gap", c.snapshot_gap));
  c.snapshot_chunk =
      static_cast<std::uint32_t>(j.get_int("snapshot_chunk", c.snapshot_chunk));
  c.store = j.get_string("store", c.store);
  c.store_path = j.get_string("store_path", c.store_path);
  c.retention =
      static_cast<std::uint32_t>(j.get_int("retention", c.retention));
  c.rtt_mean = sim::from_milliseconds(
      j.get_number("rtt_ms", sim::to_milliseconds(c.rtt_mean)));
  c.rtt_stddev = sim::from_milliseconds(j.get_number(
      "rtt_stddev_ms", sim::to_milliseconds(c.rtt_stddev)));
  c.cpu_sign = sim::microseconds(j.get_int(
      "cpu_sign_us", c.cpu_sign / sim::kMicrosecond));
  c.cpu_verify = sim::microseconds(j.get_int(
      "cpu_verify_us", c.cpu_verify / sim::kMicrosecond));
  c.cpu_ingest_per_tx = sim::microseconds(j.get_int(
      "cpu_ingest_us", c.cpu_ingest_per_tx / sim::kMicrosecond));
  c.cpu_validate_per_tx = sim::microseconds(j.get_int(
      "cpu_validate_us", c.cpu_validate_per_tx / sim::kMicrosecond));
  c.verify_strategy = j.get_string("verify_strategy", c.verify_strategy);
  c.cpu_workers =
      static_cast<std::uint32_t>(j.get_int("cpu_workers", c.cpu_workers));
  c.cpu_verify_per_sig = sim::microseconds(j.get_int(
      "cpu_verify_per_sig_us", c.cpu_verify_per_sig / sim::kMicrosecond));
  c.cpu_verify_batch_base = sim::microseconds(j.get_int(
      "cpu_verify_batch_base_us",
      c.cpu_verify_batch_base / sim::kMicrosecond));
  c.cpu_verify_batch_per_sig = sim::microseconds(j.get_int(
      "cpu_verify_batch_per_sig_us",
      c.cpu_verify_batch_per_sig / sim::kMicrosecond));
  c.validate();
  return c;
}

}  // namespace bamboo::core
