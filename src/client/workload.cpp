#include "client/workload.h"

#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "types/messages.h"

namespace bamboo::client {

namespace {

double parse_positive(const std::string& token, const std::string& spec,
                      const char* what) {
  char* stop = nullptr;
  const double v = std::strtod(token.c_str(), &stop);
  if (token.empty() || stop != token.c_str() + token.size() || v <= 0 ||
      !std::isfinite(v)) {
    throw std::invalid_argument("arrival '" + spec + "': bad " +
                                std::string(what) + " '" + token + "'");
  }
  return v;
}

/// Parse "a<sep>b[,a<sep>b...]" segments after the policy prefix.
std::vector<ArrivalPhase> parse_phases(const std::string& spec,
                                       std::size_t colon, char sep,
                                       const char* value_name) {
  if (colon == std::string::npos || colon + 1 >= spec.size()) {
    throw std::invalid_argument(
        "arrival '" + spec + "' is half-specified: want " +
        spec.substr(0, colon) + ":<" + value_name + ">" + sep + "<dur_s>,...");
  }
  std::vector<ArrivalPhase> phases;
  const std::string body = spec.substr(colon + 1);
  std::size_t pos = 0;
  while (pos <= body.size()) {
    std::size_t end = body.find(',', pos);
    if (end == std::string::npos) end = body.size();
    const std::string segment = body.substr(pos, end - pos);
    const std::size_t mid = segment.find(sep);
    if (mid == std::string::npos) {
      throw std::invalid_argument("arrival '" + spec + "': segment '" +
                                  segment + "' wants <" + value_name + ">" +
                                  sep + "<dur_s>");
    }
    ArrivalPhase phase;
    phase.value = parse_positive(segment.substr(0, mid), spec, value_name);
    phase.dur_s =
        parse_positive(segment.substr(mid + 1), spec, "duration (s)");
    phases.push_back(phase);
    pos = end + 1;
  }
  return phases;
}

}  // namespace

ArrivalProcess parse_arrival(const std::string& spec) {
  ArrivalProcess p;
  if (spec.empty() || spec == "poisson") return p;
  if (spec == "fixed") {
    p.kind = ArrivalProcess::Kind::kFixed;
    return p;
  }
  const std::size_t colon = spec.find(':');
  const std::string policy = spec.substr(0, colon);
  if (policy == "burst") {
    p.kind = ArrivalProcess::Kind::kBurst;
    p.phases = parse_phases(spec, colon, 'x', "mult");
    for (const ArrivalPhase& phase : p.phases) p.cycle_s += phase.dur_s;
    return p;
  }
  if (policy == "trace") {
    p.kind = ArrivalProcess::Kind::kTrace;
    p.phases = parse_phases(spec, colon, '@', "tps");
    return p;
  }
  throw std::invalid_argument("unknown arrival process: " + spec);
}

WorkloadDriver::WorkloadDriver(sim::Simulator& simulator,
                               net::SimNetwork& network,
                               const core::Config& config,
                               WorkloadConfig workload)
    : sim_(simulator),
      net_(network),
      cfg_(config),
      wl_(workload),
      arrival_(parse_arrival(workload.arrival)) {
  if (wl_.mode == LoadMode::kClosedLoop) {
    outstanding_.assign(wl_.concurrency, 0);
    watchdogs_.assign(wl_.concurrency, sim::kInvalidEventId);
  }
}

void WorkloadDriver::install() {
  for (std::uint32_t host = 0; host < cfg_.n_client_hosts; ++host) {
    const types::NodeId endpoint = cfg_.n_replicas + host;
    net_.set_handler(endpoint, [this](const net::Envelope& env) {
      if (env.msg &&
          std::holds_alternative<types::ClientResponseMsg>(*env.msg)) {
        on_response(std::get<types::ClientResponseMsg>(*env.msg));
      }
    });
  }
}

void WorkloadDriver::start() {
  stopped_ = false;
  if (wl_.mode == LoadMode::kClosedLoop) {
    for (std::uint32_t s = 0; s < wl_.concurrency; ++s) {
      // Stagger session starts across a millisecond to avoid a thundering
      // herd at t=0.
      sim_.schedule_after(
          static_cast<sim::Duration>(sim_.rng().uniform_u64(
              static_cast<std::uint64_t>(sim::kMillisecond))),
          [this, s] { issue(s); });
    }
  } else {
    arrival_start_ = sim_.now();
    schedule_next_arrival();
  }
}

double WorkloadDriver::rate_at(sim::Time now) const {
  const double base = wl_.arrival_rate_tps;
  switch (arrival_.kind) {
    case ArrivalProcess::Kind::kPoisson:
    case ArrivalProcess::Kind::kFixed:
      return base;
    case ArrivalProcess::Kind::kBurst: {
      double t = std::fmod(sim::to_seconds(now - arrival_start_),
                           arrival_.cycle_s);
      for (const ArrivalPhase& phase : arrival_.phases) {
        if (t < phase.dur_s) return base * phase.value;
        t -= phase.dur_s;
      }
      return base * arrival_.phases.back().value;  // fmod edge
    }
    case ArrivalProcess::Kind::kTrace: {
      double t = sim::to_seconds(now - arrival_start_);
      for (const ArrivalPhase& phase : arrival_.phases) {
        if (t < phase.dur_s) return phase.value;
        t -= phase.dur_s;
      }
      return arrival_.phases.back().value;  // replay over: hold last rate
    }
  }
  return base;
}

void WorkloadDriver::schedule_next_arrival() {
  if (stopped_) return;
  const double rate = rate_at(sim_.now());
  if (rate <= 0) return;
  // Fixed spacing draws no randomness; every other process is Poisson at
  // the instantaneous rate (gap drawn at schedule time).
  const double gap_s = arrival_.kind == ArrivalProcess::Kind::kFixed
                           ? 1.0 / rate
                           : sim_.rng().exponential(rate);
  sim_.schedule_after(sim::from_seconds(gap_s), [this] {
    if (stopped_) return;
    // The aggregate process stands in for client_population logical
    // clients; only the session id is materialized, never a client
    // object. 0 keeps the legacy single-session path (no extra draw).
    const std::uint32_t session =
        wl_.client_population > 0
            ? static_cast<std::uint32_t>(
                  sim_.rng().uniform_u64(wl_.client_population))
            : 0;
    issue(session);
    schedule_next_arrival();
  });
}

void WorkloadDriver::issue(std::uint32_t session) {
  if (stopped_) return;
  types::Transaction tx;
  tx.id = next_tx_id_++;
  tx.session = session;
  tx.serving_replica = static_cast<types::NodeId>(
      sim_.rng().uniform_u64(cfg_.n_replicas));
  tx.client_endpoint = cfg_.client_endpoint(session);
  tx.submitted_at = sim_.now();
  tx.payload_size = wl_.payload_size;
  ++stats_.issued;
  if (measuring_) ++measured_issued_;

  if (wl_.mode == LoadMode::kClosedLoop) {
    outstanding_[session] = tx.id;
    arm_watchdog(session, tx.id);
  }

  net_.send(tx.client_endpoint, tx.serving_replica,
            types::make_message(types::ClientRequestMsg{tx}));
}

void WorkloadDriver::arm_watchdog(std::uint32_t session, types::TxId tx) {
  if (wl_.session_timeout <= 0) return;
  if (watchdogs_[session] != sim::kInvalidEventId) {
    sim_.cancel(watchdogs_[session]);
  }
  watchdogs_[session] =
      sim_.schedule_after(wl_.session_timeout, [this, session, tx] {
        watchdogs_[session] = sim::kInvalidEventId;
        if (stopped_ || outstanding_[session] != tx) return;
        // Give up on the stuck request and move on (it may still commit
        // later; such late answers are counted as stale, not completed).
        ++stats_.abandoned;
        outstanding_[session] = 0;
        issue(session);
      });
}

void WorkloadDriver::on_response(const types::ClientResponseMsg& resp) {
  const bool closed = wl_.mode == LoadMode::kClosedLoop;
  if (closed) {
    if (resp.session >= outstanding_.size() ||
        outstanding_[resp.session] != resp.tx_id) {
      ++stats_.stale_responses;  // answer to an abandoned request
      return;
    }
    outstanding_[resp.session] = 0;
    if (watchdogs_[resp.session] != sim::kInvalidEventId) {
      sim_.cancel(watchdogs_[resp.session]);
      watchdogs_[resp.session] = sim::kInvalidEventId;
    }
  }

  if (resp.rejected) {
    ++stats_.rejected;
    if (closed && !stopped_) {
      const std::uint32_t session = resp.session;
      // Honor the server's retry-after hint (backoff admission policy);
      // without one, retry after the client's own 1 ms backoff.
      const sim::Duration wait = resp.backoff_ms > 0
                                     ? sim::from_milliseconds(resp.backoff_ms)
                                     : sim::milliseconds(1);
      sim_.schedule_after(wait, [this, session] { issue(session); });
    }
    return;
  }

  ++stats_.completed;
  const double latency_ms =
      sim::to_milliseconds(sim_.now() - resp.submitted_at);
  if (measuring_) {
    latencies_ms_.add(latency_ms);
    latency_hist_.add(latency_ms);
    ++measured_completed_;
  }
  if (timeline_ != nullptr) {
    timeline_->add(sim::to_seconds(sim_.now()));
  }
  if (closed && !stopped_) {
    issue(resp.session);
  }
}

void WorkloadDriver::begin_measurement() {
  measuring_ = true;
  window_start_ = sim_.now();
  measured_completed_ = 0;
  measured_issued_ = 0;
  latencies_ms_.clear();
  latency_hist_.clear();
}

void WorkloadDriver::end_measurement() {
  measuring_ = false;
  window_end_ = sim_.now();
}

double WorkloadDriver::measured_seconds() const {
  const sim::Time end = window_end_ > 0 ? window_end_ : sim_.now();
  return sim::to_seconds(end - window_start_);
}

}  // namespace bamboo::client
