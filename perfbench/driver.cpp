// Benchmark driver: runs ONE seeded workload through the simulator's public
// API (harness::Cluster, client::WorkloadDriver, harness::install_churn,
// sim::Simulator::run_for), so that set-up, warm-up and the measured window
// are timed separately, checks every simulated output, and prints one JSON
// object on stdout.
//
//   perfbench_driver --spec FILE --seconds S --trace 0|1 [--trace-out FILE]
//
// The spec file is written by perfbench/run.py, which derives the cluster
// seed and the churn schedule from the workload seed; this program only
// runs the generated inputs. See perfbench/README.md for the metrics.
//
// Per process:
//   1. untraced repetitions of the identical seeded run for about S seconds
//      (at least kMinReps), each pinned to the next CPU in turn; per timed
//      segment the fastest repetition counts, and the host-speed metrics
//      sum those and scale them by a calibration pass timed alongside
//      (HostCalibration);
//   2. one harness::execute_full run of the same spec, whose RunResult must
//      match the driven run's outputs;
//   3. with --trace 1: one traced run (phase spans plus a timing wrapper
//      around the protocol rules) that must match the untraced outputs bit
//      for bit, then replays of each layer's hot public function on inputs
//      shaped like the workload's.

#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <memory_resource>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "client/workload.h"
#include "core/config.h"
#include "core/safety.h"
#include "crypto/signer.h"
#include "forest/block_forest.h"
#include "harness/cluster.h"
#include "harness/experiment.h"
#include "model/perf_model.h"
#include "net/network.h"
#include "protocols/registry.h"
#include "quorum/cert_verifier.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "storage/block_store.h"
#include "types/block.h"
#include "types/messages.h"
#include "util/json.h"
#include "util/rng.h"

namespace {

using namespace bamboo;
using Clock = std::chrono::steady_clock;

constexpr int kMinReps = 3;
constexpr int kMaxReps = 60;

double elapsed_s(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// CPU time of the calling thread. The host-speed metrics use it rather
/// than wall time: the driver is single-threaded, and CPU time leaves out
/// the intervals in which the scheduler ran something else.
double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory, written out when the driver exits.
// ---------------------------------------------------------------------------

struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  int parent;  ///< index of the enclosing span, -1 for a root
  int rep;     ///< repetition id within this process
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

  int open(const char* name, int rep) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, ns(Clock::now()), 0, parent, rep});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int index) {
    spans_[static_cast<std::size_t>(index)].end_ns = ns(Clock::now());
    stack_.pop_back();
  }

  /// A finished leaf span under the currently open span.
  void leaf(const char* name, Clock::time_point start, Clock::time_point end) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    const int rep =
        parent < 0 ? 0 : spans_[static_cast<std::size_t>(parent)].rep;
    spans_.push_back(Span{name, ns(start), ns(end), parent, rep});
  }

  /// Span duration minus the time its direct children cover, summed over
  /// every span with this name (children never overlap: the simulator is
  /// single-threaded and spans nest).
  [[nodiscard]] double self_seconds(std::string_view name) const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    std::int64_t total = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (name == spans_[i].name) {
        total += spans_[i].end_ns - spans_[i].start_ns - child_ns[i];
      }
    }
    return static_cast<double>(total) * 1e-9;
  }

  /// Total duration of the spans with this name.
  [[nodiscard]] double total_seconds(std::string_view name) const {
    std::int64_t total = 0;
    for (const Span& s : spans_) {
      if (name == s.name) total += s.end_ns - s.start_ns;
    }
    return static_cast<double>(total) * 1e-9;
  }

  void write(const std::string& path, const std::string& workload) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write trace file " + path);
    for (const Span& s : spans_) {
      out << "{\"workload\":\"" << workload << "\",\"rep\":" << s.rep
          << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
          << "}\n";
    }
  }

 private:
  [[nodiscard]] std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// The traced run's sink; the timing protocol wrapper records into it.
Tracer* g_tracer = nullptr;

/// Runs one protocol rule and records it as a leaf span of the open phase.
template <typename F>
auto timed(const char* name, F&& rule) {
  const Clock::time_point start = Clock::now();
  auto result = rule();
  if (g_tracer != nullptr) g_tracer->leaf(name, start, Clock::now());
  return result;
}

/// Delegates every rule to the real protocol and records each rule call
/// as a span. Registered under "timed-<protocol>" and used only by the
/// traced run, whose simulated outputs must equal the untraced ones.
class TimedProtocol final : public core::SafetyProtocol {
 public:
  explicit TimedProtocol(std::unique_ptr<core::SafetyProtocol> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }

  [[nodiscard]] std::optional<core::ProposalPlan> plan_proposal(
      types::View view, const core::ProtocolContext& ctx) override {
    return timed("protocols.plan_proposal",
                 [&] { return inner_->plan_proposal(view, ctx); });
  }
  [[nodiscard]] std::optional<core::ProposalPlan> plan_slot_proposal(
      types::View view, types::Slot slot,
      const core::ProtocolContext& ctx) override {
    return timed("protocols.plan_proposal", [&] {
      return inner_->plan_slot_proposal(view, slot, ctx);
    });
  }
  [[nodiscard]] bool should_vote(const types::ProposalMsg& proposal,
                                 const core::ProtocolContext& ctx) override {
    return timed("protocols.should_vote",
                 [&] { return inner_->should_vote(proposal, ctx); });
  }
  void did_vote(const types::Block& block) override {
    timed("protocols.did_vote", [&] {
      inner_->did_vote(block);
      return 0;
    });
  }
  void update_state(const types::QuorumCert& qc,
                    const core::ProtocolContext& ctx) override {
    timed("protocols.update_state", [&] {
      inner_->update_state(qc, ctx);
      return 0;
    });
  }
  [[nodiscard]] std::optional<crypto::Digest> commit_target(
      const types::QuorumCert& qc, const core::ProtocolContext& ctx) override {
    return timed("protocols.commit_target",
                 [&] { return inner_->commit_target(qc, ctx); });
  }

  [[nodiscard]] bool multi_leader() const override {
    return inner_->multi_leader();
  }
  [[nodiscard]] bool broadcast_votes() const override {
    return inner_->broadcast_votes();
  }
  [[nodiscard]] bool echo_messages() const override {
    return inner_->echo_messages();
  }
  [[nodiscard]] std::uint32_t fork_depth() const override {
    return inner_->fork_depth();
  }
  [[nodiscard]] std::uint32_t commit_chain_length() const override {
    return inner_->commit_chain_length();
  }
  [[nodiscard]] types::View locked_view() const override {
    return inner_->locked_view();
  }
  [[nodiscard]] types::View last_voted_view() const override {
    return inner_->last_voted_view();
  }

 private:
  std::unique_ptr<core::SafetyProtocol> inner_;
};

// ---------------------------------------------------------------------------
// Spec
// ---------------------------------------------------------------------------

struct Spec {
  std::string workload;
  harness::RunSpec run;
  /// Counters (names as in Outputs::counter) that must be nonzero: the
  /// workload's target layers did work.
  std::vector<std::string> require_nonzero;
};

Spec load_spec(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read spec " + path);
  std::stringstream text;
  text << in.rdbuf();
  const util::Json j = util::Json::parse(text.str());

  Spec spec;
  spec.workload = j.get_string("workload", "");
  const util::Json* cfg = j.find("cfg");
  const util::Json* load = j.find("load");
  if (spec.workload.empty() || cfg == nullptr || load == nullptr) {
    throw std::runtime_error("spec needs workload, cfg and load");
  }
  harness::RunSpec& run = spec.run;
  run.cfg = core::Config::from_json(*cfg);
  run.opts.warmup_s = j.get_number("warmup_s", 0);
  run.opts.measure_s = j.get_number("measure_s", 0);
  if (run.opts.warmup_s <= 0 || run.opts.measure_s <= 0) {
    throw std::runtime_error("spec needs positive warmup_s and measure_s");
  }

  client::WorkloadConfig& wl = run.workload;
  const std::string mode = load->get_string("mode", "");
  if (mode == "closed") {
    wl.mode = client::LoadMode::kClosedLoop;
    wl.concurrency =
        static_cast<std::uint32_t>(load->get_int("sessions", 0));
    run.offered = wl.concurrency;
  } else if (mode == "open") {
    wl.mode = client::LoadMode::kOpenLoop;
    // The rate is a share of the analytic model's saturation throughput
    // for this very configuration.
    wl.arrival_rate_tps = load->get_number("saturation_share", 0) *
                          model::PerfModel(run.cfg).saturation_tps();
    wl.client_population =
        static_cast<std::uint64_t>(load->get_int("population", 0));
    run.offered = wl.arrival_rate_tps;
  } else {
    throw std::runtime_error("load.mode must be closed or open");
  }
  if (const util::Json* req = j.find("require_nonzero");
      req != nullptr && req->is_array()) {
    for (const util::Json& name : req->as_array()) {
      spec.require_nonzero.push_back(name.as_string());
    }
  }
  return spec;
}

// ---------------------------------------------------------------------------
// One driven repetition
// ---------------------------------------------------------------------------

/// Cluster-wide counters read from each layer's public getters; the window
/// figures are the difference of two of these.
struct Counters {
  std::uint64_t events = 0;
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t certs = 0;
  std::uint64_t msgs_handled = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t mem_admitted = 0;
  std::uint64_t mem_rejected = 0;
  std::uint64_t sync_blocks = 0;
  std::uint64_t snapshots = 0;
  std::uint64_t restarts = 0;
  std::uint64_t appends = 0;
  std::uint64_t store_bytes = 0;
  std::uint64_t logical_bytes = 0;
  std::uint64_t blocks = 0;  ///< committed at the observer (replica 0)
  types::Height height = 0;  ///< observer's committed height
  std::vector<sim::Duration> cpu_busy;  ///< per replica id

  static Counters of(harness::Cluster& cluster) {
    Counters c;
    c.events = cluster.simulator().events_executed();
    c.msgs = cluster.network().messages_sent();
    c.bytes = cluster.network().bytes_sent();
    c.timeouts = cluster.total_timeouts();
    for (types::NodeId id = 0; id < cluster.size(); ++id) {
      const core::Replica& r = cluster.replica(id);
      c.certs += r.stats().certs_verified;
      c.msgs_handled += r.stats().msgs_handled;
      c.mem_admitted += r.pool().admitted_count();
      c.mem_rejected += r.pool().rejected_count();
      c.sync_blocks += r.sync_stats().blocks_applied;
      c.snapshots += r.sync_stats().snapshots_installed;
      const storage::StoreStats& st = cluster.store(id).stats();
      c.appends += st.appends;
      c.store_bytes += st.bytes_written;
      c.logical_bytes += st.logical_bytes;
      c.cpu_busy.push_back(r.stats().cpu_busy);
    }
    // Instances torn down by crash-restart keep counting through the
    // cluster's retired accumulators.
    c.certs += cluster.retired_stats().certs_verified;
    c.msgs_handled += cluster.retired_stats().msgs_handled;
    c.mem_admitted += cluster.retired_mem_admitted();
    c.mem_rejected += cluster.retired_mem_rejected();
    c.sync_blocks += cluster.retired_sync_stats().blocks_applied;
    c.snapshots += cluster.retired_sync_stats().snapshots_installed;
    c.restarts = cluster.restarts();
    c.blocks = cluster.replica(0).stats().blocks_committed;
    c.height = cluster.replica(0).forest().committed_height();
    return c;
  }
};

/// Every simulated output of one run. Deterministic for a seed: all
/// repetitions, the traced run and (for the shared fields) the
/// harness::execute_full reference must agree exactly.
struct Outputs {
  double measured_s = 0;
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t samples = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double p999_ms = 0;       ///< util::Samples::percentile(99.9)
  double hist_p999_ms = 0;  ///< util::LatencyHistogram::quantile(0.999)
  double recovery_ms = 0;
  double cpu_util_max = 0;
  std::uint64_t vertices_end = 0;
  std::uint64_t events_pending_end = 0;
  types::Height height_start = 0;
  types::Height height_end = 0;
  // window deltas
  std::uint64_t blocks = 0;
  std::uint64_t events = 0;
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t certs = 0;
  std::uint64_t msgs_handled = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t mem_admitted = 0;
  std::uint64_t mem_rejected = 0;
  std::uint64_t sync_blocks = 0;
  std::uint64_t snapshots = 0;
  std::uint64_t restarts = 0;
  std::uint64_t appends = 0;
  std::uint64_t store_bytes = 0;
  std::uint64_t logical_bytes = 0;
  // invariants
  bool consistent = false;
  std::uint64_t safety_violations = 0;

  bool operator==(const Outputs&) const = default;

  /// Named window counters for the target-layer gate.
  [[nodiscard]] std::optional<std::uint64_t> counter(
      const std::string& name) const {
    const std::map<std::string, std::uint64_t> named = {
        {"blocks", blocks},           {"certs", certs},
        {"timeouts", timeouts},       {"mem_rejected", mem_rejected},
        {"sync_blocks", sync_blocks}, {"snapshots", snapshots},
        {"restarts", restarts},       {"appends", appends},
        {"vertices_end", vertices_end}, {"msgs", msgs}};
    const auto it = named.find(name);
    if (it == named.end()) return std::nullopt;
    return it->second;
  }
};

/// Thread CPU seconds per phase of one repetition.
/// The warm-up and the measured window are each run as kSegments
/// consecutive run_for calls. Every repetition executes identical work in
/// segment k, so the fastest repetition of each segment is that segment's
/// least-disturbed host time; see best_of_segments().
constexpr int kSegments = 64;

struct Timing {
  double build_s = 0;    ///< Cluster construction
  double install_s = 0;  ///< workload driver + churn install
  double start_s = 0;    ///< Cluster::start + WorkloadDriver::start
  std::vector<double> warmup;  ///< per warm-up segment
  std::vector<double> window;  ///< per measured-window segment
  std::vector<double> calib;   ///< calibration pass after each window segment

  [[nodiscard]] double warmup_s() const { return sum(warmup); }
  [[nodiscard]] double window_s() const { return sum(window); }
  [[nodiscard]] double setup_s() const {
    return build_s + install_s + start_s + warmup_s();
  }

  static double sum(const std::vector<double>& v) {
    double total = 0;
    for (double x : v) total += x;
    return total;
  }
};

/// Host-speed calibration: a fixed hash-map build and lookup pass, timed
/// right after each measured segment. It runs in an arena of its own and
/// is timed warm, so neither the program's code nor its heap or cache
/// state changes its time; only the host does. On a shared host the
/// simulator's speed swings with co-tenants for minutes at a time, which
/// no choice among repetitions in one process can undo. The pass's floor
/// (per segment the fastest repetition, then the median over segments,
/// the same estimator as the simulator's) tracks those swings in part,
/// and the host-time metrics are reported on a reference host on which
/// the floor is kCalibNominalS.
class HostCalibration {
 public:
  static constexpr double kCalibNominalS = 1e-3;

  HostCalibration() : keys_(kKeys), arena_(kArenaBytes, std::byte{1}) {
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;  // xorshift64, not the program's
    for (std::uint64_t& k : keys_) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      k = x;
    }
  }

  /// Thread CPU seconds of one pass; an untimed pass first loads its data
  /// into the cache.
  double run() {
    pass();
    const double start = thread_cpu_s();
    pass();
    return thread_cpu_s() - start;
  }

 private:
  static constexpr std::size_t kKeys = 16384;
  static constexpr std::size_t kArenaBytes = 2u << 20;  ///< about 2x its use

  void pass() {
    std::pmr::monotonic_buffer_resource arena(
        arena_.data(), arena_.size(), std::pmr::null_memory_resource());
    std::pmr::unordered_map<std::uint64_t, std::uint64_t> map(&arena);
    for (std::size_t i = 0; i < keys_.size(); ++i) map[keys_[i]] = i;
    std::uint64_t hits = 0;
    for (std::size_t i = 0; i < keys_.size(); i += 2) {
      hits += map.count(keys_[i] ^ (i & 2));
    }
    sink_ = hits + map.size();
  }

  std::vector<std::uint64_t> keys_;
  std::vector<std::byte> arena_;
  volatile std::uint64_t sink_ = 0;
};

/// Simulated interval [now, now + length] as kSegments run_for calls with
/// integer-nanosecond boundaries: the same events run, in the same order,
/// as one run_for(length). Returns each segment's thread CPU seconds; with
/// a calibration, also times one pass of it after each segment.
std::vector<double> run_segments(sim::Simulator& simulator, double length_s,
                                 HostCalibration* calibration = nullptr,
                                 std::vector<double>* calib = nullptr) {
  const sim::Time start = simulator.now();
  const sim::Duration length = sim::from_seconds(length_s);
  std::vector<double> cpu;
  cpu.reserve(kSegments);
  for (int k = 1; k <= kSegments; ++k) {
    const sim::Time end = start + length * k / kSegments;
    const double t0 = thread_cpu_s();
    simulator.run_for(end - simulator.now());
    cpu.push_back(thread_cpu_s() - t0);
    if (calibration != nullptr) calib->push_back(calibration->run());
  }
  return cpu;
}

/// Pins the calling thread to the k-th (modulo their count) of the CPUs it
/// may run on. Repetitions rotate through them: on a shared host one CPU's
/// speed swings with its co-tenants for seconds at a time, and rotating
/// lets the per-segment best below draw on every CPU.
void pin_to_cpu(const cpu_set_t& allowed, int k) {
  int skip = k % CPU_COUNT(&allowed);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || skip-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof one, &one);
    return;
  }
}

/// Host time of the undisturbed run: per phase and segment, the fastest of
/// the repetitions, summed.
Timing best_of_segments(const std::vector<Timing>& reps) {
  Timing best = reps.front();
  for (const Timing& t : reps) {
    best.build_s = std::min(best.build_s, t.build_s);
    best.install_s = std::min(best.install_s, t.install_s);
    best.start_s = std::min(best.start_s, t.start_s);
    for (std::size_t k = 0; k < best.warmup.size(); ++k) {
      best.warmup[k] = std::min(best.warmup[k], t.warmup[k]);
    }
    for (std::size_t k = 0; k < best.window.size(); ++k) {
      best.window[k] = std::min(best.window[k], t.window[k]);
    }
    for (std::size_t k = 0; k < best.calib.size(); ++k) {
      best.calib[k] = std::min(best.calib[k], t.calib[k]);
    }
  }
  return best;
}

/// The host's slowdown against the reference host: the calibration floor
/// (median over segments of each segment's fastest pass) over its nominal.
double host_factor(const Timing& best) {
  std::vector<double> passes = best.calib;
  const auto mid =
      passes.begin() + static_cast<std::ptrdiff_t>(passes.size() / 2);
  std::nth_element(passes.begin(), mid, passes.end());
  return *mid / HostCalibration::kCalibNominalS;
}

struct Repetition {
  Outputs out;
  Timing time;
};

/// Returns one phase's thread CPU seconds; in the traced run it also
/// records the phase's span.
template <typename F>
double phase(Tracer* tracer, const char* name, int rep, F&& body) {
  const int span = tracer != nullptr ? tracer->open(name, rep) : -1;
  const double start = thread_cpu_s();
  body();
  const double cpu = thread_cpu_s() - start;
  if (tracer != nullptr) tracer->close(span);
  return cpu;
}

/// One repetition, set up exactly as harness::execute_full sets up a run
/// (including the payload size taken from Config::psize). With a
/// calibration, each measured segment is followed by one timed pass of it.
Repetition drive(const harness::RunSpec& spec, Tracer* tracer, int rep,
                 HostCalibration* calibration = nullptr) {
  Repetition r;
  const int root = tracer != nullptr ? tracer->open("run", rep) : -1;
  // Declared before the cluster: pending probe polls reference it.
  harness::RecoveryProbe probe;
  std::unique_ptr<harness::Cluster> cluster;
  std::unique_ptr<client::WorkloadDriver> driver;
  client::WorkloadConfig workload = spec.workload;
  workload.payload_size = spec.cfg.psize;

  r.time.build_s = phase(tracer, "harness.build", rep, [&] {
    cluster = std::make_unique<harness::Cluster>(spec.cfg);
  });
  r.time.install_s = phase(tracer, "harness.install", rep, [&] {
    driver = std::make_unique<client::WorkloadDriver>(
        cluster->simulator(), cluster->network(), cluster->config(),
        workload);
    driver->install();
    harness::install_churn(*cluster,
                           harness::effective_churn(spec.faults, spec.cfg),
                           &probe);
  });
  r.time.start_s = phase(tracer, "harness.start", rep, [&] {
    cluster->start();
    driver->start();
  });
  sim::Simulator& simulator = cluster->simulator();
  phase(tracer, "sim.warmup", rep, [&] {
    r.time.warmup = run_segments(simulator, spec.opts.warmup_s);
  });
  const Counters before = Counters::of(*cluster);
  driver->begin_measurement();
  phase(tracer, "sim.window", rep, [&] {
    r.time.window = run_segments(simulator, spec.opts.measure_s,
                                 calibration, &r.time.calib);
  });
  driver->end_measurement();

  phase(tracer, "harness.finalize", rep, [&] {
    const Counters after = Counters::of(*cluster);
    driver->stop();
    Outputs& o = r.out;
    o.measured_s = driver->measured_seconds();
    o.issued = driver->measured_issued();
    o.completed = driver->measured_completed();
    util::Samples& lat = driver->latencies_ms();
    o.samples = lat.count();
    if (!lat.empty()) {
      o.p50_ms = lat.percentile(50);
      o.p99_ms = lat.percentile(99);
      o.p999_ms = lat.percentile(99.9);
    }
    if (!driver->latency_hist().empty()) {
      o.hist_p999_ms = driver->latency_hist().quantile(0.999);
    }
    o.recovery_ms = probe.mean_ms(sim::to_seconds(simulator.now()));
    const double window_ns =
        static_cast<double>(sim::from_seconds(spec.opts.measure_s));
    for (std::size_t id = 0; id < after.cpu_busy.size(); ++id) {
      // A replica rebuilt by crash-restart restarts its busy clock at 0.
      const sim::Duration busy =
          after.cpu_busy[id] >= before.cpu_busy[id]
              ? after.cpu_busy[id] - before.cpu_busy[id]
              : after.cpu_busy[id];
      o.cpu_util_max =
          std::max(o.cpu_util_max, static_cast<double>(busy) / window_ns);
    }
    o.vertices_end = cluster->replica(0).forest().size();
    o.events_pending_end = simulator.events_pending();
    o.height_start = before.height;
    o.height_end = after.height;
    o.blocks = after.blocks - before.blocks;
    o.events = after.events - before.events;
    o.msgs = after.msgs - before.msgs;
    o.bytes = after.bytes - before.bytes;
    o.certs = after.certs - before.certs;
    o.msgs_handled = after.msgs_handled - before.msgs_handled;
    o.timeouts = after.timeouts - before.timeouts;
    o.mem_admitted = after.mem_admitted - before.mem_admitted;
    o.mem_rejected = after.mem_rejected - before.mem_rejected;
    o.sync_blocks = after.sync_blocks - before.sync_blocks;
    o.snapshots = after.snapshots - before.snapshots;
    o.restarts = after.restarts - before.restarts;
    o.appends = after.appends - before.appends;
    o.store_bytes = after.store_bytes - before.store_bytes;
    o.logical_bytes = after.logical_bytes - before.logical_bytes;
    o.consistent = cluster->check_consistency().consistent;
    for (types::NodeId id = 0; id < cluster->size(); ++id) {
      o.safety_violations += cluster->replica(id).stats().safety_violations;
    }
  });
  if (tracer != nullptr) tracer->close(root);
  // Teardown (driver first: it references the cluster) is not timed.
  driver.reset();
  cluster.reset();
  return r;
}

/// Field-by-field comparison of the driven outputs against the harness's
/// own RunResult for the same spec; returns the mismatching field names.
std::vector<std::string> compare_with_reference(const Outputs& o,
                                                const harness::RunResult& ref) {
  std::vector<std::string> bad;
  const auto check = [&bad](bool same, const char* field) {
    if (!same) bad.emplace_back(field);
  };
  const double secs = o.measured_s;
  check(ref.measured_s == secs, "measured_s");
  check(ref.throughput_tps == static_cast<double>(o.completed) / secs,
        "throughput_tps");
  check(ref.offered_tps == static_cast<double>(o.issued) / secs,
        "offered_tps");
  check(ref.latency_samples == o.samples, "latency_samples");
  check(ref.latency_ms_p50 == o.p50_ms, "latency_ms_p50");
  check(ref.latency_ms_p99 == o.p99_ms, "latency_ms_p99");
  check(ref.hist_p999_ms == o.hist_p999_ms, "hist_p999_ms");
  check(ref.blocks_committed == o.blocks, "blocks_committed");
  check(ref.timeouts == o.timeouts, "timeouts");
  check(ref.net_bytes == o.bytes, "net_bytes");
  check(ref.certs_verified == o.certs, "certs_verified");
  check(ref.mem_admitted == o.mem_admitted, "mem_admitted");
  check(ref.mem_rejected == o.mem_rejected, "mem_rejected");
  check(ref.sync_blocks == o.sync_blocks, "sync_blocks");
  check(ref.snapshots_installed == o.snapshots, "snapshots_installed");
  check(ref.restarts == o.restarts, "restarts");
  check(ref.recovery_ms == o.recovery_ms, "recovery_ms");
  check(ref.disk_bytes_written == o.store_bytes, "disk_bytes_written");
  check(ref.consistent == o.consistent, "consistent");
  check(ref.safety_violations == o.safety_violations, "safety_violations");
  return bad;
}

// ---------------------------------------------------------------------------
// Layer replays: one layer's hot public function on workload-shaped inputs.
// Each returns the fastest of three passes (per call).
// ---------------------------------------------------------------------------

constexpr int kReplayPasses = 3;

template <typename F>
double best_of_passes(F&& pass) {
  double best = 0;
  for (int i = 0; i < kReplayPasses; ++i) {
    const double t = pass();
    if (i == 0 || t < best) best = t;
  }
  return best;
}

types::QuorumCert signed_qc(const crypto::KeyStore& keys, std::uint32_t q,
                            types::View view, types::Height height,
                            const crypto::Digest& hash) {
  types::QuorumCert qc;
  qc.view = view;
  qc.height = height;
  qc.block_hash = hash;
  const crypto::Digest digest = types::vote_digest(view, hash);
  for (std::uint32_t i = 0; i < q; ++i) qc.sigs.push_back(keys.sign(i, digest));
  return qc;
}

/// A chain of `count` blocks shaped like the workload's: `txs` transactions
/// (the run's mean per committed block) of psize payload bytes, each
/// justified by a quorum-signed QC of its parent. Element h-1 has height h.
std::vector<types::BlockPtr> make_chain(const core::Config& cfg,
                                        const crypto::KeyStore& keys,
                                        std::size_t count, std::size_t txs) {
  std::vector<types::BlockPtr> chain;
  chain.reserve(count);
  types::BlockPtr parent = types::Block::genesis();
  types::QuorumCert justify = types::Block::genesis_qc();
  std::uint64_t tx_id = 1;
  for (std::size_t h = 1; h <= count; ++h) {
    types::Block::Fields f;
    f.parent_hash = parent->hash();
    f.view = h;
    f.height = h;
    f.proposer = static_cast<types::NodeId>(h % cfg.n_replicas);
    f.justify = justify;
    f.txns.resize(txs);
    for (types::Transaction& tx : f.txns) {
      tx.id = tx_id++;
      tx.serving_replica = static_cast<types::NodeId>(tx.id % cfg.n_replicas);
      tx.payload_size = cfg.psize;
    }
    parent = std::make_shared<const types::Block>(std::move(f));
    justify = signed_qc(keys, cfg.quorum(), h, h, parent->hash());
    chain.push_back(parent);
  }
  return chain;
}

/// sim.queue_ns: one schedule + one pop at the run's pending-event depth.
double replay_queue_ns(std::size_t depth) {
  constexpr std::size_t kOps = 400'000;
  util::Rng rng(17);
  std::vector<sim::Duration> gaps(kOps);
  for (sim::Duration& g : gaps) {
    g = static_cast<sim::Duration>(rng.uniform_u64(2 * sim::kMillisecond));
  }
  return best_of_passes([&] {
    sim::EventQueue queue;
    std::uint64_t fired = 0;
    for (std::size_t i = 0; i < std::max<std::size_t>(depth, 1); ++i) {
      queue.schedule(gaps[i % kOps], [&fired] { ++fired; });
    }
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < kOps; ++i) {
      sim::EventQueue::Fired ev = queue.pop();
      ev.fn();
      queue.schedule(ev.at + gaps[i], [&fired] { ++fired; });
    }
    const double t = elapsed_s(start, Clock::now());
    if (fired != kOps) throw std::logic_error("queue replay lost events");
    return t * 1e9 / static_cast<double>(kOps);
  });
}

/// net.broadcast_ns: SimNetwork::broadcast of the workload's proposal and
/// vote messages to its n replicas (deliveries drained untimed).
double replay_broadcast_ns(const core::Config& cfg,
                           const crypto::KeyStore& keys,
                           const types::BlockPtr& block) {
  constexpr int kRounds = 4000;
  net::NetConfig nc;
  nc.bandwidth_bps = cfg.bandwidth_bps;
  nc.rtt_mean = cfg.rtt_mean;
  nc.rtt_stddev = cfg.rtt_stddev;
  nc.min_one_way = cfg.min_one_way_delay;
  nc.n_replicas = cfg.n_replicas;
  types::ProposalMsg proposal;
  proposal.block = block;
  proposal.sig = keys.sign(0, block->hash());
  const types::MessagePtr prop_msg = types::make_message(std::move(proposal));
  types::VoteMsg vote;
  vote.view = block->view();
  vote.height = block->height();
  vote.block_hash = block->hash();
  vote.sig = keys.sign(1, types::vote_digest(block->view(), block->hash()));
  const types::MessagePtr vote_msg = types::make_message(vote);
  return best_of_passes([&] {
    sim::Simulator simulator(23);
    net::SimNetwork network(simulator, cfg.num_endpoints(), nc);
    std::uint64_t delivered = 0;
    for (types::NodeId id = 0; id < cfg.num_endpoints(); ++id) {
      network.set_handler(id,
                          [&delivered](const net::Envelope&) { ++delivered; });
    }
    double timed = 0;
    for (int r = 0; r < kRounds; ++r) {
      const Clock::time_point start = Clock::now();
      network.broadcast(0, cfg.n_replicas, prop_msg);
      network.broadcast(1, cfg.n_replicas, vote_msg);
      timed += elapsed_s(start, Clock::now());
      simulator.run_all();
    }
    if (delivered != 2ULL * kRounds * (cfg.n_replicas - 1)) {
      throw std::logic_error("broadcast replay lost messages");
    }
    return timed * 1e9 / (2.0 * kRounds);
  });
}

/// quorum.check_qc_us: CertVerifier::check_qc at the workload's quorum.
double replay_check_qc_us(const core::Config& cfg,
                          const crypto::KeyStore& keys,
                          const std::vector<types::BlockPtr>& chain) {
  constexpr int kChecks = 20'000;
  std::vector<types::QuorumCert> qcs;
  for (std::size_t i = 0; i < 32 && i < chain.size(); ++i) {
    qcs.push_back(signed_qc(keys, cfg.quorum(), chain[i]->view(),
                            chain[i]->height(), chain[i]->hash()));
  }
  quorum::CertVerifier verifier(keys, cfg.n_replicas);
  return best_of_passes([&] {
    int ok = 0;
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < kChecks; ++i) {
      ok += verifier.check_qc(qcs[static_cast<std::size_t>(i) % qcs.size()]) ==
            quorum::CertCheck::kOk;
    }
    const double t = elapsed_s(start, Clock::now());
    if (ok != kChecks) throw std::logic_error("check_qc replay rejected a QC");
    return t * 1e6 / kChecks;
  });
}

/// forest.commit_us: per block, BlockForest add + add_qc + commit + prune
/// (plus prune_below under retention) over the heights the measured window
/// committed, on a forest pre-grown to the window's starting height.
double replay_forest_us(const core::Config& cfg,
                        const std::vector<types::BlockPtr>& chain,
                        const crypto::KeyStore& keys, types::Height from,
                        types::Height to, std::uint32_t lag) {
  if (to + lag <= from) return 0.0;  // the window committed nothing
  std::vector<types::QuorumCert> qcs;
  qcs.reserve(chain.size());
  for (const types::BlockPtr& b : chain) {
    qcs.push_back(signed_qc(keys, cfg.quorum(), b->view(), b->height(),
                            b->hash()));
  }
  const auto step = [&](forest::BlockForest& forest, types::Height h) {
    forest.add(chain[h - 1]);
    forest.add_qc(qcs[h - 1]);
    if (h > lag && !forest.commit(chain[h - lag - 1]->hash())) {
      throw std::logic_error("forest replay refused a commit");
    }
    forest.prune();
    if (cfg.retention > 0 && forest.committed_height() > cfg.retention) {
      forest.prune_below(forest.committed_height() - cfg.retention);
    }
  };
  return best_of_passes([&] {
    forest::BlockForest forest;
    for (types::Height h = 1; h <= from; ++h) step(forest, h);
    const Clock::time_point start = Clock::now();
    for (types::Height h = from + 1; h <= to + lag; ++h) step(forest, h);
    const double t = elapsed_s(start, Clock::now());
    return t * 1e6 / static_cast<double>(to + lag - from);
  });
}

/// storage.append_us: BlockStore::append on the workload's store kind (the
/// file store writes under TMPDIR, like the run's stores).
double replay_append_us(const core::Config& cfg,
                        const std::vector<types::BlockPtr>& chain) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("perfbench-append-" + std::to_string(::getpid()) + ".blk"))
          .string();
  const double best = best_of_passes([&] {
    std::filesystem::remove(path);
    const std::unique_ptr<storage::BlockStore> store =
        storage::make_store(cfg.store, path);
    const Clock::time_point start = Clock::now();
    for (const types::BlockPtr& b : chain) store->append(b);
    const double t = elapsed_s(start, Clock::now());
    if (store->size() != chain.size()) {
      throw std::logic_error("append replay lost blocks");
    }
    return t * 1e6 / static_cast<double>(chain.size());
  });
  std::filesystem::remove(path);
  return best;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double per_block(std::uint64_t count, std::uint64_t blocks) {
  return blocks > 0 ? static_cast<double>(count) / static_cast<double>(blocks)
                    : 0.0;
}

util::Json number_list(const std::vector<double>& values) {
  util::Json::Array a;
  for (double v : values) a.emplace_back(v);
  return util::Json(std::move(a));
}

struct Args {
  std::string spec;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--spec") {
      a.spec = value;
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.spec.empty()) throw std::invalid_argument("--spec is required");
  return a;
}

int run(const Args& args) {
  const Clock::time_point epoch = Clock::now();
  const Spec spec = load_spec(args.spec);
  const harness::RunSpec& run_spec = spec.run;
  const core::Config& cfg = run_spec.cfg;
  std::vector<std::string> errors;
  std::uint64_t runs = 0;
  std::uint64_t failed_runs = 0;
  // Checks on one run's outputs; a run fails when any of them fails.
  const auto check_run = [&](const Outputs& o, const std::string& label,
                             const Outputs* expected) {
    std::vector<std::string> bad;
    if (!o.consistent || o.safety_violations != 0) {
      bad.push_back(label + ": replicas committed inconsistently "
                            "(safety_violations=" +
                    std::to_string(o.safety_violations) + ")");
    }
    if (expected != nullptr && !(o == *expected)) {
      bad.push_back(label + ": simulated outputs differ from repetition 0");
    }
    ++runs;
    if (!bad.empty()) ++failed_runs;
    errors.insert(errors.end(), bad.begin(), bad.end());
  };

  // 1. Untraced repetitions of the identical seeded run, each pinned to
  // the next CPU in turn. They stop when one more repetition and the
  // reference run below, each as slow as the slowest repetition so far,
  // would overrun --seconds.
  cpu_set_t allowed;
  const bool rotate = sched_getaffinity(0, sizeof allowed, &allowed) == 0;
  HostCalibration calibration;
  std::vector<Repetition> reps;
  double rep_wall_s = 0;
  double rss_mb = 0;
  while (static_cast<int>(reps.size()) < kMinReps ||
         (elapsed_s(epoch, Clock::now()) + 2 * rep_wall_s < args.seconds &&
          static_cast<int>(reps.size()) < kMaxReps)) {
    const int id = static_cast<int>(reps.size());
    if (rotate) pin_to_cpu(allowed, id);
    const Clock::time_point rep_start = Clock::now();
    reps.push_back(drive(run_spec, nullptr, id, &calibration));
    rep_wall_s = std::max(rep_wall_s, elapsed_s(rep_start, Clock::now()));
    // Later repetitions reuse the allocator's free lists, so the peak of a
    // run is the high-water mark right after the first.
    if (id == 0) rss_mb = peak_rss_mb();
    check_run(reps.back().out, "repetition " + std::to_string(id),
              id > 0 ? &reps.front().out : nullptr);
  }
  if (rotate) sched_setaffinity(0, sizeof allowed, &allowed);
  const Outputs& out = reps.front().out;

  // 2. The harness's own execution of the same spec.
  {
    const harness::RunOutput ref = harness::execute_full(run_spec);
    ++runs;
    const std::vector<std::string> bad =
        compare_with_reference(out, ref.result);
    if (!bad.empty()) {
      std::string fields;
      for (const std::string& f : bad) fields += " " + f;
      errors.push_back("driven run differs from harness::execute_full on:" +
                       fields);
      ++failed_runs;
    }
  }

  // Checks on the workload's outputs, which every run shares: when one
  // fails, every run failed it.
  std::vector<std::string> workload_errors;
  for (const std::string& name : spec.require_nonzero) {
    const std::optional<std::uint64_t> value = out.counter(name);
    if (!value) {
      workload_errors.push_back("unknown counter in require_nonzero: " + name);
    } else if (*value == 0) {
      workload_errors.push_back("target layer did no work: " + name + " == 0");
    }
  }
  // p999 is reported only with at least 10 samples beyond it.
  if (out.samples < 10'000) {
    workload_errors.push_back("too few latency samples for p999 (" +
                              std::to_string(out.samples) + " < 10000)");
  }

  std::vector<Timing> timings;
  for (const Repetition& r : reps) timings.push_back(r.time);
  const Timing best = best_of_segments(timings);
  const double best_window = best.window_s();
  const double measure_s = run_spec.opts.measure_s;
  // Host times from the repetitions, on the reference host.
  const double host = host_factor(best);

  util::Json::Object e2e;
  e2e.emplace("sim_speed", measure_s * host / best_window);
  e2e.emplace("setup_s", best.setup_s() / host);
  e2e.emplace("peak_rss_mb", rss_mb);
  e2e.emplace("sim_tps",
              static_cast<double>(out.completed) / out.measured_s);
  e2e.emplace("sim_p50_ms", out.p50_ms);
  e2e.emplace("sim_p99_ms", out.p99_ms);
  e2e.emplace("sim_p999_ms", out.p999_ms);
  e2e.emplace("served_share",
              out.issued > 0 ? static_cast<double>(out.completed) /
                                   static_cast<double>(out.issued)
                             : 0.0);

  util::Json::Object layer;
  if (args.trace) {
    // 3. The traced run: phase spans + timed protocol rules.
    const std::string base = cfg.protocol;
    protocols::register_protocol("timed-" + base, [base] {
      return std::make_unique<TimedProtocol>(protocols::make_protocol(base));
    });
    harness::RunSpec traced_spec = run_spec;
    traced_spec.cfg.protocol = "timed-" + base;
    Tracer tracer(epoch);
    g_tracer = &tracer;
    const Repetition traced =
        drive(traced_spec, &tracer, static_cast<int>(reps.size()));
    g_tracer = nullptr;
    check_run(traced.out, "traced run", &out);
    // The window's only child spans are the rule calls, so the rules' share
    // is what the window's self time leaves out.
    const double rule_share = 1.0 - tracer.self_seconds("sim.window") /
                                        tracer.total_seconds("sim.window");

    // 4. Layer replays on workload-shaped inputs.
    const crypto::KeyStore keys(cfg.seed ^ 0x9e3779b97f4a7c15ULL,
                                cfg.num_endpoints());
    const std::uint32_t lag =
        protocols::make_protocol(base)->commit_chain_length() - 1;
    const std::size_t txs_per_block = std::clamp<std::size_t>(
        out.completed / std::max<std::uint64_t>(out.blocks, 1), 1, cfg.bsize);
    const std::vector<types::BlockPtr> chain =
        make_chain(cfg, keys, out.height_end + lag, txs_per_block);
    const double queue_ns = replay_queue_ns(out.events_pending_end);
    const double broadcast_ns = replay_broadcast_ns(cfg, keys, chain.back());
    const double check_qc_us = replay_check_qc_us(cfg, keys, chain);
    const double commit_us = replay_forest_us(
        cfg, chain, keys, out.height_start, out.height_end, lag);
    const std::vector<types::BlockPtr> appended(
        chain.begin(),
        chain.begin() + static_cast<std::ptrdiff_t>(
                            std::min<std::size_t>(chain.size(), 2000)));
    const double append_us = replay_append_us(cfg, appended);
    const double window_us = best_window * 1e6;
    const bool file_store = cfg.store == "file";

    layer.emplace("sim.events_per_block", per_block(out.events, out.blocks));
    layer.emplace("sim.ns_per_event", best_window / host * 1e9 /
                                          static_cast<double>(out.events));
    layer.emplace("sim.queue_ns", queue_ns);
    layer.emplace("sim.warmup_ms", best.warmup_s() / host * 1e3);
    layer.emplace("net.msgs_per_block", per_block(out.msgs, out.blocks));
    layer.emplace("net.kb_per_block",
                  per_block(out.bytes, out.blocks) / 1024.0);
    layer.emplace("net.broadcast_ns", broadcast_ns);
    layer.emplace("quorum.certs_per_block", per_block(out.certs, out.blocks));
    layer.emplace("quorum.check_qc_us", check_qc_us);
    layer.emplace("quorum.check_qc_share",
                  static_cast<double>(out.certs) * check_qc_us / window_us);
    layer.emplace("forest.vertices_end",
                  static_cast<double>(out.vertices_end));
    layer.emplace("forest.commit_us", commit_us);
    layer.emplace("forest.commit_share",
                  static_cast<double>(cfg.n_replicas) *
                      static_cast<double>(out.height_end - out.height_start) *
                      commit_us / window_us);
    layer.emplace("core.msgs_per_block",
                  per_block(out.msgs_handled, out.blocks));
    layer.emplace("core.cpu_util_max", out.cpu_util_max);
    layer.emplace("protocols.rule_share", rule_share);
    layer.emplace("pacemaker.timeouts_per_s",
                  static_cast<double>(out.timeouts) / out.measured_s);
    layer.emplace("mempool.reject_share",
                  out.mem_admitted + out.mem_rejected > 0
                      ? static_cast<double>(out.mem_rejected) /
                            static_cast<double>(out.mem_admitted +
                                                out.mem_rejected)
                      : 0.0);
    layer.emplace("sync.blocks_applied", static_cast<double>(out.sync_blocks));
    layer.emplace("sync.snapshots_installed",
                  static_cast<double>(out.snapshots));
    layer.emplace("sync.recovery_ms", out.recovery_ms);
    layer.emplace("storage.appends_per_block",
                  per_block(out.appends, out.blocks));
    layer.emplace("storage.write_amp",
                  out.logical_bytes > 0
                      ? static_cast<double>(out.store_bytes) /
                            static_cast<double>(out.logical_bytes)
                      : 0.0);
    // The in-memory store writes nothing to disk.
    layer.emplace("storage.disk_kb_per_block",
                  file_store ? per_block(out.store_bytes, out.blocks) / 1024.0
                             : 0.0);
    layer.emplace("storage.append_us", append_us);
    layer.emplace("storage.append_share",
                  static_cast<double>(out.appends) * append_us / window_us);
    layer.emplace("harness.restarts", static_cast<double>(out.restarts));
    layer.emplace("harness.build_ms", best.build_s / host * 1e3);
    layer.emplace("host.calib_us",
                  host * HostCalibration::kCalibNominalS * 1e6);
    layer.emplace("client.latency_samples", static_cast<double>(out.samples));
    // Single run against single runs: the traced window over the median
    // untraced one.
    std::vector<double> untraced;
    for (const Repetition& r : reps) untraced.push_back(r.time.window_s());
    std::nth_element(untraced.begin(),
                     untraced.begin() + static_cast<std::ptrdiff_t>(
                                            untraced.size() / 2),
                     untraced.end());
    layer.emplace("trace.overhead",
                  traced.time.window_s() / untraced[untraced.size() / 2] -
                      1.0);
    if (!args.trace_out.empty()) tracer.write(args.trace_out, spec.workload);
  }

  if (!workload_errors.empty()) {
    errors.insert(errors.end(), workload_errors.begin(),
                  workload_errors.end());
    failed_runs = runs;
  }

  util::Json::Object result;
  result.emplace("workload", spec.workload);
  result.emplace("correct", errors.empty());
  util::Json::Array error_list;
  for (const std::string& e : errors) error_list.emplace_back(e);
  result.emplace("errors", util::Json(std::move(error_list)));
  result.emplace("runs", static_cast<std::int64_t>(runs));
  result.emplace("failed_runs", static_cast<std::int64_t>(failed_runs));
  result.emplace("end_to_end", util::Json(std::move(e2e)));
  result.emplace("per_layer", util::Json(std::move(layer)));
  // Per-repetition host times, for studying the estimator.
  std::vector<double> windows, setups;
  for (const Timing& t : timings) {
    windows.push_back(t.window_s());
    setups.push_back(t.setup_s());
  }
  util::Json::Object detail;
  detail.emplace("window_s", number_list(windows));
  detail.emplace("setup_s", number_list(setups));
  detail.emplace("best_window_s", best_window);
  detail.emplace("host_factor", host);
  detail.emplace("measure_s", measure_s);
  detail.emplace("offered", run_spec.offered);
  detail.emplace("blocks", static_cast<std::int64_t>(out.blocks));
  detail.emplace("latency_samples", static_cast<std::int64_t>(out.samples));
  result.emplace("detail", util::Json(std::move(detail)));
  std::cout << util::Json(std::move(result)).dump() << "\n";
  return errors.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 2;
  }
}
