// Tests of the replica observer seam (core::ReplicaObserver). An observer
// that records every event of every replica must leave the run's
// RunResult unchanged, must see the replicas a crash-restart rebuilds, and
// its stream must carry enough to recompute the recovery probe's result
// and the '@timeout' trigger's instant exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "core/replica.h"
#include "harness/experiment.h"

namespace bamboo {
namespace {

enum class Kind { kCommit, kSnapshot, kEnterView, kTimeout, kCrash };

struct Record {
  Kind kind;
  sim::Time at;
  types::NodeId replica;
  const core::Replica* instance;
  types::Height height;  ///< the replica's committed height after the event
  bool honest;
};

class Recorder final : public core::ReplicaObserver {
 public:
  std::vector<Record> stream;

  void on_commit(const core::Replica& r, const types::BlockPtr&) override {
    add(Kind::kCommit, r);
  }
  void on_snapshot_installed(const core::Replica& r,
                             const types::BlockPtr&) override {
    add(Kind::kSnapshot, r);
  }
  void on_enter_view(const core::Replica& r, types::View) override {
    add(Kind::kEnterView, r);
  }
  void on_timeout(const core::Replica& r, types::View) override {
    add(Kind::kTimeout, r);
  }
  void on_crash(const core::Replica& r) override { add(Kind::kCrash, r); }

 private:
  void add(Kind kind, const core::Replica& r) {
    stream.push_back(Record{kind, r.now(), r.id(), &r,
                            r.forest().committed_height(),
                            !r.is_byzantine()});
  }
};

constexpr types::NodeId kReplicas = 10;
constexpr double kWarmupS = 0.1;
constexpr double kMeasureS = 1.1;

/// Every kind of churn the seam serves, in one 10-replica run: a partition
/// that strands replica 8 long enough for a snapshot, a crash of replica 9
/// at the first honest timeout, a loss burst, a crash-restart with
/// downtime and one without, and a leader-follow degradation.
harness::RunSpec seam_spec() {
  harness::RunSpec spec;
  spec.cfg.n_replicas = kReplicas;
  spec.cfg.bsize = 100;
  spec.cfg.memsize = 200000;
  spec.cfg.seed = 5;
  // Short views: the rotation keeps reaching the dead and stranded
  // leaders, and the majority must still outrun replica 8 by a snapshot.
  spec.cfg.timeout = sim::milliseconds(30);
  spec.cfg.sync_batch = 4;
  spec.cfg.snapshot_gap = 8;
  spec.cfg.churn =
      "degrade@0.1s:leader=follow:+10ms;"
      "partition@0.2s:groups=0-1-2-3-4-5-6-7-9|8;heal@0.5s;"
      "crash@timeout:replica=9;"
      "burst@0.6s:replica=3:loss=0.9:for=0.1s;"
      "crash-restart@0.7s:replica=7:for=0.15s;"
      "crash-restart@0.9s:replica=6;"
      "restore@1s:leader=follow";
  spec.workload.mode = client::LoadMode::kClosedLoop;
  spec.workload.concurrency = 64;
  spec.opts.warmup_s = kWarmupS;
  spec.opts.measure_s = kMeasureS;
  return spec;
}

/// The schedule's healing moments, computed as the churn engine does.
std::vector<sim::Time> heals() {
  return {
      sim::from_seconds(0.5),                             // heal
      sim::from_seconds(0.6 + 0.1),                       // burst end
      sim::from_seconds(0.7) + sim::from_seconds(0.15),   // restart 7
      sim::from_seconds(0.9),                             // restart 6
      sim::from_seconds(1.0),                             // restore
  };
}

/// The recovery probe recomputed from the stream alone. At each heal H,
/// a replica's state is its latest record at or before H (a restart
/// records the rebuilt replica's enter-view before the probe arms); the
/// laggards are the live replicas below the highest committed height, and
/// the event closes at the first later record that takes the last of them
/// off: a commit or snapshot install at that height, or a crash.
harness::RecoveryProbe recompute(const std::vector<Record>& stream) {
  harness::RecoveryProbe probe;
  for (const sim::Time heal : heals()) {
    std::vector<std::optional<Record>> latest(kReplicas);
    std::size_t after = 0;
    for (; after < stream.size() && stream[after].at <= heal; ++after) {
      latest[stream[after].replica] = stream[after];
    }
    types::Height target = 0;
    for (const auto& r : latest) {
      if (r && r->honest && r->kind != Kind::kCrash) {
        target = std::max(target, r->height);
      }
    }
    std::vector<types::NodeId> lagging;
    for (const auto& r : latest) {
      if (r && r->honest && r->kind != Kind::kCrash && r->height < target) {
        lagging.push_back(r->replica);
      }
    }
    if (lagging.empty()) continue;
    harness::RecoveryProbe::Event ev{sim::to_seconds(heal), -1};
    bool any_caught_up = false;
    for (std::size_t i = after; i < stream.size() && !lagging.empty(); ++i) {
      const Record& r = stream[i];
      const bool reached =
          (r.kind == Kind::kCommit || r.kind == Kind::kSnapshot) &&
          r.height >= target;
      if (!reached && r.kind != Kind::kCrash) continue;
      if (std::erase(lagging, r.replica) == 0) continue;
      any_caught_up = any_caught_up || reached;
      if (lagging.empty()) {
        if (any_caught_up) {
          ev.recovered_at_s = sim::to_seconds(r.at);
        } else {
          ev.abandoned = true;
        }
      }
    }
    probe.events.push_back(ev);
  }
  return probe;
}

TEST(ObserverSeam, RecordingEveryEventLeavesTheRunUnchanged) {
  const harness::RunSpec spec = seam_spec();
  const harness::RunOutput plain = harness::execute_full(spec);
  Recorder recorder;
  const harness::RunOutput watched = harness::execute_full(spec, &recorder);
  EXPECT_EQ(watched.result, plain.result);
  EXPECT_EQ(watched.events_executed, plain.events_executed);
  EXPECT_EQ(plain.result.restarts, 2u);
  EXPECT_TRUE(plain.result.consistent);

  // Every event kind shows up.
  for (const Kind kind : {Kind::kCommit, Kind::kSnapshot, Kind::kEnterView,
                          Kind::kTimeout, Kind::kCrash}) {
    EXPECT_TRUE(std::any_of(
        recorder.stream.begin(), recorder.stream.end(),
        [kind](const Record& r) { return r.kind == kind; }))
        << "no event of kind " << static_cast<int>(kind);
  }

  // After each restart the rebuilt instance emits, and it is not the
  // instance that crashed.
  struct Restart {
    types::NodeId replica;
    sim::Time crash_at;
    sim::Time restart_at;
  };
  for (const Restart& rs :
       {Restart{7, sim::from_seconds(0.7),
                sim::from_seconds(0.7) + sim::from_seconds(0.15)},
        Restart{6, sim::from_seconds(0.9), sim::from_seconds(0.9)}}) {
    const core::Replica* crashed = nullptr;
    for (const Record& r : recorder.stream) {
      if (r.replica == rs.replica && r.kind == Kind::kCrash &&
          r.at == rs.crash_at) {
        crashed = r.instance;
      }
    }
    ASSERT_NE(crashed, nullptr) << "replica " << rs.replica;
    const std::size_t rebuilt = std::count_if(
        recorder.stream.begin(), recorder.stream.end(),
        [&](const Record& r) {
          return r.replica == rs.replica && r.at >= rs.restart_at &&
                 r.instance != crashed && r.kind != Kind::kCrash;
        });
    EXPECT_GT(rebuilt, 0u) << "replica " << rs.replica;
  }
}

TEST(ObserverSeam, StreamRecomputesRecoveryAndTheTimeoutInstant) {
  Recorder recorder;
  const harness::RunOutput out =
      harness::execute_full(seam_spec(), &recorder);
  const std::vector<Record>& stream = recorder.stream;

  const harness::RecoveryProbe probe = recompute(stream);
  ASSERT_GE(probe.events.size(), 2u);
  const double end_s = sim::to_seconds(sim::from_seconds(kWarmupS) +
                                       sim::from_seconds(kMeasureS));
  EXPECT_GT(out.result.recovery_ms, 0.0);
  EXPECT_EQ(out.result.recovery_ms, probe.mean_ms(end_s));

  // The '@timeout' crash of replica 9 lands at the instant of the first
  // timeout of an honest replica.
  const auto first_timeout =
      std::find_if(stream.begin(), stream.end(), [](const Record& r) {
        return r.kind == Kind::kTimeout && r.honest;
      });
  const auto crash_of_9 =
      std::find_if(stream.begin(), stream.end(), [](const Record& r) {
        return r.kind == Kind::kCrash && r.replica == 9;
      });
  ASSERT_NE(first_timeout, stream.end());
  ASSERT_NE(crash_of_9, stream.end());
  EXPECT_EQ(crash_of_9->at, first_timeout->at);
  EXPECT_GT(crash_of_9 - first_timeout, 0);  // and follows it
}

}  // namespace
}  // namespace bamboo
