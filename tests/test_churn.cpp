// Tests for the network-churn engine (core/churn.h + the harness
// executor): DSL parse/format for every event kind, the canonical
// round-trip property provenance relies on, strict rejection of
// malformed / half-specified schedules (the bug the old FaultPlan had),
// and end-to-end behavior of scheduled degrade / partition / burst /
// fluctuation events through execute().

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "client/workload.h"
#include "core/churn.h"
#include "core/config.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "harness/runner.h"
#include "util/rng.h"

namespace bamboo {
namespace {

using core::ChurnEvent;
using core::ChurnKind;
using core::ChurnSchedule;
using core::ChurnTarget;

// ---------------------------------------------------------------------------
// DSL parsing
// ---------------------------------------------------------------------------

TEST(ChurnDsl, EmptyScheduleParses) {
  EXPECT_TRUE(core::parse_churn("").empty());
  EXPECT_TRUE(core::parse_churn("  ").empty());
  EXPECT_EQ(core::canonical_churn(""), "");
}

TEST(ChurnDsl, ParsesTheIssueExample) {
  const auto s = core::parse_churn(
      "degrade@2s:link=0-3:+40ms;partition@4s:groups=0-1|2-3;heal@6s");
  ASSERT_EQ(s.size(), 3u);

  EXPECT_EQ(s[0].kind, ChurnKind::kLinkDegrade);
  EXPECT_DOUBLE_EQ(s[0].at_s, 2.0);
  EXPECT_EQ(s[0].target, ChurnTarget::kLink);
  EXPECT_EQ(s[0].a, 0u);
  EXPECT_EQ(s[0].b, 3u);
  EXPECT_FALSE(s[0].directed);
  EXPECT_DOUBLE_EQ(s[0].extra_ms, 40.0);

  EXPECT_EQ(s[1].kind, ChurnKind::kPartitionStart);
  EXPECT_DOUBLE_EQ(s[1].at_s, 4.0);
  ASSERT_EQ(s[1].groups.size(), 2u);
  EXPECT_EQ(s[1].groups[0], (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(s[1].groups[1], (std::vector<std::uint32_t>{2, 3}));

  EXPECT_EQ(s[2].kind, ChurnKind::kPartitionHeal);
  EXPECT_DOUBLE_EQ(s[2].at_s, 6.0);
}

TEST(ChurnDsl, ParsesEveryTargetForm) {
  const auto directed = core::parse_churn("degrade@1s:link=2>0:+5ms");
  EXPECT_EQ(directed[0].target, ChurnTarget::kLink);
  EXPECT_TRUE(directed[0].directed);
  EXPECT_EQ(directed[0].a, 2u);
  EXPECT_EQ(directed[0].b, 0u);

  const auto replica = core::parse_churn("degrade@1s:replica=3:+5ms");
  EXPECT_EQ(replica[0].target, ChurnTarget::kReplica);
  EXPECT_EQ(replica[0].a, 3u);

  const auto region = core::parse_churn("degrade@1s:region=1/3:+5ms");
  EXPECT_EQ(region[0].target, ChurnTarget::kRegion);
  EXPECT_EQ(region[0].region, 1u);
  EXPECT_EQ(region[0].regions, 3u);

  const auto leader = core::parse_churn("degrade@1s:leader:+5ms");
  EXPECT_EQ(leader[0].target, ChurnTarget::kLeader);
  EXPECT_EQ(leader[0].a, 0u);

  const auto leader2 = core::parse_churn("degrade@1s:leader=2:+5ms");
  EXPECT_EQ(leader2[0].target, ChurnTarget::kLeader);
  EXPECT_EQ(leader2[0].a, 2u);

  const auto follow = core::parse_churn("degrade@1s:leader=follow:+5ms");
  EXPECT_EQ(follow[0].target, ChurnTarget::kLeaderFollow);
  const auto follow_restore = core::parse_churn("restore@2s:leader=follow");
  EXPECT_EQ(follow_restore[0].target, ChurnTarget::kLeaderFollow);
  EXPECT_EQ(core::canonical_churn("degrade@1s:leader=follow:+5ms"),
            "degrade@1s:leader=follow:+5ms");

  // No target = every link, mirroring restore/burst.
  const auto all = core::parse_churn("degrade@1s:+5ms");
  EXPECT_EQ(all[0].target, ChurnTarget::kAll);
  EXPECT_EQ(core::canonical_churn("degrade@1s:+5ms"), "degrade@1s:+5ms");
}

TEST(ChurnDsl, ParsesUnitsAndNegativeDeltas) {
  const auto s = core::parse_churn("degrade@500ms:link=0-1:-2500ms");
  EXPECT_DOUBLE_EQ(s[0].at_s, 0.5);
  EXPECT_DOUBLE_EQ(s[0].extra_ms, -2500.0);
  const auto t = core::parse_churn("burst@1s:loss=0.5:for=250ms");
  EXPECT_DOUBLE_EQ(t[0].for_s, 0.25);
}

TEST(ChurnDsl, ParsesFluctBurstCrashSilence) {
  const auto s = core::parse_churn(
      "fluct@6s:for=6s:lo=10ms:hi=100ms;"
      "burst@2s:replica=1:loss=0.9:for=1s;"
      "crash@3s:replica=2;silence@4s:replica=1");
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s[0].kind, ChurnKind::kFluctuation);
  EXPECT_DOUBLE_EQ(s[0].for_s, 6.0);
  EXPECT_DOUBLE_EQ(s[0].lo_ms, 10.0);
  EXPECT_DOUBLE_EQ(s[0].hi_ms, 100.0);
  EXPECT_EQ(s[1].kind, ChurnKind::kLossBurst);
  EXPECT_DOUBLE_EQ(s[1].loss, 0.9);
  EXPECT_EQ(s[2].kind, ChurnKind::kCrash);
  EXPECT_EQ(s[2].a, 2u);
  EXPECT_EQ(s[3].kind, ChurnKind::kSilence);
  EXPECT_EQ(s[3].a, 1u);
}

TEST(ChurnDsl, ParsesRegionPartitions) {
  const auto s = core::parse_churn("partition@4s:regions=0|1-2:of=3");
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s[0].regions, 3u);
  ASSERT_EQ(s[0].groups.size(), 2u);
  EXPECT_EQ(s[0].groups[0], (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(s[0].groups[1], (std::vector<std::uint32_t>{1, 2}));
}

TEST(ChurnDsl, ParsesAndRejectsPeriodicEvents) {
  // every=<dur> re-fires degrade/restore/burst/fluct until end-of-run.
  const auto s = core::parse_churn(
      "degrade@1s:link=0-1:+30ms:every=2s;restore@2s:link=0-1:every=2s;"
      "burst@0.5s:replica=3:loss=0.5:for=250ms:every=1s;"
      "fluct@1s:for=0.5s:lo=5ms:hi=20ms:every=3s");
  ASSERT_EQ(s.size(), 4u);
  EXPECT_DOUBLE_EQ(s[0].every_s, 2.0);
  EXPECT_DOUBLE_EQ(s[1].every_s, 2.0);
  EXPECT_DOUBLE_EQ(s[2].every_s, 1.0);
  EXPECT_DOUBLE_EQ(s[3].every_s, 3.0);
  // every= accepted in any position, canonicalized to the tail.
  EXPECT_EQ(core::canonical_churn("degrade@1s:every=2s:link=0-1:+30ms"),
            "degrade@1s:link=0-1:+30ms:every=2s");

  // Rejected on partition/heal/crash/silence, and degenerate periods.
  for (const char* dsl :
       {"partition@2s:groups=0-1|2-3:every=2s", "heal@2s:every=2s",
        "crash@2s:replica=1:every=2s", "silence@2s:replica=1:every=2s",
        "degrade@1s:link=0-1:+5ms:every=0s",
        "degrade@1s:link=0-1:+5ms:every=1s:every=2s"}) {
    EXPECT_THROW(static_cast<void>(core::parse_churn(dsl)),
                 std::invalid_argument)
        << dsl;
  }
}

TEST(ChurnDsl, ParsesTimeoutTriggersAndCrashRestart) {
  // '@timeout' replaces the wall-clock instant with "the first pacemaker
  // timeout observed anywhere in the cluster".
  const auto cond = core::parse_churn("crash@timeout:replica=1");
  ASSERT_EQ(cond.size(), 1u);
  EXPECT_EQ(cond[0].kind, ChurnKind::kCrash);
  EXPECT_TRUE(cond[0].on_timeout);
  EXPECT_DOUBLE_EQ(cond[0].at_s, 0.0);
  EXPECT_EQ(cond[0].a, 1u);

  const auto deg = core::parse_churn("degrade@timeout:leader=follow:+40ms");
  EXPECT_TRUE(deg[0].on_timeout);
  EXPECT_EQ(deg[0].target, ChurnTarget::kLeaderFollow);
  EXPECT_DOUBLE_EQ(deg[0].extra_ms, 40.0);

  // crash-restart: fail-stop + rebuild from the durable store after an
  // optional downtime (for= reuses the window-length argument).
  const auto cr = core::parse_churn("crash-restart@0.2s:replica=1:for=0.1s");
  ASSERT_EQ(cr.size(), 1u);
  EXPECT_EQ(cr[0].kind, ChurnKind::kCrashRestart);
  EXPECT_FALSE(cr[0].on_timeout);
  EXPECT_EQ(cr[0].target, ChurnTarget::kReplica);
  EXPECT_EQ(cr[0].a, 1u);
  EXPECT_DOUBLE_EQ(cr[0].for_s, 0.1);

  const auto instant = core::parse_churn("crash-restart@timeout:replica=2");
  EXPECT_TRUE(instant[0].on_timeout);
  EXPECT_DOUBLE_EQ(instant[0].for_s, 0.0);  // downtime defaults to 0

  // Both features are canonical fixed points (the provenance property).
  for (const char* dsl :
       {"crash@timeout:replica=1", "degrade@timeout:leader=follow:+40ms",
        "crash-restart@0.2s:replica=1:for=0.1s",
        "crash-restart@timeout:replica=2"}) {
    EXPECT_EQ(core::canonical_churn(dsl), dsl) << dsl;
  }

  // Strictness: '@timeout' only on degrade/crash/crash-restart and only
  // one-shot; crash-restart takes replica= plus an optional for= only.
  for (const char* dsl :
       {"heal@timeout",                           // kind without @timeout
        "silence@timeout:replica=1",              // ditto
        "restore@timeout:replica=1",              // ditto
        "burst@timeout:loss=0.5:for=1s",          // ditto
        "fluct@timeout:for=1s:lo=1ms:hi=2ms",     // ditto
        "partition@timeout:groups=0-1|2-3",       // ditto
        "crash@timeout:replica=1:every=2s",       // conditional + periodic
        "degrade@timeout:link=0-1:+5ms:every=1s", // ditto
        "crash-restart@2s",                       // missing replica=
        "crash-restart@2s:replica=1:every=2s",    // one-shot kind
        "crash-restart@2s:replica=1:loss=0.5",    // unknown argument
        "crash-restart@2s:link=0-1",              // wrong target kind
        "crash-restart@2s:replica=1:for=0s",      // degenerate downtime
        "crash-restart@2s:replica=1:for=-1s"}) {  // negative downtime
    EXPECT_THROW(static_cast<void>(core::parse_churn(dsl)),
                 std::invalid_argument)
        << dsl;
  }
}

TEST(ChurnDsl, RejectsLeaderFollowOutsideDegradeRestore) {
  for (const char* dsl :
       {"burst@1s:leader=follow:loss=0.5:for=1s",
        "crash@1s:leader=follow", "silence@1s:leader=follow"}) {
    EXPECT_THROW(static_cast<void>(core::parse_churn(dsl)),
                 std::invalid_argument)
        << dsl;
  }
}

TEST(ChurnDsl, RejectsMalformedSchedules) {
  const std::vector<const char*> bad = {
      "nonsense@2s",                        // unknown kind
      "degrade",                            // no @time
      "degrade@2:link=0-1:+5ms",            // missing time unit
      "degrade@2s:link=0-1",                // degrade without delta
      "crash@2s:replica=4294967296",        // id beyond uint32
      "burst@2s:loss=0.1:loss=0.9:for=1s",  // duplicate loss=
      "fluct@2s:for=1s:for=2s:lo=1ms:hi=2ms",  // duplicate for=
      "fluct@2s:for=1s:lo=1ms:lo=2ms:hi=3ms",  // duplicate lo=
      "degrade@2s:link=0:+5ms",             // malformed link
      "degrade@2s:link=1-1:+5ms",           // self-link
      "degrade@-2s:link=0-1:+5ms",          // negative time
      "degrade@2s:region=3/3:+5ms",         // region id out of range
      "restore@2s:+5ms",                    // restore takes no delta
      "partition@2s",                       // partition without groups
      "partition@2s:groups=0-1",            // a single group
      "partition@2s:regions=0|1",           // regions without of=
      "partition@2s:groups=0-1|2:of=3",     // of= with groups form
      "heal@2s:groups=0|1",                 // heal takes no args
      "burst@2s:loss=0.5",                  // burst without for=
      "burst@2s:for=1s",                    // burst without loss=
      "burst@2s:loss=1.5:for=1s",           // loss out of range
      "burst@2s:loss=0.5:for=0s",           // empty window
      "crash@2s",                           // crash without replica=
      "crash@2s:link=0-1",                  // wrong target kind
      "degrade@2s:link=0-1:+5ms;",          // stray ';'
      "degrade@2s:link=0-1:+5ms:whatever",  // unknown argument
  };
  for (const char* dsl : bad) {
    EXPECT_THROW(static_cast<void>(core::parse_churn(dsl)),
                 std::invalid_argument)
        << dsl;
  }
}

TEST(ChurnDsl, RejectsNonFiniteNumbers) {
  // strtod accepts "nan"/"inf", but every range check compares false
  // against NaN and inf defeats the time bounds — the strict parser
  // must reject them outright (and so must topology specs, which share
  // the parser helper).
  for (const char* dsl :
       {"burst@1s:loss=nan:for=1s", "degrade@infs:link=0-1:+40ms",
        "degrade@1s:link=0-1:+nanms", "fluct@1s:for=infs:lo=1ms:hi=2ms"}) {
    EXPECT_THROW(static_cast<void>(core::parse_churn(dsl)),
                 std::invalid_argument)
        << dsl;
  }
}

TEST(ChurnDsl, RejectsHalfSpecifiedFluctuationWindows) {
  // The old FaultPlan silently ignored a half-specified window; the DSL
  // refuses every partial combination instead.
  for (const char* dsl :
       {"fluct@2s:lo=10ms:hi=100ms", "fluct@2s:for=3s:hi=100ms",
        "fluct@2s:for=3s:lo=10ms", "fluct@2s:for=3s:lo=100ms:hi=10ms",
        "fluct@2s", "fluct@0.5s:for=-0.3s:lo=10ms:hi=40ms"}) {
    EXPECT_THROW(static_cast<void>(core::parse_churn(dsl)),
                 std::invalid_argument)
        << dsl;
  }
}

TEST(ChurnDsl, ConfigValidateRejectsBadChurn) {
  core::Config cfg;
  cfg.churn = "degrade@2s:link=0-1:+5ms";
  EXPECT_NO_THROW(cfg.validate());
  cfg.churn = "fluct@2s:lo=10ms";  // half-specified
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.churn = "garbage";
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ChurnDsl, ConfigValidateRejectsBadGilbertElliott) {
  core::Config cfg;
  cfg.ge_p = 1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = core::Config{};
  cfg.ge_loss_bad = 1.5;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = core::Config{};
  cfg.ge_p = 0.1;
  cfg.ge_r = 0.5;
  EXPECT_NO_THROW(cfg.validate());
}

// ---------------------------------------------------------------------------
// Canonical round-trip (the provenance property)
// ---------------------------------------------------------------------------

/// Generate one random valid event of each kind family.
ChurnEvent random_event(util::Rng& rng) {
  ChurnEvent ev;
  ev.at_s = rng.uniform(0.0, 30.0);
  const auto pick_every = [&] {
    if (rng.bernoulli(0.5)) ev.every_s = rng.uniform(0.1, 10.0);
  };
  const auto pick_follow = [&] {
    ev.target = ChurnTarget::kLeaderFollow;
    ev.a = 0;
  };
  const auto pick_target = [&](bool allow_all) {
    const int choice =
        static_cast<int>(rng.uniform_u64(allow_all ? 5 : 4)) +
        (allow_all ? 0 : 1);
    switch (choice) {
      case 0:
        ev.target = ChurnTarget::kAll;
        break;
      case 1:
        ev.target = ChurnTarget::kLink;
        ev.a = static_cast<std::uint32_t>(rng.uniform_u64(8));
        ev.b = (ev.a + 1 + static_cast<std::uint32_t>(rng.uniform_u64(7))) % 9;
        if (ev.a == ev.b) ev.b = (ev.b + 1) % 9;
        ev.directed = rng.bernoulli(0.5);
        break;
      case 2:
        ev.target = ChurnTarget::kReplica;
        ev.a = static_cast<std::uint32_t>(rng.uniform_u64(8));
        break;
      case 3:
        ev.target = ChurnTarget::kRegion;
        ev.regions = 2 + static_cast<std::uint32_t>(rng.uniform_u64(4));
        ev.region = static_cast<std::uint32_t>(rng.uniform_u64(ev.regions));
        break;
      default:
        ev.target = ChurnTarget::kLeader;
        ev.a = static_cast<std::uint32_t>(rng.uniform_u64(4));
        break;
    }
  };
  // Conditional triggers are one-shot and carry no wall-clock time.
  const auto pick_timeout_trigger = [&] {
    if (rng.bernoulli(0.25)) {
      ev.on_timeout = true;
      ev.at_s = 0;
    }
  };
  switch (rng.uniform_u64(9)) {
    case 0:
      ev.kind = ChurnKind::kLinkDegrade;
      // kAll allowed (no-target degrade = every link); degrade may also
      // follow the rotating leader and/or repeat.
      if (rng.bernoulli(0.2)) {
        pick_follow();
      } else {
        pick_target(true);
      }
      ev.extra_ms = rng.uniform(-20.0, 120.0);
      pick_timeout_trigger();
      if (!ev.on_timeout) pick_every();  // @timeout forbids every=
      break;
    case 1:
      ev.kind = ChurnKind::kLinkRestore;
      if (rng.bernoulli(0.2)) {
        pick_follow();
      } else {
        pick_target(true);
      }
      pick_every();
      break;
    case 2: {
      ev.kind = ChurnKind::kPartitionStart;
      // 2-3 groups of distinct ids dealt round-robin.
      const std::size_t n_groups = 2 + rng.uniform_u64(2);
      const std::uint32_t members = 2 + static_cast<std::uint32_t>(
                                            rng.uniform_u64(6));
      ev.groups.resize(n_groups);
      for (std::uint32_t id = 0; id < members + n_groups; ++id) {
        ev.groups[id % n_groups].push_back(id);
      }
      if (rng.bernoulli(0.5)) ev.regions = 16;  // region form, ids < 16
      break;
    }
    case 3:
      ev.kind = ChurnKind::kPartitionHeal;
      break;
    case 4:
      ev.kind = ChurnKind::kLossBurst;
      pick_target(true);
      ev.loss = rng.uniform(0.0, 0.999);
      ev.for_s = rng.uniform(0.01, 10.0);
      pick_every();
      break;
    case 5:
      ev.kind = ChurnKind::kFluctuation;
      ev.for_s = rng.uniform(0.01, 10.0);
      ev.lo_ms = rng.uniform(0.0, 50.0);
      ev.hi_ms = ev.lo_ms + rng.uniform(0.0, 100.0);
      pick_every();
      break;
    case 6:
      ev.kind = ChurnKind::kCrash;
      ev.target = ChurnTarget::kReplica;
      ev.a = static_cast<std::uint32_t>(rng.uniform_u64(8));
      pick_timeout_trigger();
      break;
    case 7:
      ev.kind = ChurnKind::kCrashRestart;
      ev.target = ChurnTarget::kReplica;
      ev.a = static_cast<std::uint32_t>(rng.uniform_u64(8));
      if (rng.bernoulli(0.5)) ev.for_s = rng.uniform(0.01, 5.0);
      pick_timeout_trigger();
      break;
    default:
      ev.kind = ChurnKind::kSilence;
      ev.target = ChurnTarget::kReplica;
      ev.a = static_cast<std::uint32_t>(rng.uniform_u64(8));
      break;
  }
  return ev;
}

TEST(ChurnRoundTrip, RandomSchedulesSurviveFormatParseExactly) {
  // The provenance property: any schedule, serialized to its canonical
  // DSL (what report::Provenance stores) and re-parsed, yields an
  // identical FaultPlan — including bit-exact doubles.
  util::Rng rng(4242);
  for (int trial = 0; trial < 200; ++trial) {
    ChurnSchedule schedule;
    const std::size_t n = 1 + rng.uniform_u64(6);
    for (std::size_t i = 0; i < n; ++i) schedule.push_back(random_event(rng));

    const std::string dsl = core::format_churn(schedule);
    const ChurnSchedule reparsed = core::parse_churn(dsl);
    ASSERT_EQ(reparsed, schedule) << "trial " << trial << ": " << dsl;
    // Canonical form is a fixed point.
    EXPECT_EQ(core::canonical_churn(dsl), dsl) << dsl;

    harness::FaultPlan plan{schedule};
    harness::FaultPlan replan{reparsed};
    EXPECT_EQ(plan, replan);
  }
}

TEST(ChurnRoundTrip, ProvenanceCarriesTheCanonicalForm) {
  harness::RunSpec spec;
  // Messy but valid spelling: ms times, bare leader, trailing spaces.
  spec.cfg.churn = " degrade@2500ms:leader:+40ms ;heal@4s";
  const auto prov = harness::report::provenance_of(spec);
  EXPECT_EQ(prov.cfg.churn, "degrade@2.5s:leader=0:+40ms;heal@4s");
  EXPECT_EQ(core::parse_churn(prov.cfg.churn),
            core::parse_churn(spec.cfg.churn));
}

// ---------------------------------------------------------------------------
// Engine end-to-end
// ---------------------------------------------------------------------------

harness::RunSpec churn_spec(const std::string& dsl) {
  harness::RunSpec spec;
  spec.cfg.n_replicas = 4;
  spec.cfg.bsize = 100;
  spec.cfg.memsize = 200000;
  spec.cfg.seed = 21;
  spec.cfg.churn = dsl;
  spec.workload.mode = client::LoadMode::kClosedLoop;
  spec.workload.concurrency = 64;
  spec.opts.warmup_s = 0.1;
  spec.opts.measure_s = 0.6;
  return spec;
}

TEST(ChurnEngine, DslAndProgrammaticScheduleAreEquivalent) {
  const std::string dsl = "degrade@0.2s:leader=0:+10ms;restore@0.4s:leader=0";
  const auto via_dsl = harness::execute(churn_spec(dsl));

  harness::RunSpec programmatic = churn_spec("");
  programmatic.faults.schedule = core::parse_churn(dsl);
  const auto via_plan = harness::execute(programmatic);
  EXPECT_EQ(via_dsl, via_plan);
}

TEST(ChurnEngine, DegradeSlowsAndRestoreRecovers) {
  const auto baseline = harness::execute(churn_spec(""));
  // Degrade EVERY replica's links for the whole window (each inter-replica
  // link gains 2 x 10 ms one-way, kept below the 100 ms view timer):
  // latency must rise.
  const auto degraded = harness::execute(churn_spec(
      "degrade@0.1s:replica=0:+10ms;degrade@0.1s:replica=1:+10ms;"
      "degrade@0.1s:replica=2:+10ms;degrade@0.1s:replica=3:+10ms"));
  EXPECT_GT(degraded.latency_ms_mean, baseline.latency_ms_mean + 5.0);
  EXPECT_TRUE(degraded.consistent);
  // Degrade + immediate restore before measurement: back to baseline-ish
  // (not bit-identical — the restore callbacks shift no RNG, but the
  // degraded warm-up leaves different in-flight state).
  const auto restored = harness::execute(churn_spec(
      "degrade@0.01s:replica=0:+10ms;restore@0.02s"));
  EXPECT_LT(restored.latency_ms_mean, degraded.latency_ms_mean);
  EXPECT_TRUE(restored.consistent);
}

TEST(ChurnEngine, PartitionStallsCommitsUntilHeal) {
  // 2|2 split of a 4-replica cluster: no side has a quorum of 3, so
  // commits stop inside the window and resume after heal.
  const auto split = harness::execute(
      churn_spec("partition@0.2s:groups=0-1|2-3;heal@0.45s"));
  const auto healthy = harness::execute(churn_spec(""));
  EXPECT_LT(split.blocks_committed, healthy.blocks_committed);
  EXPECT_GT(split.timeouts, 0u);
  EXPECT_GT(split.blocks_committed, 0u);  // resumed after heal
  EXPECT_TRUE(split.consistent);
  EXPECT_EQ(split.safety_violations, 0u);

  // A permanent partition (never healed) commits even less.
  const auto permanent =
      harness::execute(churn_spec("partition@0.2s:groups=0-1|2-3"));
  EXPECT_LT(permanent.blocks_committed, split.blocks_committed);
  EXPECT_TRUE(permanent.consistent);
}

TEST(ChurnEngine, RegionPartitionMatchesExplicitGroups) {
  // 4 replicas in 2 round-robin regions: region 0 = {0, 2}, region 1 =
  // {1, 3} — the regions form must behave exactly like the expanded one.
  const auto by_region = harness::execute(
      churn_spec("partition@0.2s:regions=0|1:of=2;heal@0.4s"));
  const auto by_groups = harness::execute(
      churn_spec("partition@0.2s:groups=0-2|1-3;heal@0.4s"));
  EXPECT_EQ(by_region, by_groups);
}

TEST(ChurnEngine, LossBurstIsTransient) {
  // A total-ish loss burst on the leader's links dents throughput while
  // it lasts; the baseline loss (0) must be restored afterwards.
  harness::RunSpec spec =
      churn_spec("burst@0.2s:replica=0:loss=0.95:for=0.2s");
  const auto burst = harness::execute(spec);
  const auto healthy = harness::execute(churn_spec(""));
  EXPECT_LT(burst.blocks_committed, healthy.blocks_committed);
  EXPECT_GT(burst.blocks_committed, 0u);
  EXPECT_TRUE(burst.consistent);
}

TEST(ChurnEngine, Fig15StyleScheduleIsPinned) {
  // The fig15 shape through the churn engine, pinned to values captured
  // after the engine was verified bit-identical to the pre-churn
  // install_fault_plan (bench_fig15_responsiveness stdout diffed clean
  // pre/post refactor at smoke and default scale). Guards future drift.
  core::Config cfg;
  cfg.bsize = 100;
  cfg.seed = 9;
  cfg.churn = "fluct@0.3s:for=0.3s:lo=10ms:hi=40ms;silence@0.9s:replica=3";
  client::WorkloadConfig wl;
  wl.mode = client::LoadMode::kOpenLoop;
  wl.arrival_rate_tps = 2000;
  const auto out = harness::execute_full(
      harness::timeline_spec(cfg, wl, /*horizon_s=*/1.2, /*bucket_s=*/0.3));
  EXPECT_DOUBLE_EQ(out.result.throughput_tps, 1491.6666666666667);
  EXPECT_DOUBLE_EQ(out.result.latency_ms_mean, 62.877549871508371);
  EXPECT_DOUBLE_EQ(out.result.latency_ms_p99, 304.04000600999979);
  EXPECT_EQ(out.result.views, 446u);
  EXPECT_EQ(out.result.blocks_committed, 441u);
  EXPECT_EQ(out.result.net_bytes, 2226560u);
  EXPECT_EQ(out.result.latency_samples, 1790u);
  EXPECT_EQ(out.result.timeouts, 6u);
  const std::vector<double> expected_buckets = {2096.666666666667, 190.0,
                                                3630.0, 50.0};
  EXPECT_EQ(out.tx_per_s, expected_buckets);
}

TEST(ChurnEngine, OutOfRangeIdsThrowAtInstall) {
  // Parseable but impossible for a 4-replica cluster: rejected when the
  // schedule is installed, before any event runs.
  for (const char* dsl :
       {"crash@0.1s:replica=9", "degrade@0.1s:link=0-11:+5ms",
        "partition@0.1s:groups=0-1|2-9", "degrade@0.1s:leader=7:+5ms"}) {
    EXPECT_THROW(static_cast<void>(harness::execute(churn_spec(dsl))),
                 std::invalid_argument)
        << dsl;
  }
}

TEST(ChurnEngine, ProgrammaticRegionTargetIsRangeChecked) {
  // A hand-built event can skip the DSL parser's guards: regions
  // defaults to 0, which must throw at install time, not SIGFPE on the
  // modulo.
  harness::RunSpec spec = churn_spec("");
  core::ChurnEvent ev;
  ev.kind = core::ChurnKind::kLinkDegrade;
  ev.at_s = 0.1;
  ev.target = core::ChurnTarget::kRegion;  // regions left at 0
  ev.extra_ms = 5;
  spec.faults.schedule = {ev};
  EXPECT_THROW(static_cast<void>(harness::execute(spec)),
               std::invalid_argument);

  core::ChurnEvent part;
  part.kind = core::ChurnKind::kPartitionStart;
  part.at_s = 0.1;
  part.regions = 2;
  part.groups = {{0}, {5}};  // region id 5 out of range for 2 regions
  spec.faults.schedule = {part};
  EXPECT_THROW(static_cast<void>(harness::execute(spec)),
               std::invalid_argument);
}

TEST(ChurnEngine, NestedWindowsDoNotCancelTheOuterOne) {
  // A shorter window fully inside a longer one (same knob, same value):
  // when the inner one ends, the outer must stay in force — so the run
  // is bit-identical to the outer window alone. Before the active-window
  // bookkeeping, the inner end restored the BASELINE and silently cut
  // the outer window short.
  const auto burst_outer = harness::execute(
      churn_spec("burst@0.15s:replica=0:loss=0.9:for=0.5s"));
  const auto burst_nested = harness::execute(
      churn_spec("burst@0.15s:replica=0:loss=0.9:for=0.5s;"
                 "burst@0.2s:replica=0:loss=0.9:for=0.1s"));
  EXPECT_EQ(burst_outer, burst_nested);

  const auto fluct_outer = harness::execute(
      churn_spec("fluct@0.15s:for=0.5s:lo=5ms:hi=25ms"));
  const auto fluct_nested = harness::execute(
      churn_spec("fluct@0.15s:for=0.5s:lo=5ms:hi=25ms;"
                 "fluct@0.2s:for=0.1s:lo=5ms:hi=25ms"));
  EXPECT_EQ(fluct_outer, fluct_nested);
}

TEST(ChurnEngine, ProgrammaticScheduleReachesProvenance) {
  // Provenance records the EFFECTIVE schedule: programmatic FaultPlan
  // events followed by the cfg.churn DSL.
  harness::RunSpec spec = churn_spec("heal@4s");
  spec.faults.schedule = core::parse_churn("crash@2s:replica=1");
  const auto prov = harness::report::provenance_of(spec);
  EXPECT_EQ(prov.cfg.churn, "crash@2s:replica=1;heal@4s");
}

TEST(ChurnEngine, CrashEventMatchesClusterCrash) {
  // The crash event goes through the same Cluster::crash_replica the old
  // FaultPlan used — silence likewise.
  const auto crash = harness::execute(churn_spec("crash@0.3s:replica=3"));
  EXPECT_TRUE(crash.consistent);
  EXPECT_GT(crash.blocks_committed, 0u);
  const auto silence = harness::execute(churn_spec("silence@0.3s:replica=3"));
  EXPECT_TRUE(silence.consistent);
  EXPECT_NE(crash, silence);
}

TEST(ChurnEngine, TimeoutTriggerIsPureObservationUntilItFires) {
  // A healthy 4-replica run under the 100 ms view timer sees no pacemaker
  // timeouts, so an armed '@timeout' crash never fires — and its trigger
  // is an observer that draws and sends nothing, so the run is
  // bit-identical to the unarmed baseline.
  const auto baseline = harness::execute(churn_spec(""));
  ASSERT_EQ(baseline.timeouts, 0u);
  const auto armed = harness::execute(churn_spec("crash@timeout:replica=3"));
  EXPECT_EQ(armed, baseline);
}

TEST(ChurnEngine, TimeoutTriggerFiresOnFirstObservedTimeout) {
  // A 2|2 partition forces timeouts; the armed conditional crash then
  // takes replica 3 down for good, so the cluster limps on 3 replicas
  // after heal and commits strictly less than the partition alone.
  const auto split = harness::execute(
      churn_spec("partition@0.2s:groups=0-1|2-3;heal@0.35s"));
  ASSERT_GT(split.timeouts, 0u);
  const auto conditional = harness::execute(churn_spec(
      "partition@0.2s:groups=0-1|2-3;heal@0.35s;crash@timeout:replica=3"));
  EXPECT_LT(conditional.blocks_committed, split.blocks_committed);
  EXPECT_GT(conditional.blocks_committed, 0u);
  EXPECT_TRUE(conditional.consistent);
  EXPECT_EQ(conditional.safety_violations, 0u);
}

TEST(ChurnEngine, CrashRestartRebuildsAndResumesCommits) {
  // crash-restart = crash + rebuild-from-store: the restarted replica
  // rejoins, so the run counts one restart and keeps committing; a plain
  // crash of the same replica counts none.
  const auto crashed = harness::execute(churn_spec("crash@0.25s:replica=3"));
  EXPECT_EQ(crashed.restarts, 0u);
  const auto restarted = harness::execute(
      churn_spec("crash-restart@0.25s:replica=3:for=0.15s"));
  EXPECT_EQ(restarted.restarts, 1u);
  EXPECT_TRUE(restarted.consistent);
  EXPECT_EQ(restarted.safety_violations, 0u);
  EXPECT_GT(restarted.blocks_committed, 0u);
}

TEST(ChurnEngine, CrashRestartWithNoDowntimeCancelsPendingCallbacks) {
  // With no downtime the rebuild destroys the crashed replica at the crash
  // instant, while events that call back into it may still be pending;
  // the destroyed replica must cancel them. A sanitizer build reports the
  // call into freed memory otherwise.
  // (a) Replica 2's CPU worker is serving a message at 0.5 s.
  harness::RunSpec busy = churn_spec("crash-restart@0.5s:replica=2");
  busy.cfg.bsize = 400;
  busy.cfg.seed = 2021;
  busy.workload.concurrency = 256;
  // (b) With replica 2 down, the views replica 3 leads start with a
  // timeout certificate, so replica 3 waits propose_wait_after_vc before
  // it proposes; it restarts every 10 ms, inside those waits.
  std::string dsl = "crash@0.1s:replica=2";
  for (int k = 0; k < 20; ++k) {
    dsl += ";crash-restart@" + std::to_string(200 + 10 * k) + "ms:replica=3";
  }
  harness::RunSpec waiting = churn_spec(dsl);
  waiting.cfg.propose_wait_after_vc = sim::milliseconds(100);
  waiting.cfg.timeout = sim::milliseconds(20);

  const auto a = harness::execute(busy);
  EXPECT_EQ(a.restarts, 1u);
  EXPECT_TRUE(a.consistent);
  EXPECT_EQ(a.safety_violations, 0u);
  EXPECT_GT(a.blocks_committed, 0u);
  const auto b = harness::execute(waiting);
  EXPECT_EQ(b.restarts, 20u);
  EXPECT_TRUE(b.consistent);
  EXPECT_EQ(b.safety_violations, 0u);
}

TEST(ChurnEngine, ChurnScheduleIsDeterministicAcrossThreadCounts) {
  // The acceptance bar: a nonempty schedule is bit-identical across
  // --threads values (sharding reuses the same per-spec execution).
  std::vector<harness::RunSpec> grid;
  for (const char* dsl :
       {"degrade@0.2s:leader=0:+15ms;restore@0.4s:leader=0",
        "partition@0.2s:groups=0-1|2-3;heal@0.4s",
        "burst@0.2s:replica=2:loss=0.8:for=0.2s",
        "fluct@0.2s:for=0.2s:lo=5ms:hi=25ms;crash@0.5s:replica=3",
        "partition@0.2s:groups=0-1|2-3;heal@0.35s;crash@timeout:replica=3",
        "crash-restart@0.25s:replica=3:for=0.15s"}) {
    grid.push_back(churn_spec(dsl));
  }
  harness::ParallelRunner one(1);
  harness::ParallelRunner four(4);
  const auto a = one.run(grid);
  const auto b = four.run(grid);
  EXPECT_EQ(a, b);
}

TEST(ChurnEngine, LeaderFollowDegradesTheRotatingLeader) {
  // With round-robin rotation, degrading only replica 0's uplink
  // (leader=0) hurts 1 view in 4; leader=follow moves the degradation
  // with the rotation and hurts EVERY view, so it must cost more.
  const auto baseline = harness::execute(churn_spec(""));
  const auto pinned =
      harness::execute(churn_spec("degrade@0.15s:leader=0:+15ms"));
  const auto follow =
      harness::execute(churn_spec("degrade@0.15s:leader=follow:+15ms"));
  EXPECT_GT(pinned.latency_ms_mean, baseline.latency_ms_mean);
  EXPECT_GT(follow.latency_ms_mean, pinned.latency_ms_mean);
  EXPECT_TRUE(follow.consistent);

  // restore:leader=follow stops the following and heals the carrier.
  const auto restored = harness::execute(churn_spec(
      "degrade@0.15s:leader=follow:+15ms;restore@0.3s:leader=follow"));
  EXPECT_LT(restored.latency_ms_mean, follow.latency_ms_mean);
  EXPECT_TRUE(restored.consistent);
}

TEST(ChurnEngine, LeaderFollowIsDeterministicAcrossThreadCounts) {
  std::vector<harness::RunSpec> grid = {
      churn_spec("degrade@0.15s:leader=follow:+15ms"),
      churn_spec("degrade@0.15s:leader=follow:+10ms;"
                 "restore@0.4s:leader=follow"),
  };
  harness::ParallelRunner one(1);
  harness::ParallelRunner four(4);
  EXPECT_EQ(one.run(grid), four.run(grid));
}

TEST(ChurnEngine, ProgrammaticLeaderFollowOnBurstThrowsAtInstall) {
  // The DSL parser rejects it; a programmatic schedule must be caught at
  // install time instead of silently resolving to nothing.
  harness::RunSpec spec = churn_spec("");
  core::ChurnEvent ev;
  ev.kind = core::ChurnKind::kLossBurst;
  ev.at_s = 0.1;
  ev.target = core::ChurnTarget::kLeaderFollow;
  ev.loss = 0.5;
  ev.for_s = 0.1;
  spec.faults.schedule = {ev};
  EXPECT_THROW(static_cast<void>(harness::execute(spec)),
               std::invalid_argument);
}

TEST(ChurnEngine, PeriodicBurstRefiresUntilEndOfRun) {
  // One 0.1 s burst at 0.15 s dents one window; the same burst with
  // every=0.15s keeps re-firing, so it must lose strictly more blocks.
  const auto once = harness::execute(
      churn_spec("burst@0.15s:replica=0:loss=0.95:for=0.1s"));
  const auto repeating = harness::execute(
      churn_spec("burst@0.15s:replica=0:loss=0.95:for=0.1s:every=0.15s"));
  const auto healthy = harness::execute(churn_spec(""));
  EXPECT_LT(once.blocks_committed, healthy.blocks_committed);
  EXPECT_LT(repeating.blocks_committed, once.blocks_committed);
  EXPECT_TRUE(repeating.consistent);

  // Repetition is deterministic across thread counts like everything else.
  std::vector<harness::RunSpec> grid = {
      churn_spec("burst@0.15s:replica=0:loss=0.9:for=0.1s:every=0.2s"),
      churn_spec("degrade@0.1s:link=0-1:+20ms:every=0.2s;"
                 "restore@0.2s:link=0-1:every=0.2s"),
  };
  harness::ParallelRunner one(1);
  harness::ParallelRunner four(4);
  EXPECT_EQ(one.run(grid), four.run(grid));
}

TEST(ChurnEngine, GilbertElliottRunsAreDeterministicAndDegrade) {
  harness::RunSpec ge = churn_spec("");
  ge.cfg.ge_p = 0.05;
  ge.cfg.ge_r = 0.3;
  ge.cfg.ge_loss_bad = 0.9;
  const auto a = harness::execute(ge);
  const auto b = harness::execute(ge);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(a.consistent);
  const auto clean = harness::execute(churn_spec(""));
  EXPECT_LT(a.blocks_committed, clean.blocks_committed);
}

}  // namespace
}  // namespace bamboo
