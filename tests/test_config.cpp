// Tests for Config: defaults mirroring Table I, loading from JSON,
// validation, derived quantities, Byzantine assignment.

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/config.h"

namespace bamboo {
namespace {

TEST(Config, TableIDefaults) {
  const core::Config cfg;
  EXPECT_EQ(cfg.n_replicas, 4u);
  EXPECT_EQ(cfg.election, "roundrobin");  // master 0 = rotating
  EXPECT_EQ(cfg.strategy, "silence");
  EXPECT_EQ(cfg.byz_no, 0u);
  EXPECT_EQ(cfg.bsize, 400u);
  EXPECT_EQ(cfg.psize, 0u);
  EXPECT_EQ(cfg.delay, 0);
  EXPECT_EQ(cfg.timeout, sim::milliseconds(100));
}

TEST(Config, DerivedQuantities) {
  core::Config cfg;
  cfg.n_replicas = 7;
  EXPECT_EQ(cfg.f(), 2u);
  EXPECT_EQ(cfg.quorum(), 5u);
  EXPECT_EQ(cfg.num_endpoints(), 7u + cfg.n_client_hosts);
  EXPECT_EQ(cfg.client_endpoint(0), 7u);
  EXPECT_EQ(cfg.client_endpoint(1), 8u);
  EXPECT_EQ(cfg.client_endpoint(2), 7u);  // wraps over the 2 hosts
}

TEST(Config, ByzantineAssignmentSparesObserver) {
  core::Config cfg;
  cfg.n_replicas = 4;
  cfg.byz_no = 2;
  EXPECT_FALSE(cfg.is_byzantine(0));  // replica 0 is the observer
  EXPECT_FALSE(cfg.is_byzantine(1));
  EXPECT_TRUE(cfg.is_byzantine(2));
  EXPECT_TRUE(cfg.is_byzantine(3));
  cfg.byz_no = 0;
  for (types::NodeId id = 0; id < 4; ++id) EXPECT_FALSE(cfg.is_byzantine(id));
}

TEST(Config, ValidationCatchesNonsense) {
  core::Config cfg;
  cfg.n_replicas = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = core::Config{};
  cfg.byz_no = 5;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = core::Config{};
  cfg.bsize = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = core::Config{};
  cfg.strategy = "teleport";
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = core::Config{};
  EXPECT_NO_THROW(cfg.validate());
}

TEST(Config, StrategyParsing) {
  EXPECT_EQ(core::parse_strategy("silence"), core::ByzStrategy::kSilence);
  EXPECT_EQ(core::parse_strategy("forking"), core::ByzStrategy::kForking);
  EXPECT_EQ(core::parse_strategy("crash"), core::ByzStrategy::kCrash);
  EXPECT_EQ(core::parse_strategy("honest"), core::ByzStrategy::kHonest);
  EXPECT_THROW(static_cast<void>(core::parse_strategy("nope")),
               std::invalid_argument);
  EXPECT_STREQ(core::strategy_name(core::ByzStrategy::kForking), "forking");
}

TEST(Config, FromJsonOverrides) {
  // "concurrency" is a Bamboo config key but not a Config option (client
  // load comes from client::WorkloadConfig); like any unknown key, it is
  // ignored.
  const auto j = util::Json::parse(R"({
    "n": 8, "bsize": 100, "psize": 128, "delay": 5.0, "timeout": 50,
    "strategy": "forking", "byzNo": 2, "protocol": "streamlet",
    "concurrency": 64, "seed": 77, "rtt_ms": 2.0
  })");
  const auto cfg = core::Config::from_json(j);
  EXPECT_EQ(cfg.n_replicas, 8u);
  EXPECT_EQ(cfg.bsize, 100u);
  EXPECT_EQ(cfg.psize, 128u);
  EXPECT_EQ(cfg.delay, sim::milliseconds(5));
  EXPECT_EQ(cfg.timeout, sim::milliseconds(50));
  EXPECT_EQ(cfg.strategy, "forking");
  EXPECT_EQ(cfg.byz_no, 2u);
  EXPECT_EQ(cfg.protocol, "streamlet");
  EXPECT_EQ(cfg.seed, 77u);
  EXPECT_EQ(cfg.rtt_mean, sim::milliseconds(2));
}

TEST(Config, WanScenarioFieldsLoadFromJson) {
  const auto j = util::Json::parse(R"({
    "link_model": "pareto", "link_shape": 2.5, "link_loss": 0.05,
    "topology": "wan:3:40,120"
  })");
  const auto cfg = core::Config::from_json(j);
  EXPECT_EQ(cfg.link_model, "pareto");
  EXPECT_DOUBLE_EQ(cfg.link_shape, 2.5);
  EXPECT_DOUBLE_EQ(cfg.link_loss, 0.05);
  EXPECT_EQ(cfg.topology, "wan:3:40,120");
  // Defaults are the bit-compatible legacy network.
  const core::Config defaults;
  EXPECT_EQ(defaults.link_model, "normal");
  EXPECT_EQ(defaults.topology, "uniform");
  EXPECT_DOUBLE_EQ(defaults.link_loss, 0.0);
  // Loss is a probability; 1.0 would drop every message forever.
  core::Config bad;
  bad.link_loss = 1.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(Config, StorageAndSnapshotFieldsLoadFromJson) {
  // "store_append_us" and "store_read_us" are not Config options; like any
  // unknown key, they are ignored.
  const auto j = util::Json::parse(R"({
    "sync_pipeline": 4, "snapshot_gap": 128, "snapshot_chunk": 1024,
    "store": "file", "retention": 512, "store_append_us": 50,
    "store_read_us": 10
  })");
  const auto cfg = core::Config::from_json(j);
  EXPECT_EQ(cfg.sync_pipeline, 4u);
  EXPECT_EQ(cfg.snapshot_gap, 128u);
  EXPECT_EQ(cfg.snapshot_chunk, 1024u);
  EXPECT_EQ(cfg.store, "file");
  EXPECT_EQ(cfg.retention, 512u);
  // Defaults are the byte-compatible legacy configuration: snapshots and
  // durability off.
  const core::Config defaults;
  EXPECT_EQ(defaults.sync_pipeline, 1u);
  EXPECT_EQ(defaults.snapshot_gap, 0u);
  EXPECT_EQ(defaults.store, "memory");
  EXPECT_EQ(defaults.retention, 0u);
  core::Config bad;
  bad.store = "cloud";
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  core::Config tiny;
  tiny.snapshot_chunk = 16;  // cannot hold a single 32-byte hash
  EXPECT_THROW(tiny.validate(), std::invalid_argument);
}

TEST(Config, FromJsonMasterCompatibility) {
  // Table I: master 0 means rotating leaders; nonzero pins a static leader.
  const auto rotating =
      core::Config::from_json(util::Json::parse(R"({"master": 0})"));
  EXPECT_EQ(rotating.election, "roundrobin");
  const auto pinned =
      core::Config::from_json(util::Json::parse(R"({"master": 2})"));
  EXPECT_EQ(pinned.election, "static:2");
}

TEST(Config, FromJsonDefaultsWhenAbsent) {
  const auto cfg = core::Config::from_json(util::Json::parse("{}"));
  EXPECT_EQ(cfg.n_replicas, 4u);
  EXPECT_EQ(cfg.bsize, 400u);
}

TEST(Config, FromJsonRejectsInvalid) {
  EXPECT_THROW(
      core::Config::from_json(util::Json::parse(R"({"bsize": 0})")),
      std::invalid_argument);
}

TEST(Config, AdmissionDslValidation) {
  // Same strictness as the churn DSL: half-specified or out-of-range
  // admission specs are rejected at validate() time, not at run time.
  core::Config cfg;
  EXPECT_NO_THROW(cfg.validate());  // default "drop"
  for (const char* good : {"drop", "backoff:5", "priority:0.25"}) {
    cfg = core::Config{};
    cfg.admission = good;
    EXPECT_NO_THROW(cfg.validate()) << good;
  }
  for (const char* bad : {"backoff", "backoff:", "backoff:0", "backoff:-2",
                          "priority", "priority:0", "priority:1",
                          "priority:2", "lifo"}) {
    cfg = core::Config{};
    cfg.admission = bad;
    EXPECT_THROW(cfg.validate(), std::invalid_argument) << bad;
  }
  // A mempool of zero capacity would reject everything silently; the
  // bounded-queue contract makes it a configuration error instead.
  cfg = core::Config{};
  cfg.memsize = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Config, AdmissionLoadsFromJson) {
  const auto cfg = core::Config::from_json(
      util::Json::parse(R"({"admission": "backoff:7"})"));
  EXPECT_EQ(cfg.admission, "backoff:7");
  EXPECT_THROW(core::Config::from_json(
                   util::Json::parse(R"({"admission": "priority"})")),
               std::invalid_argument);
}

}  // namespace
}  // namespace bamboo
