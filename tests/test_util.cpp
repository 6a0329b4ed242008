// Tests for src/util: RNG determinism and distributions, statistics,
// hex codec, JSON parser.

#include <gtest/gtest.h>

#include <cmath>

#include "util/hex.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/stats.h"

namespace bamboo {
namespace {

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, SameSeedSameStream) {
  util::Rng a(42);
  util::Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDifferentStreams) {
  util::Rng a(1);
  util::Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformInUnitInterval) {
  util::Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  util::Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(3, 5);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 5);
    saw_lo |= (v == 3);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMoments) {
  util::Rng rng(11);
  util::RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.gaussian(5.0, 2.0));
  EXPECT_NEAR(stats.mean(), 5.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, ExponentialMean) {
  util::Rng rng(13);
  util::RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.exponential(4.0));
  EXPECT_NEAR(stats.mean(), 0.25, 0.01);
}

TEST(Rng, BernoulliFrequency) {
  util::Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.02);
}

// ---------------------------------------------------------------------------
// RunningStats / Samples / TimelineCounter
// ---------------------------------------------------------------------------

TEST(RunningStats, BasicMoments) {
  util::RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeMatchesCombined) {
  util::RunningStats a;
  util::RunningStats b;
  util::RunningStats combined;
  util::Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const double v = rng.gaussian(10, 3);
    (i % 2 == 0 ? a : b).add(v);
    combined.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_NEAR(a.mean(), combined.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), combined.variance(), 1e-6);
}

TEST(RunningStats, EmptyIsZero) {
  util::RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
  EXPECT_EQ(s.ci95(), 0.0);
}

TEST(RunningStats, KnownValuesSmallSample) {
  // {1, 2, 3, 4}: mean 2.5, sample variance 5/3, ci95 = t_{0.975,3} σ/√4.
  util::RunningStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.variance(), 5.0 / 3.0);
  EXPECT_DOUBLE_EQ(s.stddev(), std::sqrt(5.0 / 3.0));
  EXPECT_DOUBLE_EQ(s.ci95(), 3.182 * std::sqrt(5.0 / 3.0) / 2.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(RunningStats, Ci95NeedsTwoSamples) {
  util::RunningStats s;
  s.add(7.0);
  EXPECT_EQ(s.ci95(), 0.0);
  s.add(9.0);
  // Two samples: σ = √2, ci = t_{0.975,1} √2 / √2 = 12.706.
  EXPECT_DOUBLE_EQ(s.ci95(), 12.706);
}

TEST(RunningStats, StudentTCriticalValues) {
  EXPECT_DOUBLE_EQ(util::t_critical_95(1), 12.706);
  EXPECT_DOUBLE_EQ(util::t_critical_95(2), 4.303);
  EXPECT_DOUBLE_EQ(util::t_critical_95(4), 2.776);
  EXPECT_DOUBLE_EQ(util::t_critical_95(30), 2.042);
  EXPECT_DOUBLE_EQ(util::t_critical_95(35), 2.021);
  EXPECT_DOUBLE_EQ(util::t_critical_95(50), 2.000);
  EXPECT_DOUBLE_EQ(util::t_critical_95(100), 1.980);
  EXPECT_DOUBLE_EQ(util::t_critical_95(1000), 1.96);
  // Monotone non-increasing in df.
  for (std::size_t df = 2; df <= 200; ++df) {
    EXPECT_LE(util::t_critical_95(df), util::t_critical_95(df - 1)) << df;
  }
}

TEST(RunningStats, MergeKnownValues) {
  // {1,2} ⊕ {3,4,5} must equal the one-pass stats of {1..5}:
  // count 5, mean 3, sample variance 2.5, min 1, max 5, sum 15.
  util::RunningStats a;
  a.add(1.0);
  a.add(2.0);
  util::RunningStats b;
  b.add(3.0);
  b.add(4.0);
  b.add(5.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 5u);
  EXPECT_DOUBLE_EQ(a.mean(), 3.0);
  EXPECT_DOUBLE_EQ(a.variance(), 2.5);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
  EXPECT_DOUBLE_EQ(a.max(), 5.0);
  EXPECT_DOUBLE_EQ(a.sum(), 15.0);
  EXPECT_DOUBLE_EQ(a.ci95(), 2.776 * std::sqrt(2.5) / std::sqrt(5.0));
}

TEST(RunningStats, MergeWithEmptyIsIdentity) {
  util::RunningStats s;
  for (double v : {2.0, 4.0, 6.0}) s.add(v);
  const double mean = s.mean();
  const double var = s.variance();

  util::RunningStats empty;
  s.merge(empty);  // rhs empty: unchanged
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), mean);
  EXPECT_DOUBLE_EQ(s.variance(), var);

  util::RunningStats target;  // lhs empty: adopts rhs wholesale
  target.merge(s);
  EXPECT_EQ(target.count(), 3u);
  EXPECT_DOUBLE_EQ(target.mean(), mean);
  EXPECT_DOUBLE_EQ(target.variance(), var);
  EXPECT_DOUBLE_EQ(target.min(), 2.0);
  EXPECT_DOUBLE_EQ(target.max(), 6.0);
}

TEST(RunningStats, MergeIsAssociativeToFloatingPointTolerance) {
  util::Rng rng(31);
  util::RunningStats a, b, c;
  for (int i = 0; i < 100; ++i) a.add(rng.gaussian(10, 3));
  for (int i = 0; i < 57; ++i) b.add(rng.gaussian(-4, 1));
  for (int i = 0; i < 23; ++i) c.add(rng.exponential(0.5));

  util::RunningStats left = a;  // (a ⊕ b) ⊕ c
  left.merge(b);
  left.merge(c);
  util::RunningStats bc = b;  // a ⊕ (b ⊕ c)
  bc.merge(c);
  util::RunningStats right = a;
  right.merge(bc);

  EXPECT_EQ(left.count(), right.count());
  EXPECT_NEAR(left.mean(), right.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), right.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), right.min());
  EXPECT_DOUBLE_EQ(left.max(), right.max());
}

TEST(Samples, ExactPercentiles) {
  util::Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_NEAR(s.percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(s.p99(), 99.01, 0.01);
}

TEST(Samples, MeanAndStddev) {
  util::Samples s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_NEAR(s.stddev(), 1.2909944, 1e-6);
}

TEST(Timeline, BucketsAndRates) {
  util::TimelineCounter t(0.5, 10.0);
  t.add(0.1);
  t.add(0.2);
  t.add(0.9);
  t.add(9.99);
  t.add(11.0);  // beyond horizon: ignored
  EXPECT_DOUBLE_EQ(t.rate(0), 4.0);  // 2 events / 0.5s
  EXPECT_DOUBLE_EQ(t.rate(1), 2.0);
  EXPECT_DOUBLE_EQ(t.rate(19), 2.0);
  EXPECT_DOUBLE_EQ(t.bucket_start(3), 1.5);
}

// ---------------------------------------------------------------------------
// Hex
// ---------------------------------------------------------------------------

TEST(Hex, RoundTrip) {
  const std::vector<std::uint8_t> bytes = {0x00, 0x01, 0xab, 0xff, 0x7f};
  const std::string hex = util::to_hex(bytes);
  EXPECT_EQ(hex, "0001abff7f");
  const auto back = util::from_hex(hex);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, bytes);
}

TEST(Hex, AcceptsUppercase) {
  const auto bytes = util::from_hex("DEADBEEF");
  ASSERT_TRUE(bytes.has_value());
  EXPECT_EQ(util::to_hex(*bytes), "deadbeef");
}

TEST(Hex, RejectsOddLength) {
  EXPECT_FALSE(util::from_hex("abc").has_value());
}

TEST(Hex, RejectsNonHex) {
  EXPECT_FALSE(util::from_hex("zz").has_value());
}

TEST(Hex, EmptyIsEmpty) {
  const auto bytes = util::from_hex("");
  ASSERT_TRUE(bytes.has_value());
  EXPECT_TRUE(bytes->empty());
}

// ---------------------------------------------------------------------------
// Json
// ---------------------------------------------------------------------------

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(util::Json::parse("null").is_null());
  EXPECT_EQ(util::Json::parse("true").as_bool(), true);
  EXPECT_EQ(util::Json::parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(util::Json::parse("3.25").as_number(), 3.25);
  EXPECT_DOUBLE_EQ(util::Json::parse("-17").as_number(), -17.0);
  EXPECT_DOUBLE_EQ(util::Json::parse("1e3").as_number(), 1000.0);
  EXPECT_EQ(util::Json::parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParsesNestedStructures) {
  const auto j = util::Json::parse(
      R"({"bsize": 400, "peers": [1, 2, 3], "net": {"delay": 5.5}})");
  ASSERT_TRUE(j.is_object());
  EXPECT_EQ(j.get_int("bsize", 0), 400);
  const util::Json* peers = j.find("peers");
  ASSERT_NE(peers, nullptr);
  ASSERT_TRUE(peers->is_array());
  EXPECT_EQ(peers->as_array().size(), 3u);
  const util::Json* net = j.find("net");
  ASSERT_NE(net, nullptr);
  EXPECT_DOUBLE_EQ(net->get_number("delay", 0), 5.5);
}

TEST(Json, StringEscapes) {
  const auto j = util::Json::parse(R"("a\"b\\c\nd\teA")");
  EXPECT_EQ(j.as_string(), "a\"b\\c\nd\teA");
}

TEST(Json, UnicodeEscapesUtf8) {
  const auto j = util::Json::parse(R"("é中")");
  EXPECT_EQ(j.as_string(), "\xc3\xa9\xe4\xb8\xad");
}

TEST(Json, RejectsTrailingGarbage) {
  EXPECT_THROW(util::Json::parse("{} x"), util::JsonError);
}

TEST(Json, RejectsMalformed) {
  EXPECT_THROW(util::Json::parse("{"), util::JsonError);
  EXPECT_THROW(util::Json::parse("[1,"), util::JsonError);
  EXPECT_THROW(util::Json::parse("tru"), util::JsonError);
  EXPECT_THROW(util::Json::parse("1."), util::JsonError);
  EXPECT_THROW(util::Json::parse("\"abc"), util::JsonError);
  EXPECT_THROW(util::Json::parse("{\"a\" 1}"), util::JsonError);
}

TEST(Json, ErrorCarriesPosition) {
  try {
    util::Json::parse("{\n  \"a\": ]\n}");
    FAIL() << "expected JsonError";
  } catch (const util::JsonError& e) {
    EXPECT_EQ(e.line(), 2u);
  }
}

TEST(Json, DumpRoundTrip) {
  const std::string doc =
      R"({"a":[1,2.5,"x"],"b":{"c":true,"d":null},"e":-3})";
  const auto j = util::Json::parse(doc);
  const auto reparsed = util::Json::parse(j.dump());
  EXPECT_EQ(reparsed.dump(), j.dump());
  EXPECT_EQ(j.dump(), doc);
}

TEST(Json, GettersFallBack) {
  const auto j = util::Json::parse(R"({"present": 5})");
  EXPECT_EQ(j.get_int("present", 0), 5);
  EXPECT_EQ(j.get_int("absent", 42), 42);
  EXPECT_EQ(j.get_string("absent", "dflt"), "dflt");
  EXPECT_TRUE(j.get_bool("absent", true));
}

}  // namespace
}  // namespace bamboo
