// obs::SloTracker: windowed burn-rate evaluation, error-budget accounting
// and the /slo NDJSON snapshot — all driven with synthetic time (tick()
// with explicit now), no rotation thread. The health view has its own
// suite (tests/core/health_test.cpp).
#include "obs/slo.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics_registry.hpp"

namespace redundancy::obs {
namespace {

constexpr std::uint64_t kSec = 1'000'000'000ull;
constexpr std::uint64_t kMs = 1'000'000ull;

SloTracker::Options one_sec_epochs() {
  SloTracker::Options options;
  options.epoch_ns = kSec;
  options.slots = 3700;  // a full hour of 1s epochs
  return options;
}

TEST(SloTracker, LatencyOverTargetCountsAsError) {
  SloTracker slo{one_sec_epochs()};
  slo.register_class("api", {/*latency_slo_ns=*/5 * kMs, 0.999});
  slo.observe("api", 1 * kMs, true);    // good
  slo.observe("api", 20 * kMs, true);   // too slow: error
  slo.observe("api", 1 * kMs, false);   // failed: error
  slo.tick(kSec);
  const std::string snap = slo.snapshot_jsonl(kSec);
  EXPECT_NE(snap.find("\"total\":3"), std::string::npos);
  EXPECT_NE(snap.find("\"errors\":2"), std::string::npos);
}

TEST(SloTracker, AutoRegisterUsesDefaultTarget) {
  SloTracker slo{one_sec_epochs()};
  slo.observe("/new-route", 1 * kMs, true);
  EXPECT_EQ(slo.state("/new-route"), SloState::ok);
  const std::string snap = slo.snapshot_jsonl(0);
  EXPECT_NE(snap.find("\"class\":\"/new-route\",\"latency_slo_ns\":" +
                      std::to_string(kDefaultTarget.latency_slo_ns) +
                      ",\"availability\":0.999,"),
            std::string::npos)
      << snap;
}

TEST(SloTracker, FastBurnFiresWithinOneRotationAndCumulativeStaysFlat) {
  SloTracker slo{one_sec_epochs()};
  slo.register_class("api", {5 * kMs, 0.999});

  // Ten minutes of healthy traffic: 1000 req/s at 1ms.
  std::uint64_t now = 0;
  for (int epoch = 1; epoch <= 600; ++epoch) {
    for (int i = 0; i < 1000; ++i) slo.observe("api", 1 * kMs, true);
    now = static_cast<std::uint64_t>(epoch) * kSec;
    slo.tick(now);
  }
  EXPECT_EQ(slo.state("api"), SloState::ok);

  // One epoch of full outage: 1000 slow failures.
  for (int i = 0; i < 1000; ++i) slo.observe("api", 20 * kMs, false);
  now += kSec;
  slo.tick(now);

  // Within ONE window rotation the page-level rule fires: the 10s and 1m
  // windows are saturated with errors (burn >> 14.4), while the cumulative
  // error ratio moved only 1000/601000 ≈ 0.17%.
  EXPECT_EQ(slo.state("api"), SloState::failing);

  const std::string snap = slo.snapshot_jsonl(now);
  EXPECT_NE(snap.find("\"state\":\"failing\""), std::string::npos);
  EXPECT_NE(snap.find("\"alert_fast_burn\":true"), std::string::npos);

  // Recovery: healthy epochs push the short window clean again.
  for (int epoch = 0; epoch < 70; ++epoch) {
    for (int i = 0; i < 1000; ++i) slo.observe("api", 1 * kMs, true);
    now += kSec;
    slo.tick(now);
  }
  EXPECT_NE(slo.state("api"), SloState::failing);
}

TEST(SloTracker, BreachCallbackIsEdgeTriggered) {
  SloTracker slo{one_sec_epochs()};
  slo.register_class("api", {5 * kMs, 0.999});
  int breaches = 0;
  slo.set_breach_callback(
      [&breaches](const std::string& cls, const std::string& rule) {
        EXPECT_EQ(cls, "api");
        EXPECT_EQ(rule, "fast_burn");
        ++breaches;
      });
  std::uint64_t now = 0;
  for (int epoch = 1; epoch <= 3; ++epoch) {
    for (int i = 0; i < 100; ++i) slo.observe("api", 1 * kMs, false);
    now = static_cast<std::uint64_t>(epoch) * kSec;
    slo.tick(now);
  }
  // Still failing every tick, but the callback fired only on the edge.
  EXPECT_EQ(slo.state("api"), SloState::failing);
  EXPECT_EQ(breaches, 1);
}

TEST(SloTracker, SinkScoresOnlyRegisteredClasses) {
  SloTracker slo{one_sec_epochs()};
  slo.register_class("process_replicas.serve", {5 * kMs, 0.99});
  TraceSink& sink = slo;

  SpanRecord span;
  span.name = "process_replicas.serve";
  span.t_start_ns = 0;
  span.t_end_ns = 1 * kMs;
  span.ok = true;
  sink.on_span(span);

  SpanRecord other;
  other.name = "variant";  // unregistered: ignored, unlike observe()
  other.t_end_ns = 1;
  sink.on_span(other);

  // A verdict under the span is the same request: the class does not
  // score it again (verdicts feed the health view's technique rows).
  AdjudicationEvent rejected;
  rejected.technique = "process_replicas.serve";
  rejected.accepted = false;
  sink.on_adjudication(rejected);

  const std::string snap = slo.snapshot_jsonl(0);
  EXPECT_NE(snap.find("\"total\":1,\"errors\":0"), std::string::npos);
  EXPECT_EQ(snap.find("\"class\":\"variant\""), std::string::npos);
}

TEST(SloTracker, WindowedGaugesAreRegisteredOnTick) {
  SloTracker slo{one_sec_epochs()};
  slo.register_class("gauged", {5 * kMs, 0.999});
  for (int i = 0; i < 10; ++i) slo.observe("gauged", 1 * kMs, true);
  slo.tick(kSec);
  bool found = false;
  for (const auto& [key, value] : MetricsRegistry::instance().gauge_values()) {
    if (key.find("slo.burn_rate_1m") != std::string::npos &&
        key.find("gauged") != std::string::npos) {
      found = true;
      EXPECT_DOUBLE_EQ(value, 0.0);
    }
  }
  EXPECT_TRUE(found);
}

TEST(ParseSloTargets, AcceptsValidSkipsMalformed) {
  const auto targets = parse_slo_targets(
      "/fast=5@99.9,bogus,nvp.run=10@99,=1@50,late=0@99,over=1@100");
  ASSERT_EQ(targets.size(), 2u);
  EXPECT_EQ(targets[0].first, "/fast");
  EXPECT_EQ(targets[0].second.latency_slo_ns, 5 * kMs);
  EXPECT_DOUBLE_EQ(targets[0].second.availability, 0.999);
  EXPECT_EQ(targets[1].first, "nvp.run");
  EXPECT_EQ(targets[1].second.latency_slo_ns, 10 * kMs);
  EXPECT_DOUBLE_EQ(targets[1].second.availability, 0.99);
  EXPECT_TRUE(parse_slo_targets(nullptr).empty());
  EXPECT_TRUE(parse_slo_targets("").empty());
}

}  // namespace
}  // namespace redundancy::obs
