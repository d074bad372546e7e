// The health view behind GET /healthz: obs::SloTracker windows every
// technique's exact verdict counters (obs::TechniqueCounters) and reads them
// as ok/degraded/failing, next to one slo:<class> row per SLO class. Driven
// with synthetic time (tick() and health() with explicit now).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/parallel_evaluation.hpp"
#include "core/voters.hpp"
#include "obs/obs.hpp"
#include "obs/slo.hpp"
#include "techniques/nvp.hpp"

namespace redundancy {
namespace {

using obs::SloState;

constexpr std::uint64_t kSec = 1'000'000'000ull;

obs::SloTracker::Options one_sec_epochs() {
  obs::SloTracker::Options options;
  options.epoch_ns = kSec;
  options.slots = 60;
  return options;
}

/// One verdict for `technique`, through the one writer of its series.
void verdict(const std::string& technique, bool accepted,
             bool recovered = false) {
  obs::TechniqueCounters{technique}.count(obs::now_ns(), accepted, recovered);
}

/// The row named `name`; a default row (never rendered) when absent.
obs::HealthRow row(const obs::HealthReport& report, const std::string& name) {
  for (const obs::HealthRow& r : report.rows) {
    if (r.name == name) return r;
  }
  ADD_FAILURE() << "no health row " << name;
  return {};
}

/// Turn the recorder on for one test and leave it as every other test
/// expects it.
class RecorderOn {
 public:
  explicit RecorderOn(std::uint64_t sample_every) {
    auto& recorder = obs::Recorder::instance();
    recorder.clear_sinks();
    recorder.set_sample_every(sample_every);
    recorder.set_enabled(true);
  }
  ~RecorderOn() {
    auto& recorder = obs::Recorder::instance();
    recorder.flush();
    recorder.set_enabled(false);
    recorder.set_sample_every(1);
    recorder.clear_sinks();
  }
  RecorderOn(const RecorderOn&) = delete;
  RecorderOn& operator=(const RecorderOn&) = delete;
};

std::vector<core::Variant<int, int>> doubling_versions(bool disagree_on_one) {
  std::vector<core::Variant<int, int>> versions;
  for (int i = 0; i < 3; ++i) {
    versions.push_back(core::make_variant<int, int>(
        "version-" + std::to_string(i),
        [i, disagree_on_one](const int& x) -> core::Result<int> {
          // On input 1 the three versions answer 2, 3 and 4: no majority.
          return disagree_on_one && x == 1 ? 2 + i : 2 * x;
        }));
  }
  return versions;
}

TEST(HealthView, IdleTechniqueIsOk) {
  obs::SloTracker slo{one_sec_epochs()};
  const obs::TechniqueCounters idle{"health_test.idle"};
  const obs::HealthReport report = slo.health(0);
  EXPECT_EQ(report.status, SloState::ok);
  EXPECT_EQ(report.text().rfind("status: ok\n", 0), 0u);
  const obs::HealthRow r = row(report, "health_test.idle");
  EXPECT_EQ(r.state, SloState::ok);
  EXPECT_EQ(r.requests, 0u);
}

TEST(HealthView, CleanAcceptsAreOk) {
  obs::SloTracker slo{one_sec_epochs()};
  for (int i = 0; i < 5; ++i) verdict("health_test.clean", true);
  const obs::HealthRow r = row(slo.health(0), "health_test.clean");
  EXPECT_EQ(r.state, SloState::ok);
  EXPECT_EQ(r.requests, 5u);
  EXPECT_EQ(r.recoveries, 0u);
  EXPECT_EQ(r.errors, 0u);
}

TEST(HealthView, MaskingFailedBallotsIsDegraded) {
  obs::SloTracker slo{one_sec_epochs()};
  verdict("health_test.masked", true);
  verdict("health_test.masked", true, /*recovered=*/true);
  const obs::HealthRow r = row(slo.health(0), "health_test.masked");
  EXPECT_EQ(r.state, SloState::degraded);
  EXPECT_EQ(r.requests, 2u);
  EXPECT_EQ(r.recoveries, 1u);
}

TEST(HealthView, RejectionIsFailingAndDominatesOverall) {
  obs::SloTracker slo{one_sec_epochs()};
  verdict("health_test.ok", true);
  verdict("health_test.degraded", true, true);
  verdict("health_test.failing", false);
  const obs::HealthReport report = slo.health(0);
  EXPECT_EQ(row(report, "health_test.ok").state, SloState::ok);
  EXPECT_EQ(row(report, "health_test.degraded").state, SloState::degraded);
  EXPECT_EQ(row(report, "health_test.failing").state, SloState::failing);
  EXPECT_EQ(report.status, SloState::failing);
}

TEST(HealthView, WindowRotationLetsHealthRecover) {
  obs::SloTracker slo{one_sec_epochs()};
  verdict("health_test.recover", false);
  slo.tick(1 * kSec);
  // The epoch that closed at 1s is inside the 10s window until 11s.
  EXPECT_EQ(row(slo.health(10 * kSec), "health_test.recover").state,
            SloState::failing);
  slo.tick(11 * kSec);
  verdict("health_test.recover", true);
  const obs::HealthRow r = row(slo.health(11 * kSec), "health_test.recover");
  EXPECT_EQ(r.state, SloState::ok);
  EXPECT_EQ(r.requests, 1u);
  EXPECT_EQ(r.errors, 0u);
}

TEST(HealthView, RowsAreSortedAndHealthzTextListsEveryRow) {
  obs::SloTracker slo{one_sec_epochs()};
  slo.register_class("api", {5'000'000, 0.999});
  verdict("health_test.b", true, true);
  verdict("health_test.a", true);
  const obs::HealthReport report = slo.health(0);
  std::vector<std::string> names;
  for (const obs::HealthRow& r : report.rows) names.push_back(r.name);
  const auto at = [&names](const std::string& name) {
    return std::find(names.begin(), names.end(), name) - names.begin();
  };
  EXPECT_LT(at("health_test.a"), at("health_test.b"));
  EXPECT_EQ(names.back(), "slo:api");  // classes follow the techniques

  const std::string text = report.text();
  EXPECT_EQ(text.rfind("status: degraded\n", 0), 0u);
  EXPECT_NE(text.find("\nhealth_test.b: degraded requests=1 recoveries=1 "
                      "unrecovered=0 error_rate=0.0000\n"),
            std::string::npos);
  EXPECT_NE(text.find("\nhealth_test.a: ok requests=1"), std::string::npos);
  EXPECT_NE(text.find("\nslo:api: ok requests=0 errors=0 error_rate=0.0000\n"),
            std::string::npos);
}

TEST(HealthView, ErrorRateTracksTheWindow) {
  obs::SloTracker slo{one_sec_epochs()};
  for (int i = 0; i < 3; ++i) verdict("health_test.rate", true);
  verdict("health_test.rate", false);
  EXPECT_NE(slo.health(0).text().find(
                "health_test.rate: failing requests=4 recoveries=0 "
                "unrecovered=1 error_rate=0.2500\n"),
            std::string::npos);
}

TEST(HealthView, SloClassRowCarriesTheBurnRateState) {
  obs::SloTracker slo{one_sec_epochs()};
  slo.register_class("api", {5'000'000, 0.999});
  for (int i = 0; i < 100; ++i) slo.observe("api", 1'000'000, false);
  slo.tick(1 * kSec);  // every window saturated: fast_burn pages
  const obs::HealthReport report = slo.health(1 * kSec);
  const obs::HealthRow r = row(report, "slo:api");
  EXPECT_EQ(r.state, SloState::failing);
  EXPECT_EQ(r.requests, 100u);
  EXPECT_EQ(r.errors, 100u);
  EXPECT_EQ(report.status, SloState::failing);
}

TEST(HealthView, VerdictCountedBeforeTheFirstRenderShows) {
  obs::SloTracker slo{one_sec_epochs()};
  // A technique the tracker has never seen counts a verdict, then the
  // first render (or the first rotation) picks the technique up.
  verdict("health_test.first_render", false);
  EXPECT_EQ(row(slo.health(0), "health_test.first_render").errors, 1u);

  verdict("health_test.first_tick", false);
  slo.tick(1 * kSec);
  const obs::HealthRow r = row(slo.health(1 * kSec), "health_test.first_tick");
  EXPECT_EQ(r.errors, 1u);
  EXPECT_EQ(r.state, SloState::failing);
}

TEST(HealthView, LivePartialEpochCountsWithoutRotation) {
  obs::SloTracker slo{one_sec_epochs()};
  verdict("health_test.live", true);
  EXPECT_EQ(row(slo.health(0), "health_test.live").state, SloState::ok);
  verdict("health_test.live", false);  // no tick in between
  const obs::HealthRow r = row(slo.health(0), "health_test.live");
  EXPECT_EQ(r.state, SloState::failing);
  EXPECT_EQ(r.requests, 2u);
  EXPECT_EQ(r.errors, 1u);
}

TEST(HealthView, VerdictsCountedBeforeTheTrackerExistedAreNotWindowed) {
  verdict("health_test.history", false);
  obs::SloTracker slo{one_sec_epochs()};
  const obs::HealthRow r = row(slo.health(0), "health_test.history");
  EXPECT_EQ(r.state, SloState::ok);
  EXPECT_EQ(r.errors, 0u);
}

TEST(HealthView, SampledRecorderStillCountsEveryVerdict) {
  if (!obs::kCompiledIn) {
    GTEST_SKIP() << "obs compiled out (REDUNDANCY_OBS_NOOP)";
  }
  const RecorderOn recorder{/*sample_every=*/100};
  obs::SloTracker slo{one_sec_epochs()};
  core::ParallelEvaluation<int, int> nvp{doubling_versions(true),
                                         core::majority_voter<int>()};
  nvp.set_obs_label("health_test.sampled");
  for (int i = 0; i < 1000; ++i) ASSERT_FALSE(nvp.run(1).has_value());
  const obs::HealthRow r = row(slo.health(0), "health_test.sampled");
  EXPECT_EQ(r.requests, 1000u);
  EXPECT_EQ(r.errors, 1000u);
  EXPECT_EQ(r.state, SloState::failing);
}

TEST(HealthView, ClassNamedAfterAPatternCountsEachRunOnce) {
  // A class named like a pattern's obs label is scored from the pattern's
  // span only: the verdict under it is the same request, not a second one.
  if (!obs::kCompiledIn) {
    GTEST_SKIP() << "obs compiled out (REDUNDANCY_OBS_NOOP)";
  }
  const RecorderOn recorder{/*sample_every=*/1};
  auto slo = std::make_shared<obs::SloTracker>(one_sec_epochs());
  slo->register_class("nvp", {/*latency_slo_ns=*/60 * kSec, 0.99});
  obs::Recorder::instance().add_sink(slo);
  techniques::NVersionProgramming<int, int> nvp{doubling_versions(true)};
  ASSERT_TRUE(nvp.run(2).has_value());
  ASSERT_FALSE(nvp.run(1).has_value());
  obs::Recorder::instance().flush();
  const std::string snap = slo->snapshot_jsonl(0);
  EXPECT_NE(snap.find("\"type\":\"slo_class\",\"class\":\"nvp\""),
            std::string::npos);
  EXPECT_NE(snap.find("\"total\":2,\"errors\":1"), std::string::npos) << snap;
  EXPECT_EQ(snap.find("\"total\":4"), std::string::npos) << snap;
}

}  // namespace
}  // namespace redundancy
