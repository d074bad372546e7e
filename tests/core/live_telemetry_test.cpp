// core::start_live_telemetry_from_env() end to end: the environment picks
// the port, the ops gateway serves /metrics, /healthz, /traces, /slo and
// /debug/flight over loopback, and what a scraper reads matches the
// in-process state it was rendered from.
#include "core/live_telemetry.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "net/gateway.hpp"
#include "net/loopback_client.hpp"
#include "obs/obs.hpp"

namespace {

using namespace redundancy;
using net::loopback::http_get;
using net::loopback::Reply;

/// Every knob start_live_telemetry_from_env() reads; each test starts from
/// all of them unset and sets only what it needs.
constexpr const char* kKnobs[] = {
    "REDUNDANCY_OBS_HTTP_PORT", "REDUNDANCY_OBS_TRACE_FILE",
    "REDUNDANCY_OBS_SAMPLE",    "REDUNDANCY_SLO_TARGETS",
    "REDUNDANCY_SLO_EPOCH_MS",  "REDUNDANCY_FLIGHT_DUMP",
    "REDUNDANCY_FLIGHT_RING"};

class LiveTelemetry : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* knob : kKnobs) {
      const char* value = std::getenv(knob);
      saved_.emplace_back(value ? std::optional<std::string>{value}
                                : std::nullopt);
      ::unsetenv(knob);
    }
    obs::Recorder::instance().clear_sinks();
  }

  void TearDown() override {
    for (std::size_t i = 0; i < saved_.size(); ++i) {
      if (saved_[i]) {
        ::setenv(kKnobs[i], saved_[i]->c_str(), 1);
      } else {
        ::unsetenv(kKnobs[i]);
      }
    }
    auto& recorder = obs::Recorder::instance();
    recorder.set_enabled(false);
    recorder.set_sample_every(1);
    recorder.clear_sinks();
  }

  /// Start with REDUNDANCY_OBS_HTTP_PORT=`port`; the ops gateway must come
  /// up (any port value falls back to an ephemeral port rather than fail).
  static std::unique_ptr<core::LiveTelemetry> start(const char* port) {
    ::setenv("REDUNDANCY_OBS_HTTP_PORT", port, 1);
    return core::start_live_telemetry_from_env();
  }

 private:
  std::vector<std::optional<std::string>> saved_;
};

/// First sample value for `series` (an exact exposition key like
/// `foo_sum{technique="x"}`) in a Prometheus text body; -1 if absent.
double sample_value(const std::string& body, const std::string& series) {
  std::istringstream in{body};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(series + " ", 0) == 0) {
      return std::stod(line.substr(series.size() + 1));
    }
  }
  return -1.0;
}

TEST_F(LiveTelemetry, StartsOnEphemeralPortAndStopsGracefully) {
  auto telemetry = start("0");
  ASSERT_NE(telemetry, nullptr);
  ASSERT_NE(telemetry->http, nullptr);
  const std::uint16_t port = telemetry->http->port();
  EXPECT_NE(port, 0);
  EXPECT_EQ(telemetry->http->loops(), 1u);
  EXPECT_EQ(http_get(port, "/healthz").status, 200);

  telemetry.reset();
  // The listen socket is gone: a fresh GET cannot get an answer.
  EXPECT_EQ(http_get(port, "/healthz").status, 0);
}

TEST_F(LiveTelemetry, ExplicitPortIsHonoured) {
  std::uint16_t port = 0;
  {
    auto probe = start("0");
    ASSERT_NE(probe->http, nullptr);
    port = probe->http->port();
  }
  const std::string spec = std::to_string(port);
  auto first = start(spec.c_str());
  ASSERT_NE(first->http, nullptr);
  EXPECT_EQ(first->http->port(), port);
  EXPECT_EQ(http_get(port, "/healthz").status, 200);

  // A second process-local start on the held port cannot bind; it reports
  // that and leaves the rest of the telemetry running.
  auto second = start(spec.c_str());
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->http, nullptr);
}

TEST_F(LiveTelemetry, RestartsBackToBackOnTheSamePort) {
  auto first = start("0");
  ASSERT_NE(first->http, nullptr);
  const std::uint16_t port = first->http->port();
  EXPECT_EQ(http_get(port, "/healthz").status, 200);
  first.reset();

  // SO_REUSEADDR: the immediate re-bind of the same port must not flake on
  // the previous listener's lingering socket states.
  const std::string spec = std::to_string(port);
  for (int round = 0; round < 3; ++round) {
    auto again = start(spec.c_str());
    ASSERT_NE(again->http, nullptr) << "round " << round;
    EXPECT_EQ(again->http->port(), port);
    EXPECT_EQ(http_get(port, "/healthz").status, 200);
  }
}

TEST_F(LiveTelemetry, InvalidPortFallsBackToEphemeralLoudly) {
  // 70000 must not wrap to 4464, and 9x must not half-parse to 9.
  for (const char* bad : {"70000", "-1", "9x"}) {
    ::testing::internal::CaptureStderr();
    auto telemetry = start(bad);
    const std::string err = ::testing::internal::GetCapturedStderr();
    ASSERT_NE(telemetry->http, nullptr) << bad;
    const std::uint16_t port = telemetry->http->port();
    EXPECT_NE(port, 0) << bad;
    EXPECT_NE(port, 4464) << bad;
    EXPECT_NE(port, 9) << bad;
    EXPECT_NE(err.find("REDUNDANCY_OBS_HTTP_PORT='" + std::string{bad} +
                       "' is not a valid port"),
              std::string::npos)
        << err;
    // The port actually chosen is printed.
    EXPECT_NE(err.find("127.0.0.1:" + std::to_string(port)), std::string::npos)
        << err;
    EXPECT_EQ(http_get(port, "/healthz").status, 200) << bad;
  }
}

TEST_F(LiveTelemetry, MetricsBodyMatchesInProcessHistogramSnapshot) {
  auto& hist = obs::histogram("live_telemetry_test.latency_ns", "nvp");
  auto& requests = obs::counter("live_telemetry_test.requests", "nvp");
  hist.record(100);
  hist.record(900);
  hist.record(70'000);
  requests.add(3);
  const obs::HistogramSnapshot snap = hist.snapshot();
  const std::uint64_t total = requests.total();

  auto telemetry = start("0");
  ASSERT_NE(telemetry->http, nullptr);
  const Reply reply = http_get(telemetry->http->port(), "/metrics");
  ASSERT_EQ(reply.status, 200);
  EXPECT_NE(reply.head.find("text/plain; version=0.0.4"), std::string::npos);

  // The scraped histogram agrees with the live obs::Histogram snapshot,
  // exactly.
  const std::string fam = "live_telemetry_test_latency_ns";
  EXPECT_EQ(sample_value(reply.body, fam + "_sum{technique=\"nvp\"}"),
            static_cast<double>(snap.sum));
  EXPECT_EQ(sample_value(reply.body, fam + "_count{technique=\"nvp\"}"),
            static_cast<double>(snap.count));
  EXPECT_EQ(sample_value(reply.body,
                         "live_telemetry_test_requests_total"
                         "{technique=\"nvp\"}"),
            static_cast<double>(total));
}

TEST_F(LiveTelemetry, HealthzIs503WhileTheTrackerIsFailing) {
  auto telemetry = start("0");
  ASSERT_NE(telemetry->http, nullptr);
  // An unrecovered verdict of a technique the engine has not seen yet,
  // with no window rotation before the scrape.
  obs::TechniqueCounters{"live_telemetry_test.nvp"}.count(obs::now_ns(),
                                                         false, false);
  ASSERT_EQ(telemetry->slo->health(obs::now_ns()).status,
            obs::SloState::failing);

  const Reply reply = http_get(telemetry->http->port(), "/healthz");
  EXPECT_EQ(reply.status, 503);
  EXPECT_EQ(reply.body.rfind("status: failing\n", 0), 0u) << reply.body;
  EXPECT_NE(reply.body.find("\nlive_telemetry_test.nvp: failing requests=1 "
                            "recoveries=0 unrecovered=1 error_rate=1.0000\n"),
            std::string::npos)
      << reply.body;
}

TEST_F(LiveTelemetry, TracesReturnsTheRingsLastLines) {
  auto telemetry = start("0");
  ASSERT_NE(telemetry->http, nullptr);
  for (int i = 0; i < 40; ++i) {
    obs::SpanRecord span;
    span.trace_id = 1000 + static_cast<obs::TraceId>(i);
    span.span_id = 1;
    span.name = "live_telemetry_test.root";
    span.t_start_ns = static_cast<std::uint64_t>(i) * 10;
    span.t_end_ns = span.t_start_ns + 5;
    telemetry->ring->on_span(span);
  }
  const auto joined = [](const std::vector<std::string>& lines) {
    std::string body;
    for (const auto& line : lines) body += line + "\n";
    return body;
  };
  const std::uint16_t port = telemetry->http->port();

  const Reply three = http_get(port, "/traces?n=3");
  EXPECT_EQ(three.status, 200);
  EXPECT_NE(three.head.find("application/x-ndjson"), std::string::npos);
  EXPECT_EQ(three.body, joined(telemetry->ring->tail(3)));
  EXPECT_NE(three.body.find("\"trace\":1039"), std::string::npos);

  // No n= (or n=0): the last 32 lines.
  EXPECT_EQ(http_get(port, "/traces").body, joined(telemetry->ring->tail(32)));
  EXPECT_EQ(http_get(port, "/traces?n=0").body,
            joined(telemetry->ring->tail(32)));
}

TEST_F(LiveTelemetry, SloIsEmptyAndFlightIs404WhenNotWired) {
  const bool flight_was_on = obs::flight_enabled();
  obs::FlightRecorder::instance().disable();
  auto telemetry = start("0");
  ASSERT_NE(telemetry->http, nullptr);
  // The engine always runs (it renders /healthz); with no targets it has
  // no classes to show.
  ASSERT_NE(telemetry->slo, nullptr);
  const std::uint16_t port = telemetry->http->port();
  const Reply slo = http_get(port, "/slo");
  EXPECT_EQ(slo.status, 200);
  EXPECT_EQ(slo.body, "");
  EXPECT_EQ(http_get(port, "/debug/flight").status, 404);
  if (flight_was_on) obs::FlightRecorder::instance().enable();
}

TEST_F(LiveTelemetry, SloServesTheTrackerWhenTargetsAreSet) {
  ::setenv("REDUNDANCY_SLO_TARGETS", "live_telemetry_test.op=5@99", 1);
  auto telemetry = start("0");
  ASSERT_NE(telemetry->http, nullptr);
  ASSERT_NE(telemetry->slo, nullptr);
  const std::uint16_t port = telemetry->http->port();
  const Reply reply = http_get(port, "/slo");
  EXPECT_EQ(reply.status, 200);
  EXPECT_NE(reply.body.find("\"class\":\"live_telemetry_test.op\""),
            std::string::npos);
  // The ops gateway scores nothing against the tracker: scraping it, its
  // own /traces included, never registers an ops route as a class.
  ASSERT_EQ(http_get(port, "/metrics").status, 200);
  ASSERT_EQ(http_get(port, "/traces?n=1").status, 200);
  ASSERT_EQ(http_get(port, "/healthz").status, 200);
  // Read the engine itself: the /slo render is cached for 100 ms.
  const std::string classes = telemetry->slo->snapshot_jsonl(obs::now_ns());
  EXPECT_EQ(classes.find("\"class\":\"/"), std::string::npos) << classes;
}

}  // namespace
