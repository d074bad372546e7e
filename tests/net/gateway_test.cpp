// Gateway integration tests: full round trips through the epoll loop, the
// submit_batch dispatch into the pool, the redundancy patterns on the demo
// routes, and the completion-queue hand-back — over real loopback sockets.
#include "net/gateway.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/health.hpp"
#include "net/loopback_client.hpp"
#include "obs/obs.hpp"
#include "obs/slo.hpp"

namespace redundancy::net {
namespace {

using loopback::connect_loopback;
using loopback::http_get;
using loopback::read_response;
using loopback::Reply;
using loopback::send_all;

TEST(Gateway, ServesDemoRoutesThroughTheEngine) {
  Gateway gateway;
  install_demo_routes(gateway);
  ASSERT_TRUE(gateway.start());
  ASSERT_NE(gateway.port(), 0);

  const Reply echo = http_get(gateway.port(), "/echo?x=5");
  EXPECT_EQ(echo.status, 200);
  EXPECT_EQ(echo.body, "5\n");

  // /fast runs the hedged SequentialAlternatives with the result cache;
  // identical inputs must produce identical (deterministic) outputs.
  const Reply fast1 = http_get(gateway.port(), "/fast?x=7");
  const Reply fast2 = http_get(gateway.port(), "/fast?x=7");
  EXPECT_EQ(fast1.status, 200);
  EXPECT_EQ(fast1.body, fast2.body);

  // /vote adjudicates 3 variants under a majority voter.
  const Reply vote = http_get(gateway.port(), "/vote?x=7");
  EXPECT_EQ(vote.status, 200);
  EXPECT_EQ(vote.body, fast1.body);  // same chain() on the same input

  const Reply missing = http_get(gateway.port(), "/nope");
  EXPECT_EQ(missing.status, 404);

  gateway.stop();
  EXPECT_EQ(gateway.jobs_inflight(), 0u);
}

TEST(Gateway, ServesMetricsAndHealthzInProcess) {
  core::HealthTracker health;
  Gateway::Options options;
  options.health = &health;
  Gateway gateway{options};
  install_demo_routes(gateway);
  ASSERT_TRUE(gateway.start());

  // Generate some traffic so the gateway counters are non-zero.
  ASSERT_EQ(http_get(gateway.port(), "/echo?x=1").status, 200);

  const Reply metrics = http_get(gateway.port(), "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("gateway_requests"), std::string::npos);
  EXPECT_NE(metrics.body.find("gateway_accepted"), std::string::npos);

  const Reply healthz = http_get(gateway.port(), "/healthz");
  EXPECT_EQ(healthz.status, 200);  // nothing failing
  gateway.stop();
}

TEST(Gateway, SloEndpointServesWindowedNdjson) {
  obs::SloTracker slo;  // no rotation thread: live partial windows suffice
  slo.register_class("/echo", {/*latency_slo_ns=*/50'000'000, 0.99});
  Gateway::Options options;
  options.slo = &slo;
  Gateway gateway{options};
  install_demo_routes(gateway);
  ASSERT_TRUE(gateway.start());

  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(http_get(gateway.port(), "/echo?x=" + std::to_string(i)).status,
              200);
  }

  const Reply reply = http_get(gateway.port(), "/slo");
  EXPECT_EQ(reply.status, 200);
  // One slo_window row per window plus the slo_class summary, all for the
  // route path the gateway fed to observe().
  EXPECT_NE(reply.body.find("\"type\":\"slo_window\""), std::string::npos);
  EXPECT_NE(reply.body.find("\"type\":\"slo_class\""), std::string::npos);
  EXPECT_NE(reply.body.find("\"class\":\"/echo\""), std::string::npos);
  EXPECT_NE(reply.body.find("\"total\":5"), std::string::npos);
  EXPECT_NE(reply.body.find("\"window\":\"1m\""), std::string::npos);
  gateway.stop();
}

TEST(Gateway, SloRouteAbsentWhenNoTrackerAttached) {
  Gateway gateway;
  install_demo_routes(gateway);
  ASSERT_TRUE(gateway.start());
  EXPECT_EQ(http_get(gateway.port(), "/slo").status, 404);
  gateway.stop();
}

TEST(Gateway, OpsRoutesAreNotScoredAsSloClasses) {
  // The tracker auto-registers every class it is fed. Scraping the ops
  // routes must not make them classes: a scraper polling /healthz would
  // otherwise feed slo:/healthz verdicts into the /healthz it polls.
  obs::SloTracker slo;
  Gateway::Options options;
  options.slo = &slo;
  options.ops_cache_ttl_ms = 0;  // every /slo scrape renders fresh
  Gateway gateway{options};
  install_demo_routes(gateway);
  ASSERT_TRUE(gateway.start());
  ASSERT_EQ(http_get(gateway.port(), "/echo?x=1").status, 200);
  const char* const ops[] = {"/metrics", "/healthz", "/slo", "/debug/flight"};
  for (const char* route : ops) {
    EXPECT_NE(http_get(gateway.port(), route).status, 0) << route;
  }

  const Reply reply = http_get(gateway.port(), "/slo");
  ASSERT_EQ(reply.status, 200);
  EXPECT_NE(reply.body.find("\"class\":\"/echo\""), std::string::npos);
  for (const char* route : ops) {
    EXPECT_EQ(reply.body.find("\"class\":\"" + std::string{route} + "\""),
              std::string::npos)
        << route;
  }
  gateway.stop();
}

TEST(Gateway, DebugFlightServesTheBlackBoxWhenEnabled) {
  Gateway gateway;
  install_demo_routes(gateway);
  ASSERT_TRUE(gateway.start());

  if (!obs::kCompiledIn) {
    // NOOP build: the recorder can never be enabled; the route must say so.
    EXPECT_EQ(http_get(gateway.port(), "/debug/flight").status, 404);
    gateway.stop();
    return;
  }

  obs::FlightRecorder::instance().disable();
  EXPECT_EQ(http_get(gateway.port(), "/debug/flight").status, 404);

  obs::FlightRecorder::instance().enable();
  // Traffic while enabled leaves gateway breadcrumbs in the ring.
  ASSERT_EQ(http_get(gateway.port(), "/echo?x=9").status, 200);
  const Reply reply = http_get(gateway.port(), "/debug/flight");
  EXPECT_EQ(reply.status, 200);
  EXPECT_NE(reply.body.find("\"type\":\"flight_header\""), std::string::npos);
  EXPECT_NE(reply.body.find("\"kind\":\"gateway\""), std::string::npos);
  EXPECT_NE(reply.body.find("\"name\":\"/echo\""), std::string::npos);
  obs::FlightRecorder::instance().disable();
  gateway.stop();
}

TEST(Gateway, PostBodyRoundTrip) {
  Gateway gateway;
  install_demo_routes(gateway);
  ASSERT_TRUE(gateway.start());
  const int fd = connect_loopback(gateway.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_all(
      fd, "POST /echo HTTP/1.1\r\nContent-Length: 11\r\n\r\nhello world"));
  Reply reply = read_response(fd);
  ASSERT_TRUE(reply.complete);
  EXPECT_EQ(reply.body, "hello world");
  ::close(fd);
  gateway.stop();
}

TEST(Gateway, CustomRouteErrorsBecome500NotCrashes) {
  Gateway gateway;
  gateway.add_route("/throw", [](const Gateway::Request&) -> http::Response {
    throw std::runtime_error{"handler bug"};
  });
  ASSERT_TRUE(gateway.start());
  const Reply reply = http_get(gateway.port(), "/throw");
  EXPECT_EQ(reply.status, 500);
  gateway.stop();
}

TEST(Gateway, ManyConcurrentClientsAllGetCorrectAnswers) {
  Gateway gateway;
  install_demo_routes(gateway);
  ASSERT_TRUE(gateway.start());
  constexpr int kClients = 8;
  constexpr int kRequestsEach = 25;
  std::atomic<int> correct{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const int fd = connect_loopback(gateway.port());
      if (fd < 0) return;
      for (int i = 0; i < kRequestsEach; ++i) {
        const int x = c * 1000 + i;
        if (!send_all(fd, "GET /echo?x=" + std::to_string(x) +
                              " HTTP/1.1\r\n\r\n")) {
          break;
        }
        const Reply reply = read_response(fd);
        if (reply.complete && reply.status == 200 &&
            reply.body == std::to_string(x) + "\n") {
          correct.fetch_add(1);
        }
      }
      ::close(fd);
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(correct.load(), kClients * kRequestsEach);
  gateway.stop();
  EXPECT_EQ(gateway.jobs_inflight(), 0u);
}

TEST(Gateway, StopWithRequestsInFlightSettlesCleanly) {
  Gateway gateway;
  gateway.add_route("/slow", [](const Gateway::Request&) -> http::Response {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return {200, "text/plain; charset=utf-8", "late\n"};
  });
  ASSERT_TRUE(gateway.start());
  const int fd = connect_loopback(gateway.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_all(fd, "GET /slow HTTP/1.1\r\n\r\n"));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  gateway.stop();  // the /slow job is still on a worker
  EXPECT_EQ(gateway.jobs_inflight(), 0u);
  ::close(fd);
}

TEST(Gateway, RestartAfterStop) {
  Gateway gateway;
  install_demo_routes(gateway);
  ASSERT_TRUE(gateway.start());
  EXPECT_EQ(http_get(gateway.port(), "/echo?x=1").status, 200);
  gateway.stop();
  ASSERT_TRUE(gateway.start());
  EXPECT_EQ(http_get(gateway.port(), "/echo?x=2").status, 200);
  gateway.stop();
}

}  // namespace
}  // namespace redundancy::net
