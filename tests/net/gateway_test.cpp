// Gateway integration tests: full round trips through the epoll loop, the
// submit_batch dispatch into the pool, the redundancy patterns on the demo
// routes, and the completion-queue hand-back — over real loopback sockets.
#include "net/gateway.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "net/loopback_client.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/obs.hpp"
#include "obs/slo.hpp"
#include "util/placement.hpp"
#include "util/thread_pool.hpp"

namespace redundancy::net {
namespace {

using loopback::connect_loopback;
using loopback::http_get;
using loopback::read_response;
using loopback::Reply;
using loopback::send_all;

/// gateway.inline_requests summed over every loop's series: how many
/// handlers ran on a reactor instead of a pool worker.
std::uint64_t inline_requests() {
  std::uint64_t total = 0;
  for (const auto& [key, value] :
       obs::MetricsRegistry::instance().counter_totals()) {
    if (key.rfind("gateway.inline_requests", 0) == 0) total += value;
  }
  return total;
}

/// One keep-alive round trip on `fd`; reports whether the handler ran on
/// the loop.
Reply round_trip(int fd, const std::string& target, bool* ran_inline) {
  const std::uint64_t before = inline_requests();
  if (!send_all(fd, "GET " + target + " HTTP/1.1\r\n\r\n")) return Reply{};
  Reply reply = read_response(fd);
  *ran_inline = inline_requests() != before;
  return reply;
}

/// Send `target` until a run lands on the loop. Returns the requests sent,
/// or 0 when none of `limit` runs did.
int promote(int fd, const std::string& target, int limit = 5000) {
  for (int sent = 1; sent <= limit; ++sent) {
    bool ran_inline = false;
    if (!round_trip(fd, target, &ran_inline).complete) return 0;
    if (ran_inline) return sent;
  }
  return 0;
}

// Sanitizer builds slow pool runs of even a trivial handler past the
// inline budget now and then, and each such run restarts the streak; under
// ThreadSanitizer a long test process can stop fitting the budget at all.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

/// promote() for tests that need a route on the loop: a sanitizer build
/// whose timing never lets the route earn it skips the test.
#define PROMOTE_OR_SKIP(fd, target)                                        \
  do {                                                                     \
    if (promote((fd), (target)) == 0) {                                    \
      ::close(fd);                                                         \
      if (kSanitized) {                                                    \
        GTEST_SKIP() << (target) << " never fit the inline budget here";   \
      }                                                                    \
      FAIL() << (target) << " never moved onto the loop";                  \
    }                                                                      \
  } while (false)

Gateway::Options one_loop() {
  Gateway::Options options;
  options.loops = 1;
  return options;
}

/// Queue one trivial task on the shared pool and join it: a fan-out.
void fan_out() {
  std::vector<util::ThreadPool::Task> tasks;
  tasks.emplace_back([] {});
  util::ThreadPool::shared().run_all(std::move(tasks));
}

/// Busy-wait for `ns` nanoseconds.
void spin_ns(std::uint64_t ns) {
  const std::uint64_t t0 = obs::now_ns();
  while (obs::now_ns() - t0 < ns) {
  }
}

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
  obs::SloTracker slo;  // no rotation thread: the live partial epoch
  Gateway::Options options;
  options.slo = &slo;
  options.ops_cache_ttl_ms = 0;  // every /healthz scrape renders fresh
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
  EXPECT_EQ(healthz.body.rfind("status: ok\n", 0), 0u) << healthz.body;
  EXPECT_NE(healthz.body.find("\nslo:/echo: ok requests=1 errors=0 "
                              "error_rate=0.0000\n"),
            std::string::npos)
      << healthz.body;

  // One unrecovered verdict fails its technique's row and the probe.
  obs::TechniqueCounters{"gateway_test.nvp"}.count(obs::now_ns(), false,
                                                  false);
  const Reply failing = http_get(gateway.port(), "/healthz");
  EXPECT_EQ(failing.status, 503);
  EXPECT_EQ(failing.body.rfind("status: failing\n", 0), 0u) << failing.body;
  EXPECT_NE(failing.body.find("\ngateway_test.nvp: failing requests=1 "
                              "recoveries=0 unrecovered=1 "
                              "error_rate=1.0000\n"),
            std::string::npos)
      << failing.body;
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
  // The tracker registers every class it is fed. Scraping the ops routes
  // must not make them classes: a scraper polling /healthz would otherwise
  // add an slo:/healthz row to the /healthz it polls.
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

TEST(Gateway, ShortLeafRouteMovesOntoTheLoop) {
  Gateway gateway{one_loop()};
  gateway.add_route("/const", [](const Gateway::Request&) -> http::Response {
    return {200, "text/plain; charset=utf-8", "c\n"};
  });
  ASSERT_TRUE(gateway.start());
  const int fd = connect_loopback(gateway.port());
  ASSERT_GE(fd, 0);
  const std::uint64_t before = inline_requests();
  constexpr std::uint64_t kRequests = 1000;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(send_all(fd, "GET /const HTTP/1.1\r\n\r\n"));
    const Reply reply = read_response(fd);
    ASSERT_TRUE(reply.complete);
    ASSERT_EQ(reply.body, "c\n");
  }
  const std::uint64_t ran_inline = inline_requests() - before;
  // Placement starts cold: the first kInlineStreak runs are pool runs.
  EXPECT_LE(ran_inline, kRequests - util::Placement::kInlineStreak);
  if (!kSanitized) {
    EXPECT_GT(ran_inline, kRequests / 2);
  }
  PROMOTE_OR_SKIP(fd, "/const");
  ::close(fd);
  gateway.stop();
  EXPECT_EQ(gateway.jobs_inflight(), 0u);
}

TEST(Gateway, FanOutAndSlowRoutesStayOnThePool) {
  Gateway gateway{one_loop()};
  gateway.add_route("/fanout", [](const Gateway::Request&) -> http::Response {
    fan_out();
    return {200, "text/plain; charset=utf-8", "f\n"};
  });
  gateway.add_route("/sleepy", [](const Gateway::Request&) -> http::Response {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    return {200, "text/plain; charset=utf-8", "zz\n"};
  });
  ASSERT_TRUE(gateway.start());
  const int fd = connect_loopback(gateway.port());
  ASSERT_GE(fd, 0);
  const std::uint64_t before = inline_requests();
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(send_all(fd, "GET /fanout HTTP/1.1\r\n\r\n"));
    ASSERT_EQ(read_response(fd).body, "f\n");
    ASSERT_TRUE(send_all(fd, "GET /sleepy HTTP/1.1\r\n\r\n"));
    ASSERT_EQ(read_response(fd).body, "zz\n");
  }
  // /fanout queues pool work on every run; /sleepy never fits the budget.
  EXPECT_EQ(inline_requests() - before, 0u);
  ::close(fd);
  gateway.stop();
}

TEST(Gateway, RouteThatPostsUnjoinedWorkStaysOnThePoolForGood) {
  // Like /fast on a cache miss, the first run posts a task it does not
  // join (a hedge's primary); every later run is a trivial leaf. A reactor
  // could not run such a task itself while it waited for it, so the route
  // never earns the loop.
  std::atomic<bool> posted{false};
  Gateway gateway{one_loop()};
  gateway.add_route("/posts_once",
                    [&posted](const Gateway::Request&) -> http::Response {
                      if (!posted.exchange(true)) {
                        util::ThreadPool::shared().post(
                            util::ThreadPool::Task{[] {}});
                      }
                      return {200, "text/plain; charset=utf-8", "p\n"};
                    });
  ASSERT_TRUE(gateway.start());
  const int fd = connect_loopback(gateway.port());
  ASSERT_GE(fd, 0);
  const std::uint64_t before = inline_requests();
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(send_all(fd, "GET /posts_once HTTP/1.1\r\n\r\n"));
    ASSERT_EQ(read_response(fd).body, "p\n");
  }
  EXPECT_EQ(inline_requests() - before, 0u);
  ::close(fd);
  gateway.stop();
  EXPECT_EQ(gateway.jobs_inflight(), 0u);
}

TEST(Gateway, RouteUnderOnePoolRoundTripEarnsTheLoop) {
  // About 10 us of work: more than a trivial handler, less than the pool
  // round trip the loop saves.
  constexpr std::uint64_t kWorkNs = 10'000;
  static_assert(2 * kWorkNs <= util::Placement::kInlineBudgetNs);
  Gateway gateway{one_loop()};
  gateway.add_route("/work", [](const Gateway::Request&) -> http::Response {
    spin_ns(kWorkNs);
    return {200, "text/plain; charset=utf-8", "w\n"};
  });
  ASSERT_TRUE(gateway.start());
  const int fd = connect_loopback(gateway.port());
  ASSERT_GE(fd, 0);
  PROMOTE_OR_SKIP(fd, "/work");
  ::close(fd);
  gateway.stop();
  EXPECT_EQ(gateway.jobs_inflight(), 0u);
}

TEST(Gateway, RouteThatStopsFanningOutEarnsTheLoop) {
  std::atomic<int> fan_outs_left{40};
  Gateway gateway{one_loop()};
  gateway.add_route(
      "/settles", [&fan_outs_left](const Gateway::Request&) -> http::Response {
        if (fan_outs_left.fetch_sub(1) > 0) fan_out();
        return {200, "text/plain; charset=utf-8", "s\n"};
      });
  ASSERT_TRUE(gateway.start());
  const int fd = connect_loopback(gateway.port());
  ASSERT_GE(fd, 0);
  const int promoted_after = promote(fd, "/settles");
  if (promoted_after == 0) {
    ::close(fd);
    if (kSanitized) GTEST_SKIP() << "/settles never fit the inline budget here";
    FAIL() << "/settles never moved onto the loop";
  }
  // The fan-out runs all went to the pool, then a streak of plain ones.
  EXPECT_GT(promoted_after,
            40 + static_cast<int>(util::Placement::kInlineStreak));
  ::close(fd);
  gateway.stop();
  EXPECT_EQ(gateway.jobs_inflight(), 0u);
}

TEST(Gateway, DemoVoteEarnsTheLoopOnceItsElectorateIsInline) {
  // /vote's threaded electorate queues its legs on the pool until it has
  // learned the calling thread; from then on the route is a short leaf.
  Gateway gateway{one_loop()};
  install_demo_routes(gateway);
  ASSERT_TRUE(gateway.start());
  const std::string expected = http_get(gateway.port(), "/fast?x=7").body;
  const int fd = connect_loopback(gateway.port());
  ASSERT_GE(fd, 0);
  PROMOTE_OR_SKIP(fd, "/vote?x=7");
  bool ran_inline = false;
  const Reply vote = round_trip(fd, "/vote?x=7", &ran_inline);
  EXPECT_EQ(vote.status, 200);
  EXPECT_EQ(vote.body, expected);
  ::close(fd);
  gateway.stop();
  EXPECT_EQ(gateway.jobs_inflight(), 0u);
}

TEST(Gateway, LoopRunThatQueuesPoolWorkSendsTheNextRunToThePool) {
  std::atomic<bool> fan_next{false};
  Gateway gateway{one_loop()};
  gateway.add_route("/sometimes",
                    [&fan_next](const Gateway::Request&) -> http::Response {
                      if (fan_next.exchange(false)) fan_out();
                      return {200, "text/plain; charset=utf-8", "t\n"};
                    });
  ASSERT_TRUE(gateway.start());
  const int fd = connect_loopback(gateway.port());
  ASSERT_GE(fd, 0);
  // The fan-out lands on the loop only if the run before it stayed under
  // budget; a sanitizer build can miss that now and then, so retry.
  bool fanned_inline = false;
  for (int attempt = 0; attempt < 20 && !fanned_inline; ++attempt) {
    PROMOTE_OR_SKIP(fd, "/sometimes");
    fan_next.store(true);
    ASSERT_EQ(round_trip(fd, "/sometimes", &fanned_inline).body, "t\n");
  }
  if (!fanned_inline && kSanitized) {
    ::close(fd);
    GTEST_SKIP() << "no promoted run stayed within the inline budget here";
  }
  ASSERT_TRUE(fanned_inline);
  bool next_ran_inline = true;
  ASSERT_EQ(round_trip(fd, "/sometimes", &next_ran_inline).body, "t\n");
  EXPECT_FALSE(next_ran_inline);
  // The route stopped fanning out, so it earns the loop back.
  PROMOTE_OR_SKIP(fd, "/sometimes");
  ::close(fd);
  gateway.stop();
  EXPECT_EQ(gateway.jobs_inflight(), 0u);
}

TEST(Gateway, LoopRunJoiningPoolWorkBehindItsOwnLockStillAnswers) {
  // A route on its loop holds its lock and joins pool work while every
  // pool worker waits for that lock, as pool jobs of the same route queued
  // behind it would. The reactor must run the joined task itself, not wait
  // for a worker: the answer comes back well within a second, where
  // waiting would last until the workers give up on the lock after 5 s.
  const std::size_t workers = util::ThreadPool::shared().size();
  std::timed_mutex route_m;
  std::mutex gate_m;
  std::condition_variable gate_cv;
  bool holding = false;  // guarded by gate_m
  std::atomic<bool> fan_next{false};
  Gateway gateway{one_loop()};
  gateway.add_route("/locked", [&](const Gateway::Request&) -> http::Response {
    std::lock_guard lock(route_m);
    if (fan_next.exchange(false)) {
      {
        std::lock_guard gate(gate_m);
        holding = true;
      }
      gate_cv.notify_all();
      fan_out();
    }
    return {200, "text/plain; charset=utf-8", "l\n"};
  });
  ASSERT_TRUE(gateway.start());
  const int fd = connect_loopback(gateway.port());
  ASSERT_GE(fd, 0);
  PROMOTE_OR_SKIP(fd, "/locked");
  // Occupy every worker: each waits until the route holds its lock, then
  // queues on that lock.
  std::atomic<std::size_t> blocked{0};
  for (std::size_t i = 0; i < workers; ++i) {
    util::ThreadPool::shared().post(util::ThreadPool::Task{[&] {
      blocked.fetch_add(1);
      {
        std::unique_lock gate(gate_m);
        gate_cv.wait_for(gate, std::chrono::seconds(5),
                         [&] { return holding; });
      }
      if (route_m.try_lock_for(std::chrono::seconds(5))) route_m.unlock();
    }});
  }
  while (blocked.load() < workers) std::this_thread::yield();
  fan_next.store(true);
  bool ran_inline = false;
  const auto start = std::chrono::steady_clock::now();
  const Reply reply = round_trip(fd, "/locked", &ran_inline);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  {
    std::lock_guard gate(gate_m);
    holding = true;  // release the workers if the run never got there
  }
  gate_cv.notify_all();
  util::ThreadPool::shared().wait_idle();
  ::close(fd);
  gateway.stop();
  EXPECT_EQ(reply.body, "l\n");
  if (!ran_inline && kSanitized) {
    GTEST_SKIP() << "the run after the promotion overran the budget here";
  }
  ASSERT_TRUE(ran_inline);
  EXPECT_LT(elapsed, std::chrono::seconds(1));
}

TEST(Gateway, OverBudgetInlineRunSendsTheRouteBackToThePool) {
  std::atomic<bool> slow_next{false};
  Gateway gateway{one_loop()};
  gateway.add_route("/flip",
                    [&slow_next](const Gateway::Request&) -> http::Response {
                      if (slow_next.exchange(false)) {
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(1));
                      }
                      return {200, "text/plain; charset=utf-8", "f\n"};
                    });
  ASSERT_TRUE(gateway.start());
  const int fd = connect_loopback(gateway.port());
  ASSERT_GE(fd, 0);
  // The slow run lands on the loop only if the run before it stayed under
  // budget; a sanitizer build can miss that now and then, so retry.
  bool slow_ran_inline = false;
  for (int attempt = 0; attempt < 20 && !slow_ran_inline; ++attempt) {
    PROMOTE_OR_SKIP(fd, "/flip");
    slow_next.store(true);
    ASSERT_EQ(round_trip(fd, "/flip", &slow_ran_inline).body, "f\n");
  }
  if (!slow_ran_inline && kSanitized) {
    ::close(fd);
    GTEST_SKIP() << "no promoted run stayed within the inline budget here";
  }
  ASSERT_TRUE(slow_ran_inline);
  bool next_ran_inline = true;
  ASSERT_EQ(round_trip(fd, "/flip", &next_ran_inline).body, "f\n");
  EXPECT_FALSE(next_ran_inline);
  ::close(fd);
  gateway.stop();
  EXPECT_EQ(gateway.jobs_inflight(), 0u);
}

TEST(Gateway, InlineHandlerThatThrowsGets500AndTheConnectionKeepsServing) {
  Gateway gateway{one_loop()};
  gateway.add_route("/maybe", [](const Gateway::Request& req) -> http::Response {
    if (http::query_param(req.query, "boom")) {
      throw std::runtime_error{"handler bug"};
    }
    return {200, "text/plain; charset=utf-8", "m\n"};
  });
  ASSERT_TRUE(gateway.start());
  const int fd = connect_loopback(gateway.port());
  ASSERT_GE(fd, 0);
  bool threw_inline = false;
  for (int attempt = 0; attempt < 20 && !threw_inline; ++attempt) {
    PROMOTE_OR_SKIP(fd, "/maybe");
    ASSERT_EQ(round_trip(fd, "/maybe?boom=1", &threw_inline).status, 500);
  }
  if (!threw_inline && kSanitized) {
    ::close(fd);
    GTEST_SKIP() << "no promoted run stayed within the inline budget here";
  }
  EXPECT_TRUE(threw_inline);
  bool ran_inline = false;
  const Reply after = round_trip(fd, "/maybe", &ran_inline);
  EXPECT_EQ(after.status, 200);
  EXPECT_EQ(after.body, "m\n");
  ::close(fd);
  gateway.stop();
}

TEST(Gateway, InlineRequestsAreScoredOnceAndRecordedInFlight) {
  obs::SloTracker slo;
  slo.register_class("/scored", {/*latency_slo_ns=*/50'000'000, 0.99});
  Gateway::Options options = one_loop();
  options.slo = &slo;
  options.ops_cache_ttl_ms = 0;
  Gateway gateway{options};
  gateway.add_route("/scored", [](const Gateway::Request&) -> http::Response {
    return {200, "text/plain; charset=utf-8", "s\n"};
  });
  ASSERT_TRUE(gateway.start());
  const int fd = connect_loopback(gateway.port());
  ASSERT_GE(fd, 0);
  const int promoted_after = promote(fd, "/scored");
  if (promoted_after == 0) {
    ::close(fd);
    if (kSanitized) GTEST_SKIP() << "/scored never fit the inline budget here";
    FAIL() << "/scored never moved onto the loop";
  }
  // Up to 400 more requests (two flight records each, inside one ring)
  // until 20 of them ran on the loop; a sanitizer build may demote the
  // route on the way and earn the loop again.
  if (obs::kCompiledIn) obs::FlightRecorder::instance().enable();
  int sent = 0;
  int ran_inline = 0;
  while (sent < 400 && ran_inline < 20) {
    bool on_loop = false;
    ASSERT_TRUE(round_trip(fd, "/scored", &on_loop).complete);
    ++sent;
    ran_inline += on_loop ? 1 : 0;
  }
  ::close(fd);
  if (ran_inline == 0 && kSanitized) {
    GTEST_SKIP() << "/scored never stayed within the inline budget here";
  }
  ASSERT_GT(ran_inline, 0);

  // Pool and inline runs together: every request scored exactly once.
  const Reply scored = http_get(gateway.port(), "/slo");
  ASSERT_EQ(scored.status, 200);
  EXPECT_NE(scored.body.find("\"total\":" +
                             std::to_string(promoted_after + sent)),
            std::string::npos)
      << scored.body;

  if (obs::kCompiledIn) {
    // One completion record (a = status) per request since the recorder
    // was enabled, whichever thread ran the handler.
    const Reply flight = http_get(gateway.port(), "/debug/flight");
    ASSERT_EQ(flight.status, 200);
    const std::string record = "\"name\":\"/scored\",\"a\":200,";
    int completions = 0;
    for (std::size_t at = flight.body.find(record); at != std::string::npos;
         at = flight.body.find(record, at + 1)) {
      ++completions;
    }
    EXPECT_EQ(completions, sent);
    obs::FlightRecorder::instance().disable();
  }
  gateway.stop();
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
