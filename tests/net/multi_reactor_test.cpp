// Multi-reactor gateway tests: SO_REUSEPORT loop sharding, response
// pipelining with out-of-order completions, vectored send coalescing, the
// REDUNDANCY_GATEWAY_LOOPS knob, and the cached ops-route renders — all
// over real loopback sockets.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "net/conn_manager.hpp"
#include "net/event_loop.hpp"
#include "net/gateway.hpp"
#include "net/loopback_client.hpp"
#include "obs/obs.hpp"

namespace redundancy::net {
namespace {

using loopback::connect_loopback;
using loopback::http_get;
using loopback::read_response;
using loopback::Reply;
using loopback::send_all;

TEST(MultiReactor, ServesAcrossTwoLoops) {
  Gateway::Options options;
  options.loops = 2;
  Gateway gateway{options};
  install_demo_routes(gateway);
  ASSERT_TRUE(gateway.start());
  ASSERT_EQ(gateway.loops(), 2u);
  ASSERT_NE(gateway.port(), 0);

  // Many short-lived connections: the kernel spreads them over both loops;
  // every one must be served correctly.
  std::atomic<int> correct{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < 10; ++i) {
        const int x = c * 100 + i;
        const Reply reply =
            http_get(gateway.port(), "/echo?x=" + std::to_string(x));
        if (reply.complete && reply.status == 200 &&
            reply.body == std::to_string(x) + "\n") {
          correct.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(correct.load(), 40);
  gateway.stop();
  EXPECT_EQ(gateway.jobs_inflight(), 0u);
  EXPECT_EQ(gateway.jobs_inflight(0), 0u);
  EXPECT_EQ(gateway.jobs_inflight(1), 0u);
}

TEST(MultiReactor, PerLoopMetricShardsAppearInMetrics) {
  Gateway::Options options;
  options.loops = 2;
  options.ops_cache_ttl_ms = 0;  // render fresh
  Gateway gateway{options};
  install_demo_routes(gateway);
  ASSERT_TRUE(gateway.start());
  ASSERT_EQ(http_get(gateway.port(), "/echo?x=1").status, 200);

  const Reply metrics = http_get(gateway.port(), "/metrics");
  ASSERT_EQ(metrics.status, 200);
  // Each reactor registers its own labelled series for every gateway
  // family (registered at construction, so both render even if the kernel
  // hashed every connection onto one loop).
  EXPECT_NE(metrics.body.find("gateway_accepted_total{loop=\"0\"}"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("gateway_accepted_total{loop=\"1\"}"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("gateway_requests_total{loop=\"0\"}"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("gateway_sends_total{loop=\"0\"}"),
            std::string::npos);
  gateway.stop();
}

TEST(MultiReactor, SingleLoopKeepsUnlabelledSeries) {
  Gateway::Options options;
  options.loops = 1;
  options.ops_cache_ttl_ms = 0;
  Gateway gateway{options};
  install_demo_routes(gateway);
  ASSERT_TRUE(gateway.start());
  ASSERT_EQ(gateway.loops(), 1u);
  ASSERT_EQ(http_get(gateway.port(), "/echo?x=1").status, 200);
  const Reply metrics = http_get(gateway.port(), "/metrics");
  // The classic single-reactor series name, no loop label.
  EXPECT_NE(metrics.body.find("gateway_accepted_total "), std::string::npos);
  gateway.stop();
}

TEST(Gateway, LoopCountComesFromEnvKnob) {
  ::setenv("REDUNDANCY_GATEWAY_LOOPS", "3", 1);
  {
    Gateway gateway;
    install_demo_routes(gateway);
    ASSERT_TRUE(gateway.start());
    EXPECT_EQ(gateway.loops(), 3u);
    gateway.stop();
  }
  // Malformed values are loudly ignored in favour of the core default.
  ::setenv("REDUNDANCY_GATEWAY_LOOPS", "2x", 1);
  {
    Gateway gateway;
    install_demo_routes(gateway);
    ASSERT_TRUE(gateway.start());
    const std::size_t fallback = std::min<std::size_t>(
        std::max<std::size_t>(std::thread::hardware_concurrency() / 2, 1), 8);
    EXPECT_EQ(gateway.loops(), fallback);
    gateway.stop();
  }
  ::unsetenv("REDUNDANCY_GATEWAY_LOOPS");
}

/// Loop-thread fixture for pipelining tests: a ConnManager whose handler
/// only records (conn, seq); the cycle handler answers recorded requests
/// from the loop thread — deferred completions, like the gateway's drain.
class PipelineServer {
 public:
  struct PendingReq {
    std::uint64_t conn_id;
    std::uint64_t seq;
    std::string path;
  };

  /// respond_when: pending request count that triggers the batched
  /// responses; reverse: answer in reverse dispatch order (the responses
  /// must still leave the socket in request order).
  PipelineServer(std::size_t max_pipeline, std::size_t respond_when,
                 bool reverse) {
    EventLoop::Options loop_options;
    loop_options.timer_tick_ms = 5;
    loop_options.idle_timeout_ms = 10;
    loop_ = std::make_unique<EventLoop>(loop_options);
    ConnManager::Options options;
    options.max_pipeline = max_pipeline;
    manager_ = std::make_unique<ConnManager>(*loop_, options);
    manager_->set_request_handler(
        [this](std::uint64_t conn_id, const http::Request& request) {
          pending_.push_back({conn_id, manager_->dispatching_seq(),
                              std::string{request.path}});
        });
    loop_->set_cycle_handler([this, respond_when, reverse] {
      if (pending_.size() < respond_when) return;
      std::vector<PendingReq> batch;
      batch.swap(pending_);
      if (reverse) std::reverse(batch.begin(), batch.end());
      manager_->begin_batch();
      for (const PendingReq& req : batch) {
        http::Response response;
        response.body = req.path + "\n";
        manager_->respond(req.conn_id, req.seq, std::move(response));
      }
      manager_->flush_batch();
    });
    listened_ = manager_->listen();
    thread_ = std::thread{[this] { loop_->run(); }};
  }

  ~PipelineServer() {
    loop_->stop();
    thread_.join();
    manager_.reset();
    loop_.reset();
  }

  [[nodiscard]] bool ok() const { return listened_; }
  [[nodiscard]] std::uint16_t port() const { return manager_->port(); }

 private:
  std::unique_ptr<EventLoop> loop_;
  std::unique_ptr<ConnManager> manager_;
  std::vector<PendingReq> pending_;
  bool listened_ = false;
  std::thread thread_;
};

/// The loop thread bumps gateway.sends/gateway.responses *after* sendmsg
/// returns, so a client can read the whole response burst before the
/// increments land; poll until the expected total (or a 2 s deadline).
std::uint64_t settled_delta(const char* name, std::uint64_t baseline,
                            std::uint64_t expect) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (obs::counter(name).total() - baseline < expect &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return obs::counter(name).total() - baseline;
}

TEST(ConnPipeline, BatchedPipelineCoalescesIntoOneSend) {
  constexpr std::size_t kDepth = 8;
  PipelineServer server{kDepth, kDepth, /*reverse=*/false};
  ASSERT_TRUE(server.ok());
  const std::uint64_t sends_before = obs::counter("gateway.sends").total();
  const std::uint64_t responses_before =
      obs::counter("gateway.responses").total();

  const int fd = connect_loopback(server.port());
  ASSERT_GE(fd, 0);
  std::string burst;
  for (std::size_t i = 0; i < kDepth; ++i) {
    burst += "GET /r" + std::to_string(i) + " HTTP/1.1\r\n\r\n";
  }
  ASSERT_TRUE(send_all(fd, burst));  // one segment: all parse in one wakeup
  for (std::size_t i = 0; i < kDepth; ++i) {
    const Reply reply = read_response(fd);
    ASSERT_TRUE(reply.complete);
    EXPECT_EQ(reply.body, "/r" + std::to_string(i) + "\n");
  }
  ::close(fd);

  // Eight responses (16 head+body iovecs) leave in far fewer sendmsg calls
  // than responses: that is the sends-per-response < 1 property the
  // benchmark gates. Usually this is exactly one syscall, but the burst may
  // straddle a read boundary under load, so only bound it strictly below
  // the response count.
  EXPECT_EQ(settled_delta("gateway.responses", responses_before, kDepth),
            kDepth);
  const std::uint64_t sends_delta =
      obs::counter("gateway.sends").total() - sends_before;
  EXPECT_GE(sends_delta, 1u);
  EXPECT_LT(sends_delta, kDepth);
}

TEST(ConnPipeline, OutOfOrderCompletionsFlushInRequestOrder) {
  constexpr std::size_t kDepth = 4;
  // Responses are generated in REVERSE dispatch order; the seq-slot queue
  // must still put them on the wire in request order.
  PipelineServer server{kDepth, kDepth, /*reverse=*/true};
  ASSERT_TRUE(server.ok());
  const int fd = connect_loopback(server.port());
  ASSERT_GE(fd, 0);
  std::string burst;
  for (std::size_t i = 0; i < kDepth; ++i) {
    burst += "GET /o" + std::to_string(i) + " HTTP/1.1\r\n\r\n";
  }
  ASSERT_TRUE(send_all(fd, burst));
  for (std::size_t i = 0; i < kDepth; ++i) {
    const Reply reply = read_response(fd);
    ASSERT_TRUE(reply.complete);
    EXPECT_EQ(reply.body, "/o" + std::to_string(i) + "\n");
  }
  ::close(fd);
}

TEST(ConnPipeline, DepthCapStopsParsingNotServing) {
  // Depth 2, responder waits for 2: a 4-deep client burst is served as two
  // windows of two — the cap throttles parsing, it never deadlocks.
  PipelineServer server{2, 2, /*reverse=*/false};
  ASSERT_TRUE(server.ok());
  const int fd = connect_loopback(server.port());
  ASSERT_GE(fd, 0);
  std::string burst;
  for (int i = 0; i < 4; ++i) {
    burst += "GET /w" + std::to_string(i) + " HTTP/1.1\r\n\r\n";
  }
  ASSERT_TRUE(send_all(fd, burst));
  for (int i = 0; i < 4; ++i) {
    const Reply reply = read_response(fd);
    ASSERT_TRUE(reply.complete);
    EXPECT_EQ(reply.body, "/w" + std::to_string(i) + "\n");
  }
  ::close(fd);
}

TEST(Gateway, OpsRoutesServeCachedRenderWithinTtl) {
  Gateway::Options options;
  options.ops_cache_ttl_ms = 10'000;  // nothing expires during the test
  Gateway gateway{options};
  install_demo_routes(gateway);
  ASSERT_TRUE(gateway.start());
  const std::uint64_t renders_before =
      obs::counter("gateway.ops_renders").total();
  std::string first;
  for (int i = 0; i < 5; ++i) {
    const Reply reply = http_get(gateway.port(), "/metrics");
    ASSERT_EQ(reply.status, 200);
    if (i == 0) {
      first = reply.body;
    } else {
      EXPECT_EQ(reply.body, first);  // identical cached bytes
    }
  }
  // Five scrapes, one render.
  EXPECT_EQ(obs::counter("gateway.ops_renders").total() - renders_before, 1u);
  gateway.stop();
}

TEST(Gateway, OpsCacheTtlZeroRendersEveryScrape) {
  Gateway::Options options;
  options.ops_cache_ttl_ms = 0;
  Gateway gateway{options};
  install_demo_routes(gateway);
  ASSERT_TRUE(gateway.start());
  const std::uint64_t renders_before =
      obs::counter("gateway.ops_renders").total();
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(http_get(gateway.port(), "/metrics").status, 200);
  }
  EXPECT_EQ(obs::counter("gateway.ops_renders").total() - renders_before, 3u);
  gateway.stop();
}

TEST(Gateway, ScrapeStormDoesNotStallPipelinedTraffic) {
  // Regression for the scrape-stall: a scraper polling /metrics as fast as
  // it can while pipelined traffic flows. The cached render bounds the
  // registry walks to ~1 per TTL, so traffic must keep completing and the
  // storm must not amplify renders.
  ConnManager::Options conn;
  conn.max_pipeline = 8;
  Gateway::Options options;
  options.conn = conn;
  options.ops_cache_ttl_ms = 50;
  Gateway gateway{options};
  install_demo_routes(gateway);
  ASSERT_TRUE(gateway.start());

  const std::uint64_t renders_before =
      obs::counter("gateway.ops_renders").total();
  std::atomic<bool> stop_scraper{false};
  std::atomic<int> scrapes{0};
  std::thread scraper{[&] {
    while (!stop_scraper.load(std::memory_order_acquire)) {
      if (http_get(gateway.port(), "/metrics").status == 200) {
        scrapes.fetch_add(1);
      }
    }
  }};

  const auto t0 = std::chrono::steady_clock::now();
  int correct = 0;
  const int fd = connect_loopback(gateway.port());
  ASSERT_GE(fd, 0);
  for (int round = 0; round < 20; ++round) {
    std::string burst;
    for (int i = 0; i < 8; ++i) {
      burst += "GET /echo?x=" + std::to_string(round * 8 + i) +
               " HTTP/1.1\r\n\r\n";
    }
    if (!send_all(fd, burst)) break;
    for (int i = 0; i < 8; ++i) {
      const Reply reply = read_response(fd);
      if (reply.complete && reply.status == 200 &&
          reply.body == std::to_string(round * 8 + i) + "\n") {
        ++correct;
      }
    }
  }
  ::close(fd);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  stop_scraper.store(true, std::memory_order_release);
  scraper.join();

  EXPECT_EQ(correct, 160);  // every pipelined request answered correctly
  EXPECT_GT(scrapes.load(), 0);
  // Renders amplified by scrape count would show here: the storm did many
  // scrapes but the TTL caps renders near elapsed/TTL (generous 3x slack).
  const std::uint64_t renders =
      obs::counter("gateway.ops_renders").total() - renders_before;
  EXPECT_LE(renders, 3 * (static_cast<std::uint64_t>(elapsed.count()) /
                              options.ops_cache_ttl_ms +
                          2));
  gateway.stop();
  EXPECT_EQ(gateway.jobs_inflight(), 0u);
}

}  // namespace
}  // namespace redundancy::net
