// ConnManager state-machine edge cases over real loopback sockets: partial
// reads across wakeups, slow-loris idle timeout, EAGAIN write backpressure,
// overload shedding (503 + clean close), pipelining, and accept-side sheds.
//
// The request handler responds inline from the loop thread (the dispatch
// hop through the pool is the Gateway's job, tested separately), so these
// tests isolate exactly the connection machinery.
#include "net/conn_manager.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>

#include "net/event_loop.hpp"
#include "net/http.hpp"
#include "net/loopback_client.hpp"

namespace redundancy::net {
namespace {

using loopback::connect_loopback;
using loopback::http_get;
using loopback::read_response;
using loopback::Reply;
using loopback::send_all;
using loopback::wait_for_eof;

/// Loop thread + ConnManager with an inline echo/big handler.
class Server {
 public:
  explicit Server(ConnManager::Options options) {
    EventLoop::Options loop_options;
    loop_options.timer_tick_ms = 5;
    loop_options.idle_timeout_ms = 10;
    loop_ = std::make_unique<EventLoop>(loop_options);
    manager_ = std::make_unique<ConnManager>(*loop_, options);
    manager_->set_request_handler(
        [this](std::uint64_t conn_id, const http::Request& request) {
          http::Response response;
          if (request.path == "/big") {
            response.body.assign(
                static_cast<std::size_t>(
                    http::query_param(request.query, "n").value_or(1024)),
                'x');
          } else {
            response.body = std::string{request.path} + ":" +
                            std::string{request.body} + "\n";
          }
          manager_->respond(conn_id, std::move(response));
        });
    listened_ = manager_->listen();
    thread_ = std::thread{[this] { loop_->run(); }};
  }

  ~Server() {
    loop_->stop();
    thread_.join();
    manager_.reset();  // loop dead: teardown is single-threaded now
    loop_.reset();
  }

  [[nodiscard]] bool ok() const { return listened_; }
  [[nodiscard]] std::uint16_t port() const { return manager_->port(); }

 private:
  std::unique_ptr<EventLoop> loop_;
  std::unique_ptr<ConnManager> manager_;
  bool listened_ = false;
  std::thread thread_;
};

ConnManager::Options base_options() {
  ConnManager::Options options;
  options.idle_timeout_ms = 30'000;
  return options;
}

TEST(ConnManager, ServesARequestAndKeepsAlive) {
  Server server{base_options()};
  ASSERT_TRUE(server.ok());
  const int fd = connect_loopback(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_all(fd, "GET /a HTTP/1.1\r\n\r\n"));
  Reply r1 = read_response(fd);
  ASSERT_TRUE(r1.complete);
  EXPECT_EQ(r1.status, 200);
  EXPECT_EQ(r1.body, "/a:\n");
  EXPECT_NE(r1.head.find("Connection: keep-alive"), std::string::npos);
  // Same connection, second request.
  ASSERT_TRUE(send_all(fd, "GET /b HTTP/1.1\r\n\r\n"));
  Reply r2 = read_response(fd);
  ASSERT_TRUE(r2.complete);
  EXPECT_EQ(r2.body, "/b:\n");
  ::close(fd);
}

TEST(ConnManager, PartialReadsAcrossManyWakeups) {
  Server server{base_options()};
  ASSERT_TRUE(server.ok());
  const int fd = connect_loopback(server.port());
  ASSERT_GE(fd, 0);
  const std::string request =
      "POST /echo HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
  // One byte per send with pauses: every byte is its own epoll wakeup and
  // the parser must stay incomplete until the last one.
  for (char c : request) {
    ASSERT_TRUE(send_all(fd, std::string(1, c)));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Reply reply = read_response(fd);
  ASSERT_TRUE(reply.complete);
  EXPECT_EQ(reply.status, 200);
  EXPECT_EQ(reply.body, "/echo:hello\n");
  ::close(fd);
}

TEST(ConnManager, PipelinedRequestsAnsweredInOrder) {
  Server server{base_options()};
  ASSERT_TRUE(server.ok());
  const int fd = connect_loopback(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_all(fd,
                       "GET /one HTTP/1.1\r\n\r\n"
                       "GET /two HTTP/1.1\r\n\r\n"));
  Reply r1 = read_response(fd);
  Reply r2 = read_response(fd);
  ASSERT_TRUE(r1.complete);
  ASSERT_TRUE(r2.complete);
  EXPECT_EQ(r1.body, "/one:\n");
  EXPECT_EQ(r2.body, "/two:\n");
  ::close(fd);
}

long peak_rss_kb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

TEST(ConnManager, PipelinedBurstAnsweredInOrderWithBoundedMemory) {
  // Every response is given inline, inside the parse pass. Passes iterate:
  // no stack frame per pipelined request, and no copy of the remaining
  // input per request.
  constexpr int kRequests = 20'000;
  Server server{base_options()};
  ASSERT_TRUE(server.ok());
  const int fd = connect_loopback(server.port());
  ASSERT_GE(fd, 0);
  const timeval timeout{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  const long rss_before_kb = peak_rss_kb();
  std::thread writer{[fd] {
    std::string burst;
    for (int i = 0; i < kRequests; ++i) {
      burst += "GET /" + std::to_string(i) + " HTTP/1.1\r\n\r\n";
    }
    send_all(fd, burst);
  }};
  // Read in bulk and split the responses here: one recv per byte (as
  // read_response does) would dominate the test's run time.
  std::string in;
  std::size_t off = 0;
  int in_order = 0;
  char buf[65536];
  while (in_order < kRequests) {
    const std::size_t head_end = in.find("\r\n\r\n", off);
    const std::size_t cl = in.find("Content-Length: ", off);
    if (head_end != std::string::npos && cl < head_end) {
      const std::size_t body_at = head_end + 4;
      const std::size_t length =
          std::strtoul(in.c_str() + cl + 16, nullptr, 10);
      if (in.size() >= body_at + length) {
        // The handler answers "<path>:\n" and request i asks for "/i".
        std::string_view body{in.data() + body_at, length};
        if (!body.starts_with('/') || !body.ends_with(":\n")) break;
        body = body.substr(1, body.size() - 3);
        if (body != std::to_string(in_order)) break;
        ++in_order;
        off = body_at + length;
        continue;
      }
    }
    in.erase(0, off);
    off = 0;
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    in.append(buf, static_cast<std::size_t>(n));
  }
  writer.join();
  EXPECT_EQ(in_order, kRequests);
  // Copying the pipelined tail per request grew the server to hundreds of
  // megabytes at half this burst.
  EXPECT_LT(peak_rss_kb() - rss_before_kb, 64L * 1024);
  ::close(fd);
}

TEST(ConnManager, SlowLorisHitsIdleTimeoutDespiteTrickle) {
  ConnManager::Options options = base_options();
  options.idle_timeout_ms = 120;
  Server server{options};
  ASSERT_TRUE(server.ok());
  const int fd = connect_loopback(server.port());
  ASSERT_GE(fd, 0);
  // Trickle header bytes forever, never finishing the request. The idle
  // deadline covers the whole request, so the trickle must NOT refresh it.
  ASSERT_TRUE(send_all(fd, "GET /slow HTTP/1.1\r\nX-Pad: "));
  const auto t0 = std::chrono::steady_clock::now();
  Reply reply;
  for (int i = 0; i < 50; ++i) {
    if (!send_all(fd, "a")) break;  // server closed on us mid-trickle
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    // Peek for the 408 without blocking forever.
    char buf[1024];
    const ssize_t n = ::recv(fd, buf, sizeof buf, MSG_DONTWAIT);
    if (n > 0) {
      reply.head.append(buf, static_cast<std::size_t>(n));
      if (reply.head.find("\r\n\r\n") != std::string::npos) break;
    }
    if (n == 0) break;
  }
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_NE(reply.head.find("HTTP/1.1 408"), std::string::npos);
  EXPECT_NE(reply.head.find("Connection: close"), std::string::npos);
  // Cut off near the deadline — not after 50 × 25ms of successful trickle.
  EXPECT_LT(elapsed.count(), 700);
  EXPECT_TRUE(wait_for_eof(fd, 3000));
  ::close(fd);
}

TEST(ConnManager, WriteBackpressureSurvivesSlowReader) {
  ConnManager::Options options = base_options();
  options.sndbuf_bytes = 4096;  // force EAGAIN on the first big write
  Server server{options};
  ASSERT_TRUE(server.ok());
  const int fd = connect_loopback(server.port());
  ASSERT_GE(fd, 0);
  const std::size_t want = 2u << 20;  // 2 MiB >> the server's send buffer
  ASSERT_TRUE(
      send_all(fd, "GET /big?n=" + std::to_string(want) + " HTTP/1.1\r\n\r\n"));
  // Let the server hit EAGAIN and park on write interest before we read.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  Reply reply = read_response(fd);
  ASSERT_TRUE(reply.complete);
  EXPECT_EQ(reply.status, 200);
  EXPECT_EQ(reply.body.size(), want);
  ::close(fd);
}

TEST(ConnManager, WriteTimeoutCutsOffStuckReader) {
  ConnManager::Options options = base_options();
  options.sndbuf_bytes = 4096;
  options.write_timeout_ms = 150;
  Server server{options};
  ASSERT_TRUE(server.ok());
  const int fd = connect_loopback(server.port());
  ASSERT_GE(fd, 0);
  const int rcvbuf = 2048;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
  ASSERT_TRUE(send_all(fd, "GET /big?n=4194304 HTTP/1.1\r\n\r\n"));
  // Never read: the peer must give up within the write deadline instead of
  // holding the buffers forever.
  EXPECT_TRUE(wait_for_eof(fd, 5000));
  ::close(fd);
}

TEST(ConnManager, OverloadShedsWith503AndCleanClose) {
  ConnManager::Options options = base_options();
  options.max_inflight = 0;  // every request is over the admission limit
  Server server{options};
  ASSERT_TRUE(server.ok());
  const Reply reply = http_get(server.port(), "/anything");
  EXPECT_EQ(reply.status, 503);
  EXPECT_EQ(reply.body, "overloaded\n");
  EXPECT_NE(reply.head.find("Connection: close"), std::string::npos);
}

TEST(ConnManager, AcceptShedsBeyondMaxConnections) {
  ConnManager::Options options = base_options();
  options.max_connections = 1;
  Server server{options};
  ASSERT_TRUE(server.ok());
  const int keeper = connect_loopback(server.port());
  ASSERT_GE(keeper, 0);
  // Make sure the first connection is registered before the second lands.
  ASSERT_TRUE(send_all(keeper, "GET /a HTTP/1.1\r\n\r\n"));
  ASSERT_TRUE(read_response(keeper).complete);
  const int shed = connect_loopback(server.port());
  ASSERT_GE(shed, 0);
  // The shed socket is accepted then closed: EOF, no response bytes.
  EXPECT_TRUE(wait_for_eof(shed, 3000));
  ::close(shed);
  // The admitted connection still works.
  ASSERT_TRUE(send_all(keeper, "GET /b HTTP/1.1\r\n\r\n"));
  EXPECT_TRUE(read_response(keeper).complete);
  ::close(keeper);
}

TEST(ConnManager, MalformedRequestGets400AndClose) {
  Server server{base_options()};
  ASSERT_TRUE(server.ok());
  const int fd = connect_loopback(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_all(fd, "NONSENSE\r\n\r\n"));
  Reply reply = read_response(fd);
  ASSERT_TRUE(reply.complete);
  EXPECT_EQ(reply.status, 400);
  EXPECT_TRUE(wait_for_eof(fd, 3000));
  ::close(fd);
}

TEST(ConnManager, OversizedHeadGets431) {
  ConnManager::Options options = base_options();
  options.max_request_bytes = 256;
  Server server{options};
  ASSERT_TRUE(server.ok());
  const int fd = connect_loopback(server.port());
  ASSERT_GE(fd, 0);
  std::string request = "GET /x HTTP/1.1\r\nX-Pad: ";
  request.append(1024, 'a');
  ASSERT_TRUE(send_all(fd, request));
  Reply reply = read_response(fd);
  ASSERT_TRUE(reply.complete);
  EXPECT_EQ(reply.status, 431);
  ::close(fd);
}

}  // namespace
}  // namespace redundancy::net
