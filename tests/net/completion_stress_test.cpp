// TSan stress for the gateway's cross-thread hand-back machinery: the
// MPSC CompletionQueue under producer herds, the wakeup-fd path, engine
// completions racing loop shutdown, and route placement flipping between
// pool workers and the loops under load. Run under
// -DREDUNDANCY_SANITIZE=thread (ctest -L stress).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "net/loopback_client.hpp"
#include "net/completion_queue.hpp"
#include "net/event_loop.hpp"
#include "net/gateway.hpp"
#include "obs/metrics_registry.hpp"

namespace redundancy::net {
namespace {

struct Item : CompletionNode {
  int producer = 0;
  int seq = 0;
};

/// gateway.inline_requests summed over every loop's series.
std::uint64_t inline_requests_total() {
  std::uint64_t total = 0;
  for (const auto& [key, value] :
       obs::MetricsRegistry::instance().counter_totals()) {
    if (key.rfind("gateway.inline_requests", 0) == 0) total += value;
  }
  return total;
}

TEST(CompletionQueueStress, ManyProducersOneConsumerNothingLostFifoPerProducer) {
  constexpr int kProducers = 4;
  constexpr int kItems = 20'000;
  CompletionQueue queue;
  std::atomic<bool> done{false};
  std::atomic<int> consumed{0};

  std::thread consumer{[&] {
    std::vector<int> last_seq(kProducers, -1);
    while (!done.load(std::memory_order_acquire) || !queue.empty()) {
      for (CompletionNode* node = queue.drain(); node != nullptr;) {
        CompletionNode* next = node->next;
        auto* item = static_cast<Item*>(node);
        // drain() restores FIFO order, so per-producer sequences ascend.
        EXPECT_EQ(item->seq, last_seq[item->producer] + 1);
        last_seq[item->producer] = item->seq;
        delete item;
        consumed.fetch_add(1, std::memory_order_relaxed);
        node = next;
      }
      std::this_thread::yield();
    }
  }};

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kItems; ++i) {
        auto* item = new Item;
        item->producer = p;
        item->seq = i;
        queue.push(item);
      }
    });
  }
  for (auto& t : producers) t.join();
  done.store(true, std::memory_order_release);
  consumer.join();
  EXPECT_EQ(consumed.load(), kProducers * kItems);
}

TEST(CompletionQueueStress, WasEmptySignalFiresAtLeastOncePerBurst) {
  // Between two drains at least one push must have reported was-empty —
  // that is the invariant that makes "wake only on was-empty" lossless.
  CompletionQueue queue;
  constexpr int kRounds = 2'000;
  std::atomic<int> wakes{0};
  std::thread producer{[&] {
    for (int i = 0; i < kRounds * 4; ++i) {
      auto* item = new Item;
      if (queue.push(item)) wakes.fetch_add(1, std::memory_order_relaxed);
    }
  }};
  int drained = 0;
  int drains_with_data = 0;
  while (drained < kRounds * 4) {
    int batch = 0;
    for (CompletionNode* node = queue.drain(); node != nullptr;) {
      CompletionNode* next = node->next;
      delete static_cast<Item*>(node);
      ++batch;
      node = next;
    }
    if (batch > 0) {
      ++drains_with_data;
      drained += batch;
    }
  }
  producer.join();
  EXPECT_EQ(drained, kRounds * 4);
  // Every data-carrying drain burst was preceded by >= 1 was-empty push.
  EXPECT_GE(wakes.load(), 1);
  EXPECT_LE(wakes.load(), drains_with_data + 1);
}

TEST(GatewayStress, CompletionsRacingLoopShutdown) {
  // Workers finishing jobs (pushing completions + writing the wakeup fd)
  // race gateway.stop() tearing the loop down. Repeat the whole lifecycle
  // so TSan sees many interleavings; correctness = no lost job accounting
  // and no touch-after-free (TSan/ASan would flag it).
  for (int round = 0; round < 15; ++round) {
    Gateway gateway;
    gateway.add_route("/work",
                      [](const Gateway::Request& req) -> http::Response {
                        std::this_thread::sleep_for(
                            std::chrono::microseconds(200));
                        return {200, "text/plain; charset=utf-8",
                                req.query.empty() ? "ok\n" : req.query + "\n"};
                      });
    ASSERT_TRUE(gateway.start());

    std::atomic<bool> stop_clients{false};
    std::vector<std::thread> clients;
    for (int c = 0; c < 3; ++c) {
      clients.emplace_back([&, c] {
        const int fd = loopback::connect_loopback(gateway.port());
        if (fd < 0) return;
        for (int i = 0; !stop_clients.load(std::memory_order_acquire); ++i) {
          if (!loopback::send_all(fd, "GET /work?q=" + std::to_string(c) +
                                          " HTTP/1.1\r\n\r\n")) {
            break;
          }
          const loopback::Reply reply = loopback::read_response(fd);
          if (!reply.complete) break;  // gateway stopped under us — expected
        }
        ::close(fd);
      });
    }
    // Let traffic build, then yank the loop out from under the workers.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    gateway.stop();
    EXPECT_EQ(gateway.jobs_inflight(), 0u);
    stop_clients.store(true, std::memory_order_release);
    for (auto& t : clients) t.join();
  }
}

TEST(GatewayStress, MultiLoopCompletionsRacingStop) {
  // The multi-reactor variant of the shutdown race: M client threads spread
  // over N SO_REUSEPORT loops, workers pushing completions to per-loop
  // queues while stop() tears all the loops down.
  // Correctness = zero jobs left in flight on any loop and no
  // touch-after-free across the per-reactor teardown (TSan would flag it).
  for (int round = 0; round < 10; ++round) {
    Gateway::Options options;
    options.loops = 3;
    Gateway gateway{options};
    gateway.add_route("/work",
                      [](const Gateway::Request& req) -> http::Response {
                        std::this_thread::sleep_for(
                            std::chrono::microseconds(200));
                        return {200, "text/plain; charset=utf-8",
                                req.query.empty() ? "ok\n" : req.query + "\n"};
                      });
    ASSERT_TRUE(gateway.start());
    ASSERT_EQ(gateway.loops(), 3u);

    std::atomic<bool> stop_clients{false};
    std::vector<std::thread> clients;
    for (int c = 0; c < 6; ++c) {
      clients.emplace_back([&, c] {
        const int fd = loopback::connect_loopback(gateway.port());
        if (fd < 0) return;
        for (int i = 0; !stop_clients.load(std::memory_order_acquire); ++i) {
          if (!loopback::send_all(fd, "GET /work?q=" + std::to_string(c) +
                                          " HTTP/1.1\r\n\r\n")) {
            break;
          }
          const loopback::Reply reply = loopback::read_response(fd);
          if (!reply.complete) break;  // gateway stopped under us — expected
        }
        ::close(fd);
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    gateway.stop();
    EXPECT_EQ(gateway.jobs_inflight(), 0u);
    for (std::size_t loop = 0; loop < 3; ++loop) {
      EXPECT_EQ(gateway.jobs_inflight(loop), 0u);
    }
    stop_clients.store(true, std::memory_order_release);
    for (auto& t : clients) t.join();
  }
}

TEST(GatewayStress, PlacementFlipsUnderLoadWhileStopRaces) {
  // The route's runs come in phases: a streak of short runs long enough to
  // move it onto the loops, then one run over budget that sends it back to
  // the pool. M clients pipeline two requests at a time over 2 loops, so a
  // connection's pipeline holds pool-run and loop-run requests at once,
  // and stop() lands while completions are still in flight. Every response
  // a client reads must be its own, in request order, and no job may be
  // left in flight.
  constexpr int kClients = 4;
  constexpr std::uint64_t kPhase = Gateway::kInlineStreak + 8;
  std::uint64_t inline_runs = 0;
  for (int round = 0; round < 6; ++round) {
    Gateway::Options options;
    options.loops = 2;
    options.conn.max_pipeline = 4;
    Gateway gateway{options};
    std::atomic<std::uint64_t> runs{0};
    gateway.add_route(
        "/phase", [&runs](const Gateway::Request& req) -> http::Response {
          if (runs.fetch_add(1, std::memory_order_relaxed) % kPhase == 0) {
            const auto until = std::chrono::steady_clock::now() +
                               std::chrono::microseconds(20);
            while (std::chrono::steady_clock::now() < until) {
            }
          }
          return {200, "text/plain; charset=utf-8", req.query + "\n"};
        });
    const std::uint64_t inline_before = inline_requests_total();
    ASSERT_TRUE(gateway.start());

    std::atomic<bool> stop_clients{false};
    std::atomic<int> wrong{0};
    std::atomic<int> answered{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        const int fd = loopback::connect_loopback(gateway.port());
        if (fd < 0) return;
        const auto target = [c](int i) {
          return "c=" + std::to_string(c) + "&i=" + std::to_string(i);
        };
        for (int i = 0; !stop_clients.load(std::memory_order_acquire);
             i += 2) {
          if (!loopback::send_all(fd, "GET /phase?" + target(i) +
                                          " HTTP/1.1\r\n\r\nGET /phase?" +
                                          target(i + 1) +
                                          " HTTP/1.1\r\n\r\n")) {
            break;
          }
          bool complete = true;
          for (int k = 0; k < 2 && complete; ++k) {
            const loopback::Reply reply = loopback::read_response(fd);
            complete = reply.complete;  // false: the gateway stopped
            if (!complete) break;
            if (reply.status != 200 || reply.body != target(i + k) + "\n") {
              wrong.fetch_add(1, std::memory_order_relaxed);
            }
            answered.fetch_add(1, std::memory_order_relaxed);
          }
          if (!complete) break;
        }
        ::close(fd);
      });
    }
    // Stop once the route has run on the loops at least once (a sanitizer
    // build takes longer to string 32 short runs together), while pool
    // jobs are still in flight.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    do {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    } while (inline_requests_total() == inline_before &&
             std::chrono::steady_clock::now() < deadline);
    gateway.stop();
    EXPECT_EQ(gateway.jobs_inflight(), 0u);
    for (std::size_t loop = 0; loop < 2; ++loop) {
      EXPECT_EQ(gateway.jobs_inflight(loop), 0u);
    }
    stop_clients.store(true, std::memory_order_release);
    for (auto& t : clients) t.join();
    EXPECT_EQ(wrong.load(), 0);
    EXPECT_GT(answered.load(), 0);
    inline_runs += inline_requests_total() - inline_before;
  }
  // The phases did move the route onto the loops.
  EXPECT_GT(inline_runs, 0u);
}

}  // namespace
}  // namespace redundancy::net
