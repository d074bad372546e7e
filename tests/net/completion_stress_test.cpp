// TSan stress for the gateway's cross-thread hand-back machinery: the
// MPSC CompletionQueue under producer herds, the wakeup-fd path, and
// engine completions racing loop shutdown. Run under
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

namespace redundancy::net {
namespace {

struct Item : CompletionNode {
  int producer = 0;
  int seq = 0;
};

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

}  // namespace
}  // namespace redundancy::net
