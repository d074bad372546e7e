// RedundancyCache stress — meant for -DREDUNDANCY_SANITIZE=thread builds
// (ctest -L stress). Hammers the single-flight latch from many threads with
// overlapping keys, concurrent cancellations, and epoch invalidations racing
// live flights: the properties under test are "no waiter is ever lost" (every
// get_or_run returns) and "no data race on the flight latch or the shards".
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/redundancy_cache.hpp"
#include "util/thread_pool.hpp"

namespace redundancy::core {
namespace {

TEST(CacheStress, CoalescingChurnWithCancellationsAndInvalidation) {
  CacheConfig cfg;
  cfg.capacity = 32;  // small: admission duels and evictions under load
  cfg.shards = 4;
  cfg.label = "stress_churn";
  RedundancyCache<std::uint64_t> cache{cfg};

  constexpr int kThreads = 8;
  constexpr int kIterations = 400;
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> leader_runs{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads + 1);

  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        // 16 keys across 8 threads: heavy same-key overlap, so flights
        // constantly pick up waiters.
        const std::uint64_t key = static_cast<std::uint64_t>((t + i) % 16);
        util::CancellationToken token;
        if (i % 5 == t % 5) token.cancel();  // some waiters arrive dead
        auto r = cache.get_or_run(key, token, [&]() -> Result<std::uint64_t> {
          leader_runs.fetch_add(1, std::memory_order_relaxed);
          if (key % 7 == 3) {
            return failure(FailureKind::timeout, "transient");
          }
          return key * 3;
        });
        if (r.has_value()) {
          EXPECT_EQ(r.value(), key * 3);
        }
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // One thread strands entries while flights are live.
  std::atomic<bool> stop{false};
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_acquire)) {
      cache.invalidate_all();
      advance_cache_epoch();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  for (int t = 0; t < kThreads; ++t) threads[t].join();
  stop.store(true, std::memory_order_release);
  threads.back().join();

  EXPECT_EQ(completed.load(), kThreads * kIterations);  // nobody lost
  EXPECT_GT(leader_runs.load(), 0u);
  const auto s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, kThreads * kIterations);
}

TEST(CacheStress, CancellationStormWakesEveryParkedWaiter) {
  CacheConfig cfg;
  cfg.label = "stress_cancel";
  RedundancyCache<int> cache{cfg};

  for (int round = 0; round < 20; ++round) {
    std::atomic<bool> leader_in{false};
    std::atomic<bool> release{false};
    std::thread leader([&] {
      (void)cache.get_or_run(round, [&]() -> Result<int> {
        leader_in.store(true, std::memory_order_release);
        while (!release.load(std::memory_order_acquire)) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        return round;
      });
    });
    while (!leader_in.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }

    // Park a crowd on the flight, then cancel them all at once while the
    // leader is still running.
    constexpr int kWaiters = 6;
    util::CancellationToken token;
    std::atomic<int> cancelled_returns{0};
    std::vector<std::thread> waiters;
    waiters.reserve(kWaiters);
    for (int w = 0; w < kWaiters; ++w) {
      waiters.emplace_back([&] {
        auto r = cache.get_or_run(round, token, [&]() -> Result<int> {
          ADD_FAILURE() << "waiter must never become a second leader";
          return -1;
        });
        if (!r.has_value() &&
            r.error().kind == FailureKind::unavailable) {
          cancelled_returns.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    token.cancel();
    for (auto& w : waiters) w.join();  // every waiter must wake and leave
    EXPECT_EQ(cancelled_returns.load(), kWaiters);

    release.store(true, std::memory_order_release);
    leader.join();
    // The abandoned flight still settled into the cache.
    auto hit = cache.lookup(round);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->value(), round);
  }
}

TEST(CacheStress, PatternPoolWorkersCanWaitOnFlights) {
  // Waiters park through ThreadPool::help_until, so pool workers that miss
  // behind a leader keep helping with queued tasks instead of deadlocking.
  CacheConfig cfg;
  cfg.label = "stress_pool_wait";
  RedundancyCache<int> cache{cfg};
  auto& pool = util::ThreadPool::shared();

  constexpr int kTasks = 64;
  std::vector<util::ThreadPool::Task> tasks;
  tasks.reserve(kTasks);
  std::atomic<int> ok{0};
  for (int i = 0; i < kTasks; ++i) {
    tasks.push_back(util::ThreadPool::Task{[&cache, &ok, i] {
      const int key = i % 4;
      auto r = cache.get_or_run(key, [&]() -> Result<int> {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        return key + 1;
      });
      if (r.has_value() && r.value() == key + 1) {
        ok.fetch_add(1, std::memory_order_relaxed);
      }
    }});
  }
  pool.run_all(std::move(tasks));
  EXPECT_EQ(ok.load(), kTasks);
}

}  // namespace
}  // namespace redundancy::core
