// Injector stress tests, meant for -DREDUNDANCY_SANITIZE=thread builds
// (ctest -L stress). Companion to thread_pool_stress_test.cpp (deque +
// park/unpark churn) and chase_lev_stress_test.cpp (raw deque races):
// these drive the external-submission path specifically — many outside
// submitters on the one injector, workers draining amortized shares,
// external helpers racing the drain, and the one-wake-up batch protocol
// under constant park/unpark pressure.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace redundancy::util {
namespace {

TEST(InjectorStress, ManySubmittersManyLanesEveryTaskRunsOnce) {
  // Eight outside submitters contend on the one injector lock. "ManyLanes"
  // predates the single injector and is kept so the test ID stays stable.
  constexpr std::size_t kSubmitters = 8;
  constexpr std::size_t kRounds = 60;
  constexpr std::size_t kBatch = 16;
  ThreadPool pool{4};
  std::atomic<std::size_t> executed{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (std::size_t s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&pool, &executed] {
      for (std::size_t r = 0; r < kRounds; ++r) {
        // Alternate singles and batches so both enqueue shapes race the
        // draining workers.
        if (r % 2 == 0) {
          for (std::size_t i = 0; i < kBatch; ++i) {
            pool.post(ThreadPool::Task{
                [&executed] { executed.fetch_add(1, std::memory_order_relaxed); }});
          }
        } else {
          std::vector<ThreadPool::Task> batch;
          batch.reserve(kBatch);
          for (std::size_t i = 0; i < kBatch; ++i) {
            batch.emplace_back(
                [&executed] { executed.fetch_add(1, std::memory_order_relaxed); });
          }
          pool.submit_batch(batch);
        }
      }
    });
  }
  for (auto& t : submitters) t.join();
  pool.wait_idle();
  EXPECT_EQ(executed.load(), kSubmitters * kRounds * kBatch);
}

TEST(InjectorStress, ExternalHelpersRaceWorkersOnLaneDrain) {
  // External try_run_one drains the injector head while pool workers drain
  // amortized shares of the same chain — the claim bookkeeping must never
  // lose or double-run a task.
  constexpr std::size_t kTasks = 4000;
  ThreadPool pool{2};
  std::atomic<std::size_t> executed{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> helpers;
  for (std::size_t h = 0; h < 3; ++h) {
    helpers.emplace_back([&pool, &stop] {
      while (!stop.load(std::memory_order_acquire)) {
        if (!pool.try_run_one()) std::this_thread::yield();
      }
    });
  }
  std::thread submitter{[&pool, &executed] {
    for (std::size_t i = 0; i < kTasks; ++i) {
      pool.post(ThreadPool::Task{
          [&executed] { executed.fetch_add(1, std::memory_order_relaxed); }});
    }
  }};
  submitter.join();
  pool.wait_idle();
  stop.store(true, std::memory_order_release);
  for (auto& t : helpers) t.join();
  EXPECT_EQ(executed.load(), kTasks);
}

TEST(InjectorStress, ParkUnparkChurnWithBurstySubmission) {
  // Bursts separated by quiet gaps force the workers through the full
  // park/recheck/wake cycle over and over; the Dekker handshake must not
  // strand a burst in the injector while every worker sleeps.
  ThreadPool pool{3};
  std::atomic<std::size_t> executed{0};
  for (std::size_t burst = 0; burst < 40; ++burst) {
    std::vector<ThreadPool::Task> batch;
    for (std::size_t i = 0; i < 24; ++i) {
      batch.emplace_back(
          [&executed] { executed.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.submit_batch(batch);
    pool.wait_idle();  // quiet gap: every worker parks again
    EXPECT_EQ(executed.load(), (burst + 1) * 24);
  }
}

TEST(InjectorStress, DestructionRacesInFlightExternalWork) {
  // Pools torn down while submitters are still finishing must drain every
  // accepted task before joining (workers only exit at pending_ == 0).
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::size_t> executed{0};
    std::thread submitter;
    {
      ThreadPool pool{2};
      submitter = std::thread{[&pool, &executed] {
        for (int i = 0; i < 200; ++i) {
          pool.post(ThreadPool::Task{
              [&executed] { executed.fetch_add(1, std::memory_order_relaxed); }});
        }
      }};
      submitter.join();  // all tasks accepted before ~ThreadPool
    }
    EXPECT_EQ(executed.load(), 200u);
  }
}

TEST(InjectorStress, SingleLaneShapeStillCorrectUnderContention) {
  // Eight submitters posting singles against two workers: the most
  // contended shape of the one injector lock must stay correct, not just
  // slow.
  constexpr std::size_t kSubmitters = 8;
  constexpr std::size_t kPer = 300;
  ThreadPool pool{2};
  std::atomic<std::size_t> executed{0};
  std::vector<std::thread> submitters;
  for (std::size_t s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&pool, &executed] {
      for (std::size_t i = 0; i < kPer; ++i) {
        pool.post(ThreadPool::Task{
            [&executed] { executed.fetch_add(1, std::memory_order_relaxed); }});
      }
    });
  }
  for (auto& t : submitters) t.join();
  pool.wait_idle();
  EXPECT_EQ(executed.load(), kSubmitters * kPer);
}

}  // namespace
}  // namespace redundancy::util
