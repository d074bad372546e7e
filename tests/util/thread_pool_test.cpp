#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>

#include "util/unique_function.hpp"

namespace redundancy::util {
namespace {

TEST(ThreadPool, SubmitReturnsResults) {
  ThreadPool pool{4};
  auto f1 = pool.submit([] { return 21 * 2; });
  auto f2 = pool.submit([] { return std::string{"ok"}; });
  EXPECT_EQ(f1.get(), 42);
  EXPECT_EQ(f2.get(), "ok");
}

TEST(ThreadPool, RunAllExecutesEveryTask) {
  ThreadPool pool{4};
  std::atomic<int> counter{0};
  std::vector<ThreadPool::Task> tasks;
  for (int i = 0; i < 100; ++i) {
    tasks.emplace_back([&counter] { counter.fetch_add(1); });
  }
  pool.run_all(std::move(tasks));
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, RunAllOnEmptyIsNoop) {
  ThreadPool pool{2};
  EXPECT_NO_THROW(pool.run_all(std::vector<ThreadPool::Task>{}));
  EXPECT_NO_THROW(pool.run_all(std::span<ThreadPool::Task>{}));
}

TEST(ThreadPool, ManySubmissionsAllComplete) {
  ThreadPool pool{3};
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 500; ++i) {
    futures.push_back(pool.submit([i] { return i; }));
  }
  long long sum = 0;
  for (auto& f : futures) sum += f.get();
  EXPECT_EQ(sum, 499LL * 500 / 2);
}

TEST(ThreadPool, SharedPoolIsUsable) {
  auto f = ThreadPool::shared().submit([] { return 7; });
  EXPECT_EQ(f.get(), 7);
  EXPECT_GE(ThreadPool::shared().size(), 2u);
}

TEST(ThreadPool, SubmitMoveOnlyCallable) {
  ThreadPool pool{2};
  auto payload = std::make_unique<int>(99);
  auto f = pool.submit([p = std::move(payload)] { return *p; });
  EXPECT_EQ(f.get(), 99);
}

TEST(ThreadPool, NestedFanOutDoesNotDeadlock) {
  // Every worker blocks in a nested run_all; the help-while-waiting path
  // must execute the inner tasks or this test hangs.
  ThreadPool pool{2};
  std::atomic<int> inner{0};
  std::vector<ThreadPool::Task> outer;
  for (int i = 0; i < 4; ++i) {
    outer.emplace_back([&pool, &inner] {
      std::vector<ThreadPool::Task> tasks;
      for (int j = 0; j < 8; ++j) {
        tasks.emplace_back([&inner] { inner.fetch_add(1); });
      }
      pool.run_all(std::move(tasks));
    });
  }
  pool.run_all(std::move(outer));
  EXPECT_EQ(inner.load(), 32);
}

TEST(ThreadPool, RunAllForwardsFirstException) {
  ThreadPool pool{2};
  std::atomic<int> completed{0};
  std::vector<ThreadPool::Task> tasks;
  tasks.emplace_back([] { throw std::runtime_error{"boom"}; });
  for (int i = 0; i < 5; ++i) {
    tasks.emplace_back([&completed] { completed.fetch_add(1); });
  }
  EXPECT_THROW(pool.run_all(std::move(tasks), ThreadPool::ExceptionPolicy::forward),
               std::runtime_error);
  EXPECT_EQ(completed.load(), 5);  // the throw does not abort the batch
}

TEST(ThreadPool, RunAllSwallowPolicyIgnoresExceptions) {
  ThreadPool pool{2};
  std::vector<ThreadPool::Task> tasks;
  tasks.emplace_back([] { throw std::runtime_error{"boom"}; });
  EXPECT_NO_THROW(pool.run_all(std::move(tasks)));
}

TEST(ThreadPool, WaitIdleDrainsStragglers) {
  ThreadPool pool{2};
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) {
    pool.post(ThreadPool::Task{[&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      done.fetch_add(1);
    }});
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 8);
  EXPECT_EQ(pool.pending(), 0u);
}

TEST(ThreadPool, SharedSizeHonoursEnvVariable) {
  ::setenv("REDUNDANCY_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::shared_size_from_env(), 3u);
  ::setenv("REDUNDANCY_THREADS", "0", 1);  // invalid: fall back
  EXPECT_GE(ThreadPool::shared_size_from_env(), 8u);
  ::setenv("REDUNDANCY_THREADS", "12abc", 1);  // trailing junk: fall back
  EXPECT_GE(ThreadPool::shared_size_from_env(), 8u);
  ::setenv("REDUNDANCY_THREADS", "99999", 1);  // absurd: fall back
  EXPECT_GE(ThreadPool::shared_size_from_env(), 8u);
  ::unsetenv("REDUNDANCY_THREADS");
  EXPECT_GE(ThreadPool::shared_size_from_env(), 8u);
}

TEST(ThreadPool, SharedSizeStrictParseRejectsSignAndWhitespace) {
  // The parser is digits-only: forms strtoul would have accepted silently
  // must now fall back loudly.
  ::setenv("REDUNDANCY_THREADS", "+3", 1);
  EXPECT_GE(ThreadPool::shared_size_from_env(), 8u);
  ::setenv("REDUNDANCY_THREADS", " 3", 1);
  EXPECT_GE(ThreadPool::shared_size_from_env(), 8u);
  ::setenv("REDUNDANCY_THREADS", "3 ", 1);
  EXPECT_GE(ThreadPool::shared_size_from_env(), 8u);
  ::setenv("REDUNDANCY_THREADS", "0x4", 1);
  EXPECT_GE(ThreadPool::shared_size_from_env(), 8u);
  ::setenv("REDUNDANCY_THREADS", "-2", 1);
  EXPECT_GE(ThreadPool::shared_size_from_env(), 8u);
  ::setenv("REDUNDANCY_THREADS", "", 1);
  EXPECT_GE(ThreadPool::shared_size_from_env(), 8u);
  // Boundary values of the accepted range.
  ::setenv("REDUNDANCY_THREADS", "1", 1);
  EXPECT_EQ(ThreadPool::shared_size_from_env(), 1u);
  ::setenv("REDUNDANCY_THREADS", "1024", 1);
  EXPECT_EQ(ThreadPool::shared_size_from_env(), 1024u);
  ::setenv("REDUNDANCY_THREADS", "1025", 1);
  EXPECT_GE(ThreadPool::shared_size_from_env(), 8u);
  ::unsetenv("REDUNDANCY_THREADS");
}

TEST(ThreadPool, SubmitBatchRunsEveryTask) {
  ThreadPool pool{3};
  std::atomic<int> counter{0};
  std::vector<ThreadPool::Task> tasks;
  for (int i = 0; i < 256; ++i) {
    tasks.emplace_back([&counter] { counter.fetch_add(1); });
  }
  pool.submit_batch(tasks);
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 256);
}

TEST(ThreadPool, SubmitBatchFromWorkerThreadIsStealable) {
  // A batch posted from inside a worker lands in that worker's own deque;
  // the other workers must still be able to steal and finish it.
  ThreadPool pool{3};
  std::atomic<int> counter{0};
  auto f = pool.submit([&pool, &counter] {
    std::vector<ThreadPool::Task> tasks;
    for (int i = 0; i < 64; ++i) {
      tasks.emplace_back([&counter] { counter.fetch_add(1); });
    }
    pool.submit_batch(tasks);
    return 1;
  });
  EXPECT_EQ(f.get(), 1);
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPool, SubmitBatchEmptyIsNoop) {
  ThreadPool pool{2};
  std::vector<ThreadPool::Task> none;
  EXPECT_NO_THROW(pool.submit_batch(none));
  EXPECT_TRUE(pool.idle());
}

TEST(ThreadPool, IdleReflectsQuiescence) {
  ThreadPool pool{2};
  pool.wait_idle();
  EXPECT_TRUE(pool.idle());
  std::atomic<bool> release{false};
  std::atomic<bool> entered{false};
  pool.post(ThreadPool::Task{[&] {
    entered.store(true);
    while (!release.load()) std::this_thread::yield();
  }});
  while (!entered.load()) std::this_thread::yield();
  EXPECT_FALSE(pool.idle());  // a task is running: active_ > 0
  release.store(true);
  pool.wait_idle();
  EXPECT_TRUE(pool.idle());
}

// The ShardedInjector suite keeps the name it had when the injector was
// split into lanes, so the test IDs stay stable; it now covers the pool's
// one injector.
TEST(ShardedInjector, ExternalDrainObservesLaneFifo) {
  // One worker, wedged on a blocking task: every external submission lands
  // in the injector, and external try_run_one claims exactly its head — so
  // this thread must observe strict submission order.
  ThreadPool pool{1};
  std::atomic<bool> release{false};
  std::atomic<bool> entered{false};
  pool.post(ThreadPool::Task{[&] {
    entered.store(true);
    while (!release.load()) std::this_thread::yield();
  }});
  while (!entered.load()) std::this_thread::yield();

  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    pool.post(ThreadPool::Task{[&order, i] { order.push_back(i); }});
  }
  while (pool.try_run_one()) {
  }
  release.store(true);
  pool.wait_idle();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i)
        << "injector FIFO violated";
  }
}

TEST(ShardedInjector, CrossThreadSubmissionsAllExecuteExactlyOnce) {
  constexpr std::size_t kSubmitters = 6;
  constexpr std::size_t kPerSubmitter = 200;
  ThreadPool pool{3};
  std::array<std::array<std::atomic<int>, kPerSubmitter>, kSubmitters> runs{};
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (std::size_t s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&pool, &runs, s] {
      for (std::size_t i = 0; i < kPerSubmitter; ++i) {
        pool.post(ThreadPool::Task{[&runs, s, i] {
          runs[s][i].fetch_add(1, std::memory_order_relaxed);
        }});
      }
    });
  }
  for (auto& t : submitters) t.join();
  pool.wait_idle();
  for (std::size_t s = 0; s < kSubmitters; ++s) {
    for (std::size_t i = 0; i < kPerSubmitter; ++i) {
      EXPECT_EQ(runs[s][i].load(), 1)
          << "task (" << s << ", " << i << ") ran a wrong number of times";
    }
  }
}

TEST(ShardedInjector, IdleSeesWorkParkedInLanes) {
  // Submissions sitting in the injector (not yet in any deque) must keep
  // idle() false: pending_ counts them from the moment of submission.
  ThreadPool pool{1};
  std::atomic<bool> release{false};
  std::atomic<bool> entered{false};
  pool.post(ThreadPool::Task{[&] {
    entered.store(true);
    while (!release.load()) std::this_thread::yield();
  }});
  while (!entered.load()) std::this_thread::yield();
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) {
    pool.post(ThreadPool::Task{[&done] { done.fetch_add(1); }});
  }
  EXPECT_FALSE(pool.idle()) << "injector backlog must count as pending";
  EXPECT_GE(pool.pending(), 8u);
  release.store(true);
  pool.wait_idle();
  EXPECT_TRUE(pool.idle());
  EXPECT_EQ(done.load(), 8);
}

TEST(ShardedInjector, BatchStaysWholeWithinOneLane) {
  // A batch submitted from outside chains into the injector as one run;
  // with the lone worker wedged, an external drain must replay the batch
  // contiguously and in order.
  ThreadPool pool{1};
  std::atomic<bool> release{false};
  std::atomic<bool> entered{false};
  pool.post(ThreadPool::Task{[&] {
    entered.store(true);
    while (!release.load()) std::this_thread::yield();
  }});
  while (!entered.load()) std::this_thread::yield();
  std::vector<int> order;
  std::vector<ThreadPool::Task> batch;
  for (int i = 0; i < 12; ++i) {
    batch.emplace_back([&order, i] { order.push_back(i); });
  }
  pool.submit_batch(batch);
  while (pool.try_run_one()) {
  }
  release.store(true);
  pool.wait_idle();
  ASSERT_EQ(order.size(), 12u);
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(BatchRunner, DispatchRunsEverythingAdded) {
  ThreadPool pool{2};
  BatchRunner runner{&pool};
  EXPECT_TRUE(runner.empty());
  std::atomic<int> counter{0};
  for (int i = 0; i < 32; ++i) {
    runner.add([&counter] { counter.fetch_add(1); });
  }
  EXPECT_EQ(runner.size(), 32u);
  runner.dispatch();
  EXPECT_TRUE(runner.empty());  // drained, capacity retained
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 32);
}

TEST(BatchRunner, RunAndWaitIsABarrierAndReusable) {
  ThreadPool pool{3};
  BatchRunner runner{&pool};
  std::atomic<int> counter{0};
  for (int epoch = 0; epoch < 5; ++epoch) {
    for (int i = 0; i < 16; ++i) {
      runner.add([&counter] { counter.fetch_add(1); });
    }
    runner.run_and_wait();
    // Barrier semantics: all of this epoch's tasks completed before return.
    EXPECT_EQ(counter.load(), (epoch + 1) * 16);
    EXPECT_TRUE(runner.empty());
  }
}

TEST(BatchRunner, RunAndWaitForwardsFirstException) {
  ThreadPool pool{2};
  BatchRunner runner{&pool};
  std::atomic<int> survived{0};
  runner.add([] { throw std::runtime_error{"batch boom"}; });
  for (int i = 0; i < 4; ++i) {
    runner.add([&survived] { survived.fetch_add(1); });
  }
  EXPECT_THROW(runner.run_and_wait(ThreadPool::ExceptionPolicy::forward),
               std::runtime_error);
  EXPECT_EQ(survived.load(), 4);  // the throw does not abort the batch
  EXPECT_TRUE(runner.empty());

  // The runner is reusable after the throw: the next epoch runs only its
  // own task, once.
  std::atomic<int> counter{0};
  runner.add([&counter] { counter.fetch_add(100); });
  EXPECT_NO_THROW(runner.run_and_wait(ThreadPool::ExceptionPolicy::forward));
  EXPECT_EQ(counter.load(), 100);
  EXPECT_EQ(survived.load(), 4);
}

TEST(BatchRunner, DefaultsToTheSharedPool) {
  BatchRunner runner;
  std::atomic<int> counter{0};
  runner.add([&counter] { counter.fetch_add(1); });
  runner.run_and_wait();
  EXPECT_EQ(counter.load(), 1);
  EXPECT_EQ(&runner.pool(), &ThreadPool::shared());
}

TEST(CancellationToken, CopiesShareTheFlag) {
  CancellationToken a;
  CancellationToken b = a;
  EXPECT_FALSE(b.cancelled());
  a.cancel();
  EXPECT_TRUE(b.cancelled());
}

TEST(UniqueFunction, InvokesSmallAndLargeCallables) {
  UniqueFunction<int()> small{[] { return 5; }};
  EXPECT_EQ(small(), 5);

  // Large capture forces the heap path.
  std::array<int, 64> big{};
  big[63] = 9;
  UniqueFunction<int()> large{[big] { return big[63]; }};
  EXPECT_EQ(large(), 9);

  UniqueFunction<int()> moved = std::move(large);
  EXPECT_EQ(moved(), 9);
}

TEST(UniqueFunction, HoldsMoveOnlyCapture) {
  auto p = std::make_unique<int>(3);
  UniqueFunction<int()> f{[p = std::move(p)] { return *p; }};
  UniqueFunction<int()> g = std::move(f);
  EXPECT_EQ(g(), 3);
}

}  // namespace
}  // namespace redundancy::util
