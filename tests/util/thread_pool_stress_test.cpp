// Stress tests for the work-stealing engine, meant to be run under
// ThreadSanitizer (cmake -DREDUNDANCY_SANITIZE=thread). They hammer the
// hand-off edges — stealing, first-wins cancellation, straggler accounting,
// nested fan-out — with short tasks so the schedule varies between runs,
// while staying fast enough for a single-core CI box. ctest label: stress.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <thread>
#include <vector>

#include "core/parallel_evaluation.hpp"
#include "core/parallel_selection.hpp"
#include "faults/campaign.hpp"
#include "util/thread_pool.hpp"

namespace redundancy {
namespace {

TEST(PoolStress, ConcurrentSubmittersAndStealers) {
  util::ThreadPool pool{4};
  std::atomic<std::int64_t> sum{0};
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2'000;
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&pool, &sum, t] {
      for (int i = 0; i < kPerThread; ++i) {
        pool.post(util::ThreadPool::Task{[&sum, t, i] {
          sum.fetch_add(static_cast<std::int64_t>(t) * kPerThread + i);
        }});
      }
    });
  }
  for (auto& s : submitters) s.join();
  pool.wait_idle();
  constexpr std::int64_t kTotal =
      static_cast<std::int64_t>(kThreads) * kPerThread;
  EXPECT_EQ(sum.load(), kTotal * (kTotal - 1) / 2);
}

TEST(PoolStress, NestedFanOutUnderLoad) {
  util::ThreadPool pool{3};
  std::atomic<int> leaves{0};
  std::vector<util::ThreadPool::Task> outer;
  for (int i = 0; i < 32; ++i) {
    outer.emplace_back([&pool, &leaves] {
      std::vector<util::ThreadPool::Task> inner;
      for (int j = 0; j < 4; ++j) {
        inner.emplace_back([&leaves] { leaves.fetch_add(1); });
      }
      pool.run_all(std::move(inner));
    });
  }
  pool.run_all(std::move(outer));
  EXPECT_EQ(leaves.load(), 128);
}

TEST(PoolStress, IncrementalEvaluationWithRacingStragglers) {
  auto jitter = [](std::size_t i) {
    return core::make_variant<int, int>(
        "v" + std::to_string(i), [i](const int& x) -> core::Result<int> {
          if (i % 2 == 1) std::this_thread::sleep_for(std::chrono::microseconds(200));
          return x + 1;
        });
  };
  std::vector<core::Variant<int, int>> vs;
  for (std::size_t i = 0; i < 5; ++i) vs.push_back(jitter(i));
  core::ParallelEvaluation<int, int> pe{std::move(vs),
                                        core::majority_voter<int>(),
                                        core::Concurrency::threaded,
                                        core::Adjudication::incremental};
  for (int i = 0; i < 300; ++i) {
    auto out = pe.run(i);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out.value(), i + 1);
  }
  util::ThreadPool::shared().wait_idle();
  // The early verdict needs a strict majority (3 of 5); variants the
  // cancellation token reached before they started never execute.
  (void)pe.metrics();  // folds the last round's straggler accounting
  EXPECT_GE(pe.metrics().variant_executions, 3u * 300u);
  EXPECT_LE(pe.metrics().variant_executions, 5u * 300u);
}

TEST(PoolStress, ThreadedSelectionChurn) {
  using PS = core::ParallelSelection<int, int>;
  auto comp = [](std::size_t i) {
    return PS::Checked{
        core::make_variant<int, int>(
            "c" + std::to_string(i),
            [i](const int& x) -> core::Result<int> {
              if (i == 0) return core::failure(core::FailureKind::crash);
              return x * 2;
            }),
        core::accept_all<int, int>()};
  };
  PS ps{{comp(0), comp(1), comp(2)},
        PS::Options{.disable_on_failure = false,
                    .lazy = true,
                    .concurrency = core::Concurrency::threaded}};
  for (int i = 0; i < 300; ++i) {
    auto out = ps.run(i);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out.value(), i * 2);
  }
  util::ThreadPool::shared().wait_idle();
}

TEST(PoolStress, ParallelCampaignsBackToBack) {
  const std::function<int(std::size_t, util::Rng&)> workload =
      [](std::size_t, util::Rng& rng) {
        return static_cast<int>(rng.below(1'000));
      };
  const std::function<int(const int&)> oracle = [](const int& x) {
    return x * 2;
  };
  for (int round = 0; round < 10; ++round) {
    auto report = faults::run_campaign_parallel<int, int>(
        "stress", 500, workload,
        []() -> std::function<core::Result<int>(const int&)> {
          return [](const int& x) -> core::Result<int> { return x * 2; };
        },
        oracle, static_cast<std::uint64_t>(round + 1), 8);
    EXPECT_EQ(report.requests, 500u);
    EXPECT_EQ(report.correct, 500u);
  }
}

}  // namespace
}  // namespace redundancy
