// Stress tests for the work-stealing engine, meant to be run under
// ThreadSanitizer (cmake -DREDUNDANCY_SANITIZE=thread). They hammer the
// hand-off edges — stealing, first-wins cancellation, straggler accounting,
// nested fan-out — with short tasks so the schedule varies between runs,
// while staying fast enough for a single-core CI box. ctest label: stress.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/parallel_evaluation.hpp"
#include "core/parallel_selection.hpp"
#include "faults/campaign.hpp"
#include "obs/clock.hpp"
#include "util/placement.hpp"
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

TEST(PoolStress, JoinAllElectoratesFlipBetweenInlineAndPool) {
  // Each requester drives its own threaded join-all engine through periods
  // of light calls (which earn the requester) ending in two calls whose
  // legs spin past the budget (which send the next call back to the pool),
  // so every electorate flips placement while the others fan out. Leg b is
  // wrong on multiples of 7 and leg c crashes on multiples of 11: calls on
  // multiples of 77 go unrecovered, and the other crashes are recoveries.
  constexpr int kRequesters = 4;
  constexpr int kPeriod = static_cast<int>(util::Placement::kInlineStreak) + 8;
  constexpr int kCalls = 8 * kPeriod;
  auto leg = [](std::string name, int wrong_mod, int crash_mod) {
    return core::make_variant<int, int>(
        std::move(name),
        [wrong_mod, crash_mod](const int& x) -> core::Result<int> {
          if (x % kPeriod >= kPeriod - 2) {
            const std::uint64_t t0 = obs::now_ns();
            while (obs::now_ns() - t0 < util::Placement::kInlineBudgetNs) {
            }
          }
          if (crash_mod != 0 && x % crash_mod == 0) {
            return core::failure(core::FailureKind::crash);
          }
          return x * 2 + (wrong_mod != 0 && x % wrong_mod == 0 ? 1 : 0);
        });
  };
  std::atomic<int> inline_calls{0};
  std::atomic<int> pooled_calls{0};
  std::vector<std::thread> requesters;
  for (int t = 0; t < kRequesters; ++t) {
    requesters.emplace_back([&] {
      core::ParallelEvaluation<int, int> pe{
          {leg("a", 0, 0), leg("b", 7, 0), leg("c", 0, 11)},
          core::majority_voter<int>(), core::Concurrency::threaded};
      core::Metrics expected;
      for (int x = 0; x < kCalls; ++x) {
        const std::uint64_t queued0 =
            util::ThreadPool::submitted_by_this_thread();
        const core::Result<int> out = pe.run(x);
        const bool pooled =
            util::ThreadPool::submitted_by_this_thread() != queued0;
        (pooled ? pooled_calls : inline_calls).fetch_add(1);
        const bool wrong = x % 7 == 0;
        const bool crashed = x % 11 == 0;
        ++expected.requests;
        ++expected.adjudications;
        expected.variant_executions += 3;
        expected.cost_units += 3.0;
        if (crashed) ++expected.variant_failures;
        if (wrong && crashed) {
          ++expected.unrecovered;
          EXPECT_FALSE(out.has_value()) << "call " << x;
        } else {
          if (crashed) ++expected.recoveries;
          ASSERT_TRUE(out.has_value()) << "call " << x;
          EXPECT_EQ(out.value(), x * 2);
        }
      }
      EXPECT_EQ(pe.metrics().summary(), expected.summary());
    });
  }
  for (auto& t : requesters) t.join();
  // The first kInlineStreak calls of every engine are pooled.
  EXPECT_GE(pooled_calls.load(),
            kRequesters * static_cast<int>(util::Placement::kInlineStreak));
  EXPECT_EQ(inline_calls.load() + pooled_calls.load(), kRequesters * kCalls);
#if !defined(__SANITIZE_THREAD__) && !defined(__SANITIZE_ADDRESS__)
  // Under ThreadSanitizer even the light calls' legs sum past the budget,
  // so every call stays pooled there and only that path is checked.
  EXPECT_GT(inline_calls.load(), 0);
#endif
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
