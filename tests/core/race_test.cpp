// core::Race — the one race primitive under the threaded Figure-1 patterns:
// the first passing leg wins, rejected and throwing legs lose, closing the
// race skips legs that have not started, and legs that settle after the
// close send their bookkeeping to the LateLegs fold. The WorkerWaiter
// cases wait on a race from inside a pool task; ctest also runs them with
// the shared pool at 1 worker (no thief exists) and at 2.
#include "core/race.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/parallel_selection.hpp"
#include "core/sequential_alternatives.hpp"
#include "obs/clock.hpp"
#include "util/thread_pool.hpp"

namespace redundancy::core {
namespace {

using IntLegs = Legs<int, int>;

Variant<int, int> leg(std::string name,
                      util::SmallFunction<Result<int>(const int&)> fn) {
  return make_variant<int, int>(std::move(name), std::move(fn));
}

std::shared_ptr<const IntLegs> legs_of(std::vector<Variant<int, int>> variants,
                                       std::vector<AcceptanceTest<int, int>>
                                           checks = {}) {
  return std::make_shared<const IntLegs>(
      IntLegs{std::move(variants), std::move(checks), false, "variant"});
}

auto everything = [](std::size_t) { return true; };

TEST(Race, FirstPassingLegWins) {
  util::ThreadPool pool{4};
  util::BatchRunner batch{&pool};
  auto legs = legs_of({leg("slow",
                           [](const int&) -> Result<int> {
                             std::this_thread::sleep_for(
                                 std::chrono::milliseconds(50));
                             return 100;
                           }),
                       leg("fast",
                           [](const int&) -> Result<int> { return 7; })});
  Race<int, int> race{batch, 0, legs, std::make_shared<LateLegs>(0), {}};
  EXPECT_EQ(race.post_batch(everything), 2u);
  std::optional<std::size_t> winner;
  EXPECT_FALSE(race.wait(first_passing<int>(winner)));
  const std::vector<LegOutcome<int>> arrived = race.close();
  ASSERT_TRUE(winner.has_value());
  EXPECT_EQ(arrived[*winner].result.value(), 7);
  EXPECT_EQ(arrived[*winner].index, 1u);
  pool.wait_idle();  // the slow straggler finishes detached
}

TEST(Race, AllLegsRejectedSettleWithoutAWinner) {
  util::ThreadPool pool{2};
  util::BatchRunner batch{&pool};
  std::vector<Variant<int, int>> variants;
  for (int i = 0; i < 4; ++i) {
    variants.push_back(leg("down", [](const int&) -> Result<int> {
      return failure(FailureKind::crash);
    }));
  }
  Race<int, int> race{batch, 0, legs_of(std::move(variants)),
                      std::make_shared<LateLegs>(0), {}};
  race.post_batch(everything);
  std::optional<std::size_t> winner;
  race.wait(first_passing<int>(winner));
  const std::vector<LegOutcome<int>> arrived = race.close();
  EXPECT_FALSE(winner.has_value());
  EXPECT_EQ(arrived.size(), 4u);  // every leg settled and reported
}

TEST(Race, NoLegsSettlesAtOnce) {
  util::ThreadPool pool{2};
  util::BatchRunner batch{&pool};
  Race<int, int> race{batch, 0, legs_of({}), std::make_shared<LateLegs>(0), {}};
  EXPECT_EQ(race.post_batch(everything), 0u);
  std::optional<std::size_t> winner;
  EXPECT_FALSE(race.wait(first_passing<int>(winner)));
  EXPECT_FALSE(winner.has_value());
  EXPECT_TRUE(race.close().empty());
}

TEST(Race, RejectedLegLosesToAcceptedLeg) {
  // The leg's acceptance test runs inside the leg: a rejected result is a
  // failed ballot, not a winner.
  util::ThreadPool pool{4};
  util::BatchRunner batch{&pool};
  std::atomic<int> ran{0};
  auto make = [&ran](int v) {
    return leg("v", [&ran, v](const int&) -> Result<int> {
      ran.fetch_add(1);
      return v;
    });
  };
  Race<int, int> race{batch, 0,
                      legs_of({make(-1), make(42)},
                              {[](const int&, const int& out) {
                                return out >= 0;
                              }}),
                      std::make_shared<LateLegs>(0), {}};
  race.post_batch(everything);
  std::optional<std::size_t> winner;
  race.wait(first_passing<int>(winner));
  const std::vector<LegOutcome<int>> arrived = race.close();
  pool.wait_idle();
  ASSERT_TRUE(winner.has_value());
  EXPECT_EQ(arrived[*winner].result.value(), 42);
  EXPECT_EQ(arrived[*winner].index, 1u);
  for (const auto& a : arrived) {
    if (a.index == 0) {
      EXPECT_EQ(a.result.error().kind, FailureKind::acceptance_failed);
    }
  }
}

TEST(Race, ThrowingLegLosesAsACrash) {
  util::ThreadPool pool{2};
  util::BatchRunner batch{&pool};
  auto legs = legs_of(
      {leg("thrower",
           [](const int&) -> Result<int> { throw std::runtime_error{"bad"}; }),
       leg("healthy", [](const int&) -> Result<int> {
         std::this_thread::sleep_for(std::chrono::milliseconds(5));
         return 11;
       })});
  Race<int, int> race{batch, 0, legs, std::make_shared<LateLegs>(0), {}};
  race.post_batch(everything);
  std::optional<std::size_t> winner;
  race.wait(first_passing<int>(winner));
  const std::vector<LegOutcome<int>> arrived = race.close();
  ASSERT_TRUE(winner.has_value());
  EXPECT_EQ(arrived[*winner].result.value(), 11);
  EXPECT_EQ(arrived[*winner].index, 1u);
  ASSERT_EQ(arrived.size(), 2u);  // the thrower settled first, as a crash
  EXPECT_EQ(arrived[0].result.error().kind, FailureKind::crash);
}

TEST(Race, CloseSkipsUnstartedLegsAndFoldsLateOnes) {
  // One worker: legs run one at a time. The first leg decides the race, so
  // the queued legs must be skipped, not executed; the few that started
  // before the close settle into the fold.
  util::ThreadPool pool{1};
  util::BatchRunner batch{&pool};
  std::atomic<int> ran{0};
  std::vector<Variant<int, int>> variants;
  for (int i = 0; i < 16; ++i) {
    variants.push_back(leg("v", [&ran](const int&) -> Result<int> {
      ran.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      return 1;
    }));
  }
  auto late = std::make_shared<LateLegs>(0);
  std::vector<LegOutcome<int>> arrived;
  {
    Race<int, int> race{batch, 0, legs_of(std::move(variants)), late, {}};
    race.post_batch(everything);
    std::optional<std::size_t> winner;
    race.wait(first_passing<int>(winner));
    ASSERT_TRUE(winner.has_value());
    arrived = race.close();
  }
  pool.wait_idle();
  EXPECT_LT(ran.load(), 16);
  EXPECT_EQ(arrived.size() + late->executions.load(),
            static_cast<std::size_t>(ran.load()));
}

TEST(Race, DeadlineEndsTheWaitAndALaterLegCanWin) {
  util::ThreadPool pool{2};
  util::BatchRunner batch{&pool};
  auto legs = legs_of({leg("stuck",
                           [](const int&) -> Result<int> {
                             std::this_thread::sleep_for(
                                 std::chrono::milliseconds(100));
                             return 1;
                           }),
                       leg("hedge",
                           [](const int&) -> Result<int> { return 2; })});
  Race<int, int> race{batch, 0, legs, std::make_shared<LateLegs>(0), {}};
  race.post(0);
  std::optional<std::size_t> winner;
  EXPECT_TRUE(race.wait(first_passing<int>(winner), obs::now_ns() + 2'000'000));
  EXPECT_FALSE(winner.has_value());
  race.post(1);
  EXPECT_FALSE(race.wait(first_passing<int>(winner)));
  const std::vector<LegOutcome<int>> arrived = race.close();
  ASSERT_TRUE(winner.has_value());
  EXPECT_EQ(arrived[*winner].result.value(), 2);
  pool.wait_idle();
}

TEST(Race, WaiterRunsItsOwnUnclaimedLegWhenNoWorkerIsFree) {
  // The pool's only worker is held, so nothing but the waiter can run the
  // leg: it claims the leg itself and the wait ends.
  util::ThreadPool pool{1};
  util::BatchRunner batch{&pool};
  std::atomic<bool> release{false};
  pool.post(util::ThreadPool::Task{[&release] {
    while (!release.load()) std::this_thread::yield();
  }});
  while (pool.pending() != 0) std::this_thread::yield();
  std::atomic<int> ran{0};
  auto legs = legs_of({leg("only", [&ran](const int&) -> Result<int> {
    ran.fetch_add(1);
    return 5;
  })});
  Race<int, int> race{batch, 0, legs, std::make_shared<LateLegs>(0), {}};
  race.post(0);
  std::optional<std::size_t> winner;
  EXPECT_FALSE(race.wait(first_passing<int>(winner)));
  const std::vector<LegOutcome<int>> arrived = race.close();
  ASSERT_TRUE(winner.has_value());
  EXPECT_EQ(arrived[*winner].result.value(), 5);
  release.store(true);
  pool.wait_idle();  // the leg's own task finds it claimed
  EXPECT_EQ(ran.load(), 1);
}

/// Busy-wait for `ns` nanoseconds.
void spin_ns(std::uint64_t ns) {
  const std::uint64_t t0 = obs::now_ns();
  while (obs::now_ns() - t0 < ns) {
  }
}

constexpr std::uint64_t kSlowLegNs = 20'000'000;  // 20 ms
constexpr int kCalls = 5;

/// Median wall time of kCalls calls of `call`, made from inside one task
/// on the shared pool, `pause` apart; call(x) must answer x + 1.
std::chrono::steady_clock::duration median_from_a_worker(
    const std::function<Result<int>(int)>& call,
    std::chrono::milliseconds pause = {}) {
  std::vector<std::chrono::steady_clock::duration> elapsed;
  util::ThreadPool::shared()
      .submit([&] {
        for (int i = 0; i < kCalls; ++i) {
          const auto start = std::chrono::steady_clock::now();
          const Result<int> r = call(i);
          elapsed.push_back(std::chrono::steady_clock::now() - start);
          EXPECT_EQ(r.value(), i + 1);
          std::this_thread::sleep_for(pause);
        }
      })
      .get();
  util::ThreadPool::shared().wait_idle();  // the slow legs retire
  std::nth_element(elapsed.begin(), elapsed.begin() + kCalls / 2,
                   elapsed.end());
  return elapsed[kCalls / 2];
}

TEST(WorkerWaiter, HedgedAlternativesAnswerWellBeforeASpinningPrimary) {
  // Once the primary has overrun its 200 us budget, the waiter leaves it to
  // the pool until the budget passes, then runs the alternate itself when
  // no worker is free. The first call knows nothing of the primary yet:
  // with no worker free (one worker) it runs the primary on the caller.
  using SA = SequentialAlternatives<int, int>;
  SA sa{{leg("spinning-primary",
             [](const int& x) -> Result<int> {
               spin_ns(kSlowLegNs);
               return x + 1;
             }),
         leg("alternate", [](const int& x) -> Result<int> { return x + 1; })},
        accept_all<int, int>()};
  sa.set_obs_label("worker_waiter_hedge");
  typename SA::Options::Hedge hedge;
  hedge.enabled = true;
  hedge.fallback_budget_ns = 200'000;
  hedge.min_samples = 1'000'000;  // pin the budget
  hedge.min_budget_ns = 0;
  sa.set_hedge(hedge);
  const auto median = median_from_a_worker([&](int x) { return sa.run(x); });
  EXPECT_LT(median, std::chrono::milliseconds(10))
      << "the waiting worker ran the 20 ms primary itself";
  EXPECT_GE(sa.metrics().hedged_launches,
            static_cast<std::size_t>(kCalls - 1));
}

TEST(WorkerWaiter, FirstWinsSelectionAnswersWellBeforeASpinningLeg) {
  using PS = ParallelSelection<int, int>;
  PS ps{{PS::Checked{leg("fast",
                         [](const int& x) -> Result<int> { return x + 1; }),
                     accept_all<int, int>()},
         PS::Checked{leg("spinning",
                         [](const int& x) -> Result<int> {
                           spin_ns(kSlowLegNs);
                           return x + 1;
                         }),
                     accept_all<int, int>()}},
        PS::Options{.concurrency = Concurrency::threaded}};
  ps.set_obs_label("worker_waiter_selection");
  const auto median = median_from_a_worker([&](int x) { return ps.run(x); });
  EXPECT_LT(median, std::chrono::milliseconds(10))
      << "the waiting worker ran the 20 ms leg itself";
}

TEST(WorkerWaiter, FirstWinsSelectionAnswersWellBeforeASpinningFirstLeg) {
  // The spinning leg comes first, so a free thief, which takes the oldest
  // task, takes it, and the fast leg is left in the waiter's own deque: the
  // waiter runs it once every worker is busy, without waiting for the
  // spinning leg to settle. The calls are 25 ms apart so that the last
  // call's spinning leg has retired and the thief is free: while it is
  // busy no worker is, and the waiter runs its legs in index order, the
  // spinning one first, as with one worker.
  if (util::ThreadPool::shared().size() < 2) {
    GTEST_SKIP() << "with one worker no thief exists; the waiter runs its "
                    "legs in order, the spinning one first";
  }
  using PS = ParallelSelection<int, int>;
  PS ps{{PS::Checked{leg("spinning",
                         [](const int& x) -> Result<int> {
                           spin_ns(kSlowLegNs);
                           return x + 1;
                         }),
                     accept_all<int, int>()},
         PS::Checked{leg("fast",
                         [](const int& x) -> Result<int> { return x + 1; }),
                     accept_all<int, int>()}},
        PS::Options{.concurrency = Concurrency::threaded}};
  ps.set_obs_label("worker_waiter_selection_reversed");
  const auto median = median_from_a_worker([&](int x) { return ps.run(x); },
                                           std::chrono::milliseconds(25));
  EXPECT_LT(median, std::chrono::milliseconds(10))
      << "the waiting worker waited for the 20 ms leg";
}

}  // namespace
}  // namespace redundancy::core
