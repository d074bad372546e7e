// core::Race — the one race primitive under the threaded Figure-1 patterns:
// the first passing leg wins, rejected and throwing legs lose, closing the
// race skips legs that have not started, and legs that settle after the
// close send their bookkeeping to the LateLegs fold.
#include "core/race.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

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
  EXPECT_EQ(arrived[*winner].ballot.result.value(), 7);
  EXPECT_EQ(arrived[*winner].index(), 1u);
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
  EXPECT_EQ(arrived[*winner].ballot.result.value(), 42);
  EXPECT_EQ(arrived[*winner].index(), 1u);
  for (const auto& a : arrived) {
    if (a.index() == 0) {
      EXPECT_EQ(a.ballot.result.error().kind, FailureKind::acceptance_failed);
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
  EXPECT_EQ(arrived[*winner].ballot.result.value(), 11);
  EXPECT_EQ(arrived[*winner].index(), 1u);
  ASSERT_EQ(arrived.size(), 2u);  // the thrower settled first, as a crash
  EXPECT_EQ(arrived[0].ballot.result.error().kind, FailureKind::crash);
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
  EXPECT_EQ(arrived[*winner].ballot.result.value(), 2);
  pool.wait_idle();
}

}  // namespace
}  // namespace redundancy::core
