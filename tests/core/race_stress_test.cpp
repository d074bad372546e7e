// Race stress tests, meant to be run under ThreadSanitizer and AddressSanitizer
// (cmake -DREDUNDANCY_SANITIZE=thread|address). ctest label: stress.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "core/parallel_evaluation.hpp"
#include "core/parallel_selection.hpp"
#include "core/race.hpp"
#include "core/sequential_alternatives.hpp"
#include "util/thread_pool.hpp"

namespace redundancy::core {
namespace {

TEST(RaceStress, FirstPassingLegChurn) {
  util::ThreadPool pool{4};
  util::BatchRunner batch{&pool};
  auto late = std::make_shared<LateLegs>(0);
  for (int round = 0; round < 200; ++round) {
    auto legs = std::make_shared<Legs<int, int>>();
    for (int i = 0; i < 6; ++i) {
      legs->variants.push_back(make_variant<int, int>(
          "v", [i](const int& r) -> Result<int> {
            if ((i + r) % 3 == 0) return failure(FailureKind::crash);
            return i;
          }));
    }
    Race<int, int> race{batch, round, legs, late, {}};
    race.post_batch([](std::size_t) { return true; });
    std::optional<std::size_t> winner;
    race.wait(first_passing<int>(winner));
    const std::vector<LegOutcome<int>> arrived = race.close();
    ASSERT_TRUE(winner.has_value());
    EXPECT_NE((arrived[*winner].result.value() + round) % 3, 0);
  }
  pool.wait_idle();
}

/// Legs started and finished, shared with the variants so it outlives the
/// patterns that run them.
struct LegCount {
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
};

Variant<int, int> counted(std::string name, std::shared_ptr<LegCount> count,
                          std::chrono::microseconds delay) {
  return make_variant<int, int>(
      std::move(name), [count, delay](const int& x) -> Result<int> {
        count->started.fetch_add(1);
        std::this_thread::sleep_for(delay);
        count->finished.fetch_add(1);
        return x + 1;
      });
}

TEST(RaceStress, PatternsDestroyedWithLegsInFlight) {
  using std::chrono::microseconds;
  using std::chrono::milliseconds;
  auto count = std::make_shared<LegCount>();
  constexpr int kBurst = 16;
  {
    ParallelEvaluation<int, int> pe{
        {counted("a", count, microseconds(0)),
         counted("b", count, microseconds(0)),
         counted("c", count, microseconds(0)),
         counted("d", count, milliseconds(2)),
         counted("e", count, milliseconds(2))},
        majority_voter<int>(),
        Concurrency::threaded,
        Adjudication::incremental};
    pe.set_obs_label("race_stress_pe");

    using PS = ParallelSelection<int, int>;
    PS ps{{PS::Checked{counted("slow", count, milliseconds(2)),
                       accept_all<int, int>()},
           PS::Checked{counted("fast", count, microseconds(0)),
                       accept_all<int, int>()},
           PS::Checked{counted("fast2", count, microseconds(50)),
                       accept_all<int, int>()}},
          PS::Options{.disable_on_failure = false,
                      .concurrency = Concurrency::threaded}};
    ps.set_obs_label("race_stress_ps");

    using SA = SequentialAlternatives<int, int>;
    SA sa{{counted("stuck-primary", count, milliseconds(20)),
           counted("alternate", count, microseconds(0))},
          accept_all<int, int>()};
    sa.set_obs_label("race_stress_sa");
    typename SA::Options::Hedge hedge;
    hedge.enabled = true;
    hedge.fallback_budget_ns = 200'000;  // hedge after 200 us
    hedge.min_samples = 1'000'000;       // pin the budget
    hedge.min_budget_ns = 0;
    sa.set_hedge(hedge);

    for (int i = 0; i < kBurst; ++i) {
      ASSERT_EQ(pe.run(i).value(), i + 1);
      ASSERT_EQ(ps.run(i).value(), i + 1);
      ASSERT_EQ(sa.run(i).value(), i + 1);
    }
    // The patterns go out of scope here, with stragglers (the 2 ms voters
    // and components, the 20 ms primaries) still running or queued.
  }
  util::ThreadPool::shared().wait_idle();
  EXPECT_EQ(count->started.load(), count->finished.load())
      << "every leg that started has settled";
  EXPECT_GE(count->started.load(), kBurst * (3 + 1 + 1));
}

/// What one component's variant did, shared with it so it outlives the
/// pattern's stragglers.
struct ComponentTally {
  std::atomic<std::size_t> executions{0};
  std::atomic<std::size_t> failures{0};
};

TEST(RaceStress, LateLegsFoldExactlyWhileTheOwnerKeepsCalling) {
  // Threaded selection over one fast passing component and slow failing
  // ones: each call returns on the fast arrival and closes its race, so a
  // slow leg that had started settles later, into the late-leg fold, while
  // the owner keeps calling run() and metrics(). Once the pool drains, the
  // metrics must equal what the variants themselves counted.
  using PS = ParallelSelection<int, int>;
  constexpr int kSlowFailing = 6;
  constexpr int kRounds = 12;
  constexpr int kCalls = 60;
  using Tallies = std::array<ComponentTally, kSlowFailing + 1>;
  struct Round {
    std::shared_ptr<Tallies> tally;
    std::unique_ptr<PS> ps;
    bool disable = false;
  };
  std::vector<Round> rounds;
  for (int r = 0; r < kRounds; ++r) {
    // Even rounds take a failed component out of service, so its late
    // failures go through the failed-flag fold too.
    Round round{std::make_shared<Tallies>(), nullptr, r % 2 == 0};
    std::vector<PS::Checked> components;
    components.push_back(
        {make_variant<int, int>(
             "fast",
             [tally = round.tally](const int& x) -> Result<int> {
               (*tally)[0].executions.fetch_add(1);
               return x + 1;
             }),
         accept_all<int, int>()});
    for (int c = 1; c <= kSlowFailing; ++c) {
      components.push_back(
          {make_variant<int, int>(
               "slow-failing",
               [tally = round.tally, c](const int&) -> Result<int> {
                 std::this_thread::sleep_for(std::chrono::microseconds(50 * c));
                 (*tally)[c].executions.fetch_add(1);
                 (*tally)[c].failures.fetch_add(1);
                 return failure(FailureKind::crash);
               }),
           accept_all<int, int>()});
    }
    round.ps = std::make_unique<PS>(
        std::move(components),
        PS::Options{.disable_on_failure = round.disable,
                    .concurrency = Concurrency::threaded});
    for (int i = 0; i < kCalls; ++i) {
      ASSERT_EQ(round.ps->run(i).value(), i + 1);
      (void)round.ps->metrics();
    }
    rounds.push_back(std::move(round));
  }
  util::ThreadPool::shared().wait_idle();
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const Round& round = rounds[r];
    std::size_t executions = 0;
    std::size_t failures = 0;
    std::size_t ran_and_failed = 0;  // components that failed at least once
    for (const ComponentTally& t : *round.tally) {
      executions += t.executions.load();
      failures += t.failures.load();
      ran_and_failed += t.failures.load() > 0 ? 1 : 0;
    }
    const Metrics& m = round.ps->metrics();
    EXPECT_EQ(m.variant_executions, executions) << "round " << r;
    EXPECT_EQ(m.variant_failures, failures) << "round " << r;
    // Self-checking components: every execution is an adjudication.
    EXPECT_EQ(m.adjudications, executions) << "round " << r;
    EXPECT_EQ(m.disabled_components, round.disable ? ran_and_failed : 0)
        << "round " << r;
    EXPECT_EQ((*round.tally)[0].executions.load(),
              static_cast<std::size_t>(kCalls));
  }
}

}  // namespace
}  // namespace redundancy::core
