// SequentialAlternatives hedging — budget derivation from the live
// latency histogram, first-success-wins races, straggler bookkeeping,
// and the guards that keep hedging off stateful (rollback) blocks.
//
// Labels: the hedge budget reads obs::histogram("technique.alternative_ns",
// label), which is process-global — every test sets a unique label so one
// test's latency observations cannot skew another's budget.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/sequential_alternatives.hpp"
#include "obs/obs.hpp"
#include "util/thread_pool.hpp"

namespace redundancy::core {
namespace {

using Engine = SequentialAlternatives<int, int>;

Variant<int, int> variant(std::string name,
                          std::function<Result<int>(const int&)> fn) {
  return make_variant<int, int>(std::move(name), std::move(fn));
}

typename Engine::Options::Hedge fast_hedge(std::uint64_t budget_ns) {
  typename Engine::Options::Hedge h;
  h.enabled = true;
  h.fallback_budget_ns = budget_ns;
  h.min_samples = 1'000'000;  // pin the budget to the fallback
  h.min_budget_ns = 0;
  return h;
}

TEST(Hedging, BudgetFallsBackUntilEnoughSamples) {
  Engine engine{{variant("only", [](const int& v) -> Result<int> {
                  return v;
                })},
                accept_all<int, int>()};
  engine.set_obs_label("hedge_budget_fallback");
  typename Engine::Options::Hedge h;
  h.enabled = true;
  h.fallback_budget_ns = 7'000'000;
  h.min_samples = 32;
  engine.set_hedge(h);
  // No latency observations yet: the fallback applies.
  EXPECT_EQ(engine.hedge_budget_ns(), 7'000'000u);
}

TEST(Hedging, BudgetDerivesFromLiveHistogram) {
  Engine engine{{variant("only", [](const int& v) -> Result<int> {
                  return v;
                })},
                accept_all<int, int>()};
  engine.set_obs_label("hedge_budget_live");
  typename Engine::Options::Hedge h;
  h.enabled = true;
  h.quantile = 95.0;
  h.multiplier = 1.0;
  h.fallback_budget_ns = 99'000'000;
  h.min_samples = 32;
  h.min_budget_ns = 1'000;
  engine.set_hedge(h);

  auto& hist = obs::histogram("technique.alternative_ns", "hedge_budget_live");
  for (int i = 0; i < 100; ++i) hist.record(1'000'000);  // 1ms observations
  const std::uint64_t budget = engine.hedge_budget_ns();
  EXPECT_NE(budget, 99'000'000u);  // no longer the fallback
  // p95 of an all-1ms distribution, through log2 buckets: same order of
  // magnitude as 1ms.
  EXPECT_GE(budget, 500'000u);
  EXPECT_LE(budget, 4'000'000u);
}

TEST(Hedging, BudgetIsClamped) {
  Engine engine{{variant("only", [](const int& v) -> Result<int> {
                  return v;
                })},
                accept_all<int, int>()};
  engine.set_obs_label("hedge_budget_clamp");
  typename Engine::Options::Hedge h;
  h.enabled = true;
  h.min_samples = 8;
  h.min_budget_ns = 500'000;
  h.max_budget_ns = 2'000'000;
  engine.set_hedge(h);

  auto& hist = obs::histogram("technique.alternative_ns", "hedge_budget_clamp");
  for (int i = 0; i < 16; ++i) hist.record(10);  // freak-fast observations
  EXPECT_EQ(engine.hedge_budget_ns(), 500'000u);  // floor engaged
  for (int i = 0; i < 512; ++i) hist.record(100'000'000);  // 100ms stalls
  EXPECT_EQ(engine.hedge_budget_ns(), 2'000'000u);  // ceiling engaged
}

TEST(Hedging, SlowPrimaryIsHedgedAndFallbackWins) {
  std::atomic<int> primary_runs{0};
  Engine engine{{variant("slow-primary",
                         [&](const int&) -> Result<int> {
                           ++primary_runs;
                           std::this_thread::sleep_for(
                               std::chrono::milliseconds(300));
                           return 1;
                         }),
                 variant("fast-fallback",
                         [](const int&) -> Result<int> { return 2; })},
                accept_all<int, int>()};
  engine.set_obs_label("hedge_slow_primary");
  engine.set_hedge(fast_hedge(2'000'000));  // hedge after 2ms

  const auto start = std::chrono::steady_clock::now();
  auto r = engine.run(5);
  const auto elapsed = std::chrono::steady_clock::now() - start;

  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r.value(), 2);  // the hedge leg won
  EXPECT_EQ(engine.last_used(), 1u);
  EXPECT_LT(elapsed, std::chrono::milliseconds(250))
      << "a hedged request must not wait out the slow primary";
  EXPECT_EQ(primary_runs.load(), 1);
  EXPECT_GE(engine.metrics().hedged_launches, 1u);
  EXPECT_EQ(engine.metrics().requests, 1u);
  util::ThreadPool::shared().wait_idle();  // let the straggler retire
}

TEST(Hedging, ExternalCallerHedgesAtItsBudgetNotAtTheNextPoll) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer builds stretch the pool's wake-ups";
#else
  // The caller is not a pool worker, so its wait sleeps on the race's
  // condition variable; that sleep must end at the 200 us hedge deadline,
  // not at the wait's 1 ms poll.
  Engine engine{{variant("slow-primary",
                         [](const int&) -> Result<int> {
                           std::this_thread::sleep_for(
                               std::chrono::milliseconds(20));
                           return 1;
                         }),
                 variant("fast-fallback",
                         [](const int&) -> Result<int> { return 2; })},
                accept_all<int, int>()};
  engine.set_obs_label("hedge_external_deadline");
  engine.set_hedge(fast_hedge(200'000));
  constexpr int kCalls = 9;
  std::vector<std::chrono::steady_clock::duration> elapsed;
  for (int i = 0; i < kCalls; ++i) {
    util::ThreadPool::shared().wait_idle();  // the last primary retires
    const auto start = std::chrono::steady_clock::now();
    const Result<int> r = engine.run(i);
    elapsed.push_back(std::chrono::steady_clock::now() - start);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r.value(), 2);
  }
  util::ThreadPool::shared().wait_idle();
  std::nth_element(elapsed.begin(), elapsed.begin() + kCalls / 2,
                   elapsed.end());
  EXPECT_LT(elapsed[kCalls / 2], std::chrono::microseconds(800));
#endif
}

TEST(Hedging, StragglerBookkeepingFoldsIntoMetrics) {
  Engine engine{{variant("slow-primary",
                         [](const int&) -> Result<int> {
                           std::this_thread::sleep_for(
                               std::chrono::milliseconds(80));
                           return 1;
                         }),
                 variant("fast-fallback",
                         [](const int&) -> Result<int> { return 2; })},
                accept_all<int, int>()};
  engine.set_obs_label("hedge_stragglers");
  engine.set_hedge(fast_hedge(1'000'000));

  auto r = engine.run(5);
  ASSERT_TRUE(r.has_value());
  // The primary may still be running here; once the pool drains, its
  // execution must appear in the engine's metrics (same discipline as the
  // parallel patterns' deferred bookkeeping).
  util::ThreadPool::shared().wait_idle();
  const Metrics& m = engine.metrics();
  EXPECT_EQ(m.variant_executions, 2u);
  EXPECT_EQ(m.requests, 1u);
}

TEST(Hedging, FailedPrimaryFallsThroughWithoutBurningTheBudget) {
  Engine engine{{variant("broken-primary",
                         [](const int&) -> Result<int> {
                           return failure(FailureKind::crash, "boom");
                         }),
                 variant("fallback",
                         [](const int& v) -> Result<int> { return v * 10; })},
                accept_all<int, int>()};
  engine.set_obs_label("hedge_fallthrough");
  // A huge budget: if fall-through waited for the hedge deadline this test
  // would time out.
  engine.set_hedge(fast_hedge(10'000'000'000));

  const auto start = std::chrono::steady_clock::now();
  auto r = engine.run(4);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r.value(), 40);
  EXPECT_LT(elapsed, std::chrono::seconds(2));
  // The second launch was a failure reaction, not a latency hedge.
  EXPECT_EQ(engine.metrics().hedged_launches, 0u);
  EXPECT_EQ(engine.metrics().recoveries, 1u);
}

TEST(Hedging, ExhaustionReportsNoAlternatives) {
  Engine engine{{variant("a",
                         [](const int&) -> Result<int> {
                           return failure(FailureKind::crash, "a down");
                         }),
                 variant("b",
                         [](const int&) -> Result<int> {
                           return failure(FailureKind::timeout, "b stuck");
                         })},
                accept_all<int, int>()};
  engine.set_obs_label("hedge_exhausted");
  engine.set_hedge(fast_hedge(1'000'000));

  auto r = engine.run(1);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().kind, FailureKind::no_alternatives);
  EXPECT_EQ(engine.metrics().unrecovered, 1u);
}

TEST(Hedging, RollbackDisablesHedging) {
  int rollbacks_seen = 0;
  typename Engine::Options options;
  options.rollback = [&] { ++rollbacks_seen; };
  options.hedge = fast_hedge(1'000);  // would hedge almost immediately
  Engine engine{{variant("slowish-primary",
                         [](const int&) -> Result<int> {
                           std::this_thread::sleep_for(
                               std::chrono::milliseconds(10));
                           return failure(FailureKind::crash, "fails anyway");
                         }),
                 variant("fallback",
                         [](const int& v) -> Result<int> { return v; })},
                accept_all<int, int>(), std::move(options)};
  engine.set_obs_label("hedge_rollback_guard");

  auto r = engine.run(9);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r.value(), 9);
  // Sequential semantics: the rollback ran before the second alternative,
  // and no hedge was ever launched despite the tiny budget.
  EXPECT_EQ(rollbacks_seen, 1);
  EXPECT_EQ(engine.metrics().hedged_launches, 0u);
  EXPECT_EQ(engine.metrics().rollbacks, 1u);
}

TEST(Hedging, AcceptanceTestStillGates) {
  // The hedge leg returns fast but its output is rejected; the slowish
  // primary's accepted output must win.
  Engine engine{{variant("primary",
                         [](const int&) -> Result<int> {
                           std::this_thread::sleep_for(
                               std::chrono::milliseconds(20));
                           return 100;
                         }),
                 variant("liar",
                         [](const int&) -> Result<int> { return -1; })},
                [](const int&, const int& out) { return out >= 0; }};
  engine.set_obs_label("hedge_acceptance");
  engine.set_hedge(fast_hedge(1'000'000));

  auto r = engine.run(0);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r.value(), 100);
  EXPECT_EQ(engine.last_used(), 0u);
}

TEST(Hedging, CachedHedgedEngineHitsSkipEveryAlternative) {
  std::atomic<int> executions{0};
  Engine engine{{variant("primary",
                         [&](const int& v) -> Result<int> {
                           ++executions;
                           return v + 1;
                         }),
                 variant("fallback",
                         [&](const int& v) -> Result<int> {
                           ++executions;
                           return v + 1;
                         })},
                accept_all<int, int>()};
  engine.set_obs_label("hedge_cached");
  engine.set_hedge(fast_hedge(50'000'000));
  engine.enable_cache();

  for (int i = 0; i < 4; ++i) {
    auto r = engine.run(10);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r.value(), 11);
  }
  util::ThreadPool::shared().wait_idle();
  EXPECT_EQ(executions.load(), 1);  // one hedged miss, three hits
  EXPECT_EQ(engine.metrics().requests, 4u);
  engine.invalidate_cache();
  (void)engine.run(10);
  util::ThreadPool::shared().wait_idle();
  EXPECT_GE(executions.load(), 2);  // invalidation forced a re-run
}

}  // namespace
}  // namespace redundancy::core
