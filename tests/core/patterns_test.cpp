#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "core/parallel_evaluation.hpp"
#include "core/parallel_selection.hpp"
#include "core/sequential_alternatives.hpp"
#include "obs/clock.hpp"
#include "util/placement.hpp"
#include "util/thread_pool.hpp"

namespace redundancy::core {
namespace {

Variant<int, int> good(std::string name, int delta = 0) {
  return make_variant<int, int>(
      std::move(name), [delta](const int& x) -> Result<int> {
        return x * 2 + delta;
      });
}

Variant<int, int> crashing(std::string name) {
  return make_variant<int, int>(std::move(name), [](const int&) -> Result<int> {
    return failure(FailureKind::crash);
  });
}

// --- Figure 1(a): parallel evaluation -------------------------------------

TEST(ParallelEvaluation, MasksMinorityFailure) {
  ParallelEvaluation<int, int> pe{{good("a"), crashing("b"), good("c")},
                                  majority_voter<int>()};
  auto out = pe.run(10);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out.value(), 20);
  EXPECT_EQ(pe.metrics().recoveries, 1u);
  EXPECT_EQ(pe.metrics().variant_executions, 3u);
  EXPECT_EQ(pe.metrics().variant_failures, 1u);
}

TEST(ParallelEvaluation, MasksMinorityWrongOutput) {
  ParallelEvaluation<int, int> pe{{good("a"), good("b", 5), good("c")},
                                  majority_voter<int>()};
  auto out = pe.run(1);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out.value(), 2);
}

TEST(ParallelEvaluation, MajorityWrongDefeatsVoting) {
  // Identical-and-wrong consensus: the voting danger the Knight-Leveson
  // experiment warned about.
  ParallelEvaluation<int, int> pe{{good("a", 5), good("b", 5), good("c")},
                                  majority_voter<int>()};
  auto out = pe.run(1);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out.value(), 7);  // the wrong answer wins the vote
}

TEST(ParallelEvaluation, AllVariantsAlwaysExecute) {
  ParallelEvaluation<int, int> pe{{good("a"), good("b"), good("c")},
                                  majority_voter<int>()};
  for (int i = 0; i < 10; ++i) (void)pe.run(i);
  EXPECT_EQ(pe.metrics().variant_executions, 30u);
  EXPECT_EQ(pe.metrics().requests, 10u);
  EXPECT_DOUBLE_EQ(pe.metrics().executions_per_request(), 3.0);
}

TEST(ParallelEvaluation, ThreadedModeMatchesSequential) {
  std::vector<Variant<int, int>> vs{good("a"), good("b"), good("c")};
  ParallelEvaluation<int, int> seq{vs, majority_voter<int>(),
                                   Concurrency::sequential};
  ParallelEvaluation<int, int> thr{vs, majority_voter<int>(),
                                   Concurrency::threaded};
  for (int i = 0; i < 50; ++i) {
    auto a = seq.run(i);
    auto b = thr.run(i);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(a.value(), b.value());
  }
}

TEST(ParallelEvaluation, ThreadedMasksMinorityFailure) {
  ParallelEvaluation<int, int> pe{{good("a"), crashing("b"), good("c")},
                                  majority_voter<int>(),
                                  Concurrency::threaded};
  auto out = pe.run(10);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out.value(), 20);
  EXPECT_EQ(pe.metrics().recoveries, 1u);
  EXPECT_EQ(pe.metrics().variant_executions, 3u);
  EXPECT_EQ(pe.metrics().variant_failures, 1u);
}

TEST(ParallelEvaluation, IncrementalMatchesSequentialVerdicts) {
  std::vector<Variant<int, int>> vs{good("a"), crashing("b"), good("c")};
  ParallelEvaluation<int, int> seq{vs, majority_voter<int>()};
  ParallelEvaluation<int, int> inc{vs, majority_voter<int>(),
                                   Concurrency::threaded,
                                   Adjudication::incremental};
  for (int i = 0; i < 30; ++i) {
    auto a = seq.run(i);
    auto b = inc.run(i);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(a.value(), b.value());
  }
  util::ThreadPool::shared().wait_idle();
}

TEST(ParallelEvaluation, IncrementalReturnsBeforeSlowStraggler) {
  auto slow = make_variant<int, int>("slow", [](const int& x) -> Result<int> {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    return x * 2;
  });
  ParallelEvaluation<int, int> pe{{good("a"), good("b"), slow},
                                  majority_voter<int>(),
                                  Concurrency::threaded,
                                  Adjudication::incremental};
  const auto t0 = std::chrono::steady_clock::now();
  auto out = pe.run(4);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out.value(), 8);  // the two fast agreeing variants carry the vote
  EXPECT_LT(elapsed, std::chrono::milliseconds(90));
  // The straggler's work is folded into the metrics once it lands — unless
  // cancellation reached it before it started, in which case it never runs.
  util::ThreadPool::shared().wait_idle();
  EXPECT_GE(pe.metrics().variant_executions, 2u);
  EXPECT_LE(pe.metrics().variant_executions, 3u);
}

TEST(ParallelEvaluation, IncrementalUnrecoveredWhenMajorityCrashes) {
  ParallelEvaluation<int, int> pe{{crashing("a"), crashing("b"), good("c")},
                                  majority_voter<int>(),
                                  Concurrency::threaded,
                                  Adjudication::incremental};
  auto out = pe.run(1);
  EXPECT_FALSE(out.has_value());
  EXPECT_EQ(pe.metrics().unrecovered, 1u);
  util::ThreadPool::shared().wait_idle();
}

TEST(ParallelEvaluation, UnrecoveredCounted) {
  ParallelEvaluation<int, int> pe{{crashing("a"), crashing("b"), good("c")},
                                  majority_voter<int>()};
  auto out = pe.run(1);
  EXPECT_FALSE(out.has_value());
  EXPECT_EQ(pe.metrics().unrecovered, 1u);
}

// --- Figure 1(a), threaded join-all: where the electorate runs -------------

// Sanitizer builds slow even a trivial leg past the inline budget now and
// then, and each such run restarts the streak.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

constexpr std::uint32_t kStreak = util::Placement::kInlineStreak;

/// Whether `fn` queued pool work on the calling thread.
template <typename Fn>
bool queued_pool_work(Fn&& fn) {
  const std::uint64_t before = util::ThreadPool::submitted_by_this_thread();
  fn();
  return util::ThreadPool::submitted_by_this_thread() != before;
}

void expect_same_metrics(const Metrics& a, const Metrics& b) {
  EXPECT_EQ(a.summary(), b.summary());
  EXPECT_EQ(a.disabled_components, b.disabled_components);
  EXPECT_EQ(a.hedged_launches, b.hedged_launches);
}

/// Light legs with a mix of verdicts: b crashes on multiples of 5 and c is
/// wrong on multiples of 3, so most calls agree, some recover, and
/// multiples of 15 go unrecovered.
std::vector<Variant<int, int>> light_electorate() {
  return {good("a"),
          make_variant<int, int>("b",
                                 [](const int& x) -> Result<int> {
                                   if (x % 5 == 0) {
                                     return failure(FailureKind::crash);
                                   }
                                   return x * 2;
                                 }),
          make_variant<int, int>("c", [](const int& x) -> Result<int> {
            return x * 2 + (x % 3 == 0 ? 1 : 0);
          })};
}

/// 200 calls of a threaded light electorate beside a sequential twin: the
/// verdicts and Metrics must be equal. Returns which calls queued pool
/// work.
std::vector<bool> pooled_calls_beside_a_sequential_twin() {
  ParallelEvaluation<int, int> seq{light_electorate(), majority_voter<int>(),
                                   Concurrency::sequential};
  ParallelEvaluation<int, int> thr{light_electorate(), majority_voter<int>(),
                                   Concurrency::threaded};
  std::vector<bool> pooled;
  for (int i = 0; i < 200; ++i) {
    Result<int> t = failure(FailureKind::crash);
    pooled.push_back(queued_pool_work([&] { t = thr.run(i); }));
    const Result<int> s = seq.run(i);
    EXPECT_EQ(t.has_value(), s.has_value()) << "call " << i;
    if (t.has_value() && s.has_value()) {
      EXPECT_EQ(t.value(), s.value()) << "call " << i;
    }
  }
  expect_same_metrics(thr.metrics(), seq.metrics());
  EXPECT_GT(thr.metrics().recoveries, 0u);
  EXPECT_GT(thr.metrics().unrecovered, 0u);
  return pooled;
}

/// Light legs go to the pool on exactly the first kInlineStreak calls and
/// run on the calling thread after. A leg preempted past the budget
/// restarts the streak, so a run that missed retries on a fresh pair.
void expect_streak_then_inline(
    const std::function<std::vector<bool>()>& run_pair) {
  bool exact = false;
  for (int attempt = 0; attempt < 5 && !exact; ++attempt) {
    const std::vector<bool> pooled = run_pair();
    ASSERT_EQ(pooled.size(), 200u);
    for (std::size_t i = 0; i < kStreak; ++i) {
      ASSERT_TRUE(pooled[i]) << "call " << i << " ran before its streak";
    }
    exact = std::none_of(pooled.begin() + kStreak, pooled.end(),
                         [](bool p) { return p; });
  }
  if (!exact && kSanitized) {
    GTEST_SKIP() << "no run kept its light legs under the budget here";
  }
  EXPECT_TRUE(exact) << "light legs kept queueing pool work after the streak";
}

TEST(ParallelEvaluation, LightElectorateMovesOntoTheCallingThread) {
  expect_streak_then_inline(pooled_calls_beside_a_sequential_twin);
}

TEST(ParallelEvaluation, LightElectorateMovesOntoTheCallingWorker) {
  expect_streak_then_inline([] {
    return util::ThreadPool::shared()
        .submit(pooled_calls_beside_a_sequential_twin)
        .get();
  });
}

TEST(ParallelEvaluation, MidweightLegsEarnTheCallingThread) {
  // Three legs of 3 us cost less than handing them to the pool, from a
  // worker or from outside the pool (BM_ElectorateLegsByCaller), so after
  // its streak the electorate runs them on either caller.
  constexpr std::uint64_t kLegNs = 3'000;
  static_assert(2 * 3 * kLegNs <= util::Placement::kInlineBudgetNs);
  auto leg = [](std::string name) {
    return make_variant<int, int>(std::move(name),
                                  [](const int& x) -> Result<int> {
                                    const std::uint64_t t0 = obs::now_ns();
                                    while (obs::now_ns() - t0 < kLegNs) {
                                    }
                                    return x * 2;
                                  });
  };
  auto inline_calls = [&leg] {
    ParallelEvaluation<int, int> pe{{leg("a"), leg("b"), leg("c")},
                                    majority_voter<int>(),
                                    Concurrency::threaded};
    int count = 0;
    for (int i = 0; i < 200; ++i) {
      count += queued_pool_work([&] { EXPECT_EQ(pe.run(i).value(), i * 2); })
                   ? 0
                   : 1;
    }
    return count;
  };
  const int outside = inline_calls();
  const int on_worker = util::ThreadPool::shared().submit(inline_calls).get();
  if ((outside == 0 || on_worker == 0) && kSanitized) {
    GTEST_SKIP() << "no call stayed within the inline budget here";
  }
  // A leg preempted past the budget sends a few calls back to the pool
  // (on a loaded host, more); at a 5 us budget none would run inline.
  EXPECT_GT(outside, 0);
  EXPECT_GT(on_worker, 0);
}

TEST(ParallelEvaluation, HeavyLegsStayOnThePoolAndNeverSerialize) {
  auto sleepy = [](std::string name) {
    return make_variant<int, int>(std::move(name),
                                  [](const int& x) -> Result<int> {
                                    std::this_thread::sleep_for(
                                        std::chrono::milliseconds(2));
                                    return x * 2;
                                  });
  };
  ParallelEvaluation<int, int> pe{{sleepy("a"), sleepy("b"), sleepy("c")},
                                  majority_voter<int>(),
                                  Concurrency::threaded};
  // Run one after another, the legs would take 6 ms on every call. A pool
  // wake-up or a host stall can still delay a pooled call now and then, so
  // the bound is on the median call.
  constexpr int kCalls = 50;
  std::vector<std::chrono::steady_clock::duration> elapsed;
  for (int i = 0; i < kCalls; ++i) {
    Result<int> out = failure(FailureKind::crash);
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_TRUE(queued_pool_work([&] { out = pe.run(i); }))
        << "call " << i << " ran its 2 ms legs on the caller";
    elapsed.push_back(std::chrono::steady_clock::now() - t0);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out.value(), i * 2);
  }
  std::nth_element(elapsed.begin(), elapsed.begin() + kCalls / 2,
                   elapsed.end());
  EXPECT_LT(elapsed[kCalls / 2], std::chrono::milliseconds(4));
}

TEST(ParallelEvaluation, OverBudgetInlineCallSendsTheNextCallToThePool) {
  // A negative input makes every leg sleep far past the whole budget.
  auto leg = [](std::string name) {
    return make_variant<int, int>(std::move(name),
                                  [](const int& x) -> Result<int> {
                                    if (x < 0) {
                                      std::this_thread::sleep_for(
                                          std::chrono::microseconds(200));
                                    }
                                    return x * 2;
                                  });
  };
  ParallelEvaluation<int, int> pe{{leg("a"), leg("b"), leg("c")},
                                  majority_voter<int>(),
                                  Concurrency::threaded};
  auto pooled = [&pe](int x) {
    return queued_pool_work([&] { EXPECT_TRUE(pe.run(x).has_value()); });
  };
  // The slow call runs inline only if the light call before it stayed
  // under budget; a preempted leg can miss that, so retry.
  bool slow_ran_inline = false;
  for (int attempt = 0; attempt < 20 && !slow_ran_inline; ++attempt) {
    for (int i = 0; i < 1000 && pooled(i); ++i) {
    }
    slow_ran_inline = !pooled(-1);
  }
  if (!slow_ran_inline && kSanitized) {
    GTEST_SKIP() << "no light call stayed within the inline budget here";
  }
  ASSERT_TRUE(slow_ran_inline);
  EXPECT_TRUE(pooled(1)) << "the call after an over-budget inline call";
  // The streak restarted from zero: the electorate earns the calling
  // thread back only after another kInlineStreak pooled calls.
  std::uint32_t pooled_again = 1;
  while (pooled_again < 1000 && pooled(2)) ++pooled_again;
  EXPECT_GE(pooled_again, kStreak);
}

// --- Figure 1(b): parallel selection ---------------------------------------

TEST(ParallelSelection, HighestPriorityPassingWins) {
  using PS = ParallelSelection<int, int>;
  PS ps{{PS::Checked{good("primary"), accept_all<int, int>()},
         PS::Checked{good("spare", 100), accept_all<int, int>()}}};
  auto out = ps.run(3);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out.value(), 6);
  EXPECT_EQ(ps.acting(), 0u);
}

TEST(ParallelSelection, SpareTakesOverAndFailedIsDisabled) {
  using PS = ParallelSelection<int, int>;
  PS ps{{PS::Checked{crashing("primary"), accept_all<int, int>()},
         PS::Checked{good("spare"), accept_all<int, int>()}}};
  auto out = ps.run(3);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out.value(), 6);
  EXPECT_EQ(ps.acting(), 1u);
  EXPECT_EQ(ps.alive(), 1u);  // primary disabled
  EXPECT_EQ(ps.metrics().disabled_components, 1u);
  EXPECT_EQ(ps.metrics().recoveries, 1u);
}

TEST(ParallelSelection, AcceptanceTestFiltersWrongOutput) {
  using PS = ParallelSelection<int, int>;
  auto is_even = [](const int&, const int& out) { return out % 2 == 0; };
  PS ps{{PS::Checked{good("odd", 1), is_even},
         PS::Checked{good("even"), is_even}}};
  auto out = ps.run(4);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out.value(), 8);
}

TEST(ParallelSelection, RedundancyIsProgressivelyConsumed) {
  using PS = ParallelSelection<int, int>;
  PS ps{{PS::Checked{crashing("a"), accept_all<int, int>()},
         PS::Checked{crashing("b"), accept_all<int, int>()},
         PS::Checked{good("c"), accept_all<int, int>()}}};
  (void)ps.run(1);
  EXPECT_EQ(ps.alive(), 1u);
  (void)ps.run(1);
  EXPECT_EQ(ps.alive(), 1u);
  // Only the surviving component executes on later requests.
  EXPECT_EQ(ps.metrics().variant_executions, 4u);
}

TEST(ParallelSelection, AllFailedIsNoAlternatives) {
  using PS = ParallelSelection<int, int>;
  PS ps{{PS::Checked{crashing("a"), accept_all<int, int>()}}};
  auto out = ps.run(1);
  ASSERT_FALSE(out.has_value());
  EXPECT_EQ(out.error().kind, FailureKind::no_alternatives);
  // A later request has nothing left to run.
  out = ps.run(1);
  EXPECT_FALSE(out.has_value());
  EXPECT_EQ(ps.alive(), 0u);
}

TEST(ParallelSelection, ThreadedReturnsPassingResult) {
  using PS = ParallelSelection<int, int>;
  auto is_even = [](const int&, const int& out) { return out % 2 == 0; };
  PS ps{{PS::Checked{good("odd", 1), is_even},
         PS::Checked{good("even"), is_even}},
        PS::Options{.disable_on_failure = false,
                    .lazy = true,
                    .concurrency = Concurrency::threaded}};
  auto out = ps.run(4);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out.value(), 8);  // only "even" passes the acceptance test
  EXPECT_EQ(ps.acting(), 1u);
  util::ThreadPool::shared().wait_idle();
}

TEST(ParallelSelection, ThreadedDisablesCrashedComponent) {
  using PS = ParallelSelection<int, int>;
  PS ps{{PS::Checked{crashing("primary"), accept_all<int, int>()},
         PS::Checked{good("spare"), accept_all<int, int>()}},
        PS::Options{.concurrency = Concurrency::threaded}};
  auto out = ps.run(3);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out.value(), 6);
  EXPECT_EQ(ps.acting(), 1u);
  // The winning spare may cancel the crasher before it ever starts, and a
  // cancelled component is not a failed one; keep issuing requests until
  // the crasher has actually executed (and failed) once.
  for (int i = 0; i < 100 && ps.alive() == 2; ++i) {
    (void)ps.run(3);
    util::ThreadPool::shared().wait_idle();  // let the straggler settle
  }
  EXPECT_EQ(ps.alive(), 1u);  // folding disables the crasher
}

TEST(ParallelSelection, ThreadedAllFailingIsNoAlternatives) {
  using PS = ParallelSelection<int, int>;
  PS ps{{PS::Checked{crashing("a"), accept_all<int, int>()},
         PS::Checked{crashing("b"), accept_all<int, int>()}},
        PS::Options{.concurrency = Concurrency::threaded}};
  auto out = ps.run(1);
  ASSERT_FALSE(out.has_value());
  EXPECT_EQ(out.error().kind, FailureKind::no_alternatives);
  EXPECT_EQ(ps.metrics().unrecovered, 1u);
  util::ThreadPool::shared().wait_idle();
  EXPECT_EQ(ps.alive(), 0u);
}

TEST(ParallelSelection, ThreadedFirstArrivalWinsOverPriority) {
  using PS = ParallelSelection<int, int>;
  auto slow_primary =
      make_variant<int, int>("slow", [](const int& x) -> Result<int> {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        return x * 2;
      });
  PS ps{{PS::Checked{slow_primary, accept_all<int, int>()},
         PS::Checked{good("fast", 100), accept_all<int, int>()}},
        PS::Options{.disable_on_failure = false,
                    .lazy = true,
                    .concurrency = Concurrency::threaded}};
  auto out = ps.run(1);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out.value(), 102);  // completion order, not priority order
  EXPECT_EQ(ps.acting(), 1u);
  util::ThreadPool::shared().wait_idle();
}

TEST(ParallelSelection, ReinstateRestoresService) {
  using PS = ParallelSelection<int, int>;
  PS ps{{PS::Checked{crashing("a"), accept_all<int, int>()},
         PS::Checked{good("b"), accept_all<int, int>()}}};
  (void)ps.run(1);
  EXPECT_EQ(ps.alive(), 1u);
  ps.reinstate_all();
  EXPECT_EQ(ps.alive(), 2u);
}

// --- Figure 1(c): sequential alternatives ----------------------------------

TEST(SequentialAlternatives, PrimarySufficesWhenHealthy) {
  SequentialAlternatives<int, int> sa{{good("p"), good("alt", 100)},
                                      accept_all<int, int>()};
  auto out = sa.run(2);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out.value(), 4);
  EXPECT_EQ(sa.metrics().variant_executions, 1u);  // alternates untouched
  EXPECT_EQ(sa.last_used(), 0u);
}

TEST(SequentialAlternatives, FallsThroughOnCrash) {
  SequentialAlternatives<int, int> sa{{crashing("p"), good("alt")},
                                      accept_all<int, int>()};
  auto out = sa.run(2);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out.value(), 4);
  EXPECT_EQ(sa.last_used(), 1u);
  EXPECT_EQ(sa.metrics().recoveries, 1u);
}

TEST(SequentialAlternatives, AcceptanceRejectionTriggersAlternate) {
  auto reject_odd = [](const int&, const int& out) { return out % 2 == 0; };
  SequentialAlternatives<int, int> sa{{good("p", 1), good("alt")},
                                      reject_odd};
  auto out = sa.run(2);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out.value(), 4);
}

TEST(SequentialAlternatives, RollbackRunsBeforeEachRetry) {
  int rollbacks = 0;
  SequentialAlternatives<int, int>::Options opts;
  opts.rollback = [&rollbacks] { ++rollbacks; };
  SequentialAlternatives<int, int> sa{
      {crashing("a"), crashing("b"), good("c")}, accept_all<int, int>(),
      opts};
  auto out = sa.run(1);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(rollbacks, 2);
  EXPECT_EQ(sa.metrics().rollbacks, 2u);
}

TEST(SequentialAlternatives, ExhaustionReportsNoAlternatives) {
  SequentialAlternatives<int, int> sa{{crashing("a"), crashing("b")},
                                      accept_all<int, int>()};
  auto out = sa.run(1);
  ASSERT_FALSE(out.has_value());
  EXPECT_EQ(out.error().kind, FailureKind::no_alternatives);
  EXPECT_EQ(sa.metrics().unrecovered, 1u);
}

TEST(SequentialAlternatives, MaxAttemptsBoundsConsumption) {
  SequentialAlternatives<int, int>::Options opts;
  opts.max_attempts = 2;
  SequentialAlternatives<int, int> sa{
      {crashing("a"), crashing("b"), good("c")}, accept_all<int, int>(),
      opts};
  auto out = sa.run(1);
  EXPECT_FALSE(out.has_value());
  EXPECT_EQ(sa.metrics().variant_executions, 2u);
}

TEST(SequentialAlternatives, CostOnlyForExecutedAlternatives) {
  auto expensive = good("alt");
  expensive.cost = 10.0;
  SequentialAlternatives<int, int> sa{{good("p"), expensive},
                                      accept_all<int, int>()};
  (void)sa.run(1);
  EXPECT_DOUBLE_EQ(sa.metrics().cost_units, 1.0);
}

TEST(Metrics, AccumulateAndSummarize) {
  Metrics m;
  m.requests = 2;
  m.variant_executions = 6;
  Metrics n;
  n.requests = 1;
  n.cost_units = 4.0;
  m += n;
  EXPECT_EQ(m.requests, 3u);
  EXPECT_DOUBLE_EQ(m.executions_per_request(), 2.0);
  EXPECT_NE(m.summary().find("requests=3"), std::string::npos);
}

}  // namespace
}  // namespace redundancy::core
