// Result caching woven through the Figure-1 pattern executors: a hit must
// skip the whole electorate (and the voter / acceptance tests) while the
// request metrics keep counting, and invalidation must force re-execution.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "core/cache_epoch.hpp"
#include "core/parallel_evaluation.hpp"
#include "core/parallel_selection.hpp"
#include "core/redundancy_cache.hpp"
#include "core/sequential_alternatives.hpp"
#include "core/voters.hpp"

namespace redundancy::core {
namespace {

ParallelEvaluation<int, int> make_nvp(std::atomic<int>& executions) {
  std::vector<Variant<int, int>> variants;
  for (int v = 0; v < 3; ++v) {
    variants.push_back(make_variant<int, int>(
        "v" + std::to_string(v), [&executions](const int& in) -> Result<int> {
          ++executions;
          return in * 2;
        }));
  }
  return ParallelEvaluation<int, int>{std::move(variants),
                                     majority_voter<int>()};
}

TEST(PatternCache, ParallelEvaluationHitSkipsTheElectorate) {
  std::atomic<int> executions{0};
  auto nvp = make_nvp(executions);
  nvp.set_obs_label("pc_nvp");
  nvp.enable_cache();

  for (int i = 0; i < 5; ++i) {
    auto r = nvp.run(21);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r.value(), 42);
  }
  EXPECT_EQ(executions.load(), 3);  // one miss ran the 3 variants, once
  EXPECT_EQ(nvp.metrics().requests, 5u);
  EXPECT_EQ(nvp.metrics().variant_executions, 3u);
  ASSERT_NE(nvp.cache(), nullptr);
  EXPECT_EQ(nvp.cache()->stats().hits, 4u);
}

TEST(PatternCache, DistinctInputsAndLabelsKeySeparately) {
  std::atomic<int> executions{0};
  auto nvp = make_nvp(executions);
  nvp.set_obs_label("pc_nvp_keys");
  nvp.enable_cache();
  EXPECT_EQ(nvp.run(1).value(), 2);
  EXPECT_EQ(nvp.run(2).value(), 4);
  EXPECT_EQ(nvp.run(1).value(), 2);  // hit, not a collision with input 2
  EXPECT_EQ(executions.load(), 6);   // two misses
}

TEST(PatternCache, InvalidateCacheForcesReexecution) {
  std::atomic<int> executions{0};
  auto nvp = make_nvp(executions);
  nvp.set_obs_label("pc_nvp_inval");
  nvp.enable_cache();
  (void)nvp.run(3);
  (void)nvp.run(3);
  EXPECT_EQ(executions.load(), 3);
  nvp.invalidate_cache();
  (void)nvp.run(3);
  EXPECT_EQ(executions.load(), 6);
}

TEST(PatternCache, RestartEpochInvalidatesPatternCaches) {
  std::atomic<int> executions{0};
  auto nvp = make_nvp(executions);
  nvp.set_obs_label("pc_nvp_epoch");
  nvp.enable_cache();
  (void)nvp.run(3);
  EXPECT_EQ(executions.load(), 3);
  // What rejuvenation / microreboot emit on every restart event.
  advance_cache_epoch();
  (void)nvp.run(3);
  EXPECT_EQ(executions.load(), 6);
}

TEST(PatternCache, DisableCacheRestoresPlainExecution) {
  std::atomic<int> executions{0};
  auto nvp = make_nvp(executions);
  nvp.set_obs_label("pc_nvp_disable");
  nvp.enable_cache();
  (void)nvp.run(4);
  nvp.disable_cache();
  EXPECT_EQ(nvp.cache(), nullptr);
  (void)nvp.run(4);
  (void)nvp.run(4);
  EXPECT_EQ(executions.load(), 9);  // every post-disable run executes
}

TEST(PatternCache, FailedVerdictsAreRetriedNotMemoized) {
  // All variants disagree -> adjudication fails; the failure must not be
  // served from cache (default cache_failures=false), so a later fixed
  // electorate can succeed.
  std::atomic<int> calls{0};
  std::vector<Variant<int, int>> variants;
  for (int v = 0; v < 3; ++v) {
    variants.push_back(make_variant<int, int>(
        "v" + std::to_string(v), [&calls, v](const int&) -> Result<int> {
          ++calls;
          return calls.load() > 3 ? 7 : v;  // disagree once, then agree
        }));
  }
  ParallelEvaluation<int, int> nvp{std::move(variants), majority_voter<int>()};
  nvp.set_obs_label("pc_nvp_fail");
  nvp.enable_cache();
  EXPECT_FALSE(nvp.run(1).has_value());
  auto r = nvp.run(1);  // re-ran: the electorate now agrees
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r.value(), 7);
}

TEST(PatternCache, ParallelSelectionHitSkipsComponentsAndChecks) {
  std::atomic<int> executions{0};
  std::atomic<int> checks{0};
  std::vector<typename ParallelSelection<int, int>::Checked> components;
  components.push_back(
      {make_variant<int, int>("primary",
                              [&](const int& in) -> Result<int> {
                                ++executions;
                                return in + 100;
                              }),
       [&](const int&, const int&) {
         ++checks;
         return true;
       }});
  ParallelSelection<int, int> selection{std::move(components)};
  selection.set_obs_label("pc_selection");
  selection.enable_cache();

  for (int i = 0; i < 4; ++i) {
    auto r = selection.run(1);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r.value(), 101);
  }
  EXPECT_EQ(executions.load(), 1);
  EXPECT_EQ(checks.load(), 1);  // cached verdicts skip the acceptance test
  EXPECT_EQ(selection.metrics().requests, 4u);
}

TEST(PatternCache, SequentialAlternativesHitSkipsAlternatives) {
  std::atomic<int> executions{0};
  SequentialAlternatives<int, int> engine{
      {make_variant<int, int>("only",
                              [&](const int& in) -> Result<int> {
                                ++executions;
                                return in - 1;
                              })},
      accept_all<int, int>()};
  engine.set_obs_label("pc_seq");
  engine.enable_cache();
  for (int i = 0; i < 3; ++i) {
    auto r = engine.run(10);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r.value(), 9);
  }
  EXPECT_EQ(executions.load(), 1);
  EXPECT_EQ(engine.metrics().requests, 3u);
}

}  // namespace
}  // namespace redundancy::core
