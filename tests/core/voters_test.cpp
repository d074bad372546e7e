#include "core/voters.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace redundancy::core {
namespace {

template <typename Out>
std::vector<Ballot<Out>> make_ballots(std::vector<Result<Out>> results) {
  std::vector<Ballot<Out>> ballots;
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::string name = "v";
    name += std::to_string(i);
    ballots.push_back({i, std::move(name), std::move(results[i])});
  }
  return ballots;
}

Result<int> crash() { return failure(FailureKind::crash); }

TEST(MajorityVoter, UnanimousWins) {
  auto v = majority_voter<int>();
  auto out = v(make_ballots<int>({7, 7, 7}));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out.value(), 7);
}

TEST(MajorityVoter, TwoOfThreeWins) {
  auto v = majority_voter<int>();
  auto out = v(make_ballots<int>({7, 9, 7}));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out.value(), 7);
}

TEST(MajorityVoter, FailedBallotsCountAgainstQuorum) {
  auto v = majority_voter<int>();
  // 2 agreeing out of 5 total: not a strict majority of N.
  auto out = v(make_ballots<int>({7, 7, crash(), crash(), crash()}));
  EXPECT_FALSE(out.has_value());
  EXPECT_EQ(out.error().kind, FailureKind::adjudication_failed);
}

TEST(MajorityVoter, ThreeWayDisagreementFails) {
  auto v = majority_voter<int>();
  auto out = v(make_ballots<int>({1, 2, 3}));
  EXPECT_FALSE(out.has_value());
}

TEST(MajorityVoter, EmptyFails) {
  auto v = majority_voter<int>();
  EXPECT_FALSE(v({}).has_value());
}

// Property: with N = 2k+1 versions and exactly f wrong (distinct) answers,
// the majority voter succeeds iff f <= k.
class MajorityToleranceTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(MajorityToleranceTest, ToleratesUpToKFaults) {
  const auto [k, f_raw] = GetParam();
  const std::size_t n = 2 * k + 1;
  const std::size_t f = std::min(f_raw, n);  // at most every version faulty
  std::vector<Result<int>> results;
  for (std::size_t i = 0; i < n; ++i) {
    if (i < f) {
      results.emplace_back(1000 + static_cast<int>(i));  // distinct wrong
    } else {
      results.emplace_back(42);
    }
  }
  auto out = majority_voter<int>()(make_ballots<int>(std::move(results)));
  if (f <= k) {
    ASSERT_TRUE(out.has_value()) << "k=" << k << " f=" << f;
    EXPECT_EQ(out.value(), 42);
  } else {
    // Beyond the 2k+1 bound the vote must not elect the correct value; with
    // distinct wrong answers it can only fail — or, degenerately (n=1,
    // f=1), elect a wrong one.
    EXPECT_TRUE(!out.has_value() || out.value() != 42)
        << "k=" << k << " f=" << f;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MajorityToleranceTest,
    ::testing::Combine(::testing::Values(0u, 1u, 2u, 3u, 4u),
                       ::testing::Values(0u, 1u, 2u, 3u, 4u, 5u)));

TEST(PluralityVoter, LargestGroupWins) {
  auto v = plurality_voter<int>();
  auto out = v(make_ballots<int>({5, 5, 9, 3}));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out.value(), 5);
}

TEST(PluralityVoter, TieFails) {
  auto v = plurality_voter<int>();
  EXPECT_FALSE(v(make_ballots<int>({5, 5, 9, 9})).has_value());
}

TEST(PluralityVoter, IgnoresFailuresInDenominator) {
  auto v = plurality_voter<int>();
  // Plurality (unlike majority) only looks at produced values.
  auto out = v(make_ballots<int>({7, 7, crash(), crash(), crash()}));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out.value(), 7);
}

TEST(PluralityVoter, AllFailedFails) {
  auto v = plurality_voter<int>();
  EXPECT_FALSE(v(make_ballots<int>({crash(), crash()})).has_value());
}

TEST(UnanimityVoter, AgreementPasses) {
  auto v = unanimity_voter<int>();
  auto out = v(make_ballots<int>({4, 4, 4}));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out.value(), 4);
}

TEST(UnanimityVoter, AnyDivergenceIsDetectedAttack) {
  auto v = unanimity_voter<int>();
  auto out = v(make_ballots<int>({4, 4, 5}));
  ASSERT_FALSE(out.has_value());
  EXPECT_EQ(out.error().kind, FailureKind::detected_attack);
}

TEST(UnanimityVoter, AnyFailureIsDetectedAttack) {
  auto v = unanimity_voter<int>();
  auto out = v(make_ballots<int>({4, crash(), 4}));
  ASSERT_FALSE(out.has_value());
  EXPECT_EQ(out.error().kind, FailureKind::detected_attack);
}

TEST(MedianVoter, PicksMedianOfSuccesses) {
  auto v = median_voter<int>();
  auto out = v(make_ballots<int>({10, 2, 99}));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out.value(), 10);
}

TEST(MedianVoter, SkipsFailures) {
  auto v = median_voter<int>();
  auto out = v(make_ballots<int>({crash(), 8, crash()}));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out.value(), 8);
}

TEST(WeightedVoter, WeightsDecide) {
  auto v = weighted_voter<int>({5.0, 1.0, 1.0});
  auto out = v(make_ballots<int>({1, 2, 2}));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out.value(), 1);  // one heavy supporter beats two light ones
}

TEST(WeightedVoter, MajorityRequirementEnforced) {
  auto v = weighted_voter<int>({1.0, 1.0, 1.0, 1.0}, /*require_majority=*/true);
  // 2 of weight-4 total agree: exactly half, not a strict majority.
  EXPECT_FALSE(v(make_ballots<int>({1, 1, 2, 3})).has_value());
}

// Property sweep over random ballot sets: the fundamental voter contracts
// hold for any input.
class VoterPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VoterPropertyTest, ContractsHoldOnRandomBallots) {
  util::Rng rng{GetParam()};
  const std::size_t n = 1 + rng.index(9);
  std::vector<Ballot<int>> ballots;
  std::vector<int> values;
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.chance(0.2)) {
      ballots.push_back({i, "v", crash()});
    } else {
      const int v = static_cast<int>(rng.below(4));
      ballots.push_back({i, "v", Result<int>{v}});
      values.push_back(v);
    }
  }
  auto support = [&values](int v) {
    return static_cast<std::size_t>(
        std::count(values.begin(), values.end(), v));
  };
  // Majority: an elected value must have strict-majority support of N.
  if (auto out = majority_voter<int>()(ballots); out.has_value()) {
    EXPECT_GT(2 * support(out.value()), n);
  } else {
    // And conversely: no value may have had majority support.
    for (int v = 0; v < 4; ++v) EXPECT_LE(2 * support(v), n);
  }
  // Plurality: an elected value has at least as much support as any other.
  if (auto out = plurality_voter<int>()(ballots); out.has_value()) {
    for (int v = 0; v < 4; ++v) {
      EXPECT_GE(support(out.value()), support(v));
    }
  }
  // Unanimity: succeeds iff no failures and all values equal.
  const bool all_equal =
      values.size() == n &&
      std::all_of(values.begin(), values.end(),
                  [&values](int v) { return v == values.front(); });
  EXPECT_EQ(unanimity_voter<int>()(ballots).has_value(), all_equal && n > 0);
  // Median: elected value is one of the submitted values.
  if (auto out = median_voter<int>()(ballots); out.has_value()) {
    EXPECT_NE(std::find(values.begin(), values.end(), out.value()),
              values.end());
  } else {
    EXPECT_TRUE(values.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VoterPropertyTest,
                         ::testing::Range<std::uint64_t>(0, 60));

TEST(ApproxEq, ToleratesRelativeError) {
  ApproxEq eq{1e-6};
  EXPECT_TRUE(eq(1'000'000.0, 1'000'000.5));
  EXPECT_FALSE(eq(1.0, 1.1));
}

TEST(MajorityVoter, ApproxEqualityGroupsNeighbours) {
  auto v = majority_voter<double>(ApproxEq{1e-9});
  const std::vector<double> values{3.14159265358979, 3.141592653589791, 0.0};
  auto out = v(make_ballots<double>({values.begin(), values.end()}));
  ASSERT_TRUE(out.has_value());
  EXPECT_NEAR(out.value(), 3.14159265358979, 1e-9);
}

}  // namespace
}  // namespace redundancy::core
