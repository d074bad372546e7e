#include "core/adaptive.hpp"

#include <gtest/gtest.h>

#include "faults/fault.hpp"
#include "techniques/nvp.hpp"

namespace redundancy::core {
namespace {

std::vector<Ballot<int>> ballots(std::vector<Result<int>> results) {
  std::vector<Ballot<int>> out;
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::string name = "v";
    name += std::to_string(i);
    out.push_back({i, std::move(name), std::move(results[i])});
  }
  return out;
}

TEST(ReliabilityTracker, StartsNeutral) {
  ReliabilityTracker tracker{3};
  EXPECT_DOUBLE_EQ(tracker.reliability(0), 0.5);
  EXPECT_DOUBLE_EQ(tracker.reliability(2), 0.5);
  EXPECT_DOUBLE_EQ(tracker.reliability(99), 0.5);  // out of range: neutral
}

TEST(ReliabilityTracker, LearnsFromAgreement) {
  ReliabilityTracker tracker{2};
  for (int i = 0; i < 50; ++i) {
    tracker.observe<int>(ballots({7, 8}), 7);  // variant 1 always disagrees
  }
  EXPECT_GT(tracker.reliability(0), 0.9);
  EXPECT_LT(tracker.reliability(1), 0.1);
}

TEST(ReliabilityTracker, FailedBallotsCountAsDisagreement) {
  ReliabilityTracker tracker{2};
  tracker.observe<int>(ballots({7, failure(FailureKind::crash)}), 7);
  EXPECT_GT(tracker.reliability(0), tracker.reliability(1));
}

TEST(AdaptiveVoter, ElectsAndLearns) {
  ReliabilityTracker tracker{3};
  auto voter = adaptive_voter<int>(tracker);
  auto out = voter(ballots({5, 5, 9}));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out.value(), 5);
  EXPECT_GT(tracker.reliability(0), tracker.reliability(2));
}

TEST(AdaptiveVoter, LearnedWeightsBreakOneVsOneTies) {
  // With only 2 variants a plain vote has no way to break a disagreement;
  // once weights are learned, the historically reliable variant wins.
  ReliabilityTracker tracker{2};
  auto voter = adaptive_voter<int>(tracker);
  // Warm up: both agree for a while, then variant 1 develops a fault and
  // keeps disagreeing. Train on 3-way rounds first.
  for (int i = 0; i < 30; ++i) {
    (void)tracker.observe<int>(ballots({1, 1}), 1);
  }
  for (int i = 0; i < 30; ++i) {
    (void)tracker.observe<int>(ballots({1, 2}), 1);
  }
  auto out = voter(ballots({42, 17}));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out.value(), 42);  // the trusted variant's answer
}

TEST(AdaptiveVoter, ConvergesInsideNvpAgainstADegradedVersion) {
  // 3 versions; version 2 degrades badly. The adaptive voter should end up
  // trusting versions 0 and 1 and keep electing the correct value even on
  // inputs where version 2 and version 1 both misbehave differently.
  auto golden = [](const int& x) { return x * 9; };
  std::vector<Variant<int, int>> versions;
  for (int i = 0; i < 3; ++i) {
    faults::FaultInjector<int, int> v{"v" + std::to_string(i), golden};
    const double rate = i == 2 ? 0.6 : 0.05;
    v.add(faults::bohrbug<int, int>(
        "b", rate, 300 + static_cast<std::uint64_t>(i),
        FailureKind::wrong_output, faults::skewed<int, int>(i + 1)));
    versions.push_back(v.as_variant());
  }
  ReliabilityTracker tracker{3};
  techniques::NVersionProgramming<int, int> nvp{std::move(versions),
                                                adaptive_voter<int>(tracker)};
  std::size_t correct = 0;
  for (int x = 0; x < 5000; ++x) {
    auto out = nvp.run(x);
    if (out.has_value() && out.value() == golden(x)) ++correct;
  }
  EXPECT_GT(correct, 4700u);
  EXPECT_LT(tracker.reliability(2), tracker.reliability(0));
  EXPECT_LT(tracker.reliability(2), 0.6);
  EXPECT_GT(tracker.reliability(0), 0.9);
}

}  // namespace
}  // namespace redundancy::core
