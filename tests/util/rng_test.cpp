#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

namespace redundancy::util {
namespace {

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a{42}, b{42};
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1}, b{2};
  std::size_t equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng{7};
  double sum = 0.0;
  for (int i = 0; i < 100'000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 100'000.0, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng{7};
  for (int i = 0; i < 10'000; ++i) {
    const double v = rng.uniform(-3.0, 5.0);
    ASSERT_GE(v, -3.0);
    ASSERT_LT(v, 5.0);
  }
}

class RngBelowTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngBelowTest, StaysBelowBoundAndCoversRange) {
  const std::uint64_t bound = GetParam();
  Rng rng{bound * 977 + 3};
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = rng.below(bound);
    ASSERT_LT(v, bound);
    seen.insert(v);
  }
  if (bound <= 16) {
    EXPECT_EQ(seen.size(), bound);  // all values hit
  }
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngBelowTest,
                         ::testing::Values(1, 2, 3, 7, 16, 1000, 1'000'000));

TEST(Rng, BetweenIsInclusive) {
  Rng rng{11};
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    const std::int64_t v = rng.between(-2, 2);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 2);
    saw_lo = saw_lo || v == -2;
    saw_hi = saw_hi || v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceMatchesProbability) {
  Rng rng{5};
  int hits = 0;
  for (int i = 0; i < 100'000; ++i) hits += rng.chance(0.2) ? 1 : 0;
  EXPECT_NEAR(hits / 100'000.0, 0.2, 0.01);
}

TEST(Rng, ChanceExtremes) {
  Rng rng{5};
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng{13};
  double sum = 0.0;
  for (int i = 0; i < 200'000; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / 200'000.0, 4.0, 0.1);
}

TEST(Rng, NormalHasRequestedMoments) {
  Rng rng{17};
  double sum = 0.0, sq = 0.0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(sq / n - mean * mean, 4.0, 0.1);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng{19};
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[static_cast<std::size_t>(i)] = i;
  auto original = v;
  rng.shuffle(v);
  EXPECT_NE(v, original);  // astronomically unlikely to be identity
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent{23};
  Rng child_a = parent.split();
  Rng child_b = parent.split();
  std::size_t equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (child_a() == child_b()) ++equal;
  }
  EXPECT_LT(equal, 3u);
}

TEST(Rng, SplitmixIsDeterministic) {
  std::uint64_t s1 = 99, s2 = 99;
  EXPECT_EQ(splitmix64(s1), splitmix64(s2));
  EXPECT_EQ(s1, s2);
}

}  // namespace
}  // namespace redundancy::util
