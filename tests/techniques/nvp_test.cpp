#include "techniques/nvp.hpp"

#include <gtest/gtest.h>

#include "faults/campaign.hpp"
#include "faults/fault.hpp"

namespace redundancy::techniques {
namespace {

using core::Result;

int golden(const int& x) { return x * x; }

/// Build N independently-faulty versions with per-version Bohrbug regions.
std::vector<core::Variant<int, int>> versions(std::size_t n, double fault_rate,
                                              bool correlated = false) {
  std::vector<core::Variant<int, int>> out;
  for (std::size_t i = 0; i < n; ++i) {
    faults::FaultInjector<int, int> v{"v" + std::to_string(i), golden};
    const std::uint64_t salt = correlated ? 1234 : 1000 + i;
    v.add(faults::bohrbug<int, int>(
        "bug", fault_rate, salt, core::FailureKind::wrong_output,
        faults::skewed<int, int>(static_cast<int>(i) + 1)));
    out.push_back(v.as_variant());
  }
  return out;
}

TEST(Nvp, AgreementPassesThrough) {
  NVersionProgramming<int, int> nvp{versions(3, 0.0)};
  auto out = nvp.run(6);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out.value(), 36);
}

TEST(Nvp, ToleratedFaultsFormula) {
  EXPECT_EQ((NVersionProgramming<int, int>{versions(1, 0)}).tolerated_faults(), 0u);
  EXPECT_EQ((NVersionProgramming<int, int>{versions(3, 0)}).tolerated_faults(), 1u);
  EXPECT_EQ((NVersionProgramming<int, int>{versions(5, 0)}).tolerated_faults(), 2u);
  EXPECT_EQ((NVersionProgramming<int, int>{versions(9, 0)}).tolerated_faults(), 4u);
}

TEST(Nvp, MasksSingleWrongVersionInTriple) {
  // One version always wrong, two correct: every input must survive.
  std::vector<core::Variant<int, int>> vs = versions(2, 0.0);
  faults::FaultInjector<int, int> bad{"always-wrong", golden};
  bad.add(faults::bohrbug<int, int>("b", 1.0, 5, core::FailureKind::wrong_output,
                                    faults::off_by_one<int, int>()));
  vs.push_back(bad.as_variant());
  NVersionProgramming<int, int> nvp{std::move(vs)};
  for (int x = 0; x < 200; ++x) {
    auto out = nvp.run(x);
    ASSERT_TRUE(out.has_value()) << x;
    EXPECT_EQ(out.value(), x * x);
  }
  EXPECT_EQ(nvp.metrics().unrecovered, 0u);
}

TEST(Nvp, IndependentFaultsMarkedlyImproveReliability) {
  const double p = 0.10;
  auto single_system = versions(1, p);
  auto triple = NVersionProgramming<int, int>{versions(3, p)};
  auto report_single = faults::run_campaign<int, int>(
      "single", 20'000,
      [](std::size_t i, util::Rng&) { return static_cast<int>(i); },
      [&single_system](const int& x) { return single_system[0](x); },
      golden);
  auto report_triple = faults::run_campaign<int, int>(
      "triple", 20'000,
      [](std::size_t i, util::Rng&) { return static_cast<int>(i); },
      [&triple](const int& x) { return triple.run(x); }, golden);
  EXPECT_NEAR(report_single.reliability_value(), 1.0 - p, 0.02);
  // Independent versions: P(fail) ~ 3p^2 = 0.03 -> reliability ~ 0.97+.
  EXPECT_GT(report_triple.reliability_value(),
            report_single.reliability_value() + 0.04);
}

TEST(Nvp, CorrelatedFaultsEraseTheGain) {
  // All three versions share the same failure region (Brilliant-Knight):
  // on those inputs every version is wrong and voting fails or elects a
  // wrong value; reliability stays near the single-version level.
  const double p = 0.10;
  auto triple = NVersionProgramming<int, int>{versions(3, p, /*correlated=*/true)};
  auto report = faults::run_campaign<int, int>(
      "correlated", 20'000,
      [](std::size_t i, util::Rng&) { return static_cast<int>(i); },
      [&triple](const int& x) { return triple.run(x); }, golden);
  EXPECT_LT(report.reliability_value(), 1.0 - p + 0.02);
}

TEST(Nvp, MedianVoterForNumericOutputs) {
  NVersionProgramming<int, int> nvp{versions(3, 0.0), core::median_voter<int>()};
  auto out = nvp.run(4);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out.value(), 16);
}

TEST(Nvp, MetricsCountEveryVersionEveryRequest) {
  NVersionProgramming<int, int> nvp{versions(5, 0.0)};
  for (int i = 0; i < 10; ++i) (void)nvp.run(i);
  EXPECT_EQ(nvp.metrics().variant_executions, 50u);
  EXPECT_DOUBLE_EQ(nvp.metrics().executions_per_request(), 5.0);
  nvp.reset_metrics();
  EXPECT_EQ(nvp.metrics().requests, 0u);
}

TEST(Nvp, EnableCacheMemoizesVerdicts) {
  NVersionProgramming<int, int> nvp{versions(3, 0.0)};
  nvp.enable_cache();
  for (int i = 0; i < 6; ++i) {
    auto out = nvp.run(4);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out.value(), 16);
  }
  EXPECT_EQ(nvp.metrics().variant_executions, 3u);  // one miss, five hits
  EXPECT_EQ(nvp.metrics().requests, 6u);
  ASSERT_NE(nvp.cache(), nullptr);
  nvp.invalidate_cache();
  (void)nvp.run(4);
  EXPECT_EQ(nvp.metrics().variant_executions, 6u);
  nvp.disable_cache();
  EXPECT_EQ(nvp.cache(), nullptr);
}

TEST(Nvp, TaxonomyMatchesPaperRow) {
  const auto t = NVersionProgramming<int, int>::taxonomy();
  EXPECT_EQ(t.intention, core::Intention::deliberate);
  EXPECT_EQ(t.type, core::RedundancyType::code);
  EXPECT_EQ(t.adjudicator, core::AdjudicatorKind::reactive_implicit);
  EXPECT_EQ(t.pattern, core::ArchitecturalPattern::parallel_evaluation);
}

}  // namespace
}  // namespace redundancy::techniques
