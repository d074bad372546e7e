#include "techniques/data_diversity.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "obs/obs.hpp"

namespace redundancy::techniques {
namespace {

using core::Result;

// A "program" with an input-dependent Bohrbug: computing a+b fails on a
// corner region where a happens to equal b (think: a buggy branch for the
// diagonal). Inputs are (a, b) pairs; a + b is preserved under the exact
// re-expression (a+d, b-d) which slides off the diagonal.
struct Pair {
  std::int64_t a = 0;
  std::int64_t b = 0;
  friend bool operator==(const Pair&, const Pair&) = default;
};

Result<std::int64_t> buggy_sum(const Pair& p) {
  if (p.a == p.b) {
    return core::failure(core::FailureKind::crash, "diagonal corner case",
                         core::FaultClass::bohrbug);
  }
  return p.a + p.b;
}

ReExpression<Pair, std::int64_t> shift(std::int64_t d) {
  return {"shift" + std::to_string(d),
          [d](const Pair& p) { return Pair{p.a + d, p.b - d}; },
          nullptr};
}

core::AcceptanceTest<Pair, std::int64_t> plausible_sum() {
  // A loose sanity test (range check): explicit adjudicator of the retry
  // block — it need not know the exact answer.
  return [](const Pair& p, const std::int64_t& out) {
    return out == p.a + p.b;
  };
}

TEST(RetryBlock, IdentityUsedWhenInputIsBenign) {
  RetryBlock<Pair, std::int64_t> rb{
      buggy_sum, {identity_reexpression<Pair, std::int64_t>(), shift(1)},
      plausible_sum()};
  auto out = rb.run(Pair{2, 5});
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out.value(), 7);
  EXPECT_EQ(rb.metrics().variant_executions, 1u);
}

TEST(RetryBlock, ReExpressionSlidesOffTheCornerCase) {
  RetryBlock<Pair, std::int64_t> rb{
      buggy_sum, {identity_reexpression<Pair, std::int64_t>(), shift(1)},
      plausible_sum()};
  auto out = rb.run(Pair{4, 4});  // diagonal: identity fails
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out.value(), 8);
  EXPECT_EQ(rb.metrics().recoveries, 1u);
}

TEST(RetryBlock, FailsOnlyWhenAllReExpressionsHitTheFaultRegion) {
  // A pathological re-expression that maps back onto the diagonal.
  ReExpression<Pair, std::int64_t> useless{
      "useless", [](const Pair& p) { return p; }, nullptr};
  RetryBlock<Pair, std::int64_t> rb{
      buggy_sum, {identity_reexpression<Pair, std::int64_t>(), useless},
      plausible_sum()};
  EXPECT_FALSE(rb.run(Pair{3, 3}).has_value());
}

TEST(RetryBlock, RecoveryTransformMapsOutputBack) {
  // Program computes 10*a; re-express by doubling a, recover by halving.
  auto times10 = [](const Pair& p) -> Result<std::int64_t> {
    if (p.a == 7) return core::failure(core::FailureKind::crash, "corner");
    return 10 * p.a;
  };
  ReExpression<Pair, std::int64_t> doubled{
      "double-a", [](const Pair& p) { return Pair{p.a * 2, p.b}; },
      [](const Pair&, const std::int64_t& out) { return out / 2; }};
  RetryBlock<Pair, std::int64_t> rb{
      times10, {identity_reexpression<Pair, std::int64_t>(), doubled},
      [](const Pair& p, const std::int64_t& out) { return out == 10 * p.a; }};
  auto out = rb.run(Pair{7, 0});
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out.value(), 70);
}

TEST(RetryBlock, ReportsUnderDataDiversity) {
  if (!obs::kCompiledIn) {
    GTEST_SKIP() << "obs compiled out (REDUNDANCY_OBS_NOOP)";
  }
  obs::Counter& requests =
      obs::counter(obs::TechniqueCounters::kRequests, "data_diversity");
  const std::uint64_t requests0 = requests.total();
  RetryBlock<Pair, std::int64_t> rb{
      buggy_sum, {identity_reexpression<Pair, std::int64_t>(), shift(1)},
      plausible_sum()};
  auto& recorder = obs::Recorder::instance();
  auto sink = std::make_shared<obs::CollectingSink>();
  recorder.clear_sinks();
  recorder.set_sample_every(1);
  recorder.add_sink(sink);
  recorder.set_enabled(true);
  const auto out = rb.run(Pair{4, 4});
  recorder.flush();
  recorder.set_enabled(false);
  recorder.clear_sinks();
  ASSERT_TRUE(out.has_value());
  ASSERT_EQ(sink->adjudications().size(), 1u);
  EXPECT_EQ(sink->adjudications()[0].technique, "data_diversity");
  EXPECT_EQ(requests.total() - requests0, 1u);
}

TEST(NCopy, MajorityAcrossReExpressedCopies) {
  NCopyProgramming<Pair, std::int64_t> nc{
      buggy_sum,
      {identity_reexpression<Pair, std::int64_t>(), shift(1), shift(2)}};
  // On the diagonal the identity copy crashes but both shifted copies agree.
  auto out = nc.run(Pair{5, 5});
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out.value(), 10);
  EXPECT_EQ(nc.copies(), 3u);
  EXPECT_EQ(nc.metrics().recoveries, 1u);
}

TEST(NCopy, AllCopiesRunEveryRequest) {
  NCopyProgramming<Pair, std::int64_t> nc{
      buggy_sum,
      {identity_reexpression<Pair, std::int64_t>(), shift(1), shift(2)}};
  for (int i = 0; i < 5; ++i) (void)nc.run(Pair{i, i + 1});
  EXPECT_EQ(nc.metrics().variant_executions, 15u);
}

TEST(NCopy, ApproximateReExpressionWithApproxVoter) {
  // A numeric kernel where re-expression perturbs the result slightly:
  // approximate data diversity needs an inexact voter.
  auto kernel = [](const double& x) -> Result<double> {
    return std::sqrt(x);
  };
  std::vector<ReExpression<double, double>> res{
      {"id", [](const double& x) { return x; }, nullptr},
      {"eps+", [](const double& x) { return x * (1 + 1e-12); }, nullptr},
      {"eps-", [](const double& x) { return x * (1 - 1e-12); }, nullptr},
  };
  NCopyProgramming<double, double> nc{
      kernel, res, core::majority_voter<double>(core::ApproxEq{1e-9})};
  auto out = nc.run(2.0);
  ASSERT_TRUE(out.has_value());
  EXPECT_NEAR(out.value(), std::sqrt(2.0), 1e-9);
}

TEST(DataDiversity, TaxonomyMatchesPaperRow) {
  const auto t = RetryBlock<Pair, std::int64_t>::taxonomy();
  EXPECT_EQ(t.type, core::RedundancyType::data);
  EXPECT_EQ(t.adjudicator, core::AdjudicatorKind::reactive_hybrid);
}

}  // namespace
}  // namespace redundancy::techniques
