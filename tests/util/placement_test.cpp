// util::Placement — the one learned pool-or-caller rule that gateway routes
// and threaded join-all electorates share, driven with synthetic run times.
#include "util/placement.hpp"

#include <gtest/gtest.h>

namespace redundancy::util {
namespace {

constexpr std::uint64_t kUnder = Placement::kInlineBudgetNs - 1;
constexpr std::uint64_t kOver = Placement::kInlineBudgetNs;

void observe_under(Placement& p, std::uint32_t runs) {
  for (std::uint32_t i = 0; i < runs; ++i) p.observe(kUnder);
}

TEST(Placement, StreakUnderBudgetEarnsTheCallingThread) {
  Placement p;
  EXPECT_FALSE(p.inline_ok());
  observe_under(p, Placement::kInlineStreak - 1);
  EXPECT_FALSE(p.inline_ok());
  p.observe(kUnder);
  EXPECT_TRUE(p.inline_ok());
  observe_under(p, 1000);  // the streak saturates and stays earned
  EXPECT_TRUE(p.inline_ok());
}

TEST(Placement, OneRunAtOrOverBudgetRestartsTheStreak) {
  Placement p;
  observe_under(p, Placement::kInlineStreak);
  ASSERT_TRUE(p.inline_ok());
  p.observe(kOver);
  EXPECT_FALSE(p.inline_ok());
  observe_under(p, Placement::kInlineStreak - 1);
  EXPECT_FALSE(p.inline_ok()) << "the streak restarts from zero";
  p.observe(kUnder);
  EXPECT_TRUE(p.inline_ok());

  // An over-budget run in the middle of a streak restarts it too.
  Placement q;
  observe_under(q, Placement::kInlineStreak - 1);
  q.observe(kOver);
  observe_under(q, Placement::kInlineStreak - 1);
  EXPECT_FALSE(q.inline_ok());
}

TEST(Placement, ResetSendsTheWorkBackToThePool) {
  Placement p;
  observe_under(p, Placement::kInlineStreak);
  ASSERT_TRUE(p.inline_ok());
  p.reset();
  EXPECT_FALSE(p.inline_ok());
}

}  // namespace
}  // namespace redundancy::util
