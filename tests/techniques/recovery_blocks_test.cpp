#include "techniques/recovery_blocks.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "faults/fault.hpp"
#include "util/thread_pool.hpp"

namespace redundancy::techniques {
namespace {

using core::Result;

core::Variant<int, int> square(std::string name) {
  return core::make_variant<int, int>(std::move(name),
                                      [](const int& x) -> Result<int> {
                                        return x * x;
                                      });
}

core::Variant<int, int> wrong(std::string name) {
  return core::make_variant<int, int>(std::move(name),
                                      [](const int& x) -> Result<int> {
                                        return x * x + 1;
                                      });
}

core::AcceptanceTest<int, int> square_acceptance() {
  return [](const int& x, const int& out) { return out == x * x; };
}

TEST(RecoveryBlocks, PrimaryPassesAcceptance) {
  RecoveryBlocks<int, int> rb{{square("primary"), square("alt")},
                              square_acceptance()};
  auto out = rb.run(5);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out.value(), 25);
  EXPECT_EQ(rb.last_used_alternate(), 0u);
  EXPECT_EQ(rb.metrics().variant_executions, 1u);
}

TEST(RecoveryBlocks, AlternateRunsWhenPrimaryRejected) {
  RecoveryBlocks<int, int> rb{{wrong("primary"), square("alt")},
                              square_acceptance()};
  auto out = rb.run(5);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out.value(), 25);
  EXPECT_EQ(rb.last_used_alternate(), 1u);
  EXPECT_EQ(rb.metrics().recoveries, 1u);
}

TEST(RecoveryBlocks, WeakAcceptanceLetsWrongResultsThrough) {
  // The acceptance test is the single point of trust: a vacuous test
  // accepts the faulty primary and the redundancy never engages.
  RecoveryBlocks<int, int> rb{{wrong("primary"), square("alt")},
                              core::accept_all<int, int>()};
  auto out = rb.run(5);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out.value(), 26);
}

TEST(RecoveryBlocks, ExhaustionFails) {
  RecoveryBlocks<int, int> rb{{wrong("a"), wrong("b")}, square_acceptance()};
  auto out = rb.run(2);
  ASSERT_FALSE(out.has_value());
  EXPECT_EQ(out.error().kind, core::FailureKind::no_alternatives);
}

/// Stateful subject: alternates mutate shared state; rollback must undo it.
class Ledger final : public env::Checkpointable {
 public:
  std::vector<std::int64_t> entries;
  [[nodiscard]] util::ByteBuffer snapshot() const override {
    util::ByteBuffer buf;
    buf.put(static_cast<std::uint32_t>(entries.size()));
    for (auto v : entries) buf.put(v);
    return buf;
  }
  void restore(const util::ByteBuffer& state) override {
    auto r = state.reader();
    entries.assign(r.get<std::uint32_t>(), 0);
    for (auto& v : entries) v = r.get<std::int64_t>();
  }
};

TEST(RecoveryBlocks, RollbackUndoesPartialStateBeforeAlternate) {
  Ledger ledger;
  ledger.entries = {1, 2};
  // Primary appends garbage then fails acceptance; the alternate must see
  // the pre-primary state.
  auto dirty_primary = core::make_variant<int, int>(
      "dirty", [&ledger](const int& x) -> Result<int> {
        ledger.entries.push_back(-999);
        return x * x + 1;  // will be rejected
      });
  std::size_t observed_size_at_alt = 0;
  auto clean_alt = core::make_variant<int, int>(
      "clean", [&ledger, &observed_size_at_alt](const int& x) -> Result<int> {
        observed_size_at_alt = ledger.entries.size();
        ledger.entries.push_back(x);
        return x * x;
      });
  RecoveryBlocks<int, int> rb{{dirty_primary, clean_alt}, square_acceptance(),
                              ledger};
  auto out = rb.run(3);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(observed_size_at_alt, 2u);  // the -999 was rolled back
  EXPECT_EQ(ledger.entries, (std::vector<std::int64_t>{1, 2, 3}));
  EXPECT_EQ(rb.metrics().rollbacks, 1u);
}

TEST(RecoveryBlocks, SequentialCostOnlyWhatRan) {
  RecoveryBlocks<int, int> rb{{square("p"), square("a1"), square("a2")},
                              square_acceptance()};
  for (int i = 0; i < 10; ++i) (void)rb.run(i);
  EXPECT_DOUBLE_EQ(rb.metrics().executions_per_request(), 1.0);
}

TEST(RecoveryBlocks, CrashingPrimaryAlsoTriggersAlternate) {
  faults::FaultInjector<int, int> crashy{"crashy", [](const int& x) {
    return x * x;
  }};
  crashy.add(faults::bohrbug<int, int>("b", 1.0, 3, core::FailureKind::crash));
  RecoveryBlocks<int, int> rb{{crashy.as_variant(), square("alt")},
                              square_acceptance()};
  auto out = rb.run(4);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out.value(), 16);
}

TEST(RecoveryBlocks, TaxonomyMatchesPaperRow) {
  const auto t = RecoveryBlocks<int, int>::taxonomy();
  EXPECT_EQ(t.adjudicator, core::AdjudicatorKind::reactive_explicit);
  EXPECT_EQ(t.pattern, core::ArchitecturalPattern::sequential_alternatives);
}

TEST(RecoveryBlocks, EnableCacheSkipsAlternatesOnRepeats) {
  RecoveryBlocks<int, int> rb{{wrong("primary"), square("alt")},
                              square_acceptance()};
  rb.enable_cache();
  for (int i = 0; i < 4; ++i) {
    auto out = rb.run(5);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out.value(), 25);
  }
  // The miss ran primary + alternate; hits ran neither.
  EXPECT_EQ(rb.metrics().variant_executions, 2u);
  EXPECT_EQ(rb.metrics().requests, 4u);
}

TEST(RecoveryBlocks, EnableHedgingRacesAlternatesOnSlowPrimary) {
  RecoveryBlocks<int, int> rb{
      {core::make_variant<int, int>("slow-primary",
                                    [](const int& x) -> Result<int> {
                                      std::this_thread::sleep_for(
                                          std::chrono::milliseconds(100));
                                      return x * x;
                                    }),
       square("fast-alt")},
      square_acceptance()};
  typename core::SequentialAlternatives<int, int>::Options::Hedge hedge;
  hedge.enabled = true;
  hedge.fallback_budget_ns = 2'000'000;  // hedge after 2ms
  hedge.min_samples = 1'000'000;         // pin to the fallback budget
  hedge.min_budget_ns = 0;
  rb.enable_hedging(hedge);
  EXPECT_EQ(rb.hedge_budget_ns(), 2'000'000u);

  const auto start = std::chrono::steady_clock::now();
  auto out = rb.run(6);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out.value(), 36);
  EXPECT_LT(elapsed, std::chrono::milliseconds(80))
      << "the fast alternate should win long before the primary finishes";
  util::ThreadPool::shared().wait_idle();
  EXPECT_GE(rb.metrics().hedged_launches, 1u);
}

// --- concurrent form --------------------------------------------------------

TEST(ConcurrentRecoveryBlocks, FirstPassingResultWins) {
  ConcurrentRecoveryBlocks<int, int> rb{{wrong("primary"), square("alt")},
                                        square_acceptance()};
  auto out = rb.run(5);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out.value(), 25);
  EXPECT_EQ(rb.last_used_alternate(), 1u);
  util::ThreadPool::shared().wait_idle();
}

TEST(ConcurrentRecoveryBlocks, RejectedAlternateStaysInService) {
  ConcurrentRecoveryBlocks<int, int> rb{{wrong("primary"), square("alt")},
                                        square_acceptance()};
  for (int i = 0; i < 5; ++i) {
    auto out = rb.run(i);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out.value(), i * i);
  }
  util::ThreadPool::shared().wait_idle();
  // Rejection reflects the input, not component death: the primary keeps
  // being tried (and keeps failing) on every request.
  EXPECT_EQ(rb.metrics().disabled_components, 0u);
}

TEST(ConcurrentRecoveryBlocks, ExhaustionFails) {
  ConcurrentRecoveryBlocks<int, int> rb{{wrong("a"), wrong("b")},
                                        square_acceptance()};
  auto out = rb.run(2);
  ASSERT_FALSE(out.has_value());
  EXPECT_EQ(out.error().kind, core::FailureKind::no_alternatives);
  util::ThreadPool::shared().wait_idle();
}

}  // namespace
}  // namespace redundancy::techniques
