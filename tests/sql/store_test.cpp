// Per-engine behaviour tests plus the differential property test: the
// three independently designed engines must be observationally identical —
// same outputs, same state digests — under arbitrary operation sequences.
// (That equivalence is exactly what makes them usable as NVP versions.)
#include <gtest/gtest.h>

#include "sql/store.hpp"
#include "util/rng.hpp"

namespace redundancy::sql {
namespace {

// The parameter carries the engine's name because test discovery names each
// case after the printed parameter: a bare factory pointer would print as an
// address that changes with every build and every run.
struct Engine {
  const char* name;
  StorePtr (*make)();
};

void PrintTo(const Engine& engine, std::ostream* os) { *os << engine.name; }

class EngineTest : public ::testing::TestWithParam<Engine> {
 protected:
  StorePtr store_ = GetParam().make();
};

TEST_P(EngineTest, CreateInsertSelect) {
  ASSERT_TRUE(store_->create_table("t", {"id", "qty"}).has_value());
  ASSERT_TRUE(store_->insert("t", {2, 20}).has_value());
  ASSERT_TRUE(store_->insert("t", {1, 10}).has_value());
  auto rows = store_->select("t");
  ASSERT_TRUE(rows.has_value());
  // Ordered by primary key regardless of insertion order.
  EXPECT_EQ(rows.value(), (std::vector<Row>{{1, 10}, {2, 20}}));
}

TEST_P(EngineTest, DuplicateKeyRejected) {
  ASSERT_TRUE(store_->create_table("t", {"id", "qty"}).has_value());
  ASSERT_TRUE(store_->insert("t", {1, 10}).has_value());
  EXPECT_FALSE(store_->insert("t", {1, 99}).has_value());
  EXPECT_EQ(store_->select("t").value().size(), 1u);
}

TEST_P(EngineTest, ArityChecked) {
  ASSERT_TRUE(store_->create_table("t", {"id", "qty"}).has_value());
  EXPECT_FALSE(store_->insert("t", {1}).has_value());
  EXPECT_FALSE(store_->insert("t", {1, 2, 3}).has_value());
}

TEST_P(EngineTest, SelectWithConditions) {
  ASSERT_TRUE(store_->create_table("t", {"id", "qty"}).has_value());
  for (std::int64_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(store_->insert("t", {i, i * 10}).has_value());
  }
  EXPECT_EQ(store_->select("t", Condition{"id", Condition::Op::eq, 3})
                .value(),
            (std::vector<Row>{{3, 30}}));
  EXPECT_EQ(store_->select("t", Condition{"qty", Condition::Op::gt, 30})
                .value(),
            (std::vector<Row>{{4, 40}, {5, 50}}));
  EXPECT_EQ(store_->select("t", Condition{"id", Condition::Op::lt, 3})
                .value()
                .size(),
            2u);
}

TEST_P(EngineTest, UpdateAffectsMatchingRows) {
  ASSERT_TRUE(store_->create_table("t", {"id", "qty"}).has_value());
  for (std::int64_t i = 1; i <= 4; ++i) {
    ASSERT_TRUE(store_->insert("t", {i, 0}).has_value());
  }
  auto affected =
      store_->update("t", Condition{"id", Condition::Op::gt, 2}, "qty", 7);
  ASSERT_TRUE(affected.has_value());
  EXPECT_EQ(affected.value(), 2);
  EXPECT_EQ(store_->select("t").value(),
            (std::vector<Row>{{1, 0}, {2, 0}, {3, 7}, {4, 7}}));
}

TEST_P(EngineTest, PrimaryKeyUpdateRekeysAtomically) {
  ASSERT_TRUE(store_->create_table("t", {"id", "qty"}).has_value());
  ASSERT_TRUE(store_->insert("t", {1, 10}).has_value());
  ASSERT_TRUE(store_->insert("t", {2, 20}).has_value());
  // Legal re-key.
  auto ok = store_->update("t", Condition{"id", Condition::Op::eq, 1}, "id", 9);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(store_->select("t").value(),
            (std::vector<Row>{{2, 20}, {9, 10}}));
  // Collision: must fail without changing anything.
  auto bad = store_->update("t", Condition{"id", Condition::Op::eq, 9}, "id", 2);
  EXPECT_FALSE(bad.has_value());
  EXPECT_EQ(store_->select("t").value(),
            (std::vector<Row>{{2, 20}, {9, 10}}));
}

TEST_P(EngineTest, RemoveReportsAffected) {
  ASSERT_TRUE(store_->create_table("t", {"id", "qty"}).has_value());
  for (std::int64_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(store_->insert("t", {i, i}).has_value());
  }
  auto removed = store_->remove("t", Condition{"id", Condition::Op::lt, 4});
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(removed.value(), 3);
  EXPECT_EQ(store_->select("t").value().size(), 2u);
}

TEST_P(EngineTest, ErrorsAreTyped) {
  EXPECT_FALSE(store_->insert("nope", {1}).has_value());
  EXPECT_FALSE(store_->select("nope").has_value());
  ASSERT_TRUE(store_->create_table("t", {"id"}).has_value());
  EXPECT_FALSE(store_->create_table("t", {"id"}).has_value());
  EXPECT_FALSE(
      store_->select("t", Condition{"ghost", Condition::Op::eq, 1}).has_value());
}

TEST_P(EngineTest, DigestIsOrderInsensitiveAndStateSensitive) {
  auto other = GetParam().make();
  ASSERT_TRUE(store_->create_table("t", {"id", "qty"}).has_value());
  ASSERT_TRUE(other->create_table("t", {"id", "qty"}).has_value());
  ASSERT_TRUE(store_->insert("t", {1, 10}).has_value());
  ASSERT_TRUE(store_->insert("t", {2, 20}).has_value());
  ASSERT_TRUE(other->insert("t", {2, 20}).has_value());
  ASSERT_TRUE(other->insert("t", {1, 10}).has_value());
  EXPECT_EQ(store_->state_digest().value(), other->state_digest().value());
  ASSERT_TRUE(other->remove("t", Condition{"id", Condition::Op::eq, 1})
                  .has_value());
  EXPECT_NE(store_->state_digest().value(), other->state_digest().value());
}

INSTANTIATE_TEST_SUITE_P(Engines, EngineTest,
                         ::testing::Values(Engine{"vector", &make_vector_store},
                                           Engine{"btree", &make_btree_store},
                                           Engine{"log", &make_log_store}));

// --- differential property test ---------------------------------------------

class DifferentialTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DifferentialTest, EnginesAreObservationallyIdentical) {
  util::Rng rng{GetParam()};
  std::vector<StorePtr> engines;
  engines.push_back(make_vector_store());
  engines.push_back(make_btree_store());
  engines.push_back(make_log_store());
  for (auto& e : engines) {
    ASSERT_TRUE(e->create_table("t", {"id", "a", "b"}).has_value());
  }
  const std::vector<std::string> columns{"id", "a", "b"};
  auto random_condition = [&rng, &columns] {
    return Condition{columns[rng.index(3)],
                     static_cast<Condition::Op>(rng.below(3)),
                     rng.between(-2, 12)};
  };
  for (int step = 0; step < 300; ++step) {
    const auto roll = rng.below(10);
    // Apply the same operation to all engines; compare full outcomes.
    if (roll < 4) {
      Row row{rng.between(0, 15), rng.between(0, 9), rng.between(0, 9)};
      auto r0 = engines[0]->insert("t", row);
      for (std::size_t e = 1; e < engines.size(); ++e) {
        auto re = engines[e]->insert("t", row);
        ASSERT_EQ(r0.has_value(), re.has_value()) << "step " << step;
      }
    } else if (roll < 6) {
      const auto cond = random_condition();
      const auto col = columns[rng.index(3)];
      const auto value = rng.between(0, 15);
      auto r0 = engines[0]->update("t", cond, col, value);
      for (std::size_t e = 1; e < engines.size(); ++e) {
        auto re = engines[e]->update("t", cond, col, value);
        ASSERT_EQ(r0.has_value(), re.has_value()) << "step " << step;
        if (r0.has_value()) {
          ASSERT_EQ(r0.value(), re.value()) << "step " << step;
        }
      }
    } else if (roll < 7) {
      const auto cond = random_condition();
      auto r0 = engines[0]->remove("t", cond);
      for (std::size_t e = 1; e < engines.size(); ++e) {
        ASSERT_EQ(engines[e]->remove("t", cond).value(), r0.value())
            << "step " << step;
      }
    } else {
      const bool all = rng.chance(0.3);
      const std::optional<Condition> cond =
          all ? std::nullopt : std::optional<Condition>{random_condition()};
      auto r0 = engines[0]->select("t", cond);
      for (std::size_t e = 1; e < engines.size(); ++e) {
        ASSERT_EQ(engines[e]->select("t", cond).value(), r0.value())
            << "step " << step;
      }
    }
    // State digests must agree after every step.
    const auto d0 = engines[0]->state_digest().value();
    for (std::size_t e = 1; e < engines.size(); ++e) {
      ASSERT_EQ(engines[e]->state_digest().value(), d0) << "step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace redundancy::sql
