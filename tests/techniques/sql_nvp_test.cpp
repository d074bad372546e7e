#include "techniques/sql_nvp.hpp"

#include <gtest/gtest.h>

#include "obs/obs.hpp"
#include "sql/chaos.hpp"

namespace redundancy::techniques {
namespace {

using sql::Condition;
using sql::Row;

ReplicatedSqlServer healthy_triple() {
  std::vector<sql::StorePtr> replicas;
  replicas.push_back(sql::make_vector_store());
  replicas.push_back(sql::make_btree_store());
  replicas.push_back(sql::make_log_store());
  return ReplicatedSqlServer{std::move(replicas)};
}

TEST(ReplicatedSql, BehavesLikeASingleStore) {
  auto server = healthy_triple();
  ASSERT_TRUE(server.create_table("inv", {"id", "qty"}).has_value());
  ASSERT_TRUE(server.insert("inv", {1, 10}).has_value());
  ASSERT_TRUE(server.insert("inv", {2, 20}).has_value());
  EXPECT_EQ(server.select("inv", std::nullopt).value(),
            (std::vector<Row>{{1, 10}, {2, 20}}));
  EXPECT_EQ(
      server.update("inv", Condition{"id", Condition::Op::eq, 2}, "qty", 25)
          .value(),
      1);
  EXPECT_EQ(server.remove("inv", Condition{"qty", Condition::Op::lt, 20})
                .value(),
            1);
  EXPECT_EQ(server.replicas_in_service(), 3u);
  EXPECT_EQ(server.divergences_masked(), 0u);
}

TEST(ReplicatedSql, ErrorsVoteLikeValues) {
  auto server = healthy_triple();
  ASSERT_TRUE(server.create_table("t", {"id"}).has_value());
  ASSERT_TRUE(server.insert("t", {1}).has_value());
  // Every correct engine reports the duplicate key: the verdict is the
  // *failure*, unanimously, and nobody gets evicted.
  auto dup = server.insert("t", {1});
  EXPECT_FALSE(dup.has_value());
  EXPECT_EQ(server.replicas_in_service(), 3u);
}

TEST(ReplicatedSql, MasksCorruptReadsAndEvictsTheLiar) {
  std::vector<sql::StorePtr> replicas;
  replicas.push_back(sql::make_vector_store());
  replicas.push_back(sql::make_btree_store());
  replicas.push_back(sql::make_chaotic_store(
      sql::make_log_store(),
      {.lose_mutation_probability = 0, .corrupt_read_probability = 1.0,
       .seed = 3}));
  ReplicatedSqlServer server{std::move(replicas)};
  ASSERT_TRUE(server.create_table("t", {"id", "v"}).has_value());
  ASSERT_TRUE(server.insert("t", {1, 100}).has_value());
  auto rows = server.select("t", std::nullopt);
  ASSERT_TRUE(rows.has_value());
  EXPECT_EQ(rows.value(), (std::vector<Row>{{1, 100}}));  // corruption masked
  EXPECT_GE(server.divergences_masked(), 1u);
  EXPECT_EQ(server.replicas_in_service(), 2u);  // the chaotic engine is out
}

TEST(ReplicatedSql, ReconciliationCatchesLostUpdates) {
  std::vector<sql::StorePtr> replicas;
  replicas.push_back(sql::make_vector_store());
  replicas.push_back(sql::make_btree_store());
  replicas.push_back(sql::make_chaotic_store(
      sql::make_log_store(),
      {.lose_mutation_probability = 1.0, .corrupt_read_probability = 0,
       .seed = 5}));
  ReplicatedSqlServer server{std::move(replicas),
                             {.reconcile_every = 0, .evict_divergent = true}};
  ASSERT_TRUE(server.create_table("t", {"id", "v"}).has_value());
  // The lost insert is acknowledged everywhere — outputs agree, nothing is
  // detected yet. Only the *state* diverged.
  ASSERT_TRUE(server.insert("t", {1, 100}).has_value());
  EXPECT_EQ(server.replicas_in_service(), 3u);
  ASSERT_TRUE(server.reconcile().has_value());
  EXPECT_EQ(server.replicas_in_service(), 2u);
  // And the surviving quorum has the row.
  EXPECT_EQ(server.select("t", std::nullopt).value(),
            (std::vector<Row>{{1, 100}}));
}

TEST(ReplicatedSql, PeriodicReconciliationIsAutomatic) {
  std::vector<sql::StorePtr> replicas;
  replicas.push_back(sql::make_vector_store());
  replicas.push_back(sql::make_btree_store());
  replicas.push_back(sql::make_chaotic_store(
      sql::make_log_store(), {.lose_mutation_probability = 1.0, .seed = 7}));
  ReplicatedSqlServer server{std::move(replicas), {.reconcile_every = 4}};
  ASSERT_TRUE(server.create_table("t", {"id"}).has_value());
  for (std::int64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(server.insert("t", {i}).has_value());
  }
  EXPECT_EQ(server.replicas_in_service(), 2u);
}

TEST(ReplicatedSql, TwoLiarsOutvoteTheTruthTeller) {
  // The voting limit, reproduced at the database level: with 2 of 3
  // replicas wrong *in the same way*, the majority verdict is wrong.
  std::vector<sql::StorePtr> replicas;
  replicas.push_back(sql::make_chaotic_store(
      sql::make_vector_store(), {.lose_mutation_probability = 1.0, .seed = 9}));
  replicas.push_back(sql::make_chaotic_store(
      sql::make_btree_store(), {.lose_mutation_probability = 1.0, .seed = 9}));
  replicas.push_back(sql::make_log_store());
  ReplicatedSqlServer server{std::move(replicas), {.reconcile_every = 0}};
  ASSERT_TRUE(server.create_table("t", {"id"}).has_value());
  ASSERT_TRUE(server.insert("t", {1}).has_value());
  (void)server.reconcile();
  // The honest log engine is the minority — it gets evicted.
  EXPECT_TRUE(server.evicted().contains(2));
  EXPECT_EQ(server.select("t", std::nullopt).value(), (std::vector<Row>{}));
}

TEST(ReplicatedSql, AllEvictedMeansOutage) {
  std::vector<sql::StorePtr> replicas;
  replicas.push_back(sql::make_vector_store());
  ReplicatedSqlServer server{std::move(replicas)};
  ASSERT_TRUE(server.create_table("t", {"id"}).has_value());
  // A single replica can never be evicted by a vote of one; simulate a
  // two-replica split instead.
  std::vector<sql::StorePtr> pair;
  pair.push_back(sql::make_vector_store());
  pair.push_back(sql::make_chaotic_store(
      sql::make_btree_store(), {.corrupt_read_probability = 1.0, .seed = 2}));
  ReplicatedSqlServer split{std::move(pair), {.reconcile_every = 0}};
  ASSERT_TRUE(split.create_table("t", {"id", "v"}).has_value());
  ASSERT_TRUE(split.insert("t", {1, 5}).has_value());
  // 1-vs-1 disagreement: no majority of the 2 ballots.
  auto rows = split.select("t", std::nullopt);
  EXPECT_FALSE(rows.has_value());
  EXPECT_EQ(rows.error().kind, core::FailureKind::adjudication_failed);
}

/// technique.* verdict series of sql_nvp, read as deltas around one call.
struct VerdictSeries {
  obs::Counter& requests =
      obs::counter(obs::TechniqueCounters::kRequests, "sql_nvp");
  obs::Counter& recoveries =
      obs::counter(obs::TechniqueCounters::kRecoveries, "sql_nvp");
  obs::Counter& unrecovered =
      obs::counter(obs::TechniqueCounters::kUnrecovered, "sql_nvp");
  std::uint64_t requests0 = requests.total();
  std::uint64_t recoveries0 = recoveries.total();
  std::uint64_t unrecovered0 = unrecovered.total();
};

TEST(ReplicatedSql, NoMajorityStatementWritesTechniqueUnrecovered) {
  if (!obs::kCompiledIn) {
    GTEST_SKIP() << "obs compiled out (REDUNDANCY_OBS_NOOP)";
  }
  std::vector<sql::StorePtr> pair;
  pair.push_back(sql::make_vector_store());
  pair.push_back(sql::make_chaotic_store(
      sql::make_btree_store(), {.corrupt_read_probability = 1.0, .seed = 2}));
  ReplicatedSqlServer split{std::move(pair), {.reconcile_every = 0}};
  ASSERT_TRUE(split.create_table("t", {"id", "v"}).has_value());
  ASSERT_TRUE(split.insert("t", {1, 5}).has_value());
  const VerdictSeries series;
  obs::Recorder::instance().set_enabled(true);
  const auto rows = split.select("t", std::nullopt);  // 1-vs-1: no majority
  obs::Recorder::instance().set_enabled(false);
  ASSERT_FALSE(rows.has_value());
  EXPECT_EQ(series.requests.total() - series.requests0, 1u);
  EXPECT_EQ(series.unrecovered.total() - series.unrecovered0, 1u);
  EXPECT_EQ(series.recoveries.total() - series.recoveries0, 0u);
}

TEST(ReplicatedSql, MaskedDivergenceWritesTechniqueRecoveries) {
  if (!obs::kCompiledIn) {
    GTEST_SKIP() << "obs compiled out (REDUNDANCY_OBS_NOOP)";
  }
  std::vector<sql::StorePtr> replicas;
  replicas.push_back(sql::make_vector_store());
  replicas.push_back(sql::make_btree_store());
  replicas.push_back(sql::make_chaotic_store(
      sql::make_log_store(),
      {.lose_mutation_probability = 0, .corrupt_read_probability = 1.0,
       .seed = 3}));
  ReplicatedSqlServer server{std::move(replicas), {.reconcile_every = 0}};
  ASSERT_TRUE(server.create_table("t", {"id", "v"}).has_value());
  ASSERT_TRUE(server.insert("t", {1, 100}).has_value());
  const VerdictSeries series;
  obs::Recorder::instance().set_enabled(true);
  const auto rows = server.select("t", std::nullopt);  // 2-vs-1: masked
  obs::Recorder::instance().set_enabled(false);
  ASSERT_TRUE(rows.has_value());
  EXPECT_EQ(series.requests.total() - series.requests0, 1u);
  EXPECT_EQ(series.recoveries.total() - series.recoveries0, 1u);
  EXPECT_EQ(series.unrecovered.total() - series.unrecovered0, 0u);
}

TEST(ReplicatedSql, MetricsAccount) {
  auto server = healthy_triple();
  ASSERT_TRUE(server.create_table("t", {"id"}).has_value());
  ASSERT_TRUE(server.insert("t", {1}).has_value());
  EXPECT_GE(server.metrics().requests, 2u);
  EXPECT_GE(server.metrics().variant_executions, 6u);
}

TEST(ReplicatedSql, SelectCacheServesRepeatsWithoutReVoting) {
  auto server = healthy_triple();
  server.enable_select_cache();
  ASSERT_TRUE(server.create_table("inv", {"id", "qty"}).has_value());
  ASSERT_TRUE(server.insert("inv", {1, 10}).has_value());
  const std::size_t runs_before = server.metrics().variant_executions;
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(server.select("inv", std::nullopt).value(),
              (std::vector<Row>{{1, 10}}));
  }
  // One adjudicated select fanned out to 3 replicas; three hits ran none.
  EXPECT_EQ(server.metrics().variant_executions, runs_before + 3);
  ASSERT_NE(server.select_cache(), nullptr);
  EXPECT_GE(server.select_cache()->stats().hits, 3u);
}

TEST(ReplicatedSql, MutationsInvalidateTheSelectCache) {
  auto server = healthy_triple();
  server.enable_select_cache();
  ASSERT_TRUE(server.create_table("inv", {"id", "qty"}).has_value());
  ASSERT_TRUE(server.insert("inv", {1, 10}).has_value());
  EXPECT_EQ(server.select("inv", std::nullopt).value(),
            (std::vector<Row>{{1, 10}}));
  // The cached verdict must not survive the write: a stale read here would
  // be a correctness bug, not a performance artifact.
  ASSERT_TRUE(server.insert("inv", {2, 20}).has_value());
  EXPECT_EQ(server.select("inv", std::nullopt).value(),
            (std::vector<Row>{{1, 10}, {2, 20}}));
  ASSERT_TRUE(
      server.update("inv", Condition{"id", Condition::Op::eq, 1}, "qty", 15)
          .has_value());
  EXPECT_EQ(server.select("inv", Condition{"id", Condition::Op::eq, 1}).value(),
            (std::vector<Row>{{1, 15}}));
  ASSERT_TRUE(
      server.remove("inv", Condition{"id", Condition::Op::eq, 2}).has_value());
  EXPECT_EQ(server.select("inv", std::nullopt).value(),
            (std::vector<Row>{{1, 15}}));
}

TEST(ReplicatedSql, SelectCacheKeysDistinguishConditions) {
  auto server = healthy_triple();
  server.enable_select_cache();
  ASSERT_TRUE(server.create_table("t", {"id", "v"}).has_value());
  ASSERT_TRUE(server.insert("t", {1, 10}).has_value());
  ASSERT_TRUE(server.insert("t", {2, 20}).has_value());
  EXPECT_EQ(server.select("t", std::nullopt).value().size(), 2u);
  EXPECT_EQ(server.select("t", Condition{"id", Condition::Op::eq, 1}).value(),
            (std::vector<Row>{{1, 10}}));
  EXPECT_EQ(server.select("t", Condition{"id", Condition::Op::lt, 2}).value(),
            (std::vector<Row>{{1, 10}}));
  // Same column+value, different op: must not collide.
  EXPECT_EQ(server.select("t", Condition{"id", Condition::Op::gt, 1}).value(),
            (std::vector<Row>{{2, 20}}));
}

TEST(ReplicatedSql, EvictionInvalidatesCachedQuorumVerdicts) {
  std::vector<sql::StorePtr> replicas;
  replicas.push_back(sql::make_vector_store());
  replicas.push_back(sql::make_btree_store());
  replicas.push_back(sql::make_chaotic_store(
      sql::make_log_store(),
      {.lose_mutation_probability = 0, .corrupt_read_probability = 1.0,
       .seed = 3}));
  ReplicatedSqlServer server{std::move(replicas)};
  server.enable_select_cache();
  ASSERT_TRUE(server.create_table("t", {"id", "v"}).has_value());
  ASSERT_TRUE(server.insert("t", {1, 100}).has_value());
  // Warm a verdict while the liar is still in the electorate. Corruption
  // flips one cell of one row — an empty result set passes through intact,
  // so this vote is unanimous and nobody is evicted yet.
  const Condition none{"id", Condition::Op::gt, 5};
  EXPECT_EQ(server.select("t", none).value(), (std::vector<Row>{}));
  EXPECT_EQ(server.replicas_in_service(), 3u);
  // A select over real rows diverges, masks the liar, evicts it — and must
  // strand every verdict the old 3-replica quorum voted.
  EXPECT_EQ(server.select("t", std::nullopt).value(),
            (std::vector<Row>{{1, 100}}));
  EXPECT_EQ(server.replicas_in_service(), 2u);
  const std::size_t runs_before = server.metrics().variant_executions;
  EXPECT_EQ(server.select("t", none).value(), (std::vector<Row>{}));
  // Re-adjudicated by the surviving pair, not served from the stale entry.
  EXPECT_EQ(server.metrics().variant_executions, runs_before + 2);
  EXPECT_GE(server.select_cache()->stats().invalidations, 1u);
}

}  // namespace
}  // namespace redundancy::techniques
