// N-version programming over diverse SQL servers (Gashi, Popov, Stankovic,
// Strigini — discussed in Section 4.1 of the paper).
//
// "N-version programming is particularly advantageous since the interface
// of an SQL database is well defined, and several independent
// implementations are already available. However, reconciling the output
// and the state of multiple, heterogeneous servers may not be trivial."
//
// ReplicatedSqlServer executes every operation on all replica engines,
// adjudicates the *outputs* with a majority vote, and reconciles *state*
// by comparing the engines' order-insensitive digests: a replica whose
// output or state diverges from the majority is evicted (flagged faulty),
// and the remaining quorum carries on.
#pragma once

#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "core/metrics.hpp"
#include "core/redundancy_cache.hpp"
#include "sql/store.hpp"

namespace redundancy::techniques {

class ReplicatedSqlServer final : public sql::SqlStore {
 public:
  struct Options {
    /// Compare state digests after every k mutations (0 = never).
    std::size_t reconcile_every = 8;
    /// Evict replicas that diverge from the majority.
    bool evict_divergent = true;
  };

  ReplicatedSqlServer(std::vector<sql::StorePtr> replicas, Options options);
  explicit ReplicatedSqlServer(std::vector<sql::StorePtr> replicas)
      : ReplicatedSqlServer(std::move(replicas), Options{}) {}

  // SqlStore interface — each call fans out and adjudicates.
  core::Status create_table(const std::string& table,
                            std::vector<std::string> columns) override;
  core::Status insert(const std::string& table, sql::Row row) override;
  core::Result<std::vector<sql::Row>> select(
      const std::string& table,
      const std::optional<sql::Condition>& where) const override;
  core::Result<std::int64_t> update(const std::string& table,
                                    const sql::Condition& where,
                                    const std::string& column,
                                    std::int64_t value) override;
  core::Result<std::int64_t> remove(const std::string& table,
                                    const sql::Condition& where) override;
  core::Result<std::uint64_t> state_digest() const override;
  [[nodiscard]] std::string_view engine() const override {
    return "nvp-replicated";
  }

  /// Compare replica state digests now; evict any minority.
  core::Status reconcile();

  /// Memoize adjudicated select() verdicts keyed by the (table, condition)
  /// digest. Every mutation (insert/update/remove/create_table) and every
  /// reconciliation eviction invalidates the whole cache — adjudicated reads
  /// must never outlive the state they were voted on. Restart epochs
  /// (rejuvenation/microreboot) invalidate as usual.
  void enable_select_cache(core::CacheConfig config = {});
  void disable_select_cache() noexcept { select_cache_.reset(); }
  [[nodiscard]] core::RedundancyCache<std::vector<sql::Row>>* select_cache()
      const noexcept {
    return select_cache_.get();
  }

  [[nodiscard]] std::size_t replicas_in_service() const;
  [[nodiscard]] const std::set<std::size_t>& evicted() const noexcept {
    return evicted_;
  }
  [[nodiscard]] std::size_t divergences_masked() const noexcept {
    return divergences_;
  }
  [[nodiscard]] const core::Metrics& metrics() const noexcept {
    return metrics_;
  }

 private:
  /// Run `op` on every live replica and majority-adjudicate the results.
  template <typename T>
  core::Result<T> adjudicate(
      const std::function<core::Result<T>(sql::SqlStore&)>& op) const;

  void maybe_reconcile();
  void invalidate_select_cache() const noexcept {
    if (select_cache_) select_cache_->invalidate_all();
  }

  std::vector<sql::StorePtr> replicas_;
  mutable std::unique_ptr<core::RedundancyCache<std::vector<sql::Row>>>
      select_cache_;
  Options options_;
  mutable std::set<std::size_t> evicted_;
  mutable std::size_t divergences_ = 0;
  mutable core::Metrics metrics_;
  std::size_t mutations_since_reconcile_ = 0;
};

}  // namespace redundancy::techniques
