#include "techniques/sql_nvp.hpp"

#include "core/voters.hpp"
#include "obs/obs.hpp"
#include "util/checksum.hpp"

namespace redundancy::techniques {

namespace {

/// Digest of a select statement: table plus the (presence, column, op,
/// value) of the condition, length-prefixed so keys are unambiguous.
std::uint64_t select_key(const std::string& table,
                         const std::optional<sql::Condition>& where) {
  util::Digest64 d;
  d.update(table);
  d.update(where.has_value());
  if (where.has_value()) {
    d.update(where->column);
    d.update(where->op);
    d.update(where->value);
  }
  return d.value();
}

}  // namespace

ReplicatedSqlServer::ReplicatedSqlServer(std::vector<sql::StorePtr> replicas,
                                         Options options)
    : replicas_(std::move(replicas)), options_(options) {}

std::size_t ReplicatedSqlServer::replicas_in_service() const {
  return replicas_.size() - evicted_.size();
}

template <typename T>
core::Result<T> ReplicatedSqlServer::adjudicate(
    const std::function<core::Result<T>(sql::SqlStore&)>& op) const {
  ++metrics_.requests;
  obs::ScopedSpan span{"sql_nvp.op"};
  const obs::SpanContext ctx = span.context();
  const std::uint64_t t0 = obs::enabled() ? obs::now_ns() : 0;
  std::vector<core::Ballot<T>> ballots;
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (evicted_.contains(i)) continue;
    ++metrics_.variant_executions;
    obs::ScopedSpan rspan{"replica", ctx};
    rspan.set_detail(std::string{replicas_[i]->engine()});
    auto out = op(*replicas_[i]);
    rspan.set_ok(out.has_value());
    if (!out.has_value()) ++metrics_.variant_failures;
    ballots.push_back({i, std::string{replicas_[i]->engine()}, std::move(out)});
  }
  // `accepted`: the replicas reached a verdict, which may itself be a
  // failure every correct engine reports (`ok` false, e.g. a duplicate key).
  const auto finish = [&](bool accepted, bool recovered, bool ok) {
    if (t0 != 0) {
      static obs::TechniqueCounters counters{"sql_nvp"};
      counters.count(t0, accepted, recovered);
    }
    span.set_ok(ok);
  };
  if (ballots.empty()) {
    ++metrics_.unrecovered;
    finish(false, false, false);
    return core::failure(core::FailureKind::no_alternatives,
                         "every replica evicted");
  }
  ++metrics_.adjudications;
  // Failures are legitimate, comparable outcomes for a database (e.g. a
  // duplicate-key error must be reported by every correct engine), so the
  // vote runs over (has_value, value-or-kind) tuples rather than treating
  // failures as abstentions.
  struct Outcome {
    bool ok;
    T value{};
    core::FailureKind kind{};
    bool operator==(const Outcome& other) const {
      if (ok != other.ok) return false;
      return ok ? value == other.value : kind == other.kind;
    }
  };
  std::vector<core::Ballot<Outcome>> wrapped;
  wrapped.reserve(ballots.size());
  for (auto& b : ballots) {
    Outcome o;
    if (b.result.has_value()) {
      o = Outcome{true, std::move(b.result).take(), {}};
    } else {
      o = Outcome{false, T{}, b.result.error().kind};
    }
    wrapped.push_back({b.variant_index, b.variant_name, std::move(o)});
  }
  auto verdict = core::majority_voter<Outcome>()(wrapped);
  if (ctx.active()) {
    obs::AdjudicationEvent event;
    event.technique = "sql_nvp";
    event.electorate = replicas_.size();
    event.ballots_seen = wrapped.size();
    for (const auto& b : wrapped) {
      if (!b.result.value().ok) ++event.ballots_failed;
    }
    event.accepted = verdict.has_value();
    event.verdict =
        verdict.has_value() ? "ok" : "replica outputs have no majority";
    obs::record_adjudication(ctx, std::move(event));
  }
  if (!verdict.has_value()) {
    ++metrics_.unrecovered;
    finish(false, false, false);
    return core::failure(core::FailureKind::adjudication_failed,
                         "replica outputs have no majority");
  }
  // Flag and (optionally) evict replicas that disagreed with the verdict.
  bool outvoted = false;
  for (const auto& b : wrapped) {
    if (b.result.value() == verdict.value()) continue;
    outvoted = true;
    ++divergences_;
    ++metrics_.recoveries;
    if (obs::enabled()) {
      static obs::Counter& diverged =
          obs::counter("technique.divergences", "sql_nvp");
      diverged.add();
    }
    if (options_.evict_divergent) {
      evicted_.insert(b.variant_index);
      ++metrics_.disabled_components;
      // The electorate changed; verdicts voted by the old quorum are stale.
      invalidate_select_cache();
    }
  }
  const Outcome& out = verdict.value();
  finish(true, outvoted, out.ok);
  if (!out.ok) return core::failure(out.kind, "replicated verdict: failure");
  return out.value;
}

void ReplicatedSqlServer::maybe_reconcile() {
  if (options_.reconcile_every == 0) return;
  if (++mutations_since_reconcile_ >= options_.reconcile_every) {
    mutations_since_reconcile_ = 0;
    (void)reconcile();
  }
}

core::Status ReplicatedSqlServer::reconcile() {
  auto digest = adjudicate<std::uint64_t>(
      [](sql::SqlStore& s) { return s.state_digest(); });
  if (!digest.has_value()) {
    return core::failure(digest.error().kind, "state reconciliation failed");
  }
  return core::ok_status();
}

core::Status ReplicatedSqlServer::create_table(
    const std::string& table, std::vector<std::string> columns) {
  auto out = adjudicate<core::Unit>([&](sql::SqlStore& s) {
    return s.create_table(table, columns);
  });
  invalidate_select_cache();
  maybe_reconcile();
  return out;
}

core::Status ReplicatedSqlServer::insert(const std::string& table,
                                         sql::Row row) {
  auto out = adjudicate<core::Unit>(
      [&](sql::SqlStore& s) { return s.insert(table, row); });
  invalidate_select_cache();
  maybe_reconcile();
  return out;
}

core::Result<std::vector<sql::Row>> ReplicatedSqlServer::select(
    const std::string& table,
    const std::optional<sql::Condition>& where) const {
  if (select_cache_) {
    return select_cache_->get_or_run(select_key(table, where), [&] {
      return adjudicate<std::vector<sql::Row>>(
          [&](sql::SqlStore& s) { return s.select(table, where); });
    });
  }
  return adjudicate<std::vector<sql::Row>>(
      [&](sql::SqlStore& s) { return s.select(table, where); });
}

void ReplicatedSqlServer::enable_select_cache(core::CacheConfig config) {
  if (config.label.empty() || config.label == "cache") {
    config.label = "sql_nvp";
  }
  select_cache_ =
      std::make_unique<core::RedundancyCache<std::vector<sql::Row>>>(
          std::move(config));
}

core::Result<std::int64_t> ReplicatedSqlServer::update(
    const std::string& table, const sql::Condition& where,
    const std::string& column, std::int64_t value) {
  auto out = adjudicate<std::int64_t>([&](sql::SqlStore& s) {
    return s.update(table, where, column, value);
  });
  invalidate_select_cache();
  maybe_reconcile();
  return out;
}

core::Result<std::int64_t> ReplicatedSqlServer::remove(
    const std::string& table, const sql::Condition& where) {
  auto out = adjudicate<std::int64_t>(
      [&](sql::SqlStore& s) { return s.remove(table, where); });
  invalidate_select_cache();
  maybe_reconcile();
  return out;
}

core::Result<std::uint64_t> ReplicatedSqlServer::state_digest() const {
  return adjudicate<std::uint64_t>(
      [](sql::SqlStore& s) { return s.state_digest(); });
}

}  // namespace redundancy::techniques
