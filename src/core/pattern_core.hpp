// PatternCore — what the three Figure-1 patterns share.
//
// Figure 1 draws parallel evaluation, parallel selection and sequential
// alternatives as one architecture that varies in two places: where the
// adjudicator sits and when an alternative is activated. Everything else
// lives here, once, and each pattern derives from it:
//
//   * the legs (variants and their checks, core/race.hpp), shared with any
//     straggler still running them;
//   * the obs label, which names the pattern span, the verdict events and
//     the technique.* series, and salts the cache key;
//   * the result cache and the cached run() fast path (serve());
//   * Metrics, and the one fold of late legs' bookkeeping into them
//     (disabling failed components where the pattern asks for it);
//   * the technique.* accounting (obs::TechniqueCounters), exact whenever
//     obs is enabled, on cache hits and misses alike;
//   * the one AdjudicationEvent emitter (record_verdict()).
//
// A pattern keeps its Figure-1 logic: the sequential loop, the voter, the
// selection rule, the hedging policy, and which legs it races
// (core/race.hpp) or joins.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "core/metrics.hpp"
#include "core/race.hpp"
#include "core/redundancy_cache.hpp"
#include "core/variant.hpp"
#include "obs/obs.hpp"
#include "util/checksum.hpp"
#include "util/thread_pool.hpp"

namespace redundancy::core {

/// What one adjudication saw, for its verdict event.
struct Tally {
  std::size_t electorate = 0;  ///< legs eligible to vote or be selected
  std::size_t seen = 0;        ///< ballots in when the verdict was taken
  std::size_t failed = 0;      ///< failed ballots among those seen
  std::size_t unfinished = 0;  ///< legs still queued or running then
  std::size_t round = 1;       ///< revote round (incremental voting)
};

template <typename Out>
[[nodiscard]] std::size_t failed_count(std::span<const LegOutcome<Out>> legs) {
  std::size_t n = 0;
  for (const auto& leg : legs) n += leg.ok() ? 0 : 1;
  return n;
}

template <typename In, typename Out>
class PatternCore {
 public:
  /// Label under which spans, adjudication events, and registry metrics are
  /// emitted (techniques set their own: "nvp", "recovery_blocks", ...).
  void set_obs_label(std::string label) {
    label_ = std::move(label);
    salt_ = util::fnv1a(label_);
    counters_.reset();
    leg_hist_ = nullptr;
  }

  /// Memoize adjudicated verdicts keyed by (technique, input digest). Only
  /// sound for deterministic variant sets: a hit replays the verdict the
  /// legs produced the first time and skips the legs and their checks (so a
  /// selecting pattern's disable bookkeeping only advances on misses).
  /// Invalidated by rejuvenation/microreboot epochs, invalidate_cache(), and
  /// the TTL.
  void enable_cache(CacheConfig config = {}) {
    static_assert(util::is_digestible_v<In>,
                  "enable_cache needs a digestible input type (integral, "
                  "string, float, vector/optional/pair of those)");
    if (config.label.empty() || config.label == "cache") config.label = label_;
    cache_ = std::make_unique<RedundancyCache<Out>>(std::move(config));
  }
  void disable_cache() noexcept { cache_.reset(); }
  [[nodiscard]] RedundancyCache<Out>* cache() noexcept { return cache_.get(); }
  void invalidate_cache() noexcept {
    if (cache_) cache_->invalidate_all();
  }

  [[nodiscard]] const Metrics& metrics() const noexcept {
    fold();
    return metrics_;
  }
  void reset_metrics() noexcept {
    fold();
    metrics_.reset();
  }
  [[nodiscard]] std::size_t width() const noexcept { return legs_->size(); }

 protected:
  /// `disable_failed`: a failed leg takes its variant out of service
  /// (parallel selection's acting/spare discipline).
  PatternCore(std::string label, Legs<In, Out> legs, bool disable_failed)
      : legs_(std::make_shared<Legs<In, Out>>(std::move(legs))),
        late_(std::make_shared<LateLegs>(disable_failed ? legs_->size() : 0)),
        label_(std::move(label)),
        salt_(util::fnv1a(label_)),
        disable_failed_(disable_failed) {}

  /// The one run() path. With the cache enabled a hit (or a run coalesced
  /// onto another caller's) returns the memoized verdict; everything else is
  /// one request: fold late legs, count it, open the pattern span, run
  /// `body(span context)`, account it.
  template <typename Body>
  Result<Out> serve(const In& input, Body&& body) {
    if constexpr (util::is_digestible_v<In>) {
      if (cache_) {
        const std::uint64_t t0 = clock();
        bool executed = false;
        Result<Out> verdict = cache_->get_or_run(key(input), [&] {
          executed = true;
          return request(body);
        });
        if (!executed) {
          ++metrics_.requests;
          // A hit replays a verdict: no leg ran, so it masked nothing.
          if (t0 != 0) counters().count(t0, verdict.has_value(), false);
        }
        return verdict;
      }
    }
    return request(body);
  }

  /// Owner-thread accounting of one leg of this call.
  void account_leg(std::size_t leg, bool judged, bool ok) {
    ++metrics_.variant_executions;
    metrics_.cost_units += legs_->variants[leg].cost;
    if (judged) ++metrics_.adjudications;
    if (ok) return;
    ++metrics_.variant_failures;
    if (disable_failed_) disable(leg);
  }
  void account_leg(const LegOutcome<Out>& leg) {
    account_leg(leg.index, leg.judged, leg.ok());
  }

  /// A request's outcome: unrecovered, or a recovery when the verdict
  /// masked a failure.
  void conclude(const Result<Out>& verdict, bool masked_failure) {
    if (!verdict.has_value()) {
      ++metrics_.unrecovered;
    } else if (masked_failure) {
      ++metrics_.recoveries;
    }
  }

  /// The one verdict event (no-op unless `ctx` is sampled). `winner` is
  /// the selected leg, when the pattern selects one.
  void record_verdict(obs::SpanContext ctx, const Tally& tally,
                      const Result<Out>& verdict,
                      std::optional<std::size_t> winner = {}) const {
    if (!ctx.active()) return;
    obs::AdjudicationEvent event;
    event.technique = label_;
    event.round = tally.round;
    event.electorate = tally.electorate;
    event.ballots_seen = tally.seen;
    event.ballots_failed = tally.failed;
    event.accepted = verdict.has_value();
    event.verdict = verdict.has_value() ? "ok" : verdict.error().describe();
    if (verdict.has_value() && winner) {
      event.winner = legs_->variants[*winner].name;
    }
    event.stragglers_cancelled = tally.unfinished;
    obs::record_adjudication(ctx, std::move(event));
  }

  /// A race over this pattern's legs on the shared pool.
  Race<In, Out> race(const In& input, obs::SpanContext ctx,
                     obs::Histogram* latency = nullptr) {
    return Race<In, Out>{batch_, input, legs_, late_, ctx, latency};
  }

  /// Per-leg latency (technique.alternative_ns), the hedge budget's source.
  /// Recorded whether or not obs is enabled.
  [[nodiscard]] obs::Histogram& leg_latency() {
    if (leg_hist_ == nullptr) {
      leg_hist_ = &obs::histogram("technique.alternative_ns", label_);
    }
    return *leg_hist_;
  }

  [[nodiscard]] Legs<In, Out>& legs() noexcept { return *legs_; }
  [[nodiscard]] const Legs<In, Out>& legs() const noexcept { return *legs_; }

  /// Fold late legs into the metrics (owner thread only). Runs at the start
  /// of every request and on metrics() / reset_metrics(). Each field is
  /// loaded first and exchanged only when a straggler wrote it, so a call
  /// with no stragglers executes no locked instruction; a write the load
  /// misses is folded by the next call.
  void fold() const noexcept {
    LateLegs& late = *late_;
    metrics_.variant_executions += take(late.executions);
    metrics_.variant_failures += take(late.failures);
    metrics_.adjudications += take(late.adjudications);
    metrics_.cost_units += take(late.cost);
    for (std::size_t i = 0; i < late.failed.size(); ++i) {
      std::atomic<bool>& failed = late.failed[i];
      if (failed.load(std::memory_order_relaxed) &&
          failed.exchange(false, std::memory_order_acq_rel)) {
        disable(i);
      }
    }
  }

  mutable Metrics metrics_;
  util::BatchRunner batch_;  ///< reusable fan-out builder (owner thread only)

 private:
  template <typename Body>
  Result<Out> request(Body& body) {
    fold();
    ++metrics_.requests;
    const std::size_t recoveries = metrics_.recoveries;
    // The pattern span exists only while obs is on (it is inert otherwise).
    std::optional<obs::ScopedSpan> span;
    if (obs::enabled()) span.emplace(label_);
    const std::uint64_t t0 = clock();
    Result<Out> verdict = body(span ? span->context() : obs::SpanContext{});
    // conclude() counted a recovery if the verdict masked a failed leg.
    if (t0 != 0) {
      counters().count(t0, verdict.has_value(),
                       metrics_.recoveries != recoveries);
    }
    if (span) span->set_ok(verdict.has_value());
    return verdict;
  }

  /// A late-leg total, reset to zero; no write when it already is.
  template <typename T>
  static T take(std::atomic<T>& total) noexcept {
    if (total.load(std::memory_order_relaxed) == T{}) return T{};
    return total.exchange(T{}, std::memory_order_relaxed);
  }

  void disable(std::size_t i) const noexcept {
    Variant<In, Out>& v = legs_->variants[i];
    if (!v.enabled) return;
    v.enabled = false;
    ++metrics_.disabled_components;
  }

  /// Start time of a request's technique.* accounting; 0 when obs is off.
  static std::uint64_t clock() noexcept {
    return obs::enabled() ? obs::now_ns() : 0;
  }

  /// The technique.* series, resolved on the first request that started
  /// with obs enabled (the registry lookup locks).
  obs::TechniqueCounters& counters() {
    if (!counters_) counters_.emplace(label_);
    return *counters_;
  }

  /// (technique, input) cache key: the label salts the input digest so two
  /// engines sharing one process never collide on equal inputs.
  [[nodiscard]] std::uint64_t key(const In& input) const noexcept {
    util::Digest64 d;
    d.update(salt_);
    d.update(input);
    return d.value();
  }

  std::shared_ptr<Legs<In, Out>> legs_;
  std::shared_ptr<LateLegs> late_;
  std::unique_ptr<RedundancyCache<Out>> cache_;
  std::string label_;
  std::uint64_t salt_;
  bool disable_failed_;
  std::optional<obs::TechniqueCounters> counters_;
  obs::Histogram* leg_hist_ = nullptr;
};

}  // namespace redundancy::core
