// Figure 1(c) — sequential alternatives.
//
// Alternatives are attempted one at a time; an adjudicator validates each
// result and, on rejection, the next alternative is activated — after an
// optional state rollback. This is the architecture of recovery blocks
// (Randell 1975), retry blocks, registry-based recovery, and dynamic service
// substitution.
//
// Label, result cache (enable_cache: a hit skips every alternative and the
// acceptance test, see core/redundancy_cache.hpp), metrics, the late-leg
// fold and the verdict event come from PatternCore
// (core/pattern_core.hpp); an alternative that throws is a crash ballot in
// every mode.
//
// Hedged execution (Options::Hedge): instead of waiting for the primary to
// fail or time out, the next alternative is launched as soon as the primary
// has been running longer than a latency budget derived live from the
// technique's own obs::Histogram (multiplier × p-quantile of observed
// alternative latencies). The alternatives race on the shared pool
// (core/race.hpp), one leg added per expired budget or failed attempt; the
// first result to pass the acceptance test wins, closing the race cancels
// alternatives that have not started, and stragglers fold their bookkeeping
// into the metrics on the next call — the same discipline the parallel
// patterns use. Hedging engages only for stateless blocks (no rollback
// installed): concurrent alternatives cannot share a restore point.
//
// A hedge pays a pool hand-off to cover a slow primary, so it is paid only
// for a primary that has been slow. Where the primary runs is learned from
// its own runs (util/placement.hpp, the rule gateway routes and threaded
// join-all electorates use): the primary is the first eligible
// alternative, the leg a hedge would overtake. Posted, it times its own
// run; one still running when the race closes counts as over budget, and
// one no thread ever claimed teaches nothing. Once kInlineStreak primaries
// in a row ran under kInlineBudgetNs (20 µs, the pool round trip), a call
// runs the alternatives one by one on the calling thread, as without
// hedging, builds no race and touches no heap; one primary over budget
// sends the next call back to the race. A primary that turns slow after
// such a streak is therefore not hedged on that one call: the misjudgement
// Placement accepts once per kInlineStreak + 1 runs.
//
// In the race the primary is posted guarded (core/race.hpp) only when it
// overran its hedge budget within the last kInlineStreak races: the waiter
// then leaves it to the pool until the budget passes and, when no worker
// is free, answers with the alternates. Any other primary the waiter runs
// itself when no worker is free to take it, as run_sequential would, so a
// caller on a saturated pool (or the only worker) neither sleeps out the
// budget nor skips a primary it has no reason to distrust. A guarded
// primary no worker claims teaches nothing, so after kInlineStreak such
// races the primary is tried again.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/pattern_core.hpp"
#include "core/taxonomy.hpp"
#include "obs/clock.hpp"
#include "util/placement.hpp"

namespace redundancy::core {

template <typename In, typename Out>
class SequentialAlternatives : public PatternCore<In, Out> {
 public:
  /// The Table-2 Pattern cell of every technique that runs on this class.
  static constexpr ArchitecturalPattern kPattern =
      ArchitecturalPattern::sequential_alternatives;

  struct Options {
    /// Invoked before every alternative after the first — the recovery-block
    /// "restore to the state before the primary ran". Installing a rollback
    /// disables hedging: concurrent alternatives cannot share it.
    std::function<void()> rollback;
    /// Give up after this many alternatives (0 = try all).
    std::size_t max_attempts = 0;

    /// Latency-budget hedging for stateless alternative sets.
    struct Hedge {
      bool enabled = false;
      /// Budget = multiplier × this percentile of the live alternative
      /// latency histogram (technique.alternative_ns{technique=label}).
      double quantile = 95.0;
      double multiplier = 1.0;
      /// Budget used until the histogram has min_samples observations.
      std::uint64_t fallback_budget_ns = 10'000'000;  // 10ms
      std::uint64_t min_samples = 32;
      /// Clamp on the derived budget (0 = unclamped). The floor keeps a
      /// freak-fast p95 from hedging every request; the ceiling bounds how
      /// long a stuck primary can delay the first hedge.
      std::uint64_t min_budget_ns = 100'000;  // 100µs
      std::uint64_t max_budget_ns = 0;
    };
    Hedge hedge;
  };

  SequentialAlternatives(std::vector<Variant<In, Out>> alternatives,
                         AcceptanceTest<In, Out> accept, Options options = {})
      : PatternCore<In, Out>("sequential_alternatives",
                             Legs<In, Out>{std::move(alternatives),
                                           {std::move(accept)},
                                           false,
                                           "alternative"},
                             false),
        options_(std::move(options)) {}

  Result<Out> run(const In& input) {
    return this->serve(input, [&](obs::SpanContext ctx) {
      if (options_.hedge.enabled && !options_.rollback) {
        // The race's legs may outlive this call, so they need their own
        // copy of the input.
        if constexpr (std::is_copy_constructible_v<In>) {
          if (!primary_.inline_ok()) return run_hedged(input, ctx);
          return run_sequential(input, ctx, &primary_);
        }
      }
      return run_sequential(input, ctx);
    });
  }

  /// Index of the alternative whose result was last accepted.
  [[nodiscard]] std::size_t last_used() const noexcept { return last_used_; }

  /// Install or update the hedging policy after construction. Hedging still
  /// only engages when no rollback is installed and In is copyable.
  void set_hedge(typename Options::Hedge hedge) noexcept {
    options_.hedge = hedge;
  }

  /// The hedge budget the next request would use (exposed for tests and the
  /// hedging experiment): multiplier × quantile of the live alternative
  /// latency histogram, clamped; the fallback until min_samples landed.
  [[nodiscard]] std::uint64_t hedge_budget_ns() {
    const typename Options::Hedge& h = options_.hedge;
    obs::Histogram& hist = this->leg_latency();
    if (hist.count() < h.min_samples) return h.fallback_budget_ns;
    const double p = hist.snapshot().percentile(h.quantile);
    auto budget = static_cast<std::uint64_t>(p * h.multiplier);
    if (h.min_budget_ns != 0) budget = std::max(budget, h.min_budget_ns);
    if (h.max_budget_ns != 0) budget = std::min(budget, h.max_budget_ns);
    return budget;
  }

 private:
  /// The alternatives one by one on the calling thread. `primary`, when
  /// set, learns the first one's run time.
  Result<Out> run_sequential(const In& input, obs::SpanContext ctx,
                             util::Placement* primary = nullptr) {
    const std::size_t limit = attempt_limit();
    Failure last = failure(FailureKind::no_alternatives, "no alternatives");
    std::size_t attempted = 0;
    std::size_t failed = 0;
    for (std::size_t i = 0; i < limit; ++i) {
      if (!this->legs().variants[i].enabled) continue;
      if (i > 0 && options_.rollback) {
        options_.rollback();
        ++this->metrics_.rollbacks;
      }
      bool judged = false;
      std::uint64_t ns = 0;
      Result<Out> verdict = run_leg(this->legs(), i, input, ctx,
                                    &this->leg_latency(), &judged, &ns);
      if (primary != nullptr && attempted == 0) primary->observe(ns);
      this->account_leg(i, judged, verdict.has_value());
      ++attempted;
      if (verdict.has_value()) {
        last_used_ = i;
        this->record_verdict(
            ctx, {.electorate = limit, .seen = attempted, .failed = failed},
            verdict, i);
        this->conclude(verdict, i > 0);
        return verdict;
      }
      ++failed;
      last = verdict.error();
    }
    return exhausted(
        ctx, {.electorate = limit, .seen = attempted, .failed = failed}, last);
  }

  Result<Out> run_hedged(const In& input, obs::SpanContext ctx) {
    // Eligible alternatives in priority order, honouring max_attempts.
    const std::size_t limit = attempt_limit();
    const std::size_t first = next_eligible(0, limit);
    if (first == limit) {
      return exhausted(
          ctx, {.electorate = limit},
          failure(FailureKind::no_alternatives, "no alternatives"));
    }

    auto race = this->race(input, ctx, &this->leg_latency());
    const bool distrusted = distrust_ > 0;
    if (distrusted) --distrust_;
    race.post(first, distrusted);
    std::size_t posted = 1;
    std::size_t next = next_eligible(first + 1, limit);
    std::uint64_t primary_budget = 0;  // the budget of the first hedge point
    std::optional<std::size_t> winner;
    for (;;) {
      const bool more = next < limit;
      // The budget is re-read from the live histogram at every hedge point,
      // so it adapts as latency observations accumulate mid-burst.
      const std::uint64_t budget = more ? hedge_budget_ns() : 0;
      if (posted == 1) primary_budget = budget;
      const std::uint64_t deadline = more ? obs::now_ns() + budget : 0;
      const bool expired = race.wait(first_passing<Out>(winner), deadline);
      if (winner || !more) break;
      // Budget elapsed (a hedge) or everything launched so far already
      // failed (the classic sequential fall-through): activate the next
      // alternative. Only true hedges count as hedged launches.
      if (expired) ++this->metrics_.hedged_launches;
      race.post(next);
      ++posted;
      next = next_eligible(next + 1, limit);
    }

    const bool primary_claimed = race.claimed(first);
    std::vector<LegOutcome<Out>> arrived = race.close();
    // The primary's run time teaches its placement and, against its hedge
    // budget, whether the next races guard it; one still running now was
    // over both. One nobody claimed never ran and teaches nothing.
    const auto primary =
        std::find_if(arrived.begin(), arrived.end(),
                     [first](const auto& leg) { return leg.index == first; });
    if (primary != arrived.end()) {
      primary_.observe(primary->ns);
      const bool overran = primary_budget != 0 && primary->ns >= primary_budget;
      distrust_ = overran ? util::Placement::kInlineStreak : 0;
    } else if (primary_claimed) {
      primary_.reset();
      distrust_ = util::Placement::kInlineStreak;
    }
    std::size_t eligible = 0;
    for (std::size_t i = first; i < limit; i = next_eligible(i + 1, limit)) {
      ++eligible;
    }
    for (const auto& leg : arrived) this->account_leg(leg);
    const Tally tally{.electorate = eligible,
                      .seen = arrived.size(),
                      .failed = failed_count<Out>(arrived),
                      .unfinished = posted - arrived.size()};
    if (!winner) {
      const auto last = std::find_if(arrived.rbegin(), arrived.rend(),
                                     [](const auto& leg) { return !leg.ok(); });
      return exhausted(ctx, tally,
                       last != arrived.rend()
                           ? last->result.error()
                           : failure(FailureKind::no_alternatives,
                                     "no passing alternative"));
    }
    LegOutcome<Out>& won = arrived[*winner];
    last_used_ = won.index;
    Result<Out> verdict = std::move(won.result);
    this->record_verdict(ctx, tally, verdict, last_used_);
    this->conclude(verdict, tally.failed > 0 || last_used_ != first);
    return verdict;
  }

  /// The first enabled alternative at or after `from`, or `limit`.
  [[nodiscard]] std::size_t next_eligible(std::size_t from,
                                          std::size_t limit) const noexcept {
    while (from < limit && !this->legs().variants[from].enabled) ++from;
    return from;
  }

  /// No alternative passed: the verdict carries the last failure seen.
  Result<Out> exhausted(obs::SpanContext ctx, const Tally& tally,
                        const Failure& last) {
    Result<Out> verdict =
        failure(FailureKind::no_alternatives, last.describe(), last.cause);
    this->record_verdict(ctx, tally, verdict);
    this->conclude(verdict, false);
    return verdict;
  }

  [[nodiscard]] std::size_t attempt_limit() const noexcept {
    return options_.max_attempts == 0
               ? this->width()
               : std::min(options_.max_attempts, this->width());
  }

  Options options_;
  std::size_t last_used_ = 0;
  util::Placement primary_;  ///< hedged primary: raced or on the caller
  /// Races left that post the primary guarded: it overran its hedge budget.
  std::uint32_t distrust_ = 0;
};

}  // namespace redundancy::core
