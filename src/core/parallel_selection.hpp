// Figure 1(b) — parallel selection.
//
// Every variant executes in parallel and validates its own result through a
// per-component adjudicator (acceptance test). The highest-priority passing
// result is selected; components that fail their check are disabled — the
// "acting / hot spare" discipline of self-checking programming (Laprie et
// al.): a failed acting component is discarded and its spare takes over, so
// redundancy is progressively consumed.
//
// Label, cache, metrics, the late-leg fold and the verdict event come from
// PatternCore (core/pattern_core.hpp); a component that throws is a crash
// ballot in every mode. With Options::concurrency == Concurrency::threaded
// the enabled components race on the shared pool (core/race.hpp): the first
// result to *arrive* and pass its acceptance test is returned immediately,
// closing the race cancels components that have not started, and
// stragglers finish in the background. Selection is therefore by completion
// time rather than by component priority — the latency-optimal reading of
// Figure 1(b). Recoveries and the verdict event count this call's own
// components; a straggler's failure folds into the metrics (and disables
// its component) on the next call.
#pragma once

#include <cstddef>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/concurrency.hpp"
#include "core/pattern_core.hpp"

namespace redundancy::core {

template <typename In, typename Out>
class ParallelSelection : public PatternCore<In, Out> {
 public:
  struct Checked {
    Variant<In, Out> variant;
    AcceptanceTest<In, Out> check;
  };

  struct Options {
    /// Take failing components permanently out of service.
    bool disable_on_failure = true;
    /// Stop executing spares once a passing result is found. Figure 1(b)
    /// runs everything in parallel, so the default is to run all. Threaded
    /// execution is inherently lazy (first acceptable ballot wins).
    bool lazy = false;
    /// Sequential keeps priority order; threaded returns the first passing
    /// result to arrive. Components must be thread-safe when threaded.
    Concurrency concurrency = Concurrency::sequential;
  };

  explicit ParallelSelection(std::vector<Checked> components,
                             Options options = {})
      : PatternCore<In, Out>("parallel_selection",
                             legs_of(std::move(components)),
                             options.disable_on_failure),
        options_(options) {}

  Result<Out> run(const In& input) {
    return this->serve(input, [&](obs::SpanContext ctx) {
      if (options_.concurrency == Concurrency::threaded) {
        if constexpr (std::is_copy_constructible_v<In>) {
          return run_threaded(input, ctx);
        }
      }
      return run_sequential(input, ctx);
    });
  }

  /// Index of the component whose result was last selected.
  [[nodiscard]] std::size_t acting() const noexcept { return acting_; }
  [[nodiscard]] std::size_t alive() const noexcept {
    this->fold();
    std::size_t n = 0;
    for (const auto& v : this->legs().variants) n += v.enabled ? 1 : 0;
    return n;
  }
  /// Re-enable every component (e.g. after repair / redeployment).
  void reinstate_all() noexcept {
    this->fold();
    for (auto& v : this->legs().variants) v.enabled = true;
  }

 private:
  static Legs<In, Out> legs_of(std::vector<Checked> components) {
    Legs<In, Out> legs{{}, {}, true, "component"};
    for (Checked& c : components) {
      legs.variants.push_back(std::move(c.variant));
      legs.checks.push_back(std::move(c.check));
    }
    return legs;
  }

  Result<Out> run_sequential(const In& input, obs::SpanContext ctx) {
    std::optional<Result<Out>> passed;
    std::optional<std::size_t> winner;
    std::size_t executed = 0;
    std::size_t failed = 0;
    for (std::size_t i = 0; i < this->width(); ++i) {
      if (!this->legs().variants[i].enabled) continue;
      if (options_.lazy && winner) break;
      bool judged = false;
      Result<Out> r = run_leg(this->legs(), i, input, ctx, nullptr, &judged);
      this->account_leg(i, judged, r.has_value());
      ++executed;
      if (!r.has_value()) {
        ++failed;
      } else if (!winner) {
        passed.emplace(std::move(r));
        winner = i;
        acting_ = i;
      }
    }
    // The failure is built only when no component passed.
    Result<Out> selected =
        passed ? std::move(*passed)
               : failure(FailureKind::no_alternatives,
                         "all components disabled");
    this->record_verdict(
        ctx, {.electorate = this->width(), .seen = executed, .failed = failed},
        selected, winner);
    this->conclude(selected, failed > 0);
    return selected;
  }

  Result<Out> run_threaded(const In& input, obs::SpanContext ctx) {
    auto race = this->race(input, ctx);
    const std::size_t eligible = race.post_batch(
        [this](std::size_t i) { return this->legs().variants[i].enabled; });
    if (eligible == 0) {
      ++this->metrics_.unrecovered;
      return failure(FailureKind::no_alternatives, "all components disabled");
    }
    std::optional<std::size_t> winner;
    race.wait(first_passing<Out>(winner));
    std::vector<LegOutcome<Out>> arrived = race.close();
    for (const auto& leg : arrived) this->account_leg(leg);
    const std::size_t failed = failed_count<Out>(arrived);
    Result<Out> verdict =
        winner ? std::move(arrived[*winner].result)
            : failure(FailureKind::no_alternatives, "no passing component");
    if (winner) acting_ = arrived[*winner].index;
    // Selection is by completion time: the verdict is the first passing
    // ballot, everything not yet in was cancelled.
    this->record_verdict(ctx,
                         {.electorate = eligible,
                          .seen = arrived.size(),
                          .failed = failed,
                          .unfinished = eligible - arrived.size()},
                         verdict,
                         winner ? std::optional{acting_} : std::nullopt);
    this->conclude(verdict, failed > 0);
    return verdict;
  }

  Options options_;
  std::size_t acting_ = 0;
};

}  // namespace redundancy::core
