// Figure 1(a) — parallel evaluation.
//
// All variants execute on the same input configuration; a single adjudicator
// (typically an implicit voter) evaluates the full set of results. This is
// the architecture of N-version programming, N-copy data diversity, process
// replicas, and N-variant data.
//
// Label, cache, metrics, the late-leg fold and the verdict event come from
// PatternCore (core/pattern_core.hpp); a variant that throws is a crash
// ballot in every mode (core/race.hpp, run_leg). With Concurrency::threaded
// the electorate fans out on the shared work-stealing pool as one batch and
// the caller joins it (helping with queued work while it waits); after the
// barrier it accounts each ballot on its own thread. Where the electorate
// runs is learned from its own runs (util/placement.hpp, the rule gateway
// routes use): each pooled leg times itself, and once kInlineStreak calls
// in a row had legs that summed under kInlineBudgetNs (20 µs, about what
// the pool hand-off costs, from a worker or from outside the pool), the
// legs run one by one on the calling thread; one inline call over budget
// sends the next call back to the pool. The legs of one call therefore
// must not wait on each other, which Concurrency::sequential requires too.
// Once the legs run inline, a gateway route that calls run() queues no
// pool work and earns its reactor (net/gateway.hpp).
//
// A join-all call, sequential, inline or pooled, votes on the instance's
// ballot box: one Ballot per leg, whose index and name are written at
// construction and whose result every call overwrites before the vote. A
// warmed-up call with healthy legs therefore performs no heap allocation;
// it pays for its legs and its vote. run() on one instance is owner-thread
// and not reentrant.
//
// With Adjudication::incremental the legs race instead, on the pool
// whatever they cost: the caller re-votes on the ballots that have arrived
// so far, padding the missing ones with failure placeholders so the
// electorate size stays fixed, and returns as soon as the voter reaches a
// success verdict. Every round votes on the same ballot box, so a re-vote
// copies no name. Stragglers then finish in the background; their
// execution cost is folded into the metrics on the next call.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/concurrency.hpp"
#include "core/pattern_core.hpp"
#include "core/voters.hpp"
#include "obs/clock.hpp"
#include "util/placement.hpp"

namespace redundancy::core {

template <typename In, typename Out>
class ParallelEvaluation : public PatternCore<In, Out> {
 public:
  ParallelEvaluation(std::vector<Variant<In, Out>> variants, Voter<Out> voter,
                     Concurrency mode = Concurrency::sequential,
                     Adjudication adjudication = Adjudication::join_all)
      : PatternCore<In, Out>("parallel_evaluation",
                             Legs<In, Out>{std::move(variants), {}, false,
                                           "variant"},
                             false),
        voter_(std::move(voter)),
        mode_(mode),
        adjudication_(adjudication),
        leg_ns_(this->width()) {
    box_.reserve(this->width());
    for (std::size_t i = 0; i < this->width(); ++i) {
      box_.push_back({i, this->legs().variants[i].name,
                      failure(FailureKind::unavailable)});
    }
  }

  /// Run every variant on `input` and adjudicate the ballots (through the
  /// result cache when one is enabled — a hit skips the electorate and the
  /// voter entirely and performs no heap allocation).
  Result<Out> run(const In& input) {
    return this->serve(input, [&](obs::SpanContext ctx) -> Result<Out> {
      if (mode_ == Concurrency::threaded &&
          adjudication_ == Adjudication::incremental) {
        // The race's legs may outlive this call, so they need their own
        // copy of the input; fall back to join_all for move-only inputs.
        if constexpr (std::is_copy_constructible_v<In>) {
          return run_incremental(input, ctx);
        }
      }
      collect(input, ctx);
      std::size_t failed = 0;
      for (const Ballot<Out>& b : box_) {
        const bool ok = b.result.has_value();
        // A voter, not a per-leg check, adjudicates these legs.
        this->account_leg(b.variant_index, false, ok);
        failed += ok ? 0 : 1;
      }
      ++this->metrics_.adjudications;
      Result<Out> verdict = voter_(box_);
      this->record_verdict(ctx, {.electorate = box_.size(),
                                 .seen = box_.size(),
                                 .failed = failed},
                           verdict);
      this->conclude(verdict, failed > 0);
      return verdict;
    });
  }

 private:
  /// Overwrite every ballot in the box with this call's result: a barrier
  /// over the whole electorate. Pooled, the legs go to the pool as one
  /// batch (one wake-up, one pending update), each writes its own ballot
  /// and run time, and the caller reads them only after the barrier. The
  /// task closures fit the Task inline buffer, so after warm-up neither
  /// path allocates.
  void collect(const In& input, obs::SpanContext ctx) {
    const std::size_t n = box_.size();
    const bool threaded = mode_ == Concurrency::threaded;
    if (threaded && !placement_.inline_ok()) {
      for (std::size_t i = 0; i < n; ++i) {
        this->batch_.add([this, i, &input, ctx] {
          const std::uint64_t t0 = obs::now_ns();
          box_[i].result = run_leg(this->legs(), i, input, ctx);
          leg_ns_[i] = obs::now_ns() - t0;
        });
      }
      this->batch_.run_and_wait();
      std::uint64_t legs_ns = 0;
      for (const std::uint64_t ns : leg_ns_) legs_ns += ns;
      placement_.observe(legs_ns);
      return;
    }
    const std::uint64_t t0 = threaded ? obs::now_ns() : 0;
    for (std::size_t i = 0; i < n; ++i) {
      box_[i].result = run_leg(this->legs(), i, input, ctx);
    }
    if (threaded) placement_.observe(obs::now_ns() - t0);
  }

  Result<Out> run_incremental(const In& input, obs::SpanContext ctx) {
    const std::size_t n = this->width();
    auto race = this->race(input, ctx);
    race.post_batch([](std::size_t) { return true; });

    std::optional<Result<Out>> early;
    std::size_t voted = 0;
    std::size_t rounds = 0;
    race.wait([&](std::span<const LegOutcome<Out>> arrived) {
      // Once every ballot is in, the full vote below decides.
      if (arrived.size() == n || arrived.size() == voted) return false;
      voted = arrived.size();
      ++rounds;
      ++this->metrics_.adjudications;
      fill_box(arrived);
      Result<Out> v = voter_(box_);
      // A success verdict short-circuits the join: everything not yet in is
      // cancelled (or finishes as an unobserved straggler).
      this->record_verdict(ctx, {.electorate = n,
                                 .seen = voted,
                                 .failed = failed_count<Out>(arrived),
                                 .unfinished = v.has_value() ? n - voted : 0,
                                 .round = rounds},
                           v);
      if (!v.has_value()) return false;
      early.emplace(std::move(v));
      return true;
    });

    std::vector<LegOutcome<Out>> arrived = race.close();
    for (const auto& leg : arrived) this->account_leg(leg);
    const std::size_t failed = failed_count<Out>(arrived);
    if (early.has_value()) {
      this->conclude(*early, failed > 0);
      return std::move(*early);
    }

    // Every variant finished without an early success: vote the full set.
    // The race is closed, so its arrivals move into the box.
    fill_box(std::span<LegOutcome<Out>>{arrived});
    ++this->metrics_.adjudications;
    Result<Out> verdict = voter_(box_);
    this->record_verdict(ctx, {.electorate = n,
                               .seen = arrived.size(),
                               .failed = failed,
                               .round = rounds + 1},
                         verdict);
    this->conclude(verdict, failed > 0);
    return verdict;
  }

  /// Fill the box for one incremental vote: every arrived result in its
  /// leg's ballot, a failure placeholder in the others, so the voter sees
  /// the full electorate size (a strict majority of n stays a strict
  /// majority once every ballot is in). A re-vote copies the results, which
  /// the open race still holds; the final vote moves them. A ballot that
  /// already holds the placeholder, left by an earlier round or call, is
  /// not rewritten.
  template <typename Leg>
  void fill_box(std::span<Leg> arrived) {
    static const Failure kNotYet =
        failure(FailureKind::unavailable, "ballot not yet available");
    const auto holds_placeholder = [](const Result<Out>& r) {
      return !r.has_value() && r.error().kind == kNotYet.kind &&
             r.error().detail == kNotYet.detail;
    };
    for (Ballot<Out>& b : box_) {
      const auto it = std::find_if(
          arrived.begin(), arrived.end(),
          [&b](const auto& leg) { return leg.index == b.variant_index; });
      if (it == arrived.end()) {
        if (!holds_placeholder(b.result)) b.result = kNotYet;
      } else if constexpr (std::is_const_v<Leg>) {
        b.result = it->result;
      } else {
        b.result = std::move(it->result);
      }
    }
  }

  Voter<Out> voter_;
  Concurrency mode_;
  Adjudication adjudication_;
  util::Placement placement_;  ///< join-all electorate: pool or caller
  /// The ballot box: one ballot per leg, index and name written once; each
  /// join-all call overwrites every result before the vote.
  std::vector<Ballot<Out>> box_;
  std::vector<std::uint64_t> leg_ns_;  ///< pooled legs' own run times
};

}  // namespace redundancy::core
