// The legs of a Figure-1 pattern, the one leg runner, and the one race.
//
// A *leg* is one variant run on the request's input, judged by its own
// acceptance test where the pattern puts the adjudicator on each leg
// (Figure 1b and 1c). run_leg() is the only place a variant is invoked:
// it opens the leg's span (when the request is sampled), turns a throw
// into a FailureKind::crash ballot and applies the leg's check, in every
// pattern and every mode. It returns the leg's result; a join-all
// electorate writes it into its ballot box, a race into a LegOutcome, and
// neither copies the variant's name.
//
// A Race runs legs on the shared pool when a pattern may decide before
// every leg is in: incremental voting, first-passing selection, hedging.
// The owner posts legs (a batch with one wake-up, or one leg at a time),
// waits until its verdict predicate holds, every posted leg has settled,
// or a deadline passes, and then closes the race: unstarted legs are
// cancelled, and legs that settle after that (stragglers) send their
// bookkeeping to the pattern's LateLegs fold instead of to this call.
// Legs may outlive the call and the pattern that posted them, so the race
// state shares ownership of everything they touch.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "core/result.hpp"
#include "core/variant.hpp"
#include "obs/obs.hpp"
#include "util/thread_pool.hpp"

namespace redundancy::core {

/// The variants a pattern runs and, where the adjudicator sits on each leg,
/// their acceptance tests.
template <typename In, typename Out>
struct Legs {
  std::vector<Variant<In, Out>> variants;
  /// None (the ballots go to a voter), one shared by every leg, or one per
  /// leg.
  std::vector<AcceptanceTest<In, Out>> checks;
  /// Self-checking components: the check is part of the component, so every
  /// execution counts as an adjudication even when the variant fails
  /// outright. Otherwise only a result that reaches the check does.
  bool self_checking = false;
  std::string_view span = "variant";  ///< span name of one leg

  [[nodiscard]] std::size_t size() const noexcept { return variants.size(); }
};

/// One settled leg: which leg, its result (a failure when the variant
/// failed, threw, or had its result rejected) and whether a check judged
/// it.
template <typename Out>
struct LegOutcome {
  std::size_t index = 0;
  Result<Out> result;
  bool judged = false;

  [[nodiscard]] bool ok() const noexcept { return result.has_value(); }
};

/// A variant's result, with a throw turned into a crash. `latency`, when
/// set, records the variant's run time.
template <typename In, typename Out>
Result<Out> run_variant(const Variant<In, Out>& v, const In& input,
                        obs::Histogram* latency) {
  const std::uint64_t t0 = latency != nullptr ? obs::now_ns() : 0;
  Result<Out> r = [&]() -> Result<Out> {
    try {
      return v(input);
    } catch (...) {
      return failure(FailureKind::crash, v.name + " threw");
    }
  }();
  if (latency != nullptr) latency->record(obs::now_ns() - t0);
  return r;
}

/// Apply leg i's acceptance test to its result `r`: a rejected result
/// becomes a failure. Returns whether the check judged the leg.
template <typename In, typename Out>
bool judge(const Legs<In, Out>& legs, std::size_t i, const In& input,
           Result<Out>& r) {
  const AcceptanceTest<In, Out>& check =
      legs.checks[legs.checks.size() == 1 ? 0 : i];
  const bool judged = legs.self_checking || r.has_value();
  if (r.has_value() && !check(input, r.value())) {
    r = failure(FailureKind::acceptance_failed,
                "rejected result of " + legs.variants[i].name);
  }
  return judged;
}

/// The one leg runner: leg i's result, a failure when the variant failed,
/// threw or had its result rejected. `judged`, when given, says whether a
/// check judged the leg. The leg's span is built only for a sampled
/// request.
template <typename In, typename Out>
Result<Out> run_leg(const Legs<In, Out>& legs, std::size_t i, const In& input,
                    obs::SpanContext ctx, obs::Histogram* latency = nullptr,
                    bool* judged = nullptr) {
  const Variant<In, Out>& v = legs.variants[i];
  std::optional<obs::ScopedSpan> span;
  if (ctx.active()) {
    span.emplace(legs.span, ctx);
    span->set_detail(v.name);
  }
  Result<Out> out = run_variant(v, input, latency);
  const bool checked = !legs.checks.empty() && judge(legs, i, input, out);
  if (judged != nullptr) *judged = checked;
  if (span) span->set_ok(out.has_value());
  return out;
}

/// Bookkeeping of legs that settled after their race closed, written with
/// relaxed atomics from any thread and folded into the pattern's Metrics
/// by its owner (PatternCore::fold).
struct LateLegs {
  /// `flagged` legs get a failed flag each (patterns that disable failed
  /// components); 0 for the others.
  explicit LateLegs(std::size_t flagged) : failed(flagged) {}

  void add(std::size_t leg, double cost, bool judged, bool ok) noexcept {
    executions.fetch_add(1, std::memory_order_relaxed);
    this->cost.fetch_add(cost, std::memory_order_relaxed);
    if (judged) adjudications.fetch_add(1, std::memory_order_relaxed);
    if (ok) return;
    failures.fetch_add(1, std::memory_order_relaxed);
    if (leg < failed.size()) failed[leg].store(true, std::memory_order_release);
  }

  std::atomic<std::size_t> executions{0};
  std::atomic<std::size_t> failures{0};
  std::atomic<std::size_t> adjudications{0};
  std::atomic<double> cost{0.0};
  std::vector<std::atomic<bool>> failed;
};

template <typename In, typename Out>
class Race {
 public:
  /// Legs go to `batch`'s pool; batch posts reuse its capacity, so `batch`
  /// must be owned by the calling thread.
  Race(util::BatchRunner& batch, const In& input,
       std::shared_ptr<const Legs<In, Out>> legs,
       std::shared_ptr<LateLegs> late, obs::SpanContext ctx,
       obs::Histogram* latency = nullptr)
      : batch_(batch),
        st_(std::make_shared<State>(input, std::move(legs), std::move(late),
                                    ctx, latency)) {}
  ~Race() { (void)close(); }

  Race(const Race&) = delete;
  Race& operator=(const Race&) = delete;

  /// Post every leg `pick(i)` selects as one batch (one wake-up). Returns
  /// the number posted.
  template <typename Pick>
  std::size_t post_batch(Pick&& pick) {
    std::size_t n = 0;
    for (std::size_t i = 0; i < st_->legs->size(); ++i) {
      if (!pick(i)) continue;
      batch_.add([st = st_, i] { run(*st, i); });
      ++n;
    }
    {
      std::lock_guard lock(st_->m);
      st_->posted += n;
    }
    batch_.dispatch();
    return n;
  }

  /// Post one leg.
  void post(std::size_t i) {
    {
      std::lock_guard lock(st_->m);
      ++st_->posted;
    }
    batch_.pool().post(util::ThreadPool::Task{[st = st_, i] { run(*st, i); }});
  }

  /// Wait (before close()) until `decided(arrivals)` holds, every posted leg
  /// has settled, or `deadline_ns` (obs::now_ns() time; 0 = none) passes.
  /// `decided` runs under the race lock and sees this call's arrivals in
  /// arrival order; when it holds the race closes at once, so the verdict's
  /// ballots are exactly the ones it saw. Returns true when the deadline
  /// ended the wait. The wait is ThreadPool::help_until: a worker helps run
  /// queued tasks meanwhile, an external caller blocks until a leg settles
  /// or the deadline passes, whichever comes first.
  template <typename Decided>
  bool wait(Decided&& decided, std::uint64_t deadline_ns = 0) {
    State& st = *st_;
    std::unique_lock lock(st.m);
    bool expired = false;
    const auto done = [&] {
      if (decided(std::span<const LegOutcome<Out>>{st.arrivals})) {
        close_locked(st);
        return true;
      }
      if (st.settled == st.posted) return true;
      expired = deadline_ns != 0 && obs::now_ns() >= deadline_ns;
      return expired;
    };
    batch_.pool().help_until(lock, st.cv, done, deadline_ns);
    return expired;
  }

  /// End the race (idempotent): cancel unstarted legs, send later
  /// settlements to the fold, and hand back this call's arrivals.
  std::vector<LegOutcome<Out>> close() {
    std::lock_guard lock(st_->m);
    close_locked(*st_);
    return std::move(st_->arrivals);
  }

 private:
  struct State {
    State(const In& in, std::shared_ptr<const Legs<In, Out>> l,
          std::shared_ptr<LateLegs> f, obs::SpanContext c, obs::Histogram* h)
        : input(in),
          legs(std::move(l)),
          late(std::move(f)),
          ctx(c),
          latency(h) {
      arrivals.reserve(legs->size());
    }

    const In input;  ///< the legs' own copy: they may outlive the call
    const std::shared_ptr<const Legs<In, Out>> legs;
    const std::shared_ptr<LateLegs> late;
    const obs::SpanContext ctx;
    obs::Histogram* const latency;  ///< registry-owned, outlives every leg

    std::mutex m;
    std::condition_variable cv;
    std::vector<LegOutcome<Out>> arrivals;  ///< guarded by m, until closed
    std::size_t posted = 0;                 ///< guarded by m
    std::size_t settled = 0;                ///< ran or skipped; guarded by m
    bool closed = false;                    ///< guarded by m
    util::CancellationToken token;
  };

  static void close_locked(State& st) {
    if (st.closed) return;
    st.closed = true;
    st.token.cancel();
  }

  /// The pool task of leg i.
  static void run(State& st, std::size_t i) {
    if (st.token.cancelled()) {  // skipped before it started: no work done
      std::lock_guard lock(st.m);
      ++st.settled;
      st.cv.notify_all();
      return;
    }
    bool judged = false;
    Result<Out> out =
        run_leg(*st.legs, i, st.input, st.ctx, st.latency, &judged);
    std::lock_guard lock(st.m);
    ++st.settled;
    if (st.closed) {
      st.late->add(i, st.legs->variants[i].cost, judged, out.has_value());
    } else {
      st.arrivals.push_back({i, std::move(out), judged});
    }
    st.cv.notify_all();
  }

  util::BatchRunner& batch_;
  std::shared_ptr<State> st_;
};

/// Verdict predicate of the selecting patterns: the first arrival whose
/// ballot passed wins; its position in the arrivals lands in `winner`.
template <typename Out>
auto first_passing(std::optional<std::size_t>& winner) {
  return [&winner](std::span<const LegOutcome<Out>> arrived) {
    for (std::size_t k = 0; k < arrived.size(); ++k) {
      if (arrived[k].ok()) {
        winner = k;
        return true;
      }
    }
    return false;
  };
}

}  // namespace redundancy::core
