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
//
// Every waiter, pool worker or not, follows one rule (Race::wait). It runs
// no other queued work. Each posted leg is claimed exactly once, by its
// pool task or by the waiter, as run_all claims its tasks by index. A leg
// may be posted *guarded*: a deadline is meant to overtake it, so the
// waiter never runs it while a deadline is pending (running it inline
// would hold the hedge back until it returned); a leg still running when
// a deadline passes has overrun it and counts as guarded from then on.
// When every worker is running a task, so none is free to take them, the
// waiter claims its unclaimed legs itself, lowest first, the guarded ones
// last and only with no deadline pending. A pool worker does so at once:
// its legs sit in its own deque, and sleeping would idle the worker they
// were queued on. A waiter outside the pool first lets an unguarded leg of
// its race that is running on a worker finish, since that leg may decide
// the race before one the waiter started could return. The wait re-checks
// every 1 ms, so it ends even when every worker is busy or queued behind a
// lock the waiter holds.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
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
/// failed, threw, or had its result rejected), whether a check judged it
/// and, in a race with a latency histogram, the variant's run time.
template <typename Out>
struct LegOutcome {
  std::size_t index = 0;
  Result<Out> result;
  bool judged = false;
  std::uint64_t ns = 0;  ///< as recorded in the race's histogram; else 0

  [[nodiscard]] bool ok() const noexcept { return result.has_value(); }
};

/// A variant's result, with a throw turned into a crash. `latency`, when
/// set, records the variant's run time, which also lands in `*ns` when
/// given.
template <typename In, typename Out>
Result<Out> run_variant(const Variant<In, Out>& v, const In& input,
                        obs::Histogram* latency, std::uint64_t* ns = nullptr) {
  const std::uint64_t t0 = latency != nullptr ? obs::now_ns() : 0;
  Result<Out> r = [&]() -> Result<Out> {
    try {
      return v(input);
    } catch (...) {
      return failure(FailureKind::crash, v.name + " threw");
    }
  }();
  if (latency != nullptr) {
    const std::uint64_t took = obs::now_ns() - t0;
    latency->record(took);
    if (ns != nullptr) *ns = took;
  }
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
/// check judged the leg; `ns` receives the run time `latency` records. The
/// leg's span is built only for a sampled request.
template <typename In, typename Out>
Result<Out> run_leg(const Legs<In, Out>& legs, std::size_t i, const In& input,
                    obs::SpanContext ctx, obs::Histogram* latency = nullptr,
                    bool* judged = nullptr, std::uint64_t* ns = nullptr) {
  const Variant<In, Out>& v = legs.variants[i];
  std::optional<obs::ScopedSpan> span;
  if (ctx.active()) {
    span.emplace(legs.span, ctx);
    span->set_detail(v.name);
  }
  Result<Out> out = run_variant(v, input, latency, ns);
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

/// Per-leg flags of one race: posted, guarded, claimed, settled. The flags
/// of the first 64 legs live in the race state itself, so a race allocates
/// nothing for them.
class LegFlags {
 public:
  static constexpr std::uint8_t kPosted = 1;
  static constexpr std::uint8_t kGuarded = 2;  ///< for a deadline to overtake
  static constexpr std::uint8_t kClaimed = 4;
  static constexpr std::uint8_t kSettled = 8;  ///< set under the race lock

  explicit LegFlags(std::size_t legs)
      : more_(legs > kInline
                  ? std::make_unique<std::atomic<std::uint8_t>[]>(legs -
                                                                  kInline)
                  : nullptr) {}

  void set(std::size_t i, std::uint8_t flags) noexcept {
    at(i).fetch_or(flags, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint8_t get(std::size_t i) noexcept {
    return at(i).load(std::memory_order_relaxed);
  }
  /// True for the one caller that claims leg i; only it runs the leg.
  [[nodiscard]] bool claim(std::size_t i) noexcept {
    return (at(i).fetch_or(kClaimed, std::memory_order_acq_rel) & kClaimed) ==
           0;
  }

 private:
  static constexpr std::size_t kInline = 64;

  std::atomic<std::uint8_t>& at(std::size_t i) noexcept {
    return i < kInline ? first_[i] : more_[i - kInline];
  }

  std::array<std::atomic<std::uint8_t>, kInline> first_{};
  std::unique_ptr<std::atomic<std::uint8_t>[]> more_;
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
      st_->flags.set(i, LegFlags::kPosted);
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

  /// Post one leg; a `guarded` one is left to the pool while a deadline is
  /// pending (see the file comment).
  void post(std::size_t i, bool guarded = false) {
    {
      std::lock_guard lock(st_->m);
      ++st_->posted;
    }
    st_->flags.set(i, guarded ? LegFlags::kPosted | LegFlags::kGuarded
                              : LegFlags::kPosted);
    batch_.pool().post(util::ThreadPool::Task{[st = st_, i] { run(*st, i); }});
  }

  /// Wait (before close()) until `decided(arrivals)` holds, every posted leg
  /// has settled, or `deadline_ns` (obs::now_ns() time; 0 = none) passes.
  /// `decided` runs under the race lock and sees this call's arrivals in
  /// arrival order; when it holds the race closes at once, so the verdict's
  /// ballots are exactly the ones it saw. Returns true when the deadline
  /// ended the wait; the legs then still running count as guarded. While
  /// every worker is busy (ThreadPool::saturated()) the waiter runs its own
  /// unclaimed legs (see the file comment).
  template <typename Decided>
  bool wait(Decided&& decided, std::uint64_t deadline_ns = 0) {
    using Clock = std::chrono::steady_clock;
    State& st = *st_;
    util::ThreadPool& pool = batch_.pool();
    const bool worker = pool.on_worker_thread();
    std::unique_lock lock(st.m);
    for (;;) {
      if (decided(std::span<const LegOutcome<Out>>{st.arrivals})) {
        close_locked(st);
        return false;
      }
      if (st.settled == st.posted) return false;
      const std::uint64_t now = obs::now_ns();
      if (deadline_ns != 0 && now >= deadline_ns) {
        guard_running(st);
        return true;
      }
      if (pool.saturated()) {
        if (const std::size_t i = claim_for_waiter(st, worker, deadline_ns);
            i < st.legs->size()) {
          lock.unlock();
          execute(st, i);
          lock.lock();
          continue;
        }
      }
      std::uint64_t until = now + 1'000'000;  // the 1 ms poll
      if (deadline_ns != 0) until = std::min(until, deadline_ns);
      st.cv.wait_until(lock,
                       Clock::time_point{std::chrono::nanoseconds{until}});
    }
  }

  /// Whether leg i has been claimed. Before close() that means it ran or is
  /// running.
  [[nodiscard]] bool claimed(std::size_t i) noexcept {
    return (st_->flags.get(i) & LegFlags::kClaimed) != 0;
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
          latency(h),
          flags(legs->size()) {
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
    LegFlags flags;
  };

  static void close_locked(State& st) {
    if (st.closed) return;
    st.closed = true;
    st.token.cancel();
  }

  /// The pool task of leg i: it runs the leg unless the waiter claimed it
  /// first, and then settles nothing.
  static void run(State& st, std::size_t i) {
    if (st.flags.claim(i)) execute(st, i);
  }

  static constexpr std::uint8_t kState = LegFlags::kPosted |
                                         LegFlags::kGuarded |
                                         LegFlags::kClaimed |
                                         LegFlags::kSettled;
  /// Running (claimed, not settled) and unguarded.
  static constexpr std::uint8_t kRunning =
      LegFlags::kPosted | LegFlags::kClaimed;

  /// The waiter's own pick (under the race lock), claimed: the lowest
  /// unguarded unclaimed leg, else, with no deadline pending, the lowest
  /// guarded one; none for a waiter outside the pool while an unguarded leg
  /// runs on a worker. legs->size() when there is none.
  static std::size_t claim_for_waiter(State& st, bool worker,
                                      std::uint64_t deadline_ns) {
    const std::size_t n = st.legs->size();
    for (std::size_t i = 0; i < n && !worker; ++i) {
      if ((st.flags.get(i) & kState) == kRunning) return n;
    }
    for (const std::uint8_t wanted :
         {LegFlags::kPosted, std::uint8_t{LegFlags::kPosted |
                                          LegFlags::kGuarded}}) {
      if (wanted != LegFlags::kPosted && deadline_ns != 0) break;
      for (std::size_t i = 0; i < n; ++i) {
        if (st.flags.get(i) == wanted && st.flags.claim(i)) return i;
      }
    }
    return n;
  }

  /// A deadline passed: the unguarded legs still running have overrun it.
  static void guard_running(State& st) {
    for (std::size_t i = 0; i < st.legs->size(); ++i) {
      if ((st.flags.get(i) & kState) == kRunning) {
        st.flags.set(i, LegFlags::kGuarded);
      }
    }
  }

  /// Run claimed leg i and settle it.
  static void execute(State& st, std::size_t i) {
    if (st.token.cancelled()) {  // skipped before it started: no work done
      std::lock_guard lock(st.m);
      ++st.settled;
      st.flags.set(i, LegFlags::kSettled);
      st.cv.notify_all();
      return;
    }
    bool judged = false;
    std::uint64_t ns = 0;
    Result<Out> out =
        run_leg(*st.legs, i, st.input, st.ctx, st.latency, &judged, &ns);
    std::lock_guard lock(st.m);
    ++st.settled;
    st.flags.set(i, LegFlags::kSettled);
    if (st.closed) {
      st.late->add(i, st.legs->variants[i].cost, judged, out.has_value());
    } else {
      st.arrivals.push_back({i, std::move(out), judged, ns});
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
