// Placement: whether a short piece of work runs on the pool or on the
// thread that asked for it, learned from the work's own runs.
//
// Three users share the rule: a gateway route (net/gateway.hpp), whose
// handler may run on the reactor that parsed the request; a threaded
// join-all electorate (core/parallel_evaluation.hpp), whose legs may run
// on the calling thread; and a hedged primary
// (core/sequential_alternatives.hpp), which may run on the calling thread
// instead of racing a hedge on the pool. Each starts on the pool. The
// budget is the hop it avoids: work that finishes in under kInlineBudgetNs
// costs the calling thread less than handing it to the pool, so
// kInlineStreak consecutive such runs move it onto the calling thread; one
// run over budget sends it back. Misjudged work therefore blocks its
// caller at most once per kInlineStreak + 1 runs. The caller times each
// run and reports it through observe().
#pragma once

#include <atomic>
#include <cstdint>

namespace redundancy::util {

class Placement {
 public:
  /// Measured on a 4-core VM (kernel 6.18, gcc 12.2). From outside the
  /// pool the hop is one round trip: traced perfbench read about 22 µs for
  /// reactor → worker → reactor on serve_redundant, and joining a 3-task
  /// batch took 16-22 µs (pool.batch3_external_ns_p50). A worker helps run
  /// its own batch, but waking a parked thief still costs it: three legs
  /// summing 3 / 9 / 18 / 30 µs took 5.7 / 17.8 / 20.7 / 24.0 µs pooled
  /// from a worker and 3.4 / 9.5 / 18.5 / 30.6 µs inline
  /// (bench_patterns BM_ElectorateLegsByCaller), so inline stops paying
  /// near 20 µs there too.
  static constexpr std::uint64_t kInlineBudgetNs = 20'000;
  static constexpr std::uint32_t kInlineStreak = 32;

  Placement() = default;
  /// A copy starts from the original's streak, so the patterns that hold a
  /// Placement stay copyable and movable.
  Placement(const Placement& other) noexcept
      : streak_(other.streak_.load(std::memory_order_relaxed)) {}
  Placement& operator=(const Placement& other) noexcept {
    streak_.store(other.streak_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
    return *this;
  }

  /// True once the work has earned the calling thread.
  [[nodiscard]] bool inline_ok() const noexcept {
    return streak_.load(std::memory_order_relaxed) >= kInlineStreak;
  }

  /// Learn from one run that took `wall_ns`. Writes only when the streak
  /// moves, so in steady state (inline and under budget) the line stays
  /// shared-clean for concurrent readers. Concurrent callers may race the
  /// increment; the streak only needs to be roughly consecutive.
  void observe(std::uint64_t wall_ns) noexcept {
    const std::uint32_t streak = streak_.load(std::memory_order_relaxed);
    if (wall_ns >= kInlineBudgetNs) {
      reset();
    } else if (streak < kInlineStreak) {
      streak_.store(streak + 1, std::memory_order_relaxed);
    }
  }

  /// Restart the streak, as an over-budget run does; no write when it is
  /// already at zero.
  void reset() noexcept {
    if (streak_.load(std::memory_order_relaxed) != 0) {
      streak_.store(0, std::memory_order_relaxed);
    }
  }

 private:
  std::atomic<std::uint32_t> streak_{0};  ///< consecutive runs under budget
};

}  // namespace redundancy::util
