// Placement: whether a short piece of work runs on the pool or on the
// thread that asked for it, learned from the work's own runs.
//
// Two users share the rule: a gateway route (net/gateway.hpp), whose
// handler may run on the reactor that parsed the request, and a threaded
// join-all electorate (core/parallel_evaluation.hpp), whose legs may run
// on the calling thread. Either starts on the pool. Work that finishes in
// under kInlineBudgetNs costs the calling thread less than the
// cross-thread wake-ups a pool hop adds, so kInlineStreak consecutive such
// runs move it onto the calling thread; one inline run over budget sends
// it back. Misjudged work therefore blocks its caller at most once per
// kInlineStreak + 1 runs. The caller times each run and reports it through
// observe().
#pragma once

#include <atomic>
#include <cstdint>

namespace redundancy::util {

class Placement {
 public:
  static constexpr std::uint64_t kInlineBudgetNs = 5'000;
  static constexpr std::uint32_t kInlineStreak = 32;

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
      if (streak != 0) streak_.store(0, std::memory_order_relaxed);
    } else if (streak < kInlineStreak) {
      streak_.store(streak + 1, std::memory_order_relaxed);
    }
  }

  void reset() noexcept { streak_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint32_t> streak_{0};  ///< consecutive runs under budget
};

}  // namespace redundancy::util
