// Sliding-window views over the cumulative sharded metric primitives.
//
// Every obs:: counter and histogram is cumulative-since-process-start, which
// is the right shape for exact merges and Prometheus scrapes but useless for
// steering: an SLO controller needs to know what the last minute looked
// like, not the average since boot. WindowedCounter / WindowedHistogram add
// that view WITHOUT touching the hot-path write side: writers keep hitting
// the existing lock-free shards, and a rotation driver (obs::SloTracker's
// tick thread, or a test calling rotate() with synthetic time) periodically
// captures the cumulative snapshot and stores the per-epoch *delta* in a
// ring. A window query merges the most recent K epoch deltas plus the live
// partial epoch (current cumulative minus the last rotation base), so the
// newest samples are visible before the next rotation.
//
// Because epoch deltas are exact bucket counts, a window percentile is just
// HistogramSnapshot::percentile over a merge of deltas — the same exact,
// deterministic arithmetic the sharded campaign aggregation relies on.
// Window edges are quantized to the epoch: a query for the last S seconds
// covers at most one extra epoch of older samples, never fewer.
//
// Thread-safety: rotate() and window() take the wrapper's own mutex; the
// underlying metric stays lock-free for writers. One rotation driver per
// wrapper is the intended shape (concurrent rotate()s are safe but the
// epoch spacing becomes whatever the callers make it).
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "obs/counter.hpp"
#include "obs/histogram.hpp"

namespace redundancy::obs {

/// Rotation cadence and ring depth shared by both windowed wrappers. The
/// defaults cover a 1-hour window at 10-second epochs (360 slots + 1 spare
/// so the oldest needed epoch is never evicted mid-query).
struct WindowOptions {
  std::uint64_t epoch_ns = 10'000'000'000ull;  ///< rotation period
  std::size_t slots = 361;                     ///< ring depth (>= 1)
};

class WindowedHistogram {
 public:
  explicit WindowedHistogram(const Histogram& source, WindowOptions options = {});

  /// Capture the delta since the previous rotation into the next ring slot.
  /// `now_ns` is the rotation instant (obs::now_ns(), or synthetic time in
  /// tests — the wrapper never reads a clock itself).
  void rotate(std::uint64_t now_ns);

  /// Exact merged snapshot of the samples recorded in (now - span, now]:
  /// the live partial epoch plus every ring slot whose epoch overlaps the
  /// window. Quantized to the epoch (covers at most one extra epoch).
  [[nodiscard]] HistogramSnapshot window(std::uint64_t span_ns,
                                         std::uint64_t now_ns) const;

  /// The underlying cumulative snapshot (what /metrics exports).
  [[nodiscard]] HistogramSnapshot cumulative() const {
    return source_->snapshot();
  }

  [[nodiscard]] std::uint64_t epoch_ns() const noexcept {
    return options_.epoch_ns;
  }
  [[nodiscard]] std::size_t slots() const noexcept { return options_.slots; }
  [[nodiscard]] std::uint64_t rotations() const;

 private:
  struct Slot {
    HistogramSnapshot delta;
    std::uint64_t t_end_ns = 0;  ///< rotation instant that closed the epoch
  };

  const Histogram* source_;
  WindowOptions options_;
  mutable std::mutex mutex_;
  std::vector<Slot> ring_;
  std::size_t head_ = 0;  ///< next slot to write
  std::uint64_t rotations_ = 0;
  HistogramSnapshot base_;  ///< cumulative at the last rotation
};

class WindowedCounter {
 public:
  /// Events `source` counted before construction belong to no epoch, unless
  /// `count_history` puts them in the live partial epoch.
  explicit WindowedCounter(const Counter& source, WindowOptions options = {},
                           bool count_history = false);

  void rotate(std::uint64_t now_ns);

  /// Events counted in (now - span, now], live partial epoch included.
  [[nodiscard]] std::uint64_t window(std::uint64_t span_ns,
                                     std::uint64_t now_ns) const;

  /// window() scaled to events per second over the span.
  [[nodiscard]] double rate_per_sec(std::uint64_t span_ns,
                                    std::uint64_t now_ns) const {
    return span_ns == 0 ? 0.0
                        : static_cast<double>(window(span_ns, now_ns)) * 1e9 /
                              static_cast<double>(span_ns);
  }

  [[nodiscard]] std::uint64_t cumulative() const { return source_->total(); }
  [[nodiscard]] std::uint64_t epoch_ns() const noexcept {
    return options_.epoch_ns;
  }
  [[nodiscard]] std::size_t slots() const noexcept { return options_.slots; }
  [[nodiscard]] std::uint64_t rotations() const;

 private:
  struct Slot {
    std::uint64_t delta = 0;
    std::uint64_t t_end_ns = 0;
  };

  const Counter* source_;
  WindowOptions options_;
  mutable std::mutex mutex_;
  std::vector<Slot> ring_;
  std::size_t head_ = 0;
  std::uint64_t rotations_ = 0;
  std::uint64_t base_ = 0;
};

}  // namespace redundancy::obs
