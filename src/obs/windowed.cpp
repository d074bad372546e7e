#include "obs/windowed.hpp"

namespace redundancy::obs {

namespace {

std::size_t clamp_slots(std::size_t slots) { return slots == 0 ? 1 : slots; }

/// A ring slot whose epoch ended at `t_end` still overlaps the window
/// (now - span, now] when it ended after the window's left edge.
bool slot_in_window(std::uint64_t t_end, std::uint64_t span,
                    std::uint64_t now) noexcept {
  return t_end + span > now;
}

}  // namespace

WindowedHistogram::WindowedHistogram(const Histogram& source,
                                     WindowOptions options)
    : source_(&source),
      options_{options.epoch_ns == 0 ? WindowOptions{}.epoch_ns
                                     : options.epoch_ns,
               clamp_slots(options.slots)},
      ring_(options_.slots),
      // Samples recorded before the wrapper existed belong to no epoch: a
      // wrapper attached to a long-lived registry metric must not surface
      // that entire history as its first "live partial epoch".
      base_(source.snapshot()) {}

void WindowedHistogram::rotate(std::uint64_t now_ns) {
  const HistogramSnapshot current = source_->snapshot();
  std::lock_guard lock(mutex_);
  Slot& slot = ring_[head_];
  slot.delta = current.diff(base_);
  slot.t_end_ns = now_ns;
  base_ = current;
  head_ = (head_ + 1) % ring_.size();
  ++rotations_;
}

HistogramSnapshot WindowedHistogram::window(std::uint64_t span_ns,
                                            std::uint64_t now_ns) const {
  const HistogramSnapshot current = source_->snapshot();
  std::lock_guard lock(mutex_);
  HistogramSnapshot out = current.diff(base_);  // live partial epoch
  const std::size_t n = ring_.size();
  const std::size_t filled =
      rotations_ < n ? static_cast<std::size_t>(rotations_) : n;
  for (std::size_t i = 0; i < filled; ++i) {
    // Newest first: slot head_-1 closed most recently.
    const Slot& slot = ring_[(head_ + n - 1 - i) % n];
    if (!slot_in_window(slot.t_end_ns, span_ns, now_ns)) break;
    out.merge(slot.delta);
  }
  return out;
}

std::uint64_t WindowedHistogram::rotations() const {
  std::lock_guard lock(mutex_);
  return rotations_;
}

WindowedCounter::WindowedCounter(const Counter& source, WindowOptions options,
                                 bool count_history)
    : source_(&source),
      options_{options.epoch_ns == 0 ? WindowOptions{}.epoch_ns
                                     : options.epoch_ns,
               clamp_slots(options.slots)},
      ring_(options_.slots),
      base_(count_history ? 0 : source.total()) {}

void WindowedCounter::rotate(std::uint64_t now_ns) {
  const std::uint64_t current = source_->total();
  std::lock_guard lock(mutex_);
  Slot& slot = ring_[head_];
  slot.delta = current >= base_ ? current - base_ : 0;
  slot.t_end_ns = now_ns;
  base_ = current;
  head_ = (head_ + 1) % ring_.size();
  ++rotations_;
}

std::uint64_t WindowedCounter::window(std::uint64_t span_ns,
                                      std::uint64_t now_ns) const {
  const std::uint64_t current = source_->total();
  std::lock_guard lock(mutex_);
  std::uint64_t out = current >= base_ ? current - base_ : 0;
  const std::size_t n = ring_.size();
  const std::size_t filled =
      rotations_ < n ? static_cast<std::size_t>(rotations_) : n;
  for (std::size_t i = 0; i < filled; ++i) {
    const Slot& slot = ring_[(head_ + n - 1 - i) % n];
    if (!slot_in_window(slot.t_end_ns, span_ns, now_ns)) break;
    out += slot.delta;
  }
  return out;
}

std::uint64_t WindowedCounter::rotations() const {
  std::lock_guard lock(mutex_);
  return rotations_;
}

}  // namespace redundancy::obs
