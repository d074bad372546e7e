// Export sinks for trace events.
//
// The Recorder drains per-thread buffers into every attached sink under one
// sink lock, so sink implementations see events one batch at a time and need
// no internal synchronisation beyond their own state — except RingTraceSink,
// which is also read concurrently by the live-telemetry gateway's route
// handlers and guards its ring itself. Four implementations:
//
//   JsonlTraceSink   — one JSON object per line (schema: EXPERIMENTS.md);
//                      the machine-readable trace artifact (*.trace.jsonl).
//   RingTraceSink    — bounded ring of the most recent *root* spans, served
//                      live by the telemetry gateway as `GET /traces?n=K`.
//   CollectingSink   — keeps the records in memory; what tests assert on.
//   NullSink         — counts and drops; the overhead-measurement baseline.
#pragma once

#include <cstddef>
#include <deque>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/event.hpp"

namespace redundancy::obs {

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_span(const SpanRecord& span) = 0;
  virtual void on_adjudication(const AdjudicationEvent& event) = 0;
  /// Called by Recorder::flush after a drain; push buffered bytes out.
  virtual void flush() {}
};

/// Escape a string for embedding in a JSON string literal.
[[nodiscard]] std::string json_escape(const std::string& s);

/// Serialise one record as a single JSONL line (no trailing newline).
[[nodiscard]] std::string to_jsonl(const SpanRecord& span);
[[nodiscard]] std::string to_jsonl(const AdjudicationEvent& event);

/// Writes each record as one JSON line to an owned file or borrowed stream.
///
/// Crash-safety: records accumulate as complete lines in an internal buffer
/// and reach the underlying stream only in whole-line blocks, each followed
/// immediately by a stream flush. The stream's own buffer therefore never
/// sits on a partial line between flushes — a sink dropped mid-campaign
/// (destructor flushes) or a process that dies between batches leaves a file
/// of complete JSONL lines, never a truncated record.
class JsonlTraceSink final : public TraceSink {
 public:
  /// Buffered bytes that trigger an automatic flush().
  static constexpr std::size_t kFlushBytes = 1 << 16;

  /// Append to (or create) `path`; by convention "<name>.trace.jsonl".
  explicit JsonlTraceSink(const std::string& path);
  /// Write to a caller-owned stream (tests use std::ostringstream).
  explicit JsonlTraceSink(std::ostream& out);
  ~JsonlTraceSink() override;

  void on_span(const SpanRecord& span) override;
  void on_adjudication(const AdjudicationEvent& event) override;
  /// Push every buffered line to the stream and flush the stream.
  void flush() override;

  /// False if the file path could not be opened (events are dropped).
  [[nodiscard]] bool is_open() const noexcept { return out_ != nullptr; }

 private:
  void append_line(std::string line);

  std::unique_ptr<std::ostream> owned_;
  std::ostream* out_ = nullptr;
  std::string pending_;  ///< complete ('\n'-terminated) lines only
};

/// Bounded ring of the most recent root spans, kept as ready-to-serve JSONL
/// lines. The Recorder writes under the sink lock while the telemetry
/// gateway's route handlers read tail() concurrently, so the ring carries
/// its own mutex.
class RingTraceSink final : public TraceSink {
 public:
  explicit RingTraceSink(std::size_t capacity = 256);

  /// Keeps root spans (parent_id == 0) only: one line per recent request.
  void on_span(const SpanRecord& span) override;
  void on_adjudication(const AdjudicationEvent&) override {}

  /// Up to the `n` most recent root spans, oldest first.
  [[nodiscard]] std::vector<std::string> tail(std::size_t n) const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::deque<std::string> lines_;
};

/// Retains every record in memory for inspection.
class CollectingSink final : public TraceSink {
 public:
  void on_span(const SpanRecord& span) override { spans_.push_back(span); }
  void on_adjudication(const AdjudicationEvent& event) override {
    adjudications_.push_back(event);
  }

  [[nodiscard]] const std::vector<SpanRecord>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] const std::vector<AdjudicationEvent>& adjudications()
      const noexcept {
    return adjudications_;
  }
  void clear() {
    spans_.clear();
    adjudications_.clear();
  }

 private:
  std::vector<SpanRecord> spans_;
  std::vector<AdjudicationEvent> adjudications_;
};

/// Counts and discards — the cheapest possible sink, used to measure the
/// recorder's own overhead without serialisation cost.
class NullSink final : public TraceSink {
 public:
  void on_span(const SpanRecord&) override { ++spans_; }
  void on_adjudication(const AdjudicationEvent&) override { ++adjudications_; }

  [[nodiscard]] std::size_t spans() const noexcept { return spans_; }
  [[nodiscard]] std::size_t adjudications() const noexcept {
    return adjudications_;
  }

 private:
  std::size_t spans_ = 0;
  std::size_t adjudications_ = 0;
};

}  // namespace redundancy::obs
