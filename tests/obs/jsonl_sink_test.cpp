// JsonlTraceSink crash-safety: the underlying stream must only ever hold
// whole '\n'-terminated JSONL lines — a sink dropped mid-campaign or a
// process dying between batches leaves a parseable file, never a truncated
// record.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "obs/sink.hpp"

namespace redundancy::obs {
namespace {

SpanRecord make_span(std::uint64_t i, const std::string& detail = "") {
  SpanRecord s;
  s.trace_id = i + 1;
  s.span_id = i + 1;
  s.name = "variant";
  s.detail = detail;
  s.t_start_ns = 100 * i;
  s.t_end_ns = 100 * i + 50;
  return s;
}

/// Every line of `text` is complete: non-empty, a single JSON object, and
/// the text itself ends with a newline (no dangling partial line).
void expect_whole_lines(const std::string& text, std::size_t expected) {
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n') << "stream ends mid-line";
  std::istringstream in{text};
  std::string line;
  std::size_t count = 0;
  while (std::getline(in, line)) {
    ++count;
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
  }
  EXPECT_EQ(count, expected);
}

TEST(JsonlSink, DroppedSinkFlushesOnlyCompleteLines) {
  std::ostringstream out;
  {
    JsonlTraceSink sink{out};
    for (std::uint64_t i = 0; i < 20; ++i) sink.on_span(make_span(i));
    AdjudicationEvent event;
    event.technique = "nvp";
    event.accepted = true;
    event.verdict = std::string{"ok"};
    sink.on_adjudication(event);
    // Below the flush threshold nothing has reached the stream yet —
    // the buffer holds the (complete) lines.
    EXPECT_TRUE(out.str().empty());
  }  // destructor flushes
  expect_whole_lines(out.str(), 21);
}

TEST(JsonlSink, ExplicitFlushDrainsTheBuffer) {
  std::ostringstream out;
  JsonlTraceSink sink{out};
  sink.on_span(make_span(0));
  sink.flush();
  expect_whole_lines(out.str(), 1);
  sink.on_span(make_span(1));
  sink.flush();
  expect_whole_lines(out.str(), 2);
  sink.flush();  // idempotent with an empty buffer
  expect_whole_lines(out.str(), 2);
}

TEST(JsonlSink, AutoFlushAtThresholdWritesWholeLineBlocks) {
  std::ostringstream out;
  JsonlTraceSink sink{out};
  // Large details force the kFlushBytes threshold quickly; at every point
  // the stream must hold only whole lines.
  const std::string detail(1024, 'x');
  std::size_t written = 0;
  while (out.str().empty()) {
    sink.on_span(make_span(written++, detail));
    ASSERT_LT(written, 1000u) << "auto-flush never triggered";
  }
  const std::string at_threshold = out.str();
  EXPECT_EQ(at_threshold.back(), '\n');
  EXPECT_GE(at_threshold.size(), JsonlTraceSink::kFlushBytes);
  sink.flush();
  expect_whole_lines(out.str(), written);
}

}  // namespace
}  // namespace redundancy::obs
