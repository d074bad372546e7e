// Pure decision logic of the benchmark: percentile selection, the rate
// ladder and its stop rule, the generator-validity rule, span self time,
// HTTP response framing on the client side, the predicted-answer oracle and
// the failed-request count. Everything here is a function of its arguments, so
// tests/logic_test.cpp covers it without sockets or threads.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------------------
// Percentiles

/// One percentile of a sample set, with the evidence behind it.
struct Percentile {
  double value = 0.0;
  std::size_t count = 0;   ///< samples the percentile was taken over
  std::size_t beyond = 0;  ///< samples strictly above the chosen rank
};

/// Nearest-rank percentile of `sorted` (ascending): rank = ceil(p/100 * n),
/// clamped to [1, n]. An empty set yields {0, 0, 0}.
template <typename T>
[[nodiscard]] Percentile percentile(const std::vector<T>& sorted, double p) {
  Percentile out;
  out.count = sorted.size();
  if (sorted.empty()) return out;
  const double exact = p / 100.0 * static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(exact);
  if (static_cast<double>(rank) < exact) ++rank;
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  out.value = static_cast<double>(sorted[rank - 1]);
  out.beyond = sorted.size() - rank;
  return out;
}

/// A tail percentile is reported only when at least this many samples lie
/// beyond it.
inline constexpr std::size_t kMinBeyond = 10;

[[nodiscard]] inline bool resolvable(const Percentile& p) {
  return p.count > 0 && p.beyond >= kMinBeyond;
}

/// Median of unsorted values (mean of the middle pair for even counts).
[[nodiscard]] inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

// ---------------------------------------------------------------------------
// Generator validity

/// Limits past which the load generator, not the server, shaped the run.
struct GeneratorLimits {
  double lag_us_p99 = 0.0;        ///< send time − due time
  std::size_t backlog_max = 0;    ///< requests sent or due but unanswered
};

/// A run is measured only when the generator kept to its schedule: a late
/// generator silently lowers the offered rate and hides queueing.
[[nodiscard]] inline bool generator_kept_up(double lag_us_p99,
                                            std::size_t backlog_max,
                                            const GeneratorLimits& limits) {
  return lag_us_p99 <= limits.lag_us_p99 && backlog_max <= limits.backlog_max;
}

// ---------------------------------------------------------------------------
// Rate ladder

/// What one ladder step observed.
struct StepResult {
  double achieved_rps = 0.0;  ///< completed / wall over the step
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double p99_us = 0.0;        ///< failed requests count as over any limit
  /// Unanswered requests at kBacklogSamples evenly spaced due times, the
  /// last at the step's last due time.
  std::vector<std::size_t> backlog;
};

inline constexpr std::size_t kBacklogSamples = 8;

/// The backlog grows across a step when each of its last three samples
/// exceeds each of its first three by more than max(16, 1% of the step). A
/// stall the server recovers from raises one or two samples; a server that
/// cannot keep up raises the late ones all together.
[[nodiscard]] inline bool backlog_grows(const std::vector<std::size_t>& samples,
                                        std::size_t attempted) {
  if (samples.size() < 6) return false;
  const std::size_t slack = std::max<std::size_t>(16, attempted / 100);
  const std::size_t early = *std::max_element(samples.begin(), samples.begin() + 3);
  const std::size_t late = *std::min_element(samples.end() - 3, samples.end());
  return late > early + slack;
}

/// A step passes when p99 meets the limit, nothing failed and the backlog
/// did not grow.
[[nodiscard]] inline bool step_passes(const StepResult& s,
                                      double p99_limit_us) {
  return s.failed == 0 && s.attempted > 0 &&
         s.p99_us <= p99_limit_us &&
         !backlog_grows(s.backlog, s.attempted);
}

/// Geometric ladder on the fixed rungs start × 1.05^k. It climbs eight
/// rungs at a time until a step fails (or, when the first step fails,
/// descends eight at a time until one passes), then bisects the rungs
/// between the highest pass and the lowest failure until they are adjacent.
/// The answer is the achieved rate of the highest passing step.
class Ladder {
 public:
  static constexpr double kRung = 1.05;
  static constexpr int kCoarse = 8;
  static constexpr int kLowestRung = -32;  ///< start / 4.8

  explicit Ladder(double start_rps) : start_(start_rps) {}

  [[nodiscard]] bool done() const { return done_; }
  /// Offered rate of the next step to run.
  [[nodiscard]] double next_rate() const { return rate_at(rung_); }

  void report(const StepResult& step, double p99_limit_us) {
    if (step_passes(step, p99_limit_us)) {
      best_ = step.achieved_rps;
      passed_ = rung_;
      any_passed_ = true;
    } else {
      failed_ = rung_;
      any_failed_ = true;
    }
    if (!any_passed_) {
      rung_ -= kCoarse;
      done_ = rung_ < kLowestRung;
    } else if (!any_failed_) {
      rung_ += kCoarse;
    } else if (failed_ - passed_ > 1) {
      rung_ = passed_ + (failed_ - passed_) / 2;
    } else {
      done_ = true;
    }
  }

  /// Achieved rate of the highest passing step; 0 when none passed.
  [[nodiscard]] double max_rate() const { return best_; }

 private:
  [[nodiscard]] double rate_at(int rung) const {
    double r = start_;
    for (int i = 0; i < rung; ++i) r *= kRung;
    for (int i = 0; i > rung; --i) r /= kRung;
    return r;
  }

  double start_;
  int rung_ = 0;
  int passed_ = 0;  ///< highest passing rung, once any_passed_
  int failed_ = 0;  ///< lowest failing rung, once any_failed_
  bool any_passed_ = false;
  bool any_failed_ = false;
  bool done_ = false;
  double best_ = 0.0;
};

// ---------------------------------------------------------------------------
// Span self time

struct Interval {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
};

/// Duration of `parent` minus the part of it covered by the union of
/// `children` (each clipped to the parent). Overlapping children — parallel
/// variants — are counted once.
[[nodiscard]] inline std::uint64_t self_time(Interval parent,
                                             std::vector<Interval> children) {
  if (parent.end <= parent.start) return 0;
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  std::uint64_t covered = 0;
  std::uint64_t cursor = parent.start;
  for (const Interval& c : children) {
    const std::uint64_t s = std::max(c.start, cursor);
    const std::uint64_t e = std::min(c.end, parent.end);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return (parent.end - parent.start) - covered;
}

/// Share of `requests` whose spans did not tile their latency.
[[nodiscard]] inline double untiled_share(std::size_t untiled, std::size_t requests) {
  return requests == 0 ? 0.0
                       : static_cast<double>(untiled) / static_cast<double>(requests);
}

// ---------------------------------------------------------------------------
// Client-side HTTP response framing

enum class Frame : std::uint8_t { incomplete, ok, bad };

struct ParsedResponse {
  Frame frame = Frame::incomplete;
  int status = 0;
  std::string_view body;
  std::size_t consumed = 0;
};

/// Parse one "HTTP/1.1 <code> ..." response with a Content-Length body from
/// the front of `buf`. The body view points into `buf`.
[[nodiscard]] inline ParsedResponse parse_response(std::string_view buf) {
  ParsedResponse out;
  const std::size_t head_end = buf.find("\r\n\r\n");
  if (head_end == std::string_view::npos) {
    if (buf.size() > 8192) out.frame = Frame::bad;
    return out;
  }
  const std::string_view head = buf.substr(0, head_end);
  if (head.size() < 12 || head.substr(0, 9) != "HTTP/1.1 ") {
    out.frame = Frame::bad;
    return out;
  }
  int status = 0;
  for (std::size_t i = 9; i < 12; ++i) {
    const char c = head[i];
    if (c < '0' || c > '9') {
      out.frame = Frame::bad;
      return out;
    }
    status = status * 10 + (c - '0');
  }
  std::optional<std::size_t> length;
  std::size_t line = head.find("\r\n");
  while (line != std::string_view::npos) {
    const std::size_t next = head.find("\r\n", line + 2);
    const std::string_view field =
        head.substr(line + 2, next == std::string_view::npos
                                  ? std::string_view::npos
                                  : next - line - 2);
    constexpr std::string_view kName = "content-length:";
    if (field.size() > kName.size()) {
      bool match = true;
      for (std::size_t i = 0; i < kName.size(); ++i) {
        char c = field[i];
        if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
        if (c != kName[i]) {
          match = false;
          break;
        }
      }
      if (match) {
        std::size_t v = 0;
        bool digits = false;
        for (std::size_t i = kName.size(); i < field.size(); ++i) {
          const char c = field[i];
          if (c == ' ') continue;
          if (c < '0' || c > '9' || v > (std::size_t{1} << 40)) {
            out.frame = Frame::bad;
            return out;
          }
          v = v * 10 + static_cast<std::size_t>(c - '0');
          digits = true;
        }
        if (!digits) {
          out.frame = Frame::bad;
          return out;
        }
        length = v;
      }
    }
    line = next;
  }
  if (!length) {
    out.frame = Frame::bad;
    return out;
  }
  const std::size_t total = head_end + 4 + *length;
  if (buf.size() < total) return out;
  out.frame = Frame::ok;
  out.status = status;
  out.body = buf.substr(head_end + 4, *length);
  out.consumed = total;
  return out;
}

// ---------------------------------------------------------------------------
// Predicted answers

/// What the benchmark predicts a request must get back.
struct Expected {
  int status = 200;
  std::uint64_t value = 0;  ///< decimal body for 200; ignored otherwise
};

/// The response is correct when it has the predicted status and, for a 200,
/// exactly "<value>\n" as its body.
[[nodiscard]] inline bool judge(const Expected& want, int status,
                                std::string_view body) {
  if (status != want.status) return false;
  if (status != 200) return true;
  const std::string text = std::to_string(want.value) + "\n";
  return body == text;
}

/// How one request ended.
enum class Verdict : std::uint8_t {
  unanswered,  ///< transport error or timeout: no response came back
  wrong,       ///< answered, but not as predicted
  ok,
};

[[nodiscard]] inline Verdict verdict(const Expected& want, int status,
                                     std::string_view body) {
  return judge(want, status, body) ? Verdict::ok : Verdict::wrong;
}

/// The requests of one phase, by verdict.
struct Counts {
  std::size_t attempted = 0;
  std::size_t wrong = 0;
  std::size_t unanswered = 0;

  /// Requests that count as failed. A phase that overloads the server on
  /// purpose (a ladder step past the knee) loses requests to timeouts by
  /// design: those fail the step, not the run, so only wrong answers count.
  [[nodiscard]] std::size_t failed(bool overload_expected = false) const {
    return overload_expected ? wrong : wrong + unanswered;
  }
};

[[nodiscard]] inline Counts count(const std::vector<Verdict>& verdicts) {
  Counts c;
  c.attempted = verdicts.size();
  for (const Verdict v : verdicts) {
    if (v == Verdict::wrong) ++c.wrong;
    if (v == Verdict::unanswered) ++c.unanswered;
  }
  return c;
}

[[nodiscard]] inline double failed_share(std::size_t failed, std::size_t attempted) {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed) / static_cast<double>(attempted);
}

}  // namespace perfbench
