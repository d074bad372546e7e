// Trace event records: spans and adjudication events.
//
// Section 4.1 of the paper prices every technique by execution cost,
// adjudicator cost, and redundancy consumption. The trace makes those three
// observable per request: a SpanRecord times every unit of redundant work
// (one request, one variant execution, one campaign shard), and an
// AdjudicationEvent records *why* the adjudicator reached its verdict —
// electorate size, ballots actually seen, failures among them, the verdict,
// and how much redundancy was left unconsumed (stragglers cancelled).
//
// Both records are plain values: sinks serialise them (JSONL schema in
// EXPERIMENTS.md) and tests introspect them directly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace redundancy::obs {

/// Identifies one request's causal tree across threads. 0 = "no trace".
using TraceId = std::uint64_t;
/// Identifies one span within the process. 0 = "no parent" (root span).
using SpanId = std::uint64_t;

/// One timed unit of work. Parent/child edges survive work stealing: the
/// instrumentation passes (trace_id, parent span id) into pool tasks
/// explicitly, so a variant span points at its request span no matter which
/// worker executed it.
struct SpanRecord {
  TraceId trace_id = 0;
  SpanId span_id = 0;
  SpanId parent_id = 0;             ///< 0 for root spans
  std::string name;                 ///< e.g. "nvp", "variant", "shard"
  std::string detail;               ///< free-form (variant name, shard range)
  std::uint64_t t_start_ns = 0;     ///< obs::now_ns() at entry
  std::uint64_t t_end_ns = 0;       ///< obs::now_ns() at exit
  bool ok = true;                   ///< false if the unit reported failure

  [[nodiscard]] std::uint64_t duration_ns() const noexcept {
    return t_end_ns >= t_start_ns ? t_end_ns - t_start_ns : 0;
  }
};

/// One adjudicator evaluation: a voter over ballots (implicit) or an
/// acceptance-test round (explicit).
struct AdjudicationEvent {
  TraceId trace_id = 0;
  SpanId parent_id = 0;             ///< span the vote happened under
  std::string technique;            ///< emitting pattern/technique label
  std::uint64_t t_ns = 0;           ///< obs::now_ns() at the verdict
  std::size_t round = 1;            ///< revote round (incremental adjudication)
  std::size_t electorate = 0;       ///< variants eligible to vote
  std::size_t ballots_seen = 0;     ///< ballots available at vote time
  std::size_t ballots_failed = 0;   ///< failed ballots among those seen
  bool accepted = false;            ///< verdict carries a value
  std::string verdict;              ///< "ok" or the failure description
  std::string winner;               ///< selected variant, when identifiable
  std::size_t stragglers_cancelled = 0;  ///< variants still unfinished when
                                         ///< the verdict was emitted
};

}  // namespace redundancy::obs
