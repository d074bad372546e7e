// Benchmark-owned spans. Every span is recorded from the benchmark's own
// code around a call into one layer of the program; nothing inside the
// library is instrumented. Spans go to a per-thread buffer (no sharing on
// the hot path) and are gathered once the run has gone quiet, written as
// JSONL, and summarized into per-layer self times.
//
// The span tree is fixed, so a span names its parent by its own name:
//
//   gen.request            due time -> last response byte (generator)
//     gen.lag              due time -> start of the write carrying it
//     route.handler        route handler entry -> exit (pool worker)
//       route.lock_wait    handler entry -> route mutex held
//       core.run           pattern run() under the route mutex
//         core.variant     one variant body (pool worker)
//         core.voter       the majority voter wrapper
//   campaign.system        one judged request of the campaign
//     core.variant, core.voter
//
// All spans of one request carry its id.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "logic.hpp"

namespace perfbench::spans {

enum class Name : std::uint8_t {
  gen_request,
  gen_lag,
  route_handler,
  route_lock_wait,
  core_run,
  core_variant,
  core_voter,
  campaign_system,
};

enum class Route : std::uint8_t { none, echo, vote, fast };

struct Span {
  std::uint32_t id = 0;
  Name name = Name::gen_request;
  Route route = Route::none;
  std::uint64_t start = 0;
  std::uint64_t end = 0;
};

[[nodiscard]] const char* name_of(Name name);
/// Parent span name, or nullptr for a root.
[[nodiscard]] const char* parent_of(Name name);
[[nodiscard]] const char* route_of(Route route);

[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace detail {
inline std::atomic<bool> g_enabled{false};
}  // namespace detail

/// Recording switch; off in untraced runs, where no span clock is read.
inline void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}
[[nodiscard]] inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Append to the calling thread's buffer.
void record(const Span& span);
inline void record(std::uint32_t id, Name name, Route route,
                   std::uint64_t start, std::uint64_t end) {
  record(Span{id, name, route, start, end});
}

/// Move every thread's spans out (buffers are left empty). Call once
/// recording is switched off, so that no request is cut in half.
[[nodiscard]] std::vector<Span> drain();

/// One JSON object per line: id, name, parent, route, start_ns, end_ns —
/// for the requests among the first `max_requests` ids (the file is for
/// inspection; summarize() always takes every span).
bool write_jsonl(const std::string& path, const std::vector<Span>& spans,
                 std::size_t max_requests);

/// Per-layer figures computed from one traced window.
struct Summary {
  std::size_t requests = 0;  ///< ids that have a root span
  // Serving path, one entry per tiled request (see `untiled`): sent ->
  // handler entry, and handler exit -> last byte.
  std::vector<double> inbound_us, outbound_us;
  std::vector<double> lock_wait_us;
  std::vector<double> vote_run_us, fast_run_us;
  std::vector<double> variant_ns, voter_ns;
  /// core.run (or campaign.system) minus its slowest variant and the voter:
  /// submit, wake and join on the pool.
  std::vector<double> fanout_us;
  std::vector<double> system_ns;
  /// Sums over requests with a full fan-out: system time, slowest variant
  /// plus voter.
  double fanout_whole_ns = 0.0;
  double fanout_work_ns = 0.0;
  /// Mean self time per span name (µs), indexed by Name.
  std::vector<double> self_us;
  /// Requests whose root is not tiled by due -> sent -> handler entry ->
  /// handler exit -> last byte: a gen.lag or route.handler span is missing,
  /// or a stage ends before it starts (a span joined to the wrong request).
  std::size_t untiled = 0;
};

[[nodiscard]] Summary summarize(const std::vector<Span>& spans);

/// Sort every sample vector of `s` ascending (for percentile()).
void sort_samples(Summary& s);

}  // namespace perfbench::spans
